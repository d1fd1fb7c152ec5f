"""Standard-form block semidefinite programming.

Data model (`BlockSdp`), a primal-dual interior-point solver with
Nesterov-Todd scaling inside a homogeneous self-dual embedding (`solve`),
and the sparse exchange format (`export_sparse`, `parse_sparse`).
"""

from .model import (
    BlockSpec,
    BlockSdp,
    SdpBuilder,
    SdpSolution,
    SdpStatus,
    export_sparse,
    parse_sparse,
    nonneg_block,
    psd_block,
    smat,
    svec,
)
from .solver import solve

__all__ = [
    "BlockSpec",
    "BlockSdp",
    "SdpBuilder",
    "SdpSolution",
    "SdpStatus",
    "export_sparse",
    "parse_sparse",
    "nonneg_block",
    "psd_block",
    "smat",
    "svec",
    "solve",
]
