"""Block SDP data model.

A ``BlockSdp`` is the standard primal form

    min <C, X>   s.t.  <A_i, X> = b_i  (i = 1..m),   X in K,

where K is a product of PSD(k) cones (k x k positive-semidefinite matrices)
and NONNEG(k) cones (k nonnegative scalars, i.e. a diagonal block).

Internally all symmetric data is stored in "svec" coordinates: the upper
triangle, row-major, with off-diagonal entries scaled by sqrt(2) so that
the Euclidean inner product of svec vectors equals the Frobenius inner
product of the matrices.  NONNEG blocks are stored as plain vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BlockSpec:
    kind: str  # "psd" | "nonneg"
    size: int

    def __post_init__(self):
        if self.kind not in ("psd", "nonneg"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("block size must be >= 1")

    @property
    def vec_dim(self) -> int:
        if self.kind == "psd":
            return self.size * (self.size + 1) // 2
        return self.size

    @property
    def cone_degree(self) -> int:
        # Barrier degree: k for both PSD(k) and NONNEG(k).
        return self.size


def psd_block(k: int) -> BlockSpec:
    return BlockSpec("psd", k)


def nonneg_block(k: int) -> BlockSpec:
    return BlockSpec("nonneg", k)


@lru_cache(maxsize=None)
def _svec_index(k: int):
    """Index maps of svec for side k, shared by every caller (read-only):
    the flat k*k position of each svec entry (the upper triangle,
    row-major), the svec entry of each flat position, and the svec scale."""
    iu, ju = np.triu_indices(k)
    upper = iu * k + ju
    entry = np.empty((k, k), dtype=np.intp)
    entry[iu, ju] = entry[ju, iu] = np.arange(iu.size)
    scale = np.where(iu == ju, 1.0, SQRT2)
    maps = (upper, entry.reshape(-1), scale)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def svec(mat: np.ndarray) -> np.ndarray:
    """Symmetric vectorization with sqrt(2)-scaled off-diagonals:
    (..., k, k) stacks -> (..., k(k+1)/2)."""
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[-1]
    upper, _, scale = _svec_index(k)
    return mat.reshape(mat.shape[:-2] + (k * k,)).take(upper, axis=-1) * scale


def smat(vec: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`svec`: (..., k(k+1)/2) -> (..., k, k)."""
    _, entry, scale = _svec_index(k)
    vals = np.asarray(vec, dtype=float) / scale
    return vals.take(entry, axis=-1).reshape(vals.shape[:-1] + (k, k))


class SdpStatus(str, Enum):
    OPTIMAL = "OPTIMAL"
    PRIMAL_INFEASIBLE = "PRIMAL_INFEASIBLE"
    DUAL_INFEASIBLE_OR_UNBOUNDED = "DUAL_INFEASIBLE_OR_UNBOUNDED"
    INCONCLUSIVE = "INCONCLUSIVE"


class BlockSdp:
    """Immutable standard-form block SDP (dense constraint matrix)."""

    def __init__(self, blocks, a_mat, b, c, row_labels=None):
        self.blocks: tuple[BlockSpec, ...] = tuple(blocks)
        self.slices: list[slice] = []
        pos = 0
        for blk in self.blocks:
            self.slices.append(slice(pos, pos + blk.vec_dim))
            pos += blk.vec_dim
        self.dim = pos
        self.A = np.ascontiguousarray(np.asarray(a_mat, dtype=float))
        self.b = np.asarray(b, dtype=float).reshape(-1)
        self.c = np.asarray(c, dtype=float).reshape(-1)
        if self.A.shape != (self.b.size, self.dim):
            raise ValueError(
                f"A has shape {self.A.shape}, expected ({self.b.size}, {self.dim})"
            )
        if self.c.size != self.dim:
            raise ValueError("objective dimension mismatch")
        self.row_labels = list(row_labels) if row_labels is not None else None

    @property
    def num_constraints(self) -> int:
        return self.b.size

    def unpack(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a flat svec vector into per-block matrices / vectors."""
        out = []
        for blk, sl in zip(self.blocks, self.slices):
            if blk.kind == "psd":
                out.append(smat(x[sl], blk.size))
            else:
                out.append(np.array(x[sl]))
        return out

    def pack(self, blocks_values) -> np.ndarray:
        """Inverse of :meth:`unpack`."""
        parts = []
        for blk, val in zip(self.blocks, blocks_values):
            if blk.kind == "psd":
                parts.append(svec(np.asarray(val, dtype=float)))
            else:
                parts.append(np.asarray(val, dtype=float).reshape(-1))
        out = np.concatenate(parts)
        if out.size != self.dim:
            raise ValueError("block values do not conform to the block pattern")
        return out

    def least_eigenvalues(self, x: np.ndarray) -> list[float]:
        """Least eigenvalue of each PSD block and least entry of each NONNEG
        block of a flat svec vector, in block order."""
        return [
            float(np.linalg.eigvalsh(part)[0] if blk.kind == "psd" else np.min(part))
            for blk, part in zip(self.blocks, self.unpack(x))
        ]

    @classmethod
    def from_blocks(cls, blocks, objective_blocks, constraints):
        """Build from per-block dense data.

        ``objective_blocks`` and each constraint's matrix list hold one
        k x k symmetric array per PSD block and one length-k vector per
        NONNEG block; ``constraints`` is a list of (blocks_values, rhs).
        """
        blocks = tuple(blocks)
        probe = cls(blocks, np.zeros((0, sum(b.vec_dim for b in blocks))), [],
                    np.zeros(sum(b.vec_dim for b in blocks)))
        for blk, val in zip(blocks, objective_blocks):
            if blk.kind == "psd":
                arr = np.asarray(val, dtype=float)
                if not np.allclose(arr, arr.T, atol=1e-12):
                    raise ValueError("objective PSD block is not symmetric")
        c = probe.pack(objective_blocks)
        rows = []
        rhs = []
        for mats, b_i in constraints:
            for blk, val in zip(blocks, mats):
                if blk.kind == "psd":
                    arr = np.asarray(val, dtype=float)
                    if not np.allclose(arr, arr.T, atol=1e-12):
                        raise ValueError("constraint PSD block is not symmetric")
            rows.append(probe.pack(mats))
            rhs.append(float(b_i))
        a_mat = np.vstack(rows) if rows else np.zeros((0, probe.dim))
        return cls(blocks, a_mat, rhs, c)


class SdpBuilder:
    """Incremental assembly of a BlockSdp: rows are collected as sparse
    {svec position: value} maps, and :meth:`build` fills a dense A.

    Entries are given per (block, i, j); for PSD blocks (i, j) with i != j
    sets the symmetric pair, and the svec scaling is handled here.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        self._offsets = []
        pos = 0
        for blk in self.blocks:
            self._offsets.append(pos)
            pos += blk.vec_dim
        self.dim = pos
        self._rows: list[dict[int, float]] = []
        self._rhs: list[float] = []
        self._labels: list[object] = []
        self._obj: dict[int, float] = {}

    def _coord(self, block: int, i: int, j: int) -> tuple[int, float]:
        blk = self.blocks[block]
        if i > j:
            i, j = j, i
        if not 0 <= i <= j < blk.size:
            raise ValueError(
                f"entry ({i}, {j}) outside block {block} of size {blk.size}"
            )
        if blk.kind == "nonneg":
            if i != j:
                raise ValueError("NONNEG blocks are diagonal")
            return self._offsets[block] + i, 1.0
        # svec position of (i, j), i <= j: the upper triangle, row-major
        pos = i * blk.size - i * (i - 1) // 2 + (j - i)
        return self._offsets[block] + pos, 1.0 if i == j else SQRT2

    def add_row(self, entries, rhs, label=None) -> int:
        """entries: iterable of (block, i, j, value); returns the row index."""
        row: dict[int, float] = {}
        for block, i, j, value in entries:
            pos, scale = self._coord(block, i, j)
            row[pos] = row.get(pos, 0.0) + scale * float(value)
        self._rows.append(row)
        self._rhs.append(float(rhs))
        self._labels.append(label)
        return len(self._rows) - 1

    def set_objective(self, entries) -> None:
        for block, i, j, value in entries:
            pos, scale = self._coord(block, i, j)
            self._obj[pos] = self._obj.get(pos, 0.0) + scale * float(value)

    def build(self) -> BlockSdp:
        a_mat = np.zeros((len(self._rows), self.dim))
        for r, row in enumerate(self._rows):
            for pos, val in row.items():
                a_mat[r, pos] = val
        c = np.zeros(self.dim)
        for pos, val in self._obj.items():
            c[pos] = val
        return BlockSdp(self.blocks, a_mat, self._rhs, c, row_labels=self._labels)


@dataclass
class SdpSolution:
    status: SdpStatus
    objective: float | None = None
    x_blocks: list | None = None
    y: np.ndarray | None = None
    s_blocks: list | None = None
    primal_res: float = float("nan")
    dual_res: float = float("nan")
    gap: float = float("nan")
    relgap: float = float("nan")
    iterations: int = 0
    tau: float = float("nan")
    kappa: float = float("nan")
    certificate: dict | None = None
    message: str = ""
    diagnostics: dict = field(default_factory=dict)


# -- plain-text sparse exchange format ---------------------------------------
#
# One line per nonzero:  "<constraint> <block> <row> <col> <value>"
# with constraint 0 denoting the objective and 1..m the equality
# constraints; a leading "rhs <constraint> <value>" line per nonzero
# right-hand side, and a header describing the block pattern:
#
#   blocks <kind:size> <kind:size> ...
#
# Indices are 0-based within each block; for PSD blocks only the upper
# triangle (row <= col) is listed and symmetry is implied.


def export_sparse(sdp: BlockSdp) -> str:
    lines = ["blocks " + " ".join(f"{blk.kind}:{blk.size}" for blk in sdp.blocks)]
    lines += [f"rhs {i + 1} {float(b_i)!r}" for i, b_i in enumerate(sdp.b) if b_i != 0.0]
    # (block, row, column, svec scale) of every svec position
    where = []
    for bi, blk in enumerate(sdp.blocks):
        if blk.kind == "psd":
            upper, _, scale = _svec_index(blk.size)
            where += zip([bi] * scale.size, upper // blk.size, upper % blk.size, scale)
        else:
            where += [(bi, r, r, 1.0) for r in range(blk.size)]
    for cons, vec in enumerate([sdp.c, *sdp.A]):
        for pos in np.flatnonzero(vec):
            bi, r, col, scale = where[pos]
            lines.append(f"{cons} {bi} {r} {col} {float(vec[pos] / scale)!r}")
    return "\n".join(lines) + "\n"


def parse_sparse(text: str) -> BlockSdp:
    blocks = None
    rhs: dict[int, float] = {}
    entries: dict[int, list] = {}
    max_cons = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "blocks":
            blocks = []
            for token in parts[1:]:
                kind, size = token.split(":")
                blocks.append(BlockSpec(kind, int(size)))
            continue
        if parts[0] == "rhs":
            rhs[int(parts[1])] = float(parts[2])
            continue
        cons, bi, r, cidx = (int(v) for v in parts[:4])
        val = float(parts[4])
        entries.setdefault(cons, []).append((bi, r, cidx, val))
        max_cons = max(max_cons, cons)
    if blocks is None:
        raise ValueError("missing blocks header")
    if rhs:
        max_cons = max(max_cons, max(rhs))
    builder = SdpBuilder(blocks)
    builder.set_objective(entries.get(0, []))
    for cons in range(1, max_cons + 1):
        builder.add_row(entries.get(cons, []), rhs.get(cons, 0.0))
    return builder.build()
