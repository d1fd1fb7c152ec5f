"""Feasible-region ball diagnostics for a block SDP.

Given a candidate interior point X0, report how well it satisfies the
equality constraints, its positivity margin per block, and the conditioning
figure log(R2/R1) for inner/outer radii supplied by the caller.  Purely
informative: nothing here is used to steer the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import BlockSdp


@dataclass
class SandwichReport:
    eq_residual: float
    worst_row: int | None
    block_margins: list[float]
    margin: float
    inner_radius: float
    outer_radius: float
    log_ratio: float
    violations: list[str] = field(default_factory=list)
    ok: bool = True

    def summary(self) -> str:
        status = "ok" if self.ok else "FLAGGED"
        return (
            f"sandwich[{status}] residual={self.eq_residual:.3e} "
            f"margin={self.margin:.3e} log(R2/R1)={self.log_ratio:.3f}"
        )


def sandwich_diagnostics(
    sdp: BlockSdp,
    x0_blocks,
    r1: float,
    r2: float,
    feas_tol: float = 1e-8,
) -> SandwichReport:
    """Check X0 against the constraints and report per-block margins.

    ``x0_blocks`` holds one k x k array per PSD block and one length-k
    vector per NONNEG block, conforming to the SDP's block pattern.
    """
    x0 = sdp.pack(x0_blocks)  # raises on nonconforming input
    residuals = sdp.A @ x0 - sdp.b
    eq_residual = float(np.max(np.abs(residuals))) if residuals.size else 0.0
    worst_row = int(np.argmax(np.abs(residuals))) if residuals.size else None

    margins = sdp.least_eigenvalues(x0)
    margin = min(margins) if margins else float("inf")

    violations = []
    if eq_residual > feas_tol:
        violations.append(
            f"equality residual {eq_residual:.3e} exceeds {feas_tol:.1e}"
            + (f" (row {worst_row})" if worst_row is not None else "")
        )
    if margin <= 0:
        violations.append(f"X0 is not in the cone interior (margin {margin:.3e})")
    if not (0 < r1 <= r2):
        violations.append(f"radii out of order: R1={r1!r}, R2={r2!r}")

    log_ratio = (
        math.log(r2 / r1) if (r1 > 0 and r2 > 0) else float("inf")
    )
    return SandwichReport(
        eq_residual=eq_residual,
        worst_row=worst_row,
        block_margins=margins,
        margin=margin,
        inner_radius=float(r1),
        outer_radius=float(r2),
        log_ratio=log_ratio,
        violations=violations,
        ok=not violations,
    )
