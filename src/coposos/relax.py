"""Conic-program data model and SDP relaxation assembly.

A :class:`ConicProgram` is  min { b^T y : sum_i y_i A_i - C in COP }  with
one or more cone constraints.  Replacing the copositive cone by the level-r
inner cones (kind K or Q, see :mod:`coposos.cones`) turns it into a block
SDP in which each free variable y_i = (d_i+ - d_i-) / 2 is split over a
nonnegative diagonal block D = (d_1+, d_1-, ..., d_m+, d_m-), with
objective block B = Diag(b_1/2, -b_1/2, ...) so that <D, B> = b^T y holds
exactly.  Its rows are one per (constraint, monomial) and nothing else: no
bound on y enters the SDP, since the homogeneous embedding of
:func:`coposos.sdpcore.solve` needs none.  Each cone constraint's Gram
blocks, its rows and the extraction of its certificate come from one
:class:`coposos.cones.GramLayout`, the one owner of the Gram structure; a
Gram block whose rows commute enters as a NONNEG block, one scalar per
common eigenspace.  A layout is immutable and built once per (n, r, kind,
symmetry) in a process (:meth:`GramLayout.shared`); the relaxation records
where each layout's blocks start (:attr:`RelaxationSdp.firsts`).  A
layout's rows go to the SDP builder as the same flat arrays a membership
SDP is built from, shifted to those blocks, with the D columns of every row
appended as arrays and labelled (constraint, monomial).  A constraint's
exactly checked ``symmetry`` is the group its layout reduces by: Aut(G) or
Aut(G) x S_t from :mod:`coposos.apps`, and the trivial group otherwise.

The module also holds the paper's interior-point condition at the conic
level: a strictly feasible ybar whose slack splits as
sum_i ybar_i A_i - C = P + N  (P positive definite, N entrywise
nonnegative).  :func:`check_intspn` searches for such a split, itself the
Q^(0) relaxation of a one-variable program, and returns it as an
:class:`SpnWitness` whose :meth:`SpnWitness.check_exact` re-checks it in
exact arithmetic.  Last comes :func:`to_bounded`, the value-preserving
transform that appends the diagonal (2R -+ y_i) as one more cone
constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cones import ConeKind, GramLayout, SosCertificate, validate_certificate
from .polycore import SymMatrix, is_psd_exact
from .sdpcore import BlockSdp, SdpBuilder, SdpStatus, nonneg_block, solve


@dataclass(frozen=True)
class ConeConstraint:
    """sum_i y_i A_i - C in COP; each ``symmetry`` generator g must fix every
    A_i and C exactly: entry (g[i], g[j]) equals entry (i, j)."""

    n: int
    a_mats: tuple[SymMatrix, ...]
    c_mat: SymMatrix
    symmetry: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.c_mat.n != self.n or any(a.n != self.n for a in self.a_mats):
            raise ValueError("constraint matrices have inconsistent dimensions")
        for g in self.symmetry:
            if sorted(g) != list(range(self.n)):
                raise ValueError(f"symmetry generator {g} is not a permutation")
            # one exact pass per matrix: entry (g[i], g[j]) is entry (i, j)
            p = np.asarray(g)
            if any((m.num[p[:, None], p] != m.num).any() for m in (*self.a_mats, self.c_mat)):
                raise ValueError(f"symmetry generator {g} moves a constraint matrix")

    def slack(self, y) -> SymMatrix:
        """sum_i y_i A_i - C, exact when y is rational: the integer
        numerators of each matrix times one Python int, summed over the lcm
        of the denominators of C and of each y_i A_i."""
        terms = [(Fraction(yi), a) for yi, a in zip(y, self.a_mats) if yi]
        den = math.lcm(self.c_mat.den, *(yi.denominator * a.den for yi, a in terms))
        num = self.c_mat.num * -(den // self.c_mat.den)
        for yi, a in terms:
            num += a.num * (yi.numerator * (den // (yi.denominator * a.den)))
        return SymMatrix(num, den)


@dataclass(frozen=True)
class ConicProgram:
    b: tuple[Fraction, ...]
    constraints: tuple[ConeConstraint, ...]

    @property
    def m(self) -> int:
        """The number of variables y_i."""
        return len(self.b)

    def __post_init__(self):
        if not self.b:
            raise ValueError("at least one variable y_i is required")
        if not self.constraints:
            raise ValueError("at least one cone constraint is required")
        for cons in self.constraints:
            if len(cons.a_mats) != self.m:
                raise ValueError("constraint has wrong number of A matrices")

    @classmethod
    def make(cls, b, constraints) -> "ConicProgram":
        b = tuple(Fraction(v) for v in b)
        cons = tuple(c if isinstance(c, ConeConstraint)
                     else ConeConstraint(c[0], tuple(c[1]), c[2]) for c in constraints)
        return cls(b=b, constraints=cons)


@dataclass
class RelaxationSdp:
    sdp: BlockSdp
    prog: ConicProgram
    r: int
    kind: ConeKind
    d_block: int
    layouts: list[GramLayout]
    firsts: list[int]  # the SDP block where each layout's blocks start

    def decode_y(self, sol) -> np.ndarray:
        d = np.asarray(sol.x_blocks[self.d_block])
        return (d[0::2] - d[1::2]) / 2.0


def build_relaxation_sdp(prog: ConicProgram, r: int, kind: ConeKind) -> RelaxationSdp:
    """Assemble the level-r block SDP of a conic program for either kind."""
    kind, m = ConeKind(kind), prog.m

    blocks, layouts, firsts = [], [], []
    for cons in prog.constraints:
        layout = GramLayout.shared(cons.n, r, kind, cons.symmetry)
        firsts.append(len(blocks))
        blocks += layout.blocks()
        layouts.append(layout)

    d_block = len(blocks)
    blocks.append(nonneg_block(2 * m))
    builder = SdpBuilder(blocks)

    for ci, (layout, first, cons) in enumerate(zip(layouts, firsts, prog.constraints)):
        (row, block, i, j, weight), monomials = layout.rows()
        entries = row, block + first, i, j, weight
        coef = np.array([num / den for num, den in map(layout.lift, cons.a_mats)], dtype=float)
        # each row less y_i * coef, written via (d_i+ - d_i-) / 2
        var, t = np.nonzero(coef)
        half, d = coef[var, t] / 2.0, np.full_like(t, d_block)
        d_plus, d_minus = (t, d, 2 * var, 2 * var, -half), (t, d, 2 * var + 1, 2 * var + 1, half)
        lift_c, den_c = layout.lift(cons.c_mat)
        builder.add_rows(*map(np.concatenate, zip(entries, d_plus, d_minus)),
                         -(lift_c / den_c), list(zip([ci] * len(monomials), monomials)))

    # the objective on the diagonal pair (d_i+, d_i-) of D
    pair = np.arange(2 * m)
    half_b = np.array(prog.b, dtype=float) / 2.0
    builder.add_rows(-1, d_block, pair, pair, np.column_stack([half_b, -half_b]).ravel(), [])
    return RelaxationSdp(
        sdp=builder.build(),
        prog=prog,
        r=r,
        kind=kind,
        d_block=d_block,
        layouts=layouts,
        firsts=firsts,
    )


# -- interior feasible points -------------------------------------------------


@dataclass
class SpnWitness:
    """Feasible point whose slack splits as (positive definite) + (nonnegative).

    ``lambda_min_lb`` is an exact rational lower bound on the least
    eigenvalue of P, certified by a rational factorization check.
    """

    ybar: tuple[Fraction, ...]
    p_mat: SymMatrix
    n_mat: SymMatrix
    lambda_min_lb: Fraction

    def check_exact(self, cons: ConeConstraint) -> bool:
        if self.lambda_min_lb <= 0:
            return False
        if (self.n_mat.num < 0).any() or cons.slack(self.ybar) != self.p_mat + self.n_mat:
            return False
        shifted = self.p_mat - SymMatrix.identity(self.p_mat.n).scale(self.lambda_min_lb)
        return is_psd_exact(shifted)


@dataclass
class SpnRefusal:
    lambda_star: float
    message: str = ""


def check_intspn(cons: ConeConstraint, ybar) -> SpnWitness | SpnRefusal:
    """Search for a P + N split of the constraint's slack S at ybar with P
    well-conditioned.

    The search is the Q^(0) relaxation of  min { -lam : S - lam*I in COP }:
    its Gram block is P - lam*I and its scalar at x_i x_j is N_ij, doubled
    off the diagonal.  It is bounded with no box: every point of the cone
    has a nonnegative diagonal, so lam <= min S_ii, and lam = lambda_min(S)
    is feasible, so lambda_min(S) <= lam*.  The optimum lam* is rounded to
    an exactly verified witness, which :meth:`SpnWitness.check_exact`
    accepts for ``cons``.  Returns a refusal carrying lam* when it is not
    above 1e-7.
    """
    ybar = tuple(Fraction(v) for v in ybar)
    s_exact = cons.slack(ybar)
    n = cons.n
    aux = ConicProgram((Fraction(-1),), (
        ConeConstraint(n, (SymMatrix.identity(n).scale(-1),), s_exact.scale(-1)),))
    rel = build_relaxation_sdp(aux, 0, ConeKind.Q)
    sol = solve(rel.sdp)
    if sol.status != SdpStatus.OPTIMAL:
        return SpnRefusal(
            lambda_star=float("nan"), message=f"auxiliary SDP: {sol.status.value}"
        )
    lam_star = float(rel.decode_y(sol)[0])
    if lam_star <= 1e-7:
        return SpnRefusal(lambda_star=lam_star, message="slack has no interior split")

    # Round N to exact nonnegative rationals, take P as the exact remainder,
    # then certify a rational eigenvalue lower bound by exact factorization.
    i, j = np.triu_indices(n)  # the order of the Q^(0) scalars
    n_float = np.zeros((n, n))
    n_float[i, j] = n_float[j, i] = (np.maximum(rel.layouts[0].certificate(sol).scalars, 0.0)
                                     / np.where(i == j, 1.0, 2.0))
    n_exact = SymMatrix.from_float(n_float)
    p_exact = s_exact - n_exact

    lb = _psd_shift(p_exact, SymMatrix.identity(n), Fraction(float(lam_star)) * Fraction(9, 10), 80)
    if lb is None:
        return SpnRefusal(lambda_star=lam_star, message="could not certify the rounding")
    return SpnWitness(ybar, p_exact, n_exact, lb)


def _psd_shift(p: SymMatrix, d: SymMatrix, start: Fraction, tries: int) -> Fraction | None:
    """The first s of start, start/2, ..., start/2^(tries-1) with p - s*d
    exactly PSD, or None."""
    for _ in range(tries):
        if is_psd_exact(p - d.scale(start)):
            return start
        start /= 2
    return None


# -- a variable box at the conic level -----------------------------------------


def to_bounded(prog: ConicProgram, box_bound) -> ConicProgram:
    """Append the diagonal (2R -+ y_i) box as one more cone constraint.

    The new constraint is 2m-dimensional with the trivial group: A_i is -1
    and +1 on the diagonal slots (2i, 2i+1) and C is -2R I, so its slack is
    Diag(2R - y_1, 2R + y_1, ...).  The optimal value is preserved whenever
    the box contains an optimal solution.
    """
    big_r = Fraction(box_bound)
    if big_r <= 0:
        raise ValueError("box bound must be positive")
    m = prog.m
    box = tuple(SymMatrix.diag([-1 if k == 2 * i else 1 if k == 2 * i + 1 else 0
                                for k in range(2 * m)]) for i in range(m))
    extra = ConeConstraint(2 * m, box, SymMatrix.diag([-2 * big_r] * (2 * m)))
    return ConicProgram(prog.b, prog.constraints + (extra,))


# -- end-to-end relaxation solving --------------------------------------------


@dataclass
class RelaxationResult:
    status: SdpStatus
    value: float | None = None
    y: np.ndarray | None = None
    certificates: list[SosCertificate] = field(default_factory=list)
    certificate_reports: list = field(default_factory=list)
    relaxation: RelaxationSdp | None = None
    solution: object = None
    message: str = ""


def extract_certificates(rel: RelaxationSdp, sol) -> list[SosCertificate]:
    return [layout.certificate(sol, first) for layout, first in zip(rel.layouts, rel.firsts)]


def solve_relaxation(
    prog: ConicProgram,
    r: int,
    kind: ConeKind,
    *,
    eps: float = 1e-7,
) -> RelaxationResult:
    """Assemble, solve and decode.

    The default eps is the value accuracy reliably certifiable in double
    precision across this problem family, whose optimal faces are often
    degenerate; pass a smaller eps to insist.  A value is returned only
    when every cone constraint's certificate passes exact validation;
    otherwise an OPTIMAL solve is downgraded to INCONCLUSIVE with
    ``value=None``, keeping the certificates and reports for audit.  No
    bound is put on y, so a program whose level-r value is -infinity ends
    DUAL_INFEASIBLE_OR_UNBOUNDED at a primal improving ray, with
    ``value=None``: no finite value stands in for an unbounded one.
    """
    rel = build_relaxation_sdp(prog, r, kind)
    sol = solve(rel.sdp, eps=eps)
    res = RelaxationResult(sol.status, relaxation=rel, solution=sol, message=sol.message)
    if sol.status != SdpStatus.OPTIMAL:
        return res
    res.y = rel.decode_y(sol)
    res.certificates = extract_certificates(rel, sol)
    y_exact = [Fraction(float(v)) for v in res.y]
    tol = max(100 * eps, 1e-6)
    res.certificate_reports = [validate_certificate(cons.slack(y_exact), cert, tol=tol)
                               for cons, cert in zip(prog.constraints, res.certificates)]
    failed = [f"constraint {ci} (residual {float(rep.residual):.3g}, least Gram eigenvalue "
              f"{rep.min_gram_eig:.3g}, least scalar {rep.min_scalar:.3g})"
              for ci, rep in enumerate(res.certificate_reports) if not rep.ok]
    if failed:
        res.status = SdpStatus.INCONCLUSIVE
        res.message = "certificate fails exact validation: " + "; ".join(failed)
    else:
        res.value = float(sol.objective)
    return res
