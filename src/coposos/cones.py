"""Membership testing in the inner approximation cones of the copositive cone.

Two families are supported, selected by :class:`ConeKind`:

``K`` (quartic lift): M is a member at level r when
``(sum x_i^2)^r * (x o2)^T M x o2`` is a sum of squares of forms in the
exact-degree ``r+2`` monomial basis.  The lift is invariant under every
sign flip x_i -> -x_i, so averaging a Gram matrix over the flips zeroes
each entry pairing monomials of different exponent parity (Gatermann and
Parrilo 2004): the Gram matrix splits into one PSD block per parity class,
the singleton classes together forming one NONNEG block, and only the even
monomials 2*delta are matched.  At level 0 this is PSD(n) + NONNEG(C(n,2)).

``Q`` (linear lift): M is a member at level r when
``(sum x_i)^r * x^T M x`` equals ``sum_{|b|=r} x^b * sigma_b + sum_{|b|=r+2}
c_b x^b`` with each sigma_b a quadratic sum of squares and each c_b >= 0;
the test uses one PSD(n) Gram block per degree-r monomial and a nonnegative
scalar per degree-(r+2) monomial.

Given variable permutations that fix the matrices, the layout keeps one
block, scalar and row per orbit; membership tests use the trivial group.

At level 0 both families coincide with the cone of matrices decomposable as
(positive semidefinite) + (entrywise nonnegative).

:class:`GramLayout` is the one owner of this Gram structure: its bases, its
blocks, the rows matching lifted coefficients and the extraction of a
certificate from a solution.  The membership SDP here and every cone
constraint of a :mod:`coposos.relax` relaxation are built from it.  The
exact audit (:func:`certificate_expansion`, :func:`validate_certificate`)
re-expands a certificate without its rows.  Lifts and audits run on
Python-integer numerators from one lift table per (n, r), built once and
cached (:func:`coposos.polycore.lift_table`): float certificate entries
enter the audit as exact dyadic integers.

Verdicts: MEMBER comes with an extracted Gram certificate whose exact
re-expansion residual is checked; NOT_MEMBER is backed by the solver's
infeasibility ray; everything on the numerical boundary is INCONCLUSIVE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .polycore import (
    LiftTable,
    MultiIndex,
    Poly,
    SymMatrix,
    coeff_norm,
    lift_table,
    monomial_basis,
    monomial_keys,
    monomial_positions,
)
from .sdpcore import (
    BlockSdp,
    BlockSpec,
    SdpBuilder,
    SdpStatus,
    nonneg_block,
    psd_block,
    solve,
)


class ConeKind(str, Enum):
    K = "K"
    Q = "Q"


class Verdict(str, Enum):
    MEMBER = "MEMBER"
    NOT_MEMBER = "NOT_MEMBER"
    INCONCLUSIVE = "INCONCLUSIVE"


def gram_basis(n: int, r: int, kind: ConeKind) -> tuple[MultiIndex, ...]:
    """Monomial basis indexing the Gram structure of a level-r membership SDP."""
    if kind is ConeKind.K:
        return monomial_basis(n, r + 2, exact_degree=True)
    return monomial_basis(n, r, exact_degree=True)


def lifted_poly(m: SymMatrix, r: int, kind: ConeKind) -> Poly:
    """The exact lifted polynomial whose representation is being certified:
    the lift table's row delta at x^delta (Q) or x^(2 delta) (K)."""
    table = lift_table(m.n, r)
    num, den = table.lift(m)
    step = 2 if kind is ConeKind.K else 1
    return Poly(m.n, {tuple(step * a for a in delta): Fraction(c, den)
                      for delta, c in zip(table.basis, num.tolist()) if c})


@dataclass
class SosCertificate:
    """Gram data witnessing a lifted-polynomial representation.

    kind K: one dense Gram matrix over the exact-degree-(r+2) monomial
    basis (parity-block-diagonal when taken from a solution).
    kind Q: one n x n Gram matrix per degree-r monomial plus one nonnegative
    scalar per degree-(r+2) monomial.
    """

    kind: ConeKind
    r: int
    n: int
    gram: np.ndarray | None = None
    gram_blocks: list[np.ndarray] | None = None
    scalars: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def to_text(self) -> str:
        doc = {
            "format": "coposos-certificate-v1",
            "kind": self.kind.value,
            "r": self.r,
            "n": self.n,
            "provenance": self.provenance,
        }
        if self.kind is ConeKind.K:
            doc["gram"] = np.asarray(self.gram, dtype=float).tolist()
        else:
            doc["gram_blocks"] = [np.asarray(b, dtype=float).tolist() for b in self.gram_blocks]
            doc["scalars"] = np.asarray(self.scalars, dtype=float).tolist()
        return json.dumps(doc, indent=1)

    @classmethod
    def from_text(cls, text: str) -> "SosCertificate":
        doc = json.loads(text)
        if doc.get("format") != "coposos-certificate-v1":
            raise ValueError("unrecognized certificate format")
        kind = ConeKind(doc["kind"])
        cert = cls(kind, int(doc["r"]), int(doc["n"]), provenance=doc.get("provenance", {}))
        if kind is ConeKind.K:
            cert.gram = np.array(doc["gram"], dtype=float)
        else:
            cert.gram_blocks = [np.array(b, dtype=float) for b in doc["gram_blocks"]]
            cert.scalars = np.array(doc["scalars"], dtype=float)
        return cert


def _images(exps: np.ndarray, gens) -> list[np.ndarray]:
    """Per generator g, the row of ``exps`` holding each monomial's image
    under x_i -> x_g[i]."""
    return [monomial_positions(exps, exps[:, np.argsort(g)]) for g in gens]


def _components(size: int, src: np.ndarray, dst: np.ndarray):
    """Connected component of each of ``size`` nodes under the edges src-dst,
    numbered in order of their first nodes, and those first nodes:
    union-find by min-label propagation with pointer jumping."""
    label = np.arange(size)
    if not src.size:  # no edges: every node is its own component
        return label, label
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        np.minimum.at(new, dst, label[src])
        new = new[new]
        if np.array_equal(new, label):
            first = label == np.arange(size)
            return (np.cumsum(first) - 1)[label], np.flatnonzero(first)
        label = new


def _orbits(perms, size: int):
    """Orbit of each of ``size`` points under the group the permutations
    generate, and each orbit's first point, joining each point to its
    images: no group enumeration."""
    src = np.tile(np.arange(size), len(perms))
    return _components(size, src, np.concatenate([src[:0], *perms]))


class GramLayout:
    """The Gram structure of one level-r cone constraint in a block SDP.

    kind K: the exact-degree-(r+2) basis is grouped by exponent parity in
    first-seen order; each class of two or more monomials is a Gram block
    and each singleton class a scalar cell, all matched row by row against
    the even degree-(2r+4) monomials 2*delta.
    kind Q: one n x n Gram block per degree-r monomial and a scalar cell per
    degree-(r+2) monomial, matched against the lift's degree-(r+2) monomials.

    ``symmetry`` holds permutations x_i -> x_g[i] fixing the constraint's
    matrices, so an invariant Gram point exists whenever any does (Gatermann
    and Parrilo 2004).  The SDP has one PSD block per orbit of Gram blocks, a
    trailing NONNEG block with a scalar per orbit of scalar cells, and one
    row per orbit of lifted monomials, the mean of the orbit's rows.  A
    reduced block is scaled like one full block of its orbit: a full entry
    is the mean of the reduced entries in its orbit, i.e. the reduced block
    averaged over its stabiliser and moved onto the orbit.  The trivial
    group gives one SDP block per Gram block and unit weights.  The blocks
    are numbered from ``first`` inside the SDP.
    """

    def __init__(self, n: int, r: int, kind: ConeKind, first: int = 0, symmetry=()):
        if r < 0:
            raise ValueError("level must be >= 0")
        self.n, self.r, self.kind, self.first = n, r, kind, first
        self.basis = gram_basis(n, r, kind)
        gens = [np.asarray(g, dtype=np.intp) for g in symmetry]
        basis = np.array(self.basis, dtype=np.intp)
        act = _images(basis, gens)
        lifted = lift_table(n, r).exps  # the lifted monomials: 2 * row (K) or row (Q)
        # slots: Gram block rows and scalar cells; an entry's lifted monomial
        # is its two slots' monomials plus its block's shift
        if kind is ConeKind.K:
            classes: dict[tuple, list[int]] = {}
            for t, beta in enumerate(self.basis):
                classes.setdefault(tuple(a % 2 for a in beta), []).append(t)
            self.classes = [c for c in classes.values() if len(c) > 1]
            self.singles = [c[0] for c in classes.values() if len(c) == 1]
            grams, cells, slot_act, row_act = self.classes, self.singles, act, act
            self._lifted = 2 * lifted
            slot_mono, shift = basis, np.zeros((len(grams) + len(cells), n), np.intp)
        else:
            # slot b*n + i is x_i in the block of monomial b; scalar slots follow
            nb = len(self.basis) * n
            self._lifted = lifted
            row_act = _images(lifted, gens)
            grams = [list(range(b * n, b * n + n)) for b in range(len(self.basis))]
            cells = list(range(nb, nb + len(self._lifted)))
            slot_act = [np.concatenate([(p[:, None] * n + g).ravel(), nb + q])
                        for p, g, q in zip(act, gens, row_act)]
            slot_mono = np.vstack([np.tile(np.eye(n, dtype=np.intp), (len(basis), 1)),
                                   np.zeros((len(cells), n), np.intp)])
            shift = np.vstack([basis, lifted])
        blocks = grams + [[c] for c in cells]
        side = np.array([len(b) for b in blocks])
        first_slot = np.cumsum(side) - side
        slots = np.array([s for b in blocks for s in b], dtype=np.intp)  # increasing in a block
        blk_of, self._pos = np.empty_like(slots), np.empty_like(slots)
        blk_of[slots] = np.repeat(np.arange(side.size), side)
        self._pos[slots] = np.arange(slots.size) - np.repeat(first_slot, side)
        orbit, reps = _orbits([blk_of[p[slots[first_slot]]] for p in slot_act], side.size)
        # every entry of every Gram block and scalar cell, row-major by block
        off = np.cumsum(side * side) - side * side
        self._blk = np.repeat(np.arange(side.size), side * side)
        within = np.arange(self._blk.size) - off[self._blk]
        self._si = slots[first_slot[self._blk] + within // side[self._blk]]
        self._sj = slots[first_slot[self._blk] + within % side[self._blk]]

        def entry(a, b):
            return off[blk_of[a]] + self._pos[a] * side[blk_of[a]] + self._pos[b]

        self._label = _orbits([entry(p[self._si], p[self._sj]) for p in slot_act],
                              self._blk.size)[0]
        self._gamma = slot_mono[self._si] + slot_mono[self._sj] + shift[self._blk]
        # each orbit's first block stands for it in the SDP, in orbit order
        self._rank = np.full(side.size, -1)
        self._rank[reps] = np.arange(reps.size)
        self._rep = np.flatnonzero(self._rank[self._blk] >= 0)
        self._count = np.bincount(orbit)[orbit]
        self._sides = side[reps[reps < len(grams)]].tolist()
        self._nscalar = reps.size - len(self._sides)
        self._row_orbit, self._row_reps = _orbits(row_act, len(self._lifted))

    def lift(self, m: SymMatrix) -> tuple[list[int], int]:
        """The lift of M at the monomial of each row of :meth:`rows`, in its
        order, as integer numerators over one common denominator."""
        num, den = lift_table(self.n, self.r).lift(m)
        return num[self._row_reps].tolist(), den

    def blocks(self) -> list[BlockSpec]:
        return [psd_block(k) for k in self._sides] + (
            [nonneg_block(self._nscalar)] if self._nscalar else []
        )

    def rows(self) -> dict[MultiIndex, list]:
        """Lifted monomial -> the Gram entries (block, i, j, weight) whose
        weighted sum is its coefficient, one row per orbit of the monomials
        the Gram structure can reach (rows for monomials absent from the
        lift match zero), keyed by the orbit's first monomial.  Each
        off-diagonal entry is listed once; the SDP builder doubles symmetric
        pairs."""
        size = np.bincount(self._row_orbit)
        rep = self._rep[self._si[self._rep] <= self._sj[self._rep]]
        row = self._row_orbit[monomial_positions(self._lifted, self._gamma[rep])]
        weight = self._count[self._blk[rep]] / size[row]
        rank = self._rank[self._blk[rep]]
        scalar = np.maximum(rank - len(self._sides), 0)  # a NONNEG entry's index
        block = self.first + np.minimum(rank, len(self._sides))
        i, j = self._pos[self._si[rep]] + scalar, self._pos[self._sj[rep]] + scalar
        out = [[] for _ in size]
        entries = zip(*(v.tolist() for v in (block, i, j, weight)))
        for o, entry in zip(row.tolist(), entries):
            out[o].append(entry)
        return {tuple(g): row for g, row in zip(self._lifted[self._row_reps].tolist(), out)}

    def embed(self, blocks):
        """The full Gram data of SDP blocks: kind K the dense Gram matrix
        over ``basis``, kind Q the Gram blocks and the scalars.  Each entry
        is the mean of the SDP entries in its orbit."""
        nsdp = len(self._sides) + (self._nscalar > 0)
        red = np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks[:nsdp]])
        label = self._label[self._rep]
        vals = (np.bincount(label, red) / np.bincount(label))[self._label]
        if self.kind is ConeKind.Q:
            cut = len(self.basis) * self.n * self.n
            return list(vals[:cut].reshape(-1, self.n, self.n)), vals[cut:]
        gram = np.zeros((len(self.basis), len(self.basis)))
        gram[self._si, self._sj] = vals
        return gram

    def split(self, full) -> list[np.ndarray]:
        """The SDP blocks of full Gram data given as :meth:`embed` returns
        it: the data averaged over the group, that is each orbit's mean, at
        the representatives.  The inverse of :meth:`embed` on invariant
        data."""
        if self.kind is ConeKind.Q:
            vals = np.concatenate([np.ravel(np.asarray(f, dtype=float)) for f in full])
        else:
            vals = np.asarray(full, dtype=float)[self._si, self._sj]
        red = (np.bincount(self._label, vals) / np.bincount(self._label))[
            self._label[self._rep]
        ]
        parts = np.split(red, np.cumsum([k * k for k in self._sides]))
        return [p.reshape(k, k) for p, k in zip(parts, self._sides)] + (
            parts[-1:] if self._nscalar else []
        )

    def certificate(self, sol, **provenance) -> SosCertificate:
        """The full certificate held in a solution's blocks; the solver's
        residuals and gap join the caller's provenance."""
        provenance = {
            "primal_res": sol.primal_res,
            "dual_res": sol.dual_res,
            "gap": sol.gap,
            **provenance,
        }
        cert = SosCertificate(self.kind, self.r, self.n, provenance=provenance)
        full = self.embed(sol.x_blocks[self.first :])
        if self.kind is ConeKind.K:
            cert.gram = full
        else:
            cert.gram_blocks, cert.scalars = full
        return cert


@dataclass
class MembershipProblem:
    matrix: SymMatrix
    layout: GramLayout
    sdp: BlockSdp
    index_map: dict[MultiIndex, int]  # lifted monomial -> constraint row


def build_membership(m: SymMatrix, r: int, kind: ConeKind) -> MembershipProblem:
    """SDP feasibility: find Gram data reproducing the level-r lift of M."""
    layout = GramLayout(m.n, r, kind)
    lift, den = layout.lift(m)
    builder = SdpBuilder(layout.blocks())
    index_map = {
        gamma: builder.add_row(entries, num / den, label=gamma)
        for num, (gamma, entries) in zip(lift, layout.rows().items())
    }
    return MembershipProblem(m, layout, builder.build(), index_map)


def build_K_membership(m: SymMatrix, r: int) -> MembershipProblem:
    return build_membership(m, r, ConeKind.K)


def build_Q_membership(m: SymMatrix, r: int) -> MembershipProblem:
    return build_membership(m, r, ConeKind.Q)


@dataclass
class MembershipResult:
    verdict: Verdict
    certificate: SosCertificate | None = None
    infeasibility_quality: float | None = None
    residual: Fraction | None = None
    min_gram_eig: float | None = None
    solution: object = None
    message: str = ""


def decide_membership(problem: MembershipProblem, eps: float = 1e-8) -> MembershipResult:
    """MEMBER with validated certificate, certified NOT_MEMBER, or INCONCLUSIVE.

    MEMBER requires re-expansion residual <= eps and smallest Gram eigenvalue
    >= -eps; NOT_MEMBER requires an infeasibility ray of quality <= eps.
    Boundary cases meeting neither bar are INCONCLUSIVE, never guessed.
    """
    sol = solve(problem.sdp, eps=min(eps, 1e-8))
    if sol.status == SdpStatus.OPTIMAL:
        cert = problem.layout.certificate(sol, eps=eps, iterations=sol.iterations)
        report = validate_certificate(problem.matrix, cert, tol=eps)
        member = report.residual <= eps and report.min_gram_eig >= -eps
        return MembershipResult(
            verdict=Verdict.MEMBER if member else Verdict.INCONCLUSIVE,
            certificate=cert,
            residual=report.residual,
            min_gram_eig=report.min_gram_eig,
            solution=sol,
            message="" if member else "solution found but certificate fails the membership bar",
        )
    if sol.status == SdpStatus.PRIMAL_INFEASIBLE:
        quality = _ray_quality(problem.sdp, sol)
        return MembershipResult(
            verdict=Verdict.NOT_MEMBER if quality <= eps else Verdict.INCONCLUSIVE,
            infeasibility_quality=quality,
            solution=sol,
            message="" if quality <= eps else "infeasibility ray below certificate quality bar",
        )
    return MembershipResult(
        verdict=Verdict.INCONCLUSIVE, solution=sol, message=sol.message
    )


def _ray_quality(sdp: BlockSdp, sol) -> float:
    """Residual of the normalized dual improving ray (smaller is better)."""
    y = sol.certificate["ray_y"]
    scale = float(sdp.b @ y)
    if scale <= 0:
        return float("inf")
    y = y / scale
    return max(0.0, -min(sdp.least_eigenvalues(-(sdp.A.T @ y))))


@dataclass
class CertificateReport:
    residual: Fraction  # coefficient norm of (lift - re-expansion), exact
    min_gram_eig: float
    min_scalar: float | None
    max_abs_entry: float
    ok: bool


def _expansion_terms(cert: SosCertificate, table: LiftTable):
    """The certificate's nonzero entries and the exponents of the monomial
    each adds to: Gram entry (i, j) over half-monomials u_i, u_j, shifted by
    beta, adds to beta + u_i + u_j (K: beta = 0 and u the basis; Q: one Gram
    block per degree-r monomial beta and u the unit vectors, read off the
    lift table), and each Q scalar to its own monomial."""
    if cert.kind is ConeKind.K:
        gram = np.asarray(cert.gram, dtype=float).ravel()
        s, t = np.divmod(np.flatnonzero(gram), len(table.exps))
        return table.exps[s] + table.exps[t], gram[s * len(table.exps) + t]
    flat = np.concatenate([np.asarray(b, dtype=float).ravel() for b in cert.gram_blocks]
                          + [np.asarray(cert.scalars, dtype=float).ravel()])
    rows = np.concatenate([table.target.ravel(), np.arange(len(table.basis))])
    if flat.size != rows.size:
        raise ValueError("Gram blocks and scalars do not match the level")
    k = np.flatnonzero(flat)
    return table.exps[rows[k]], flat[k]


def _dyadic(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Python ints k and one exponent e <= 0 with values == k * 2**e
    exactly: each 53-bit mantissa shifted by its exponent less e, the least
    exponent (or 0)."""
    if not np.isfinite(values).all():
        raise ValueError("certificate has an entry that is NaN or infinite")
    mantissa, exponent = np.frexp(values)
    exponent = exponent.astype(np.int64) - 53
    e = int(exponent.min(initial=0))
    ints = np.ldexp(mantissa, 53).astype(np.int64).astype(object)
    return np.left_shift(ints, (exponent - e).astype(object)), e


def _grouped(exps: np.ndarray, values: np.ndarray):
    """The distinct monomials among the rows of ``exps`` and the sum of
    ``values`` (Python ints) on each."""
    _, first, inverse = np.unique(monomial_keys(exps), return_index=True,
                                  return_inverse=True)
    sums = np.zeros(first.size, dtype=object)
    np.add.at(sums, inverse.ravel(), values)
    return exps[first], sums


def certificate_expansion(cert: SosCertificate) -> Poly:
    """Exact re-expansion of the certificate's polynomial: each nonzero
    entry adds its exact dyadic value to its monomial (see
    :func:`_expansion_terms`)."""
    exps, values = _expansion_terms(cert, lift_table(cert.n, cert.r))
    ints, e = _dyadic(values)
    exps, sums = _grouped(exps, ints)
    scale = Fraction(2) ** e
    return Poly(cert.n, {tuple(g): c * scale for g, c in zip(exps.tolist(), sums.tolist())})


def _least_eigenvalue(gram: np.ndarray) -> float:
    """The least eigenvalue of a symmetric matrix (its lower triangle, as
    ``eigvalsh`` reads it), taken per connected component of its nonzero
    pattern, such as the parity blocks of a K certificate; components of
    one size share one batched ``eigvalsh``."""
    nonzero = np.flatnonzero(gram.ravel() != 0)  # faster than np.nonzero
    label = _components(len(gram), *np.divmod(nonzero, len(gram)))[0]
    members = np.argsort(label, kind="stable")  # increasing within a component
    size = np.bincount(label)
    start = np.cumsum(size) - size
    least = np.inf
    for k in np.unique(size):
        idx = members[start[size == k][:, None] + np.arange(k)]
        sub = gram[idx[:, :, None], idx[:, None, :]]
        least = min(least, float(np.linalg.eigvalsh(sub)[:, 0].min()))
    return least


def validate_certificate(
    m: SymMatrix, cert: SosCertificate, tol: float = 1e-6
) -> CertificateReport:
    """Exact re-expansion check plus Gram spectrum and magnitude audit.

    Recomputes the lifted polynomial exactly, subtracts the certificate's
    expansion and reports the coefficient-norm residual; also reports the
    smallest Gram eigenvalue, the smallest scalar multiplier (kind Q) and
    the largest entry magnitude (certificate bit-size audit).
    """
    if cert.n != m.n:
        raise ValueError("certificate dimension does not match the matrix")
    if cert.kind is ConeKind.K:
        expected_side = comb(m.n + cert.r + 1, cert.r + 2)
        if np.asarray(cert.gram).shape != (expected_side, expected_side):
            raise ValueError("Gram matrix side does not match the level")
    table = lift_table(m.n, cert.r)
    lift, den = table.lift(m)
    exps, values = _expansion_terms(cert, table)
    ints, e = _dyadic(values)
    # lift / den - ints * 2**e over the common denominator den * 2**-e
    exps, diff = _grouped(
        np.vstack([table.exps * (2 if cert.kind is ConeKind.K else 1), exps]),
        np.concatenate([np.left_shift(lift, -e), -den * ints]),
    )
    degree = int(exps[0].sum())
    fact = np.array([factorial(k) for k in range(degree + 1)], dtype=np.int64)
    weights = (factorial(degree) // fact[exps].prod(axis=1)).tolist()
    residual = coeff_norm(zip(diff.tolist(), weights), den << -e)

    if cert.kind is ConeKind.K:
        min_eig, min_scalar = _least_eigenvalue(np.asarray(cert.gram, dtype=float)), None
    else:
        blocks = np.asarray(cert.gram_blocks, dtype=float)
        min_eig = float(np.linalg.eigvalsh(blocks)[:, 0].min())
        min_scalar = float(np.min(cert.scalars)) if len(cert.scalars) else 0.0
    ok = (residual <= Fraction(float(tol)) and min_eig >= -tol
          and (min_scalar is None or min_scalar >= -tol))
    return CertificateReport(
        residual=residual,
        min_gram_eig=min_eig,
        min_scalar=min_scalar,
        max_abs_entry=float(np.abs(values).max(initial=0.0)),
        ok=bool(ok),
    )
