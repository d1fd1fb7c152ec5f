"""Membership testing in the inner approximation cones of the copositive cone.

Two families are supported, selected by :class:`ConeKind`:

``K`` (quartic lift): M is a member at level r when
``(sum x_i^2)^r * (x o2)^T M x o2`` is a sum of squares of forms in the
exact-degree ``r+2`` monomial basis.  The lift is invariant under every
sign flip x_i -> -x_i, so averaging a Gram matrix over the flips zeroes
each entry pairing monomials of different exponent parity (Gatermann and
Parrilo 2004): the Gram matrix splits into one PSD block per parity class
of two or more monomials (:func:`parity_classes`) and a nonnegative scalar
per singleton class, and only the even monomials 2*delta are matched.  At
level 0 this is PSD(n) + NONNEG(C(n,2)).

``Q`` (linear lift): M is a member at level r when
``(sum x_i)^r * x^T M x`` equals ``sum_{|b|=r} x^b * sigma_b + sum_{|b|=r+2}
c_b x^b`` with each sigma_b a quadratic sum of squares and each c_b >= 0;
the test uses one PSD(n) Gram block per degree-r monomial and a nonnegative
scalar per degree-(r+2) monomial.

Given variable permutations that fix the matrices, the layout keeps one
block, scalar and row per orbit; membership tests use the trivial group.
An orbit block whose row matrices commute is diagonal in their common
eigenbasis, so it becomes one nonnegative scalar per common eigenspace (the
commutative case of de Klerk, Dobre and Pasechnik 2011).

At level 0 both families coincide with the cone of matrices decomposable as
(positive semidefinite) + (entrywise nonnegative).

A certificate has one shape for both kinds, Gram blocks plus scalars
(:class:`GramShape`, cached per (n, r, kind)); it is the only place that
knows how K and Q differ, holding each slot's exponent signature, the
diagonal slots and the lift-table row of every entry (see
:func:`coposos.polycore.lift_table`).  :class:`GramLayout` is the one owner
of the SDP's Gram structure: its blocks, the rows matching lifted
coefficients and the extraction of a certificate from a solution.  A
layout is immutable, built once per (n, r, kind, symmetry)
(:meth:`GramLayout.shared`).  Its rows are flat arrays (row, block, i, j,
weight), blocks numbered from 0, that go to
:meth:`coposos.sdpcore.SdpBuilder.add_rows` whole, with the right-hand
sides and each row's monomial as its label.  The membership SDP here and
every cone constraint of a :mod:`coposos.relax` relaxation are built from
them.  The exact audit
(:func:`validate_certificate`) re-expands a certificate from its shape
alone.  Lifts and audits run on Python-integer numerators: certificate
entries enter as exact dyadic integers.

Verdicts: MEMBER comes with an extracted Gram certificate whose exact
re-expansion residual is checked; NOT_MEMBER is backed by the solver's
infeasibility ray; everything on the numerical boundary is INCONCLUSIVE.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .polycore import (
    MultiIndex,
    SymMatrix,
    coeff_norm,
    dyadic,
    lift_table,
    monomial_basis,
    monomial_positions,
    multinomial,
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


def parity_classes(basis) -> list[list[int]]:
    """The positions of ``basis`` grouped by exponent parity, the classes
    and their members in first-seen order."""
    classes: dict[tuple, list[int]] = {}
    for t, beta in enumerate(basis):
        classes.setdefault(tuple([a % 2 for a in beta]), []).append(t)
    return list(classes.values())


class GramShape:
    """The shape of every level-r certificate of one kind in n variables,
    the one place that knows how the kinds differ: ``sides`` of its Gram
    blocks and ``nscalar`` scalars.

    ``slots`` holds the slots of each Gram block, then the one slot of each
    scalar cell; ``key`` gives each slot a signature of 2n exponents, which
    variable permutations act on.  kind K: slot s is monomial u_s of the
    exact-degree-(r+2) basis, key [u_s, 0]; the blocks are the parity
    classes of two or more monomials, the cells the singleton classes.  kind
    Q: slot b*n + i is x_i in the block of degree-r monomial tau_b, key
    [tau_b, e_i]; slot nb + t is the scalar of lift-table row t, key
    [delta_t, 0].  ``diag[t]`` is the slot keyed [delta_t, 0], whose diagonal
    entry adds to row t.
    Every entry of every block and cell, row-major by block, is entry
    (``si``, ``sj``) of block ``blk`` (index :meth:`entry`); ``row`` is the
    lift-table row it adds to, the key sum [a, c] read as a/2 + c.
    ``lifted`` holds each row's lifted monomial (2 delta for K, delta for Q)
    and ``weight`` its multinomial.
    """

    def __init__(self, n: int, r: int, kind: ConeKind):
        kind = ConeKind(kind)  # "K" keys the same cache entry as ConeKind.K
        table = lift_table(n, r)
        exps = table.exps.astype(np.intp)
        row_key = np.hstack([exps, np.zeros_like(exps)])  # [delta_t, 0] per row t
        if kind is ConeKind.K:
            classes = parity_classes(table.basis)
            self.slots = [c for c in classes if len(c) > 1] + [c for c in classes if len(c) == 1]
            self.nscalar = sum(len(c) == 1 for c in classes)
            self.key, self.lifted = row_key, 2 * exps
        else:
            taus = np.array(monomial_basis(n, r), dtype=np.intp)
            nb, self.nscalar = taus.size, len(exps)
            self.slots = ([list(range(s, s + n)) for s in range(0, nb, n)]
                          + [[nb + t] for t in range(len(exps))])
            eyes = np.tile(np.eye(n, dtype=np.intp), (len(taus), 1))
            self.key = np.vstack([np.hstack([np.repeat(taus, n, axis=0), eyes]), row_key])
            self.lifted = exps
        self.diag = monomial_positions(self.key, row_key)
        self.width = np.array([len(b) for b in self.slots])  # of every block and cell
        self.sides = self.width[: self.width.size - self.nscalar].tolist()
        start = np.cumsum(self.width) - self.width
        slots = np.concatenate(self.slots)  # increasing in a block
        self.lead = slots[start]  # each block's first slot
        self.blk_of, self.pos = np.empty_like(slots), np.empty_like(slots)
        self.blk_of[slots] = np.repeat(np.arange(self.width.size), self.width)
        self.pos[slots] = np.arange(slots.size) - np.repeat(start, self.width)
        self.off = np.cumsum(self.width**2) - self.width**2
        self.blk = np.repeat(np.arange(self.width.size), self.width**2)
        within = np.arange(self.blk.size) - self.off[self.blk]
        self.si = slots[start[self.blk] + within // self.width[self.blk]]
        self.sj = slots[start[self.blk] + within % self.width[self.blk]]
        both = self.key[self.si] + self.key[self.sj]
        self.row = monomial_positions(exps, both[:, :n] // 2 + both[:, n:])
        self.weight = [multinomial(e) for e in map(tuple, self.lifted.tolist())]
        for shared in vars(self).values():  # cached: read-only
            if isinstance(shared, np.ndarray):
                shared.flags.writeable = False

    def entry(self, a, b):
        """The index of entry (a, b) of the block holding slots a and b."""
        blk = self.blk_of[a]
        return self.off[blk] + self.pos[a] * self.width[blk] + self.pos[b]


gram_shape = lru_cache(maxsize=16)(GramShape)  # gram_shape(n, r, kind): built once, cached


_FORMAT = "coposos-certificate-v2"


@dataclass
class SosCertificate:
    """Gram data witnessing a lifted-polynomial representation: PSD
    ``gram_blocks`` and nonnegative ``scalars``, shaped as
    :class:`GramShape` says for (n, r, kind).

    kind K: one Gram block per exponent-parity class of two or more
    exact-degree-(r+2) monomials and one scalar per singleton class, both in
    first-seen order; the Gram matrix over the whole basis is their direct
    sum, zero between classes.
    kind Q: one n x n Gram block per degree-r monomial plus one scalar per
    degree-(r+2) monomial.
    """

    kind: ConeKind
    r: int
    n: int
    gram_blocks: list[np.ndarray]
    scalars: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.kind = ConeKind(self.kind)

    def to_text(self) -> str:
        return json.dumps({
            "format": _FORMAT,
            "kind": self.kind.value,
            "r": self.r,
            "n": self.n,
            "provenance": self.provenance,
            "gram_blocks": [np.asarray(b, dtype=float).tolist() for b in self.gram_blocks],
            "scalars": np.asarray(self.scalars, dtype=float).tolist(),
        }, indent=1)

    @classmethod
    def from_text(cls, text: str) -> "SosCertificate":
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
            raise ValueError("unrecognized certificate format")
        for key in ("kind", "r", "n", "gram_blocks", "scalars"):
            if key not in doc:
                raise ValueError(f"certificate is missing the field {key!r}")
        if doc["kind"] not in [k.value for k in ConeKind]:
            raise ValueError(f"kind: {doc['kind']!r} is not a cone kind, K or Q")
        for key, what, least in (("r", "level", 0), ("n", "variable count", 1)):
            if type(doc[key]) is not int:  # a bool is not an integer here
                raise ValueError(f"{key}: {doc[key]!r} is not an integer {what}")
            if doc[key] < least:
                raise ValueError(f"{key}: {doc[key]} is not a {what} >= {least}")
        if not isinstance(doc["gram_blocks"], list):
            raise ValueError("gram_blocks is not a list of square matrices")
        for k, b in enumerate(doc["gram_blocks"]):
            if not isinstance(b, list) or not all(_numbers(row, len(b)) for row in b):
                raise ValueError(f"gram_blocks[{k}] is not a square matrix of numbers")
        if not _numbers(doc["scalars"]):
            raise ValueError("scalars is not a list of numbers")
        if not isinstance(doc.get("provenance", {}), dict):
            raise ValueError("provenance is not an object")
        return cls(doc["kind"], doc["r"], doc["n"],
                   [np.array(b, dtype=float) for b in doc["gram_blocks"]],
                   np.array(doc["scalars"], dtype=float), doc.get("provenance", {}))


def _numbers(v, size: int | None = None) -> bool:
    """Whether v is a JSON list of finite numbers (no bool), of ``size`` entries if given."""
    return isinstance(v, list) and size in (None, len(v)) and all(
        type(e) in (int, float) and abs(e) <= sys.float_info.max for e in v)


def _unflatten(vals: np.ndarray, sides) -> tuple[list[np.ndarray], np.ndarray]:
    """Blocks of the given sides read row-major from ``vals``, and the
    entries left after them."""
    parts = np.split(vals, np.cumsum([k * k for k in sides]))
    return [p.reshape(k, k) for p, k in zip(parts, sides)], parts[-1]


def _images(exps: np.ndarray, gens) -> list[np.ndarray]:
    """Per permutation g of the columns, the row of ``exps`` holding each
    row's image under x_i -> x_g[i]; one lookup for every generator, so the
    rows are sorted once."""
    if not gens:
        return []
    moved = np.concatenate([exps[:, np.argsort(g)] for g in gens])
    return np.split(monomial_positions(exps, moved), len(gens))


def _orbits(perms, size: int):
    """Orbit of each of ``size`` points under the group the permutations
    generate, numbered in order of their first points, and those first
    points: union-find over the edges from each point to its images, by
    min-label propagation with pointer jumping; no group enumeration."""
    label = np.arange(size)
    if not perms:  # the trivial group: every point is its own orbit
        return label, label
    src, dst = np.tile(label, len(perms)), np.concatenate(perms)
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        np.minimum.at(new, dst, label[src])
        new = new[new]
        if np.array_equal(new, label):
            first = label == np.arange(size)
            return (np.cumsum(first) - 1)[label], np.flatnonzero(first)
        label = new


def _in_basis(q, a, tol: float):
    """Q^T A Q for each matrix of a stack, with entries within ``tol`` of
    the largest entry of A set to 0, and whether it is then diagonal."""
    e = q.swapaxes(-1, -2) @ a @ q
    e[np.abs(e) <= tol * np.abs(a).max(axis=(1, 2), keepdims=True)] = 0.0
    return e, ~(e * (1 - np.eye(a.shape[-1]))).any(axis=(1, 2))


class GramLayout:
    """The Gram structure of one level-r cone constraint in a block SDP: the
    Gram blocks and scalar cells of :class:`GramShape`, matched row by row
    against the lifted monomials (kind K only the even ones, 2*delta).

    ``symmetry`` holds permutations x_i -> x_g[i] fixing the constraint's
    matrices, so an invariant Gram point exists whenever any does (Gatermann
    and Parrilo 2004).  The SDP has one PSD block per orbit of Gram blocks, a
    trailing NONNEG block with a scalar per orbit of scalar cells, and one
    row per orbit of lifted monomials, the mean of the orbit's rows.  A
    reduced block is scaled like one full block of its orbit: a full entry
    is the mean of the reduced entries in its orbit, i.e. the reduced block
    averaged over its stabiliser and moved onto the orbit.  The trivial
    group gives one SDP block per Gram block and unit weights.  An orbit
    block whose row matrices A_i commute becomes a NONNEG block in place,
    X = sum_g x_g P_g over the projectors on the A_i's common eigenspaces:
    any PSD X meets the rows as x_g, its mean eigenvalue on P_g, does, and
    x_g is no smaller than X's least eigenvalue.  A layout is immutable and
    numbers its blocks from 0; a relaxation places them in its SDP.
    """

    def __init__(self, n: int, r: int, kind: ConeKind, symmetry=()):
        if r < 0:
            raise ValueError("level must be >= 0")
        self.n, self.r, self.kind = n, r, ConeKind(kind)
        self._shape = shape = gram_shape(n, r, kind)
        gens = [np.asarray(g, dtype=np.intp) for g in symmetry]
        # each generator's action on the slots, on both halves of their keys
        slot_act = _images(shape.key, [np.concatenate([g, g + n]) for g in gens])
        orbit, reps = _orbits([shape.blk_of[p[shape.lead]] for p in slot_act],
                              shape.width.size)
        self._label = _orbits([shape.entry(p[shape.si], p[shape.sj]) for p in slot_act],
                              shape.blk.size)[0]
        # each orbit's first block stands for it in the SDP, in orbit order
        rank = np.full(shape.width.size, -1)
        rank[reps] = np.arange(reps.size)
        rep = np.flatnonzero(rank[shape.blk] >= 0)
        self._entry_orbit = self._label[rep]  # each SDP entry's orbit, for embed
        self._orbit_size = np.bincount(self._entry_orbit)
        self._sides = shape.width[reps[reps < len(shape.sides)]].tolist()
        nscalar = reps.size - len(self._sides)
        row_orbit, self._row_reps = _orbits(_images(shape.lifted, gens), len(shape.lifted))
        # the entries of rows() while every orbit block is PSD
        rep = rep[shape.si[rep] <= shape.sj[rep]]
        row = row_orbit[shape.row[rep]]
        weight = np.bincount(orbit)[orbit][shape.blk[rep]] / np.bincount(row_orbit)[row]
        rank = rank[shape.blk[rep]]
        scalar = np.maximum(rank - len(self._sides), 0)  # a NONNEG entry's index
        block = np.minimum(rank, len(self._sides))
        i, j = shape.pos[shape.si[rep]] + scalar, shape.pos[shape.sj[rep]] + scalar
        entries = row, block, i, j, weight
        self._bases = self._eigenbases(*entries)
        # a diagonalised block's trace rows replace its entries
        keep = ~np.isin(block, list(self._bases))
        entries = tuple(map(np.concatenate, zip([e[keep] for e in entries], *[
            (np.repeat(rows, tr.shape[1]), np.full(tr.size, b),
             *[np.tile(np.arange(tr.shape[1]), rows.size)] * 2, tr.ravel())
            for b, (_, _, rows, tr) in self._bases.items()])))
        self._rows = entries, tuple(map(tuple, shape.lifted[self._row_reps].tolist()))
        spaces = {b: tr.shape[1] for b, (_, _, _, tr) in self._bases.items()}
        self._blocks = tuple([nonneg_block(spaces[b]) if b in spaces else psd_block(k)
                              for b, k in enumerate(self._sides)]
                             + ([nonneg_block(nscalar)] if nscalar else []))
        arrays = [*vars(self).values(), *entries, *sum(self._bases.values(), ())]
        for shared in arrays:  # shared: read-only
            if isinstance(shared, np.ndarray):
                shared.flags.writeable = False

    @classmethod
    def shared(cls, n: int, r: int, kind: ConeKind, symmetry=()):
        """``cls(n, r, kind, symmetry)``, built once per (class, n, r, kind,
        symmetry) and returned to every caller."""
        gens = tuple(tuple(map(int, g)) for g in symmetry)
        return _shared_layout(cls, n, r, ConeKind(kind), gens)

    def lift(self, m: SymMatrix) -> tuple[np.ndarray, int]:
        """The lift of M at the monomial of each row of :meth:`rows`, in its
        order, as Python-integer numerators over one common denominator."""
        num, den = lift_table(self.n, self.r).lift(m)
        return num[self._row_reps], den

    def blocks(self) -> list[BlockSpec]:
        return list(self._blocks)

    def rows(self) -> tuple[tuple[np.ndarray, ...], tuple[MultiIndex, ...]]:
        """The Gram entries whose weighted sums match the lifted
        coefficients, as flat arrays (row, block, i, j, weight), and each
        row's monomial.  There is one row per orbit of the monomials the
        Gram structure can reach (rows for monomials absent from the lift
        match zero), labelled by the orbit's first monomial.  Each
        off-diagonal entry is listed once; the SDP builder doubles symmetric
        pairs.  On a diagonalised block, entry g of row i is tr(A_i P_g).
        Formed once with the layout and shared: the arrays are read-only."""
        return self._rows

    def _eigenbases(self, row, blk, i, j, weight) -> dict:
        """The orbit blocks whose row matrices A_i commute, each with the
        A_i's common eigenbasis Q, the eigenspace g of each column of Q, the
        rows on the block and tr(A_i P_g), P_g projecting on eigenspace g.  Q
        diagonalises a fixed-seed combination of the A_i, so every process
        picks the same basis; a second such combination, then every A_i,
        must be diagonal in Q to tol of its largest entry.  An eigenspace is
        a run of columns on which every A_i has one eigenvalue."""
        tol = 1e-9  # commuting blocks measure about 1e-12, others 0.3 and up
        nrow = self._row_reps.size
        sides = np.append(self._sides, 0)  # 0 on the scalar cells
        # A_i of disjoint supports are independent; commuting ones span <= k dimensions
        sides[np.bincount(np.unique(blk * nrow + row) // nrow, minlength=sides.size) > sides] = 0
        on = sides[blk] > 0
        if not on.any():
            return {}
        row, blk, i, j, weight = (np.r_[u[on], v[on & (i != j)]] for u, v in zip(
            (row, blk, i, j, weight), (row, blk, j, i, weight)))  # both halves of each pair
        side = sides[blk]
        coef = np.random.default_rng(0).standard_normal((2, nrow))
        bases = {}
        for k in np.unique(side).tolist():  # one batched eigh per block side
            at = np.flatnonzero(side == k)
            blks, local = np.unique(blk[at], return_inverse=True)
            combos = np.zeros((2, blks.size, k, k))
            np.add.at(combos, (slice(None), local, i[at], j[at]), coef[:, row[at]] * weight[at])
            q = np.linalg.eigh(combos[0])[1]
            ok = _in_basis(q, combos[1], tol)[1]  # no A_i is formed on a block turned away
            at, local = at[ok[local]], local[ok[local]]
            pairs, pair = np.unique(local * nrow + row[at], return_inverse=True)
            pb, pr = np.divmod(pairs, nrow)  # each (block, row) pair
            a = np.zeros((pb.size, k, k))
            np.add.at(a, (pair, i[at], j[at]), weight[at])
            e, diagonal = _in_basis(q[pb], a, tol)
            ok[pb[~diagonal]] = False
            for c in np.flatnonzero(ok):
                d = np.diagonal(e[pb == c], 0, 1, 2)  # each A_i's eigenvalues
                new = np.r_[True, np.abs(np.diff(d)).max(axis=0, initial=0) > tol * np.abs(d).max()]
                bases[int(blks[c])] = (q[c], np.cumsum(new) - 1, pr[pb == c],
                                       np.add.reduceat(d, np.flatnonzero(new), axis=1))
        return bases

    def embed(self, blocks) -> tuple[list[np.ndarray], np.ndarray]:
        """The Gram blocks and the scalars of a certificate from SDP blocks,
        each entry the mean of the SDP entries in its orbit; a diagonalised
        block's x enters as sum_g x_g P_g, P_g projecting on eigenspace g."""
        blocks = list(blocks[: len(self._blocks)])
        for b, (q, group, _, _) in self._bases.items():
            blocks[b] = (q * np.asarray(blocks[b])[group]) @ q.T
        red = np.concatenate([np.asarray(b, dtype=float).ravel() for b in blocks])
        vals = (np.bincount(self._entry_orbit, red) / self._orbit_size)[self._label]
        return _unflatten(vals, self._shape.sides)

    def certificate(self, sol, first: int = 0, **provenance) -> SosCertificate:
        """The full certificate held in a solution's blocks from ``first``
        on; the solver's residuals and gap join the caller's provenance."""
        provenance = {
            "primal_res": sol.primal_res,
            "dual_res": sol.dual_res,
            "gap": sol.gap,
            **provenance,
        }
        return SosCertificate(self.kind, self.r, self.n,
                              *self.embed(sol.x_blocks[first:]), provenance)


_shared_layout = lru_cache(maxsize=32)(lambda layout_cls, *key: layout_cls(*key))


@dataclass
class MembershipProblem:
    matrix: SymMatrix
    layout: GramLayout
    sdp: BlockSdp  # row_labels: each row's lifted monomial


@lru_cache(maxsize=16)
def _membership_family(layout_cls, n: int, r: int, kind: ConeKind):
    """The shared layout of every level-r membership SDP of one kind in n
    variables, and a builder holding its rows with zero right-hand sides."""
    layout = layout_cls.shared(n, r, kind)
    entries, monomials = layout.rows()
    builder = SdpBuilder(layout.blocks())
    builder.add_rows(*entries, np.zeros(len(monomials)), monomials)
    return layout, builder


_FAMILY_MAX_ROWS = 1000  # a family of more rows is built on each call, not cached


def build_membership(m: SymMatrix, r: int, kind: ConeKind) -> MembershipProblem:
    """SDP feasibility: find Gram data reproducing the level-r lift of M.
    The layout is :meth:`GramLayout.shared`; the rows and A are built once
    per (n, r, kind) and layout class while A has at most 1000 rows.  M
    enters only through b, its lift, so the SDPs of one (n, r, kind) share A
    and the solver's set-up for it, its first step included: after the
    family's first decision, one that ends at its first witness forms and
    factorizes no Schur matrix."""
    family = _membership_family
    if comb(m.n + r + 1, r + 2) > _FAMILY_MAX_ROWS:  # A's rows: the degree r + 2 monomials
        family = family.__wrapped__
    layout, builder = family(GramLayout, m.n, r, kind)
    num, den = layout.lift(m)
    return MembershipProblem(m, layout, builder.build().with_rhs(num / den))


def build_K_membership(m: SymMatrix, r: int) -> MembershipProblem:
    return build_membership(m, r, ConeKind.K)


def build_Q_membership(m: SymMatrix, r: int) -> MembershipProblem:
    return build_membership(m, r, ConeKind.Q)


@dataclass
class MembershipResult:
    """A verdict and its evidence.  ``infeasibility_quality`` is the
    ``ray_quality`` of the solver's infeasibility ray y (b^T y = 1): how far
    its exact slack -A^T y misses the Gram cone, max(0, -lambda_min), which
    is 0 for an exact Farkas certificate."""

    verdict: Verdict
    certificate: SosCertificate | None = None
    infeasibility_quality: float | None = None
    residual: Fraction | None = None
    min_gram_eig: float | None = None
    solution: object = None
    message: str = ""


def decide_membership(problem: MembershipProblem, eps: float = 1e-8) -> MembershipResult:
    """MEMBER with validated certificate, certified NOT_MEMBER, or INCONCLUSIVE.

    The membership SDP has no objective, so the solver stops at its first
    witness: a Gram point within eps of the rows, or a ray.  MEMBER
    requires a certificate passing :func:`validate_certificate` at
    tolerance eps (re-expansion residual <= eps, least Gram eigenvalue and
    least scalar >= -eps); NOT_MEMBER requires an infeasibility ray y with
    b^T y = 1 whose slack -A^T y has least eigenvalue >= -eps (the solver's
    ``ray_quality`` <= eps).
    Boundary cases meeting neither bar are INCONCLUSIVE, never guessed.
    """
    sol = solve(problem.sdp, eps=min(eps, 1e-8))
    if sol.status == SdpStatus.OPTIMAL:
        cert = problem.layout.certificate(sol, eps=eps, iterations=sol.iterations)
        report = validate_certificate(problem.matrix, cert, tol=eps)
        return MembershipResult(
            verdict=Verdict.MEMBER if report.ok else Verdict.INCONCLUSIVE,
            certificate=cert,
            residual=report.residual,
            min_gram_eig=report.min_gram_eig,
            solution=sol,
            message="" if report.ok else "solution found but certificate fails the membership bar",
        )
    if sol.status == SdpStatus.PRIMAL_INFEASIBLE:
        quality = sol.diagnostics["ray_quality"]
        return MembershipResult(
            verdict=Verdict.NOT_MEMBER if quality <= eps else Verdict.INCONCLUSIVE,
            infeasibility_quality=quality,
            solution=sol,
            message="" if quality <= eps else "infeasibility ray below certificate quality bar",
        )
    return MembershipResult(
        verdict=Verdict.INCONCLUSIVE, solution=sol, message=sol.message
    )


@dataclass
class CertificateReport:
    residual: Fraction  # coefficient norm of (lift - re-expansion), exact
    min_gram_eig: float  # +inf without Gram blocks
    min_scalar: float  # +inf without scalars
    max_abs_entry: float
    ok: bool


def _entries(cert: SosCertificate):
    """The certificate's Gram blocks, and its nonzero entries with the
    lift-table row each adds to (see :class:`GramShape`)."""
    shape = gram_shape(cert.n, cert.r, cert.kind)
    grams = [np.asarray(b, dtype=float) for b in cert.gram_blocks]
    scalars = np.asarray(cert.scalars, dtype=float)
    want = [(k, k) for k in shape.sides] + [(shape.nscalar,)]
    if [g.shape for g in grams] + [scalars.shape] != want:
        raise ValueError("Gram blocks and scalars do not match the kind and level")
    flat = np.concatenate([g.ravel() for g in grams] + [scalars])
    k = np.flatnonzero(flat)
    return grams, shape.row[k], flat[k]


def validate_certificate(
    m: SymMatrix, cert: SosCertificate, tol: float = 1e-6
) -> CertificateReport:
    """Exact re-expansion check plus Gram spectrum and magnitude audit.

    Recomputes the lifted polynomial exactly, subtracts the certificate's
    expansion and reports the coefficient-norm residual; also reports the
    smallest eigenvalue of the Gram blocks' symmetric parts (the expansion
    reads every entry, so it sees only those parts), the smallest scalar
    and the largest entry magnitude (certificate bit-size audit).  Blocks
    or scalars that do not match (kind, n, r), and a ``tol`` that is
    negative or not finite, raise ``ValueError``.
    """
    if not np.isfinite(float(tol)):
        raise ValueError("tol must be finite")
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if cert.n != m.n:
        raise ValueError("certificate dimension does not match the matrix")
    grams, rows, values = _entries(cert)
    lift, den = lift_table(m.n, cert.r).lift(m)
    ints, e = dyadic(values)
    # lift / den - ints * 2**e over the common denominator den * 2**-e
    diff = np.left_shift(lift, -e)
    np.add.at(diff, rows, -den * ints)
    weights = gram_shape(m.n, cert.r, cert.kind).weight
    residual = coeff_norm(zip(diff.tolist(), weights), den << -e)

    min_eig = np.inf  # one batched eigvalsh per block side
    for side in {len(g) for g in grams}:
        stack = np.array([g for g in grams if len(g) == side])
        sym = stack / 2 + stack.transpose(0, 2, 1) / 2
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sym)[:, 0].min()))
    min_scalar = float(np.min(cert.scalars, initial=np.inf))
    ok = residual <= Fraction(float(tol)) and min_eig >= -tol and min_scalar >= -tol
    return CertificateReport(
        residual=residual,
        min_gram_eig=min_eig,
        min_scalar=min_scalar,
        max_abs_entry=float(np.abs(values).max(initial=0.0)),
        ok=bool(ok),
    )
