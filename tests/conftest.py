"""Shared corpus generators (seeded, exact-rational where it matters),
BlockSdp set-ups from dense data, the unreduced K layout, the hand-built
split search, the Fraction route of the exact audit and the Fraction matrix
with its slack, lift, PSD test and float rationalization, kept as
differential oracles."""

import contextlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from coposos import cones, relax
from coposos.cones import ConeKind, GramLayout, parity_classes
from coposos.polycore import (
    LiftKind,
    Poly,
    SymMatrix,
    lift_table,
    monomial_basis,
    monomial_positions,
    multinomial,
    polya_lift,
    quadratic_form,
    quartic_form,
)
from coposos.sdpcore import BlockSdp, SdpBuilder, SdpStatus, nonneg_block, psd_block, solve


def cycle_edges(n):
    return {(i, (i + 1) % n) for i in range(n)}


def c5_matrix() -> SymMatrix:
    """2(A + I) - J for the 5-cycle: 1 on diagonal/edges, -1 on non-edges."""
    edges = {tuple(sorted(e)) for e in cycle_edges(5)}
    return SymMatrix.from_rows(
        [
            [
                1 if i == j else (1 if (min(i, j), max(i, j)) in edges else -1)
                for j in range(5)
            ]
            for i in range(5)
        ]
    )


def horn_matrix() -> SymMatrix:
    """The Horn matrix: copositive, not in K^(0), in K^(1)."""
    return SymMatrix.from_rows(
        [
            [1 if i == j or (i - j) % 5 in (1, 4) else -1 for j in range(5)]
            for i in range(5)
        ]
    )


def c5_padded_matrix() -> SymMatrix:
    """The 5-cycle matrix padded to 6x6 with a zero row/column."""
    base = c5_matrix()
    rows = [list(r) + [Fraction(0)] for r in base.rows]
    rows.append([Fraction(0)] * 6)
    return SymMatrix.from_rows(rows)


def planted_spn(rnd: random.Random, n: int) -> tuple[SymMatrix, SymMatrix, SymMatrix, Fraction]:
    """Random M = P + N with P positive definite, N entrywise nonnegative.

    Returns (M, P, N, lb) where lb is an exact rational Gershgorin lower
    bound on the least eigenvalue of P, guaranteed >= 1 by construction.
    """
    g = [[Fraction(rnd.randint(-4, 4), 4) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g[j][i] = g[i][j]
    shift = Fraction(n + 2)
    p_rows = [
        [g[i][j] + (shift if i == j else 0) for j in range(n)] for i in range(n)
    ]
    p = SymMatrix.from_rows(p_rows)
    lb = min(
        p.entry(i, i) - sum(abs(p.entry(i, j)) for j in range(n) if j != i)
        for i in range(n)
    )
    assert lb >= 1
    nn = [[Fraction(rnd.randint(0, 6), 3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            nn[j][i] = nn[i][j]
    n_mat = SymMatrix.from_rows(nn)
    return p + n_mat, p, n_mat, lb


def random_symmetric(rnd: random.Random, n: int, lo=-2, hi=2) -> SymMatrix:
    rows = [
        [Fraction(rnd.randint(4 * lo, 4 * hi), 4) for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            rows[j][i] = rows[i][j]
    return SymMatrix.from_rows(rows)


@pytest.fixture
def rnd():
    return random.Random(20240811)


class DenseKLayout(GramLayout):
    """The unreduced K layout: one PSD block over the whole exact-degree-(r+2)
    basis, one row per degree-(2r+4) monomial.  A differential oracle for the
    parity-block and orbit reduction of :class:`coposos.cones.GramLayout`: it
    takes the constraint's symmetry generators and ignores them."""

    def __init__(self, n, r, kind, symmetry=()):
        assert kind is ConeKind.K
        super().__init__(n, r, kind)
        self.basis = lift_table(n, r).basis

    def blocks(self):
        return [psd_block(len(self.basis))]

    def rows(self):
        basis = np.array(self.basis)
        ti, tj = np.triu_indices(len(basis))
        gammas = monomial_basis(self.n, 2 * self.r + 4)
        row = monomial_positions(np.array(gammas), basis[ti] + basis[tj])
        return (row, np.zeros_like(row), ti, tj, np.ones(row.size)), gammas

    def lift(self, m):
        num, den = lift_table(self.n, self.r).lift(m)
        coef = {tuple(2 * a for a in d): c for d, c in zip(self.basis, num.tolist())}
        return np.array([coef.get(gamma, 0) for gamma in self.rows()[1]], dtype=object), den

    def embed(self, blocks):
        """The principal parity-class submatrices of the dense Gram matrix:
        off-class entries reach only odd monomials, which a valid solution
        sums to zero, and principal submatrices of a PSD matrix are PSD."""
        gram = np.asarray(blocks[0])
        classes = parity_classes(self.basis)
        return ([gram[np.ix_(c, c)] for c in classes if len(c) > 1],
                np.array([gram[c[0], c[0]] for c in classes if len(c) == 1]))


@contextlib.contextmanager
def dense_k():
    """Within the block, every K membership SDP and relaxation is built with
    :class:`DenseKLayout`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "GramLayout", DenseKLayout)
        mp.setattr(relax, "GramLayout", DenseKLayout)
        yield


@contextlib.contextmanager
def orbit_blocks():
    """Within the block, every layout keeps its orbit blocks PSD: none is
    diagonalised in the common eigenbasis of its rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GramLayout, "_eigenbases", lambda self, *entries: {})
        _clear_layouts()  # no layout diagonalised outside the block
        try:
            yield
        finally:
            _clear_layouts()  # nor one with PSD blocks after it


def _clear_layouts():
    """Forget every shared layout, with the membership families holding one."""
    cones._shared_layout.cache_clear()
    cones._membership_family.cache_clear()


def hand_built_intspn(cons, ybar):
    """The split search with its auxiliary SDP assembled by hand, the route
    :func:`coposos.relax.check_intspn` took before it became a Q^(0)
    relaxation: max { lam : S = P0 + lam*I + N, P0 psd, N >= 0 } with one
    row per pair i <= j, lam split as lam+ - lam-.  Kept as its differential
    oracle; returns the witness or refusal and lam*."""
    ybar = tuple(Fraction(v) for v in ybar)
    s_exact = cons.slack(ybar)
    n = cons.n
    # row t of pair (i, j), i <= j: S_ij = P0_ij + N_t, plus lam+ - lam- if i = j
    i, j = np.triu_indices(n)
    pair = np.arange(i.size)
    diag = pair[i == j]
    parts = [(pair, 0, i, j, np.where(i == j, 1.0, 0.5)), (pair, 1, pair, pair, 1.0),
             (diag, 2, 0, 0, 1.0), (diag, 2, 1, 1, -1.0)]
    builder = SdpBuilder([psd_block(n), nonneg_block(pair.size), nonneg_block(2)])
    builder.add_rows(*map(np.concatenate, zip(*(np.broadcast_arrays(*p) for p in parts))),
                     s_exact.num[i, j] / s_exact.den)
    builder.add_rows(-1, 2, [0, 1], [0, 1], [-1.0, 1.0], [])  # max lam = lam+ - lam-
    sol = solve(builder.build())
    if sol.status != SdpStatus.OPTIMAL:
        return relax.SpnRefusal(float("nan"), f"auxiliary SDP: {sol.status.value}"), float("nan")
    lam_star = -sol.objective
    if lam_star <= 1e-7:
        return relax.SpnRefusal(lam_star, "slack has no interior split"), lam_star
    n_float = np.zeros((n, n))
    n_float[i, j] = n_float[j, i] = np.maximum(sol.x_blocks[1], 0.0)
    n_exact = SymMatrix.from_float(n_float)
    p_exact = s_exact - n_exact
    lb = relax._psd_shift(p_exact, SymMatrix.identity(n),
                          Fraction(float(lam_star)) * Fraction(9, 10), 80)
    if lb is None:
        return relax.SpnRefusal(lam_star, "could not certify the rounding"), lam_star
    return relax.SpnWitness(ybar, p_exact, n_exact, lb), lam_star


def dense_sdp(blocks, a, b, c) -> BlockSdp:
    """A BlockSdp from a dense constraint matrix ``a``, passed as the
    (row, column, value) triplets of its nonzeros."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    return BlockSdp(blocks, (rows, cols, a[rows, cols]), b, c)


def block_sdp(blocks, objective_blocks, constraints) -> BlockSdp:
    """A BlockSdp from per-block dense data.

    ``objective_blocks`` and each constraint's matrix list hold one k x k
    symmetric array per PSD block and one length-k vector per NONNEG block;
    ``constraints`` is a list of (blocks_values, rhs).
    """
    builder = SdpBuilder(blocks)

    def entries(values):  # (block, i, j, value) of every upper-triangle entry
        cols = []
        for bi, (blk, val) in enumerate(zip(builder.blocks, values)):
            val = np.asarray(val, dtype=float)
            if blk.kind == "nonneg":
                val, (i, j) = np.diag(val), np.diag_indices(blk.size)
            elif np.allclose(val, val.T, atol=1e-12):
                i, j = np.triu_indices(blk.size)
            else:
                raise ValueError("PSD block data is not symmetric")
            cols.append((np.full(i.size, bi), i, j, val[i, j]))
        return map(np.concatenate, zip(*cols))

    builder.add_rows(-1, *entries(objective_blocks), [])
    for mats, b_i in constraints:
        builder.add_rows(0, *entries(mats), [b_i])
    return builder.build()


def dense_scaled_rows(cone, sc, a, chunk=64):
    """The dense scaled-row path the solver had before its rows were kept
    block-sparse, as a differential oracle: the rows of ``a`` unpacked into
    the cone's group stacks and congruence-scaled by the NT scaling ``sc`` a
    chunk of rows at a time into one m x dim matrix abar of svec rows.
    Returns abar and the Schur matrix abar abar^T, one matrix product."""
    abar = np.empty_like(a)
    for r0 in range(0, a.shape[0], chunk):
        rows = slice(r0, r0 + chunk)
        abar[rows] = cone.congruence(sc, a[rows])
    return abar, abar @ abar.T


def fraction_lift(m: SymMatrix, r: int, kind: ConeKind) -> Poly:
    """The level-r lift of M by exact ``Poly`` products."""
    if kind is ConeKind.K:
        return polya_lift(quartic_form(m), r, LiftKind.QUADRATIC)
    return polya_lift(quadratic_form(m), r, LiftKind.LINEAR)


def fraction_expansion(cert) -> Poly:
    """The re-expansion of a certificate with one ``Fraction`` per nonzero
    entry, summed in a dict: the route the exact audit took before it ran
    on integer numerators, kept as its differential oracle.  A Gram entry
    (i, j) over half-monomials u_i, u_j, shifted by beta, adds to
    beta + u_i + u_j; a K scalar, the Gram entry of a singleton parity class
    {u}, adds to 2u, and a Q scalar to its own monomial."""
    n = cert.n
    zero = (0,) * n
    if cert.kind is ConeKind.K:
        basis = monomial_basis(n, cert.r + 2)
        classes = parity_classes(basis)
        grams = [(zero, [basis[t] for t in c], block)
                 for c, block in zip([c for c in classes if len(c) > 1], cert.gram_blocks)]
        cells = [tuple(2 * a for a in basis[c[0]]) for c in classes if len(c) == 1]
    else:
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        grams = [(beta, units, block) for beta, block in
                 zip(monomial_basis(n, cert.r), cert.gram_blocks)]
        cells = monomial_basis(n, cert.r + 2)
    terms = {}
    for beta, half, gram in grams:
        gram = np.asarray(gram, dtype=float)
        for i, j in zip(*np.nonzero(gram)):
            gamma = tuple(a + b + c for a, b, c in zip(beta, half[i], half[j]))
            terms[gamma] = terms.get(gamma, 0) + Fraction(float(gram[i, j]))
    for gamma, c in zip(cells, cert.scalars):
        terms[gamma] = terms.get(gamma, 0) + Fraction(float(c))
    return Poly(n, terms)


def fraction_coeff_norm(p: Poly) -> Fraction:
    """max |c| / multinomial(alpha) over the coefficients of p; 0 for p = 0."""
    return max((abs(c) / multinomial(a) for a, c in p.items()), default=Fraction(0))


def fraction_residual(m: SymMatrix, cert, expansion=None) -> Fraction:
    """The coefficient norm of the Fraction lift less ``expansion``, by
    default the Fraction expansion of the certificate."""
    if expansion is None:
        expansion = fraction_expansion(cert)
    return fraction_coeff_norm(fraction_lift(m, cert.r, cert.kind) - expansion)


@dataclass(frozen=True)
class FractionMatrix:
    """The symmetric matrix as tuples of ``Fraction`` entries, the form
    :class:`coposos.polycore.SymMatrix` had before it stored integer
    numerators over one denominator, kept as its differential oracle."""

    n: int
    rows: tuple

    @classmethod
    def from_rows(cls, rows):
        data = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(data)
        if any(len(row) != n for row in data):
            raise ValueError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if data[i][j] != data[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        return cls(n, data)

    def entry(self, i, j):
        return self.rows[i][j]

    def __add__(self, other):
        return FractionMatrix(self.n, tuple(tuple(a + b for a, b in zip(u, v))
                                            for u, v in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return FractionMatrix(self.n, tuple(tuple(c * v for v in row) for row in self.rows))

    def max_abs_entry(self):
        return max((abs(v) for row in self.rows for v in row), default=Fraction(0))


def fraction_from_float(array) -> FractionMatrix:
    """The symmetric part of a float matrix, one exact ``Fraction`` per
    entry: the route of ``SymMatrix.from_float`` before it read the dyadic
    integers."""
    n = len(array)
    return FractionMatrix(n, tuple(tuple((Fraction(float(array[i][j]))
                                          + Fraction(float(array[j][i]))) / 2
                                         for j in range(n)) for i in range(n)))


def fraction_is_psd(m) -> bool:
    """Rational LDL with pivoting on the largest diagonal, on ``m.rows``."""
    a = [list(row) for row in m.rows]
    active = list(range(m.n))
    while active:
        piv = max(active, key=lambda i: a[i][i])
        if a[piv][piv] < 0:
            return False
        if a[piv][piv] == 0:
            return all(a[i][j] == 0 for i in active for j in active)
        d = a[piv][piv]
        active.remove(piv)
        for i in active:
            fi = a[i][piv]
            for j in active:
                a[i][j] -= fi * a[piv][j] / d
    return True


def fraction_slack(a_mats, c_mat, y) -> tuple:
    """The rows of sum_i y_i A_i - C, entry by entry in ``Fraction``."""
    n = c_mat.n
    return tuple(tuple(sum((Fraction(yi) * a.rows[i][j] for yi, a in zip(y, a_mats)),
                           -c_mat.rows[i][j]) for j in range(n)) for i in range(n))


def fraction_table_lift(m, r):
    """The table lift of M read entry by entry from its ``Fraction`` rows:
    numerators over the lcm of the entries' denominators."""
    table = lift_table(m.n, r)
    den = math.lcm(*(v.denominator for row in m.rows for v in row))
    out = [0] * len(table.basis)
    for i in range(m.n):
        for j in range(m.n):
            c = m.rows[i][j].numerator * (den // m.rows[i][j].denominator)
            for t, w in zip(table.target[:, i, j].tolist(), table.weight.tolist()):
                out[t] += w * c
    return out, den
