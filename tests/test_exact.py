"""The exact lift and certificate audit on integer numerators, against the
``Fraction`` route they replaced (kept in conftest): table lifts of random
rational matrices, audits of certificates whose entries span the whole
double range, non-finite entries, the cached bases and tables, the
one-pass exact matrix checks and the pinned residuals of two public calls."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fraction_coeff_norm,
    fraction_lift,
    fraction_residual,
    orbit_blocks,
    random_symmetric,
)
from coposos.apps import chromatic_bound, cycle_graph, stability_bound
from coposos.cones import (
    ConeKind,
    SosCertificate,
    gram_shape,
    parity_classes,
    validate_certificate,
)
from coposos.polycore import SymMatrix, coeff_norm, lift_table, monomial_basis, multinomial
from coposos.relax import ConeConstraint

BIG = 2**70


@st.composite
def rational_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    entry = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    return SymMatrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)]
                                for i in range(n)])


class TestTableLift:
    @settings(max_examples=60, deadline=None)
    @given(m=rational_matrices(), r=st.integers(0, 2))
    def test_matches_poly_products(self, m, r):
        # row t of the table lift is the coefficient at x^delta_t (Q) or
        # x^(2 delta_t) (K) of the Poly product
        num, den = lift_table(m.n, r).lift(m)
        for kind in ConeKind:
            want = fraction_lift(m, r, kind)
            lifted = gram_shape(m.n, r, kind).lifted.tolist()
            got = {tuple(g): Fraction(c, den) for g, c in zip(lifted, num.tolist()) if c}
            assert got == dict(want.items())
            assert coeff_norm(zip(num.tolist(), [multinomial(g) for g in lifted]), den) == (
                fraction_coeff_norm(want))
        assert den == math.lcm(*(v.denominator for row in m.rows for v in row))
        assert all(type(c) is int for c in num)

    def test_zero_matrix(self):
        num, den = lift_table(3, 1).lift(SymMatrix.zero(3))
        assert den == 1 and not any(num)


# every kind of double: huge, tiny, subnormal, signed zero, ordinary
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
             1e300, -1e300, 1.0, -0.1, 3.0]
_entries = st.one_of(st.sampled_from(_EXTREMES),
                     st.floats(min_value=-1e300, max_value=1e300))


def _certificate(kind, n, r, draw_values):
    shape = gram_shape(n, r, kind)
    vals = np.array(draw_values(sum(k * k for k in shape.sides) + shape.nscalar), dtype=float)
    parts = np.split(vals, np.cumsum([k * k for k in shape.sides]))
    return SosCertificate(kind, r, n, [p.reshape(k, k) for p, k in zip(parts, shape.sides)],
                          parts[-1])


class TestDyadicAudit:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(list(ConeKind)), n=st.integers(2, 3),
           r=st.integers(0, 1), seed=st.integers(0, 1000))
    def test_residual_matches_fraction_oracle(self, data, kind, n, r, seed):
        m = random_symmetric(random.Random(seed), n)
        cert = _certificate(kind, n, r,
                            lambda k: data.draw(st.lists(_entries, min_size=k, max_size=k)))
        assert validate_certificate(m, cert).residual == fraction_residual(m, cert)

    @pytest.mark.parametrize("kind", list(ConeKind))
    def test_exact_certificate_has_zero_residual(self, kind):
        # dyadic entries chosen so the expansion reproduces the lift exactly
        m = SymMatrix.from_rows([[Fraction(1, 4), Fraction(-3, 8)], [Fraction(-3, 8), 2]])
        cert = _certificate(kind, 2, 0, lambda k: [0.0] * k)
        if kind is ConeKind.K:  # the block over (x1^2, x2^2); x1 x2 is a scalar
            assert lift_table(2, 0).basis == ((2, 0), (1, 1), (0, 2))
            assert parity_classes(lift_table(2, 0).basis) == [[0, 2], [1]]
        cert.gram_blocks = [np.array([[0.25, -0.375], [-0.375, 2.0]])]
        report = validate_certificate(m, cert)
        assert report.residual == 0 == fraction_residual(m, cert)
        assert report.max_abs_entry == 2.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["K gram", "K scalar", "Q block", "Q scalar"])
    def test_non_finite_entry_raises(self, value, where):
        kind = ConeKind(where[0])
        cert = _certificate(kind, 4, 1, lambda k: [0.5] * k)
        if where.endswith("scalar"):
            cert.scalars[3] = value
        else:
            cert.gram_blocks[2][0, 1] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
            validate_certificate(SymMatrix.identity(4), cert)


class TestCaches:
    def test_bases_are_cached_tuples(self):
        # a table built by an earlier test may hold a basis object that the
        # smaller basis cache has since dropped
        lift_table.cache_clear()
        basis = monomial_basis(4, 3)
        assert isinstance(basis, tuple) and all(isinstance(b, tuple) for b in basis)
        assert monomial_basis(4, 3) is basis
        assert lift_table(4, 1).basis is basis

    def test_lift_table_is_cached_and_read_only(self):
        table = lift_table(4, 1)
        assert lift_table(4, 1) is table
        for arr in (table.exps, table.target, table.weight, table.spots, table.coef):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0

    def test_table_rows(self):
        table = lift_table(3, 1)
        taus = monomial_basis(3, 1)
        for t, tau in enumerate(taus):
            assert table.weight[t] == multinomial(tau)
            for i in range(3):
                for j in range(3):
                    grown = list(tau)
                    grown[i] += 1
                    grown[j] += 1
                    assert table.basis[table.target[t, i, j]] == tuple(grown)


class TestExactMatrixChecks:
    def test_first_asymmetric_entry_is_reported(self):
        with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
            SymMatrix.from_rows([[1, 0, 5], [0, 1, 7], [4, 6, 1]])

    @pytest.mark.parametrize("y", [[Fraction(3, 7), Fraction(-2)], [0.1, 2.5], [0, 0]])
    def test_slack_matches_matrix_arithmetic(self, y):
        rnd = random.Random(7)
        a_mats = (random_symmetric(rnd, 4), random_symmetric(rnd, 4))
        c_mat = random_symmetric(rnd, 4)
        want = c_mat.scale(-1)
        for yi, a in zip(y, a_mats):
            want = want + a.scale(yi)
        assert ConeConstraint(4, a_mats, c_mat).slack(y) == want

    def test_generator_moving_c_is_rejected(self):
        ring = SymMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])  # path, not a cycle
        with pytest.raises(ValueError, match="moves a constraint matrix"):
            ConeConstraint(3, (SymMatrix.identity(3),), ring, ((1, 2, 0),))
        ConeConstraint(3, (SymMatrix.identity(3),), ring, ((2, 1, 0),))  # its reversal


def _chi_c4_with_orbit_blocks():
    with orbit_blocks():
        return chromatic_bound(cycle_graph(4), 0)[1]


# The exact certificate residuals of public calls, to the last bit: a change
# to the lift, the slack, the SDP or the solver's iterates moves them.  "chi
# C4 r0 Q" was recorded while every orbit block stayed PSD and is built so.
# All three were re-pinned when the SDP lost its box rows.
_PINNED_RESIDUALS = {
    "chi C4 r0 Q": (_chi_c4_with_orbit_blocks,
                    [Fraction(185, 2**59), Fraction(5, 2**54), Fraction(1, 2**51),
                     Fraction(19, 2**54), Fraction(7, 2**51)]),
    "chi C4 r0 Q diagonalised": (lambda: chromatic_bound(cycle_graph(4), 0)[1],
                                 [Fraction(17, 2**53), Fraction(58317980407, 2**85),
                                  Fraction(7, 2**52), Fraction(81, 2**55), Fraction(1, 2**48)]),
    "alpha C7 r1 K": (lambda: stability_bound(cycle_graph(7), 1, ConeKind.K),
                      [Fraction(11197, 15 * 2**50)]),
}


@pytest.mark.parametrize("name", list(_PINNED_RESIDUALS))
def test_certificate_residuals_are_pinned(name):
    call, residuals = _PINNED_RESIDUALS[name]
    res = call()
    assert [rep.residual for rep in res.certificate_reports] == residuals
    assert all(rep.ok for rep in res.certificate_reports)
