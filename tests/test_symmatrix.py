"""The integer-numerator ``SymMatrix`` and the exact routines that read it
(slack, table lift, PSD test), against the ``Fraction`` forms kept in
conftest."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FractionMatrix,
    fraction_from_float,
    fraction_is_psd,
    fraction_slack,
    fraction_table_lift,
)
from coposos.polycore import SymMatrix, is_psd_exact, lift_table
from coposos.relax import ConeConstraint

# small and huge numerators and denominators, and plenty of zeros
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 12])),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**70)),
)


@st.composite
def upper_triangles(draw, n=None, entries=_rationals):
    """The rows of a symmetric matrix drawn from its upper triangle."""
    n = draw(st.integers(0, 5)) if n is None else n
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@st.composite
def matrix_pairs(draw):
    """Two matrices of one size, built both ways.  A fifth of the time b is
    a copy of a, its entries written over other denominators, and a fifth
    of the time it is a / 2, often with a's numerators over twice its
    denominator."""
    rows = draw(upper_triangles())
    other = draw(upper_triangles(len(rows)))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        other = [[str(Fraction(v.numerator * 3, v.denominator * 3)) for v in row]
                 for row in rows]
    elif choice == 1:
        other = [[v / 2 for v in row] for row in rows]
    return ((SymMatrix.from_rows(rows), FractionMatrix.from_rows(rows)),
            (SymMatrix.from_rows(other), FractionMatrix.from_rows(other)))


def _same(got: SymMatrix, want: FractionMatrix) -> None:
    assert got.n == want.n and got.rows == want.rows
    assert all(type(row) is tuple for row in got.rows)
    assert all(type(v) is Fraction for row in got.rows for v in row)
    # one positive denominator in lowest terms: the lcm of the entries'
    assert got.den == math.lcm(*(v.denominator for row in want.rows for v in row))
    assert math.gcd(got.den, *got.num.ravel().tolist()) == 1
    assert all(type(v) is int for v in got.num.ravel().tolist())
    assert not got.num.flags.writeable


class TestAgainstFractionMatrix:
    @settings(max_examples=100, deadline=None)
    @given(pair=matrix_pairs(), c=_rationals)
    def test_arithmetic(self, pair, c):
        (a, fa), (b, fb) = pair
        _same(a, fa)
        _same(b, fb)
        _same(a + b, fa + fb)
        _same(a - b, fa - fb)
        _same(a.scale(c), fa.scale(c))
        _same(SymMatrix(a.num * 5, a.den * 5), fa)  # reduced to lowest terms
        assert (a == b) == (fa == fb)
        assert (a - b == SymMatrix.zero(a.n)) == (fa == fb)
        assert a + b - b == a
        assert a != fa.rows and a != a.rows

    @settings(max_examples=80, deadline=None)
    @given(pair=matrix_pairs())
    def test_views(self, pair):
        (a, fa), (b, fb) = pair
        for m, fm in ((a, fa), (a + b, fa + fb)):
            assert hash(m) == hash(fm) == hash((fm.n, fm.rows))
            assert m.max_abs_entry() == fm.max_abs_entry()
            assert type(m.max_abs_entry()) is Fraction
            assert all(m.entry(i, j) == fm.entry(i, j)
                       for i in range(m.n) for j in range(m.n))
        if a == b:
            assert hash(a) == hash(b)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_from_rows_errors(self, n, data):
        rows = [[data.draw(_rationals) for _ in range(n)] for _ in range(n)]
        ragged = [row[: n - 1] for row in rows]
        for bad in (rows, ragged, rows[:-1]):
            try:
                FractionMatrix.from_rows(bad)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    SymMatrix.from_rows(bad)
                assert str(got.value) == str(err)
            else:
                _same(SymMatrix.from_rows(bad), FractionMatrix.from_rows(bad))

    def test_equality_reads_the_denominator(self):
        half = SymMatrix.from_rows([["1/2", "1/6"], ["1/6", 0]])
        whole = SymMatrix.from_rows([[1, "1/3"], ["1/3", 0]])
        assert half.num.tolist() == whole.num.tolist() and half != whole
        assert half == whole.scale("1/2") and hash(half) == hash(whole.scale("1/2"))

    def test_from_rows_error_messages(self):
        with pytest.raises(ValueError, match=r"^matrix is not square$"):
            SymMatrix.from_rows([[1, 2], [2]])
        with pytest.raises(ValueError, match=r"^matrix is not symmetric at \(1,2\)$"):
            SymMatrix.from_rows([[1, 0, 0], [0, 1, "1/2"], [0, 0.5001, 1]])

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_constructors(self, n):
        vals = [Fraction(k - 1, k + 1) for k in range(n)]
        diag = [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for got, rows in ((SymMatrix.identity(n), [[int(i == j) for j in range(n)]
                                                   for i in range(n)]),
                          (SymMatrix.ones(n), [[1] * n] * n),
                          (SymMatrix.zero(n), [[0] * n] * n),
                          (SymMatrix.diag(vals), diag),
                          (SymMatrix.from_float([[0.25 * (i + j) + 0.5 * (i < j)
                                                  for j in range(n)] for i in range(n)]),
                           [[Fraction(i + j + (i != j), 4) for j in range(n)]
                            for i in range(n)])):
            _same(got, FractionMatrix.from_rows(rows))
            assert got == SymMatrix.from_rows(rows)


# zeros of both signs, subnormals, and magnitudes from 1e-300 to 1e300
_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-300, 1e300]),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 5), data=st.data())
def test_from_float_matches_the_fraction_route(n, data):
    array = np.array([[data.draw(_floats) for _ in range(n)] for _ in range(n)]).reshape(n, n)
    for a in (array, np.triu(array) + np.triu(array, 1).T):  # also symmetric input
        _same(SymMatrix.from_float(a), fraction_from_float(a))
    if n:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        array[i, j] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            SymMatrix.from_float(array)


@st.composite
def dyadic(draw):
    """A float as its exact rational, the way the audit reads a solution."""
    return Fraction(draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False),
                                   st.floats(-1e-6, 1e-6))))


class TestExactRoutines:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), m=st.integers(0, 3))
    def test_slack(self, data, n, m):
        mats = [data.draw(upper_triangles(n)) for _ in range(m + 1)]
        y = [data.draw(dyadic()) for _ in range(m)]
        a_mats = tuple(map(SymMatrix.from_rows, mats[:m]))
        c_mat = SymMatrix.from_rows(mats[m])
        got = ConeConstraint(n, a_mats, c_mat).slack(y)
        want = fraction_slack(tuple(map(FractionMatrix.from_rows, mats[:m])),
                              FractionMatrix.from_rows(mats[m]), y)
        _same(got, FractionMatrix(n, want))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 5).flatmap(upper_triangles), r=st.integers(0, 2))
    def test_lift(self, rows, r):
        m = SymMatrix.from_rows(rows)
        num, den = lift_table(m.n, r).lift(m)
        want_num, want_den = fraction_table_lift(FractionMatrix.from_rows(rows), r)
        assert den == want_den and num.tolist() == want_num
        assert all(type(c) is int for c in num.tolist())

    @pytest.mark.parametrize("n, r", [(1, 0), (3, 1), (4, 2)])
    def test_lift_of_zero(self, n, r):
        num, den = lift_table(n, r).lift(SymMatrix.zero(n))
        zero = FractionMatrix.from_rows([[0] * n] * n)
        assert (num.tolist(), den) == fraction_table_lift(zero, r)
        assert den == 1 and not any(num.tolist())


@st.composite
def boundary_matrices(draw):
    """B^T D B with D diagonal in {-1, 0, 1, 2}, B integer and at most as
    tall as it is wide, so most draws are singular, a few sit just outside
    the cone, and zero rows and columns come often; scaled by a rational."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    b = np.array([[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)],
                 dtype=object).reshape(k, n)
    d = np.diag([draw(st.sampled_from([-1, 0, 1, 1, 2, 2])) for _ in range(k)]).astype(object)
    scale = draw(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)))
    rows = (b.T @ d @ b).tolist() if k else [[0] * n for _ in range(n)]
    return [[scale * v for v in row] for row in rows]


class TestPsd:
    @settings(max_examples=200, deadline=None)
    @given(rows=boundary_matrices())
    def test_matches_fraction_ldl(self, rows):
        assert is_psd_exact(SymMatrix.from_rows(rows)) == fraction_is_psd(
            FractionMatrix.from_rows(rows))

    @settings(max_examples=60, deadline=None)
    @given(rows=boundary_matrices(), shift=st.sampled_from([Fraction(1, 10**9), 0]))
    def test_identity_shift(self, rows, shift):
        # PSD minus a tiny multiple of I: the least eigenvalue at the boundary
        m = SymMatrix.from_rows(rows) - SymMatrix.identity(len(rows)).scale(shift)
        assert is_psd_exact(m) == fraction_is_psd(FractionMatrix.from_rows(m.rows))

    @pytest.mark.parametrize("rows, psd", [
        ([[0, 0], [0, 0]], True),
        ([[0, 0], [0, 1]], True),
        ([[0, 1], [1, 1]], False),  # a zero pivot with a nonzero off-diagonal
        ([[1, 1], [1, 1]], True),
        ([[1, 1], [1, "999999/1000000"]], False),
        ([[4, 2, 2], [2, 1, 1], [2, 1, 1]], True),  # rank one, zero pivots after one step
        ([[4, 2, 2], [2, 1, 1], [2, 1, "1/2"]], False),
    ])
    def test_closed_forms(self, rows, psd):
        assert is_psd_exact(SymMatrix.from_rows(rows)) is psd
        assert fraction_is_psd(FractionMatrix.from_rows(rows)) is psd
