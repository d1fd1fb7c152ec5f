from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coposos.polycore import (
    LiftKind,
    Poly,
    SymMatrix,
    coeff_norm,
    is_psd_exact,
    lift_table,
    monomial_basis,
    multinomial,
    polya_lift,
    quadratic_form,
    quartic_form,
)


def P(nvars, terms):
    return Poly(nvars, terms)


class TestMultinomial:
    def test_empty_product(self):
        assert multinomial((0, 0)) == 1

    def test_pair(self):
        assert multinomial((1, 1)) == 2

    def test_factorials(self):
        assert multinomial((2, 1, 1)) == 12

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_always_positive_integer(self, alpha):
        assert multinomial(tuple(alpha)) >= 1

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 4), (5, 3)])
    def test_sum_over_degree_is_power(self, n, d):
        total = sum(multinomial(a) for a in monomial_basis(n, d))
        assert total == n**d


class TestMonomialBasis:
    def test_graded_lex_listing(self):
        assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))

    def test_degree_count_6_3(self):
        assert len(monomial_basis(6, 3)) == 56

    def test_degree_count_3_2(self):
        basis = monomial_basis(3, 2)
        assert len(basis) == 6
        assert set(basis) == {
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        }

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("d", range(0, 7))
    def test_count_identities(self, n, d):
        assert len(monomial_basis(n, d)) == comb(n + d - 1, d)


class TestForms:
    def test_quadratic_identity(self):
        m = SymMatrix.identity(2)
        assert quadratic_form(m) == P(2, {(2, 0): 1, (0, 2): 1})

    def test_quadratic_offdiag_doubles(self):
        m = SymMatrix.from_rows([[0, 1], [1, 0]])
        assert quadratic_form(m) == P(2, {(1, 1): 2})

    def test_quadratic_c5_pattern(self):
        # 2(A + I) - J on the 5-cycle: diagonal 1, edges 2, non-edges -2
        edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        rows = [
            [
                1 if i == j else (2 if (min(i, j), max(i, j)) in edges else -2)
                for j in range(5)
            ]
            for i in range(5)
        ]
        q = quadratic_form(SymMatrix.from_rows(rows))
        e_01 = (1, 1, 0, 0, 0)
        e_02 = (1, 0, 1, 0, 0)
        assert q.coeff((2, 0, 0, 0, 0)) == 1
        assert q.coeff(e_01) == 4  # doubled edge entry
        assert q.coeff(e_02) == -4

    def test_quartic_single(self):
        assert quartic_form(SymMatrix.from_rows([[1]])) == P(1, {(4,): 1})

    def test_quartic_identity(self):
        assert quartic_form(SymMatrix.identity(2)) == P(2, {(4, 0): 1, (0, 4): 1})

    def test_quartic_all_ones(self):
        q = quartic_form(SymMatrix.ones(2))
        assert q == P(2, {(4, 0): 1, (2, 2): 2, (0, 4): 1})

    @pytest.mark.parametrize("seed", range(4))
    def test_quartic_is_quadratic_at_squares(self, seed):
        import random

        rnd = random.Random(seed)
        n = rnd.choice([2, 3, 4])
        m = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[j][i] = m[i][j]
        sym = SymMatrix.from_rows(m)
        quad, quart = quadratic_form(sym), quartic_form(sym)
        # x -> x o x maps x^alpha to x^(2 alpha)
        assert dict(quart.items()) == {tuple(2 * a for a in alpha): c
                                       for alpha, c in quad.items()}


class TestPolyaLift:
    def test_level_zero_is_identity(self):
        p = P(2, {(1, 1): 3, (0, 0): -2})
        assert polya_lift(p, 0, LiftKind.LINEAR) == p

    def test_quadratic_lift_of_squared_norm(self):
        p = P(2, {(4, 0): 1, (2, 2): 2, (0, 4): 1})
        lifted = polya_lift(p, 1, LiftKind.QUADRATIC)
        assert lifted == P(2, {(6, 0): 1, (4, 2): 3, (2, 4): 3, (0, 6): 1})

    def test_linear_lift_level_two(self):
        p = P(2, {(1, 1): 1})
        lifted = polya_lift(p, 2, LiftKind.LINEAR)
        assert lifted == P(2, {(3, 1): 1, (2, 2): 2, (1, 3): 1})

    @given(
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([LiftKind.LINEAR, LiftKind.QUADRATIC]),
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_lift_levels_compose(self, r1, r2, kind, terms):
        p = P(2, terms)
        assert polya_lift(p, r1 + r2, kind) == polya_lift(
            polya_lift(p, r1, kind), r2, kind
        )

    def test_degree_increase(self):
        p = P(3, {(2, 0, 0): 1})
        assert polya_lift(p, 2, LiftKind.LINEAR).total_degree() == 4
        assert polya_lift(p, 2, LiftKind.QUADRATIC).total_degree() == 6


class TestCoeffNorm:
    # pairs (numerator, multinomial(alpha)) over one denominator
    def test_cross_term(self):
        assert coeff_norm([(1, multinomial((1, 1)))]) == Fraction(1, 2)

    def test_constant(self):
        assert coeff_norm([(5, multinomial((0,)))]) == 5
        assert coeff_norm([(-5, 1)], 3) == Fraction(5, 3)

    def test_max_rule(self):
        assert coeff_norm([(1, multinomial((2, 0))), (4, multinomial((1, 1)))]) == 2

    def test_zero(self):
        assert coeff_norm([]) == 0


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix.from_rows([[1, 2], [3, 4]])

    def test_exact_psd_check(self):
        assert is_psd_exact(SymMatrix.identity(3))
        assert is_psd_exact(SymMatrix.ones(3))
        assert not is_psd_exact(SymMatrix.from_rows([[1, 2], [2, 1]]))
        assert not is_psd_exact(SymMatrix.diag([1, -1]))
        # singular PSD with a zero pivot
        assert is_psd_exact(SymMatrix.from_rows([[0, 0], [0, 1]]))
        assert not is_psd_exact(SymMatrix.from_rows([[0, 1], [1, 1]]))

    def test_from_float_roundtrip(self):
        m = SymMatrix.from_float([[0.5, 0.25], [0.25, 1.0]])
        assert m.entry(0, 1) == Fraction(1, 4)

    def test_unchecked_results_equal_checked_twins(self):
        # the constructors and the arithmetic build rows directly; they must
        # equal the from_rows route and hold Fractions
        a = SymMatrix.from_rows([[1, Fraction(1, 3)], [Fraction(1, 3), -2]])
        b = SymMatrix.from_rows([[Fraction(1, 2), 4], [4, 0]])
        pairs = [
            (a + b, [[Fraction(3, 2), Fraction(13, 3)], [Fraction(13, 3), -2]]),
            (a - b, [[Fraction(1, 2), Fraction(-11, 3)], [Fraction(-11, 3), -2]]),
            (a.scale("3/2"), [[Fraction(3, 2), Fraction(1, 2)], [Fraction(1, 2), -3]]),
            (SymMatrix.diag([2, "1/2", 0.25]),
             [[2, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(1, 4)]]),
            (SymMatrix.identity(2), [[1, 0], [0, 1]]),
            (SymMatrix.ones(3), [[1] * 3] * 3),
            (SymMatrix.zero(2), [[0, 0], [0, 0]]),
        ]
        for got, rows in pairs:
            assert got == SymMatrix.from_rows(rows)
            assert all(type(v) is Fraction for row in got.rows for v in row)
            assert all(type(row) is tuple for row in got.rows)


@pytest.mark.parametrize("call,message", [
    (lambda: monomial_basis(0, 2), "nvars must be >= 1"),
    (lambda: monomial_basis(2, -1), "degree must be >= 0"),
    (lambda: SymMatrix.identity(2) + SymMatrix.identity(3), "dimension mismatch"),
    (lambda: lift_table(2, 0).lift(SymMatrix.identity(3)),
     "matrix dimension does not match the table"),
    (lambda: Poly(0), "nvars must be >= 1"),
    (lambda: Poly(2, {(1,): 1}), "bad multi-index (1,) for nvars=2"),
    (lambda: P(1, {(1,): 1}) + P(2, {(1, 0): 1}), "variable-count mismatch"),
    (lambda: polya_lift(quadratic_form(SymMatrix.identity(2)), -1, LiftKind.LINEAR),
     "lift level must be >= 0"),
], ids=["basis-nvars", "basis-degree", "sym-dimensions", "lift-dimensions", "poly-nvars",
        "poly-index", "poly-nvars-mismatch", "lift-level"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
