import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import hand_built_intspn, planted_spn, random_symmetric
from coposos import relax
from coposos.apps import (
    chromatic_box_bound,
    chromatic_program,
    cycle_graph,
    sqp_reciprocal_program,
    stability_qp_matrix,
)
from coposos.cones import ConeKind
from coposos.polycore import SymMatrix
from coposos.relax import (
    ConeConstraint,
    ConicProgram,
    SpnRefusal,
    SpnWitness,
    build_relaxation_sdp,
    check_intspn,
    solve_relaxation,
    to_bounded,
)
from coposos.sdpcore import SdpStatus, solve


def sqp_like_program(m_mat: SymMatrix) -> ConicProgram:
    # min lambda s.t. M + lambda * J in cone
    n = m_mat.n
    return ConicProgram.make(
        [1], [(n, [SymMatrix.ones(n)], m_mat.scale(-1))]
    )


class TestBuilders:
    def test_objective_identity_exact(self):
        prog = sqp_like_program(SymMatrix.identity(2))
        rel = build_relaxation_sdp(prog, 0, ConeKind.K)
        assert rel.sdp.blocks[rel.d_block].size == 2 * prog.m
        # telescoping: <D, B> - b^T y == 0 for any split d+ - d- = 2y
        y = Fraction(-1, 3)
        d = [Fraction(7) + y, Fraction(7) - y]
        decoded = [(d[0] - d[1]) / 2]
        assert decoded == [y]
        b_diag = [Fraction(1, 2), Fraction(-1, 2)]
        inner = sum(bv * dv for bv, dv in zip(b_diag, d))
        assert inner == sum(bi * yi for bi, yi in zip(prog.b, decoded))

    def test_sqp_identity2_value(self):
        prog = sqp_like_program(SymMatrix.identity(2))
        res = solve_relaxation(prog, 0, ConeKind.K)
        assert res.status == SdpStatus.OPTIMAL
        assert abs(res.value - (-0.5)) <= 1e-5
        assert abs(res.y[0] - (-0.5)) <= 1e-5

    def test_sqp_identity3_value(self):
        # at lambda = 2 the slack I + 2J splits exactly as P = I plus N = 2J
        prog = sqp_like_program(SymMatrix.identity(3))
        w = SpnWitness((Fraction(2),), SymMatrix.identity(3), SymMatrix.ones(3).scale(2),
                       Fraction(1))
        assert w.check_exact(prog.constraints[0])
        res = solve_relaxation(prog, 0, ConeKind.K)
        assert res.status == SdpStatus.OPTIMAL
        assert abs(res.value - (-1 / 3)) <= 1e-5

    def test_shifted_identity_value(self):
        # lambda * I - 3I in SPN requires lambda >= 3
        prog = ConicProgram.make(
            [1],
            [(2, [SymMatrix.identity(2)], SymMatrix.identity(2).scale(3))],
        )
        ok = solve_relaxation(prog, 0, ConeKind.K)
        assert ok.status == SdpStatus.OPTIMAL
        assert abs(ok.value - 3.0) <= 1e-5

    @pytest.mark.parametrize("kind", [ConeKind.K, ConeKind.Q])
    def test_unbounded_program_has_no_value(self, kind):
        # min { y : 0*y + I in COP } is -infinity: an improving ray, no value
        prog = ConicProgram.make([1], [(3, [SymMatrix.zero(3)], SymMatrix.identity(3).scale(-1))])
        res = solve_relaxation(prog, 0, kind)
        assert res.status == SdpStatus.DUAL_INFEASIBLE_OR_UNBOUNDED
        assert res.message == "primal improving ray found"
        assert res.value is None and res.y is None and not res.certificates

    def test_kinds_agree_level0(self, rnd):
        for _ in range(8):
            m = random_symmetric(rnd, 3)
            prog = sqp_like_program(m)
            vk = solve_relaxation(prog, 0, ConeKind.K)
            vq = solve_relaxation(prog, 0, ConeKind.Q)
            assert vk.status == vq.status == SdpStatus.OPTIMAL
            assert abs(vk.value - vq.value) <= 1e-5

    def test_q_above_k_and_level_monotone(self, rnd):
        for _ in range(4):
            m = random_symmetric(rnd, 3)
            prog = sqp_like_program(m)
            v0k = solve_relaxation(prog, 0, ConeKind.K)
            v1k = solve_relaxation(prog, 1, ConeKind.K)
            v1q = solve_relaxation(prog, 1, ConeKind.Q)
            assert v0k.status == v1k.status == v1q.status == SdpStatus.OPTIMAL
            assert v1k.value <= v0k.value + 1e-6
            assert v1q.value >= v1k.value - 1e-6

    def test_certificates_validate(self, rnd):
        m = random_symmetric(rnd, 3)
        prog = sqp_like_program(m)
        res = solve_relaxation(prog, 1, ConeKind.K)
        assert res.status == SdpStatus.OPTIMAL
        assert all(rep.ok for rep in res.certificate_reports)

    def test_failed_certificate_withholds_value(self):
        # no floating Gram matrix re-expands to a residual below 1e-30
        prog = sqp_like_program(SymMatrix.identity(2))
        real = relax.validate_certificate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relax, "validate_certificate",
                       lambda m, cert, tol: real(m, cert, tol=1e-30))
            res = solve_relaxation(prog, 0, ConeKind.K)
        assert res.solution.status == SdpStatus.OPTIMAL
        assert res.status == SdpStatus.INCONCLUSIVE
        assert res.value is None
        assert len(res.certificates) == len(res.certificate_reports) == 1
        assert not res.certificate_reports[0].ok
        assert "constraint 0" in res.message

    @pytest.mark.parametrize("m,constraints,fault", [
        (0, [(2, [], SymMatrix.identity(2).scale(-1))], "variable y_i"),
        (1, [], "cone constraint"),
        (2, [(2, [SymMatrix.identity(2)], SymMatrix.zero(2))], "wrong number of A matrices"),
    ])
    def test_program_names_its_fault(self, m, constraints, fault):
        with pytest.raises(ValueError, match=fault):
            ConicProgram.make([1] * m, constraints)

    def test_cpq_block_count(self):
        prog = sqp_like_program(SymMatrix.identity(3))
        rel = build_relaxation_sdp(prog, 2, ConeKind.Q)
        psd = [b for b in rel.sdp.blocks if b.kind == "psd"]
        assert len(psd) == 6  # binom(3+2-1, 2) degree-2 monomials in 3 vars
        assert all(b.size == 3 for b in psd)


class TestIntSpn:
    def test_identity_plus_ones(self):
        prog = ConicProgram.make(
            [0],
            [(3, [SymMatrix.zero(3)], (SymMatrix.identity(3) + SymMatrix.ones(3)).scale(-1))],
        )
        w = check_intspn(prog.constraints[0], [0])
        assert isinstance(w, SpnWitness)
        assert w.lambda_min_lb >= Fraction(9, 10)
        assert w.check_exact(prog.constraints[0])

    def test_sqp_shifted_witness(self, rnd):
        m = random_symmetric(rnd, 4)
        prog = sqp_like_program(m)
        lam_bar = m.max_abs_entry() + 1
        w = check_intspn(prog.constraints[0], [lam_bar])
        assert isinstance(w, SpnWitness)
        assert w.lambda_min_lb >= Fraction(1, 2)

    def test_negative_diagonal_refused(self):
        prog = ConicProgram.make(
            [0], [(2, [SymMatrix.zero(2)], SymMatrix.diag([1, -1]).scale(-1))]
        )
        out = check_intspn(prog.constraints[0], [0])
        assert isinstance(out, SpnRefusal)
        assert out.lambda_star <= 1e-6

    def test_planted_split_recovered(self, rnd):
        for _ in range(5):
            m, p, _, _ = planted_spn(rnd, 3)
            prog = ConicProgram.make([0], [(3, [SymMatrix.zero(3)], m.scale(-1))])
            w = check_intspn(prog.constraints[0], [0])
            assert isinstance(w, SpnWitness)
            planted_min = float(np.linalg.eigvalsh((p.num / p.den).astype(float))[0])
            # the auxiliary maximization can only beat the planted split
            assert float(w.lambda_min_lb) >= 0.9 * planted_min - 1e-6
            sol_quality = w.lambda_min_lb
            assert sol_quality > 0


def _searched_split(monkeypatch, cons):
    """check_intspn's outcome at y = 0 and the lam* of its relaxation."""
    seen = {}

    def build(*args):
        seen["rel"] = build_relaxation_sdp(*args)
        return seen["rel"]

    def run(sdp, **kwargs):
        seen["sol"] = solve(sdp, **kwargs)
        return seen["sol"]

    monkeypatch.setattr(relax, "build_relaxation_sdp", build)
    monkeypatch.setattr(relax, "solve", run)
    out = check_intspn(cons, [0])
    return out, float(seen["rel"].decode_y(seen["sol"])[0])


@pytest.mark.parametrize("planted", [True, False], ids=["planted", "random"])
@pytest.mark.parametrize("n", range(3, 9))
class TestIntSpnOracle:
    """The split search as a Q^(0) relaxation against the hand-built
    auxiliary SDP it replaced, on planted P + N matrices (all split) and
    random symmetric ones (all refused on this seed)."""

    @pytest.fixture
    def cons(self, n, planted):
        rnd = random.Random(2025 + n)
        m = planted_spn(rnd, n)[0] if planted else random_symmetric(rnd, n)
        return ConeConstraint(n, (SymMatrix.zero(n),), m.scale(-1))

    def test_matches_hand_built_search(self, monkeypatch, cons, planted):
        out, lam = _searched_split(monkeypatch, cons)
        want, lam_want = hand_built_intspn(cons, [0])
        assert isinstance(out, SpnWitness) == isinstance(want, SpnWitness) == planted
        assert lam == pytest.approx(lam_want, rel=1e-7)
        if planted:
            assert out.check_exact(cons)
        else:
            assert out.lambda_star == lam

    def test_box_never_binds(self, monkeypatch, cons):
        # the search needs no box: S - lam*I in Q^(0) has a nonnegative
        # diagonal, so lam* <= min S_ii, and lam = lambda_min(S) is feasible;
        # each bound is attained on some case, so lam* is held to the solve's
        # eps = 1e-8 on the scale of S
        _, lam = _searched_split(monkeypatch, cons)
        s = cons.slack([0])
        s = (s.num / s.den).astype(float)
        tol = 1e-8 * (1 + np.abs(s).max())
        assert np.linalg.eigvalsh(s)[0] - tol <= lam <= s.diagonal().min() + tol


class TestInteriorStart:
    """Strict feasibility of the SQP form min { lam : M + lam J in COP }:
    at lam = max|M_ij| + 1 its slack splits as P + N with P positive
    definite, checked exactly."""

    def test_gram_margin_positive_on_corpus(self, rnd):
        for _ in range(3):
            m, _, _, _ = planted_spn(rnd, 3)
            cons = sqp_like_program(m).constraints[0]
            lam_bar = m.max_abs_entry() + 1
            w = check_intspn(cons, [lam_bar])
            assert isinstance(w, SpnWitness)
            assert w.ybar == (lam_bar,) and w.check_exact(cons)
            assert w.lambda_min_lb > 0
            p = (w.p_mat.num / w.p_mat.den).astype(float)
            assert float(np.linalg.eigvalsh(p)[0]) >= float(w.lambda_min_lb) * (1 - 1e-12)


class TestToBounded:
    def test_small_example_pattern(self):
        prog = ConicProgram.make(
            [1], [(1, [SymMatrix.from_rows([[1]])], SymMatrix.from_rows([[0]]))]
        )
        boxed = to_bounded(prog, 3)
        assert boxed.constraints[0] == prog.constraints[0]
        cons = boxed.constraints[1]
        assert cons.n == 2 and not cons.symmetry
        assert cons.a_mats[0].rows == SymMatrix.diag([-1, 1]).rows
        assert cons.c_mat.rows == SymMatrix.diag([-6, -6]).rows

    @pytest.mark.parametrize("box", [3, Fraction(3, 4), Fraction(1, 6)])
    def test_box_matrices_are_in_lowest_terms(self, box):
        # the box constraint's denominator is the lcm of its entries' ones
        a = SymMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 4]])
        c = SymMatrix.from_rows([[Fraction(5, 6), 0], [0, Fraction(1, 2)]])
        cons = to_bounded(ConicProgram.make([1], [(2, [a], c)]), box).constraints[1]
        for got, tail in ((cons.a_mats[0], [-1, 1]), (cons.c_mat, [-2 * Fraction(box)] * 2)):
            want = [[v if j == i else 0 for j, v in enumerate(tail)] for i in range(2)]
            assert got == SymMatrix.from_rows(want)
            assert got.den == math.lcm(*(Fraction(v).denominator for row in want for v in row))
            assert math.gcd(got.den, *got.num.ravel().tolist()) == 1

    def test_value_preserved_on_sqp(self):
        prog = sqp_like_program(SymMatrix.identity(2))
        direct = solve_relaxation(prog, 0, ConeKind.K)
        boxed = solve_relaxation(to_bounded(prog, 2), 0, ConeKind.K)
        assert direct.status == boxed.status == SdpStatus.OPTIMAL
        assert abs(direct.value - boxed.value) <= 1e-5
        assert abs(direct.value - (-0.5)) <= 1e-5

    def test_out_of_box_slack_has_negative_diagonal(self):
        prog = ConicProgram.make(
            [1], [(1, [SymMatrix.from_rows([[1]])], SymMatrix.from_rows([[0]]))]
        )
        boxed = to_bounded(prog, 3)
        slack = boxed.constraints[1].slack([Fraction(7)])  # 7 > 2R = 6
        assert [slack.entry(i, i) for i in range(2)] == [-1, 13]

    def test_multi_constraint_appends_diagonal(self):
        prog = ConicProgram.make(
            [1, 0],
            [
                (2, [SymMatrix.identity(2), SymMatrix.ones(2)], SymMatrix.zero(2)),
                (2, [SymMatrix.ones(2), SymMatrix.identity(2)], SymMatrix.zero(2)),
            ],
        )
        boxed = to_bounded(prog, 5)
        assert len(boxed.constraints) == 3
        extra = boxed.constraints[-1]
        assert extra.n == 4
        slack = extra.slack([Fraction(1), Fraction(-2)])
        assert [slack.entry(i, i) for i in range(4)] == [
            Fraction(9),
            Fraction(11),
            Fraction(12),
            Fraction(8),
        ]


def _relaxation_programs():
    c5, c6 = cycle_graph(5), cycle_graph(6)
    return {
        "alpha-C6-reduced": sqp_reciprocal_program(stability_qp_matrix(c6), c6.symmetry),
        "alpha-C5": sqp_reciprocal_program(stability_qp_matrix(c5)),
        "chi-C5-bounded": to_bounded(chromatic_program(c5), chromatic_box_bound(c5)),
        "two-constraints-bounded": to_bounded(ConicProgram.make([1, -1], [
            (2, [SymMatrix.identity(2), SymMatrix.ones(2)], SymMatrix.zero(2)),
            (3, [SymMatrix.ones(3), SymMatrix.zero(3)], SymMatrix.identity(3))]), 4),
    }


@pytest.mark.parametrize("kind", [ConeKind.K, ConeKind.Q])
@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("name", list(_relaxation_programs()))
def test_every_row_is_a_constraint_monomial(name, r, kind):
    # a relaxation SDP holds the Gram rows of its constraints and nothing
    # else: each row is labelled (constraint index, monomial), in layout order
    prog = _relaxation_programs()[name]
    rel = build_relaxation_sdp(prog, r, kind)
    want = [(ci, gamma) for ci, layout in enumerate(rel.layouts) for gamma in layout.rows()[1]]
    assert list(rel.sdp.row_labels) == want
    assert rel.sdp.num_constraints == len(want)
    assert all(len(gamma) == prog.constraints[ci].n for ci, gamma in want)


@pytest.mark.parametrize("call,message", [
    (lambda: ConeConstraint(3, (SymMatrix.identity(2),), SymMatrix.identity(3)),
     "constraint matrices have inconsistent dimensions"),
    (lambda: to_bounded(sqp_like_program(SymMatrix.identity(3)), Fraction(-1, 2)),
     "box bound must be positive"),
], ids=["dimensions", "bounded-box"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
