import dataclasses
import json
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.linalg import block_diag

from conftest import (
    c5_matrix,
    c5_padded_matrix,
    dense_k,
    fraction_expansion,
    fraction_residual,
    horn_matrix,
    planted_spn,
    random_symmetric,
)
from coposos import cones
from coposos.apps import (
    chromatic_box_bound,
    chromatic_program,
    complete_graph,
    cycle_graph,
    sqp_reciprocal_program,
    stability_bound,
    stability_qp_matrix,
)
from coposos.cones import (
    ConeKind,
    GramLayout,
    SosCertificate,
    Verdict,
    build_K_membership,
    build_Q_membership,
    build_membership,
    decide_membership,
    gram_shape,
    parity_classes,
    validate_certificate,
)
from coposos.polycore import (
    Poly,
    SymMatrix,
    lift_table,
    monomial_basis,
    multinomial,
    quadratic_form,
)
from coposos.relax import ConicProgram, build_relaxation_sdp, extract_certificates, to_bounded
from coposos.sdpcore import SdpBuilder, SdpSolution, SdpStatus, nonneg_block, psd_block, solve
from coposos.sdpcore import solver


class TestBuilders:
    def test_k_block_side(self):
        # one PSD block per parity class of two or more monomials, then one
        # NONNEG block of the singleton classes; one row per even monomial
        for n, r in [(3, 0), (4, 0), (2, 1), (4, 1), (6, 1)]:
            prob = build_K_membership(SymMatrix.identity(n), r)
            if r == 0:
                want = [psd_block(n), nonneg_block(comb(n, 2))]
            else:
                want = [psd_block(n)] * n
                want += [nonneg_block(comb(n, 3))] if n >= 3 else []
            assert list(prob.sdp.blocks) == want
            assert prob.sdp.num_constraints == comb(n + r + 1, r + 2)
            assert len(lift_table(n, r).basis) == comb(n + r + 1, r + 2)

    def test_q_block_structure(self):
        for n, r in [(3, 0), (3, 1), (4, 2)]:
            prob = build_Q_membership(SymMatrix.identity(n), r)
            n_gram = comb(n + r - 1, r)
            n_scalars = comb(n + r + 1, r + 2)
            psd = [b for b in prob.sdp.blocks if b.kind == "psd"]
            nn = [b for b in prob.sdp.blocks if b.kind == "nonneg"]
            assert len(psd) == n_gram and all(b.size == n for b in psd)
            assert len(nn) == 1 and nn[0].size == n_scalars

    def test_row_labels_cover_all_rows(self):
        prob = build_K_membership(SymMatrix.identity(2), 1)
        assert len(set(prob.sdp.row_labels)) == prob.sdp.num_constraints


class TestEntryPoints:
    def test_string_kind_keeps_its_cone(self):
        # in one process: the call with "K" must leave K's shape in the caches
        cones.gram_shape.cache_clear()
        cones._membership_family.cache_clear()
        want = [psd_block(3), nonneg_block(3)]  # Q's would be PSD(3) + NONNEG(6)
        for kind in ("K", ConeKind.K):
            prob = build_membership(SymMatrix.identity(3), 0, kind)
            assert list(prob.sdp.blocks) == want and prob.layout.kind is ConeKind.K
        assert gram_shape(3, 0, ConeKind.K).nscalar == 3

    def test_every_kind_is_coerced(self):
        assert GramLayout(3, 1, "Q").kind is ConeKind.Q
        assert SosCertificate("K", 0, 1, [], np.ones(1)).kind is ConeKind.K
        res = stability_bound(cycle_graph(5), 0, "K")
        assert res.relaxation.kind is ConeKind.K
        assert all(c.kind is ConeKind.K for c in res.certificates)
        with pytest.raises(ValueError):
            build_membership(SymMatrix.identity(3), 0, "X")

    @pytest.mark.parametrize("kind", list(ConeKind))
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_diagonal_slot_lands_on_its_row(self, kind, r):
        # entry (diag[t], diag[t]) sits on a block's diagonal and adds to row t
        shape = gram_shape(3, r, kind)
        spots = shape.entry(shape.diag, shape.diag)
        assert shape.si[spots].tolist() == shape.sj[spots].tolist() == shape.diag.tolist()
        assert shape.row[spots].tolist() == list(range(len(shape.lifted)))

    @pytest.mark.parametrize("kind,r", [(ConeKind.K, 9), (ConeKind.Q, 19)])
    def test_weights_past_int64(self, kind, r):
        # K at r = 9 lifts to degree 22, Q at r = 19 to degree 21: 21! > 2^63
        shape = gram_shape(2, r, kind)
        assert shape.weight == [multinomial(tuple(a)) for a in shape.lifted.tolist()]
        res = decide_membership(build_membership(SymMatrix.identity(2), r, kind))
        assert res.verdict is Verdict.MEMBER


class _IntegerPoint:
    """Small-integer data in every block (zero in ``zero_blocks``), shaped like
    a solver solution."""

    primal_res = dual_res = gap = 0.0

    def __init__(self, sdp, seed, zero_blocks=()):
        rng = np.random.default_rng(seed)
        self.x_blocks = []
        for bi, blk in enumerate(sdp.blocks):
            if blk.kind == "psd":
                upper = np.triu(rng.integers(-50, 51, size=(blk.size, blk.size)), 1)
                val = upper + upper.T + np.diag(rng.integers(-50, 51, size=blk.size))
            else:
                val = rng.integers(-50, 51, size=blk.size)
            self.x_blocks.append(0.0 * val if bi in zero_blocks else val.astype(float))


def _orbit(gamma, gens):
    """Every image of a monomial under the group the generators generate,
    by closure (x_i -> x_g[i] moves exponent i to position g[i])."""
    seen, todo = {gamma}, [gamma]
    while todo:
        mono = todo.pop()
        for g in gens:
            image = [0] * len(mono)
            for i, a in enumerate(mono):
                image[g[i]] = a
            if tuple(image) not in seen:
                seen.add(tuple(image))
                todo.append(tuple(image))
    return seen


def _assert_rows_match_audit(sdp, point, rows):
    # rows: (certificate, {lifted monomial: row index}, generators) per cone
    # constraint.  The rows come from GramLayout.rows(); the expansion is the
    # Fraction oracle, which finds each entry's monomial from the basis and
    # not from the row map the layout and the audit share, so a row-map
    # fault cannot validate itself here.  A row stands for the orbit of its
    # monomial, and the expanded certificate is invariant, so every monomial
    # of the orbit must match.
    lhs = sdp.A @ sdp.pack(point.x_blocks)
    for cert, index, gens in rows:
        expansion = fraction_expansion(cert)
        orbits = {gamma: _orbit(gamma, gens) for gamma in index}
        assert {gamma for gamma, _ in expansion.items()} <= set().union(*orbits.values())
        for gamma, row in index.items():
            for image in orbits[gamma]:
                want = float(expansion.coeff(image))
                # integer data: only the orbit weights and sqrt(2) round
                assert abs(lhs[row] - want) <= 1e-9 * (1.0 + abs(want)), image


class TestGramRowsMatchAudit:
    @pytest.mark.parametrize("kind", [ConeKind.K, ConeKind.Q])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_membership_rows(self, kind, r):
        prob = build_membership(SymMatrix.identity(3), r, kind)
        point = _IntegerPoint(prob.sdp, seed=r)
        cert = prob.layout.certificate(point)
        index = {gamma: row for row, gamma in enumerate(prob.sdp.row_labels)}
        _assert_rows_match_audit(prob.sdp, point, [(cert, index, ())])

    @pytest.mark.parametrize("kind", [ConeKind.K, ConeKind.Q])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_relaxation_rows_with_offset_blocks(self, kind, r):
        # three cone constraints (sides 2, 4, 4), so all but the first start
        # past block 0; the variable block is zeroed to leave the Gram part.
        # The program is checked as built, with the symmetry of K2 times S_t
        # on the product constraints, and with every generator removed.
        g = complete_graph(2)
        prog = to_bounded(chromatic_program(g), chromatic_box_bound(g))
        plain = ConicProgram(prog.b, tuple(
            dataclasses.replace(c, symmetry=()) for c in prog.constraints))
        assert [bool(c.symmetry) for c in prog.constraints] == [True, True, False]
        for p in (plain, prog):
            rel = build_relaxation_sdp(p, r, kind)
            assert all(first > 0 for first in rel.firsts[1:])
            point = _IntegerPoint(rel.sdp, seed=10 + r, zero_blocks={rel.d_block})
            index = [{} for _ in rel.layouts]
            for row, (ci, gamma) in enumerate(rel.sdp.row_labels):
                index[ci][gamma] = row
            certs = extract_certificates(rel, point)
            gens = [cons.symmetry for cons in p.constraints]
            _assert_rows_match_audit(rel.sdp, point, list(zip(certs, index, gens)))

    @pytest.mark.parametrize("kind", [ConeKind.K, ConeKind.Q])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_reduced_rows_under_the_dihedral_group(self, kind, r):
        # C6's dihedral group has orbits of several sizes and Gram blocks
        # with nontrivial stabilisers; the block data is not invariant
        prog = sqp_reciprocal_program(stability_qp_matrix(cycle_graph(6)),
                                      cycle_graph(6).symmetry)
        rel = build_relaxation_sdp(prog, r, kind)
        full = build_relaxation_sdp(sqp_reciprocal_program(prog.constraints[0].a_mats[0]), r, kind)
        assert rel.sdp.num_constraints < full.sdp.num_constraints
        point = _IntegerPoint(rel.sdp, seed=20 + r, zero_blocks={rel.d_block})
        index = {gamma: row for row, (_, gamma) in enumerate(rel.sdp.row_labels)}
        certs = extract_certificates(rel, point)
        _assert_rows_match_audit(rel.sdp, point, [(certs[0], index, prog.constraints[0].symmetry)])


def _solution_bytes(sol) -> bytes:
    parts = [*(sol.x_blocks or []), *([] if sol.y is None else [sol.y]), *(sol.s_blocks or [])]
    return b"".join(np.asarray(p, dtype=float).tobytes() for p in parts)


def _array_bytes(obj) -> int:
    """Bytes of the distinct arrays reachable from obj through attributes,
    tuples and lists."""
    arrays, seen, todo = {}, set(), [obj]
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            arrays[id(v)] = v.nbytes
        elif isinstance(v, (tuple, list)):
            todo.extend(v)
        elif hasattr(v, "__dict__"):
            todo.extend(vars(v).values())
    return sum(arrays.values())


class TestMembershipFamily:
    """The membership SDPs of one (n, r, kind) share their layout, A, c and
    the solver's set-up; only b, the lift of the matrix, differs."""

    @pytest.mark.parametrize("kind", list(ConeKind))
    def test_one_family_differs_only_in_b(self, kind):
        mats = horn_matrix(), SymMatrix.identity(5)
        first, second = (build_membership(m, 1, kind) for m in mats)
        assert first.layout is second.layout
        assert first.sdp.coo is second.sdp.coo
        shared = {k: v for k, v in vars(first.sdp).items() if k != "b"}
        assert shared == {k: v for k, v in vars(second.sdp).items() if k != "b"}
        assert all(v is vars(second.sdp)[k] for k, v in shared.items())
        coo = first.sdp.coo
        assert not any(a.flags.writeable for a in (coo.rows, coo.cols, coo.vals, first.sdp.c))
        assert isinstance(first.sdp.row_labels, tuple)
        for prob, m in zip((first, second), mats):
            num, den = prob.layout.lift(m)
            assert np.array_equal(prob.sdp.b, np.asarray(num / den, dtype=float))
        assert not np.array_equal(first.sdp.b, second.sdp.b)
        assert cones._membership_family.cache_parameters()["maxsize"] == 16

    @pytest.mark.parametrize("kind", list(ConeKind))
    @pytest.mark.parametrize("r", [0, 1])
    def test_shared_family_solves_as_a_fresh_build(self, rnd, kind, r):
        mats = [horn_matrix(), SymMatrix.identity(5), random_symmetric(rnd, 5)]
        shared = [decide_membership(build_membership(m, r, kind)) for m in mats]
        fresh = []
        for m in mats:
            cones._membership_family.cache_clear()
            fresh.append(decide_membership(build_membership(m, r, kind)))
        assert {res.verdict for res in shared} == {Verdict.MEMBER, Verdict.NOT_MEMBER}
        for got, want in zip(shared, fresh):
            assert got.verdict == want.verdict
            assert got.solution.iterations == want.solution.iterations
            assert _solution_bytes(got.solution) == _solution_bytes(want.solution)

    def test_set_up_is_timed_once_per_family(self):
        cones._membership_family.cache_clear()
        setups = [decide_membership(build_membership(m, 1, ConeKind.K)).solution
                  .diagnostics["timings"]["setup_s"] for m in (horn_matrix(), SymMatrix.identity(5))]
        assert setups[0] > 0.0 and setups[1] == 0.0

    def test_an_unshared_a_keeps_no_set_up(self):
        # a relaxation's SDP lives on in its result: its A must not hold the
        # solver's set-up once the solve returns
        res = stability_bound(cycle_graph(5), 1, ConeKind.K)
        assert res.status == SdpStatus.OPTIMAL
        assert res.solution.diagnostics["timings"]["setup_s"] > 0.0
        assert res.relaxation.sdp.coo.setup is None

    @pytest.mark.parametrize("kind", list(ConeKind))
    def test_row_count_is_known_before_the_build(self, kind):
        for n, r in ((5, 0), (6, 1), (4, 3), (8, 2)):
            assert build_membership(SymMatrix.identity(n), r, kind).sdp.num_constraints == comb(
                n + r + 1, r + 2)

    def test_a_family_above_the_row_limit_is_built_per_call(self, monkeypatch):
        monkeypatch.setattr(cones, "_FAMILY_MAX_ROWS", 20)
        cones._membership_family.cache_clear()
        small = [build_membership(SymMatrix.identity(5), 0, ConeKind.K) for _ in range(2)]
        large = [build_membership(SymMatrix.identity(6), 0, ConeKind.K) for _ in range(2)]
        assert [p.sdp.num_constraints for p in (small[0], large[0])] == [15, 21]
        assert small[0].sdp.coo is small[1].sdp.coo
        assert large[0].sdp.coo is not large[1].sdp.coo
        assert cones._membership_family.cache_info().currsize == 1

    def test_only_a_small_set_up_is_kept(self):
        # the rows' set-up takes 1.7 MiB for Q and over 4 MiB for K at n=8, r=2
        for kind, kept in ((ConeKind.Q, True), (ConeKind.K, False)):
            sdp = build_membership(SymMatrix.identity(8), 2, kind).sdp
            setups = [solve(sdp, max_iter=0).diagnostics["timings"]["setup_s"] for _ in range(2)]
            assert setups[0] > 0.0 and (setups[1] == 0.0) == kept
            assert (sdp.coo.setup is not None) == kept

    @pytest.mark.parametrize("kind", list(ConeKind))
    def test_a_warm_family_takes_its_first_step_from_the_set_up(self, monkeypatch, kind):
        # every solve starts at the same point, so iteration 0's scaled rows
        # and Schur factor depend on A alone: the family makes them once
        calls = {"scale": 0, "chol": 0}

        def counted(name, fn):
            def run(*args):
                calls[name] += 1
                return fn(*args)
            return run

        monkeypatch.setattr(solver._Rows, "scale", counted("scale", solver._Rows.scale))
        monkeypatch.setattr(solver, "_chol_with_regularization",
                            counted("chol", solver._chol_with_regularization))
        cones._membership_family.cache_clear()
        seen = []
        for m in (SymMatrix.identity(5), SymMatrix.ones(5), SymMatrix.identity(5)):
            res = decide_membership(build_membership(m, 1, kind))
            assert res.verdict == Verdict.MEMBER and res.solution.iterations == 1
            seen.append(dict(calls))
            calls.update(scale=0, chol=0)
        assert seen == [{"scale": 1, "chol": 1}, {"scale": 0, "chol": 0}, {"scale": 0, "chol": 0}]

    def test_the_first_step_is_kept_only_within_the_budget(self, monkeypatch):
        def family_sdp():
            cones._membership_family.cache_clear()
            return build_membership(SymMatrix.identity(6), 1, ConeKind.Q).sdp

        sdp = family_sdp()
        rest = solver._Setup(sdp).nbytes  # the set-up without a first step
        want = solve(sdp)
        full = sdp.coo.setup
        assert full.first is not None and full.nbytes > rest
        assert full.nbytes == _array_bytes(full)  # every kept array is counted
        monkeypatch.setattr(solver, "_KEPT_SETUP_BYTES", (rest + full.nbytes) // 2)
        sdp = family_sdp()
        for _ in range(2):
            got = solve(sdp)
            kept = sdp.coo.setup
            assert kept is not None and kept.first is None and kept.nbytes == rest
            assert kept.nbytes == _array_bytes(kept)
            assert got.iterations == want.iterations
            assert _solution_bytes(got) == _solution_bytes(want)

    def test_a_kept_first_step_counts_its_scaling_constants(self):
        cones._membership_family.cache_clear()
        sdp = build_membership(SymMatrix.identity(6), 1, ConeKind.Q).sdp
        solve(sdp, max_iter=1)
        kept = sdp.coo.setup
        sc = kept.first.sc
        assert {g.w_sq is None for g in sc} == {True, False}  # PSD and side-1 groups
        consts = [v for g in sc for v in g if v is not None]
        assert not any(v.flags.writeable for v in consts)
        assert kept.nbytes == _array_bytes(kept) > solver._Setup(sdp).nbytes + sum(
            v.nbytes for v in consts)

    # the membership families of the benchmark's member corpus: (kind, n, r)
    @pytest.mark.parametrize("kind,n,r", [
        ("K", 5, 0), ("K", 5, 1), ("K", 6, 0), ("K", 6, 1), ("K", 8, 0),
        ("Q", 6, 0), ("Q", 6, 1), ("Q", 6, 2), ("Q", 7, 1), ("Q", 8, 0),
        ("Q", 8, 1), ("Q", 8, 2), ("Q", 10, 0), ("Q", 10, 1),
    ])
    def test_each_benchmark_family_keeps_its_first_step(self, kind, n, r):
        # Q n=8 r=2 is the largest: 4,100,392 of the 4,194,304 bytes
        cones._membership_family.cache_clear()
        sdp = build_membership(SymMatrix.identity(n), r, ConeKind(kind)).sdp
        solve(sdp, max_iter=1)
        kept = sdp.coo.setup
        assert kept is not None and kept.first is not None
        assert kept.nbytes <= solver._KEPT_SETUP_BYTES

    def test_builder_builds_again_only_after_new_rows(self):
        builder = SdpBuilder([psd_block(2)])
        builder.add_rows([0, 1], 0, [0, 1], [1, 1], [0.5, 1.0], [1.0, 0.0])
        first = builder.build()
        assert builder.build() is first
        builder.add_rows(0, 0, 0, 0, 1.0, [2.0])
        second = builder.build()
        assert second is not first and builder.build() is second
        assert (first.num_constraints, second.num_constraints) == (2, 3)

    def test_with_rhs_checks_b(self):
        sdp = build_membership(horn_matrix(), 0, ConeKind.K).sdp
        b = sdp.b.copy()
        with pytest.raises(ValueError, match="entries for"):
            sdp.with_rhs(np.zeros(b.size + 1))
        with pytest.raises(ValueError, match="entries for"):
            sdp.with_rhs(np.zeros(b.size - 1))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="b has a non-finite entry"):
                sdp.with_rhs(np.where(np.arange(b.size) == 1, bad, 0.0))
        other = sdp.with_rhs(np.arange(b.size))
        assert np.array_equal(other.b, np.arange(b.size)) and np.array_equal(sdp.b, b)


class TestSharedLayout:
    @pytest.mark.parametrize("max_rows", [1000, 0])  # a cached family, or one built per call
    @pytest.mark.parametrize("kind", list(ConeKind))
    def test_membership_uses_the_shared_layout(self, monkeypatch, kind, max_rows):
        monkeypatch.setattr(cones, "_FAMILY_MAX_ROWS", max_rows)
        cones._membership_family.cache_clear()
        for n, r in ((5, 0), (4, 1)):
            layout = build_membership(SymMatrix.identity(n), r, kind).layout
            assert layout is GramLayout.shared(n, r, kind)

    @pytest.mark.parametrize("kind", list(ConeKind))
    def test_a_layout_is_read_only(self, kind):
        reduced = GramLayout(6, 0, kind, symmetry=cycle_graph(6).symmetry)
        for layout in (GramLayout(6, 1, kind), reduced):
            arrays = [v for v in vars(layout).values() if isinstance(v, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)
        bases = [a for basis in reduced._bases.values() for a in basis]  # diagonalised blocks
        assert bases and not any(a.flags.writeable for a in bases)


class TestReducedVsDense:
    """The parity-block K layout against the unreduced one-block layout."""

    @pytest.mark.parametrize("r", [0, 1])
    def test_c5_stability_objectives(self, r):
        reduced = stability_bound(cycle_graph(5), r, ConeKind.K)
        with dense_k():
            dense = stability_bound(cycle_graph(5), r, ConeKind.K)
        assert len(dense.relaxation.sdp.blocks) == 2  # one Gram block, then D
        assert len(reduced.relaxation.sdp.blocks) > 2
        assert reduced.status == dense.status == SdpStatus.OPTIMAL
        assert abs(reduced.value - dense.value) <= 1e-7

    @pytest.mark.parametrize(
        "r,want", [(0, Verdict.NOT_MEMBER), (1, Verdict.MEMBER)]
    )
    def test_horn_verdicts(self, r, want):
        reduced = decide_membership(build_K_membership(horn_matrix(), r))
        with dense_k():
            dense = decide_membership(build_K_membership(horn_matrix(), r))
        assert reduced.verdict == dense.verdict == want

    def test_planted_level1_member(self, rnd):
        m, _, _, _ = planted_spn(rnd, 4)
        reduced = build_K_membership(m, 1)
        with dense_k():
            dense = build_K_membership(m, 1)
        assert dense.sdp.num_constraints == comb(4 + 5, 6)
        assert reduced.sdp.num_constraints == comb(4 + 2, 3)
        for prob in (reduced, dense):
            res = decide_membership(prob)
            assert res.verdict == Verdict.MEMBER
            assert validate_certificate(m, res.certificate).ok


class TestDecideK:
    def test_negative_scalar_not_sos(self):
        prob = build_K_membership(SymMatrix.from_rows([[-1]]), 0)
        assert decide_membership(prob).verdict == Verdict.NOT_MEMBER

    @pytest.mark.parametrize("n,r", [(2, 0), (4, 0), (3, 1), (5, 1)])
    def test_identity_member(self, n, r):
        prob = build_K_membership(SymMatrix.identity(n), r)
        res = decide_membership(prob)
        assert res.verdict == Verdict.MEMBER
        assert res.residual <= Fraction(1, 10**8)

    def test_c5_not_member_level0(self):
        res = decide_membership(build_K_membership(c5_matrix(), 0))
        assert res.verdict == Verdict.NOT_MEMBER
        assert res.infeasibility_quality <= 1e-8

    @pytest.mark.parametrize("r", [0, 1])
    def test_c5_padded_not_member(self, r):
        res = decide_membership(build_K_membership(c5_padded_matrix(), r))
        assert res.verdict == Verdict.NOT_MEMBER


class TestDecideQ:
    def test_negative_offdiag_not_member(self):
        m = SymMatrix.from_rows([[0, -1], [-1, 0]])
        res = decide_membership(build_Q_membership(m, 0))
        assert res.verdict == Verdict.NOT_MEMBER

    def test_negative_identity_not_member_level2(self):
        m = SymMatrix.identity(3).scale(-1)
        res = decide_membership(build_Q_membership(m, 2))
        assert res.verdict == Verdict.NOT_MEMBER

    def test_planted_spn_level0_both_kinds(self, rnd):
        # level-0 base case: planted P + N must be MEMBER for both kinds
        for trial in range(200):
            n = rnd.choice([2, 3, 4])
            m, _, _, _ = planted_spn(rnd, n)
            for kind in (ConeKind.K, ConeKind.Q):
                res = decide_membership(build_membership(m, 0, kind))
                assert res.verdict == Verdict.MEMBER, (trial, kind)

    def test_kinds_agree_level0_differential(self, rnd):
        # beyond planted members: random symmetric matrices must get the
        # same decided verdict from both kinds at level 0
        from conftest import random_symmetric

        decided = 0
        for _ in range(60):
            n = rnd.choice([2, 3])
            m = random_symmetric(rnd, n)
            rk = decide_membership(build_K_membership(m, 0)).verdict
            rq = decide_membership(build_Q_membership(m, 0)).verdict
            if Verdict.INCONCLUSIVE in (rk, rq):
                continue
            decided += 1
            assert rk == rq
        assert decided >= 40


class TestConeProperties:
    def test_scale_invariance(self, rnd):
        for _ in range(6):
            m, _, _, _ = planted_spn(rnd, 3)
            base = decide_membership(build_K_membership(m, 0)).verdict
            for c in (Fraction(1, 3), Fraction(7)):
                scaled = decide_membership(build_K_membership(m.scale(c), 0)).verdict
                assert scaled == base
        neg = c5_matrix()
        for c in (Fraction(1, 2), Fraction(5)):
            assert (
                decide_membership(build_K_membership(neg.scale(c), 0)).verdict
                == Verdict.NOT_MEMBER
            )

    def test_nesting_k_level_up(self, rnd):
        # MEMBER at level r stays MEMBER at level r+1 (kind K)
        for _ in range(5):
            m, _, _, _ = planted_spn(rnd, 3)
            assert decide_membership(build_K_membership(m, 0)).verdict == Verdict.MEMBER
            assert decide_membership(build_K_membership(m, 1)).verdict == Verdict.MEMBER

    def test_q_member_implies_k_member(self, rnd):
        for _ in range(5):
            m, _, _, _ = planted_spn(rnd, 3)
            r = rnd.choice([0, 1])
            if decide_membership(build_Q_membership(m, r)).verdict == Verdict.MEMBER:
                assert (
                    decide_membership(build_K_membership(m, r)).verdict
                    == Verdict.MEMBER
                )

    def test_member_certificates_validate(self, rnd):
        eps = 1e-8
        for _ in range(10):
            m, _, _, _ = planted_spn(rnd, 4)
            kind = rnd.choice([ConeKind.K, ConeKind.Q])
            res = decide_membership(build_membership(m, 0, kind), eps=eps)
            assert res.verdict == Verdict.MEMBER
            report = validate_certificate(m, res.certificate, tol=10 * eps)
            assert report.ok


def _assert_audit_expands_to(cert, expansion):
    # the audit's residual against the zero matrix and against random ones
    # equals the coefficient norm of their Fraction lifts less ``expansion``
    rnd = random.Random(cert.n + 10 * cert.r)
    for m in [SymMatrix.zero(cert.n)] + [random_symmetric(rnd, cert.n) for _ in range(3)]:
        assert validate_certificate(m, cert).residual == fraction_residual(m, cert, expansion)


class TestValidation:
    def test_hand_built_diagonal_certificate(self):
        # identity at level 0, kind K: quartic lift is sum of x_i^4, so the
        # identity block over the parity class {x_i^2} is exact
        n = 3
        m = SymMatrix.identity(n)
        assert [beta for beta in lift_table(n, 0).basis if max(beta) == 2] == [
            (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        cert = SosCertificate(ConeKind.K, 0, n, [np.eye(n)], np.zeros(comb(n, 2)))
        report = validate_certificate(m, cert)
        assert report.residual == 0
        assert report.ok

    def test_roundtrip_certificate_residual(self, rnd):
        m, _, _, _ = planted_spn(rnd, 4)
        res = decide_membership(build_K_membership(m, 1))
        assert res.verdict == Verdict.MEMBER
        report = validate_certificate(m, res.certificate, tol=1e-6)
        assert report.residual <= Fraction(1, 10**6)

    def test_perturbed_certificate_flagged(self):
        n = 2
        m = SymMatrix.identity(n)
        res = decide_membership(build_K_membership(m, 0))
        cert = res.certificate
        cert.gram_blocks[0][0, 0] += 0.1
        report = validate_certificate(m, cert, tol=1e-6)
        assert report.residual >= Fraction(1, 20)
        assert not report.ok

    def test_dimension_mismatch_rejected(self):
        res = decide_membership(build_K_membership(SymMatrix.identity(2), 0))
        with pytest.raises(ValueError):
            validate_certificate(SymMatrix.identity(3), res.certificate)

    def test_expansion_skips_only_zero_entries(self):
        # exact zeros and -0.0 must add nothing; every other entry adds its
        # exact rational value, as in the loop over all side^2 entries of
        # the Gram matrix over the whole basis, zero between parity classes
        n, r = 3, 1
        basis = lift_table(n, r).basis
        classes = parity_classes(basis)
        rng = np.random.default_rng(7)
        blocks = []
        for c in classes[:-1]:
            block = rng.normal(size=(len(c), len(c)))
            block = block + block.T
            mask = rng.random(block.shape) < 0.4
            block[mask | mask.T] = 0.0
            mask = rng.random(block.shape) < 0.2
            block[mask | mask.T] = -0.0
            blocks.append(block)
        assert [len(c) for c in classes] == [3, 3, 3, 1]
        scalars = np.array([-0.0])
        assert any(np.any(np.signbit(b) & (b == 0)) for b in blocks)
        gram = np.zeros((len(basis), len(basis)))
        for c, block in zip(classes, blocks):
            gram[np.ix_(c, c)] = block
        terms = {}
        for i, beta in enumerate(basis):
            for j, beta2 in enumerate(basis):
                gamma = tuple(a + b for a, b in zip(beta, beta2))
                terms[gamma] = terms.get(gamma, Fraction(0)) + Fraction(float(gram[i, j]))
        cert = SosCertificate(ConeKind.K, r, n, blocks, scalars)
        _assert_audit_expands_to(cert, Poly(n, terms))

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_q_expansion_matches_polynomial_sum(self, r):
        # against the expansion as a sum of Polys, x^beta times the exact
        # quadratic form of each symmetrised block, plus the scalars; with
        # exact zeros, -0.0 and a slightly asymmetric block
        n = 4
        basis = monomial_basis(n, r)
        rng = np.random.default_rng(11 + r)
        blocks = []
        for _ in basis:
            block = rng.normal(size=(n, n))
            block = block + block.T
            mask = rng.random((n, n)) < 0.3
            block[mask | mask.T] = 0.0
            mask = rng.random((n, n)) < 0.2
            block[mask | mask.T] = -0.0
            blocks.append(block)
        blocks[0][0, 1] += 1e-9
        scalars = rng.random(comb(n + r + 1, r + 2))
        scalars[::3] = 0.0
        scalars[1::5] = -0.0
        assert any(np.any(np.signbit(b) & (b == 0)) for b in blocks)
        total = Poly.zero(n)
        for beta, block in zip(basis, blocks):
            sigma = quadratic_form(SymMatrix.from_float(block))
            total = total + Poly(n, {tuple(beta): 1}) * sigma
        scalar_basis = monomial_basis(n, r + 2)
        total = total + Poly(n, {g: Fraction(float(c)) for g, c in zip(scalar_basis, scalars)})
        cert = SosCertificate(kind=ConeKind.Q, r=r, n=n, gram_blocks=blocks, scalars=scalars)
        _assert_audit_expands_to(cert, total)

    def test_expansion_matches_lift_for_member(self, rnd):
        m, _, _, _ = planted_spn(rnd, 3)
        res = decide_membership(build_Q_membership(m, 1))
        assert res.verdict == Verdict.MEMBER
        residual = validate_certificate(m, res.certificate).residual
        assert residual == fraction_residual(m, res.certificate) <= Fraction(1, 10**7)


class TestForgedCertificates:
    """Certificates whose expansion matches the lift of the non-copositive
    M = [[0, -1], [-1, 0]] (its lift is -2 x1 x2, or -2 x1^2 x2^2) through an
    asymmetric block: the audit must judge the symmetric part, which the
    expansion reads, and not the lower triangle alone."""

    M = SymMatrix.from_rows([[0, -1], [-1, 0]])

    @pytest.mark.parametrize("kind", list(ConeKind))
    def test_asymmetric_block_is_not_psd(self, kind):
        # kind Q r=0: one block over (x1, x2) and scalars at x1^2, x1 x2,
        # x2^2; kind K r=0: the block over (x1^2, x2^2) and the scalar at
        # x1 x2, the dense Gram matrix whose only nonzero is (0, 2) = -2
        forged = np.array([[0.0, -2.0], [0.0, 0.0]])
        cert = SosCertificate(kind, 0, 2, [forged], np.zeros(3 if kind is ConeKind.Q else 1))
        report = validate_certificate(self.M, cert)
        assert report.residual == 0
        assert report.min_gram_eig == -1.0
        assert not report.ok

    @pytest.mark.parametrize("kind", list(ConeKind))
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_misshapen_certificate_raises(self, kind, r):
        # Q r=1, n=2 with one 3 x 3 block and 3 scalars has the 12 entries of
        # the real shape (two 2 x 2 blocks, 4 scalars) but not its blocks
        shape = gram_shape(2, r, kind)
        bad = [
            ([np.zeros((sum(shape.sides) - 1,) * 2)] if shape.sides else [], shape.nscalar),
            ([np.zeros((k, k)) for k in shape.sides] + [np.zeros((2, 2))], shape.nscalar),
            ([np.zeros((k, k)) for k in shape.sides], shape.nscalar + 1),
            ([np.zeros((k, k + 1)) for k in shape.sides], shape.nscalar),
        ]
        if kind is ConeKind.Q and r == 1:
            bad.append(([np.diag([-2.0, -2.0], 1)], 3))
        for blocks, nscalar in bad:
            cert = SosCertificate(kind, r, 2, blocks, np.zeros(nscalar))
            with pytest.raises(ValueError, match="do not match"):
                validate_certificate(self.M, cert)

    def test_spectrum_over_mixed_block_sides(self):
        # K r=2, n=4: parity blocks of sides 10 and 4 and singleton scalars;
        # the least eigenvalue of the direct sum of the symmetric parts
        shape = gram_shape(4, 2, ConeKind.K)
        assert sorted(set(shape.sides)) == [4, 10] and shape.nscalar == 1
        rng = np.random.default_rng(5)
        for _ in range(5):
            blocks = [rng.standard_normal((k, k)) + 3 * np.eye(k) for k in shape.sides]
            cert = SosCertificate(ConeKind.K, 2, 4, blocks, rng.random(shape.nscalar))
            dense = block_diag(*[(b + b.T) / 2 for b in blocks])
            want = float(np.linalg.eigvalsh(dense)[0])
            report = validate_certificate(SymMatrix.identity(4), cert)
            assert abs(report.min_gram_eig - want) <= 1e-12 * (1 + abs(want))
            assert report.min_scalar == float(cert.scalars.min())


class TestMembershipBar:
    def test_negative_scalar_is_inconclusive(self, monkeypatch):
        # M = I, Q r=0: x1^2 + x2^2 + 2^-10 x1 x2 from the block and -2^-10
        # x1 x2 from the scalar reproduce the lift exactly with a PSD block,
        # but a scalar of -2^-10 is no certificate
        prob = build_Q_membership(SymMatrix.identity(2), 0)
        assert list(prob.sdp.blocks) == [psd_block(2), nonneg_block(3)]
        block = np.array([[1.0, 2.0**-11], [2.0**-11, 1.0]])
        forged = SdpSolution(SdpStatus.OPTIMAL, objective=0.0,
                             x_blocks=[block, np.array([0.0, -(2.0**-10), 0.0])],
                             primal_res=0.0, dual_res=0.0, gap=0.0, iterations=1)
        monkeypatch.setattr(cones, "solve", lambda sdp, eps: forged)
        res = decide_membership(prob)
        assert res.residual == 0 and res.min_gram_eig > 0
        assert res.verdict == Verdict.INCONCLUSIVE


class TestSerialization:
    def test_k_certificate_roundtrip(self, rnd):
        m, _, _, _ = planted_spn(rnd, 3)
        res = decide_membership(build_K_membership(m, 0))
        text = res.certificate.to_text()
        back = SosCertificate.from_text(text)
        assert back.kind == ConeKind.K and back.r == 0 and back.n == 3
        assert len(back.gram_blocks) == len(res.certificate.gram_blocks)
        assert all(np.allclose(a, b) for a, b in
                   zip(back.gram_blocks, res.certificate.gram_blocks))
        assert np.allclose(back.scalars, res.certificate.scalars)
        assert validate_certificate(m, back).ok

    def test_q_certificate_roundtrip(self, rnd):
        m, _, _, _ = planted_spn(rnd, 3)
        res = decide_membership(build_Q_membership(m, 1))
        text = res.certificate.to_text()
        back = SosCertificate.from_text(text)
        assert np.allclose(back.scalars, res.certificate.scalars)
        assert all(
            np.allclose(a, b)
            for a, b in zip(back.gram_blocks, res.certificate.gram_blocks)
        )

    @pytest.mark.parametrize("kind", list(ConeKind))
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_exact_roundtrip_and_v1_rejected(self, kind, r):
        shape = gram_shape(3, r, kind)
        rng = np.random.default_rng(r)
        cert = SosCertificate(kind, r, 3, [rng.standard_normal((k, k)) for k in shape.sides],
                              rng.standard_normal(shape.nscalar), {"iterations": 7})
        text = cert.to_text()
        back = SosCertificate.from_text(text)
        assert (back.kind, back.r, back.n, back.provenance) == (kind, r, 3, {"iterations": 7})
        assert [b.tolist() for b in back.gram_blocks] == [b.tolist() for b in cert.gram_blocks]
        assert back.scalars.tolist() == cert.scalars.tolist()
        m = random_symmetric(random.Random(r), 3)
        assert validate_certificate(m, back) == validate_certificate(m, cert)
        doc = json.loads(text)
        doc["format"] = "coposos-certificate-v1"
        with pytest.raises(ValueError, match="unrecognized"):
            SosCertificate.from_text(json.dumps(doc))

    @pytest.mark.parametrize("field", ["kind", "r", "n", "gram_blocks", "scalars"])
    def test_missing_field_is_named(self, field):
        shape = gram_shape(3, 1, ConeKind.Q)
        doc = json.loads(SosCertificate(ConeKind.Q, 1, 3, [np.eye(k) for k in shape.sides],
                                        np.ones(shape.nscalar)).to_text())
        del doc[field]
        with pytest.raises(ValueError, match=f"^certificate is missing the field '{field}'$"):
            SosCertificate.from_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^unrecognized certificate format$"):
            SosCertificate.from_text(json.dumps([doc]))  # not an object

    @pytest.mark.parametrize("field,value,message", [
        ("r", 0.7, "r: 0.7 is not an integer level"),
        ("r", True, "r: True is not an integer level"),
        ("r", "1", "r: '1' is not an integer level"),
        ("r", -1, "r: -1 is not a level >= 0"),
        ("n", True, "n: True is not an integer variable count"),
        ("n", 3.0, "n: 3.0 is not an integer variable count"),
        ("n", 0, "n: 0 is not a variable count >= 1"),
        ("kind", "X", "kind: 'X' is not a cone kind, K or Q"),
        ("kind", None, "kind: None is not a cone kind, K or Q"),
        ("gram_blocks", 5, "gram_blocks is not a list of square matrices"),
        ("gram_blocks", [5], "gram_blocks[0] is not a square matrix of numbers"),
        ("gram_blocks", [[1.0, 0.0], [0.0, 1.0], [[1.0]]],
         "gram_blocks[0] is not a square matrix of numbers"),
        ("gram_blocks", [[[1.0]], [[1.0, 0.0], [0.0]]],
         "gram_blocks[1] is not a square matrix of numbers"),
        ("gram_blocks", [[[True]]], "gram_blocks[0] is not a square matrix of numbers"),
        ("scalars", "abc", "scalars is not a list of numbers"),
        ("scalars", [1.0, "abc"], "scalars is not a list of numbers"),
        ("scalars", [[1.0]], "scalars is not a list of numbers"),
        ("provenance", 3, "provenance is not an object"),
        ("provenance", None, "provenance is not an object"),
        ("gram_blocks", [[[float("nan"), 0.0], [0.0, 1.0]]],
         "gram_blocks[0] is not a square matrix of numbers"),
        ("scalars", [1.0, float("inf")], "scalars is not a list of numbers"),
        ("scalars", [10**400], "scalars is not a list of numbers"),
    ], ids=["r-float", "r-bool", "r-string", "r-negative", "n-bool", "n-float", "n-zero",
            "kind-unknown", "kind-null", "blocks-int", "block-int", "block-rows",
            "block-ragged", "block-bool", "scalars-string", "scalars-entry",
            "scalars-nested", "provenance-int", "provenance-null", "block-nan",
            "scalars-infinity", "scalars-huge-int"])
    def test_bad_field_is_named(self, field, value, message):
        # read as given: no coercion of 0.7 to level 0 or of true to n = 1
        shape = gram_shape(3, 1, ConeKind.Q)
        doc = json.loads(SosCertificate(ConeKind.Q, 1, 3, [np.eye(k) for k in shape.sides],
                                        np.ones(shape.nscalar)).to_text())
        doc[field] = value
        with pytest.raises(ValueError) as err:
            SosCertificate.from_text(json.dumps(doc))
        assert str(err.value) == message


def _validate_at(tol):
    """validate_certificate of the identity's K r=0 certificate at ``tol``."""
    cert = SosCertificate(ConeKind.K, 0, 2, [np.eye(2)], np.zeros(1))
    return validate_certificate(SymMatrix.identity(2), cert, tol=tol)


@pytest.mark.parametrize("call,message", [
    (lambda: GramLayout(3, -1, ConeKind.K), "level must be >= 0"),
    (lambda: GramLayout.shared(3, -1, ConeKind.Q), "level must be >= 0"),
    (lambda: _validate_at(float("nan")), "tol must be finite"),
    (lambda: _validate_at(float("inf")), "tol must be finite"),
    (lambda: _validate_at(-1.0), "tol must be >= 0"),
], ids=["layout", "shared-layout", "tol-nan", "tol-inf", "tol-negative"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
