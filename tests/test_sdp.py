from fractions import Fraction

import numpy as np
import pytest

from coposos.apps import cycle_graph, sqp_reciprocal_program, stability_qp_matrix
from coposos.cones import ConeKind
from coposos.relax import build_relaxation_sdp
from coposos.sdpcore import (
    BlockSdp,
    SdpBuilder,
    SdpStatus,
    export_sparse,
    nonneg_block,
    parse_sparse,
    psd_block,
    sandwich_diagnostics,
    smat,
    solve,
    svec,
)
from coposos.sdpcore import solver
from coposos.sdpcore.solver import _Cone


def test_svec_roundtrip_preserves_inner_products():
    rng = np.random.default_rng(0)
    for k in (1, 2, 5):
        a = rng.normal(size=(k, k))
        a = a + a.T
        b = rng.normal(size=(k, k))
        b = b + b.T
        assert np.allclose(smat(svec(a), k), a)
        assert np.isclose(svec(a) @ svec(b), np.trace(a @ b))


def test_min_entry_fixed_scalar():
    # min x11 s.t. x11 = 3 on PSD(1)
    sdp = BlockSdp.from_blocks(
        [psd_block(1)], [np.array([[1.0]])], [([np.array([[1.0]])], 3.0)]
    )
    sol = solve(sdp)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.objective - 3.0) < 1e-7


def test_negative_scalar_infeasible():
    sdp = BlockSdp.from_blocks(
        [psd_block(1)], [np.array([[0.0]])], [([np.array([[1.0]])], -1.0)]
    )
    sol = solve(sdp)
    assert sol.status == SdpStatus.PRIMAL_INFEASIBLE
    assert sol.certificate["quality"] <= 1e-8


def test_amgm_trace_minimization():
    # min <I, X> s.t. x12 + x21 = 2 on PSD(2); optimum 2 at the all-ones matrix
    a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sdp = BlockSdp.from_blocks([psd_block(2)], [np.eye(2)], [([a1], 2.0)])
    sol = solve(sdp)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.objective - 2.0) < 1e-6
    assert np.allclose(sol.x_blocks[0], np.ones((2, 2)), atol=1e-4)


def test_unbounded_detected():
    # min -x11 s.t. x12 = 1 on PSD(2): x11 free to grow
    a1 = np.array([[0.0, 0.5], [0.5, 0.0]])
    c = np.diag([-1.0, 0.0])
    sdp = BlockSdp.from_blocks([psd_block(2)], [c], [([a1], 1.0)])
    sol = solve(sdp)
    assert sol.status == SdpStatus.DUAL_INFEASIBLE_OR_UNBOUNDED
    assert sol.certificate["quality"] <= 1e-8


def _planted_instance(rng, blocks, m):
    """Plant a complementary primal/dual optimal pair; return (sdp, value)."""
    x_parts, s_parts = [], []
    for blk in blocks:
        if blk.kind == "psd":
            k = blk.size
            q, _ = np.linalg.qr(rng.normal(size=(k, k)))
            split = rng.integers(1, k + 1)
            ex = np.zeros(k)
            ex[:split] = rng.uniform(0.5, 2.0, size=split)
            es = np.zeros(k)
            es[split:] = rng.uniform(0.5, 2.0, size=k - split)
            x_parts.append(q @ np.diag(ex) @ q.T)
            s_parts.append(q @ np.diag(es) @ q.T)
        else:
            k = blk.size
            mask = rng.integers(0, 2, size=k).astype(bool)
            xv = np.where(mask, rng.uniform(0.5, 2.0, size=k), 0.0)
            sv = np.where(~mask, rng.uniform(0.5, 2.0, size=k), 0.0)
            x_parts.append(xv)
            s_parts.append(sv)
    y_star = rng.normal(size=m)
    a_rows = []
    for _ in range(m):
        row = []
        for blk in blocks:
            if blk.kind == "psd":
                g = rng.normal(size=(blk.size, blk.size))
                row.append((g + g.T) / 2)
            else:
                row.append(rng.normal(size=blk.size))
        a_rows.append(row)

    def dot(mats, parts):
        total = 0.0
        for blk, mm, pp in zip(blocks, mats, parts):
            if blk.kind == "psd":
                total += float(np.trace(mm @ pp))
            else:
                total += float(mm @ pp)
        return total

    b = [dot(row, x_parts) for row in a_rows]
    c_parts = []
    for bi, blk in enumerate(blocks):
        acc = np.array(s_parts[bi], dtype=float)
        for yi, row in zip(y_star, a_rows):
            acc = acc + yi * np.array(row[bi], dtype=float)
        c_parts.append(acc)
    sdp = BlockSdp.from_blocks(blocks, c_parts, list(zip(a_rows, b)))
    return sdp, dot(c_parts, x_parts)


def test_planted_optimal_value_corpus():
    rng = np.random.default_rng(7)
    blocks = [psd_block(3), nonneg_block(2)]
    for _ in range(50):
        sdp, planted = _planted_instance(rng, blocks, m=4)
        sol = solve(sdp)
        assert sol.status == SdpStatus.OPTIMAL
        assert abs(sol.objective - planted) <= 1e-6 * max(1.0, abs(planted))


def test_weak_duality_on_returned_points():
    rng = np.random.default_rng(3)
    blocks = [psd_block(3), nonneg_block(2)]
    sdp, _ = _planted_instance(rng, blocks, m=3)
    sol = solve(sdp)
    assert sol.status == SdpStatus.OPTIMAL
    assert sol.objective >= sol.diagnostics["dual_objective"] - 1e-6


def test_determinism():
    rng = np.random.default_rng(11)
    blocks = [psd_block(3)]
    sdp, _ = _planted_instance(rng, blocks, m=2)
    v1 = solve(sdp).objective
    v2 = solve(sdp).objective
    assert abs(v1 - v2) <= 2e-8


def test_nonneg_matches_psd1_blocks():
    rng = np.random.default_rng(5)
    for trial in range(10):
        m, k = 3, 4
        a_rows = rng.normal(size=(m, k))
        x_feas = rng.uniform(0.5, 1.5, size=k)
        b = a_rows @ x_feas
        c = rng.uniform(0.1, 1.0, size=k)

        nn = BlockSdp.from_blocks(
            [nonneg_block(k)], [c], [([a_rows[i]], b[i]) for i in range(m)]
        )
        as_psd = BlockSdp.from_blocks(
            [psd_block(1)] * k,
            [np.array([[ci]]) for ci in c],
            [
                ([np.array([[a_rows[i, j]]]) for j in range(k)], b[i])
                for i in range(m)
            ],
        )
        s1 = solve(nn)
        s2 = solve(as_psd)
        assert s1.status == s2.status == SdpStatus.OPTIMAL
        assert abs(s1.objective - s2.objective) <= 1e-6
        # both take the solver's one side-1 path
        assert s1.iterations == s2.iterations


def test_builder_rejects_entries_outside_their_block():
    builder = SdpBuilder([nonneg_block(2), psd_block(2)])
    for entry in [(0, 2, 2, 1.0), (1, 0, 2, 1.0), (1, -1, 0, 1.0)]:
        with pytest.raises(ValueError):
            builder.add_row([entry], 1.0)
    with pytest.raises(ValueError):
        parse_sparse("blocks nonneg:2 psd:2\n1 0 2 2 1.0\n")


def test_export_parse_roundtrip():
    rng = np.random.default_rng(2)
    sdp, _ = _planted_instance(rng, [psd_block(2), nonneg_block(2)], m=2)
    text = export_sparse(sdp)
    back = parse_sparse(text)
    assert [b.kind for b in back.blocks] == [b.kind for b in sdp.blocks]
    assert np.allclose(back.A, sdp.A)
    assert np.allclose(back.b, sdp.b)
    assert np.allclose(back.c, sdp.c)
    v1 = solve(sdp).objective
    v2 = solve(back).objective
    assert abs(v1 - v2) <= 1e-7


def test_sandwich_identity_point():
    # trace(X) = k on PSD(k): X0 = I has residual 0 and margin 1
    k = 3
    sdp = BlockSdp.from_blocks(
        [psd_block(k)], [np.zeros((k, k))], [([np.eye(k)], float(k))]
    )
    rep = sandwich_diagnostics(sdp, [np.eye(k)], r1=0.5, r2=10.0)
    assert rep.ok
    assert rep.eq_residual <= 1e-12
    assert abs(rep.margin - 1.0) <= 1e-12
    assert rep.log_ratio == pytest.approx(np.log(20.0))


def test_sandwich_flags_violation():
    k = 2
    sdp = BlockSdp.from_blocks(
        [psd_block(k)], [np.zeros((k, k))], [([np.eye(k)], 2.0)]
    )
    bad = np.diag([1.0, 1.5])  # trace 2.5, violates by 0.5
    rep = sandwich_diagnostics(sdp, [bad], r1=0.1, r2=1.0)
    assert not rep.ok
    assert rep.eq_residual == pytest.approx(0.5)


def _stability_relaxation_sdp(n, r, kind):
    # the box 8n is the one stability_bound derives for unit weights
    prog = sqp_reciprocal_program(stability_qp_matrix(cycle_graph(n)))
    return build_relaxation_sdp(prog, r, kind, Fraction(8 * n)).sdp


def _least_eigenvalue(sdp, x_blocks):
    return min(
        float(np.linalg.eigvalsh(part)[0] if blk.kind == "psd" else np.min(part))
        for blk, part in zip(sdp.blocks, x_blocks)
    )


def test_optimal_point_in_cone_with_closed_gap():
    # The C5 stability relaxation at level 1 of K sits on a degenerate face
    # (the bound equals alpha = 2); OPTIMAL must mean an in-cone x and a
    # primal-dual objective gap within gaptol.
    sdp = _stability_relaxation_sdp(5, 1, ConeKind.K)
    gaptol = 1e-8
    sol = solve(sdp, eps=gaptol)
    assert sol.status == SdpStatus.OPTIMAL
    assert _least_eigenvalue(sdp, sol.x_blocks) >= 0.0
    pobj, dobj = sol.objective, sol.diagnostics["dual_objective"]
    assert abs(pobj - dobj) <= gaptol * max(1.0, abs(pobj), abs(dobj))


@pytest.mark.parametrize("n,r,kind", [(5, 1, ConeKind.K), (7, 1, ConeKind.Q)])
def test_early_exit_reports_in_cone_point(n, r, kind):
    # A loose feastol makes every point eligible for the primal polish; far
    # from the optimum its correction is large and can leave the cone, and
    # the reported point must not.
    sdp = _stability_relaxation_sdp(n, r, kind)
    for max_iter in range(1, 5):
        sol = solve(sdp, max_iter=max_iter, feastol=100.0)
        assert sol.status == SdpStatus.INCONCLUSIVE
        assert _least_eigenvalue(sdp, sol.x_blocks) >= 0.0


_MIXED_BLOCKS = [
    psd_block(3), nonneg_block(2), psd_block(1), psd_block(3), psd_block(4)
]


def test_min_eig_matches_per_block_reference():
    rng = np.random.default_rng(13)
    dim = sum(b.vec_dim for b in _MIXED_BLOCKS)
    sdp = BlockSdp(_MIXED_BLOCKS, np.zeros((0, dim)), [], np.zeros(dim))
    cone = _Cone(sdp)
    # one group per side; NONNEG(2) and PSD(1) share the side-1 group
    assert {k: nblk for k, nblk, _ in cone.groups} == {3: 2, 1: 3, 4: 1}
    for _ in range(20):
        v = rng.normal(size=dim)
        reference = _least_eigenvalue(sdp, sdp.unpack(v))
        assert abs(cone.min_eig(v) - reference) <= 1e-12


def _shuffled(sdp, perm):
    """The same SDP with its blocks in the order ``perm``."""
    cols = np.concatenate([np.arange(sdp.dim)[sdp.slices[i]] for i in perm])
    return BlockSdp([sdp.blocks[i] for i in perm], sdp.A[:, cols], sdp.b, sdp.c[cols])


@pytest.mark.parametrize("case", ["planted", "C5-Q-r1"])
def test_block_order_does_not_matter(case):
    # The solver gathers blocks into groups by side and scatters them back,
    # so permuting the blocks must permute the solution and change nothing
    # else.  x is compared after four iterations, where the iterate is
    # unique: the optimal face of a planted instance is generally not a
    # point, and two orders' rounding lands x on it up to 1e-5 apart.
    if case == "planted":
        sdp, _ = _planted_instance(np.random.default_rng(17), _MIXED_BLOCKS, m=6)
    else:
        sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    perm = np.random.default_rng(19).permutation(len(sdp.blocks))
    shuffled = _shuffled(sdp, perm)
    for max_iter in (4, 200):
        sol = solve(sdp, max_iter=max_iter)
        other = solve(shuffled, max_iter=max_iter)
        assert sol.status == other.status
        assert abs(sol.objective - other.objective) <= 1e-7
        dobj = sol.diagnostics["dual_objective"]
        assert abs(dobj - other.diagnostics["dual_objective"]) <= 1e-7
        if max_iter == 4:
            unshuffled = [None] * len(perm)
            for j, i in enumerate(perm):
                unshuffled[i] = other.x_blocks[j]
            for mine, theirs in zip(sol.x_blocks, unshuffled):
                assert np.max(np.abs(mine - theirs)) <= 1e-6
    assert sol.status == SdpStatus.OPTIMAL


def test_refinement_stops_at_the_noise_floor(monkeypatch):
    # Hilbert(12) has condition number about 1.6e16: refinement cannot reach
    # its 1e-13 target, so it must stop once a round fails to halve the
    # residual and keep the better iterate.
    k_mat = 1.0 / (np.arange(12)[:, None] + np.arange(12)[None, :] + 1.0)
    rhs = np.ones(12)
    factor = solver._chol_with_regularization(k_mat)
    original = solver.cho_solve
    first = original(factor, rhs, check_finite=False)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "cho_solve", counting)
    u = solver._refined_solve(factor, k_mat, rhs)
    assert len(calls) <= 3
    assert np.linalg.norm(rhs - k_mat @ u) <= np.linalg.norm(rhs - k_mat @ first)
