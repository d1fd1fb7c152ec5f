import functools
import gc
import hashlib
import math
import re
import weakref
from time import perf_counter

import numpy as np
import pytest

from conftest import block_sdp, c5_matrix, dense_scaled_rows, dense_sdp, orbit_blocks
from coposos import cones, polycore, relax
from coposos.apps import (
    chromatic_bound,
    chromatic_box_bound,
    chromatic_program,
    complete_graph,
    cycle_graph,
    parse_dimacs,
    sqp_bound,
    sqp_reciprocal_bound,
    sqp_reciprocal_program,
    stability_bound,
    stability_qp_matrix,
)
from coposos.cones import (
    ConeKind,
    Verdict,
    build_K_membership,
    build_membership,
    decide_membership,
)
from coposos.polycore import SymMatrix
from coposos.relax import (
    ConicProgram,
    build_relaxation_sdp,
    solve_relaxation,
    to_bounded,
)
from coposos.sdpcore import (
    BlockSdp,
    BlockSpec,
    SdpBuilder,
    SdpStatus,
    export_sparse,
    nonneg_block,
    parse_sparse,
    psd_block,
    smat,
    solve,
    svec,
)
from coposos.sdpcore import solver
from coposos.sdpcore.solver import _Cone, _Rows


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
    sdp = block_sdp(
        [psd_block(1)], [np.array([[1.0]])], [([np.array([[1.0]])], 3.0)]
    )
    sol = solve(sdp)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.objective - 3.0) < 1e-7


def test_negative_scalar_infeasible():
    sdp = block_sdp(
        [psd_block(1)], [np.array([[0.0]])], [([np.array([[1.0]])], -1.0)]
    )
    sol = solve(sdp)
    assert sol.status == SdpStatus.PRIMAL_INFEASIBLE
    assert sol.diagnostics["ray_quality"] <= 1e-8
    assert abs(sdp.b @ sol.y - 1.0) <= 1e-12  # the ray is normalized to b.y = 1


def _interior(rng, blk):
    """A point strictly inside the block's cone."""
    if blk.kind == "nonneg":
        return rng.uniform(0.5, 2.0, size=blk.size)
    q, _ = np.linalg.qr(rng.normal(size=(blk.size, blk.size)))
    return q @ np.diag(rng.uniform(0.5, 2.0, size=blk.size)) @ q.T


def _random_part(rng, blk):
    g = rng.normal(size=(blk.size, blk.size))
    return (g + g.T) / 2 if blk.kind == "psd" else rng.normal(size=blk.size)


_FEASIBILITY_BLOCKS = [psd_block(3), nonneg_block(2), psd_block(2), psd_block(1)]


def _feasibility_sdp(seed, feasible, objective=False, m=5):
    """{<A_i, X> = b_i, X in K} with a strictly interior point (feasible) or
    a strictly interior Farkas slack -A^T y* with b^T y* = 1 (infeasible);
    the objective is 0 unless ``objective``."""
    rng = np.random.default_rng(seed)
    blocks = _FEASIBILITY_BLOCKS
    rows = [[_random_part(rng, blk) for blk in blocks] for _ in range(m)]
    if feasible:
        x0 = [_interior(rng, blk) for blk in blocks]
        b = [sum(float(np.sum(a * x)) for a, x in zip(row, x0)) for row in rows]
    else:
        y_star = np.append(rng.normal(size=m - 1), 1.0)
        s0 = [_interior(rng, blk) for blk in blocks]
        rows[-1] = [-s - sum(yi * row[k] for yi, row in zip(y_star, rows[:-1]))
                    for k, s in enumerate(s0)]
        b = list(rng.normal(size=m))
        b[-1] = 1.0 - float(np.dot(b[:-1], y_star[:-1]))
    c = [_random_part(rng, blk) for blk in blocks]
    if not objective:
        c = [np.zeros_like(part) for part in c]
    return block_sdp(blocks, c, list(zip(rows, b)))


@pytest.mark.parametrize("seed", range(6))
def test_feasibility_problem_ends_optimal_at_the_zero_dual(seed):
    # min 0 over a strictly feasible set: the zero dual is exact, so the
    # solve reports it with no dual residual and no gap, and the point it
    # stops at is in the cone and within eps of the rows
    sdp = _feasibility_sdp(seed, feasible=True)
    sol = solve(sdp)
    assert sol.status == SdpStatus.OPTIMAL
    assert not sol.y.any() and not any(s.any() for s in sol.s_blocks)
    assert sol.gap == 0.0 and sol.relgap == 0.0 and sol.dual_res == 0.0
    assert sol.objective == 0.0 and sol.diagnostics["dual_objective"] == 0.0
    assert _least_eigenvalue(sdp, sol.x_blocks) >= 0.0
    resid = sdp.A @ sdp.pack(sol.x_blocks) - sdp.b
    assert sol.primal_res <= 1e-8
    assert np.linalg.norm(resid) / (1.0 + np.linalg.norm(sdp.b)) <= 1e-8


@pytest.mark.parametrize("objective", [False, True], ids=["zero", "nonzero"])
@pytest.mark.parametrize("seed", range(4))
def test_infeasibility_ray_reports_its_exact_slack(seed, objective):
    # every PRIMAL_INFEASIBLE exit: y normalized to b.y = 1, s = -A^T y, and
    # ray_quality the amount by which that slack's least eigenvalue is < 0
    sdp = _feasibility_sdp(seed, feasible=False, objective=objective)
    sol = solve(sdp)
    assert sol.status == SdpStatus.PRIMAL_INFEASIBLE
    assert abs(sdp.b @ sol.y - 1.0) <= 1e-12
    slack = sdp.pack(sol.s_blocks)
    assert np.max(np.abs(sdp.A.T @ sol.y + slack)) <= 1e-12
    quality, least = sol.diagnostics["ray_quality"], _least_eigenvalue(sdp, sdp.unpack(slack))
    assert 0.0 <= quality <= 1e-8
    assert least >= -quality
    assert quality == pytest.approx(max(0.0, -least), abs=1e-12)


# SHA-256 of the bytes of every x block, y and every s block, with the
# iteration count, of relaxation solves (OpenBLAS on x86-64); a program with
# an objective must keep its path bit for bit.  "chi-C5-Q-r0" was recorded
# while every orbit block stayed PSD and is solved so.  All four were
# re-pinned when the SDP lost its box rows.
_SOLUTION_DIGESTS = {
    "C7-K-r1": ("cc19be21a9b60fe55de2510a3c5a4a50bd6a5d8086a6799d18dd2878342e2337", 10),
    "C9-Q-r2": ("3eb28ba66fd4fa4f55aa7a8e5147a6f6f339796b7df48321363df2d042451f3e", 14),
    "chi-C5-Q-r0": ("9a4134e996096eed7192e01cf4db2fd4f064dfd7009be0b1a7db1dff7244880b", 12),
    "chi-C5-Q-r0-diagonalised": (
        "4c65ed74b589980bd221135a0fbfaa2886f0c6127ba3857e0064e05b116de5ff", 11),
}


@pytest.mark.parametrize("name", list(_SOLUTION_DIGESTS))
def test_relaxation_solutions_are_pinned(name):
    if name == "chi-C5-Q-r0":
        with orbit_blocks():
            sol = chromatic_bound(cycle_graph(5), 0)[1].solution
    elif name == "chi-C5-Q-r0-diagonalised":
        sol = chromatic_bound(cycle_graph(5), 0)[1].solution
    else:
        n, kind, r = int(name[1]), ConeKind(name[3]), int(name[-1])
        sol = stability_bound(cycle_graph(n), r, kind).solution
    h = hashlib.sha256()
    for arr in [*sol.x_blocks, sol.y, *sol.s_blocks]:
        h.update(arr.tobytes())
    assert sol.status == SdpStatus.OPTIMAL
    assert (h.hexdigest(), sol.iterations) == _SOLUTION_DIGESTS[name]


def test_amgm_trace_minimization():
    # min <I, X> s.t. x12 + x21 = 2 on PSD(2); optimum 2 at the all-ones matrix
    a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    sdp = block_sdp([psd_block(2)], [np.eye(2)], [([a1], 2.0)])
    sol = solve(sdp)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.objective - 2.0) < 1e-6
    assert np.allclose(sol.x_blocks[0], np.ones((2, 2)), atol=1e-4)


def test_unbounded_detected():
    # min -x11 s.t. x12 = 1 on PSD(2): x11 free to grow
    a1 = np.array([[0.0, 0.5], [0.5, 0.0]])
    c = np.diag([-1.0, 0.0])
    sdp = block_sdp([psd_block(2)], [c], [([a1], 1.0)])
    sol = solve(sdp)
    assert sol.status == SdpStatus.DUAL_INFEASIBLE_OR_UNBOUNDED
    assert sol.diagnostics["ray_quality"] <= 1e-8
    assert abs(sdp.c @ sdp.pack(sol.x_blocks) + 1.0) <= 1e-12  # normalized to c.x = -1


@pytest.mark.parametrize("diag,want", [((1.0, 1.0), SdpStatus.OPTIMAL),
                                       ((-1.0, 1.0), SdpStatus.DUAL_INFEASIBLE_OR_UNBOUNDED)])
def test_sdp_without_rows(diag, want):
    # min <C, X> on PSD(2) alone: the Schur system is 0 x 0; C = I has the
    # optimum 0 at X = 0, C = diag(-1, 1) the improving ray X = diag(t, 0)
    sdp = parse_sparse("blocks psd:2\n" + "".join(
        f"0 0 {i} {i} {v}\n" for i, v in enumerate(diag)))
    assert sdp.num_constraints == 0
    sol = solve(sdp)
    assert sol.status == want
    if want is SdpStatus.OPTIMAL:
        assert abs(sol.objective) <= 1e-7
        assert np.min(np.linalg.eigvalsh(sol.x_blocks[0])) >= 0
    else:
        assert sol.diagnostics["ray_quality"] <= 1e-8
        assert abs(sdp.c @ sdp.pack(sol.x_blocks) + 1.0) <= 1e-12


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
    sdp = block_sdp(blocks, c_parts, list(zip(a_rows, b)))
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

        nn = block_sdp(
            [nonneg_block(k)], [c], [([a_rows[i]], b[i]) for i in range(m)]
        )
        as_psd = block_sdp(
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
    # negative indices must not wrap around to the end of a block or list
    builder = SdpBuilder([nonneg_block(2), psd_block(2)])
    bad = [(0, 2, 2), (1, 0, 2), (1, -1, 0), (1, 0, -1), (0, -1, -1), (-1, 0, 0),
           (2, 0, 0), (0, 0, 1)]  # the last: off the diagonal of a NONNEG block
    for block, i, j in bad:
        with pytest.raises(ValueError):
            builder.add_row([(block, i, j, 1.0)], 1.0)
        with pytest.raises(ValueError):
            builder.add_rows(-1, block, i, j, 1.0, [])
        with pytest.raises(ValueError):
            builder.add_rows([0, 0], [1, block], [0, i], [1, j], 1.0, [1.0])
    for row in (-2, 1):  # the objective is row -1; one row is being added
        with pytest.raises(ValueError):
            builder.add_rows(row, 1, 0, 0, 1.0, [1.0])
    with pytest.raises(ValueError):
        parse_sparse("blocks nonneg:2 psd:2\n1 0 2 2 1.0\n")
    sdp = builder.build()  # nothing of a rejected call was kept
    assert sdp.A.shape == (0, 5) and not sdp.c.any()


@pytest.mark.parametrize("row,col", [(2, 0), (-1, 0), (0, 5), (0, -1)])
def test_block_sdp_rejects_triplets_outside_a(row, col):
    # A is 2 x 5; a negative index must not wrap around
    with pytest.raises(ValueError):
        BlockSdp([nonneg_block(2), psd_block(2)], ([0, row], [1, col], [1.0, 2.0]),
                 [1.0, 0.0], np.zeros(5))


def _export_sparse_reference(sdp):
    """export_sparse as a loop over every entry of every block."""
    lines = ["blocks " + " ".join(f"{blk.kind}:{blk.size}" for blk in sdp.blocks)]
    lines += [f"rhs {i + 1} {float(b_i)!r}" for i, b_i in enumerate(sdp.b)
              if b_i != 0.0 or i == sdp.b.size - 1]
    for cons, vec in enumerate([sdp.c, *sdp.A]):
        for bi, (blk, sl) in enumerate(zip(sdp.blocks, sdp.slices)):
            if blk.kind == "psd":
                mat = smat(vec[sl], blk.size)
                entries = [(r, col, mat[r, col]) for r in range(blk.size)
                           for col in range(r, blk.size)]
            else:
                entries = [(r, r, v) for r, v in enumerate(vec[sl])]
            lines += [f"{cons} {bi} {r} {col} {float(v)!r}"
                      for r, col, v in entries if v != 0.0]
    return "\n".join(lines) + "\n"


def _zeros_and_cancellations_sdp():
    """Rows built from entries of -0.0 and from entries that cancel to 0,
    beside three (block, i, j) entries that stay: (0, 0, 0) in row 0,
    (3, 0, 1) in row 2 and (0, 1, 2) in the objective."""
    builder = SdpBuilder(_MIXED_BLOCKS)
    builder.add_rows(
        row=[-1, -1, -1, 0, 0, 0, 0, 1, 1, 1, 2, 2],
        block=[0, 3, 3, 0, 0, 1, 1, 4, 4, 3, 3, 3],
        i=[1, 0, 0, 0, 1, 0, 0, 2, 3, 0, 0, 2],
        j=[2, 0, 0, 0, 2, 0, 0, 3, 2, 1, 1, 2],
        value=[1.5, 0.5, -0.5, 2.0, -0.0, 3.0, -3.0, 0.25, -0.25, -0.0, 4.0, -0.0],
        rhs=[1.0, 0.0, 0.0])
    return builder.build()


def test_export_sparse_matches_entrywise_reference():
    # -0.0 and entries that cancel are neither stored in A nor exported
    zeros = _zeros_and_cancellations_sdp()
    a = zeros.coo
    assert (a.rows.tolist(), a.cols.tolist()) == ([0, 2], [0, zeros.slices[3].start + 1])
    assert np.array_equal(a.vals, [2.0, 4.0 * np.sqrt(2.0)])
    assert np.flatnonzero(zeros.c).tolist() == [4]
    text = export_sparse(zeros)
    assert "-0.0" not in text and len(text.splitlines()) == 1 + 2 + 3  # blocks, rhs, entries
    planted, _ = _planted_instance(np.random.default_rng(2), _MIXED_BLOCKS, m=3)
    for case in (zeros, _sparse_mixed_sdp(0), planted):
        assert export_sparse(case) == _export_sparse_reference(case)


def _empty_last_row_sdp():
    """SdpBuilder([psd_block(2)]) with rhs [1, 1, 0]: row 3 has no entries."""
    builder = SdpBuilder([psd_block(2)])
    builder.add_rows([-1, 0, 1], 0, [0, 0, 1], [0, 1, 1], [1.0, 2.0, 3.0], [1.0, 1.0, 0.0])
    return builder.build()


@pytest.mark.parametrize("case", ["empty-last-row", "zeros", "sparse", "no-rows"])
def test_export_parse_roundtrip_keeps_every_row(case):
    # a trailing row with no entries and a zero right-hand side survives
    sdp = {"empty-last-row": _empty_last_row_sdp, "zeros": _zeros_and_cancellations_sdp,
           "sparse": lambda: _sparse_mixed_sdp(3),
           "no-rows": lambda: SdpBuilder(_MIXED_BLOCKS).build()}[case]()
    back = parse_sparse(export_sparse(sdp))
    assert back.blocks == sdp.blocks
    assert back.num_constraints == sdp.num_constraints
    assert np.array_equal(back.b, sdp.b) and np.allclose(back.c, sdp.c, rtol=1e-15, atol=0)
    assert np.array_equal(back.coo.rows, sdp.coo.rows)
    assert np.array_equal(back.coo.cols, sdp.coo.cols)
    assert np.allclose(back.coo.vals, sdp.coo.vals, rtol=1e-15, atol=0)
    if case == "empty-last-row":
        assert back.num_constraints == 3 and back.b.tolist() == [1.0, 1.0, 0.0]


def _gram_sdp(case):
    """A Gram SDP the package builds: the chi(C5) relaxation at level 0,
    with its to_bounded constraint and D block; stability_bound's C7 K r=1
    relaxation; or the Q n=8 r=2 membership family."""
    if case == "chi-c5":
        prog = to_bounded(chromatic_program(cycle_graph(5)), chromatic_box_bound(cycle_graph(5)))
        return build_relaxation_sdp(prog, 0, ConeKind.Q).sdp
    if case == "alpha-c7-k1":
        return stability_bound(cycle_graph(7), 1, ConeKind.K).relaxation.sdp
    return build_membership(SymMatrix.identity(8), 2, ConeKind.Q).sdp


@pytest.mark.parametrize("case", ["chi-c5", "alpha-c7-k1", "member-q8-r2"])
def test_gram_sdps_roundtrip_through_the_exchange_format(case):
    # no entry of a real Gram SDP is written twice, so none is refused
    sdp = _gram_sdp(case)
    back = parse_sparse(export_sparse(sdp))
    assert back.blocks == sdp.blocks and np.array_equal(back.b, sdp.b)
    assert np.array_equal(back.coo.rows, sdp.coo.rows)
    assert np.array_equal(back.coo.cols, sdp.coo.cols)
    assert np.allclose(back.coo.vals, sdp.coo.vals, rtol=1e-15, atol=0)
    assert np.allclose(back.c, sdp.c, rtol=1e-15, atol=0)


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


def test_no_solve_path_reads_a_dense_a(monkeypatch):
    # A stays in triplets from the builder to the solver and the exchange
    # format; only tests read the dense view
    def dense_view(self):
        raise AssertionError("dense A read")

    monkeypatch.setattr(BlockSdp, "A", property(dense_view))
    for kind in (ConeKind.K, ConeKind.Q):
        assert stability_bound(cycle_graph(5), 1, kind).status == SdpStatus.OPTIMAL
    assert chromatic_bound(cycle_graph(4), 0)[1].status == SdpStatus.OPTIMAL
    for m, want in ((SymMatrix.identity(3), Verdict.MEMBER), (c5_matrix(), Verdict.NOT_MEMBER)):
        assert decide_membership(build_K_membership(m, 0)).verdict == want
    # no witness split: the split is searched for by check_intspn
    res = sqp_reciprocal_bound(stability_qp_matrix(cycle_graph(5)), 0, ConeKind.K)
    assert res.status == SdpStatus.OPTIMAL
    # min lambda s.t. I + lambda J in K^(0)
    prog = ConicProgram.make([1], [(3, [SymMatrix.ones(3)], SymMatrix.identity(3).scale(-1))])
    res = solve_relaxation(prog, 0, ConeKind.K)
    assert res.status == SdpStatus.OPTIMAL
    back = parse_sparse(export_sparse(res.relaxation.sdp))
    assert back.num_constraints == res.relaxation.sdp.num_constraints


def test_no_public_call_builds_a_poly(monkeypatch):
    # every lift and audit runs on lift-table integers: Poly is only the
    # tests' oracle
    def no_poly(self, *args, **kwargs):
        raise AssertionError("Poly built")

    monkeypatch.setattr(polycore.Poly, "__init__", no_poly)
    assert stability_bound(cycle_graph(5), 1, ConeKind.K).status == SdpStatus.OPTIMAL
    assert chromatic_bound(cycle_graph(4), 0)[1].status == SdpStatus.OPTIMAL
    assert sqp_bound(SymMatrix.identity(3), 1, ConeKind.Q).status == SdpStatus.OPTIMAL
    res = sqp_reciprocal_bound(stability_qp_matrix(cycle_graph(5)), 0, ConeKind.K)
    assert res.status == SdpStatus.OPTIMAL
    for m, want in ((SymMatrix.identity(3), Verdict.MEMBER), (c5_matrix(), Verdict.NOT_MEMBER)):
        assert decide_membership(build_K_membership(m, 0)).verdict == want


@pytest.mark.parametrize("parse,text,line", [
    (parse_dimacs, "p edge 3 1\ne 1\n", "line 2 'e 1'"),
    (parse_dimacs, "p edge three 1\n", "line 1 "),
    (parse_dimacs, "p edge 3 1\ne 1 2\nx 1 2\n", "line 3 'x 1 2': unknown line kind 'x'"),
    # a weighted file's vertex weights are not read, so they are refused
    (parse_dimacs, "p edge 2 1\nn 1 2\ne 1 2\n", "line 2 'n 1 2': unknown line kind 'n'"),
    # a comment is a line whose first field is c
    (parse_dimacs, "p edge 2 1\ncx 1 2\ne 1 2\n", "line 2 'cx 1 2': unknown line kind 'cx'"),
    (parse_sparse, "blocks psd:2\n1 0 0\n", "line 2 '1 0 0'"),
    (parse_sparse, "blocks psd:2\nrhs 0 1.5\n0 0 0 0 1\n", "line 2 'rhs 0 1.5'"),
    (parse_sparse, "# header next\nblocks psd2\n", "line 2 "),
    (parse_sparse, "blocks psd:2\nrhs 1 one\n", "line 2 "),
    # entries outside the program, checked once the header is known
    (parse_sparse, "blocks psd:2\n1 3 0 0 1\n", "line 2 '1 3 0 0 1': block"),
    (parse_sparse, "1 1 0 0 1\nblocks psd:2\n", "line 1 '1 1 0 0 1': block"),
    (parse_sparse, "blocks psd:2\n1 0 0 0 1\n-1 0 0 0 1\n", "line 3 '-1 0 0 0 1': constraint"),
    (parse_sparse, "blocks nonneg:2 psd:2\n1 0 2 2 1\n", "line 2 '1 0 2 2 1': entry outside block 0"),
    (parse_sparse, "blocks nonneg:2 psd:2\n1 1 0 2 1\n", "line 2 '1 1 0 2 1': entry outside block 1"),
    (parse_sparse, "blocks psd:2\n1 0 -1 0 1\n", "line 2 '1 0 -1 0 1': entry outside block 0"),
    (parse_sparse, "blocks nonneg:2\n1 0 0 1 1\n", "line 2 '1 0 0 1 1': NONNEG"),
    # the format lists the upper triangle only; a mirror entry is refused, not summed
    (parse_sparse, "blocks psd:2\n1 0 0 1 1\n1 0 1 0 1\n",
     "line 3 '1 0 1 0 1': entry below the diagonal"),
])
def test_parsers_name_the_malformed_line(parse, text, line):
    with pytest.raises(ValueError) as err:
        parse(text)
    assert str(err.value).startswith(line)


@pytest.mark.parametrize("text,name", [
    ("blocks psd:2\nrhs 1 nan\n0 0 0 0 1\n1 0 0 0 1\n", "b"),
    ("blocks psd:2\nrhs 1 1\n0 0 0 0 1\n1 0 0 1 inf\n", "A"),
    ("blocks psd:2\nrhs 1 1\n0 0 0 1 nan\n1 0 0 0 1\n", "c"),
    ("blocks psd:2\nrhs 1 1\n0 0 0 0 1\n1 0 0 0 -inf\n", "A"),
])
def test_block_sdp_rejects_non_finite_data(text, name):
    # parse_sparse refuses the line; BlockSdp, handed the same data, names
    # the field: the text's one non-finite value replaces the one nonzero
    # of that field in the SDP parsed with a finite value there
    with pytest.raises(ValueError, match="value is not finite"):
        parse_sparse(text)
    bad = re.search(r"-?(nan|inf)", text).group()
    sdp = parse_sparse(text.replace(bad, "2"))
    data = {"b": sdp.b.copy(), "A": sdp.coo.vals.copy(), "c": sdp.c.copy()}
    data[name][data[name] != 0] = float(bad)
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry"):
        BlockSdp(sdp.blocks, (sdp.coo.rows, sdp.coo.cols, data["A"]), data["b"], data["c"])


def _stability_relaxation_sdp(n, r, kind):
    prog = sqp_reciprocal_program(stability_qp_matrix(cycle_graph(n)))
    return build_relaxation_sdp(prog, r, kind).sdp


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


@pytest.mark.parametrize("n,r,kind,least", [(5, 1, ConeKind.K, -0.98), (7, 1, ConeKind.Q, -2.30)],
                         ids=["5-1-K", "7-1-Q"])
def test_a_polish_that_leaves_the_cone_reports_x_over_tau(n, r, kind, least):
    # Far from the optimum the primal polish's correction is large: at the
    # identity start it leaves the cone, and the reported point must not.
    sdp = _stability_relaxation_sdp(n, r, kind)
    run = solver._Solve(sdp, 1e-8)
    e = run.setup.start
    nt = run.newton(solver._Iterate(e, np.zeros(run.m), e, 1.0, 1.0), False)
    x, resid = e / 1.0, sdp.coo.dot(e) - sdp.b
    u = solver._refined_solve(nt.factor, nt.k_mat, resid)
    corrected = x - run.congruence(nt.sc, nt.abar.tdot(u), True)
    assert _least_eigenvalue(sdp, sdp.unpack(corrected)) == pytest.approx(least, abs=0.005)
    assert np.linalg.norm(sdp.coo.dot(corrected) - sdp.b) < np.linalg.norm(resid)
    polished, polished_resid = run.polish(nt, x, resid)
    assert polished is x and polished_resid is resid
    assert _least_eigenvalue(sdp, sdp.unpack(polished)) > 0.0


_MIXED_BLOCKS = [
    psd_block(3), nonneg_block(2), psd_block(1), psd_block(3), psd_block(4)
]


def test_min_eig_matches_per_block_reference():
    rng = np.random.default_rng(13)
    for blocks in (_MIXED_BLOCKS, [nonneg_block(5), nonneg_block(1)]):
        dim = sum(b.vec_dim for b in blocks)
        sdp = dense_sdp(blocks, np.zeros((0, dim)), [], np.zeros(dim))
        cone = _Cone(sdp)
        if blocks is _MIXED_BLOCKS:
            # one group per side; NONNEG(2) and PSD(1) share the side-1 group
            assert {k: nblk for k, nblk, _ in cone.groups} == {3: 2, 1: 3, 4: 1}
        # at x = s = e every lam is 1, so the step to the boundary along d is
        # -1 over d's least eigenvalue
        sc = cone.scaling(cone.identity(), cone.identity())
        for _ in range(20):
            v, d = rng.normal(size=(2, dim))
            reference = _least_eigenvalue(sdp, sdp.unpack(v))
            assert abs(cone.min_eig(v) - reference) <= 1e-12
            least = min(_least_eigenvalue(sdp, sdp.unpack(d)), reference)
            assert abs(cone.max_step(sc, v, d) * least + 1.0) <= 1e-12


@pytest.mark.parametrize("case", ["mixed", "sparse"])
def test_stacks_and_flat_match_per_block_smat_and_svec(case):
    # one gather per conversion must do exactly what smat and svec do block
    # by block; a NONNEG(k) block stacks as k 1 x 1 matrices
    blocks = _MIXED_BLOCKS if case == "mixed" else _SPARSE_BLOCKS
    rng = np.random.default_rng(23)
    dim = sum(b.vec_dim for b in blocks)
    sdp = dense_sdp(blocks, np.zeros((0, dim)), [], np.zeros(dim))
    cone = _Cone(sdp)

    def by_group(parts):
        stacks: dict = {}
        for blk, part in zip(blocks, parts):
            if blk.kind == "psd":
                stacks.setdefault(blk.size, []).append(part)
            else:
                stacks.setdefault(1, []).extend(part.reshape(-1, 1, 1))
        return [np.stack(stacks[k]) for k, _, _ in cone.groups]

    x, s = rng.normal(size=(2, dim))
    for got, ref in zip(cone.stacks(x), by_group(sdp.unpack(x))):
        assert got.shape == ref.shape and np.array_equal(got, ref)
    mats = [rng.normal(size=(b.size, b.size) if b.kind == "psd" else b.size) for b in blocks]
    assert np.array_equal(cone.flat(by_group(mats)), sdp.pack(mats))
    # the round trip is smat then svec per block, with a batch axis as without;
    # it returns v up to the rounding of (v / sqrt 2) * sqrt 2 off the diagonal
    batch = np.stack([x, s])
    trip = cone.flat(cone.stacks(batch))
    for v, got in zip(batch, trip):
        assert np.array_equal(got, sdp.pack(sdp.unpack(v)))
        assert np.array_equal(got, cone.flat(cone.stacks(v)))
        assert np.all(np.abs(got - v) <= np.spacing(np.abs(v)))


_DIAGONAL_BLOCKS = [nonneg_block(3), psd_block(1), nonneg_block(2), psd_block(1)]


@pytest.mark.parametrize("case", ["diagonal", "C7-K-r0", "mixed"])
def test_diagonal_cones_skip_the_gathers_bit_for_bit(monkeypatch, case):
    # every block NONNEG or PSD(1): the one side-1 group is the svec vector
    # itself with scales 1.0, so both conversions are reshapes, and a solve
    # through the gathers must land on the same bytes
    if case == "C7-K-r0":  # K^(0) of C7 after diagonalisation: an LP
        sdp = stability_bound(cycle_graph(7), 0, ConeKind.K).relaxation.sdp
    else:
        blocks = _DIAGONAL_BLOCKS if case == "diagonal" else _MIXED_BLOCKS
        sdp, _ = _planted_instance(np.random.default_rng(29), blocks, m=4)
    diagonal = all(b.kind == "nonneg" or b.size == 1 for b in sdp.blocks)
    assert diagonal == (case != "mixed")
    cone = _Cone(sdp)
    assert cone.diagonal == diagonal
    v = np.random.default_rng(31).normal(size=(2, sdp.dim))
    assert np.shares_memory(cone.stacks(v)[0], v) == diagonal
    want = solve(sdp)
    init = _Cone.__init__

    def gathered(self, sdp):
        init(self, sdp)
        self.diagonal = False

    monkeypatch.setattr(_Cone, "__init__", gathered)
    assert not _Cone(sdp).diagonal
    got = solve(sdp)
    assert got.status == want.status == SdpStatus.OPTIMAL
    assert got.iterations == want.iterations
    for mine, theirs in zip((*got.x_blocks, got.y, *got.s_blocks),
                            (*want.x_blocks, want.y, *want.s_blocks)):
        assert mine.tobytes() == theirs.tobytes()


def test_a_scaling_carries_its_constants_bit_for_bit():
    # the constants every cone operation reads are those of the scaling
    sdp, _ = _planted_instance(np.random.default_rng(37), _MIXED_BLOCKS, m=4)
    cone = _Cone(sdp)
    x, s = (cone.identity() + 0.25 * np.abs(v) for v in np.random.default_rng(41).normal(
        size=(2, sdp.dim)))
    for (k, _, _), eye, g in zip(cone.groups, cone.eyes, cone.scaling(x, s)):
        assert isinstance(g, solver._Scaling) and np.array_equal(eye, np.eye(k))
        lam = g.lam
        assert np.array_equal(g.half_sum, 0.5 * (lam[:, :, None] + lam[:, None, :]))
        assert np.array_equal(g.lam_sq, lam**2) and np.array_equal(g.root, 1.0 / np.sqrt(lam))
        assert (g.w_sq is None) == (k > 1)
        if k == 1:
            assert np.array_equal(g.w_sq, g.w**2)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, "psd"])
def test_scaling_raises_when_the_iterate_leaves_the_cone(bad):
    dim = sum(b.vec_dim for b in _MIXED_BLOCKS)
    sdp = dense_sdp(_MIXED_BLOCKS, np.zeros((0, dim)), [], np.zeros(dim))
    cone = _Cone(sdp)
    e = cone.identity()
    x = e.copy()
    if bad == "psd":  # an indefinite PSD(3) block
        x[sdp.slices[0]] = svec(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    else:  # one entry of the NONNEG(2) block
        x[sdp.slices[1].start + 1] = bad
    cone.scaling(e, e)
    for pair in ((x, e), (e, x)):
        with pytest.raises(np.linalg.LinAlgError):
            cone.scaling(*pair)


def _shuffled(sdp, perm):
    """The same SDP with its blocks in the order ``perm``."""
    cols = np.concatenate([np.arange(sdp.dim)[sdp.slices[i]] for i in perm])
    return dense_sdp([sdp.blocks[i] for i in perm], sdp.A[:, cols], sdp.b, sdp.c[cols])


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
    original = solver._lapack().dpotrs
    first = original(factor, rhs, lower=1)[0]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver._lapack(), "dpotrs", counting)
    u = solver._refined_solve(factor, k_mat, rhs)
    assert len(calls) <= 3
    assert np.linalg.norm(rhs - k_mat @ u) <= np.linalg.norm(rhs - k_mat @ first)


# PSD sides 1-6, a NONNEG block, then three blocks with a set touching
# pattern: NONNEG(2) whose columns touch every row (like the split free
# variables of a relaxation), PSD(3) that no row touches and PSD(2) that
# exactly one row touches.
_SPARSE_BLOCKS = [psd_block(k) for k in range(1, 7)] + [
    nonneg_block(4), nonneg_block(2), psd_block(3), psd_block(2)
]


def _sparse_mixed_sdp(seed, m=15):
    rng = np.random.default_rng(seed)
    dim = sum(blk.vec_dim for blk in _SPARSE_BLOCKS)
    sl = dense_sdp(_SPARSE_BLOCKS, np.zeros((0, dim)), [], np.zeros(dim)).slices
    a = np.zeros((m, dim))
    for i in range(1, m):
        for part in sl[:7]:
            if rng.random() < 0.4:
                cols = np.arange(dim)[part]
                picked = rng.choice(cols, size=rng.integers(1, cols.size + 1), replace=False)
                a[i, picked] = rng.normal(size=picked.size)
    a[0, sl[6]] = rng.normal(size=4)  # row 0 touches NONNEG entries only
    a[:, sl[7]] = rng.choice([-1.0, 1.0], size=(m, 2))
    a[rng.integers(1, m), sl[9]] = rng.normal(size=3)
    return dense_sdp(_SPARSE_BLOCKS, a, rng.normal(size=m), rng.normal(size=dim))


def _interior_point(cone, rng):
    return cone.flat([g @ np.swapaxes(g, -1, -2) + np.eye(g.shape[-1])
                      for g in cone.stacks(rng.normal(size=cone.dim))])


@pytest.mark.parametrize("case", [0, 1, 2, 3, "C5-Q-r1", "chi-K2"])
def test_block_sparse_rows_match_dense_oracle(case):
    # The Schur matrix, the scaled-row products and the products with A
    # must agree with the dense scaled-row path to rounding.
    if case == "C5-Q-r1":
        sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    elif case == "chi-K2":
        prog = to_bounded(chromatic_program(complete_graph(2)), 5)
        sdp = build_relaxation_sdp(prog, 0, ConeKind.Q).sdp
    else:
        sdp = _sparse_mixed_sdp(case)
        touched = [np.any(sdp.A[:, sl] != 0, axis=1) for sl in sdp.slices]
        assert touched[7].all() and not touched[8].any() and touched[9].sum() == 1
        assert not np.any(sdp.A[0, :sdp.slices[6].start])
    rng = np.random.default_rng(31)
    cone = _Cone(sdp)
    rows = _Rows(cone, sdp.coo)
    sc = cone.scaling(_interior_point(cone, rng), _interior_point(cone, rng))
    abar, k_ref = dense_scaled_rows(cone, sc, sdp.A)
    bar, k_mat = rows.scale(sc)
    v = rng.normal(size=sdp.dim)
    u = rng.normal(size=sdp.num_constraints)
    for got, ref in [
        (k_mat, k_ref),
        (bar.dot(v), abar @ v),
        (bar.tdot(u), abar.T @ u),
        (sdp.coo.dot(v), sdp.A @ v),
        (sdp.coo.tdot(u), sdp.A.T @ u),
    ]:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", ["C5-Q-r1", "infeasible"])
def test_stage_timings_fit_in_the_solve(case):
    if case == "infeasible":
        sdp = block_sdp(
            [psd_block(1)], [np.array([[0.0]])], [([np.array([[1.0]])], -1.0)]
        )
    else:
        sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    start = perf_counter()
    sol = solve(sdp)
    wall = perf_counter() - start
    timings = sol.diagnostics["timings"]
    assert set(timings) == {"setup_s", "schur_s", "cholesky_s", "cone_s"}
    assert all(t >= 0.0 for t in timings.values())
    assert sum(timings.values()) <= wall


def test_max_iter_must_be_nonnegative():
    sdp = _stability_relaxation_sdp(5, 0, ConeKind.K)
    with pytest.raises(ValueError):
        solve(sdp, max_iter=-1)
    sol = solve(sdp, max_iter=0)
    assert sol.status == SdpStatus.INCONCLUSIVE
    assert sol.message == "iteration cap reached" and sol.iterations == 0


def test_factorization_failure_reports_best_point(monkeypatch):
    # a breakdown mid-run must end INCONCLUSIVE at the iteration it hit,
    # with the best in-cone point so far and the stage timings
    sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    calls = []
    real = solver._chol_with_regularization

    def third_fails(k_mat):
        calls.append(None)
        return None if len(calls) == 3 else real(k_mat)

    monkeypatch.setattr(solver, "_chol_with_regularization", third_fails)
    sol = solve(sdp)
    assert sol.status == SdpStatus.INCONCLUSIVE
    assert sol.message == "Schur complement factorization failed"
    assert sol.iterations == 2
    assert _least_eigenvalue(sdp, sol.x_blocks) > 0.0
    assert set(sol.diagnostics["timings"]) == {"setup_s", "schur_s", "cholesky_s", "cone_s"}


def test_scaling_breakdown_reports_best_point(monkeypatch):
    # an iterate that leaves the cone mid-run ends INCONCLUSIVE at that
    # iteration, with the best in-cone point so far
    sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    calls = []
    real = _Cone.scaling

    def third_breaks(self, x, s):
        calls.append(None)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("entry not positive")
        return real(self, x, s)

    monkeypatch.setattr(_Cone, "scaling", third_breaks)
    sol = solve(sdp)
    assert sol.status == SdpStatus.INCONCLUSIVE
    assert sol.message == "scaling breakdown (iterate left cone)"
    assert sol.iterations == 2
    assert _least_eigenvalue(sdp, sol.x_blocks) > 0.0
    assert set(sol.diagnostics["timings"]) == {"setup_s", "schur_s", "cholesky_s", "cone_s"}


def _weakly_infeasible_sdp():
    # min X00 s.t. X01 = 1, X11 = 0 on PSD(2): no point is feasible, but
    # X00 -> infinity comes ever closer
    builder = SdpBuilder([psd_block(2)])
    builder.add_rows([0, 1], 0, [0, 1], [1, 1], [0.5, 1.0], [1.0, 0.0])
    builder.add_rows(-1, 0, 0, 0, 1.0, [])
    return builder.build()


@pytest.mark.parametrize("case,message,iterations", [
    ("tiny steps", "step length collapsed", 2),
    ("weakly infeasible", "complementarity at numerical floor", 20),
    ("nan solve", "singular embedding system", 0),
])
def test_inconclusive_exits_report_an_in_cone_point(monkeypatch, case, message, iterations):
    sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    if case == "tiny steps":
        monkeypatch.setattr(solver, "_STEP_FRACTION", 1e-12)
    elif case == "weakly infeasible":
        sdp = _weakly_infeasible_sdp()
    else:
        monkeypatch.setattr(solver, "_refined_solve",
                            lambda factor, k_mat, rhs: np.full_like(rhs, np.nan))
    sol = solve(sdp)
    assert sol.status == SdpStatus.INCONCLUSIVE
    assert (sol.message, sol.iterations) == (message, iterations)
    assert _least_eigenvalue(sdp, sol.x_blocks) >= 0.0
    assert _least_eigenvalue(sdp, sol.s_blocks) >= 0.0


def test_no_iteration_gives_no_verdict_and_no_bound(monkeypatch):
    # a solve that ends at its iteration cap decides nothing upstream
    monkeypatch.setattr(cones, "solve", functools.partial(solve, max_iter=0))
    monkeypatch.setattr(relax, "solve", functools.partial(solve, max_iter=0))
    res = decide_membership(build_K_membership(SymMatrix.identity(3), 0))
    assert res.verdict == Verdict.INCONCLUSIVE and res.message == "iteration cap reached"
    bound, res = chromatic_bound(cycle_graph(4), 0)
    assert math.isnan(bound) and res.value is None
    assert res.status == SdpStatus.INCONCLUSIVE and res.message == "iteration cap reached"


def test_solve_leaves_no_cone_in_a_reference_cycle():
    # the clocked cone operations must not hang on the _Cone they wrap, or
    # every solve leaves its cone to the cyclic garbage collector; nor may
    # any other per-solve state
    per_solve = (_Cone, solver._Solve, solver._Clocked, solver._Iterate, solver._Newton,
                 solver._Embedding, solver._Point, solver._Scaling)
    sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sol = solve(sdp)
        assert sol.status == SdpStatus.OPTIMAL and sol.diagnostics["timings"]["cone_s"] > 0
        del sol
        gc.collect()
        assert not [obj for obj in gc.garbage if isinstance(obj, per_solve)]
        # the set-up kept with a shared A must not point back at A, or A and
        # its set-up outlive the SDPs until the collector runs
        shared = sdp.with_rhs(sdp.b)
        del sdp
        sol = solve(shared)
        assert sol.status == SdpStatus.OPTIMAL and shared.coo.setup.first is not None
        del sol
        coo = weakref.ref(shared.coo)
        gc.disable()
        try:
            del shared
            assert coo() is None
        finally:
            gc.enable()
        gc.collect()
        assert not [obj for obj in gc.garbage if isinstance(obj, per_solve)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_a_shared_relaxation_reuses_its_first_step_with_c(monkeypatch):
    # the kept first step holds c's terms, which with_rhs shares with A
    sdp = _stability_relaxation_sdp(5, 1, ConeKind.Q)
    assert sdp.c.any()
    fresh = solve(sdp)
    assert sdp.coo.setup is None
    calls = []
    real = _Rows.scale

    def counted(self, sc):
        calls.append(sc)
        return real(self, sc)

    monkeypatch.setattr(_Rows, "scale", counted)
    cold = solve(sdp.with_rhs(sdp.b))
    assert sdp.coo.setup.first is not None
    cold_calls = len(calls)
    warm = solve(sdp.with_rhs(sdp.b))
    assert (cold_calls, len(calls) - cold_calls) == (fresh.iterations, fresh.iterations - 1)

    def as_bytes(sol):
        return [v.tobytes() for v in (*sol.x_blocks, sol.y, *sol.s_blocks)]

    for sol in (cold, warm):
        assert sol.status == fresh.status == SdpStatus.OPTIMAL
        assert sol.iterations == fresh.iterations
        assert as_bytes(sol) == as_bytes(fresh)


def test_a_solve_that_takes_no_step_keeps_no_first_step():
    cones._membership_family.cache_clear()
    sdp = build_K_membership(SymMatrix.identity(4), 1).sdp
    sol = solve(sdp, max_iter=0)
    assert sol.status == SdpStatus.INCONCLUSIVE and sol.iterations == 0
    assert sdp.coo.setup is not None and sdp.coo.setup.first is None


@pytest.mark.parametrize("call,message", [
    (lambda: BlockSpec("dense", 2), "unknown block kind 'dense'"),
    (lambda: BlockSpec("psd", 0), "block size must be >= 1"),
    (lambda: dense_sdp([psd_block(2)], [[1.0, 0.0, 0.0]], [1.0], [1.0, 0.0]),
     "objective dimension mismatch"),
    (lambda: dense_sdp([nonneg_block(2)], [[1.0, 1.0]], [1.0], [1.0, 0.0]).pack([[1.0] * 3]),
     "block values do not conform to the block pattern"),
    (lambda: SdpBuilder([psd_block(2)]).add_rows(0, 0, 0, 0, 1.0, [1.0], ["a", "b"]),
     "one label per row is required"),
    (lambda: parse_sparse("rhs 1 1\n"), "missing blocks header"),
    (lambda: parse_sparse("blocks psd:2\nblocks psd:3\n"),
     "line 2 'blocks psd:3': second blocks header"),
    (lambda: parse_sparse("blocks psd:1\nrhs 1 1\n1 0 0 0 1.0\nrhs 1 2\n"),
     "line 4 'rhs 1 2': constraint 1 already has a rhs"),
    (lambda: solve(dense_sdp([nonneg_block(1)], [[1.0]], [1.0], [1.0]), eps=0.0),
     "eps must be positive"),
    (lambda: solve(dense_sdp([nonneg_block(1)], [[1.0]], [1.0], [1.0]), eps=-1e-8),
     "eps must be positive"),
    (lambda: solve(dense_sdp([nonneg_block(1)], [[1.0]], [1.0], [1.0]), eps=math.nan),
     "eps must be finite"),
    (lambda: solve(dense_sdp([nonneg_block(1)], [[1.0]], [1.0], [1.0]), eps=math.inf),
     "eps must be finite"),
    (lambda: solve(dense_sdp([nonneg_block(1)], [[1.0]], [1.0], [1.0]), max_iter=2.5),
     "max_iter must be an integer"),
    (lambda: solve(dense_sdp([nonneg_block(1)], [[1.0]], [1.0], [1.0]), max_iter=True),
     "max_iter must be an integer"),
    (lambda: parse_sparse("blocks\n"), "line 1 'blocks': the header lists no blocks"),
    (lambda: BlockSdp([], ([], [], []), [], []), "a block SDP needs at least one block"),
    (lambda: parse_sparse("blocks foo\n"), "line 1 'blocks foo': block 'foo' is not kind:size"),
    (lambda: parse_sparse("blocks psd:2:3\n"),
     "line 1 'blocks psd:2:3': block 'psd:2:3' is not kind:size"),
    (lambda: parse_sparse("blocks psd:1\nrhs 1 1\n1 0 0 0 1.0\n1 0 0 0 2.0\n"),
     "line 4 '1 0 0 0 2.0': constraint 1 already has an entry at block 0 (0, 0)"),
    (lambda: parse_sparse("blocks psd:1\nrhs 1 nan\n1 0 0 0 1\n"),
     "line 2 'rhs 1 nan': value is not finite"),
    (lambda: parse_sparse("blocks psd:1\nrhs 1 1\n1 0 0 0 nan\n"),
     "line 3 '1 0 0 0 nan': value is not finite"),
    (lambda: parse_sparse("blocks psd:1\nrhs 1 1\n1 0 0 0 1e400\n"),
     "line 3 '1 0 0 0 1e400': value is not finite"),
], ids=["block-kind", "block-size", "objective", "pack", "labels", "header", "second-header",
        "second-rhs", "eps", "eps-negative", "eps-nan", "eps-inf", "max-iter-float",
        "max-iter-bool", "empty-header", "no-blocks", "block-no-colon", "block-two-colons",
        "second-entry", "rhs-nan", "entry-nan", "entry-overflow"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
