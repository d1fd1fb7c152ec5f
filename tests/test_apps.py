import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coposos

from conftest import planted_spn
from coposos.apps import (
    Graph,
    brute_alpha,
    brute_chi,
    chromatic_bound,
    chromatic_program,
    complete_graph,
    cycle_graph,
    empty_graph,
    parse_dimacs,
    parse_graph,
    parse_graph_json,
    path_graph,
    product_graph,
    sqp_bound,
    sqp_reciprocal_bound,
    stability_bound,
    stability_qp_matrix,
    validate_stability_matrix,
)
from coposos.cones import ConeKind
from coposos.polycore import SymMatrix
from coposos.relax import SpnWitness
from coposos.sdpcore import SdpStatus

SQRT5 = 5 ** 0.5


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.make(3, [(0, 0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Graph.make(2, [(0, 1)], weights=[1, 0])

    def test_dimacs_roundtrip(self):
        text = "c five-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
        g = parse_dimacs(text)
        assert g.n == 5 and g.edges == cycle_graph(5).edges

    def test_json_graph_with_weights(self):
        g = parse_graph_json('{"n": 2, "edges": [[0, 1]], "weights": ["1", "2"]}')
        assert g.weights == (Fraction(1), Fraction(2))
        assert parse_graph('{"n": 2, "edges": []}').n == 2

    @pytest.mark.parametrize("field", ["n", "edges"])
    def test_json_graph_names_a_missing_field(self, field):
        doc = {"n": 2, "edges": [[0, 1]]}
        del doc[field]
        with pytest.raises(ValueError, match=f"^graph is missing the field '{field}'$"):
            parse_graph_json(json.dumps(doc))
        with pytest.raises(ValueError, match="^graph is missing the field 'n'$"):
            parse_graph_json("5")  # not an object: no field at all

    @pytest.mark.parametrize("edges,message", [
        ([[0]], "edges[0]: [0] is not a pair of integer vertices"),
        ([[0, 1], [0, 1, 2]], "edges[1]: [0, 1, 2] is not a pair of integer vertices"),
        ([[0, 1.5]], "edges[0]: [0, 1.5] is not a pair of integer vertices"),
        ([[0, True]], "edges[0]: [0, True] is not a pair of integer vertices"),
        ([3], "edges[0]: 3 is not a pair of integer vertices"),
        ([[1, 2], [0, 5]], "edges[1]: edge (0,5) out of range 0..2"),
        ([[-1, 0]], "edges[0]: edge (-1,0) out of range 0..2"),
        ([[0, 1], [2, 2]], "edges[1]: self-loop at vertex 2"),
        ({"0": 1}, "edges is not a list of vertex pairs"),
    ])
    def test_json_graph_names_the_faulty_edge(self, edges, message):
        with pytest.raises(ValueError) as err:
            parse_graph_json(json.dumps({"n": 3, "edges": edges}))
        assert str(err.value) == message

    @pytest.mark.parametrize("doc,message", [
        ({"n": 2.7, "edges": [[0, 1]]}, "n: 2.7 is not an integer vertex count"),
        ({"n": 3.0, "edges": []}, "n: 3.0 is not an integer vertex count"),
        ({"n": "3", "edges": []}, "n: '3' is not an integer vertex count"),
        ({"n": True, "edges": []}, "n: True is not an integer vertex count"),
        ({"n": None, "edges": []}, "n: None is not an integer vertex count"),
        ({"n": 2, "edges": [[0, 1]], "weights": "12"}, "weights is not a list of vertex weights"),
        ({"n": 2, "edges": [], "weights": {"0": 1}}, "weights is not a list of vertex weights"),
        ({"n": 2, "edges": [], "weights": 3}, "weights is not a list of vertex weights"),
        ({"n": 0, "edges": []}, "graph needs at least one vertex"),
    ])
    def test_json_graph_names_a_faulty_field(self, doc, message):
        with pytest.raises(ValueError) as err:
            parse_graph_json(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", [
        # vertices and lines as the file numbers them, from 1
        ("p edge 3 1\ne 1 4\n", "line 2 'e 1 4': edge (1,4) out of range 1..3"),
        ("p edge 3 1\ne 0 1\n", "line 2 'e 0 1': edge (0,1) out of range 1..3"),
        ("p edge 3 1\nc loop\ne 1 1\n", "line 3 'e 1 1': self-loop at vertex 1"),
        ("p edge 3 1\np edge 4 1\ne 1 4\n", "line 2 'p edge 4 1': a second problem line"),
        ("e 1 2\np edge 3 1\n", "line 1 'e 1 2': an edge line before the problem line"),
    ])
    def test_dimacs_names_the_faulty_edge_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_dimacs(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", [
        ("p edge 0 0", "line 1 'p edge 0 0': graph needs at least one vertex"),
        ("c none\np edge -2 0\n", "line 2 'p edge -2 0': graph needs at least one vertex"),
    ])
    def test_dimacs_names_a_problem_line_without_vertices(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_dimacs(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("weights,message", [
        ("[true, 1]", "weights[0]: True is not a rational weight"),
        ("[1, null]", "weights[1]: None is not a rational weight"),
        ("[[1], 1]", "weights[0]: [1] is not a rational weight"),
        ("[1e400, 1]", "weights[0]: inf is not a rational weight"),
        ("[NaN, 1]", "weights[0]: nan is not a rational weight"),
        ('[1, "1/0"]', "weights[1]: '1/0' is not a rational weight"),
        ('["one", 1]', "weights[0]: 'one' is not a rational weight"),
        ("[0, 1]", "weights[0]: 0 is not positive"),
        ("[1, -0.5]", "weights[1]: -1/2 is not positive"),
        ("[1e-400, 1]", "weights[0]: 0 is not positive"),  # reads as 0.0
        ("[1, 2, 3]", "3 weights for 2 vertices"),
    ])
    def test_json_graph_names_the_faulty_weight(self, weights, message):
        with pytest.raises(ValueError) as err:
            parse_graph_json('{"n": 2, "edges": [[0, 1]], "weights": %s}' % weights)
        assert str(err.value) == message

    def test_json_weights_are_numbers_or_rational_strings(self):
        g = parse_graph_json('{"n": 3, "edges": [[0, 1]], "weights": [2, 0.5, "1/3"]}')
        assert g.weights == (2, Fraction(1, 2), Fraction(1, 3))


class TestStabilityMatrix:
    def test_unweighted_c5_is_adjacency_plus_identity(self):
        g = cycle_graph(5)
        b = stability_qp_matrix(g)
        expected = g.adjacency() + SymMatrix.identity(5)
        assert b == expected

    def test_weighted_k2(self):
        g = Graph.make(2, [(0, 1)], weights=[1, 2])
        b = stability_qp_matrix(g)
        assert b.rows == SymMatrix.from_rows(
            [[1, Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 2)]]
        ).rows

    def test_edgeless_is_diagonal(self):
        g = Graph.make(3, [], weights=[1, 2, 4])
        assert stability_qp_matrix(g) == SymMatrix.diag(
            [1, Fraction(1, 2), Fraction(1, 4)]
        )

    def test_user_supplied_matrix_validated(self):
        g = cycle_graph(4)
        good = stability_qp_matrix(g)
        validate_stability_matrix(g, good)
        bad = SymMatrix.identity(4)
        with pytest.raises(ValueError):
            validate_stability_matrix(g, bad)  # edge entries must be >= 1


class TestBruteOracles:
    def test_c5(self):
        g = cycle_graph(5)
        assert brute_alpha(g) == 2
        assert brute_chi(g) == 3

    def test_k4(self):
        g = complete_graph(4)
        assert brute_alpha(g) == 1
        assert brute_chi(g) == 4

    def test_edgeless(self):
        g = empty_graph(6)
        assert brute_alpha(g) == 6
        assert brute_chi(g) == 1

    def test_path(self):
        g = path_graph(3)
        assert brute_alpha(g) == 2
        assert brute_chi(g) == 2

    def test_weighted_alpha(self):
        g = Graph.make(3, [(0, 1), (1, 2)], weights=[1, 5, 1])
        assert brute_alpha(g, weighted=True) == 5
        assert brute_alpha(g) == 2

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_chi(empty_graph(13))


class TestSqpBounds:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_closed_form(self, n):
        res = sqp_bound(SymMatrix.identity(n), 0, ConeKind.K)
        assert res.status == SdpStatus.OPTIMAL
        assert abs(-res.value - 1.0 / n) <= 1e-5

    def test_all_ones_closed_form(self):
        res = sqp_bound(SymMatrix.ones(3), 0, ConeKind.K)
        assert abs(-res.value - 1.0) <= 1e-5

    def test_c5_adjacency_plus_identity(self):
        g = cycle_graph(5)
        m = g.adjacency() + SymMatrix.identity(5)
        res = sqp_bound(m, 0, ConeKind.K)
        # level-0 value is 1/sqrt(5), below the true minimum 1/2
        assert abs(-res.value - 1 / SQRT5) <= 1e-5

    @pytest.mark.parametrize("n", [2, 4])
    def test_reciprocal_of_identity(self, n):
        m = SymMatrix.identity(n)
        res = sqp_reciprocal_bound(
            m, 0, ConeKind.K, witness_split=(m, SymMatrix.zero(n), Fraction(1))
        )
        assert abs(res.value - n) <= 1e-4

    def test_reciprocal_identity_product(self, rnd):
        for _ in range(5):
            m, p, nn, lb = planted_spn(rnd, 3)
            pres = sqp_bound(m, 0, ConeKind.K)
            qres = sqp_reciprocal_bound(m, 0, ConeKind.K, witness_split=(p, nn, lb))
            assert pres.status == qres.status == SdpStatus.OPTIMAL
            assert abs(-pres.value * qres.value - 1.0) <= 1e-4

    @pytest.mark.parametrize("fault", ["sum", "negative-N", "lb-zero", "lb-uncertified"])
    def test_reciprocal_requires_valid_split(self, fault):
        # M = 2I + J splits as P = 2I, N = J, and 2I - lb*I is PSD for lb <= 2
        m = SymMatrix.identity(2).scale(2) + SymMatrix.ones(2)
        split = {
            "sum": (m, SymMatrix.ones(2), Fraction(1)),
            "negative-N": (m + SymMatrix.identity(2), SymMatrix.identity(2).scale(-1),
                           Fraction(1)),
            "lb-zero": (SymMatrix.identity(2).scale(2), SymMatrix.ones(2), Fraction(0)),
            "lb-uncertified": (SymMatrix.identity(2).scale(2), SymMatrix.ones(2), Fraction(3)),
        }[fault]
        with pytest.raises(ValueError, match="witness is not a split"):
            sqp_reciprocal_bound(m, 0, ConeKind.K, witness_split=split)


class TestStabilityBounds:
    def test_triangle(self):
        res = stability_bound(complete_graph(3), 0, ConeKind.K)
        assert abs(res.value - 1.0) <= 1e-5

    def test_c5_level0_is_sqrt5(self):
        res = stability_bound(cycle_graph(5), 0, ConeKind.K)
        assert abs(res.value - SQRT5) <= 1e-3

    @pytest.mark.parametrize("n", [3, 5])
    def test_edgeless(self, n):
        res = stability_bound(empty_graph(n), 0, ConeKind.K)
        assert abs(res.value - n) <= 1e-4

    def test_upper_bounds_alpha_and_monotone(self):
        g = cycle_graph(5)
        v0 = stability_bound(g, 0, ConeKind.K).value
        v1 = stability_bound(g, 1, ConeKind.K).value
        assert v0 >= brute_alpha(g) - 1e-6
        assert v1 >= brute_alpha(g) - 1e-6
        assert v1 <= v0 + 1e-6

    def test_weighted_bound_dominates_weighted_alpha(self, rnd):
        g = Graph.make(4, [(0, 1), (1, 2), (2, 3)], weights=[1, 2, 1, 3])
        res = stability_bound(g, 0, ConeKind.K)
        alpha_w = brute_alpha(g, weighted=True)
        assert res.value >= float(alpha_w) - 1e-6

    def test_nu_dominates_theta(self):
        g = cycle_graph(5)
        theta = stability_bound(g, 1, ConeKind.K).value
        nu = stability_bound(g, 1, ConeKind.Q).value
        assert nu >= theta - 1e-6

    # Regression corpus: C5-C8 with K at r=0-2 and Q at r=1-2, and K at r=1
    # for C10 and C12.  Several of these came back OPTIMAL below alpha with a
    # failed certificate, or stalled, while the primal polish could leave
    # the cone and a clamped gap hid it.
    @pytest.mark.parametrize(
        "n,r,kind",
        [(n, r, ConeKind.K) for n in (5, 6, 7, 8) for r in (0, 1, 2)]
        + [(n, r, ConeKind.Q) for n in (5, 6, 7, 8) for r in (1, 2)]
        + [(10, 1, ConeKind.K), (12, 1, ConeKind.K)],
    )
    def test_certified_bound_not_below_alpha(self, n, r, kind):
        g = cycle_graph(n)
        res = stability_bound(g, r, kind)
        assert res.status == SdpStatus.OPTIMAL
        assert res.value >= brute_alpha(g) - 1e-6
        assert res.certificate_reports
        assert all(rep.ok for rep in res.certificate_reports)

    # Three calls whose answers lie on degenerate faces, where the solver's
    # path depends on the BLAS thread count and once stalled short of the
    # answer (C39 at 18.99999975 < alpha).  Each must end OPTIMAL with its
    # certificates ok at alpha = 19, alpha = 3 and chi = 3, under one and
    # two threads.
    _DEGENERATE_CALLS = ("import json\n"
            "from coposos.apps import chromatic_bound, cycle_graph, paley_graph, stability_bound\n"
            "from coposos.cones import ConeKind\n"
            "out = []\n"
            "for res, sign in ((stability_bound(cycle_graph(39), 1), 1),\n"
            "                  (stability_bound(paley_graph(17), 2, ConeKind.K), 1),\n"
            "                  (chromatic_bound(cycle_graph(7), 1, ConeKind.Q)[1], -1)):\n"
            "    value = None if res.value is None else sign * res.value\n"
            "    out.append([res.status.value, value, [rep.ok for rep in res.certificate_reports]])\n"
            "print(json.dumps(out))\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_c39_level1_returns_no_value_below_alpha(self, threads):
        src = str(Path(coposos.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", self._DEGENERATE_CALLS], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for (status, value, oks), answer in zip(json.loads(proc.stdout), (19, 3, 3), strict=True):
            assert status == SdpStatus.OPTIMAL.value
            assert oks and all(oks)
            assert abs(value - answer) <= 1e-6


class TestProductGraph:
    def test_t1_identity(self):
        g = cycle_graph(5)
        assert product_graph(g, 1).edges == g.edges

    def test_k2_square_is_c4(self):
        g4 = product_graph(complete_graph(2), 2)
        assert g4.n == 4
        assert brute_alpha(g4) == 2
        assert brute_chi(g4) == 2
        assert len(g4.edges) == 4

    def test_alpha_product_characterization(self):
        for g in [complete_graph(2), complete_graph(3), path_graph(3), cycle_graph(5)]:
            chi = brute_chi(g)
            for t in range(1, g.n + 1):
                alpha_t = brute_alpha(product_graph(g, t))
                if t >= chi:
                    assert alpha_t == g.n
                else:
                    assert alpha_t <= g.n - 1


class TestChromatic:
    def test_program_shape(self):
        g = cycle_graph(5)
        prog = chromatic_program(g)
        assert prog.m == 2
        assert len(prog.constraints) == 5
        assert [c.n for c in prog.constraints] == [5, 10, 15, 20, 25]

    @pytest.mark.parametrize("g", [complete_graph(2), path_graph(3), cycle_graph(4),
                                   cycle_graph(5)], ids=["K2", "P3", "C4", "C5"])
    def test_program_matrices_match_their_closed_form(self, g):
        # a_y = -J/n^2, a_z = n(A + I) - J, c_t = -tJ/n^2, by matrix algebra
        n = g.n
        for t, con in enumerate(chromatic_program(g).constraints, start=1):
            size = n * t
            ones = SymMatrix.ones(size)
            adjacency = product_graph(g, t).adjacency()
            assert con.a_mats == (
                ones.scale(Fraction(-1, n * n)),
                adjacency.scale(n) + SymMatrix.identity(size).scale(n) - ones,
            )
            assert con.c_mat == ones.scale(Fraction(-t, n * n))

    def test_interior_witness_exact(self):
        # the slack at (y, z) = (-n^2, 1), inside the box of
        # chromatic_box_bound, splits exactly as P = I plus
        # N = (t/n^2) J + n A + (n-1) I
        g = complete_graph(3)
        n = g.n
        prog = chromatic_program(g)
        for t in range(1, n + 1):
            size = n * t
            eye = SymMatrix.identity(size)
            n_mat = (SymMatrix.ones(size).scale(Fraction(t, n * n))
                     + product_graph(g, t).adjacency().scale(n) + eye.scale(n - 1))
            w = SpnWitness((Fraction(-n * n), Fraction(1)), eye, n_mat, Fraction(1))
            assert w.check_exact(prog.constraints[t - 1])

    @pytest.mark.parametrize(
        "maker,expected_chi",
        [(lambda: complete_graph(2), 2), (lambda: path_graph(3), 2),
         (lambda: Graph.make(1, []), 1)],
    )
    def test_bound_south_of_chi(self, maker, expected_chi):
        g = maker()
        assert brute_chi(g) == expected_chi
        bound, res = chromatic_bound(g, 0, ConeKind.Q)
        assert res.status == SdpStatus.OPTIMAL
        assert bound <= expected_chi + 1e-6

    def test_p3_level1_k_bound(self):
        g = path_graph(3)
        bound, res = chromatic_bound(g, 1, ConeKind.K)
        assert res.status == SdpStatus.OPTIMAL
        assert bound <= brute_chi(g) + 1e-6
        assert res.certificate_reports
        assert all(rep.ok for rep in res.certificate_reports)

    def test_c4_certified_bound(self):
        # once OPTIMAL at 2.0004-2.0257 with a failed certificate report
        g = cycle_graph(4)
        bound, res = chromatic_bound(g, 0, ConeKind.Q)
        assert res.status == SdpStatus.OPTIMAL
        assert bound <= brute_chi(g) + 1e-6
        assert all(rep.ok for rep in res.certificate_reports)


@pytest.mark.parametrize("call,message", [
    (lambda: Graph.make(0, []), "graph needs at least one vertex"),
    (lambda: Graph.make(3, [(0, 1), (0, 3)]), "edges[1]: edge (0,3) out of range 0..2"),
    (lambda: Graph.make(3, [(0, 1)], weights=[1, 2]), "2 weights for 3 vertices"),
    (lambda: parse_dimacs("p edge 3\n"), "line 1 'p edge 3': bad problem line"),
    (lambda: parse_dimacs("p graph 3 1\n"), "line 1 'p graph 3 1': bad problem line"),
    (lambda: parse_dimacs("c no problem line\n"), "missing 'p edge' line"),
    # text that is not a JSON object is read as DIMACS
    (lambda: parse_graph("c no problem line\n"), "missing 'p edge' line"),
    (lambda: validate_stability_matrix(cycle_graph(5), SymMatrix.identity(4)),
     "matrix size does not match the graph"),
    (lambda: validate_stability_matrix(cycle_graph(5), SymMatrix.identity(5).scale(2)),
     "diagonal entry 0 must be 1/weight"),
    (lambda: validate_stability_matrix(path_graph(3), stability_qp_matrix(complete_graph(3))),
     "non-edge entry (0,2) must be zero"),
    (lambda: sqp_reciprocal_bound(SymMatrix.diag([1, -1]), 0, ConeKind.K),
     "no interior split found for M: slack has no interior split"),
    (lambda: product_graph(cycle_graph(3), 0), "t must be >= 1"),
    (lambda: brute_alpha(empty_graph(31)), "brute_alpha capped at 30 vertices"),
], ids=["no-vertex", "edge-range", "weight-count", "p-fields", "p-kind", "no-p",
        "parse-graph-dimacs", "b-size", "b-diagonal", "b-non-edge", "no-split",
        "product-t", "alpha-cap"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
