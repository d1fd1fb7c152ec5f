"""Applications: quadratic programs over the simplex, graph stability and
chromatic bounds.

The bounds all route through the conic relaxations of :mod:`coposos.relax`:

- ``sqp_bound``             level-r bound on  min { x^T M x : x in simplex }
- ``sqp_reciprocal_bound``  level-r bound on its reciprocal (needs a P + N
                            witness for M and a positive minimum)
- ``stability_bound``       weighted stability-number bound
                            min { t : t*B - J in cone } for B in the
                            Motzkin-Straus-type family of the graph
- ``chromatic_bound``       two-variable program over products with complete
                            graphs, with a box constraint
                            (:func:`coposos.relax.to_bounded`), relaxed
                            constraint-wise

Relaxations are reduced by a group (:class:`coposos.cones.GramLayout`):
``stability_bound`` passes ``g.symmetry`` with the canonical B and the
trivial group with a user-supplied B, ``chromatic_bound`` the symmetry of
G times S_t per product constraint, the SQP bounds the trivial group.

``brute_alpha`` / ``brute_chi`` are the exact enumeration oracles used by
the test suites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import ConeKind
from .polycore import SymMatrix
from .relax import (
    ConeConstraint,
    ConicProgram,
    RelaxationResult,
    SpnWitness,
    check_intspn,
    solve_relaxation,
    to_bounded,
)

BRUTE_ALPHA_CAP = 30
BRUTE_CHI_CAP = 12


@dataclass(frozen=True)
class Graph:
    """A simple graph with positive vertex weights; ``symmetry`` holds
    automorphisms i -> g[i], checked exactly by :meth:`make`."""

    n: int
    edges: frozenset[tuple[int, int]]
    weights: tuple[Fraction, ...]
    symmetry: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def make(cls, n: int, edges, weights=None, symmetry=()) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for k, (i, j) in enumerate(edges):
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"edges[{k}]: self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edges[{k}]: edge ({i},{j}) out of range 0..{n - 1}")
            norm.add((min(i, j), max(i, j)))
        if weights is None:
            w = tuple(Fraction(1) for _ in range(n))
        else:
            w = tuple(Fraction(v) for v in weights)
            if len(w) != n:
                raise ValueError(f"{len(w)} weights for {n} vertices")
            for k, v in enumerate(w):
                if v <= 0:
                    raise ValueError(f"weights[{k}]: {v} is not positive")
        symmetry = tuple(tuple(int(v) for v in g) for g in symmetry)
        for g in symmetry:
            if sorted(g) != list(range(n)) or any(w[g[i]] != w[i] for i in range(n)):
                raise ValueError(f"{g} is not a weight-preserving vertex permutation")
            if {(min(g[i], g[j]), max(g[i], g[j])) for i, j in norm} != norm:
                raise ValueError(f"{g} is not an automorphism of the graph")
        return cls(n=n, edges=frozenset(norm), weights=w, symmetry=symmetry)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency(self) -> SymMatrix:
        return SymMatrix.from_rows(
            [
                [1 if self.has_edge(i, j) else 0 for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.n) if self.has_edge(i, j)]


def _cyclic(n: int) -> tuple[int, ...]:
    return tuple((i + 1) % n for i in range(n))


def cycle_graph(n: int) -> Graph:
    """C_n with the dihedral group: rotation and reflection."""
    return Graph.make(n, [(i, (i + 1) % n) for i in range(n)],
                      symmetry=(_cyclic(n), tuple(-i % n for i in range(n))))


def complete_graph(n: int) -> Graph:
    """K_n with the symmetric group: a transposition and an n-cycle."""
    return Graph.make(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                      symmetry=((1, 0, *range(2, n)), _cyclic(n)) if n > 1 else ())


def path_graph(n: int) -> Graph:
    """P_n with its reversal."""
    return Graph.make(n, [(i, i + 1) for i in range(n - 1)],
                      symmetry=(tuple(range(n - 1, -1, -1)),))


def paley_graph(q: int) -> Graph:
    """Paley graph on Z_q, q a prime = 1 mod 4: x ~ y when x - y is a nonzero
    square; symmetry x -> x + 1 and x -> s*x, s a primitive root squared."""
    if q < 5 or q % 4 != 1 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        raise ValueError("Paley graphs need a prime q = 1 mod 4")
    squares = {x * x % q for x in range(1, q)}
    s = next(a * a % q for a in range(2, q)
             if len({pow(a, k, q) for k in range(q)}) == q - 1)
    edges = [(x, y) for x in range(q) for y in range(x + 1, q) if (y - x) % q in squares]
    return Graph.make(q, edges, symmetry=(_cyclic(q), tuple(s * x % q for x in range(q))))


def empty_graph(n: int) -> Graph:
    return Graph.make(n, [])


# -- graph file formats -------------------------------------------------------


def parse_dimacs(text: str) -> Graph:
    """DIMACS edge format: one 'p edge n m' header, then 'e i j' lines
    (1-indexed), and comment lines, whose first field is 'c'; a line of any
    other kind is rejected, and so is an edge out of range or a self-loop,
    each with its line."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        try:
            if parts[0] == "p":
                if n is not None:
                    raise ValueError("a second problem line")
                if len(parts) < 4 or parts[1] not in ("edge", "edges", "col"):
                    raise ValueError("bad problem line")
                n = int(parts[2])
                if n < 1:
                    raise ValueError("graph needs at least one vertex")
            elif parts[0] == "e":
                if len(parts) < 3:
                    raise ValueError("an edge line names two vertices")
                if n is None:
                    raise ValueError("an edge line before the problem line")
                i, j = int(parts[1]), int(parts[2])
                if not (1 <= i <= n and 1 <= j <= n):
                    raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
                if i == j:
                    raise ValueError(f"self-loop at vertex {i}")
                edges.append((i - 1, j - 1))
            else:
                raise ValueError(f"unknown line kind {parts[0]!r}: expected c, p or e")
        except ValueError as err:
            raise ValueError(f"line {lineno} {line!r}: {err}") from None
    if n is None:
        raise ValueError("missing 'p edge' line")
    return Graph.make(n, edges)


def parse_graph_json(text: str) -> Graph:
    """Structured form: {"n": int, "edges": [[i, j]], "weights": [rat]?}
    (0-indexed), a weight a JSON number or a string such as "1/2"; a faulty
    field is named, and a faulty entry as ``edges[k]`` or ``weights[k]``."""
    doc = json.loads(text)
    for key in ("n", "edges"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"graph is missing the field {key!r}")
    n, edges, weights = doc["n"], doc["edges"], doc.get("weights")
    if type(n) is not int:  # a bool is not an integer here
        raise ValueError(f"n: {n!r} is not an integer vertex count")
    if not isinstance(edges, list):
        raise ValueError("edges is not a list of vertex pairs")
    for k, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or any(type(v) is not int for v in e):
            raise ValueError(f"edges[{k}]: {e!r} is not a pair of integer vertices")
    if weights is not None:
        if not isinstance(weights, list):
            raise ValueError("weights is not a list of vertex weights")
        for k, v in enumerate(weights):
            try:  # str(v) of a bool, null, list, inf or nan is no rational
                weights[k] = Fraction(str(v))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"weights[{k}]: {v!r} is not a rational weight") from None
    return Graph.make(n, edges, weights)


def parse_graph(text: str) -> Graph:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_dimacs(text)


# -- matrix family for the weighted stability number --------------------------


def stability_qp_matrix(g: Graph) -> SymMatrix:
    """Canonical member of the family: 1/w_i diagonal, edge entries equal to
    the average of the endpoint diagonals, zero on non-edges."""
    diag = SymMatrix.diag([1 / w for w in g.weights])
    num, k = diag.num * 2, diag.num.diagonal()  # over 2 * diag.den
    for i, j in g.edges:
        num[i, j] = num[j, i] = k[i] + k[j]
    return SymMatrix(num, 2 * diag.den)


def validate_stability_matrix(g: Graph, b: SymMatrix) -> None:
    """Check a user-supplied B against the family's defining constraints."""
    if b.n != g.n:
        raise ValueError("matrix size does not match the graph")
    for i in range(g.n):
        if b.entry(i, i) != 1 / g.weights[i]:
            raise ValueError(f"diagonal entry {i} must be 1/weight")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.has_edge(i, j):
                if b.entry(i, j) < (b.entry(i, i) + b.entry(j, j)) / 2:
                    raise ValueError(f"edge entry ({i},{j}) below the diagonal average")
            elif b.entry(i, j) != 0:
                raise ValueError(f"non-edge entry ({i},{j}) must be zero")


# -- standard quadratic programs ----------------------------------------------


def sqp_program(m_mat: SymMatrix) -> ConicProgram:
    """min { lambda : M + lambda * J in COP }; the simplex minimum is the
    negative of this program's value."""
    n = m_mat.n
    return ConicProgram.make(
        [1], [ConeConstraint(n, (SymMatrix.ones(n),), m_mat.scale(-1))]
    )


def sqp_bound(
    m_mat: SymMatrix, r: int, kind: ConeKind, eps: float = 1e-8
) -> RelaxationResult:
    """Level-r bound on the simplex minimum of x^T M x.

    ``result.value`` holds the raw program value (min lambda); the bound on
    the simplex minimum is its negative, ``-result.value``.
    """
    return solve_relaxation(sqp_program(m_mat), r, kind, eps=eps)


def sqp_reciprocal_program(m_mat: SymMatrix, symmetry=()) -> ConicProgram:
    """min { lambda : lambda * M - J in COP }, the reciprocal-value program;
    ``symmetry`` holds variable permutations fixing M."""
    n = m_mat.n
    return ConicProgram.make(
        [1], [ConeConstraint(n, (m_mat,), SymMatrix.ones(n), symmetry)]
    )


def sqp_reciprocal_bound(
    m_mat: SymMatrix,
    r: int,
    kind: ConeKind,
    witness_split: tuple[SymMatrix, SymMatrix, Fraction] | None = None,
    eps: float = 1e-8,
    symmetry=(),
) -> RelaxationResult:
    """Level-r bound on 1 / min { x^T M x : x in simplex }.

    Requires a split M = P + N with P positive definite: pass
    ``witness_split = (P, N, lambda_min_lower_bound)``; when omitted, the
    split is searched for and a ValueError is raised on refusal.  The split
    is the paper's interior condition, checked exactly; the relaxation
    itself takes no bound from it.  The relaxation is reduced by
    ``symmetry``, variable permutations fixing M.
    """
    # at y = 0 the slack is M itself, to be split as P + N
    split = ConeConstraint(m_mat.n, (SymMatrix.zero(m_mat.n),), m_mat.scale(-1))
    if witness_split is None:
        w = check_intspn(split, [0])
        if not isinstance(w, SpnWitness):
            raise ValueError(f"no interior split found for M: {w.message}")
    else:
        p_mat, n_mat, lb = witness_split
        w = SpnWitness((Fraction(0),), p_mat, n_mat, Fraction(lb))
        if not w.check_exact(split):
            raise ValueError("witness is not a split M = P + N with N >= 0 and "
                             "P - lb*I positive semidefinite, lb > 0")
    return solve_relaxation(sqp_reciprocal_program(m_mat, symmetry), r, kind, eps=eps)


# -- weighted stability bounds ------------------------------------------------


def stability_bound(
    g: Graph,
    r: int,
    kind: ConeKind = ConeKind.K,
    b_mat: SymMatrix | None = None,
    eps: float = 1e-8,
) -> RelaxationResult:
    """min { t : t*B - J in cone } at level r; upper-bounds alpha(G, w).

    Decreasing in r.  B defaults to the canonical family member, which every
    automorphism in ``g.symmetry`` fixes, so the relaxation is reduced by
    that group.  B may be overridden with any validated member, which gets
    the trivial group.
    """
    symmetry = g.symmetry
    if b_mat is None:
        b_mat = stability_qp_matrix(g)
    else:
        validate_stability_matrix(g, b_mat)
        symmetry = ()
    diag = SymMatrix.diag([1 / w for w in g.weights])
    off = b_mat - diag  # entrywise nonnegative by the family constraints
    lb = min(1 / w for w in g.weights)
    return sqp_reciprocal_bound(
        b_mat, r, kind, witness_split=(diag, off, lb), eps=eps, symmetry=symmetry
    )


# -- product graphs and the chromatic program ---------------------------------


def product_graph(g: Graph, t: int) -> Graph:
    """Cartesian product of the complete graph on t vertices with G.

    Vertex (p, i) maps to index p * n + i; (p, i) ~ (q, j) when p != q and
    i == j, or p == q and ij is an edge of G.  Its symmetry is that of G,
    acting in every copy, times S_t permuting the copies.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = g.n
    edges = []
    for p in range(t):
        for (i, j) in g.edges:
            edges.append((p * n + i, p * n + j))
    for i in range(n):
        for p in range(t):
            for q in range(p + 1, t):
                edges.append((p * n + i, q * n + i))
    copies = [tuple(q * n + i for q in perm for i in range(n))
              for perm in complete_graph(t).symmetry]
    inside = [tuple(p * n + a[i] for p in range(t) for i in range(n)) for a in g.symmetry]
    return Graph.make(t * n, edges, symmetry=inside + copies)


def chromatic_program(g: Graph) -> ConicProgram:
    """Two-variable program max y over (y, z) with one cone constraint per
    t = 1..n on matrices of side n*t; stated as min -y.  Constraint t
    carries the symmetry of G times S_t (see :func:`product_graph`)."""
    n = g.n
    constraints = []
    for t in range(1, n + 1):
        gt = product_graph(g, t)
        size = n * t
        # a_y = -J/n^2, a_z = n(A + I) - J and c_t = -tJ/n^2 = t a_y
        z = np.full((size, size), -1, dtype=object)
        np.fill_diagonal(z, n - 1)
        for i, j in gt.edges:
            z[i, j] = z[j, i] = n - 1
        a_y = SymMatrix(np.full((size, size), -1, dtype=object), n * n)
        constraints.append(ConeConstraint(size, (a_y, SymMatrix(z)), a_y.scale(t), gt.symmetry))
    return ConicProgram.make([-1, 0], constraints)


def chromatic_box_bound(g: Graph) -> Fraction:
    # covers both the coloring point (chi, 1) and the interior point (-n^2, 1)
    return Fraction(g.n * g.n + 1)


def chromatic_bound(
    g: Graph, r: int, kind: ConeKind = ConeKind.Q, eps: float = 1e-7
) -> tuple[float, RelaxationResult]:
    """Lower bound on the chromatic number from the program's relaxation.

    Returns (bound, result) with bound = -value of the minimization form.
    The level-r cones lie inside the copositive cone, so they shrink the
    feasible set of max y and the bound never exceeds chi(G).
    The default kind Q keeps the largest PSD block at side n*t; at level 0
    the two kinds define the same cone.  The variable box enters once, as a
    separate cone constraint (:func:`to_bounded`), which leaves a degenerate
    optimal face; the default eps reflects the accuracy reliably certifiable
    there.
    """
    prog = to_bounded(chromatic_program(g), chromatic_box_bound(g))
    res = solve_relaxation(prog, r, kind, eps=eps)
    if res.value is None:
        return float("nan"), res
    return -res.value, res


# -- exact enumeration oracles -------------------------------------------------


def brute_alpha(g: Graph, weighted: bool = False):
    """Exact (weighted) stability number by branch and bound."""
    if g.n > BRUTE_ALPHA_CAP:
        raise ValueError(f"brute_alpha capped at {BRUTE_ALPHA_CAP} vertices")
    weights = g.weights if weighted else tuple(Fraction(1) for _ in range(g.n))
    order = sorted(range(g.n), key=lambda v: -len(g.neighbors(v)))
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    best = Fraction(0)

    def extend(candidates, current):
        nonlocal best
        if current + sum(weights[v] for v in candidates) <= best:
            return
        if not candidates:
            best = max(best, current)
            return
        v = candidates[0]
        rest = candidates[1:]
        extend([u for u in rest if u not in adj[v]], current + weights[v])
        extend(rest, current)

    extend(order, Fraction(0))
    return best if weighted else int(best)


def brute_chi(g: Graph) -> int:
    """Exact chromatic number by backtracking k-coloring search."""
    if g.n > BRUTE_CHI_CAP:
        raise ValueError(f"brute_chi capped at {BRUTE_CHI_CAP} vertices")
    if not g.edges:
        return 1
    order = sorted(range(g.n), key=lambda v: -len(g.neighbors(v)))
    adj = [set(g.neighbors(v)) for v in range(g.n)]

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def assign(idx: int, max_used: int) -> bool:
            if idx == g.n:
                return True
            v = order[idx]
            used = {colors[u] for u in adj[v] if colors[u] >= 0}
            # symmetry breaking: at most one brand-new color is worth trying
            for c in range(min(k - 1, max_used + 1) + 1):
                if c in used:
                    continue
                colors[v] = c
                if assign(idx + 1, max(max_used, c)):
                    return True
                colors[v] = -1
            return False

        return assign(0, -1)

    # an edge needs two colours, and n colours always suffice
    return next(k for k in range(2, g.n + 1) if colorable(k))
