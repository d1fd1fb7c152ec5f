"""Workload corpora, seeded input generators and exact oracles.

Every corpus entry is a *call*: one public ``coposos`` call on fixed inputs,
plus the exact oracle that judges its answer.  ``build_calls`` makes the
inputs (this is part of set-up); ``Call.prepare`` computes the oracle (this
is excluded from set-up); ``Call.judge`` turns a result into an ``Outcome``.

A call *fails* when it raises, ends in any status other than OPTIMAL (or a
verdict other than the expected one), lands on the wrong side of the exact
oracle by more than ``TOL``, or carries a certificate report that is not
ok.  A failure is *confidently wrong* when the program claims success --
OPTIMAL with every certificate ok, or a decided MEMBER / NOT_MEMBER verdict
-- and the oracle contradicts it.  Failures are a metric; confidently wrong
answers make the run incorrect.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from coposos.apps import (
    brute_alpha,
    brute_chi,
    chromatic_bound,
    complete_graph,
    cycle_graph,
    path_graph,
    stability_bound,
)
from coposos import cones
from coposos.cones import ConeKind, Verdict
from coposos.polycore import SymMatrix
from coposos.sdpcore import SdpStatus

# Tier-1 tolerance on the side of an exact oracle a bound must land.
TOL = 1e-6

# Rounds over the small calls in each measured pass: small-call time is
# about 15-120% of the corpus calls' time on a 2-core x86-64 machine.
SMALL_ROUNDS = {"alpha-K": 8, "alpha-Q": 8, "member": 8, "chi": 6}

# Layers whose spans must fire on each workload (see tracing.LAYERS).
_COMMON_SPANS = {"polycore.lift", "sdpcore.builder", "sdpcore.solve", "cones.validate"}
EXPECTED_SPANS = {
    "alpha-K": _COMMON_SPANS
    | {"polycore.psd_exact", "relax.assemble", "relax.extract", "apps.program"},
    "alpha-Q": _COMMON_SPANS
    | {"polycore.psd_exact", "relax.assemble", "relax.extract", "apps.program"},
    "member": _COMMON_SPANS | {"cones.build", "cones.decide"},
    "chi": _COMMON_SPANS
    | {"relax.assemble", "relax.extract", "relax.bounded", "apps.program"},
}


@dataclass(frozen=True)
class Outcome:
    """What one call returned and how it was judged; ``reasons`` is empty
    unless the call failed."""

    status: str
    iterations: int | None
    cert_ok: tuple[bool, ...]
    reasons: tuple[str, ...]
    confident_wrong: bool


def exception_outcome(exc: Exception) -> Outcome:
    name = type(exc).__name__
    return Outcome(f"EXCEPTION:{name}", None, None, (), (f"raised {name}: {exc}",), False)


def _iterations(result) -> int | None:
    sol = getattr(result, "solution", None)
    return None if sol is None else int(sol.iterations)


def _judge_bound(result, wrong_side: bool, side_reason: str) -> Outcome:
    cert_ok = tuple(bool(rep.ok) for rep in result.certificate_reports)
    reasons = []
    optimal = result.status is SdpStatus.OPTIMAL
    if not optimal:
        reasons.append(f"status {result.status.value}")
    elif wrong_side:
        reasons.append(side_reason)
    if not all(cert_ok):
        reasons.append("certificate report not ok")
    return Outcome(
        status=result.status.value,
        iterations=_iterations(result),
        cert_ok=cert_ok,
        reasons=tuple(reasons),
        confident_wrong=optimal and all(cert_ok) and wrong_side,
    )


class StabilityCall:
    """``stability_bound(cycle_graph(n), r, kind)``; must be >= alpha - TOL."""

    def __init__(self, n: int, r: int, kind: ConeKind, small: bool):
        self.ident = f"C{n}-{kind.value}-r{r}"
        self.small = small
        # K: one large PSD block, so dense factorisations dominate the time
        self.speed = "dense" if kind is ConeKind.K and not small else "python"
        self.graph = cycle_graph(n)
        self.r = r
        self.kind = kind
        self.alpha = None

    def prepare(self) -> None:
        self.alpha = brute_alpha(self.graph)

    def __call__(self):
        return stability_bound(self.graph, self.r, self.kind)

    def judge(self, result) -> Outcome:
        value = result.value
        wrong = value is not None and value < self.alpha - TOL
        return _judge_bound(result, wrong, f"{value} below alpha={self.alpha}")


class ChromaticCall:
    """``chromatic_bound(g, 0)``; must be <= chi + TOL."""

    speed = "python"  # the reference-kernel part its time follows (see calibrate)

    def __init__(self, name: str, graph, small: bool):
        self.ident = f"chi-{name}"
        self.small = small
        self.graph = graph
        self.chi = None

    def prepare(self) -> None:
        self.chi = brute_chi(self.graph)

    def __call__(self):
        return chromatic_bound(self.graph, 0)

    def judge(self, result) -> Outcome:
        bound, res = result
        wrong = not math.isnan(bound) and bound > self.chi + TOL
        return _judge_bound(res, wrong, f"{bound} above chi={self.chi}")


class MembershipCall:
    """``decide_membership(build_membership(M, r, kind))`` against an expected
    verdict, which ``prepare`` re-derives exactly where it can."""

    speed = "python"  # the reference-kernel part its time follows (see calibrate)

    def __init__(self, ident: str, matrix: SymMatrix, r: int, kind: ConeKind,
                 expected: Verdict, small: bool, proof=None):
        self.ident = f"{ident}-{kind.value}-r{r}"
        self.small = small
        self.matrix = matrix
        self.r = r
        self.kind = kind
        self.expected = expected
        self.proof = proof

    def prepare(self) -> None:
        if self.proof is not None and not self.proof(self.matrix):
            raise ValueError(f"{self.ident}: exact oracle does not confirm {self.expected.value}")

    def __call__(self):
        # looked up on the module at call time, so that the tracer's wrappers apply
        return cones.decide_membership(cones.build_membership(self.matrix, self.r, self.kind))

    def judge(self, result) -> Outcome:
        verdict = result.verdict
        wrong = verdict is not self.expected
        return Outcome(
            status=verdict.value,
            iterations=_iterations(result),
            cert_ok=(),
            reasons=(f"verdict {verdict.value}, expected {self.expected.value}",) if wrong else (),
            confident_wrong=wrong and verdict is not Verdict.INCONCLUSIVE,
        )


# -- exact membership oracles -------------------------------------------------


def horn_matrix() -> SymMatrix:
    """The Horn matrix: copositive, not in K^(0), in K^(1) (Parrilo 2000)."""
    return SymMatrix.from_rows(
        [[1 if i == j or (i - j) % 5 in (1, 4) else -1 for j in range(5)] for i in range(5)]
    )


def padded(m: SymMatrix) -> SymMatrix:
    rows = [list(row) + [Fraction(0)] for row in m.rows]
    rows.append([Fraction(0)] * (m.n + 1))
    return SymMatrix.from_rows(rows)


def planted_spn(rnd: random.Random, n: int):
    """Random M = P + N with P strictly diagonally dominant (so positive
    definite) and N entrywise nonnegative; returns (M, P, N)."""
    g = [[Fraction(rnd.randint(-4, 4), 4) for _ in range(n)] for _ in range(n)]
    nn = [[Fraction(rnd.randint(0, 6), 3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            g[i][j] = g[j][i]
            nn[i][j] = nn[j][i]
    p = SymMatrix.from_rows(
        [[g[i][j] + (n + 2 if i == j else 0) for j in range(n)] for i in range(n)]
    )
    n_mat = SymMatrix.from_rows(nn)
    return p + n_mat, p, n_mat


def spn_proof(p: SymMatrix, n_mat: SymMatrix):
    """Exact check that M = P + N with P diagonally dominant and N >= 0."""

    def proof(m: SymMatrix) -> bool:
        k = m.n
        dominant = all(
            p.entry(i, i) > sum(abs(p.entry(i, j)) for j in range(k) if j != i)
            for i in range(k)
        )
        nonneg = all(v >= 0 for row in n_mat.rows for v in row)
        return dominant and nonneg and m == p + n_mat

    return proof


def non_copositive(rnd: random.Random, n: int):
    """Random symmetric M with an exact witness x >= 0, x^T M x < 0 supported
    on two coordinates; returns (M, x)."""
    while True:
        rows = [[Fraction(rnd.randint(-8, 8), 4) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        m = SymMatrix.from_rows(rows)
        for i, j in itertools.combinations(range(n), 2):
            for wi, wj in ((1, 1), (1, 2), (2, 1)):
                x = [0] * n
                x[i], x[j] = wi, wj
                if quad(m, x) < 0:
                    return m, x


def quad(m: SymMatrix, x) -> Fraction:
    return sum(m.entry(i, j) * x[i] * x[j] for i in range(m.n) for j in range(m.n))


def witness_proof(x):
    return lambda m: all(v >= 0 for v in x) and quad(m, x) < 0


# -- corpora ------------------------------------------------------------------


def _alpha_calls(kind: ConeKind, instances, small):
    return [StabilityCall(n, r, kind, (n, r) in small) for n, r in instances]


def _member_calls(seed: int):
    rnd = random.Random(seed)
    calls = []
    for kind, r, sizes in (
        (ConeKind.K, 0, (6, 8)),
        (ConeKind.K, 1, (6,)),
        (ConeKind.Q, 0, (6, 8, 10)),
        (ConeKind.Q, 1, (6, 8, 10)),
        (ConeKind.Q, 2, (6, 8)),
    ):
        for n in sizes:
            m, p, n_mat = planted_spn(rnd, n)
            small = r == 0 and (kind is ConeKind.Q or n <= 6)
            calls.append(MembershipCall(f"planted{n}", m, r, kind, Verdict.MEMBER,
                                        small, spn_proof(p, n_mat)))
    horn = horn_matrix()
    calls += [
        MembershipCall("horn", horn, 0, ConeKind.K, Verdict.NOT_MEMBER, True),
        MembershipCall("horn", horn, 1, ConeKind.K, Verdict.MEMBER, False),
        MembershipCall("horn-padded", padded(horn), 0, ConeKind.K, Verdict.NOT_MEMBER, True),
        MembershipCall("horn-padded", padded(horn), 1, ConeKind.K, Verdict.NOT_MEMBER, False),
    ]
    for kind, r, sizes in (
        (ConeKind.K, 0, (6, 8)),
        (ConeKind.K, 1, (6,)),
        (ConeKind.Q, 0, (8, 10)),
        (ConeKind.Q, 1, (7, 10)),
        (ConeKind.Q, 2, (6,)),
    ):
        for n in sizes:
            m, x = non_copositive(rnd, n)
            small = r == 0 and (kind is ConeKind.Q or n <= 6)
            calls.append(MembershipCall(f"noncop{n}", m, r, kind, Verdict.NOT_MEMBER,
                                        small, witness_proof(x)))
    return calls


def build_calls(workload: str, seed: int):
    """The workload's corpus, in pass order.  Only ``member`` uses the seed."""
    if workload == "alpha-K":
        return _alpha_calls(
            ConeKind.K,
            [(5, 0), (6, 0), (7, 0), (8, 0), (5, 1), (6, 1), (7, 1), (5, 2)],
            {(5, 0), (6, 0), (7, 0)},
        )
    if workload == "alpha-Q":
        return _alpha_calls(
            ConeKind.Q,
            [(7, 1), (8, 1), (9, 1), (10, 1), (7, 2), (8, 2), (9, 2)],
            {(7, 1), (8, 1), (9, 1)},
        )
    if workload == "member":
        return _member_calls(seed)
    if workload == "chi":
        return [
            ChromaticCall("K2", complete_graph(2), True),
            ChromaticCall("P3", path_graph(3), True),
            ChromaticCall("C4", cycle_graph(4), True),
            ChromaticCall("C5", cycle_graph(5), False),
        ]
    raise ValueError(f"unknown workload {workload!r}")
