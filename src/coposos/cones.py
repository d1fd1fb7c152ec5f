"""Membership testing in the inner approximation cones of the copositive cone.

Two families are supported, selected by :class:`ConeKind`:

``K`` (quartic lift): M is a member at level r when
``(sum x_i^2)^r * (x o2)^T M x o2`` is a sum of squares; the test is an SDP
feasibility problem over a single Gram block indexed by the exact-degree
``r+2`` monomial basis.

``Q`` (linear lift): M is a member at level r when
``(sum x_i)^r * x^T M x`` equals ``sum_{|b|=r} x^b * sigma_b + sum_{|b|=r+2}
c_b x^b`` with each sigma_b a quadratic sum of squares and each c_b >= 0;
the test uses one PSD(n) Gram block per degree-r monomial and a nonnegative
scalar per degree-(r+2) monomial.

At level 0 both families coincide with the cone of matrices decomposable as
(positive semidefinite) + (entrywise nonnegative).

:class:`GramLayout` is the one owner of this Gram structure: its bases, its
blocks, the rows matching lifted coefficients and the extraction of a
certificate from a solution.  The membership SDP here and every cone
constraint of a :mod:`coposos.relax` relaxation are built from it.  The
exact audit (:func:`certificate_expansion`, :func:`validate_certificate`)
re-expands a certificate without its rows.

Verdicts: MEMBER comes with an extracted Gram certificate whose exact
re-expansion residual is checked; NOT_MEMBER is backed by the solver's
infeasibility ray; everything on the numerical boundary is INCONCLUSIVE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb

import numpy as np

from .polycore import (
    LiftKind,
    MultiIndex,
    Poly,
    SymMatrix,
    coeff_norm,
    monomial_basis,
    polya_lift,
    quadratic_form,
    quartic_form,
)
from .sdpcore import (
    BlockSdp,
    BlockSpec,
    SdpBuilder,
    SdpStatus,
    nonneg_block,
    psd_block,
    solve,
)


class ConeKind(str, Enum):
    K = "K"
    Q = "Q"


class Verdict(str, Enum):
    MEMBER = "MEMBER"
    NOT_MEMBER = "NOT_MEMBER"
    INCONCLUSIVE = "INCONCLUSIVE"


def gram_basis(n: int, r: int, kind: ConeKind) -> list[MultiIndex]:
    """Monomial basis indexing the Gram structure of a level-r membership SDP."""
    if kind is ConeKind.K:
        return monomial_basis(n, r + 2, exact_degree=True)
    return monomial_basis(n, r, exact_degree=True)


def lifted_poly(m: SymMatrix, r: int, kind: ConeKind) -> Poly:
    """The exact lifted polynomial whose representation is being certified."""
    if kind is ConeKind.K:
        return polya_lift(quartic_form(m), r, LiftKind.QUADRATIC)
    return polya_lift(quadratic_form(m), r, LiftKind.LINEAR)


@dataclass
class SosCertificate:
    """Gram data witnessing a lifted-polynomial representation.

    kind K: one Gram matrix over the exact-degree-(r+2) monomial basis.
    kind Q: one n x n Gram matrix per degree-r monomial plus one nonnegative
    scalar per degree-(r+2) monomial.
    """

    kind: ConeKind
    r: int
    n: int
    gram: np.ndarray | None = None
    gram_blocks: list[np.ndarray] | None = None
    scalars: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def to_text(self) -> str:
        doc = {
            "format": "coposos-certificate-v1",
            "kind": self.kind.value,
            "r": self.r,
            "n": self.n,
            "provenance": self.provenance,
        }
        if self.kind is ConeKind.K:
            doc["gram"] = [[float(v) for v in row] for row in self.gram]
        else:
            doc["gram_blocks"] = [
                [[float(v) for v in row] for row in blk] for blk in self.gram_blocks
            ]
            doc["scalars"] = [float(v) for v in self.scalars]
        return json.dumps(doc, indent=1)

    @classmethod
    def from_text(cls, text: str) -> "SosCertificate":
        doc = json.loads(text)
        if doc.get("format") != "coposos-certificate-v1":
            raise ValueError("unrecognized certificate format")
        kind = ConeKind(doc["kind"])
        cert = cls(
            kind=kind,
            r=int(doc["r"]),
            n=int(doc["n"]),
            provenance=doc.get("provenance", {}),
        )
        if kind is ConeKind.K:
            cert.gram = np.array(doc["gram"], dtype=float)
        else:
            cert.gram_blocks = [np.array(b, dtype=float) for b in doc["gram_blocks"]]
            cert.scalars = np.array(doc["scalars"], dtype=float)
        return cert


class GramLayout:
    """The Gram structure of one level-r cone constraint in a block SDP.

    kind K: one PSD block over the exact-degree-(r+2) basis, matched row by
    row against the lift's degree-(2r+4) monomials.  kind Q: one PSD(n)
    block per degree-r monomial, then one NONNEG block holding a scalar per
    degree-(r+2) monomial, matched against the lift's degree-(r+2)
    monomials.  The blocks are numbered from ``first`` inside the SDP.
    """

    def __init__(self, n: int, r: int, kind: ConeKind, first: int = 0):
        if r < 0:
            raise ValueError("level must be >= 0")
        self.n, self.r, self.kind, self.first = n, r, kind, first
        self.basis = gram_basis(n, r, kind)
        self.scalar_basis = (
            monomial_basis(n, r + 2, exact_degree=True) if kind is ConeKind.Q else None
        )

    def blocks(self) -> list[BlockSpec]:
        if self.kind is ConeKind.K:
            return [psd_block(len(self.basis))]
        return [psd_block(self.n) for _ in self.basis] + [
            nonneg_block(len(self.scalar_basis))
        ]

    def rows(self) -> dict[MultiIndex, list]:
        """Lifted monomial -> the Gram entries (block, i, j, 1.0) summing to
        its coefficient, for every monomial of the lift's degree (rows for
        monomials absent from the lift match zero).  Each off-diagonal entry
        is listed once; the SDP builder doubles symmetric pairs."""
        first, basis = self.first, self.basis
        if self.kind is ConeKind.K:
            rows = {
                gamma: []
                for gamma in monomial_basis(self.n, 2 * self.r + 4, exact_degree=True)
            }
            for ti, beta in enumerate(basis):
                for tj in range(ti, len(basis)):
                    gamma = tuple(a + b for a, b in zip(beta, basis[tj]))
                    rows[gamma].append((first, ti, tj, 1.0))
            return rows
        rows = {gamma: [] for gamma in self.scalar_basis}
        for bi, beta in enumerate(basis):
            for i in range(self.n):
                for j in range(i, self.n):
                    gamma = list(beta)
                    gamma[i] += 1
                    gamma[j] += 1
                    rows[tuple(gamma)].append((first + bi, i, j, 1.0))
        scalar_block = first + len(basis)
        for t, gamma in enumerate(self.scalar_basis):
            rows[gamma].append((scalar_block, t, t, 1.0))
        return rows

    def certificate(self, sol, **provenance) -> SosCertificate:
        """The certificate held in a solution's blocks; the solver's residuals
        and gap join the caller's provenance."""
        provenance = {
            "primal_res": sol.primal_res,
            "dual_res": sol.dual_res,
            "gap": sol.gap,
            **provenance,
        }
        cert = SosCertificate(self.kind, self.r, self.n, provenance=provenance)
        x_blocks = sol.x_blocks[self.first :]
        if self.kind is ConeKind.K:
            cert.gram = np.asarray(x_blocks[0])
        else:
            k = len(self.basis)
            cert.gram_blocks = [np.asarray(b) for b in x_blocks[:k]]
            cert.scalars = np.asarray(x_blocks[k])
        return cert


@dataclass
class MembershipProblem:
    matrix: SymMatrix
    layout: GramLayout
    sdp: BlockSdp
    index_map: dict[MultiIndex, int]  # lifted monomial -> constraint row


def build_membership(m: SymMatrix, r: int, kind: ConeKind) -> MembershipProblem:
    """SDP feasibility: find Gram data reproducing the level-r lift of M."""
    layout = GramLayout(m.n, r, kind)
    lifted = lifted_poly(m, r, kind)
    builder = SdpBuilder(layout.blocks())
    index_map = {
        gamma: builder.add_row(entries, float(lifted.coeff(gamma)), label=gamma)
        for gamma, entries in layout.rows().items()
    }
    return MembershipProblem(m, layout, builder.build(), index_map)


def build_K_membership(m: SymMatrix, r: int) -> MembershipProblem:
    return build_membership(m, r, ConeKind.K)


def build_Q_membership(m: SymMatrix, r: int) -> MembershipProblem:
    return build_membership(m, r, ConeKind.Q)


@dataclass
class MembershipResult:
    verdict: Verdict
    certificate: SosCertificate | None = None
    infeasibility_quality: float | None = None
    residual: Fraction | None = None
    min_gram_eig: float | None = None
    solution: object = None
    message: str = ""


def decide_membership(problem: MembershipProblem, eps: float = 1e-8) -> MembershipResult:
    """MEMBER with validated certificate, certified NOT_MEMBER, or INCONCLUSIVE.

    MEMBER requires re-expansion residual <= eps and smallest Gram eigenvalue
    >= -eps; NOT_MEMBER requires an infeasibility ray of quality <= eps.
    Boundary cases meeting neither bar are INCONCLUSIVE, never guessed.
    """
    sol = solve(problem.sdp, eps=min(eps, 1e-8))
    if sol.status == SdpStatus.OPTIMAL:
        cert = problem.layout.certificate(sol, eps=eps, iterations=sol.iterations)
        report = validate_certificate(problem.matrix, cert, tol=eps)
        if report.residual <= eps and report.min_gram_eig >= -eps:
            return MembershipResult(
                verdict=Verdict.MEMBER,
                certificate=cert,
                residual=report.residual,
                min_gram_eig=report.min_gram_eig,
                solution=sol,
            )
        return MembershipResult(
            verdict=Verdict.INCONCLUSIVE,
            certificate=cert,
            residual=report.residual,
            min_gram_eig=report.min_gram_eig,
            solution=sol,
            message="solution found but certificate fails the membership bar",
        )
    if sol.status == SdpStatus.PRIMAL_INFEASIBLE:
        quality = _ray_quality(problem.sdp, sol)
        if quality <= eps:
            return MembershipResult(
                verdict=Verdict.NOT_MEMBER,
                infeasibility_quality=quality,
                solution=sol,
            )
        return MembershipResult(
            verdict=Verdict.INCONCLUSIVE,
            infeasibility_quality=quality,
            solution=sol,
            message="infeasibility ray below certificate quality bar",
        )
    return MembershipResult(
        verdict=Verdict.INCONCLUSIVE, solution=sol, message=sol.message
    )


def _ray_quality(sdp: BlockSdp, sol) -> float:
    """Residual of the normalized dual improving ray (smaller is better)."""
    y = sol.certificate["ray_y"]
    scale = float(sdp.b @ y)
    if scale <= 0:
        return float("inf")
    y = y / scale
    return max(0.0, -min(sdp.least_eigenvalues(-(sdp.A.T @ y))))


@dataclass
class CertificateReport:
    residual: Fraction  # coefficient norm of (lift - re-expansion), exact
    min_gram_eig: float
    min_scalar: float | None
    max_abs_entry: float
    ok: bool


def _rationalize(arr: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(arr)]


def certificate_expansion(cert: SosCertificate) -> Poly:
    """Exact re-expansion of the certificate's polynomial."""
    n = cert.n
    if cert.kind is ConeKind.K:
        basis = gram_basis(n, cert.r, ConeKind.K)
        terms: dict[MultiIndex, Fraction] = {}
        rational = _rationalize(cert.gram)
        for i, beta in enumerate(basis):
            for j, beta2 in enumerate(basis):
                c = rational[i][j]
                if c == 0:
                    continue
                gamma = tuple(a + b for a, b in zip(beta, beta2))
                terms[gamma] = terms.get(gamma, Fraction(0)) + c
        return Poly(n, terms)
    basis = gram_basis(n, cert.r, ConeKind.Q)
    scalar_basis = monomial_basis(n, cert.r + 2, exact_degree=True)
    total = Poly.zero(n)
    for beta, block in zip(basis, cert.gram_blocks):
        sigma = quadratic_form(SymMatrix.from_float(np.asarray(block)))
        total = total + Poly(n, {tuple(beta): 1}) * sigma
    terms = {}
    for gamma, c in zip(scalar_basis, np.asarray(cert.scalars)):
        val = Fraction(float(c))
        if val != 0:
            terms[gamma] = val
    return total + Poly(n, terms)


def validate_certificate(
    m: SymMatrix, cert: SosCertificate, tol: float = 1e-6
) -> CertificateReport:
    """Exact re-expansion check plus Gram spectrum and magnitude audit.

    Recomputes the lifted polynomial exactly, subtracts the certificate's
    expansion and reports the coefficient-norm residual; also reports the
    smallest Gram eigenvalue, the smallest scalar multiplier (kind Q) and
    the largest entry magnitude (certificate bit-size audit).
    """
    if cert.n != m.n:
        raise ValueError("certificate dimension does not match the matrix")
    if cert.kind is ConeKind.K:
        expected_side = comb(m.n + cert.r + 1, cert.r + 2)
        if np.asarray(cert.gram).shape != (expected_side, expected_side):
            raise ValueError("Gram matrix side does not match the level")
    diff = lifted_poly(m, cert.r, cert.kind) - certificate_expansion(cert)
    residual = coeff_norm(diff)

    if cert.kind is ConeKind.K:
        eigs = np.linalg.eigvalsh(np.asarray(cert.gram, dtype=float))
        min_eig = float(eigs[0])
        min_scalar = None
        max_entry = float(np.max(np.abs(cert.gram))) if cert.gram.size else 0.0
    else:
        min_eig = min(
            float(np.linalg.eigvalsh(np.asarray(b, dtype=float))[0])
            for b in cert.gram_blocks
        )
        min_scalar = float(np.min(cert.scalars)) if len(cert.scalars) else 0.0
        max_entry = max(
            max(float(np.max(np.abs(b))) for b in cert.gram_blocks),
            float(np.max(np.abs(cert.scalars))) if len(cert.scalars) else 0.0,
        )
    ok = residual <= Fraction(float(tol)) and min_eig >= -tol
    if min_scalar is not None:
        ok = ok and min_scalar >= -tol
    return CertificateReport(
        residual=residual,
        min_gram_eig=min_eig,
        min_scalar=min_scalar,
        max_abs_entry=max_entry,
        ok=bool(ok),
    )
