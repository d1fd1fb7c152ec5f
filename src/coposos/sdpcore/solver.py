"""Primal-dual interior-point solver for block SDPs.

Algorithm: Mehrotra-style predictor-corrector path following with
Nesterov-Todd scaling, run on the homogeneous self-dual embedding

    A x          - b tau = 0
    A^T y + s    - c tau = 0
    b^T y - c^T x - kappa = 0,      x, s in K,  tau, kappa >= 0,

which either converges with tau > 0 (recover an optimal primal-dual pair
by dividing through by tau) or produces an improving ray certifying primal
infeasibility (b^T y > 0 with A^T y + s = 0) or dual infeasibility /
primal unboundedness (c^T x < 0 with A x = 0).  Anything else - iteration
cap, stalled centrality, factorization breakdown - is reported as
INCONCLUSIVE with diagnostics, never as a confident wrong status.

Once the dual residual is within feastol, the reported primal point is
x / tau projected onto {A x = b} in the Nesterov-Todd metric of the latest
step, but only when the projection stays in the cone; otherwise it is
x / tau itself, which is interior.  Its gap is the larger of the unclamped
x.s and |c^T x - b^T y|, so OPTIMAL means an in-cone x, residuals within
feastol and a primal-dual objective gap within gaptol.

Search directions come from a dense Schur-complement solve.  The cone
blocks are grouped by side, a NONNEG(k) block counting as k PSD(1)
blocks, and every cone operation runs once per group on stacked
(nblk, k, k) arrays.  The constraint rows are unpacked into these stacks
once per solve; per iteration they are congruence-scaled (W^T A_i W,
elementwise w^2 a_i on the side-1 group) a fixed chunk of rows at a time,
which bounds the temporaries, into one m x dim matrix of scaled svec rows.
Its m x m Gram matrix, one matrix product, is factorized by Cholesky (with
escalating diagonal regularization on breakdown), and the 2 x 2 (y, tau)
system of the embedding is back-substituted.  Problem sizes here are at
most a few hundred rows, so no sparsity is exploited.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import BlockSdp, SdpSolution, SdpStatus, smat, svec

_STEP_FRACTION = 0.98
_MIN_STEP = 1e-9
# Scaled constraint rows are formed this many at a time, which bounds the
# (rows, nblk, k, k) temporaries of the row congruence.
_ROW_CHUNK = 64


class _Cone:
    """Cone operations on svec vectors, run once per group of equal-side
    blocks on stacked (nblk, k, k) arrays.  A NONNEG(k) block joins the
    side-1 group as k PSD(1) blocks.  Per-iteration state is one
    Nesterov-Todd scaling (w, lam) per group: W and the eigenvalues lam of
    the scaled point."""

    def __init__(self, sdp: BlockSdp):
        sides: dict = {}
        for blk, sl in zip(sdp.blocks, sdp.slices):
            pos = np.arange(sl.start, sl.stop)
            if blk.kind == "psd":
                sides.setdefault(blk.size, []).append(pos[None, :])
            else:
                sides.setdefault(1, []).append(pos[:, None])
        # (k, nblk, svec positions of the group's blocks in order); positions
        # are increasing, and a slice when contiguous, which indexes as a view
        self.groups = []
        for k, parts in sides.items():
            pos = np.concatenate(parts)
            nblk, pos = len(pos), pos.reshape(-1)
            if pos[-1] - pos[0] == pos.size - 1:
                pos = slice(pos[0], pos[-1] + 1)
            self.groups.append((k, nblk, pos))
        self.dim = sdp.dim
        self.degree = sum(blk.cone_degree for blk in sdp.blocks)

    def stacks(self, v: np.ndarray) -> list:
        """(..., dim) svec vectors -> one (..., nblk, k, k) stack per group."""
        lead = v.shape[:-1]
        return [
            smat(v[..., pos].reshape(lead + (nblk, -1)), k)
            for k, nblk, pos in self.groups
        ]

    def flat(self, stacks: list) -> np.ndarray:
        """Inverse of :meth:`stacks`."""
        lead = stacks[0].shape[:-3]
        out = np.empty(lead + (self.dim,))
        for (_, _, pos), st in zip(self.groups, stacks):
            out[..., pos] = svec(st).reshape(lead + (-1,))
        return out

    def identity(self) -> np.ndarray:
        eyes = [np.broadcast_to(np.eye(k), (nblk, k, k)) for k, nblk, _ in self.groups]
        return self.flat(eyes)

    def scaling(self, x: np.ndarray, s: np.ndarray) -> list:
        """W = Lx V diag(sig)^-1/2 from the SVD Ls^T Lx = U diag(sig) V^T of
        the Cholesky factors, and lam = sig, per group."""
        sc = []
        for xs in self.stacks(np.stack([x, s])):
            lx, ls = np.linalg.cholesky(xs)
            prod = np.swapaxes(ls, -1, -2) @ lx
            if prod.shape[-1] == 1:  # a positive 1 x 1 matrix is its own SVD
                sig, w = prod[:, 0], lx
            else:
                _, sig, vt = np.linalg.svd(prod)
                w = lx @ np.swapaxes(vt, -1, -2)
            sig = np.maximum(sig, 1e-300)
            sc.append((w * sig[:, None, :] ** -0.5, sig))
        return sc

    def congruence(self, sc: list, stacks: list, adjoint: bool = False) -> np.ndarray:
        """W^T M W per block of (..., nblk, k, k) group stacks, or W M W^T if
        ``adjoint``, as (..., dim) svec vectors.  Side-1 blocks scale
        elementwise by w^2, which avoids one 1 x 1 matmul per scalar and row."""
        out = []
        for (w, _), mats in zip(sc, stacks):
            if adjoint:
                w = np.swapaxes(w, -1, -2)
            if w.shape[-1] == 1:
                out.append(w * w * mats)
            else:
                out.append(np.swapaxes(w, -1, -2) @ mats @ w)
        return self.flat(out)

    def scale_s(self, sc: list, v: np.ndarray) -> np.ndarray:
        """Congruence W^T . W per block of (..., dim) svec vectors."""
        return self.congruence(sc, self.stacks(v))

    def scale_x(self, sc: list, v: np.ndarray) -> np.ndarray:
        """Congruence W . W^T per block (adjoint of :meth:`scale_s`)."""
        return self.congruence(sc, self.stacks(v), adjoint=True)

    def jordan_solve(self, sc: list, rhs: list) -> np.ndarray:
        """Solve lam o U = RHS in scaled coordinates (lam is diagonal)."""
        denoms = [0.5 * (lam[:, :, None] + lam[:, None, :]) for _, lam in sc]
        return self.flat([r / d for r, d in zip(rhs, denoms)])

    def jordan_product(self, u: np.ndarray, v: np.ndarray) -> list:
        """Symmetrized product of two scaled-space vectors, per group."""
        prods = [um @ vm for um, vm in zip(self.stacks(u), self.stacks(v))]
        return [0.5 * (p + np.swapaxes(p, -1, -2)) for p in prods]

    def comp_rhs(self, sc: list, sigma_mu: float, corr: list | None) -> list:
        """sigma*mu*e - lam o lam - corr, per group, in scaled coordinates."""
        rhs = [(sigma_mu - lam**2)[:, :, None] * np.eye(lam.shape[1]) for _, lam in sc]
        return rhs if corr is None else [r - q for r, q in zip(rhs, corr)]

    def max_step(self, sc: list, *directions: np.ndarray) -> float:
        """sup alpha with lam + alpha * d in the cone for every scaled-space
        direction d."""
        least = np.inf
        for (_, lam), dm in zip(sc, self.stacks(np.stack(directions))):
            root = 1.0 / np.sqrt(lam)
            scaled = dm * root[:, :, None] * root[:, None, :]
            least = min(least, float(np.min(np.linalg.eigvalsh(scaled)[..., 0])))
        return -1.0 / least if least < 0 else np.inf

    def min_eig(self, v: np.ndarray) -> float:
        """Least eigenvalue over all blocks (least entry for NONNEG)."""
        return min(float(np.min(np.linalg.eigvalsh(m)[:, 0])) for m in self.stacks(v))


def _chol_with_regularization(k_mat: np.ndarray):
    """Cholesky of K + delta*I with a small static delta, escalating on failure.

    The static shift keeps the factor well conditioned when K degenerates at
    the path's endgame; accuracy is recovered by refinement against K itself.
    """
    scale = max(float(np.trace(k_mat)) / max(k_mat.shape[0], 1), 1.0)
    reg = 0.0
    for attempt in range(8):
        try:
            return cho_factor(
                k_mat + reg * np.eye(k_mat.shape[0]), lower=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            reg = scale * 1e-12 if reg == 0.0 else reg * 1000.0
    return None


def _refined_solve(factor, k_mat: np.ndarray, rhs: np.ndarray, rounds: int = 5):
    """Cholesky solve with iterative refinement against the unregularized K.

    Refinement stops at the target or once a round fails to halve the
    residual: at the noise floor of an ill-conditioned K further rounds only
    wander.  The iterate with the smaller residual is returned.
    """
    u = cho_solve(factor, rhs, check_finite=False)
    resid = rhs - k_mat @ u
    norm = float(np.linalg.norm(resid))
    target = 1e-13 * (float(np.linalg.norm(rhs)) + 1.0)
    for _ in range(rounds):
        if norm <= target:
            break
        trial = u + cho_solve(factor, resid, check_finite=False)
        trial_resid = rhs - k_mat @ trial
        trial_norm = float(np.linalg.norm(trial_resid))
        if trial_norm < norm:
            u, resid = trial, trial_resid
        if not trial_norm <= 0.5 * norm:
            break
        norm = trial_norm
    return u


def solve(
    sdp: BlockSdp,
    eps: float = 1e-8,
    max_iter: int = 200,
    feastol: float | None = None,
    gaptol: float | None = None,
    inftol: float | None = None,
) -> SdpSolution:
    """Solve a block SDP via the homogeneous self-dual embedding.

    ``eps`` sets the default feasibility / duality-gap / infeasibility
    thresholds (individually overridable).  A status of OPTIMAL certifies
    the objective through the achieved duality gap; infeasibility statuses
    carry the normalized improving ray and its residual quality.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    feastol = eps if feastol is None else feastol
    gaptol = eps if gaptol is None else gaptol
    inftol = eps if inftol is None else inftol

    cone = _Cone(sdp)
    a = sdp.A
    b = sdp.b
    c = sdp.c
    m = sdp.num_constraints
    nu = cone.degree + 1

    a_stacks = cone.stacks(a)  # the constraint rows, unpacked once per solve
    e = cone.identity()
    x = e.copy()
    s = e.copy()
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0

    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))

    mu0 = (float(x @ s) + tau * kappa) / nu

    # Primal feasibility polish: reported iterates are pulled back onto
    # {x : A x = b}, which removes the noise the scaled direction recovery
    # injects into A x - b near the central path's end.  The projection is
    # taken in the Nesterov-Todd metric of the latest step, reusing that
    # step's scaled rows and Schur factor: dx = -W (sum_i u_i A_i) W^T with
    # K u = A x - b.  A correction that leaves the cone is rejected, since on
    # a degenerate face it can exceed the vanishing eigenvalues of x; the
    # unpolished x / tau is interior.  The iteration state is never polished.
    step = None  # (scaling, scaled rows, Schur matrix, its factor)

    def polish_primal(xhat):
        if step is None:
            return xhat
        sc, abar, k_mat, factor = step
        resid = a @ xhat - b
        u = _refined_solve(factor, k_mat, resid)
        corrected = xhat - cone.scale_x(sc, abar.T @ u)
        new = float(np.linalg.norm(a @ corrected - b))
        if new < float(np.linalg.norm(resid)) and cone.min_eig(corrected) >= 0.0:
            return corrected
        return xhat

    def current_metrics():
        xhat = x / tau
        yhat = y / tau
        shat = s / tau
        dres = float(np.linalg.norm(a.T @ yhat + shat - c)) / norm_c
        if dres <= feastol:
            # the polish leaves (y, s) alone, so only a point that can be
            # accepted is worth polishing
            xhat = polish_primal(xhat)
        pres = float(np.linalg.norm(a @ xhat - b)) / norm_b
        pobj = float(c @ xhat)
        dobj = float(b @ yhat)
        # honest gap: x.s unclamped, and the objective gap it stands for
        gap = max(float(xhat @ shat), abs(pobj - dobj))
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        return xhat, yhat, shat, pres, dres, pobj, dobj, gap, relgap

    def converged(metrics):
        _, _, _, pres, dres, _, _, gap, relgap = metrics
        return pres <= feastol and dres <= feastol and (
            gap <= gaptol or relgap <= gaptol
        )

    def report(status, iteration, point, message=""):
        metrics, tau_p, kappa_p, mu_p = point
        xhat, yhat, shat, pres, dres, pobj, dobj, gap, relgap = metrics
        return SdpSolution(
            status=status,
            objective=pobj,
            x_blocks=sdp.unpack(xhat),
            y=yhat,
            s_blocks=sdp.unpack(shat),
            primal_res=pres,
            dual_res=dres,
            gap=gap,
            relgap=relgap,
            iterations=iteration,
            tau=tau_p,
            kappa=kappa_p,
            message=message,
            diagnostics={"dual_objective": dobj, "mu": mu_p, "mu0": mu0},
        )

    def inconclusive(iteration, message):
        # a failed step never discards an already-good reported point
        if converged(best_point[0]):
            return report(SdpStatus.OPTIMAL, iteration, best_point)
        return report(SdpStatus.INCONCLUSIVE, iteration, best_point, message)

    consecutive_small_steps = 0
    best_err = np.inf
    best_point = None
    best_iteration = 0

    for iteration in range(max_iter + 1):
        mu = (float(x @ s) + tau * kappa) / nu

        # -- convergence / certificate checks ---------------------------
        metrics = current_metrics()
        _, _, _, pres, dres, pobj, dobj, gap, relgap = metrics
        point = (metrics, tau, kappa, mu)
        err = max(pres, dres, min(gap, relgap))
        if best_point is None or err < best_err:
            best_err = err
            best_point = point
            best_iteration = iteration
        if converged(metrics):
            return report(SdpStatus.OPTIMAL, iteration, point)

        bty = float(b @ y)
        if bty > 0:
            qual = float(np.linalg.norm(a.T @ y + s)) / bty
            if qual <= inftol:
                yn = y / bty
                sn = s / bty
                return SdpSolution(
                    status=SdpStatus.PRIMAL_INFEASIBLE,
                    y=yn,
                    s_blocks=sdp.unpack(sn),
                    iterations=iteration,
                    tau=tau,
                    kappa=kappa,
                    certificate={
                        "kind": "primal_infeasible",
                        "ray_y": yn,
                        "quality": qual,
                    },
                    message="dual improving ray found",
                )
        ctx = float(c @ x)
        if ctx < 0:
            qual = float(np.linalg.norm(a @ x)) / (-ctx)
            if qual <= inftol:
                xn = x / (-ctx)
                return SdpSolution(
                    status=SdpStatus.DUAL_INFEASIBLE_OR_UNBOUNDED,
                    x_blocks=sdp.unpack(xn),
                    iterations=iteration,
                    tau=tau,
                    kappa=kappa,
                    certificate={
                        "kind": "dual_infeasible",
                        "ray_x_blocks": sdp.unpack(xn),
                        "quality": qual,
                    },
                    message="primal improving ray found",
                )

        stalled = iteration - best_iteration >= 12
        if iteration == max_iter or stalled:
            return inconclusive(
                iteration,
                "progress stalled" if stalled else "iteration cap reached",
            )
        if tau < 1e-13 and kappa < 1e-13:
            return inconclusive(iteration, "tau and kappa both vanished (ill-posed)")
        if mu < 1e-17:
            return inconclusive(iteration, "complementarity at numerical floor")

        # -- Nesterov-Todd scaling and Schur complement ------------------
        try:
            sc = cone.scaling(x, s)
        except np.linalg.LinAlgError:
            return inconclusive(iteration, "scaling breakdown (iterate left cone)")
        abar = np.empty_like(a)
        for r0 in range(0, m, _ROW_CHUNK):
            rows = slice(r0, r0 + _ROW_CHUNK)
            abar[rows] = cone.congruence(sc, [st[rows] for st in a_stacks])
        cbar = cone.scale_s(sc, c)
        k_mat = abar @ abar.T
        factor = _chol_with_regularization(k_mat)
        if factor is None:
            return inconclusive(iteration, "Schur complement factorization failed")
        step = (sc, abar, k_mat, factor)

        # residual vectors of the embedding
        r_p = a @ x - b * tau
        r_d = a.T @ y + s - c * tau
        r_g = float(b @ y - c @ x) - kappa

        ahc = abar @ cbar  # A H c with H the NT scaling operator
        bhc = b - ahc
        u_b = _refined_solve(factor, k_mat, b)
        u_g = _refined_solve(factor, k_mat, ahc)
        u1 = u_b + u_g
        # (b - g)^T K^{-1} (b + g) + c^T H c telescopes to
        # b^T K^{-1} b + || (I - P) cbar ||^2 with P the projection onto the
        # scaled row space; the residual form avoids catastrophic cancellation.
        proj_resid = cbar - abar.T @ u_g
        denom = kappa / tau + float(b @ u_b) + float(proj_resid @ proj_resid)
        if not np.isfinite(denom) or denom < 1e-300:
            return inconclusive(iteration, "singular embedding system")

        def solve_kkt(eta, comp_rhs_blocks, rtk):
            """Return the search direction for the given right-hand side."""
            r1 = -eta * r_p
            r2_vec = eta * r_d  # enters the eliminated system with a flipped sign
            r3 = -eta * r_g
            d2 = cone.jordan_solve(sc, comp_rhs_blocks)
            r2bar = cone.scale_s(sc, r2_vec)
            u2 = _refined_solve(factor, k_mat, r1 - abar @ (d2 + r2bar))
            rhs2 = r3 + rtk / tau + float(cbar @ (d2 + r2bar))
            dtau = (rhs2 - float(bhc @ u2)) / denom
            dy = u2 + dtau * u1
            ds = -r2_vec - a.T @ dy + c * dtau
            ds_scaled = cone.scale_s(sc, ds)
            dx_scaled = d2 - ds_scaled
            dx = cone.scale_x(sc, dx_scaled)
            dkappa = (rtk - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa, dx_scaled, ds_scaled

        # -- predictor (affine) ------------------------------------------
        comp_aff = cone.comp_rhs(sc, 0.0, None)
        (dx_a, dy_a, ds_a, dtau_a, dkap_a, dxs_a, dss_a) = solve_kkt(
            1.0, comp_aff, -tau * kappa
        )

        alpha_a = cone.max_step(sc, dxs_a, dss_a)
        if dtau_a < 0:
            alpha_a = min(alpha_a, -tau / dtau_a)
        if dkap_a < 0:
            alpha_a = min(alpha_a, -kappa / dkap_a)
        alpha_a = min(1.0, alpha_a)

        mu_aff = (
            float((x + alpha_a * dx_a) @ (s + alpha_a * ds_a))
            + (tau + alpha_a * dtau_a) * (kappa + alpha_a * dkap_a)
        ) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))

        # -- corrector (combined) -----------------------------------------
        corr = cone.jordan_product(dxs_a, dss_a)
        comp = cone.comp_rhs(sc, sigma * mu, corr)
        rtk = sigma * mu - tau * kappa - dtau_a * dkap_a
        (dx, dy, ds, dtau, dkappa, dxs, dss) = solve_kkt(1.0 - sigma, comp, rtk)

        alpha = cone.max_step(sc, dxs, dss)
        if dtau < 0:
            alpha = min(alpha, -tau / dtau)
        if dkappa < 0:
            alpha = min(alpha, -kappa / dkappa)
        alpha = min(1.0, _STEP_FRACTION * alpha)

        if alpha < _MIN_STEP:
            consecutive_small_steps += 1
            if consecutive_small_steps >= 3:
                return inconclusive(iteration, "step length collapsed")
        else:
            consecutive_small_steps = 0

        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa

    return inconclusive(max_iter, "iteration cap reached")
