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

Search directions come from a dense Schur-complement solve: per iteration
the constraint matrix is congruence-scaled block by block (W^T A_i W for
PSD blocks, elementwise for NONNEG blocks), the m x m Gram matrix of the
scaled rows is factorized by Cholesky (with escalating diagonal
regularization on breakdown), and the 2 x 2 (y, tau) system of the
embedding is back-substituted.  Problem sizes here are at most a few
hundred rows, so no sparsity is exploited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import BlockSdp, SdpSolution, SdpStatus

_STEP_FRACTION = 0.98
_MIN_STEP = 1e-9


class _PsdOps:
    """Cached index machinery for one PSD block."""

    def __init__(self, k: int):
        self.k = k
        self.dim = k * (k + 1) // 2
        self.iu, self.ju = np.triu_indices(k)
        self.scale = np.where(self.iu == self.ju, 1.0, np.sqrt(2.0))

    def mat(self, v: np.ndarray) -> np.ndarray:
        k = self.k
        out = np.zeros((k, k))
        out[self.iu, self.ju] = v / self.scale
        out = out + out.T
        out[np.arange(k), np.arange(k)] /= 2.0
        return out

    def vec(self, m: np.ndarray) -> np.ndarray:
        return m[self.iu, self.ju] * self.scale

    def mats(self, rows: np.ndarray) -> np.ndarray:
        """(m, dim) svec rows -> (m, k, k) symmetric matrices."""
        k = self.k
        out = np.zeros((rows.shape[0], k, k))
        out[:, self.iu, self.ju] = rows / self.scale
        out = out + np.transpose(out, (0, 2, 1))
        out[:, np.arange(k), np.arange(k)] /= 2.0
        return out

    def vecs(self, mats: np.ndarray) -> np.ndarray:
        return mats[:, self.iu, self.ju] * self.scale


@dataclass
class _Scaling:
    """Per-block Nesterov-Todd scaling at the current iterate."""

    w_half: list  # PSD: k x k matrix; NONNEG: length-k vector
    lam: list  # scaled point: PSD: eigenvalue vector; NONNEG: vector


class _Cone:
    """Block-structured cone operations on flat svec vectors."""

    def __init__(self, sdp: BlockSdp):
        self.sdp = sdp
        self.ops = []
        for blk in sdp.blocks:
            self.ops.append(_PsdOps(blk.size) if blk.kind == "psd" else None)
        self.degree = sum(blk.cone_degree for blk in sdp.blocks)
        # svec positions of the PSD blocks, stacked per side, and of all
        # NONNEG entries: a whole-cone membership test is one eigvalsh call
        # per distinct side.
        psd_pos: dict = {}
        nonneg_pos = [np.zeros(0, dtype=int)]
        for blk, sl in zip(sdp.blocks, sdp.slices):
            pos = np.arange(sl.start, sl.stop)
            if blk.kind == "psd":
                psd_pos.setdefault(blk.size, []).append(pos)
            else:
                nonneg_pos.append(pos)
        self.psd_stacks = [(_PsdOps(k), np.stack(p)) for k, p in psd_pos.items()]
        self.nonneg_pos = np.concatenate(nonneg_pos)

    def identity(self) -> np.ndarray:
        parts = []
        for blk, op in zip(self.sdp.blocks, self.ops):
            if op is None:
                parts.append(np.ones(blk.size))
            else:
                parts.append(op.vec(np.eye(blk.size)))
        return np.concatenate(parts)

    def blocks_of(self, v: np.ndarray):
        return [v[sl] for sl in self.sdp.slices]

    def scaling(self, x: np.ndarray, s: np.ndarray) -> _Scaling:
        w_half, lam = [], []
        for blk, op, sl in zip(self.sdp.blocks, self.ops, self.sdp.slices):
            if op is None:
                xb, sb = x[sl], s[sl]
                w_half.append(np.sqrt(xb / sb))
                lam.append(np.sqrt(xb * sb))
            else:
                xm, sm = op.mat(x[sl]), op.mat(s[sl])
                lx = np.linalg.cholesky(xm)
                ls = np.linalg.cholesky(sm)
                u, sig, vt = np.linalg.svd(ls.T @ lx)
                sig = np.maximum(sig, 1e-300)
                w = lx @ vt.T @ np.diag(sig**-0.5)
                w_half.append(w)
                lam.append(sig)
        return _Scaling(w_half, lam)

    def scale_s(self, sc: _Scaling, v: np.ndarray) -> np.ndarray:
        """Congruence W^T . W per PSD block, elementwise for NONNEG."""
        parts = []
        for op, w, sl in zip(self.ops, sc.w_half, self.sdp.slices):
            if op is None:
                parts.append(w * v[sl])
            else:
                parts.append(op.vec(w.T @ op.mat(v[sl]) @ w))
        return np.concatenate(parts)

    def scale_x(self, sc: _Scaling, v: np.ndarray) -> np.ndarray:
        """Congruence W . W^T per PSD block (adjoint of :meth:`scale_s`)."""
        parts = []
        for op, w, sl in zip(self.ops, sc.w_half, self.sdp.slices):
            if op is None:
                parts.append(w * v[sl])
            else:
                parts.append(op.vec(w @ op.mat(v[sl]) @ w.T))
        return np.concatenate(parts)

    def scale_rows(self, sc: _Scaling, a_mats: list) -> np.ndarray:
        """Apply scale_s to every constraint row at once."""
        parts = []
        for op, w, pre in zip(self.ops, sc.w_half, a_mats):
            if op is None:
                parts.append(pre * w[None, :])
            else:
                parts.append(op.vecs(np.matmul(np.matmul(w.T[None], pre), w)))
        return np.concatenate(parts, axis=1)

    def lam_vec(self, sc: _Scaling) -> np.ndarray:
        parts = []
        for op, lam in zip(self.ops, sc.lam):
            if op is None:
                parts.append(lam)
            else:
                parts.append(op.vec(np.diag(lam)))
        return np.concatenate(parts)

    def jordan_solve(self, sc: _Scaling, rhs_blocks: list) -> np.ndarray:
        """Solve lam o U = RHS in scaled coordinates (lam is diagonal)."""
        parts = []
        for op, lam, rhs in zip(self.ops, sc.lam, rhs_blocks):
            if op is None:
                parts.append(rhs / lam)
            else:
                denom = 0.5 * (lam[:, None] + lam[None, :])
                parts.append(op.vec(rhs / denom))
        return np.concatenate(parts)

    def jordan_product(self, sc: _Scaling, u: np.ndarray, v: np.ndarray) -> list:
        """Symmetrized product of two scaled-space vectors, per block."""
        out = []
        for op, sl in zip(self.ops, self.sdp.slices):
            if op is None:
                out.append(u[sl] * v[sl])
            else:
                um, vm = op.mat(u[sl]), op.mat(v[sl])
                prod = um @ vm
                out.append(0.5 * (prod + prod.T))
        return out

    def comp_rhs(self, sc: _Scaling, sigma_mu: float, corr: list | None) -> list:
        """sigma*mu*e - lam o lam - corr, per block, in scaled coordinates."""
        out = []
        for op, lam, idx in zip(self.ops, sc.lam, range(len(self.ops))):
            if op is None:
                r = sigma_mu - lam * lam
            else:
                r = np.diag(sigma_mu - lam * lam)
            if corr is not None:
                r = r - corr[idx]
            out.append(r)
        return out

    def max_step(self, sc: _Scaling, direction_scaled: np.ndarray) -> float:
        """sup alpha with lam + alpha * direction in the cone (scaled space)."""
        alpha = np.inf
        for op, lam, sl in zip(self.ops, sc.lam, self.sdp.slices):
            d = direction_scaled[sl]
            if op is None:
                neg = d < 0
                if np.any(neg):
                    alpha = min(alpha, float(np.min(-lam[neg] / d[neg])))
            else:
                dm = op.mat(d)
                root = 1.0 / np.sqrt(lam)
                scaled = dm * root[:, None] * root[None, :]
                w = np.linalg.eigvalsh(scaled)
                if w[0] < 0:
                    alpha = min(alpha, -1.0 / float(w[0]))
        return alpha

    def min_eig(self, v: np.ndarray) -> float:
        """Least eigenvalue over all blocks (least entry for NONNEG)."""
        worst = float(np.min(v[self.nonneg_pos])) if self.nonneg_pos.size else np.inf
        for op, pos in self.psd_stacks:
            least = np.linalg.eigvalsh(op.mats(v[pos]))[:, 0]
            worst = min(worst, float(np.min(least)))
        return worst


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

    # Pre-unpacked constraint rows per PSD block (constant across iterations).
    a_mats = []
    for blk, op, sl in zip(sdp.blocks, cone.ops, sdp.slices):
        if op is None:
            a_mats.append(np.ascontiguousarray(a[:, sl]))
        else:
            a_mats.append(op.mats(a[:, sl]))

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
        abar = cone.scale_rows(sc, a_mats)
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

        alpha_a = cone.max_step(sc, dxs_a)
        alpha_a = min(alpha_a, cone.max_step(sc, dss_a))
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
        corr = cone.jordan_product(sc, dxs_a, dss_a)
        comp = cone.comp_rhs(sc, sigma * mu, corr)
        rtk = sigma * mu - tau * kappa - dtau_a * dkap_a
        (dx, dy, ds, dtau, dkappa, dxs, dss) = solve_kkt(1.0 - sigma, comp, rtk)

        alpha = cone.max_step(sc, dxs)
        alpha = min(alpha, cone.max_step(sc, dss))
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
