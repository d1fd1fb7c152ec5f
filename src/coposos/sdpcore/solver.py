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
INCONCLUSIVE with diagnostics and the best point seen, never as a
confident wrong status.

A ray is normalized: a primal infeasibility ray with b^T y = 1 in ``y``
and its exact slack -A^T y in ``s_blocks``, a dual one with c^T x = -1 in
``x_blocks``.  Its quality, ``diagnostics["ray_quality"]``, measures how far
the ray misses its certificate: for a primal infeasibility ray
max(0, -lambda_min(-A^T y)), which is 0 for an exact Farkas ray (-A^T y in
K), and for a dual one ||A x||.  A program with an objective accepts a
primal ray when ||A^T y + s|| <= eps, with s the iterate's slack, and that
bounds the quality by eps.

A feasibility problem, c = 0, stops at its first exact witness (the
embedding's iterates carry one; Ye, Todd and Mizuno 1994, Math. Oper. Res.
19; Permenter, Friberg and Andersen 2017, SIAM J. Optim. 27).  Every
feasible x is optimal for min 0, and the zero dual (y, s) = 0 certifies it
with no dual residual and no gap, so its points report that dual.  The solve
ends OPTIMAL at the first x / tau (polished or not) within feastol of
{A x = b}, or PRIMAL_INFEASIBLE at the first b^T y > 0 whose ray has
quality <= eps.  The iterates are those of any other program; only the
exits differ.

Once the dual residual is within feastol (always, when c = 0), the
reported primal point is x / tau projected onto {A x = b} in the
Nesterov-Todd metric of the latest step, but only when the projection stays
in the cone; otherwise it is x / tau itself, which is interior.  Its gap is
the larger of the unclamped x.s and |c^T x - b^T y|, so OPTIMAL means an
in-cone x, residuals within feastol and a primal-dual objective gap within
eps.

Search directions come from a Schur-complement solve.  The cone blocks
are grouped by side, a NONNEG(k) block counting as k PSD(1) blocks, and
every cone operation runs once per group on stacked (nblk, k, k) arrays,
gathered from an svec vector by one ``take`` and scattered back by
another; on the side-1 group the operations are elementwise.  An LP, every
block NONNEG or PSD(1), skips both: its one group is the svec vector itself.
Each Nesterov-Todd scaling carries the constants the cone operations read.
The constraint rows stay block-sparse (Fujisawa, Kojima and Nakata 1997,
Math. Program. 79): each touches only a few blocks, so each iteration
scales only the k x k pieces of the (row, block) pairs that touch, forms
the Schur matrix K_ij = <W^T A_i W, W^T A_j W> from one small Gram matrix
per block, and applies A, which the SDP keeps as triplets, and the scaled
rows as COO products.  K is factorized by LAPACK ``potrf`` (with escalating
diagonal regularization on breakdown) and solved by ``potrs``, and the 2 x 2
(y, tau) system of the embedding is back-substituted.  potrf and potrs are
loaded from scipy at the first solve: importing the package, parsing,
building and auditing never load scipy.

What depends on A and the blocks alone - the cone groups, the rows' pieces
and their scatter indices, and the identity start - is set up at the first
solve of an A that several SDPs share and kept with it (``_Coo.setup``)
while its arrays hold at most 4 MiB, so the membership SDPs of one
(n, r, kind) set it up once.  Every solve starts at x = s = e, y = 0,
tau = kappa = 1, so the first iteration's Newton system - its scaling,
scaled rows, Schur matrix and factor, and the terms of c, which SDPs sharing
A share too - is kept beside it when both fit in those 4 MiB, and a later
solve on A takes its first step from it: a membership decision that ends
at its first witness then forms and factorizes no K.  The seconds spent on
the set-up (0 when reused), forming K, in Cholesky and refinement, and in
cone operations are reported in ``diagnostics["timings"]``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from .model import BlockSdp, SdpSolution, SdpStatus, _Coo, _svec_index, smat, svec

_STEP_FRACTION = 0.98
_MIN_STEP = 1e-9
# the most bytes of set-up a shared A keeps (_Coo.setup): the first step's
# system is dropped when it does not fit beside the rest, and the rest too
# when it alone does not fit
_KEPT_SETUP_BYTES = 4 << 20


# one group's Nesterov-Todd scaling: W and the eigenvalues lam of the scaled
# point, with the constants the cone operations read, each formed once:
# (lam_i + lam_j) / 2, lam^2, 1 / sqrt(lam) and, on side 1 only, w^2 (else None)
_Scaling = namedtuple("_Scaling", "w lam half_sum lam_sq root w_sq")


class _Cone:
    """Cone operations on svec vectors, run once per group of equal-side
    blocks on stacked (nblk, k, k) arrays.  A NONNEG(k) block joins the
    side-1 group as k PSD(1) blocks, on which every operation is
    elementwise.  The stacks of all groups lie end to end in one stacked
    vector, so a conversion between it and svec is one gather: each stacked
    entry knows its svec position and scale, and each svec entry its stacked
    position; when every block is diagonal (NONNEG or PSD(1)) both are
    reshapes.  Per-iteration state is one ``_Scaling`` per group."""

    def __init__(self, sdp: BlockSdp):
        sides: dict = {}
        for blk, sl in zip(sdp.blocks, sdp.slices):
            pos = np.arange(sl.start, sl.stop)
            if blk.kind == "psd":
                sides.setdefault(blk.size, []).append(pos[None, :])
            else:
                sides.setdefault(1, []).append(pos[:, None])
        # (k, nblk, svec positions of the group's blocks, one increasing row each)
        self.groups = []
        # per group its span of the stacked vector; per stacked entry its svec
        # position and scale; per svec position its stacked entry and scale
        self.spans, stack_at, stack_scale, start = [], [], [], 0
        self.flat_at, self.flat_scale = np.empty(sdp.dim, dtype=np.intp), np.empty(sdp.dim)
        for k, parts in sides.items():
            cols = np.concatenate(parts)  # (nblk, svec entries of one block)
            nblk = len(cols)
            upper, entry, scale = _svec_index(k)
            self.spans.append((slice(start, start + nblk * k * k), (nblk, k, k)))
            stack_at.append(cols[:, entry].ravel())
            stack_scale.append(np.tile(scale[entry], nblk))
            self.flat_at[cols] = start + k * k * np.arange(nblk)[:, None] + upper
            self.flat_scale[cols] = scale
            start += nblk * k * k
            self.groups.append((k, nblk, cols))
        self.stack_at, self.stack_scale = np.concatenate(stack_at), np.concatenate(stack_scale)
        self.eyes = [np.eye(k) for k, _, _ in self.groups]
        self.diagonal = list(sides) == [1]  # x / 1.0 and x * 1.0 are exact
        self.dim = sdp.dim
        self.degree = sum(blk.size for blk in sdp.blocks)  # barrier degree

    def stacks(self, v: np.ndarray) -> list:
        """(..., dim) svec vectors -> one (..., nblk, k, k) stack per group."""
        lead = v.shape[:-1]
        if self.diagonal:
            return [v.reshape(lead + (-1, 1, 1))]
        vals = v.take(self.stack_at, axis=-1) / self.stack_scale
        return [vals[..., span].reshape(lead + shape) for span, shape in self.spans]

    def flat(self, stacks: list) -> np.ndarray:
        """Inverse of :meth:`stacks`."""
        lead = stacks[0].shape[:-3]
        if self.diagonal:
            return stacks[0].reshape(lead + (-1,))
        vals = np.concatenate([st.reshape(lead + (-1,)) for st in stacks], axis=-1)
        return vals.take(self.flat_at, axis=-1) * self.flat_scale

    def identity(self) -> np.ndarray:
        eyes = [np.broadcast_to(np.eye(k), (nblk, k, k)) for k, nblk, _ in self.groups]
        return np.ascontiguousarray(self.flat(eyes))  # a diagonal cone's is a view

    def scaling(self, x: np.ndarray, s: np.ndarray) -> list:
        """W = Lx V diag(sig)^-1/2 from the SVD Ls^T Lx = U diag(sig) V^T of
        the Cholesky factors, and lam = sig, per group.  A positive 1 x 1
        matrix is its own SVD and its square root its Cholesky factor; like
        LAPACK, the side-1 group raises LinAlgError on an entry not > 0."""
        sc = []
        for xs in self.stacks(np.array([x, s])):
            if xs.shape[-1] == 1:
                if not np.all(xs > 0):
                    raise np.linalg.LinAlgError("entry not positive")
                lx, ls = np.sqrt(xs)
                sig, w = (ls * lx)[:, 0], lx
            else:
                lx, ls = np.linalg.cholesky(xs)
                _, sig, vt = np.linalg.svd(ls.swapaxes(-1, -2) @ lx)
                w = lx @ vt.swapaxes(-1, -2)
            sig = np.maximum(sig, 1e-300)
            w = w * sig[:, None, :] ** -0.5
            sc.append(_Scaling(w, sig, 0.5 * (sig[:, :, None] + sig[:, None, :]), sig**2,
                               1.0 / np.sqrt(sig), w * w if xs.shape[-1] == 1 else None))
        return sc

    def congruence(self, sc: list, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """W^T V W per block of (..., dim) svec vectors, or W V W^T if
        ``adjoint``.  Side-1 blocks scale elementwise by w^2."""
        out = []
        for g, mats in zip(sc, self.stacks(v)):
            if g.w_sq is not None:
                out.append(g.w_sq * mats)
            else:
                w = g.w.swapaxes(-1, -2) if adjoint else g.w
                out.append(w.swapaxes(-1, -2) @ mats @ w)
        return self.flat(out)

    def jordan_solve(self, sc: list, rhs: list) -> np.ndarray:
        """Solve lam o U = RHS in scaled coordinates (lam is diagonal)."""
        return self.flat([r / g.half_sum for r, g in zip(rhs, sc)])

    def jordan_product(self, u: np.ndarray, v: np.ndarray) -> list:
        """Symmetrized product of two scaled-space vectors, per group; on
        side 1 the plain product."""
        prods = []
        for um, vm in zip(self.stacks(u), self.stacks(v)):
            if um.shape[-1] == 1:
                prods.append(um * vm)
            else:
                p = um @ vm
                prods.append(0.5 * (p + p.swapaxes(-1, -2)))
        return prods

    def comp_rhs(self, sc: list, sigma_mu: float, corr: list | None) -> list:
        """sigma*mu*e - lam o lam - corr, per group, in scaled coordinates."""
        rhs = [(sigma_mu - g.lam_sq)[:, :, None] * eye for g, eye in zip(sc, self.eyes)]
        return rhs if corr is None else [r - q for r, q in zip(rhs, corr)]

    def max_step(self, sc: list, *directions: np.ndarray) -> float:
        """sup alpha with lam + alpha * d in the cone for every scaled-space
        direction d."""
        least = np.inf
        for g, dm in zip(sc, self.stacks(np.array(directions))):
            least = min(least, _least_eig(dm * g.root[:, :, None] * g.root[:, None, :]))
        return -1.0 / least if least < 0 else np.inf

    def min_eig(self, v: np.ndarray) -> float:
        """Least eigenvalue over all blocks (least entry for NONNEG)."""
        return min(_least_eig(m) for m in self.stacks(v))


def _least_eig(stack: np.ndarray) -> float:
    """Least eigenvalue over a (..., k, k) stack; a 1 x 1 matrix is its own."""
    least = stack if stack.shape[-1] == 1 else np.linalg.eigvalsh(stack)[..., 0]
    return float(least.min())


class _Rows:
    """The constraint rows, block-sparse, set up once per A from the
    :class:`_Coo` A of the SDP, which it does not keep: per group the pieces
    of the rows that touch its blocks, as padded (nblk, L, ...) parts, L the
    most rows touching one block, padding rows being zero pieces charged to
    row 0.  A PSD group has one part of k x k pieces.  The side-1 group has a
    part of the columns touching one row, and one of the few touching several
    rows (the split free variables of a boxed program) over their row
    support."""

    def __init__(self, cone: _Cone, a: _Coo):
        m, dim = self.shape = a.shape
        rows, cols, vals = a.rows, a.cols, a.vals
        # each column's group, block in the group and svec entry in the block
        group, block, entry = (np.empty(dim, dtype=np.intp) for _ in range(3))
        at = [cols for _, _, cols in cone.groups]
        for g, cols_g in enumerate(at):
            group[cols_g] = g
            block[cols_g] = np.arange(cols_g.shape[0])[:, None]
            entry[cols_g] = np.arange(cols_g.shape[1])
        self.parts, bar_at, k_idx = [], [], []
        for g, (k, nblk, _) in enumerate(cone.groups):
            nz = group[cols] == g
            r, b, v = rows[nz], block[cols[nz]], vals[nz]
            if k == 1:
                count = np.bincount(b, minlength=nblk)
                one, many = count[b] == 1, np.flatnonzero(count > 1)
                parts = [(b[one][:, None, None], v[one][:, None, None], r[one][:, None],
                          at[g][b[one]])]
                if many.size:
                    sup, sup_at = np.unique(r[~one], return_inverse=True)
                    dense = np.zeros((1, sup.size, many.size))
                    dense[0, sup_at, np.searchsorted(many, b[~one])] = v[~one]
                    parts.append((many, dense, sup[None], at[g][many, 0][None]))
            else:
                # the (block, row) pairs that touch, sorted by block, and each
                # pair's slot among its block's rows
                pair, inv = np.unique(b * m + r, return_inverse=True)
                pair_blk, pair_row = np.divmod(pair, m)
                count = np.bincount(pair_blk, minlength=nblk)
                slot = np.arange(pair.size) - (np.cumsum(count) - count)[pair_blk]
                touch = np.zeros((nblk, count.max()), dtype=np.intp)
                touch[pair_blk, slot] = pair_row
                piece = np.zeros(touch.shape + at[g].shape[1:])
                piece[pair_blk[inv], slot[inv], entry[cols[nz]]] = v
                parts = [(None, piece, touch, at[g])]
            for sel, piece, touch, entries in parts:
                self.parts.append((g, sel, smat(piece, k) if sel is None else piece))
                shape = touch.shape + entries.shape[-1:]
                bar_at.append((np.broadcast_to(touch[:, :, None], shape).ravel(),
                               np.broadcast_to(entries[:, None, :], shape).ravel()))
                k_idx.append((touch[:, :, None] * m + touch[:, None, :]).ravel())
        # the scaled rows' nonzero pattern, in the order scale() lists them
        self.bar_at = [np.concatenate(ix) for ix in zip(*bar_at)]
        self.k_idx = np.concatenate(k_idx)
        self.nbytes = self.k_idx.nbytes + sum(ix.nbytes for ix in self.bar_at) + sum(
            v.nbytes for _, sel, piece in self.parts for v in (sel, piece) if v is not None)

    def scale(self, sc: list) -> tuple[_Coo, np.ndarray]:
        """The scaled rows svec(W^T A_i W) and the Schur matrix K, their Gram
        matrix, scattered in from one small Gram matrix per block."""
        scaled = []
        for g, sel, piece in self.parts:
            if sel is None:
                w = sc[g].w[:, None]
                scaled.append(svec(w.swapaxes(-1, -2) @ piece @ w))
            else:  # a side-1 entry scales by the w^2 of its column
                scaled.append(piece * sc[g].w_sq[sel, 0, 0])
        grams = [(s @ s.swapaxes(-1, -2)).ravel() for s in scaled]
        m = self.shape[0]
        k_mat = np.bincount(self.k_idx, np.concatenate(grams), minlength=m * m)
        bar = np.concatenate([v.ravel() for v in scaled])
        return _Coo(*self.bar_at, bar, self.shape), k_mat.reshape(m, m)


class _Setup:
    """What a solve derives from A, c and the blocks alone, kept on a shared
    A: the cone groups, the rows, the identity start and, once a solve on A
    has taken a step, the first step's Newton system (see the module
    docstring).  ``nbytes`` counts every array held."""

    def __init__(self, sdp: BlockSdp):
        self.cone = cone = _Cone(sdp)
        self.rows = _Rows(cone, sdp.coo)
        self.start = cone.identity()  # shared: never written
        self.start.flags.writeable = False
        self.first = None
        self.nbytes = self.rows.nbytes + sum(v.nbytes for v in (
            self.start, cone.stack_at, cone.stack_scale, cone.flat_at, cone.flat_scale,
            *cone.eyes, *(cols for _, _, cols in cone.groups)))

    def keep_first(self, first: tuple) -> None:
        """Keep (sc, abar, K, factor, cbar, ahc, u_g, proj_resid) if it fits
        the budget beside the rest; abar's indices are the rows'."""
        sc, abar, *arrays = first
        arrays += [v for g in sc for v in g if v is not None] + [abar.vals]
        nbytes = self.nbytes + sum(v.nbytes for v in arrays)
        if nbytes <= _KEPT_SETUP_BYTES:
            for v in arrays:  # shared: never written
                v.flags.writeable = False
            self.first, self.nbytes = first, nbytes


@cache
def _lapack():
    """scipy's LAPACK wrappers, imported at the first call only."""
    from scipy.linalg import lapack

    return lapack


def _norm(v: np.ndarray) -> float:
    """||v|| of a contiguous 1-D float vector, as ``np.linalg.norm`` computes it."""
    return float(np.sqrt(v.dot(v)))


def _chol_with_regularization(k_mat: np.ndarray):
    """Lower Cholesky factor of K by LAPACK potrf, retried on breakdown with
    K + delta*I, delta starting at 1e-12 times K's mean diagonal (at least
    1e-12) and growing 1000-fold, for up to eight attempts; None if all fail.

    The shift keeps the factor usable when K degenerates at the path's
    endgame; accuracy is recovered by refinement against K itself.
    """
    scale = max(float(np.trace(k_mat)) / max(k_mat.shape[0], 1), 1.0)
    reg = 0.0
    for _ in range(8):
        shifted = k_mat + reg * np.eye(k_mat.shape[0]) if reg else k_mat
        factor, info = _lapack().dpotrf(shifted, lower=1, clean=0)
        if info == 0:
            return factor
        reg = scale * 1e-12 if reg == 0.0 else reg * 1000.0
    return None


def _refined_solve(factor, k_mat: np.ndarray, rhs: np.ndarray):
    """LAPACK potrs solve with the Cholesky factor, iteratively refined
    against the unregularized K for up to five rounds.

    Refinement stops at the target or once a round fails to halve the
    residual: at the noise floor of an ill-conditioned K further rounds only
    wander.  The iterate with the smaller residual is returned.  With no
    rows, potrs refuses the empty system, whose solution is empty.
    """
    if not rhs.size:
        return rhs.copy()
    u = _lapack().dpotrs(factor, rhs, lower=1)[0]
    resid = rhs - k_mat @ u
    norm = _norm(resid)
    target = 1e-13 * (_norm(rhs) + 1.0)
    for _ in range(5):
        if norm <= target:
            break
        trial = u + _lapack().dpotrs(factor, resid, lower=1)[0]
        trial_resid = rhs - k_mat @ trial
        trial_norm = _norm(trial_resid)
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
) -> SdpSolution:
    """Solve a block SDP via the homogeneous self-dual embedding.

    ``eps`` is the duality-gap and infeasibility-ray threshold and the
    default ``feastol``.  A status of OPTIMAL certifies the objective
    through the achieved duality gap, which is 0 for a program with c = 0;
    infeasibility statuses carry the normalized improving ray and its
    quality (see the module docstring).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    feastol = eps if feastol is None else feastol
    _lapack()  # the first solve imports scipy, outside the stage clocks

    a = sdp.coo
    setup, setup_s = a.setup, 0.0
    if setup is None:
        t0 = perf_counter()
        setup = _Setup(sdp)
        # an A of one SDP frees its set-up with the solve, and so does a
        # shared A whose set-up is too large to keep
        if a.shared and setup.nbytes <= _KEPT_SETUP_BYTES:
            a.setup = setup
        setup_s = perf_counter() - t0
    ops, rows, e = setup.cone, setup.rows, setup.start
    b = sdp.b
    c = sdp.c
    m = sdp.num_constraints
    nu = ops.degree + 1

    # seconds per stage, charged by wrapping the calls that do its work
    timings = {"setup_s": setup_s, "schur_s": 0.0, "cholesky_s": 0.0, "cone_s": 0.0}

    def clocked(stage, fn):
        def run(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                timings[stage] += perf_counter() - t0

        return run

    scale_rows = clocked("schur_s", rows.scale)
    factorize = clocked("cholesky_s", _chol_with_regularization)
    refined_solve = clocked("cholesky_s", _refined_solve)
    # the clocked cone operations live apart from the _Cone: set on it, they
    # would close a reference cycle through its bound methods
    cone = SimpleNamespace(**{
        name: clocked("cone_s", getattr(ops, name))
        for name in ("scaling", "congruence", "jordan_solve", "jordan_product", "comp_rhs",
                     "max_step", "min_eig")
    })

    x = e.copy()
    s = e.copy()
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0

    norm_b = 1.0 + _norm(b)
    norm_c = 1.0 + _norm(c)
    # min 0: every feasible x is optimal, and the zero dual certifies it
    feasibility = not c.any()

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

    def polish_primal(xhat, resid):  # resid = A xhat - b; returns both, polished
        if step is None:
            return xhat, resid
        sc, abar, k_mat, factor = step
        u = refined_solve(factor, k_mat, resid)
        corrected = xhat - cone.congruence(sc, abar.tdot(u), True)
        new = a.dot(corrected) - b
        if _norm(new) < _norm(resid) and cone.min_eig(corrected) >= 0.0:
            return corrected, new
        return xhat, resid

    def current_metrics(ax, aty):
        xhat = x / tau
        resid = ax / tau - b
        if feasibility:
            yhat, shat, dres = np.zeros(m), np.zeros_like(x), 0.0
        else:
            yhat = y / tau
            shat = s / tau
            dres = _norm(aty / tau + shat - c) / norm_c
        if dres <= feastol:
            # the polish leaves (y, s) alone, so only a point that can be
            # accepted is worth polishing
            xhat, resid = polish_primal(xhat, resid)
        pres = _norm(resid) / norm_b
        pobj = float(c @ xhat)
        dobj = float(b @ yhat)
        # honest gap: x.s unclamped, and the objective gap it stands for
        gap = max(float(xhat @ shat), abs(pobj - dobj))
        relgap = gap / max(1.0, abs(pobj), abs(dobj))
        return xhat, yhat, shat, pres, dres, pobj, dobj, gap, relgap

    def converged(metrics):
        _, _, _, pres, dres, _, _, gap, relgap = metrics
        return pres <= feastol and dres <= feastol and (gap <= eps or relgap <= eps)

    def report(status, iteration, point, message=""):
        metrics, tau_p, kappa_p, mu_p = point
        xhat, yhat, shat, pres, dres, pobj, dobj, gap, relgap = metrics
        return SdpSolution(
            status=status, objective=pobj, x_blocks=sdp.unpack(xhat), y=yhat,
            s_blocks=sdp.unpack(shat), primal_res=pres, dual_res=dres, gap=gap, relgap=relgap,
            iterations=iteration, tau=tau_p, kappa=kappa_p, message=message,
            diagnostics={"dual_objective": dobj, "mu": mu_p, "mu0": mu0, "timings": timings},
        )

    def ray(status, iteration, quality, message, **normalized):  # of the current iterate
        return SdpSolution(status=status, iterations=iteration, tau=tau, kappa=kappa,
                           message=message, **normalized,
                           diagnostics={"ray_quality": quality, "timings": timings})

    consecutive_small_steps = 0
    best_err = np.inf
    best_point = None
    best_iteration = 0

    for iteration in range(max_iter + 1):
        mu = (float(x @ s) + tau * kappa) / nu

        # -- convergence / certificate checks ---------------------------
        # A x and A^T y, taken once here, serve the metrics, the ray checks
        # and the residuals of the step
        ax, aty = a.dot(x), a.tdot(y)
        metrics = current_metrics(ax, aty)
        _, _, _, pres, dres, pobj, dobj, gap, relgap = metrics
        point = (metrics, tau, kappa, mu)
        err = max(pres, dres, min(gap, relgap))
        if best_point is None or err < best_err:
            best_err = err
            best_point = point
            best_iteration = iteration
        if converged(metrics):
            return report(SdpStatus.OPTIMAL, iteration, point)

        bty, ctx = float(b @ y), float(c @ x)
        if bty > 0 and (feasibility or _norm(aty + s) / bty <= eps):
            # the ray's exact slack; the norm test bounds its least eigenvalue
            # by -eps, and a feasibility problem tests that eigenvalue itself
            slack = -aty / bty
            qual = max(0.0, -cone.min_eig(slack))
            if qual <= eps or not feasibility:
                return ray(SdpStatus.PRIMAL_INFEASIBLE, iteration, qual,
                           "dual improving ray found", y=y / bty, s_blocks=sdp.unpack(slack))
        if ctx < 0 and (qual := _norm(ax) / (-ctx)) <= eps:
            return ray(SdpStatus.DUAL_INFEASIBLE_OR_UNBOUNDED, iteration, qual,
                       "primal improving ray found", x_blocks=sdp.unpack(x / (-ctx)))

        # every point seen failed its own convergence check, the best one too
        stalled = iteration - best_iteration >= 12
        if iteration == max_iter or stalled:
            return report(SdpStatus.INCONCLUSIVE, iteration, best_point,
                          "progress stalled" if stalled else "iteration cap reached")
        if tau < 1e-13 and kappa < 1e-13:
            return report(SdpStatus.INCONCLUSIVE, iteration, best_point,
                          "tau and kappa both vanished (ill-posed)")
        if mu < 1e-17:
            return report(SdpStatus.INCONCLUSIVE, iteration, best_point,
                          "complementarity at numerical floor")

        # -- Nesterov-Todd scaling and Schur complement ------------------
        # the first step's system is the set-up's when a solve on A kept it
        if iteration == 0 and setup.first is not None:
            sc, abar, k_mat, factor, cbar, ahc, u_g, proj_resid = setup.first
        else:
            try:
                sc = cone.scaling(x, s)
            except np.linalg.LinAlgError:
                return report(SdpStatus.INCONCLUSIVE, iteration, best_point,
                              "scaling breakdown (iterate left cone)")
            abar, k_mat = scale_rows(sc)
            cbar = cone.congruence(sc, c)
            factor = factorize(k_mat)
            if factor is None:
                return report(SdpStatus.INCONCLUSIVE, iteration, best_point,
                              "Schur complement factorization failed")
            ahc = abar.dot(cbar)  # A H c with H the NT scaling operator
            u_g = refined_solve(factor, k_mat, ahc)
            # (b - g)^T K^{-1} (b + g) + c^T H c telescopes to
            # b^T K^{-1} b + || (I - P) cbar ||^2 with P the projection onto
            # the scaled row space; the residual form avoids catastrophic
            # cancellation.
            proj_resid = cbar - abar.tdot(u_g)
            if iteration == 0 and a.setup is setup:
                setup.keep_first((sc, abar, k_mat, factor, cbar, ahc, u_g, proj_resid))
        step = (sc, abar, k_mat, factor)

        # residual vectors of the embedding
        r_p = ax - b * tau
        r_d = aty + s - c * tau
        r_g = float(b @ y - c @ x) - kappa

        bhc = b - ahc
        u_b = refined_solve(factor, k_mat, b)
        u1 = u_b + u_g
        denom = kappa / tau + float(b @ u_b) + float(proj_resid @ proj_resid)
        if not np.isfinite(denom) or denom < 1e-300:
            return report(SdpStatus.INCONCLUSIVE, iteration, best_point,
                          "singular embedding system")

        def solve_kkt(eta, comp_rhs_blocks, rtk):
            """Return the search direction for the given right-hand side."""
            r1 = -eta * r_p
            r2_vec = eta * r_d  # enters the eliminated system with a flipped sign
            r3 = -eta * r_g
            d2 = cone.jordan_solve(sc, comp_rhs_blocks)
            r2bar = cone.congruence(sc, r2_vec)
            u2 = refined_solve(factor, k_mat, r1 - abar.dot(d2 + r2bar))
            rhs2 = r3 + rtk / tau + float(cbar @ (d2 + r2bar))
            dtau = (rhs2 - float(bhc @ u2)) / denom
            dy = u2 + dtau * u1
            ds = -r2_vec - a.tdot(dy) + c * dtau
            ds_scaled = cone.congruence(sc, ds)
            dx_scaled = d2 - ds_scaled
            dx = cone.congruence(sc, dx_scaled, True)
            dkappa = (rtk - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa, dx_scaled, ds_scaled

        def step_to_boundary(dxs, dss, dtau, dkappa):
            """sup alpha keeping (x, s, tau, kappa) + alpha * d in the cone,
            for dx and ds given scaled."""
            alpha = cone.max_step(sc, dxs, dss)
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return alpha

        # -- predictor (affine) ------------------------------------------
        comp_aff = cone.comp_rhs(sc, 0.0, None)
        dx_a, _, ds_a, dtau_a, dkap_a, dxs_a, dss_a = solve_kkt(1.0, comp_aff, -tau * kappa)
        alpha_a = min(1.0, step_to_boundary(dxs_a, dss_a, dtau_a, dkap_a))

        mu_aff = (
            float((x + alpha_a * dx_a) @ (s + alpha_a * ds_a))
            + (tau + alpha_a * dtau_a) * (kappa + alpha_a * dkap_a)
        ) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))

        # -- corrector (combined) -----------------------------------------
        corr = cone.jordan_product(dxs_a, dss_a)
        comp = cone.comp_rhs(sc, sigma * mu, corr)
        rtk = sigma * mu - tau * kappa - dtau_a * dkap_a
        dx, dy, ds, dtau, dkappa, dxs, dss = solve_kkt(1.0 - sigma, comp, rtk)
        alpha = min(1.0, _STEP_FRACTION * step_to_boundary(dxs, dss, dtau, dkappa))

        if alpha < _MIN_STEP:
            consecutive_small_steps += 1
            if consecutive_small_steps >= 3:
                return report(SdpStatus.INCONCLUSIVE, iteration, best_point,
                              "step length collapsed")
        else:
            consecutive_small_steps = 0

        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa
