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
ends OPTIMAL at the first x / tau (polished or not) within eps of
{A x = b}, or PRIMAL_INFEASIBLE at the first b^T y > 0 whose ray has
quality <= eps.  The iterates are those of any other program; only the
exits differ.

Once the dual residual is within eps (always, when c = 0), the reported
primal point is x / tau projected onto {A x = b} in the Nesterov-Todd
metric of the latest step, but only when the projection stays in the cone;
otherwise it is x / tau itself, which is interior.  Its gap is the larger of
the unclamped x.s and |c^T x - b^T y|, so OPTIMAL means an in-cone x,
residuals within eps and a primal-dual objective gap within eps.

The state of a solve is explicit: an ``_Iterate`` (x, y, s, tau, kappa),
the ``_Newton`` system at it (scaling, scaled rows, Schur matrix and factor,
and c's terms) and the ``_Point`` it reports.  A ``_Solve`` holds the data,
set-up and clocks of one solve; its methods map one record to the next.

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
loaded from scipy's compiled ``scipy.linalg._flapack`` alone at the first
solve: importing the package, parsing, building and auditing never load scipy.

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

import sys
from collections import namedtuple
from functools import cache
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from numbers import Integral
from time import perf_counter

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

# an iterate (x, y, s, tau, kappa) of the embedding, or a search direction
_Iterate = namedtuple("_Iterate", "x y s tau kappa")

# the Newton system at an iterate (_Solve.newton): its scalings, the scaled
# rows abar, their Schur matrix K and its factor, and c's terms cbar = H c (H
# the NT scaling), ahc = A H c, u_g = K^-1 ahc and proj_resid = cbar - abar^T u_g
_Newton = namedtuple("_Newton", "sc abar k_mat factor cbar ahc u_g proj_resid")

# the embedding's residuals at an iterate, and the terms b - A H c, K^-1 (b +
# A H c) and pivot of the (y, tau) system that the Newton system eliminates
_Embedding = namedtuple("_Embedding", "r_p r_d r_g bhc u1 denom")

# a reported point: x, y and s over tau, x polished or not, or a ray's
# normalized parts (None where it has none); the iterate's tau, kappa and mu;
# and the point's residuals, objectives and gap, which a ray lacks
_Point = namedtuple("_Point", "x y s tau kappa mu pres dres pobj dobj gap relgap",
                    defaults=(None, np.nan, np.nan, None, None, np.nan, np.nan))


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
    rows (the split free variables of a relaxation) over their row support."""

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

    def keep_first(self, nt: _Newton) -> None:
        """Keep the first step's Newton system if it fits the budget beside
        the rest; its scaled rows' indices are the rows'."""
        arrays = [v for g in nt.sc for v in g if v is not None] + [
            nt.abar.vals, nt.k_mat, nt.factor, nt.cbar, nt.ahc, nt.u_g, nt.proj_resid]
        nbytes = self.nbytes + sum(v.nbytes for v in arrays)
        if nbytes <= _KEPT_SETUP_BYTES:
            for v in arrays:  # shared: never written
                v.flags.writeable = False
            self.first, self.nbytes = nt, nbytes


@cache
def _lapack():
    """scipy's compiled LAPACK module, whose dpotrf and dpotrs ``scipy.linalg.lapack``
    exports, loaded at the first call without running the ``scipy.linalg`` package."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = find_spec("scipy")  # finds the package without importing it
    linalg = [f"{d}/linalg" for d in (scipy and scipy.submodule_search_locations) or ()]
    spec = PathFinder.find_spec(name, linalg)
    if spec is None:
        raise ImportError(f"no {name} in {linalg}" if linalg
                          else f"scipy is not installed; the solver loads {name} from it")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(name, module)


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


class _Clocked:
    """``fn``, adding the seconds of each call to ``timings[stage]``."""

    def __init__(self, timings: dict, stage: str, fn):
        self.timings, self.stage, self.fn = timings, stage, fn

    def __call__(self, *args):
        t0 = perf_counter()
        try:
            return self.fn(*args)
        finally:
            self.timings[self.stage] += perf_counter() - t0


class _Solve:
    """One solve's data, set-up and clocked operations, and the steps of its
    iteration as functions of the records above.  The clocked cone
    operations live here, apart from the _Cone: set on it, they would close
    a reference cycle through its bound methods."""

    def __init__(self, sdp: BlockSdp, eps: float):
        self.sdp, self.a, self.b, self.c, self.eps = sdp, sdp.coo, sdp.b, sdp.c, eps
        setup, setup_s = self.a.setup, 0.0
        if setup is None:
            t0 = perf_counter()
            setup = _Setup(sdp)
            # an A of one SDP frees its set-up with the solve, and so does a
            # shared A whose set-up is too large to keep
            if self.a.shared and setup.nbytes <= _KEPT_SETUP_BYTES:
                self.a.setup = setup
            setup_s = perf_counter() - t0
        self.setup, self.m, self.nu = setup, sdp.num_constraints, setup.cone.degree + 1
        self.norm_b, self.norm_c = 1.0 + _norm(self.b), 1.0 + _norm(self.c)
        # min 0: every feasible x is optimal, and the zero dual certifies it
        self.feasibility = not self.c.any()
        # seconds per stage, charged by wrapping the calls that do its work
        self.timings = {"setup_s": setup_s, "schur_s": 0.0, "cholesky_s": 0.0, "cone_s": 0.0}
        self.scale_rows = _Clocked(self.timings, "schur_s", setup.rows.scale)
        self.factorize = _Clocked(self.timings, "cholesky_s", _chol_with_regularization)
        self.refined_solve = _Clocked(self.timings, "cholesky_s", _refined_solve)
        for name in ("scaling", "congruence", "jordan_solve", "jordan_product", "comp_rhs",
                     "max_step", "min_eig"):
            setattr(self, name, _Clocked(self.timings, "cone_s", getattr(setup.cone, name)))

    def newton(self, v: _Iterate, first: bool) -> _Newton | str:
        """The Newton system at v: at the first step the set-up's, if a
        solve on A kept it, and else formed and offered to a shared A's
        set-up.  On a breakdown, the message of its INCONCLUSIVE exit."""
        if first and self.setup.first is not None:
            return self.setup.first
        try:
            sc = self.scaling(v.x, v.s)
        except np.linalg.LinAlgError:
            return "scaling breakdown (iterate left cone)"
        abar, k_mat = self.scale_rows(sc)
        cbar = self.congruence(sc, self.c)
        factor = self.factorize(k_mat)
        if factor is None:
            return "Schur complement factorization failed"
        ahc = abar.dot(cbar)
        u_g = self.refined_solve(factor, k_mat, ahc)
        # (b - g)^T K^{-1} (b + g) + c^T H c telescopes to
        # b^T K^{-1} b + || (I - P) cbar ||^2 with P the projection onto
        # the scaled row space; the residual form avoids catastrophic
        # cancellation.
        nt = _Newton(sc, abar, k_mat, factor, cbar, ahc, u_g, cbar - abar.tdot(u_g))
        if first and self.a.setup is self.setup:
            self.setup.keep_first(nt)
        return nt

    def polish(self, nt: _Newton, x: np.ndarray, resid: np.ndarray):
        """x and resid = A x - b, projected onto {A x = b} in the metric of
        nt (dx = -W (sum_i u_i A_i) W^T with K u = A x - b), which removes the
        noise the direction recovery injects into A x - b, unless that leaves
        the cone, as it can on a degenerate face, or raises the residual."""
        u = self.refined_solve(nt.factor, nt.k_mat, resid)
        corrected = x - self.congruence(nt.sc, nt.abar.tdot(u), True)
        new = self.a.dot(corrected) - self.b
        if _norm(new) < _norm(resid) and self.min_eig(corrected) >= 0.0:
            return corrected, new
        return x, resid

    def point(self, v: _Iterate, mu: float, ax, aty, nt: _Newton | None) -> _Point:
        """The point v reports, given A x and A^T y, polished by the latest
        step's Newton system nt once its dual residual is within eps.  The
        iterate itself is never polished."""
        x, resid = v.x / v.tau, ax / v.tau - self.b
        if self.feasibility:
            y, s, dres = np.zeros(self.m), np.zeros_like(x), 0.0
        else:
            y, s = v.y / v.tau, v.s / v.tau
            dres = _norm(aty / v.tau + s - self.c) / self.norm_c
        if dres <= self.eps and nt is not None:
            # the polish leaves (y, s) alone, so only a point that can be
            # accepted is worth polishing
            x, resid = self.polish(nt, x, resid)
        pobj, dobj = float(self.c @ x), float(self.b @ y)
        # honest gap: x.s unclamped, and the objective gap it stands for
        gap = max(float(x @ s), abs(pobj - dobj))
        return _Point(x, y, s, v.tau, v.kappa, mu, _norm(resid) / self.norm_b, dres, pobj, dobj,
                      gap, gap / max(1.0, abs(pobj), abs(dobj)))

    def direction(self, nt: _Newton, v: _Iterate, emb: _Embedding, eta: float, comp: list,
                  rtk: float):
        """The search direction for the given right-hand side, as an
        _Iterate, and its x and s parts scaled."""
        r2 = eta * emb.r_d  # enters the eliminated system with a flipped sign
        d2 = self.jordan_solve(nt.sc, comp)
        r2bar = self.congruence(nt.sc, r2)
        u2 = self.refined_solve(nt.factor, nt.k_mat, -eta * emb.r_p - nt.abar.dot(d2 + r2bar))
        rhs2 = -eta * emb.r_g + rtk / v.tau + float(nt.cbar @ (d2 + r2bar))
        dtau = (rhs2 - float(emb.bhc @ u2)) / emb.denom
        dy = u2 + dtau * emb.u1
        ds = -r2 - self.a.tdot(dy) + self.c * dtau
        ds_scaled = self.congruence(nt.sc, ds)
        dx_scaled = d2 - ds_scaled
        dx = self.congruence(nt.sc, dx_scaled, True)
        return _Iterate(dx, dy, ds, dtau, (rtk - v.kappa * dtau) / v.tau), dx_scaled, ds_scaled

    def step_to_boundary(self, nt: _Newton, v: _Iterate, d: _Iterate, dxs, dss) -> float:
        """sup alpha keeping v + alpha * d in the cone, for d's x and s
        given scaled."""
        alpha = self.max_step(nt.sc, dxs, dss)
        if d.tau < 0:
            alpha = min(alpha, -v.tau / d.tau)
        if d.kappa < 0:
            alpha = min(alpha, -v.kappa / d.kappa)
        return alpha

    def solution(self, status: SdpStatus, iteration: int, p: _Point, message: str = "",
                 quality: float | None = None) -> SdpSolution:
        """The SdpSolution at a point or, given its quality, at a ray."""
        diagnostics = ({"dual_objective": p.dobj, "mu": p.mu} if quality is None
                       else {"ray_quality": quality})
        x_blocks, s_blocks = (None if v is None else self.sdp.unpack(v) for v in (p.x, p.s))
        return SdpSolution(
            status=status, objective=p.pobj, x_blocks=x_blocks, y=p.y, s_blocks=s_blocks,
            primal_res=p.pres, dual_res=p.dres, gap=p.gap, relgap=p.relgap,
            iterations=iteration, tau=p.tau, kappa=p.kappa, message=message,
            diagnostics={**diagnostics, "timings": self.timings})


def solve(sdp: BlockSdp, eps: float = 1e-8, max_iter: int = 200) -> SdpSolution:
    """Solve a block SDP via the homogeneous self-dual embedding.

    ``eps`` bounds the residuals, the duality gap and an infeasibility ray's
    quality; ``max_iter`` caps the iterations.  A status of OPTIMAL
    certifies the objective through the achieved duality gap, which is 0 for
    a program with c = 0; infeasibility statuses carry the normalized
    improving ray and its quality (see the module docstring).
    """
    if not np.isfinite(eps):
        raise ValueError("eps must be finite")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral):
        raise ValueError("max_iter must be an integer")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    _lapack()  # the first solve loads scipy's _flapack, outside the stage clocks

    run = _Solve(sdp, eps)
    b, c, e = sdp.b, sdp.c, run.setup.start
    v = _Iterate(e.copy(), np.zeros(run.m), e.copy(), 1.0, 1.0)
    nt, best, best_err, best_iteration, small_steps = None, None, np.inf, 0, 0
    for iteration in range(max_iter + 1):
        mu = (float(v.x @ v.s) + v.tau * v.kappa) / run.nu

        # -- convergence / certificate checks ---------------------------
        # A x and A^T y, taken once here, serve the point, the ray checks
        # and the residuals of the step
        ax, aty = run.a.dot(v.x), run.a.tdot(v.y)
        point = run.point(v, mu, ax, aty, nt)
        err = max(point.pres, point.dres, min(point.gap, point.relgap))
        if best is None or err < best_err:
            best, best_err, best_iteration = point, err, iteration
        if point.pres <= eps and point.dres <= eps and (point.gap <= eps or point.relgap <= eps):
            return run.solution(SdpStatus.OPTIMAL, iteration, point)

        bty, ctx = float(b @ v.y), float(c @ v.x)
        if bty > 0 and (run.feasibility or _norm(aty + v.s) / bty <= eps):
            # the ray's exact slack; the norm test bounds its least eigenvalue
            # by -eps, and a feasibility problem tests that eigenvalue itself
            slack = -aty / bty
            qual = max(0.0, -run.min_eig(slack))
            if qual <= eps or not run.feasibility:
                return run.solution(SdpStatus.PRIMAL_INFEASIBLE, iteration,
                                    _Point(None, v.y / bty, slack, v.tau, v.kappa),
                                    "dual improving ray found", qual)
        if ctx < 0 and (qual := _norm(ax) / (-ctx)) <= eps:
            return run.solution(SdpStatus.DUAL_INFEASIBLE_OR_UNBOUNDED, iteration,
                                _Point(v.x / (-ctx), None, None, v.tau, v.kappa),
                                "primal improving ray found", qual)

        # -- exits that report the best point ---------------------------
        # every point seen failed its own convergence check, the best one too
        stalled = iteration - best_iteration >= 12
        if iteration == max_iter or stalled:
            message = "progress stalled" if stalled else "iteration cap reached"
            break
        if v.tau < 1e-13 and v.kappa < 1e-13:
            message = "tau and kappa both vanished (ill-posed)"
            break
        if mu < 1e-17:
            message = "complementarity at numerical floor"
            break
        nt = run.newton(v, iteration == 0)
        if isinstance(nt, str):
            message = nt
            break
        u_b = run.refined_solve(nt.factor, nt.k_mat, b)
        emb = _Embedding(ax - b * v.tau, aty + v.s - c * v.tau, bty - ctx - v.kappa,
                         b - nt.ahc, u_b + nt.u_g,
                         v.kappa / v.tau + float(b @ u_b) + float(nt.proj_resid @ nt.proj_resid))
        if not np.isfinite(emb.denom) or emb.denom < 1e-300:
            message = "singular embedding system"
            break

        # -- predictor (affine) ------------------------------------------
        d_a, dxs_a, dss_a = run.direction(nt, v, emb, 1.0, run.comp_rhs(nt.sc, 0.0, None),
                                          -v.tau * v.kappa)
        alpha_a = min(1.0, run.step_to_boundary(nt, v, d_a, dxs_a, dss_a))
        mu_aff = (float((v.x + alpha_a * d_a.x) @ (v.s + alpha_a * d_a.s))
                  + (v.tau + alpha_a * d_a.tau) * (v.kappa + alpha_a * d_a.kappa)) / run.nu
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))

        # -- corrector (combined) -----------------------------------------
        comp = run.comp_rhs(nt.sc, sigma * mu, run.jordan_product(dxs_a, dss_a))
        rtk = sigma * mu - v.tau * v.kappa - d_a.tau * d_a.kappa
        d, dxs, dss = run.direction(nt, v, emb, 1.0 - sigma, comp, rtk)
        alpha = min(1.0, _STEP_FRACTION * run.step_to_boundary(nt, v, d, dxs, dss))
        small_steps = small_steps + 1 if alpha < _MIN_STEP else 0
        if small_steps >= 3:
            message = "step length collapsed"
            break
        v = _Iterate(v.x + alpha * d.x, v.y + alpha * d.y, v.s + alpha * d.s,
                     v.tau + alpha * d.tau, v.kappa + alpha * d.kappa)
    return run.solution(SdpStatus.INCONCLUSIVE, iteration, best, message)
