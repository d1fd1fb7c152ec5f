"""Block SDP data model.

A ``BlockSdp`` is the standard primal form

    min <C, X>   s.t.  <A_i, X> = b_i  (i = 1..m),   X in K,

where K is a product of PSD(k) cones (k x k positive-semidefinite matrices)
and NONNEG(k) cones (k nonnegative scalars, i.e. a diagonal block).

Internally all symmetric data is stored in "svec" coordinates: the upper
triangle, row-major, with off-diagonal entries scaled by sqrt(2) so that
the Euclidean inner product of svec vectors equals the Frobenius inner
product of the matrices.  NONNEG blocks are stored as plain vectors.
``_svec_index`` holds the one definition of these coordinates, which
:func:`svec`, :func:`smat`, :func:`export_sparse`, :class:`SdpBuilder` and
the solver's cone operations share.

:class:`SdpBuilder` takes rows as flat arrays of entries (row, block, i, j,
value) with their right-hand sides and labels and keeps them as triplets
(row, svec position, value): A keeps that one sparse form up to the solver.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BlockSpec:
    kind: str  # "psd" | "nonneg"
    size: int

    def __post_init__(self):
        if self.kind not in ("psd", "nonneg"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("block size must be >= 1")

    @property
    def vec_dim(self) -> int:
        if self.kind == "psd":
            return self.size * (self.size + 1) // 2
        return self.size


def psd_block(k: int) -> BlockSpec:
    return BlockSpec("psd", k)


def nonneg_block(k: int) -> BlockSpec:
    return BlockSpec("nonneg", k)


@lru_cache(maxsize=None)
def _svec_index(k: int):
    """Index maps of svec for side k, shared by every caller (read-only):
    the flat k*k position of each svec entry (the upper triangle,
    row-major), the svec entry of each flat position, and the svec scale."""
    iu, ju = np.triu_indices(k)
    upper = iu * k + ju
    entry = np.empty((k, k), dtype=np.intp)
    entry[iu, ju] = entry[ju, iu] = np.arange(iu.size)
    scale = np.where(iu == ju, 1.0, SQRT2)
    maps = (upper, entry.reshape(-1), scale)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def svec(mat: np.ndarray) -> np.ndarray:
    """Symmetric vectorization with sqrt(2)-scaled off-diagonals:
    (..., k, k) stacks -> (..., k(k+1)/2)."""
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[-1]
    upper, _, scale = _svec_index(k)
    return mat.reshape(mat.shape[:-2] + (k * k,)).take(upper, axis=-1) * scale


def smat(vec: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`svec`: (..., k(k+1)/2) -> (..., k, k)."""
    _, entry, scale = _svec_index(k)
    vals = np.asarray(vec, dtype=float) / scale
    return vals.take(entry, axis=-1).reshape(vals.shape[:-1] + (k, k))


class SdpStatus(str, Enum):
    OPTIMAL = "OPTIMAL"
    PRIMAL_INFEASIBLE = "PRIMAL_INFEASIBLE"
    DUAL_INFEASIBLE_OR_UNBOUNDED = "DUAL_INFEASIBLE_OR_UNBOUNDED"
    INCONCLUSIVE = "INCONCLUSIVE"


class _Coo:
    """A sparse matrix as (row, column, value) triplets; ``dot`` and ``tdot``
    take its products with a vector by one bincount.  ``shared`` is set once
    :meth:`BlockSdp.with_rhs` gives A to a second SDP; the solver then keeps
    what it derives from A, c and the blocks alone in ``setup``, when small,
    so that every SDP sharing A reuses it: the rows' set-up and, once a
    solve has taken a step, the first step's Newton system.  The set-up
    refers to no A."""

    def __init__(self, rows, cols, vals, shape):
        self.rows, self.cols, self.vals, self.shape = rows, cols, vals, shape
        self.shared, self.setup = False, None

    def dot(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * v[self.cols], minlength=self.shape[0])

    def tdot(self, u: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, self.vals * u[self.rows], minlength=self.shape[1])


def _rhs_vector(b, rows: int | None = None) -> np.ndarray:
    """b as a flat float vector, checked finite and, given ``rows``, of that length."""
    b = np.asarray(b, dtype=float).reshape(-1)
    if rows is not None and b.size != rows:
        raise ValueError(f"b has {b.size} entries for {rows} rows")
    if not np.isfinite(b).all():
        raise ValueError("b has a non-finite entry")
    return b


class BlockSdp:
    """Immutable standard-form block SDP.  A, given as (row, svec position,
    value) triplets, is kept as the :class:`_Coo` ``coo``: row-major, repeated
    positions summed in the order given, exact zeros (either sign) dropped."""

    def __init__(self, blocks, a_triplets, b, c, row_labels=None):
        self.blocks: tuple[BlockSpec, ...] = tuple(blocks)
        if not self.blocks:
            raise ValueError("a block SDP needs at least one block")
        ends = np.cumsum([0] + [blk.vec_dim for blk in self.blocks]).tolist()
        self.slices: list[slice] = [slice(p, q) for p, q in zip(ends, ends[1:])]
        self.dim: int = ends[-1]
        self.b = _rhs_vector(b)
        self.c = np.array(c, dtype=float).reshape(-1)
        if self.c.size != self.dim:
            raise ValueError("objective dimension mismatch")
        rows, cols, vals = (np.asarray(v, dtype=t).reshape(-1)
                            for v, t in zip(a_triplets, (np.intp, np.intp, float)))
        for name, v in (("c", self.c), ("A", vals)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} has a non-finite entry")
        if rows.size and not (0 <= rows.min() <= rows.max() < self.b.size
                              and 0 <= cols.min() <= cols.max() < self.dim):
            raise ValueError(f"A entry outside the {self.b.size} x {self.dim} constraint matrix")
        at, inv = np.unique(rows * self.dim + cols, return_inverse=True)
        sums = np.bincount(inv, vals, minlength=at.size)  # in the order given
        nz = sums != 0
        self.coo = _Coo(*np.divmod(at[nz], self.dim), sums[nz], (self.b.size, self.dim))
        for arr in (self.c, self.coo.rows, self.coo.cols, self.coo.vals):  # shared: read-only
            arr.flags.writeable = False
        self.row_labels = tuple(row_labels) if row_labels is not None else None  # shared

    def with_rhs(self, b) -> BlockSdp:
        """This SDP with right-hand side b; the blocks, A, c and the row
        labels are shared, and so is the solver's set-up for A."""
        new = copy.copy(self)
        new.b = _rhs_vector(b, self.b.size)
        self.coo.shared = True
        return new

    @property
    def A(self) -> np.ndarray:
        """A as a dense array, built anew on every access."""
        a = np.zeros(self.coo.shape)
        a[self.coo.rows, self.coo.cols] = self.coo.vals
        return a

    @property
    def num_constraints(self) -> int:
        return self.b.size

    def unpack(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a flat svec vector into per-block matrices / vectors."""
        out = []
        for blk, sl in zip(self.blocks, self.slices):
            if blk.kind == "psd":
                out.append(smat(x[sl], blk.size))
            else:
                out.append(np.array(x[sl]))
        return out

    def pack(self, blocks_values) -> np.ndarray:
        """Inverse of :meth:`unpack`."""
        parts = []
        for blk, val in zip(self.blocks, blocks_values):
            if blk.kind == "psd":
                parts.append(svec(np.asarray(val, dtype=float)))
            else:
                parts.append(np.asarray(val, dtype=float).reshape(-1))
        out = np.concatenate(parts)
        if out.size != self.dim:
            raise ValueError("block values do not conform to the block pattern")
        return out


def _columns(entries):
    """(block, i, j, value) tuples as four columns."""
    return tuple(zip(*entries)) or ((),) * 4


class EntryError(ValueError):
    """A fault of one entry given to :meth:`SdpBuilder.add_rows`; ``entry``
    is its index among them, after broadcasting."""

    def __init__(self, entry, message: str):
        super().__init__(message)
        self.entry = int(entry)


class SdpBuilder:
    """Assembly of a BlockSdp from entries given per (block, i, j): for PSD
    blocks (i, j) with i != j sets the symmetric pair, and the svec scaling
    is handled here.  Entries are kept as (row, svec position, value)
    triplet arrays, row -1 being the objective; :meth:`build` sums the
    objective's into c and hands the rest to :class:`BlockSdp`, repeated
    positions summed in the order they were added.  It assembles once and
    returns that SDP until :meth:`add_rows` adds rows.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        sizes = [blk.vec_dim for blk in self.blocks]
        self._offset = np.cumsum([0] + sizes)[:-1]
        self.dim = sum(sizes)
        self._side = np.array([blk.size for blk in self.blocks], dtype=np.intp)
        self._nonneg = np.array([blk.kind == "nonneg" for blk in self.blocks], dtype=bool)
        self._triplets = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        self._rhs: list[float] = []
        self._labels: list[object] = []
        # the last build: build_membership calls build() per matrix, cheaply, so
        # that bench/tracing.py's sdpcore.builder span fires on every call
        self._sdp: BlockSdp | None = None

    def add_rows(self, row, block, i, j, value, rhs, labels=None) -> None:
        """Append one row per entry of ``rhs``, labelled by ``labels``.
        Entry t adds value[t] at (block[t], i[t], j[t]) of new row row[t],
        or of the objective where row[t] is -1; scalars broadcast."""
        row, block, i, j = (np.asarray(v, dtype=np.intp) for v in (row, block, i, j))
        row, block, i, j, value = (v.ravel() for v in np.broadcast_arrays(
            row, block, i, j, np.asarray(value, dtype=float)))
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        labels = [None] * rhs.size if labels is None else list(labels)
        if len(labels) != rhs.size:
            raise ValueError("one label per row is required")
        bad = (row < -1) | (row >= rhs.size)
        if bad.any():
            raise EntryError(np.argmax(bad), "entry row outside the rows being added")
        bad = (block < 0) | (block >= len(self.blocks))
        if bad.any():
            t = np.argmax(bad)
            raise EntryError(t, f"block {block[t]} outside the {len(self.blocks)} blocks")
        side, nonneg = self._side[block], self._nonneg[block]
        bad = (np.minimum(i, j) < 0) | (np.maximum(i, j) >= side)
        if bad.any():
            t = np.argmax(bad)
            raise EntryError(t, f"entry outside block {block[t]} of size {side[t]}: "
                                f"({i[t]}, {j[t]})")
        bad = nonneg & (i != j)
        if bad.any():
            raise EntryError(np.argmax(bad), "NONNEG blocks are diagonal")
        pos = i.copy()  # the position in the block: i for NONNEG, svec for PSD
        for k in np.unique(side[~nonneg]).tolist():
            at = ~nonneg & (side == k)
            pos[at] = _svec_index(k)[1][i[at] * k + j[at]]
        row = np.where(row < 0, -1, row + len(self._rhs))
        self._triplets.append((row, self._offset[block] + pos, np.where(i == j, 1.0, SQRT2) * value))
        self._rhs += rhs.tolist()
        self._labels += labels
        self._sdp = None

    def add_row(self, entries, rhs, label=None) -> None:
        """entries: iterable of (block, i, j, value)."""
        self.add_rows(0, *_columns(entries), [rhs], [label])

    def build(self) -> BlockSdp:
        if self._sdp is None:
            row, pos, val = map(np.concatenate, zip(*self._triplets))
            obj = row < 0
            c = np.bincount(pos[obj], val[obj], minlength=self.dim)
            self._sdp = BlockSdp(self.blocks, (row[~obj], pos[~obj], val[~obj]), self._rhs, c,
                                 row_labels=self._labels)
        return self._sdp


@dataclass
class SdpSolution:
    """What :func:`solve` returns.  ``diagnostics`` holds ``timings``, the
    seconds per stage, and at a reported point (OPTIMAL or INCONCLUSIVE)
    ``dual_objective`` and ``mu``, the iterate's complementarity; at a ray
    (PRIMAL_INFEASIBLE or DUAL_INFEASIBLE_OR_UNBOUNDED) ``ray_quality``."""

    status: SdpStatus
    objective: float | None = None
    x_blocks: list | None = None
    y: np.ndarray | None = None
    s_blocks: list | None = None
    primal_res: float = float("nan")
    dual_res: float = float("nan")
    gap: float = float("nan")
    relgap: float = float("nan")
    iterations: int = 0
    tau: float = float("nan")
    kappa: float = float("nan")
    message: str = ""
    diagnostics: dict = field(default_factory=dict)


# -- plain-text sparse exchange format ---------------------------------------
#
# One line per nonzero:  "<constraint> <block> <row> <col> <value>"
# with constraint 0 denoting the objective and 1..m the equality
# constraints; a leading "rhs <constraint> <value>" line per nonzero
# right-hand side and for the last constraint, which names every row, and a
# header describing the block pattern:
#
#   blocks <kind:size> <kind:size> ...
#
# Indices are 0-based within each block; for PSD blocks only the upper
# triangle (row <= col) is listed and symmetry is implied.  A second header,
# a second rhs line for one constraint or a second entry line for one
# position of one constraint is rejected, not merged, and so is a value that
# is not finite.


def export_sparse(sdp: BlockSdp) -> str:
    lines = ["blocks " + " ".join(f"{blk.kind}:{blk.size}" for blk in sdp.blocks)]
    lines += [f"rhs {i + 1} {float(b_i)!r}" for i, b_i in enumerate(sdp.b)
              if b_i != 0.0 or i == sdp.b.size - 1]
    # (block, row, column, svec scale) of every svec position
    where = []
    for bi, blk in enumerate(sdp.blocks):
        if blk.kind == "psd":
            upper, _, scale = _svec_index(blk.size)
            where += zip([bi] * scale.size, upper // blk.size, upper % blk.size, scale)
        else:
            where += [(bi, r, r, 1.0) for r in range(blk.size)]
    obj, a = np.flatnonzero(sdp.c), sdp.coo
    for k, pos, val in [*zip([0] * obj.size, obj.tolist(), sdp.c[obj].tolist()),
                        *zip((a.rows + 1).tolist(), a.cols.tolist(), a.vals.tolist())]:
        bi, r, col, scale = where[pos]
        lines.append(f"{k} {bi} {r} {col} {float(val / scale)!r}")
    return "\n".join(lines) + "\n"


def parse_sparse(text: str) -> BlockSdp:
    blocks = None
    rhs: dict[int, float] = {}
    entries = {}  # (constraint, block, row, column): (value, line number, line)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "blocks":
                if blocks is not None:
                    raise ValueError("second blocks header")
                if len(parts) == 1:
                    raise ValueError("the header lists no blocks")
                for t in parts[1:]:
                    if t.count(":") != 1:
                        raise ValueError(f"block {t!r} is not kind:size")
                blocks = [BlockSpec(k, int(size)) for k, size in (t.split(":") for t in parts[1:])]
            elif len(parts) != (3 if parts[0] == "rhs" else 5):
                raise ValueError("expected 'rhs <constraint> <value>' or five fields")
            elif not math.isfinite(float(parts[-1])):
                raise ValueError("value is not finite")
            elif parts[0] == "rhs":
                if int(parts[1]) < 1:
                    raise ValueError("constraint 0 is the objective, which has no rhs")
                if int(parts[1]) in rhs:
                    raise ValueError(f"constraint {int(parts[1])} already has a rhs")
                rhs[int(parts[1])] = float(parts[2])
            else:
                k, bi, r, col = at = tuple(int(v) for v in parts[:4])
                if k < 0:
                    raise ValueError("constraint below 0")
                if r > col:
                    raise ValueError("entry below the diagonal: the format lists row <= col")
                if at in entries:
                    raise ValueError(f"constraint {k} already has an entry at block {bi} "
                                     f"({r}, {col})")
                entries[at] = float(parts[4]), lineno, line
        except ValueError as err:
            raise ValueError(f"line {lineno} {line!r}: {err}") from None
    if blocks is None:
        raise ValueError("missing blocks header")
    cons, *cols = tuple(zip(*(at + v[:1] for at, v in entries.items()))) or ((),) * 5
    builder = SdpBuilder(blocks)
    try:  # constraint 0, the objective, is builder row -1
        builder.add_rows(np.asarray(cons, dtype=np.intp) - 1, *cols,
                         [rhs.get(k, 0.0) for k in range(1, max([0, *rhs, *cons]) + 1)])
    except EntryError as err:
        _, lineno, line = list(entries.values())[err.entry]
        raise ValueError(f"line {lineno} {line!r}: {err}") from None
    return builder.build()
