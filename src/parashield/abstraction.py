"""Finite abstractions of a perturbed discrete-time vehicle on uniform grids.

The state box is partitioned into half-open cells of uniform width per
dimension, and `GridSpec.quantize_many` is the one map from float points to
cells (`quantize` is its one-point case).  A one-step reachable set is
over-approximated per (cell, input) pair by interval arithmetic on the
vehicle dynamics: the cell plus the bounds of one step's displacement, which
`_displacement` alone computes.  The abstract transition relation maps each
pair to the set of cells that intersect the image box, with a distinguished
OUT flag when the image leaves the box in a non-periodic dimension.  Each
abstraction holds its OUT relation once, as the packed table `stays`: bit u
of row x is set when (x, u) is not OUT, which is the universe controller's
masks.

The synthesis fixed points ask one bulk question of a state set, `pair_hits`:
which pairs have a successor in it.  (All successors of a pair lie in S
exactly when none lies in the complement of S.)  The answer is packed, one
bit per input, as controller tables are.  The boxed abstraction answers the
set's whole heading columns in the x-y plane and its other states from their
predecessors over its bounded reach neighbourhood.  So the dense first sweep
of a synthesis from the universe, which removes fence and obstacle columns,
costs the columns next to them, and a question about a few states costs a
few states.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, PointOutOfDomain, UniverseMismatch
from .synthesis import _has_bit, _pack_bool, _rows

TWO_PI = 2.0 * np.pi

_TILE_RTOL = 1e-9


class GridSpec:
    """Uniform hyper-rectangular partition of a box, with periodic dimensions.

    Cells are half-open [lo, lo + eta) along every dimension.  In non-periodic
    dimensions the top face of the box belongs to the last cell, so every
    point of the closed box has exactly one cell.  Periodic dimensions wrap
    points into [lower, upper) before quantization.
    """

    def __init__(self, lower, upper, eta, periodic=None):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=np.float64)).copy()
        self.upper = np.atleast_1d(np.asarray(upper, dtype=np.float64)).copy()
        self.eta = np.atleast_1d(np.asarray(eta, dtype=np.float64)).copy()
        self.dims = self.lower.size
        if periodic is None:
            periodic = [False] * self.dims
        self.periodic = np.atleast_1d(np.asarray(periodic, dtype=bool)).copy()
        if not (self.upper.size == self.eta.size == self.periodic.size == self.dims):
            raise GridMismatch("lower/upper/eta/periodic lengths disagree")
        if np.any(self.upper <= self.lower):
            raise GridMismatch("upper must exceed lower in every dimension")
        if np.any(self.eta <= 0):
            raise GridMismatch("eta must be positive in every dimension")
        span = self.upper - self.lower
        n = np.rint(span / self.eta)
        if np.any(n < 1) or np.any(np.abs(n * self.eta - span) > _TILE_RTOL * span):
            raise GridMismatch(
                f"eta {tuple(self.eta)} does not tile the box spans {tuple(span)}"
            )
        self.shape = tuple(int(k) for k in n)
        self.n_cells = int(np.prod(self.shape))
        # row-major strides
        strides = np.ones(self.dims, dtype=np.int64)
        for d in range(self.dims - 2, -1, -1):
            strides[d] = strides[d + 1] * self.shape[d + 1]
        self.strides = strides

    @classmethod
    def from_target_eta(cls, lower, upper, eta, periodic=None):
        """Build a grid whose cell count per dimension is round(span / eta).

        The realized eta is span / n, the closest exactly-tiling width to the
        requested one.  Nominal widths like 0.25 on a 2*pi span are accepted
        this way.
        """
        lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        eta = np.atleast_1d(np.asarray(eta, dtype=np.float64))
        span = upper - lower
        n = np.maximum(1, np.floor(span / eta + 0.5).astype(np.int64))
        return cls(lower, upper, span / n, periodic)

    def multi(self, flat):
        """Multi-index of a flat cell index."""
        return tuple(int(i) for i in np.unravel_index(int(flat), self.shape))

    def flat(self, multi):
        """Flat index of a multi-index."""
        return int(np.ravel_multi_index(tuple(int(i) for i in multi), self.shape))

    def quantize(self, point):
        """Flat index of the cell containing `point`: `quantize_many` on one row."""
        return int(self.quantize_many([point])[0])

    def quantize_many(self, points):
        """Flat indices of the cells containing the rows of an (n, dims) array.

        Periodic coordinates are wrapped into [lower, upper) first.  Boundary
        points at a cell's upper face belong to the next cell, except the
        box's top face in non-periodic dimensions, which belongs to the last
        cell.  Raises PointOutOfDomain when the array is not (n, dims), a
        coordinate is NaN or infinite, or a non-periodic coordinate falls
        outside the closed box.
        """
        p = np.asarray(points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != self.dims:
            raise PointOutOfDomain(f"points of shape {p.shape} do not have {self.dims} coordinates each")
        finite = np.isfinite(p)
        if not finite.all():
            i, d = (int(k[0]) for k in np.nonzero(~finite))
            raise PointOutOfDomain(f"coordinate {p[i, d]} is not finite in dimension {d}")
        span = self.upper - self.lower
        w = self.periodic
        # wrap, then subtract: every step's frame cell rests on these roundings
        rel = np.where(w, self.lower + np.mod(p - self.lower, span), p) - self.lower
        bad = ~w & ((rel < 0) | (rel > span))
        if np.any(bad):
            i, d = (int(k[0]) for k in np.nonzero(bad))
            raise PointOutOfDomain(f"coordinate {p[i, d]} outside [{self.lower[d]}, {self.upper[d]}] in dimension {d}")
        # top face of the box and float overshoot land in the last cell
        idx = np.floor(rel / self.eta).astype(np.int64)
        idx = np.maximum(np.minimum(idx, np.asarray(self.shape) - 1), 0)
        return idx @ self.strides

    def cell_interval(self, flat):
        """Closed axis-aligned box [lo, lo + eta] of a cell."""
        m = np.asarray(self.multi(flat), dtype=np.float64)
        lo = self.lower + m * self.eta
        hi = self.lower + (m + 1.0) * self.eta
        return lo, hi

    def __eq__(self, other):
        return (
            isinstance(other, GridSpec)
            and self.shape == other.shape
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
            and np.array_equal(self.eta, other.eta)
            and np.array_equal(self.periodic, other.periodic)
        )

    def __repr__(self):
        return f"GridSpec(shape={self.shape}, lower={self.lower.tolist()}, upper={self.upper.tolist()})"

    def _canonical_bytes(self):
        return b"".join([
            struct.pack("<i", self.dims),
            self.lower.tobytes(),
            self.upper.tobytes(),
            self.eta.tobytes(),
            self.periodic.astype(np.uint8).tobytes(),
        ])


class InputGrid:
    """Finite list of input points, in a fixed lexicographic order."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("input points must be pairwise distinct")
        self.points = pts

    @classmethod
    def from_values(cls, *value_lists):
        """Cartesian product of per-dimension value lists, lexicographic order."""
        grids = np.meshgrid(*[np.asarray(v, dtype=np.float64) for v in value_lists], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        return cls(pts)

    def nearest(self, point):
        """Index of the grid point closest to `point` (Euclidean, ties to the
        lowest index); a ValueError names both widths when `point` has
        another width than the grid's points."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != self.points.shape[1:]:
            raise ValueError(f"a point of width {p.size} for inputs of width {self.points.shape[1]}")
        d2 = ((self.points - p) ** 2).sum(axis=1)
        return int(np.argmin(d2))

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[int(i)]

    def __eq__(self, other):
        return isinstance(other, InputGrid) and np.array_equal(self.points, other.points)

    def _canonical_bytes(self):
        return struct.pack("<ii", *self.points.shape) + self.points.tobytes()


@dataclass
class DisturbanceBox:
    """Centered box of additive disturbances, one half-width per dimension."""

    radius: np.ndarray

    def __init__(self, radius):
        self.radius = np.atleast_1d(np.asarray(radius, dtype=np.float64)).copy()
        if np.any(self.radius < 0):
            raise ValueError("disturbance half-widths must be nonnegative")

    def sample(self, rng, n=None):
        if n is None:
            return rng.uniform(-self.radius, self.radius)
        return rng.uniform(-self.radius, self.radius, size=(n, self.radius.size))


@dataclass
class DubinsParams:
    """Sampling time and disturbance box of the vehicle model."""

    tau: float
    disturbance: DisturbanceBox

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")


def wrap_angle(theta):
    """Wrap an angle (or array) into [-pi, pi)."""
    return np.mod(theta + np.pi, TWO_PI) - np.pi


def dubins_step(state, u, w, params: DubinsParams):
    """One exact step of the vehicle: planar position plus heading.

    x' = x + v cos(theta) tau + w1, y' = y + v sin(theta) tau + w2,
    theta' = theta + a tau + w3 wrapped into [-pi, pi).
    """
    x, y, th = float(state[0]), float(state[1]), float(state[2])
    v, a = float(u[0]), float(u[1])
    w1, w2, w3 = float(w[0]), float(w[1]), float(w[2])
    t = params.tau
    th_new = th + a * t + w3
    if not (-np.pi <= th_new < np.pi):  # wrap only off-range: zero motion stays exact
        th_new = float(wrap_angle(th_new))
    return (
        x + v * np.cos(th) * t + w1,
        y + v * np.sin(th) * t + w2,
        th_new,
    )


def _contains_angle(lo, hi, c):
    # true where some c + 2*pi*k lies in [lo, hi]
    return np.floor((hi - c) / TWO_PI) >= np.ceil((lo - c) / TWO_PI)


def cos_bounds(lo, hi):
    """Tight [min, max] of cos over the closed interval [lo, hi] (vectorized)."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    cl, ch = np.cos(lo), np.cos(hi)
    mx = np.where(_contains_angle(lo, hi, 0.0), 1.0, np.maximum(cl, ch))
    mn = np.where(_contains_angle(lo, hi, np.pi), -1.0, np.minimum(cl, ch))
    return mn, mx


def sin_bounds(lo, hi):
    """Tight [min, max] of sin over the closed interval [lo, hi]."""
    return cos_bounds(lo - np.pi / 2.0, hi - np.pi / 2.0)


def _displacement(th_lo, th_hi, v, a, params: DubinsParams):
    """Bounds (lo, hi) of one step's motion in (x, y, heading) from a heading
    in [th_lo, th_hi] under input (v, a) and every disturbance.

    Broadcasts over the leading axes of its arguments; (x, y, heading) is the
    new last axis.  This is the one place the vehicle's interval image is
    computed: `build_abstraction` quantizes it per (heading row, input).
    """
    t = params.tau
    w = params.disturbance.radius
    lo, hi = [], []
    for d, (b_min, b_max) in enumerate((cos_bounds(th_lo, th_hi), sin_bounds(th_lo, th_hi))):
        p, q = v * b_min, v * b_max
        lo.append(t * np.minimum(p, q) - w[d])
        hi.append(t * np.maximum(p, q) + w[d])
    lo.append(a * t - w[2])
    hi.append(a * t + w[2])
    return np.stack(np.broadcast_arrays(*lo), axis=-1), np.stack(np.broadcast_arrays(*hi), axis=-1)


def _check_masks(n_states, removed, within):
    """The number of states that `pair_hits` answers for: n_states, or
    `within`'s length when it holds a whole number of copies of them.
    Raises UniverseMismatch, naming both sizes, for a `within` of another
    length or a `removed` mask of another length than that."""
    size = n_states if within is None else within.size
    if size % n_states or not size:
        raise UniverseMismatch(f"a within mask of {size} entries for {n_states} states")
    if removed.dtype == bool and removed.size != size:
        raise UniverseMismatch(f"a removed mask of {removed.size} entries for {size} states")
    return size


def _merge(rows, hits, more_rows, more_hits):
    """The union of two `pair_hits` answers, the hits of a shared row ORed."""
    at = np.searchsorted(rows, more_rows)
    same = np.isin(more_rows, rows, assume_unique=True)
    hits[at[same]] |= more_hits[same]
    return np.insert(rows, at[~same], more_rows[~same]), np.insert(hits, at[~same], more_hits[~same], axis=0)


class BoxedAbstraction:
    """Grid abstraction of the vehicle whose post-sets are boxes of cells.

    The successor box of a pair is its cell shifted by integer offset ranges
    that depend only on the cell's heading row and the input: the
    (nt, n_inputs, 3, 2) integer array `offsets` holds at `[it, u, d]` the
    (lo, hi) shift along dimension d, heading shifts taken modulo the number
    of heading cells.  In x and y the box is clipped to the grid; bit u of
    row x of the packed (n_states, words) table `stays` is clear when the box
    of (x, u) had to be (an OUT pair), and set otherwise.  The relation
    is a pure function of the grid, the inputs and `offsets`, which is what
    the content hash digests.

    The reach radius R is the largest shift per dimension, so the
    K = (2Rx+1)(2Ry+1)(2Rt+1) offsets of the neighbourhood cover every box
    (the parts of a box outside the grid hold no member of any set).  Both hit
    tests read one relation, `inside[t, u, b]`: offset b lies in the box of
    heading row t and input u.

    - Column test (`_column_hits`), for whole heading columns.  Every box
      spans a heading cell (`build_abstraction` shifts by floor(lo) <=
      ceil(hi)), so it meets a whole column exactly when the column's x-y
      offset lies in its x-y range: each (heading row, input) has an x-y
      kernel, its `inside` bits over the (2Rx+1)(2Ry+1) x-y offsets, and a
      column's pairs hit where their kernel meets the column's word, whose
      bit j is set when x-y offset j lands on a tested column.  Its work
      follows the columns next to the tested ones.
    - Predecessor test (`_scatter_hits`).  Each member r and offset b give the
      predecessor p = r - b, and the packed `inside` bits over u at p's
      heading row and b are p's inputs that reach r through b.  ORing them
      per p, after one sort, gives p's hits.  Its work follows the (member,
      offset) pairs.

    `pair_hits` takes the column test for the whole columns when there are
    at least two, and predecessors for every other member.  One column, the
    start of a warm-started atomic's descent, is nt * K pairs, which on the
    preset grids cost less than the column test's fixed work over its plane.
    Both answer for stacked copies of the states (see `pair_hits`).
    """

    def __init__(self, grid: GridSpec, inputs: InputGrid, offsets):
        self.grid = grid
        self.inputs = inputs
        self.offsets = offsets
        self.n_states = grid.n_cells
        self.n_inputs = len(inputs)
        nx, ny, nt = grid.shape
        # OUT where the box leaves the grid in x or y: per (x, heading row,
        # input) and per (y, heading row, input); the packed complements are
        # ANDed over the x-y plane
        lo, hi = offsets[..., 0], offsets[..., 1]
        i = np.arange(nx)[:, None, None]
        out_x = (i + lo[..., 0] < 0) | (i + hi[..., 0] > nx - 1)
        i = np.arange(ny)[:, None, None]
        out_y = (i + lo[..., 1] < 0) | (i + hi[..., 1] > ny - 1)
        self.stays = (_pack_bool(~out_x)[:, None] & _pack_bool(~out_y)[None]).reshape(self.n_states, -1)
        # the radius in heading never needs to exceed half the circle; in x
        # and y, offsets past the grid's extent never land inside it
        shape = np.asarray(grid.shape, dtype=np.int64)
        self.reach_radius = np.minimum(np.abs(offsets).max(axis=(0, 1, 3)),
                                       np.where(grid.periodic, shape // 2, shape - 1))
        rx, ry, rt = self.reach_radius.tolist()
        ox, oy, ot = (o.ravel() for o in np.meshgrid(
            *[np.arange(-r, r + 1) for r in self.reach_radius], indexing="ij"))
        lo = offsets[..., 0, None]
        hi = offsets[..., 1, None]
        in_xy = (lo[:, :, 0] <= ox) & (ox <= hi[:, :, 0]) & (lo[:, :, 1] <= oy) & (oy <= hi[:, :, 1])
        inside = in_xy & ((ot - lo[:, :, 2]) % nt < np.minimum(hi[:, :, 2] - lo[:, :, 2] + 1, nt))
        # the column test's tables: the x-y plane padded by the radius, each
        # column's flat position in it and the steps to its x-y offsets
        # (every (2Rt+1)-th offset); the distinct x-y kernels, and per kernel
        # the packed inputs of each heading row that have it (disjoint)
        self._plane_size = (nx + 2 * rx) * (ny + 2 * ry)
        self._plane_pos = ((np.arange(nx)[:, None] + rx) * (ny + 2 * ry) + np.arange(ny) + ry).ravel()
        self._plane_steps = (ox * (ny + 2 * ry) + oy)[::2 * rt + 1]
        self._xy_kernels, kernel_of = np.unique(_pack_bool(in_xy[..., ::2 * rt + 1]).reshape(nt * self.n_inputs, -1),
                                                axis=0, return_inverse=True)
        kernel_of = kernel_of.reshape(nt, self.n_inputs) == np.arange(len(self._xy_kernels))[:, None, None]
        self._kernel_inputs = _pack_bool(kernel_of).reshape(len(self._xy_kernels), -1)
        # the predecessor test's tables, per (heading row or x-y column of a
        # state r, neighbourhood offset o): the key step back to the
        # predecessor p, so that (r << 32) minus it is the sort key
        # (p << 32) | row, the row of `_pred_masks` (one item of packed
        # words per (heading row, offset)) holding the inputs whose box at
        # p's heading row holds o (flat indices and rows fit in 32 bits
        # each); and whether p is on the grid
        k = ox.size
        pt = (np.arange(nt)[:, None] - ot) % nt
        shift = (ox * ny + oy) * nt + np.arange(nt)[:, None] - pt
        self._pred_keys = (shift << 32) - (pt * k + np.arange(k))
        px, py = np.arange(nx)[:, None] - ox, np.arange(ny)[:, None] - oy
        self._pred_on_grid = (((px >= 0) & (px < nx))[:, None] & ((py >= 0) & (py < ny))[None]).reshape(nx * ny, k)
        self._pred_masks = _rows(_pack_bool(inside.transpose(0, 2, 1).copy()).reshape(nt * k, -1))
        h = hashlib.sha256()
        h.update(b"PSHD-offsets")
        h.update(grid._canonical_bytes())
        h.update(inputs._canonical_bytes())
        h.update(np.ascontiguousarray(offsets, dtype="<i8").tobytes())
        self.content_hash = h.hexdigest()

    # -- bulk primitives used by the synthesis fixed points ---------------

    def _whole_columns(self, idx):
        """The ascending x-y indices of the whole heading columns among the
        ascending flat indices `idx`, per run of consecutive indices."""
        nt = self.grid.shape[2]
        if idx.size < nt:
            return idx[:0]
        cut = np.flatnonzero(idx[1:] - idx[:-1] != 1)
        lo = -(-idx[np.concatenate(([0], cut + 1))] // nt)
        n = np.maximum((idx[np.concatenate((cut, [-1]))] + 1) // nt - lo, 0)
        return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())

    def _column_hits(self, cols, within=None):
        """`pair_hits` for the whole heading columns with ascending x-y
        indices `cols`, without `row_alive`; the x-y columns of copy j of
        the states lie in the padded plane at j * `_plane_size`.  Columns
        with equal words have equal hits, so the kernels meet each distinct
        word once; a sum of the packed inputs of the kernels met is their
        OR."""
        nt = self.grid.shape[2]
        copies = 1 if within is None else within.size // self.n_states
        at = self._plane_pos
        if copies > 1:
            at = (np.arange(copies)[:, None] * self._plane_size + at).reshape(-1)
        plane = np.zeros(copies * self._plane_size, dtype=bool)
        pos = at[cols]
        plane[pos] = True
        near = np.zeros_like(plane)
        near[pos[:, None] - self._plane_steps] = True
        near = np.flatnonzero(near[at])
        words = _pack_bool(plane[at[near][:, None] + self._plane_steps])
        words, word_of = np.unique(words[:, 0] if words.shape[1] == 1 else _rows(words), return_inverse=True)
        lanes = self._xy_kernels.shape[1]
        hit = (words.view(np.uint64).reshape(len(words), 1, lanes) & self._xy_kernels).any(axis=2)
        table = (hit.astype(np.uint64) @ self._kernel_inputs).reshape(len(words), nt, self.stays.shape[1])
        ci, ti = np.nonzero(np.ones((near.size, nt), dtype=bool) if within is None
                            else within.reshape(-1, nt)[near])
        return near[ci] * nt + ti, table[word_of[ci], ti]

    def _scatter_hits(self, idx, within=None):
        """`pair_hits` by predecessors on the ascending flat indices `idx`,
        without `row_alive`: its work scales with the number of states times
        the K neighbourhood offsets.  State r and offset o name the
        predecessor p = r - o (none past an x-y face; heading wraps), whose
        inputs with o in their box are row (heading row of p) * K + o of
        `_pred_masks`; one subtract gives the sort keys (p << 32) | row, and
        the rows of each predecessor are ORed together.  The x-y face test
        reads r's column modulo the plane, so p stays in r's copy of the
        states."""
        xy, ts = np.divmod(idx, self.grid.shape[2])
        keys = (idx << 32)[:, None] - self._pred_keys[ts]
        ok = self._pred_on_grid[xy % len(self._pred_on_grid)]
        if within is not None:
            ok &= within.take(keys >> 32, mode="clip")    # clipped reads are masked by ok
        keys = keys[ok]
        keys.sort()
        pred = keys >> 32
        entry = keys & 0xFFFFFFFF
        first = np.empty(pred.size, dtype=bool)
        first[:1] = True
        np.not_equal(pred[1:], pred[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        masks = self._pred_masks[entry].view(np.uint64).reshape(entry.size, self.stays.shape[1])
        return pred[starts], np.bitwise_or.reduceat(masks, starts, axis=0)

    def pair_hits(self, removed, within=None, row_alive=None):
        """Pairs whose successor box intersects `removed`, as (rows, hits).

        `removed` is a boolean mask or the ascending flat indices of the
        states.  `rows` are the states, ascending, within the reach radius of
        a removed state (a dilation of the removed set, optionally restricted
        to the mask `within`); `hits` holds their hit inputs packed as in
        `ControllerTable.masks`, (len(rows), ceil(n_inputs / 64)) uint64.
        States outside `rows` cannot hit.  `row_alive(rows) -> (len(rows),
        n_inputs) bool` narrows the result to pairs the caller still cares
        about.

        A `within` of k * n_states entries asks about k independent copies
        of the states at once: state j * n_states + x is copy j's state x,
        and each copy's rows and hits are what it alone would get, its rows
        moved by j * n_states.  A `within` whose length is not such a
        multiple, or a `removed` mask of another length than `within` (than
        the states, without one), raises UniverseMismatch.

        The whole heading columns of the removed set are answered in the x-y
        plane (`_column_hits`) when there are at least two, the other states
        by their predecessors (`_scatter_hits`), and the two answers are
        merged.  Each test answers the rows and hits the other would.
        """
        size = _check_masks(self.n_states, removed, within)
        idx = np.flatnonzero(removed) if removed.dtype == bool else np.asarray(removed, dtype=np.int64)
        nt = self.grid.shape[2]
        # two whole columns make at least two windows of nt consecutive states
        two = idx.size >= 2 * nt and np.count_nonzero(idx[nt - 1:] - idx[:idx.size - nt + 1] == nt - 1) > 1
        cols = self._whole_columns(idx) if two else idx[:0]
        if cols.size < 2:
            rows, hits = self._scatter_hits(idx, within)
        else:
            rows, hits = self._column_hits(cols, within)
            if cols.size * nt < idx.size:
                whole = np.zeros(size // nt, dtype=bool)
                whole[cols] = True
                rest = idx[~whole[idx // nt]]
                rows, hits = _merge(rows, hits, *self._scatter_hits(rest, within))
        if row_alive is not None and len(rows):
            hits &= _pack_bool(row_alive(rows))
        return rows, hits

    # -- translation invariance ---------------------------------------------

    def face_distance(self, states):
        """The fewest x-y cells between each of `states` and a face of the grid."""
        nx, ny, nt = self.grid.shape
        x, y = np.divmod(np.asarray(states) // nt, ny)
        return np.minimum(np.minimum(x, nx - 1 - x), np.minimum(y, ny - 1 - y))

    def moves_alike(self, rows, src, dst):
        """Per state of `dst`, whether the abstraction around the states
        `rows` is the same once they move as state `src` moves to it.  That
        holds when the move keeps the heading (it shifts whole x-y columns)
        and the rows' reach dilation lies on the grid before and after it:
        then no predecessor falls off an x-y face, and the pairs there are
        OUT alike (a radius clipped to the grid passes only on an axis of
        one cell, which no move leaves).  The move is read from the
        multi-indices, since a flat shift with a negative y part reads as
        another x-y move."""
        shape = np.asarray(self.grid.shape)[:2, None]
        r = self.reach_radius[:2, None]
        xy = np.stack(np.divmod(np.asarray(rows) // self.grid.shape[2], self.grid.shape[1]))
        lo, hi = xy.min(axis=1, keepdims=True) - r, xy.max(axis=1, keepdims=True) + r
        a = np.unravel_index(src, self.grid.shape)
        b = np.unravel_index(np.asarray(dst), self.grid.shape)
        move = np.stack(b[:2]) - np.asarray(a[:2])[:, None]
        on = (lo >= 0) & (hi < shape) & (lo + move >= 0) & (hi + move < shape)
        return (b[2] == a[2]) & on.all(axis=0)

    # -- per-pair queries --------------------------------------------------

    def post(self, cell, u):
        """Successor set of one (cell, input) pair as (sorted flat indices, out flag)."""
        multi = self.grid.multi(cell)
        axes = []
        for d, (i, n) in enumerate(zip(multi, self.grid.shape)):
            lo, hi = (int(o) for o in self.offsets[multi[2], u, d])
            if self.grid.periodic[d]:
                axes.append((i + lo + np.arange(min(hi - lo + 1, n))) % n)
            else:
                axes.append(np.arange(max(i + lo, 0), min(i + hi, n - 1) + 1))
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = sum(m.astype(np.int64) * s for m, s in zip(mesh, self.grid.strides)).ravel()
        return np.sort(flat), not _has_bit(self.stays, cell, u)


class ExplicitAbstraction:
    """Abstract system with explicitly listed successor sets.

    Used for hand-built automata and randomized test systems.  Successor
    lists are stored in one flat array with per-pair offsets.
    """

    def __init__(self, n_states, n_inputs, indptr, succ, out):
        self.n_states = int(n_states)
        self.n_inputs = int(n_inputs)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.succ = np.asarray(succ, dtype=np.int64)
        out = np.asarray(out, dtype=bool).reshape(self.n_states, self.n_inputs)
        self.inputs = InputGrid(np.arange(self.n_inputs, dtype=np.float64))
        n_pairs = self.n_states * self.n_inputs
        if self.indptr.size != n_pairs + 1:
            raise ValueError("indptr must have one entry per pair plus one")
        counts = np.diff(self.indptr)
        self._pair_of = np.repeat(np.arange(n_pairs, dtype=np.int64), counts)
        empty = (counts == 0) & ~out.reshape(-1)
        if np.any(empty):
            raise ValueError("post must be non-empty unless OUT is flagged")
        self.stays = _pack_bool(~out)
        h = hashlib.sha256()
        h.update(b"PSHD-explicit")
        h.update(struct.pack("<qq", self.n_states, self.n_inputs))
        h.update(self.indptr.tobytes())
        h.update(self.succ.tobytes())
        h.update(out.tobytes())
        self.content_hash = h.hexdigest()

    @classmethod
    def from_map(cls, n_states, n_inputs, post_map, out_pairs=()):
        """Build from {(state, input): iterable of successors} plus OUT pairs."""
        out = np.zeros((n_states, n_inputs), dtype=bool)
        for (x, u) in out_pairs:
            out[x, u] = True
        indptr = np.zeros(n_states * n_inputs + 1, dtype=np.int64)
        chunks = []
        for x in range(n_states):
            for u in range(n_inputs):
                succ = np.asarray(sorted(set(post_map.get((x, u), ()))), dtype=np.int64)
                if succ.size == 0 and not out[x, u]:
                    raise ValueError(f"pair ({x}, {u}) has empty post and no OUT flag")
                if succ.size and (succ.min() < 0 or succ.max() >= n_states):
                    raise ValueError("successor index out of range")
                chunks.append(succ)
                indptr[x * n_inputs + u + 1] = indptr[x * n_inputs + u] + succ.size
        succ = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        return cls(n_states, n_inputs, indptr, succ, out)

    def pair_hits(self, removed, within=None, row_alive=None):
        """As `BoxedAbstraction.pair_hits`, but `rows` holds only states with
        a hit; copies of the states are the rows of `removed` as (k, n_states)."""
        size = _check_masks(self.n_states, removed, within)
        removed = removed if removed.dtype == bool else np.isin(np.arange(size), removed)
        flags = removed.reshape(-1, self.n_states)[:, self.succ]
        hit = np.zeros((len(flags), self.n_states * self.n_inputs), dtype=bool)
        copy, at = np.nonzero(flags)
        hit[copy, self._pair_of[at]] = True
        hit = hit.reshape(size, self.n_inputs)
        keep = hit.any(axis=1)
        if within is not None:
            keep &= within
        rows = np.nonzero(keep)[0]
        hits = hit[rows]
        if row_alive is not None:
            hits &= row_alive(rows)
        return rows, _pack_bool(hits)

    def face_distance(self, states):
        """No grid: every state counts as on a face."""
        return np.zeros(np.shape(states), dtype=np.int64)

    def moves_alike(self, rows, src, dst):
        """No state is known to see what another sees: never alike."""
        return np.zeros(np.shape(dst), dtype=bool)

    def post(self, cell, u):
        i = cell * self.n_inputs + u
        return self.succ[self.indptr[i]:self.indptr[i + 1]].copy(), not _has_bit(self.stays, cell, u)


def build_abstraction(grid: GridSpec, inputs: InputGrid, params: DubinsParams) -> BoxedAbstraction:
    """Abstract the vehicle over a 3-d grid (x, y periodic-free, heading periodic).

    The interval image of a cell is the cell moved by a displacement whose
    bounds depend only on its heading row and the input.
    `_displacement` gives them for every (heading row, input) pair at once,
    and the index shifts are floor(lo / eta) and ceil(hi / eta), which keeps
    the zero-motion case exact: a cell maps to itself alone.
    These shifts are the whole abstraction: `BoxedAbstraction` derives the
    packed OUT complement `stays`, the hit tests' tables and every post-set from them.
    """
    if grid.dims != 3 or grid.periodic[0] or grid.periodic[1] or not grid.periodic[2]:
        raise GridMismatch("vehicle abstraction expects (x, y, heading) with only the heading periodic")
    nt, eta = grid.shape[2], grid.eta
    th_lo = (grid.lower[2] + np.arange(nt) * eta[2])[:, None]
    lo, hi = _displacement(th_lo, th_lo + eta[2], inputs.points[:, 0], inputs.points[:, 1], params)
    # per (heading row, input) index shifts; the image interval is half-open
    # at the top because cells are, so the upper shift uses ceil
    offsets = np.stack([np.floor(lo / eta), np.ceil(hi / eta)], axis=-1).astype(np.int64)
    return BoxedAbstraction(grid, inputs, offsets)

