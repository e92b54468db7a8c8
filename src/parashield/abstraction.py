"""Finite abstractions of a perturbed discrete-time vehicle on uniform grids.

The state box is partitioned into half-open cells of uniform width per
dimension, and `GridSpec.quantize_many` is the one map from float points to
cells (`quantize` is its one-point case).  A one-step reachable set is
over-approximated per (cell, input) pair by interval arithmetic on the
vehicle dynamics: the cell plus the bounds of one step's displacement, which
`_displacement` alone computes, for `build_abstraction` and
`reach_overapprox` alike.  The abstract transition relation maps each pair to
the set of cells that intersect the image box, with a distinguished OUT flag
when the image leaves the box in a non-periodic dimension.

The synthesis fixed points ask one bulk question of a state set, `pair_hits`:
which pairs have a successor in it.  (All successors of a pair lie in S
exactly when none lies in the complement of S.)  The answer is packed, one
bit per input, as controller tables are.  The boxed abstraction has two ways
to answer it over the offsets of its bounded reach neighbourhood:
neighbourhood words built on a block around the set, whose cost follows the
block cells times the shifted ORs that build a word, and the set's
predecessors, whose cost follows the number of (member, offset) pairs.  It
takes the path with less of that work, so a question about a few states costs
a few states.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, PointOutOfDomain
from .synthesis import _pack_bool

TWO_PI = 2.0 * np.pi

_TILE_RTOL = 1e-9

_ROW_BLOCK = 4096   # rows per kernel AND in the hit test; bounds its temporaries


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
        """Index of the grid point closest to `point` (Euclidean, ties to the lowest index)."""
        p = np.asarray(point, dtype=np.float64)
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
    computed: `build_abstraction` quantizes it per (heading row, input) and
    `reach_overapprox` adds it to a box.
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


def reach_overapprox(cell_box, u, params: DubinsParams):
    """Interval image of a state box under one vehicle step, all disturbances.

    `cell_box` is a (lo, hi) pair of length-3 vectors.  The returned (lo, hi)
    box is that box plus the step's displacement bounds, so it contains every
    dubins_step(x, u, w) with x in the box and w in the disturbance box.  The
    heading interval of the result is not wrapped.
    """
    lo = np.asarray(cell_box[0], dtype=np.float64)
    hi = np.asarray(cell_box[1], dtype=np.float64)
    d_lo, d_hi = _displacement(lo[2], hi[2], float(u[0]), float(u[1]), params)
    return lo + d_lo, hi + d_hi


def _or_shifted(acc, src, s):
    """acc |= src << s, for words whose 64-bit lanes run along the last axis."""
    q, r = divmod(s, 64)
    n = acc.shape[-1] - q
    acc[..., q:] |= src[..., :n] << np.uint64(r)
    if r and n > 1:
        acc[..., q + 1:] |= src[..., :n - 1] >> np.uint64(64 - r)


class BoxedAbstraction:
    """Grid abstraction of the vehicle whose post-sets are boxes of cells.

    The successor box of a pair is its cell shifted by integer offset ranges
    that depend only on the cell's heading row and the input: the
    (nt, n_inputs, 3, 2) integer array `offsets` holds at `[it, u, d]` the
    (lo, hi) shift along dimension d, heading shifts taken modulo the number
    of heading cells.  In x and y the box is clipped to the grid, and the
    (n_states, n_inputs) mask `out` records that it had to be.  The relation
    is a pure function of the grid, the inputs and `offsets`, which is what
    the content hash digests.

    The reach radius R is the largest shift per dimension, so the
    K = (2Rx+1)(2Ry+1)(2Rt+1) offsets of the neighbourhood cover every box
    (the parts of a box outside the grid hold no member of any set).  Both hit
    tests read one relation, `inside[t, u, b]`: offset b lies in the box of
    heading row t and input u.

    - Words path (`_word_hits`).  Each (heading row, input) has a kernel, its
      `inside` bits over b; a state's word has bit b set when offset b from
      the state lands on a member of the tested set.  A pair meets the set
      exactly when its word AND its kernel is nonzero.  Words and kernels take
      as many 64-bit lanes as the neighbourhood has offsets.
    - Predecessor path (`_scatter_hits`).  Each member r and offset b give the
      predecessor p = r - b, and the packed `inside` bits over u at p's
      heading row and b are p's inputs that reach r through b.  ORing them
      per p, after one sort, gives p's hits.

    The words path builds each block cell's word with S = sum_d (2R_d + 1)
    shifted ORs, one per offset along each axis; `pair_hits` takes the
    predecessor path when |members| * K is at most the number of cells of
    the words block times S, and the words path otherwise.
    """

    def __init__(self, grid: GridSpec, inputs: InputGrid, params: DubinsParams, offsets):
        self.grid = grid
        self.inputs = inputs
        self.params = params
        self.offsets = offsets
        self.n_states = grid.n_cells
        self.n_inputs = len(inputs)
        nx, ny, nt = grid.shape
        # OUT where the box leaves the grid in x or y: per (x, heading row,
        # input) and per (y, heading row, input), then broadcast
        lo, hi = offsets[..., 0], offsets[..., 1]
        i = np.arange(nx)[:, None, None]
        out_x = (i + lo[..., 0] < 0) | (i + hi[..., 0] > nx - 1)
        i = np.arange(ny)[:, None, None]
        out_y = (i + lo[..., 1] < 0) | (i + hi[..., 1] > ny - 1)
        self.out = (out_x[:, None] | out_y[None]).reshape(self.n_states, self.n_inputs)
        # the radius in heading never needs to exceed half the circle; in x
        # and y, offsets past the grid's extent never land inside it
        shape = np.asarray(grid.shape, dtype=np.int64)
        self.reach_radius = np.minimum(np.abs(offsets).max(axis=(0, 1, 3)),
                                       np.where(grid.periodic, shape // 2, shape - 1))
        self._word_ors = int(np.sum(2 * self.reach_radius + 1))
        ox, oy, ot = (o.ravel() for o in np.meshgrid(
            *[np.arange(-r, r + 1) for r in self.reach_radius], indexing="ij"))
        lo = offsets[..., 0, None]
        hi = offsets[..., 1, None]
        inside = ((lo[:, :, 0] <= ox) & (ox <= hi[:, :, 0]) & (lo[:, :, 1] <= oy) & (oy <= hi[:, :, 1])
                  & ((ot - lo[:, :, 2]) % nt < np.minimum(hi[:, :, 2] - lo[:, :, 2] + 1, nt)))
        self._kernels = _pack_bool(inside)    # (nt, n_inputs, lanes) uint64
        # the predecessor hit test's tables, per (heading row or x-y column of
        # a state, neighbourhood offset o): the flat index step back to the
        # predecessor p, whether p is on the grid, and the column of
        # `_pred_masks` (one 64-bit lane per row) holding the inputs whose box
        # at p's heading row holds o
        k = ox.size
        pt = (np.arange(nt)[:, None] - ot) % nt
        self._pred_shift = (ox * ny + oy) * nt + np.arange(nt)[:, None] - pt
        px, py = np.arange(nx)[:, None] - ox, np.arange(ny)[:, None] - oy
        self._pred_on_grid = (((px >= 0) & (px < nx))[:, None] & ((py >= 0) & (py < ny))[None]).reshape(nx * ny, k)
        self._pred_cols = pt * k + np.arange(k)
        self._pred_masks = _pack_bool(inside.transpose(0, 2, 1).copy()).reshape(nt * k, -1).T.copy()
        h = hashlib.sha256()
        h.update(b"PSHD-offsets")
        h.update(grid._canonical_bytes())
        h.update(inputs._canonical_bytes())
        h.update(np.ascontiguousarray(offsets, dtype="<i8").tobytes())
        self.content_hash = h.hexdigest()

    # -- bulk primitives used by the synthesis fixed points ---------------

    def _word_block(self, xs, ys):
        """The words block around states with x and y coordinates `xs`
        (ascending) and `ys`, as (x0, x1, y0, y1, shape): words are needed on
        the states' x-y bounding box grown by the radius, [x0, x1) x [y0, y1);
        the block they read is that box grown once more, zero past the x-y
        faces, its heading padded by the cells across the wrap."""
        nx, ny, nt = self.grid.shape
        rx, ry, rt = self.reach_radius.tolist()
        x0, x1 = max(int(xs[0]) - rx, 0), min(int(xs[-1]) + rx + 1, nx)
        y0, y1 = max(int(ys.min()) - ry, 0), min(int(ys.max()) + ry + 1, ny)
        return x0, x1, y0, y1, (x1 - x0 + 2 * rx, y1 - y0 + 2 * ry, nt + 2 * rt)

    def _word_hits(self, cells, within=None):
        """`pair_hits` by neighbourhood words on the states whose coordinate
        arrays `cells` unravel ascending flat indices, without `row_alive`:
        its work scales with the block around the states."""
        shape = self.grid.shape
        rad = [int(r) for r in self.reach_radius]
        nt, rt = shape[2], rad[2]
        xs, ys, ts = cells
        x0, x1, y0, y1, block = self._word_block(xs, ys)
        words = np.zeros(block + (self._kernels.shape[2],), dtype=np.uint64)
        words[xs - x0 + rad[0], ys - y0 + rad[1], ts + rt, 0] = 1
        words[:, :, :rt] = words[:, :, nt:nt + rt]
        words[:, :, nt + rt:] = words[:, :, rt:2 * rt]
        # one axis at a time, heading first: offset o along an axis sets bit
        # o * (bits per step of that axis) of the word built so far
        bits = 1
        for axis in (2, 1, 0):
            span = 2 * rad[axis] + 1
            size = words.shape[axis] - span + 1
            shifted = [words[(slice(None),) * axis + (slice(o, o + size),)] for o in range(span)]
            acc = shifted[0].copy()
            for o in range(1, span):
                _or_shifted(acc, shifted[o], o * bits)
            words = acc
            bits *= span
        near = words.any(axis=3)
        if within is not None:
            near &= within.reshape(shape)[x0:x1, y0:y1]
        wx, wy, wt = np.nonzero(near)
        rows = np.ravel_multi_index((wx + x0, wy + y0, wt), shape)
        words = words[wx, wy, wt]
        hits = np.empty((len(rows), self.n_inputs), dtype=bool)
        for s in range(0, len(rows), _ROW_BLOCK):
            blk = slice(s, s + _ROW_BLOCK)
            both = np.take(self._kernels, wt[blk], axis=0)
            both &= words[blk, None, :]
            np.not_equal(both[..., 0], 0, out=hits[blk])
            for lane in range(1, both.shape[2]):
                hits[blk] |= both[..., lane] != 0
        return rows, _pack_bool(hits)

    def _scatter_hits(self, cells, within=None):
        """`pair_hits` by predecessors on the states whose coordinate arrays
        `cells` unravel ascending flat indices, without `row_alive`: its work
        scales with the number of states times the K neighbourhood offsets.
        State r and offset o name the predecessor p = r - o (none past an x-y
        face; heading wraps), whose inputs with o in their box are column
        (heading row of p) * K + o of `_pred_masks`; the columns of each
        predecessor are ORed together."""
        _, ny, nt = self.grid.shape
        xs, ys, ts = cells
        xy = xs * ny + ys
        pred = (xy * nt + ts)[:, None] - self._pred_shift[ts]
        ok = self._pred_on_grid[xy]
        if within is not None:
            ok &= within.take(pred, mode="clip")    # clipped reads are masked by ok
        # one sort orders the (predecessor, column) pairs by predecessor;
        # flat indices and columns fit in 32 bits each
        pairs = (pred[ok] << 32) | self._pred_cols[ts][ok]
        pairs.sort()
        pred = pairs >> 32
        cols = pairs & 0xFFFFFFFF
        first = np.empty(pred.size, dtype=bool)
        first[:1] = True
        np.not_equal(pred[1:], pred[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        hits = np.empty((starts.size, len(self._pred_masks)), dtype=np.uint64)
        for w, lane in enumerate(self._pred_masks):
            hits[:, w] = np.bitwise_or.reduceat(lane[cols], starts)
        return pred[starts], hits

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

        The answer comes from the predecessors of the removed states when
        there are no more (state, offset) pairs than shifted ORs to build
        the words block (its cells times S), and from neighbourhood words
        otherwise.  Both paths give the same answer.
        """
        idx = np.flatnonzero(removed) if removed.dtype == bool else removed
        if idx.size == 0:
            return idx, np.zeros((0, len(self._pred_masks)), dtype=np.uint64)
        cells = np.unravel_index(idx, self.grid.shape)
        bx, by, bt = self._word_block(cells[0], cells[1])[-1]
        if idx.size * self._pred_cols.shape[1] <= bx * by * bt * self._word_ors:
            rows, hits = self._scatter_hits(cells, within)
        else:
            rows, hits = self._word_hits(cells, within)
        if row_alive is not None and len(rows):
            hits &= _pack_bool(row_alive(rows))
        return rows, hits

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
        return np.sort(flat), bool(self.out[cell, u])


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
        self.out = np.asarray(out, dtype=bool).reshape(self.n_states, self.n_inputs)
        self.inputs = InputGrid(np.arange(self.n_inputs, dtype=np.float64))
        n_pairs = self.n_states * self.n_inputs
        if self.indptr.size != n_pairs + 1:
            raise ValueError("indptr must have one entry per pair plus one")
        counts = np.diff(self.indptr)
        self._pair_of = np.repeat(np.arange(n_pairs, dtype=np.int64), counts)
        empty = (counts == 0) & ~self.out.reshape(-1)
        if np.any(empty):
            raise ValueError("post must be non-empty unless OUT is flagged")
        self._hash = None

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
        """As `BoxedAbstraction.pair_hits`, but `rows` holds only states with a hit."""
        removed = removed if removed.dtype == bool else np.isin(np.arange(self.n_states), removed)
        hit = np.zeros(self.n_states * self.n_inputs, dtype=bool)
        flags = removed[self.succ]
        hit[self._pair_of[flags]] = True
        hit = hit.reshape(self.n_states, self.n_inputs)
        keep = hit.any(axis=1)
        if within is not None:
            keep &= within
        rows = np.nonzero(keep)[0]
        hits = hit[rows]
        if row_alive is not None:
            hits &= row_alive(rows)
        return rows, _pack_bool(hits)

    def post(self, cell, u):
        i = cell * self.n_inputs + u
        return self.succ[self.indptr[i]:self.indptr[i + 1]].copy(), bool(self.out[cell, u])

    @property
    def content_hash(self):
        if self._hash is None:
            h = hashlib.sha256()
            h.update(b"PSHD-explicit")
            h.update(struct.pack("<qq", self.n_states, self.n_inputs))
            h.update(self.indptr.tobytes())
            h.update(self.succ.tobytes())
            h.update(self.out.tobytes())
            self._hash = h.hexdigest()
        return self._hash


def build_abstraction(grid: GridSpec, inputs: InputGrid, params: DubinsParams) -> BoxedAbstraction:
    """Abstract the vehicle over a 3-d grid (x, y periodic-free, heading periodic).

    The interval image of a cell (`reach_overapprox`) is the cell moved by a
    displacement whose bounds depend only on its heading row and the input.
    `_displacement` gives them for every (heading row, input) pair at once,
    and the index shifts are floor(lo / eta) and ceil(hi / eta), which keeps
    the zero-motion case exact: a cell maps to itself alone.
    These shifts are the whole abstraction: `BoxedAbstraction` derives the
    OUT mask, the hit-test kernels and every post-set from them.
    """
    if grid.dims != 3 or grid.periodic[0] or grid.periodic[1] or not grid.periodic[2]:
        raise GridMismatch("vehicle abstraction expects (x, y, heading) with only the heading periodic")
    nt, eta = grid.shape[2], grid.eta
    th_lo = (grid.lower[2] + np.arange(nt) * eta[2])[:, None]
    lo, hi = _displacement(th_lo, th_lo + eta[2], inputs.points[:, 0], inputs.points[:, 1], params)
    # per (heading row, input) index shifts; the image interval is half-open
    # at the top because cells are, so the upper shift uses ceil
    offsets = np.stack([np.floor(lo / eta), np.ceil(hi / eta)], axis=-1).astype(np.int64)
    return BoxedAbstraction(grid, inputs, params, offsets)

