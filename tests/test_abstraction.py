import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parashield.abstraction import (
    DisturbanceBox,
    DubinsParams,
    ExplicitAbstraction,
    GridSpec,
    InputGrid,
    build_abstraction,
    cos_bounds,
    dubins_step,
    sin_bounds,
    wrap_angle,
)
from parashield.errors import GridMismatch, PointOutOfDomain, UniverseMismatch
from parashield.synthesis import SafetySpec, _pack_bool, _unpack_bool, safety_control
from reference import reach_overapprox


def small_params(w=(0.01, 0.01, 0.02), tau=0.1):
    return DubinsParams(tau=tau, disturbance=DisturbanceBox(w))


def small_inputs():
    return InputGrid.from_values([-0.2, 0.0, 0.2], [-1.0, 0.0, 1.0])


def small_grid(n=6, nt=8):
    return GridSpec.from_target_eta([-0.3, -0.3, -np.pi], [0.3, 0.3, np.pi],
                                    [0.6 / n, 0.6 / n, 2 * np.pi / nt],
                                    periodic=[False, False, True])


def cell_center(grid, flat):
    lo, hi = grid.cell_interval(flat)
    return (lo + hi) / 2.0


def coarse_grid():
    from parashield.bench import preset_config
    return preset_config("coarse").grid


def periodic_2d_grid():
    return GridSpec.from_target_eta([-np.pi, 0.0], [np.pi, 1.0], [np.pi / 3, 0.25], [True, False])


def face_probe_points(grid, rng, n_random=200):
    """Points where rounding decides the cell: every cell face of each axis
    and one ulp either side of it, shifted by a whole period either way on
    periodic axes, and the box's top face and the float below it on the
    others; the other coordinates are random in the box.  Random interior
    points follow."""
    span = grid.upper - grid.lower
    rows = []
    for d in range(grid.dims):
        faces = grid.lower[d] + np.arange(grid.shape[d] + 1) * grid.eta[d]
        if not grid.periodic[d]:
            faces = np.append(faces, grid.upper[d])
        vals = np.concatenate([faces, np.nextafter(faces, -np.inf), np.nextafter(faces, np.inf)])
        if grid.periodic[d]:
            vals = np.concatenate([vals, vals - span[d], vals + span[d]])
        else:
            vals = vals[(grid.lower[d] <= vals) & (vals <= grid.upper[d])]
        pts = rng.uniform(grid.lower, grid.upper, size=(len(vals), grid.dims))
        pts[:, d] = vals
        rows.append(pts)
    rows.append(rng.uniform(grid.lower, grid.upper, size=(n_random, grid.dims)))
    return np.concatenate(rows)


def dump_abstraction(sys, fh):
    """Debug dump, one line per (cell, input)."""
    for cell in range(sys.n_states):
        label = str(sys.grid.multi(cell)) if getattr(sys, "grid", None) is not None else str(cell)
        for u in range(sys.n_inputs):
            succ, is_out = sys.post(cell, u)
            tail = " OUT" if is_out else ""
            fh.write(f"{label} u={u} : {' '.join(str(int(s)) for s in succ)}{tail}\n")


def reference_ranges(boxed):
    """Per-pair successor ranges (starts, lengths, out), derived pair by pair
    from the shift table: clipped to the grid in x and y with OUT set where
    the box had to be, wrapped in heading."""
    offsets = boxed.offsets
    nx, ny, nt = boxed.grid.shape
    ix, iy, it = np.unravel_index(np.arange(boxed.n_states), boxed.grid.shape)
    starts = np.zeros((boxed.n_states, boxed.n_inputs, 3), dtype=np.int16)   # in-box
    lengths = np.zeros_like(starts)                                          # >= 0
    out = np.zeros((boxed.n_states, boxed.n_inputs), dtype=bool)
    for u in range(boxed.n_inputs):
        for d, (i, n) in enumerate(((ix, nx), (iy, ny))):
            lo = i + offsets[it, u, d, 0]
            hi = i + offsets[it, u, d, 1]
            out[:, u] |= (lo < 0) | (hi > n - 1)
            start = np.clip(lo, 0, n - 1)
            starts[:, u, d] = start
            lengths[:, u, d] = (np.clip(hi, 0, n - 1) - start + 1) * ((hi >= 0) & (lo <= n - 1))
        t_lo, t_hi = offsets[0, u, 2]
        starts[:, u, 2] = (it + t_lo) % nt
        lengths[:, u, 2] = min(t_hi - t_lo + 1, nt)
    return starts, lengths, out


def successor_blocks(boxed, block=4096):
    """Yield (counts, out_flags, values) over blocks of pairs, in pair order.

    `values` concatenates the successor lists of the block's pairs in pair
    order, each list sorted; flat indices are expanded from the per-dimension
    ranges of `reference_ranges` a block at a time.
    """
    dims = boxed.grid.dims
    shape = np.asarray(boxed.grid.shape, dtype=np.int64)
    periodic = boxed.grid.periodic
    strides = boxed.grid.strides
    starts, lengths, out = reference_ranges(boxed)
    starts = starts.reshape(-1, dims)
    lengths = lengths.reshape(-1, dims)
    out = out.reshape(-1)
    for ofs in range(0, starts.shape[0], block):
        st = starts[ofs:ofs + block].astype(np.int64)
        ln = lengths[ofs:ofs + block].astype(np.int64)
        counts = ln.prod(axis=1)
        caps = tuple(int(c) for c in ln.max(axis=0))
        mesh = np.meshgrid(*[np.arange(c, dtype=np.int64) for c in caps], indexing="ij")
        flat = np.zeros((st.shape[0],) + caps, dtype=np.int64)
        valid = np.ones_like(flat, dtype=bool)
        expand = (slice(None),) + (None,) * dims
        for d in range(dims):
            idx = st[:, d][expand] + mesh[d][None]
            if periodic[d]:
                idx = idx % shape[d]
            flat += idx * strides[d]
            valid &= mesh[d][None] < ln[:, d][expand]
        k = st.shape[0]
        values = flat.reshape(k, -1)[valid.reshape(k, -1)]
        pair_of = np.repeat(np.arange(k, dtype=np.int64), counts)
        order = np.lexsort((values, pair_of))
        yield counts, out[ofs:ofs + block], values[order]


def explicit_reference(boxed):
    """The boxed abstraction's relation held explicitly, expanded from the
    per-pair ranges of `reference_ranges`."""
    counts, outs, values = (np.concatenate(parts) for parts in zip(*successor_blocks(boxed)))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return ExplicitAbstraction(boxed.n_states, boxed.n_inputs, indptr, values, outs)


class TestGridSpec:
    def test_quantize_example(self):
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        assert g.multi(g.quantize((0.05, -0.95))) == (10, 0)

    def test_periodic_wrap_example(self):
        g = GridSpec.from_target_eta([-np.pi], [np.pi], [np.pi / 2], [True])
        assert g.n_cells == 4
        assert g.quantize((2.5 * np.pi,)) == 3

    def test_out_of_domain(self):
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        with pytest.raises(PointOutOfDomain):
            g.quantize((1.5, 0.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [0, 2], ids=["x", "heading"])
    def test_non_finite_coordinate_rejected(self, value, d):
        # checked before the periodic wrap, which would map it to a cell
        g = GridSpec.from_target_eta([-1, -1, -np.pi], [1, 1, np.pi], [0.1, 0.1, 0.3], [False, False, True])
        point = [0.0, 0.0, 0.0]
        point[d] = value
        with pytest.raises(PointOutOfDomain, match=f"not finite in dimension {d}"):
            g.quantize(point)
        with pytest.raises(PointOutOfDomain, match=f"not finite in dimension {d}"):
            g.quantize_many([[0.5, 0.5, 1.0], point])

    @pytest.mark.parametrize("point", [(), (0.0,), (0.0, 0.0, 0.0)])
    def test_wrong_coordinate_count_rejected(self, point):
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        with pytest.raises(PointOutOfDomain):
            g.quantize(point)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2,), (1, 2, 2)])
    def test_wrong_array_shape_rejected(self, shape):
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        with pytest.raises(PointOutOfDomain):
            g.quantize_many(np.zeros(shape))

    def test_top_face_belongs_to_last_cell(self):
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        assert g.multi(g.quantize((1.0, 1.0))) == (19, 19)

    def test_cell_boundary_belongs_to_upper_cell(self):
        g = GridSpec([0.0], [1.0], [0.25])
        assert g.quantize((0.5,)) == 2

    def test_non_tiling_rejected(self):
        with pytest.raises(GridMismatch):
            GridSpec([-1.3], [1.3], [0.08])

    def test_from_target_eta_rounds_cell_count(self):
        g = GridSpec.from_target_eta([-1.3, -1.3, -np.pi], [1.3, 1.3, np.pi],
                                     [0.08, 0.08, 0.25], [False, False, True])
        assert g.shape == (33, 33, 25)

    def test_cell_interval_examples(self):
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        lo, hi = g.cell_interval(g.flat((0, 0)))
        assert np.allclose(lo, [-1, -1]) and np.allclose(hi, [-0.9, -0.9])
        lo, hi = g.cell_interval(g.flat((19, 19)))
        assert np.allclose(lo, [0.9, 0.9]) and np.allclose(hi, [1.0, 1.0])

    def test_center_round_trip_every_cell(self):
        g = GridSpec.from_target_eta([-1, 0], [1, 2], [0.25, 0.5], [False, True])
        for c in range(g.n_cells):
            assert g.quantize(cell_center(g, c)) == c

    @given(st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_quantized_cell_contains_point(self, x, y):
        # containment up to one rounding step at cell boundaries
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        lo, hi = g.cell_interval(g.quantize((x, y)))
        assert np.all(lo - 1e-12 <= (x, y)) and np.all((x, y) <= hi + 1e-12)

    def test_flat_multi_bijection(self):
        g = small_grid()
        for c in range(g.n_cells):
            assert g.flat(g.multi(c)) == c

    def test_bad_shapes_rejected(self):
        with pytest.raises(GridMismatch):
            GridSpec([0, 0], [1], [0.1, 0.1])
        with pytest.raises(GridMismatch):
            GridSpec([0], [-1], [0.1])
        with pytest.raises(GridMismatch):
            GridSpec([0], [1], [-0.1])


@pytest.mark.parametrize("make_grid", [coarse_grid, periodic_2d_grid], ids=["coarse", "periodic-2d"])
class TestFloatToCellMap:
    """`quantize` is `quantize_many` on one row, at the faces where rounding
    decides the cell and on rows outside the box."""

    def test_many_equals_one_by_one(self, make_grid, rng):
        g = make_grid()
        pts = face_probe_points(g, rng)
        cells = g.quantize_many(pts)
        assert np.array_equal(cells, [g.quantize(p) for p in pts])
        # each cell holds its point, wrapped, up to one rounding step
        span = g.upper - g.lower
        wrapped = np.where(g.periodic, g.lower + np.mod(pts - g.lower, span), pts)
        lo = g.lower + np.stack(np.unravel_index(cells, g.shape), axis=1) * g.eta
        tol = 1e-9 * g.eta
        assert np.all(lo - tol <= wrapped) and np.all(wrapped <= lo + g.eta + tol)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_out_of_box_row_rejected(self, make_grid, rng, side):
        g = make_grid()
        pts = face_probe_points(g, rng)
        d = int(np.flatnonzero(~g.periodic)[0])
        pts[7, d] = (g.upper if side > 0 else g.lower)[d] + side * g.eta[d]
        with pytest.raises(PointOutOfDomain, match=f"dimension {d}"):
            g.quantize_many(pts)
        with pytest.raises(PointOutOfDomain, match=f"dimension {d}"):
            g.quantize(pts[7])


class TestInputGrid:
    def test_lexicographic_order(self):
        g = InputGrid.from_values([-0.4, -0.2, 0.0, 0.2, 0.4], np.linspace(-4, 4, 17))
        assert len(g) == 85
        assert tuple(g[0]) == (-0.4, -4.0)
        assert tuple(g[16]) == (-0.4, 4.0)
        assert tuple(g[17]) == (-0.2, -4.0)

    def test_nearest_tie_breaks_to_lowest_index(self):
        g = InputGrid.from_values([-0.2, 0.2], [0.0])
        assert g.nearest((0.0, 0.0)) == 0
        assert g.nearest((0.1, 0.0)) == 1

    @pytest.mark.parametrize("point", [(0.4,), (0.4, 0.0, 1.0)], ids=["width-1", "width-3"])
    def test_nearest_rejects_a_point_of_another_width(self, point):
        g = InputGrid.from_values([-0.2, 0.2], [0.0])
        with pytest.raises(ValueError, match=f"a point of width {len(point)} for inputs of width 2"):
            g.nearest(point)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            InputGrid([[0.0, 0.0], [0.0, 0.0]])


class TestDubinsStep:
    def test_zero_input_fixed_point(self):
        p = small_params(w=(0, 0, 0))
        assert dubins_step((0.3, -0.2, 1.1), (0.0, 0.0), (0, 0, 0), p) == (0.3, -0.2, 1.1)

    def test_forward_step(self):
        p = small_params()
        x, y, th = dubins_step((0, 0, 0), (0.2, 0.0), (0, 0, 0), p)
        assert (x, y, th) == pytest.approx((0.02, 0.0, 0.0))

    def test_perturbed_step(self):
        p = small_params()
        x, y, th = dubins_step((0, 0, np.pi / 2), (0.4, 4.0), (0.01, -0.01, 0.02), p)
        assert x == pytest.approx(0.01, abs=1e-12)
        assert y == pytest.approx(0.4 * 0.1 - 0.01)
        assert th == pytest.approx(np.pi / 2 + 0.42)

    def test_heading_wraps(self):
        p = small_params(w=(0, 0, 0), tau=1.0)
        _, _, th = dubins_step((0, 0, 3.0), (0.0, 1.0), (0, 0, 0), p)
        assert -np.pi <= th < np.pi
        assert th == pytest.approx(wrap_angle(4.0))


class TestTrigBounds:
    def test_interior_maximum(self):
        mn, mx = cos_bounds(-0.1, 0.1)
        assert mx == 1.0
        assert mn == pytest.approx(np.cos(0.1))

    def test_interior_minimum(self):
        mn, mx = cos_bounds(np.pi - 0.2, np.pi + 0.1)
        assert mn == -1.0

    @given(st.floats(-10, 10), st.floats(0, 7))
    @settings(max_examples=120, deadline=None)
    def test_bounds_contain_dense_samples(self, lo, width):
        hi = lo + width
        mn, mx = cos_bounds(lo, hi)
        smn, smx = sin_bounds(lo, hi)
        ts = np.linspace(lo, hi, 257)
        assert np.all(np.cos(ts) >= mn - 1e-12) and np.all(np.cos(ts) <= mx + 1e-12)
        assert np.all(np.sin(ts) >= smn - 1e-12) and np.all(np.sin(ts) <= smx + 1e-12)
        # tight at some sample
        assert np.cos(ts).max() >= mx - 1e-3 or width > 6
        assert np.cos(ts).min() <= mn + 1e-3 or width > 6


class TestReachOverapprox:
    def test_identity_dynamics(self):
        p = small_params(w=(0, 0, 0))
        box = (np.array([0.1, 0.2, 0.5]), np.array([0.2, 0.3, 0.8]))
        lo, hi = reach_overapprox(box, (0.0, 0.0), p)
        assert np.allclose(lo, box[0]) and np.allclose(hi, box[1])

    def test_stated_x_interval(self):
        p = small_params()
        box = (np.array([0.0, 0.0, 0.0]), np.array([0.1, 0.1, 0.3]))
        lo, hi = reach_overapprox(box, (0.2, 0.0), p)
        assert lo[0] == pytest.approx(0.0 + 0.2 * 0.1 * np.cos(0.3) - 0.01)
        assert hi[0] == pytest.approx(0.1 + 0.2 * 0.1 * 1.0 + 0.01)

    def test_negative_speed_and_sampling_containment(self, rng):
        p = small_params()
        box = (np.array([-0.2, 0.05, 2.4]), np.array([-0.1, 0.15, 2.7]))
        for u in [(-0.4, 2.0), (0.4, -4.0), (0.2, 0.0), (-0.2, -1.5)]:
            lo, hi = reach_overapprox(box, u, p)
            xs = rng.uniform(box[0], box[1], size=(500, 3))
            ws = rng.uniform(-p.disturbance.radius, p.disturbance.radius, size=(500, 3))
            for x, w in zip(xs, ws):
                nx, ny, nth = dubins_step(x, u, w, p)
                # heading of the returned box is unwrapped
                raw_th = x[2] + u[1] * p.tau + w[2]
                assert lo[0] - 1e-12 <= nx <= hi[0] + 1e-12
                assert lo[1] - 1e-12 <= ny <= hi[1] + 1e-12
                assert lo[2] - 1e-12 <= raw_th <= hi[2] + 1e-12


class TestBuildAbstraction:
    def test_identity_dynamics_self_loop(self):
        g = small_grid()
        inputs = InputGrid.from_values([0.0], [0.0])
        p = small_params(w=(0, 0, 0))
        sysm = build_abstraction(g, inputs, p)
        for c in [0, 17, g.n_cells - 1]:
            succ, is_out = sysm.post(c, 0)
            assert list(succ) == [c]
            assert not is_out

    def test_out_at_positive_x_face(self):
        g = small_grid()
        inputs = InputGrid.from_values([0.4], [0.0])
        p = small_params()
        sysm = build_abstraction(g, inputs, p)
        # cell touching the +x face, heading cell straddling angle 0
        nt = g.shape[2]
        cell = g.flat((g.shape[0] - 1, 2, nt // 2))
        _, is_out = sysm.post(cell, 0)
        assert is_out

    def test_deterministic_bit_for_bit(self):
        g = small_grid()
        inputs = small_inputs()
        p = small_params()
        a = build_abstraction(g, inputs, p)
        b = build_abstraction(g, inputs, p)
        assert a.content_hash == b.content_hash
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.stays, b.stays)

    def test_soundness_by_sampling(self, rng):
        g = small_grid()
        inputs = small_inputs()
        p = small_params()
        sysm = build_abstraction(g, inputs, p)
        for _ in range(2000):
            x = rng.uniform([-0.3, -0.3, -np.pi], [0.3, 0.3, np.pi])
            u = int(rng.integers(len(inputs)))
            w = p.disturbance.sample(rng)
            nxt = dubins_step(x, inputs[u], w, p)
            succ, is_out = sysm.post(g.quantize(x), u)
            if is_out:
                continue
            assert g.quantize(nxt) in set(int(s) for s in succ)

    def test_wrong_grid_shape_rejected(self):
        g = GridSpec([-1, -1], [1, 1], [0.1, 0.1])
        with pytest.raises(GridMismatch):
            build_abstraction(g, small_inputs(), small_params())


class TestPostAgainstRanges:
    """`post` and `stays`, computed from the shift table, against the per-pair
    ranges of `reference_ranges`."""

    @staticmethod
    def cases():
        # partial clipping at all four x-y faces and the heading wrap; x-y
        # ranges wider than one cell each way and heading ranges of at least
        # the number of heading cells; boxes wholly past a face and heading
        # shifts of several rows
        return [
            build_abstraction(small_grid(6, 8), small_inputs(), small_params()),
            build_abstraction(small_grid(6, 4), small_inputs(), small_params(w=(0.15, 0.15, 3.5))),
            build_abstraction(small_grid(5, 6), InputGrid.from_values([-0.4, 0.4], [-4.0, 4.0]),
                              small_params(tau=1.0)),
        ]

    def test_every_pair_of_small_grids(self):
        covered = set()
        for boxed in self.cases():
            explicit = explicit_reference(boxed)
            assert np.array_equal(boxed.stays, explicit.stays)
            for c in range(boxed.n_states):
                for u in range(boxed.n_inputs):
                    s1, o1 = boxed.post(c, u)
                    s2, o2 = explicit.post(c, u)
                    assert o1 == o2
                    assert s1.dtype == np.int64 and np.array_equal(s1, s2)
            lengths = reference_ranges(boxed)[1]
            cells = np.stack(np.unravel_index(np.arange(boxed.n_states), boxed.grid.shape), axis=1)
            ranges = boxed.offsets[cells[:, 2]] + cells[:, None, :, None]   # (n, m, 3, 2)
            nx, ny, nt = boxed.grid.shape
            for d, n in ((0, nx), (1, ny)):
                lo, hi = ranges[..., d, 0], ranges[..., d, 1]
                if np.any((lo < 0) & (hi >= 0)):
                    covered.add(f"clipped below in {d}")
                if np.any((hi > n - 1) & (lo <= n - 1)):
                    covered.add(f"clipped above in {d}")
                if np.any((hi < 0) | (lo > n - 1)):
                    covered.add(f"wholly outside in {d}")
            lo, hi = ranges[..., 2, 0], ranges[..., 2, 1]
            if np.any(((lo < 0) | (hi > nt - 1)) & (lengths[..., 2] < nt)):
                covered.add("heading wrap")
            if np.any(hi - lo + 1 >= nt):
                covered.add("heading range of at least nt")
        assert covered == {f"clipped {s} in {d}" for s in ("below", "above") for d in (0, 1)} | {
            "wholly outside in 0", "wholly outside in 1", "heading wrap", "heading range of at least nt"}

    @pytest.mark.parametrize("preset", ["coarse", "fine"])
    def test_out_on_presets(self, preset):
        from parashield.bench import preset_config
        cfg = preset_config(preset)
        boxed = build_abstraction(cfg.grid, cfg.inputs, cfg.params)
        assert np.array_equal(~_unpack_bool(boxed.stays, boxed.n_inputs), reference_ranges(boxed)[2])


class TestSerialization:
    def test_dump_one_line_per_pair(self, automaton7):
        sysm, _, _ = automaton7
        buf = io.StringIO()
        dump_abstraction(sysm, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == sysm.n_states * sysm.n_inputs
        assert lines[0] == "0 u=0 : 1"


class TestExplicitAbstraction:
    def test_empty_post_requires_out(self):
        with pytest.raises(ValueError):
            ExplicitAbstraction.from_map(2, 1, {(0, 0): [1]})

    def test_out_pair_with_empty_post_ok(self):
        sysm = ExplicitAbstraction.from_map(2, 1, {(0, 0): [1]}, out_pairs=[(1, 0)])
        succ, is_out = sysm.post(1, 0)
        assert len(succ) == 0 and is_out

    def test_stays_and_content_hash_from_the_bool_out(self, rng):
        # `stays` packs OUT's complement; the hash still digests the
        # relation as successor lists plus one OUT byte per pair
        out = rng.random((5, 3)) < 0.3
        post = {(x, u): rng.integers(0, 5, size=2).tolist() for x in range(5) for u in range(3)}
        sysm = ExplicitAbstraction.from_map(5, 3, post, out_pairs=zip(*np.nonzero(out)))
        assert np.array_equal(~_unpack_bool(sysm.stays, 3), out)
        assert [sysm.post(x, u)[1] for x in range(5) for u in range(3)] == out.ravel().tolist()
        h = hashlib.sha256(b"PSHD-explicit")
        h.update(struct.pack("<qq", 5, 3))
        h.update(sysm.indptr.astype(np.int64).tobytes())
        h.update(sysm.succ.astype(np.int64).tobytes())
        h.update(out.tobytes())
        assert sysm.content_hash == h.hexdigest()


class TestStays:
    """`stays`, the one packed OUT relation of an abstraction."""

    def test_no_bits_past_the_inputs(self, rng):
        from parashield.bench import preset_config, random_system
        cfg = preset_config("coarse")
        for sysm in (build_abstraction(cfg.grid, cfg.inputs, cfg.params),
                     build_abstraction(small_grid(), small_inputs(), small_params()), random_system(rng)):
            bits = np.unpackbits(sysm.stays.view(np.uint8), axis=1, bitorder="little")
            assert bits.shape == (sysm.n_states, 64 * -(-sysm.n_inputs // 64))
            assert bits[:, :sysm.n_inputs].any()
            assert not bits[:, sysm.n_inputs:].any()


def reach_dilation(grid, radius, member):
    """States within `radius` (per dimension, heading wrapped) of a member."""
    cells = np.stack(np.unravel_index(np.flatnonzero(member), grid.shape), axis=1)
    axes = [np.arange(-r, r + 1) for r in radius]
    offs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    near = (cells[:, None, :] + offs[None]).reshape(-1, 3)
    near[:, 2] %= grid.shape[2]
    inside = np.all((near[:, :2] >= 0) & (near[:, :2] < grid.shape[:2]), axis=1)
    out = np.zeros(grid.n_cells, dtype=bool)
    out[np.ravel_multi_index(tuple(near[inside].T), grid.shape)] = True
    return out


def probe_sets(grid, rng):
    """Seeded random sets: sparse clusters, dense, on the x/y faces, across
    the heading wrap, and empty; then sets of whole heading columns: a
    fence of the two column rings next to the x-y faces, unions of interior
    columns, the whole grid, columns mixed with scattered states, and
    columns on the faces and corners."""
    nx, ny, nt = grid.shape
    sets = []
    for _ in range(3):
        a = np.zeros(grid.shape, dtype=bool)
        cx, cy = rng.integers(nx), rng.integers(ny)
        box = (slice(max(cx - 1, 0), cx + 2), slice(max(cy - 1, 0), cy + 2))
        a[box] = rng.random(a[box].shape) < 0.3
        sets.append(a)
    for density in (0.002, 0.3, 0.9):
        sets.append(rng.random(grid.shape) < density)
    faces = np.zeros(grid.shape, dtype=bool)
    faces[0, rng.integers(ny), rng.integers(nt)] = faces[-1, rng.integers(ny), rng.integers(nt)] = True
    faces[rng.integers(nx), 0, :] = faces[rng.integers(nx), -1, rng.integers(nt)] = True
    sets.append(faces)
    wrap = np.zeros(grid.shape, dtype=bool)
    wrap[nx // 2, ny // 2, [0, nt - 1]] = True
    wrap[0, ny - 1, [nt - 1]] = True
    sets.append(wrap)
    sets.append(np.zeros(grid.shape, dtype=bool))
    fence = np.ones(grid.shape, dtype=bool)
    fence[2:-2, 2:-2] = False
    sets.append(fence)
    for n_cols in (2, 5):
        interior = np.zeros(grid.shape, dtype=bool)
        interior[rng.integers(1, nx - 1, size=n_cols), rng.integers(1, ny - 1, size=n_cols)] = True
        sets.append(interior)
    sets.append(np.ones(grid.shape, dtype=bool))
    mixed = rng.random(grid.shape) < 0.02
    mixed[rng.random((nx, ny)) < 0.1] = True
    sets.append(mixed)
    edge = np.zeros(grid.shape, dtype=bool)
    edge[[0, 0, nx - 1, nx - 1, 0, nx - 1], [0, ny - 1, 0, ny - 1, ny // 2, ny // 2]] = True
    edge[nx // 2, [0, ny - 1]] = True
    sets.append(edge)
    return [s.reshape(-1) for s in sets]


def full_hits(sysm, rows, hits):
    out = np.zeros((sysm.n_states, sysm.n_inputs), dtype=bool)
    out[rows] = _unpack_bool(hits, sysm.n_inputs)
    return out


def record_paths(boxed, monkeypatch):
    """The list to which each later hit test of `boxed` appends its name."""
    paths = []
    for name in ("_column_hits", "_scatter_hits"):
        def counted(*args, _inner=getattr(boxed, name), _name=name):
            paths.append(_name)
            return _inner(*args)
        monkeypatch.setattr(boxed, name, counted, raising=False)
    return paths


def column_set(grid, cols):
    """The mask of the whole heading columns with x-y indices `cols`."""
    mask = np.zeros((grid.shape[0] * grid.shape[1], grid.shape[2]), dtype=bool)
    mask[cols] = True
    return mask.reshape(-1)


class TestNeighbourhoodWords:
    """The boxed abstraction's two hit tests, whole heading columns in the
    x-y plane and predecessors, against each other and against the same
    relation held explicitly, expanded from the per-pair reference ranges;
    and which of them `pair_hits` runs."""

    @pytest.fixture(scope="class")
    def coarse_pair(self):
        from parashield.bench import preset_config
        cfg = preset_config("coarse")
        return self._pair(build_abstraction(cfg.grid, cfg.inputs, cfg.params))

    @staticmethod
    def _pair(boxed):
        return boxed, explicit_reference(boxed)

    def _check(self, boxed, explicit, rng, extra=()):
        n, m = boxed.n_states, boxed.n_inputs
        for removed in probe_sets(boxed.grid, rng) + list(extra):
            within = rng.random(n) < 0.7
            alive = rng.random((n, m)) < 0.6
            idx = np.flatnonzero(removed)
            cols = boxed._whole_columns(idx)
            columns = column_set(boxed.grid, cols)
            nt = boxed.grid.shape[2]
            assert np.array_equal(columns[::nt], removed.reshape(-1, nt).all(axis=1))
            for w in (None, within):
                # each test on the states it answers, whichever `pair_hits`
                # picks; the predecessors on the whole set
                expect = {}
                for test, arg, part in ((boxed._scatter_hits, idx, removed), (boxed._column_hits, cols, columns)):
                    key = part.tobytes()
                    if key not in expect:
                        near = reach_dilation(boxed.grid, boxed.reach_radius, part)
                        expect[key] = (np.flatnonzero(near if w is None else near & w),
                                       full_hits(explicit, *explicit.pair_hits(part, within=w)) if part.any()
                                       else np.zeros((n, m), dtype=bool))
                    rows, hits = test(arg, w)
                    assert np.array_equal(rows, expect[key][0])
                    assert np.array_equal(full_hits(boxed, rows, hits), expect[key][1])
                expect_rows, expect_hits = expect[removed.tobytes()]
                narrow = lambda r: alive[r]
                # the ascending-index form answers exactly as the mask form,
                # and `row_alive` narrows the hits
                irows, ihits = explicit.pair_hits(idx, within=w, row_alive=narrow)
                assert np.array_equal(irows, np.flatnonzero(expect_hits.any(axis=1)))
                assert np.array_equal(full_hits(explicit, irows, ihits), expect_hits & alive)
                for row_alive, want in ((None, expect_hits), (narrow, expect_hits & alive)):
                    rows, hits = boxed.pair_hits(removed, within=w, row_alive=row_alive)
                    irows, ihits = boxed.pair_hits(idx, within=w, row_alive=row_alive)
                    assert np.array_equal(irows, rows) and np.array_equal(ihits, hits)
                    assert np.array_equal(rows, expect_rows)
                    assert np.array_equal(full_hits(boxed, rows, hits), want)

    def test_coarse_matches_explicit(self, coarse_pair, rng):
        # the preset's own fence mask too: a cold synthesis removes it first
        from parashield.bench import preset_config
        from parashield.navsim import ColumnLayout
        boxed, explicit = coarse_pair
        assert np.prod(2 * boxed.reach_radius + 1) == 45
        cfg = preset_config("coarse")
        self._check(boxed, explicit, rng, extra=[ColumnLayout(cfg.grid, cfg.d).fence_mask()])

    def test_neighbourhood_over_64_bits(self, rng):
        # wide x-y disturbance and a heading disturbance past half the circle
        # on four heading cells: radius (2, 2, 2) after clipping, 125 offsets;
        # heading offsets -2 and +2 coincide, so the predecessor path meets
        # every predecessor twice through them
        boxed = build_abstraction(small_grid(6, 4), small_inputs(), small_params(w=(0.15, 0.15, 3.5)))
        assert list(boxed.reach_radius) == [2, 2, 2]
        boxed, explicit = self._pair(boxed)
        self._check(boxed, explicit, rng)

    def test_xy_kernel_over_64_bits(self, rng):
        # radius 4 in x and y: 81 x-y offsets, so the column test's kernels
        # and words take two 64-bit lanes
        boxed = build_abstraction(small_grid(12, 4), small_inputs(), small_params(w=(0.15, 0.15, 0.02)))
        assert list(boxed.reach_radius[:2]) == [4, 4]
        assert boxed._xy_kernels.shape[1] == 2
        boxed, explicit = self._pair(boxed)
        self._check(boxed, explicit, rng)

    def test_cold_synthesis_takes_both_paths(self, coarse_pair, monkeypatch):
        # a cold descent's first sweep removes the fence and a column, whole
        # heading columns answered in the x-y plane; its last sweeps remove a
        # thin frontier and are answered by predecessors
        from parashield.bench import preset_config
        from parashield.navsim import make_atomics
        boxed, _ = coarse_pair
        cfg = preset_config("coarse")
        paths = record_paths(boxed, monkeypatch)
        sizes = []
        safety_control(boxed, SafetySpec(make_atomics(cfg.grid, cfg.d, cfg.epsilon)[1]), iteration_sizes=sizes)
        assert paths[0] == "_column_hits" and paths[-1] == "_scatter_hits"
        assert len(paths) == len(sizes) - 1

    def test_single_column_takes_predecessors(self, coarse_pair, monkeypatch, rng):
        # one whole column is answered by predecessors, also among other
        # states; two or more in the x-y plane, and with other states by both
        boxed, _ = coarse_pair
        nx, ny, nt = boxed.grid.shape
        paths = record_paths(boxed, monkeypatch)
        middle = nx // 2 * ny + ny // 2
        scattered = np.zeros(boxed.n_states, dtype=bool)
        scattered[rng.choice(boxed.n_states // 2, size=2 * nt, replace=False) * 2] = True
        for removed, expect in ((column_set(boxed.grid, [middle]), ["_scatter_hits"]),
                                (column_set(boxed.grid, [middle]) | scattered, ["_scatter_hits"]),
                                (column_set(boxed.grid, [middle, middle + 3]), ["_column_hits"]),
                                (column_set(boxed.grid, [middle, middle + 1]) | scattered,
                                 ["_column_hits", "_scatter_hits"])):
            paths.clear()
            boxed.pair_hits(removed)
            assert paths == expect

    def test_warm_started_atomic_takes_predecessors(self, coarse_pair, monkeypatch):
        # bank synthesis starts an atomic's descent from the base; where the
        # base's domain holds the atomic's whole column, that one column is
        # the first removal, answered by predecessors
        from parashield.bench import preset_config
        from parashield.navsim import make_atomics
        boxed, _ = coarse_pair
        cfg = preset_config("coarse")
        atomics = make_atomics(cfg.grid, cfg.d, cfg.epsilon)
        base = safety_control(boxed, SafetySpec(atomics[0]))
        i = next(i for i in range(len(atomics) // 2, len(atomics))
                 if base.defined[~atomics[i].mask & atomics[0].mask].all())
        paths = record_paths(boxed, monkeypatch)
        sizes = []
        safety_control(boxed, SafetySpec(atomics[i]), iteration_sizes=sizes, warm_start=base)
        assert sizes[0] == base.domain_size() - boxed.grid.shape[2]
        assert paths[0] == "_scatter_hits"


class TestPackedHits:
    """`pair_hits` answers in the `ControllerTable.masks` layout on both
    abstractions: uint64 words, zero past `n_inputs`, narrowed by `row_alive`."""

    @staticmethod
    def _check(sysm, removed, rng):
        m = sysm.n_inputs
        padding = ~_pack_bool(np.ones(m, dtype=bool))
        alive = rng.random((sysm.n_states, m)) < 0.5
        rows, hits = sysm.pair_hits(removed)
        assert hits.dtype == np.uint64 and hits.shape == (len(rows), (m + 63) // 64)
        assert not np.any(hits & padding)
        assert np.any(hits)
        narrowed_rows, narrowed = sysm.pair_hits(removed, row_alive=lambda r: alive[r])
        assert np.array_equal(narrowed_rows, rows)
        assert np.array_equal(narrowed, hits & _pack_bool(alive[rows]))

    def test_boxed_both_paths(self, rng):
        # 85 inputs, two words per row; a sparse and a dense set, each with
        # two whole heading columns
        from parashield.bench import preset_config
        cfg = preset_config("coarse")
        boxed = build_abstraction(cfg.grid, cfg.inputs, cfg.params)
        padding = ~_pack_bool(np.ones(boxed.n_inputs, dtype=bool))
        for density in (0.0005, 0.3):
            removed = rng.random(boxed.n_states) < density
            removed |= column_set(boxed.grid, [40, 300])
            self._check(boxed, removed, rng)
            idx = np.flatnonzero(removed)
            for path, arg in ((boxed._column_hits, boxed._whole_columns(idx)), (boxed._scatter_hits, idx)):
                _, hits = path(arg)
                assert hits.dtype == np.uint64 and not np.any(hits & padding)

    @pytest.mark.parametrize("m", [1, 64, 70, 130])
    def test_explicit(self, rng, m):
        n = 40
        post = {(x, u): rng.integers(0, n, size=2).tolist() for x in range(n) for u in range(m)}
        sysm = ExplicitAbstraction.from_map(n, m, post)
        self._check(sysm, rng.random(n) < 0.2, rng)


class TestTranslationInvariance:
    """`face_distance` and `moves_alike` against their definitions, state by
    state: a move is alike exactly when it keeps the heading and the rows'
    reach dilation lies on the grid at both ends, the move read from
    multi-indices."""

    @pytest.fixture(scope="class")
    def boxed(self):
        return build_abstraction(small_grid(10, 6), small_inputs(), small_params(w=(0.08, 0.02, 0.02)))

    def test_face_distance(self, boxed):
        nx, ny, _ = boxed.grid.shape
        want = [min(x, nx - 1 - x, y, ny - 1 - y) for x, y, _ in map(boxed.grid.multi, range(boxed.n_states))]
        assert boxed.face_distance(np.arange(boxed.n_states)).tolist() == want

    @pytest.mark.parametrize("corner", [(0, 2), (2, 3), (6, 7), (8, 1)])
    def test_moves_alike(self, boxed, corner):
        nx, ny, nt = boxed.grid.shape
        rx, ry, _ = boxed.reach_radius.tolist()
        assert (rx, ry) == (2, 1)
        # the whole columns of an L of three x-y cells, and one more state
        cx, cy = corner
        cells = [(cx, cy), (cx + 1, cy), (cx, cy + 1)]
        rows = np.unique([boxed.grid.flat((x, y, t)) for x, y in cells for t in range(nt)]
                         + [boxed.grid.flat((cx + 1, cy + 1, 2))])
        src = boxed.grid.flat((cx, cy, 1))
        moves = [(dx, dy, dt) for dx in range(-nx, nx) for dy in range(-ny, ny) for dt in (0, 1)
                 if 0 <= cx + dx < nx and 0 <= cy + dy < ny]
        dst = np.array([boxed.grid.flat((cx + dx, cy + dy, 1 + dt)) for dx, dy, dt in moves])

        def on_grid(dx, dy):
            xs, ys = [x + dx for x, _ in cells] + [cx + 1 + dx], [y + dy for _, y in cells] + [cy + 1 + dy]
            return min(xs) - rx >= 0 and max(xs) + rx < nx and min(ys) - ry >= 0 and max(ys) + ry < ny

        want = [dt == 0 and on_grid(0, 0) and on_grid(dx, dy) for dx, dy, dt in moves]
        assert boxed.moves_alike(rows, src, dst).tolist() == want
        # a flat shift reads a move with a negative y part as another move
        assert any(w and dy < 0 for w, (_, dy, _) in zip(want, moves)) == on_grid(0, 0)

    def test_explicit_never_alike(self, automaton7):
        sysm = automaton7[0]
        assert sysm.face_distance(np.arange(7)).tolist() == [0] * 7
        assert not sysm.moves_alike(np.array([1, 2]), 1, np.arange(7)).any()


class TestMaskLengths:
    """`pair_hits` rejects a `removed` or `within` mask of another length
    than the states, naming both sizes, on both abstractions."""

    @pytest.mark.parametrize("kind", ["boxed", "explicit"])
    @pytest.mark.parametrize("arg", ["removed", "within"])
    def test_mask_of_another_length_rejected(self, kind, arg):
        from parashield.bench import preset_config
        cfg = preset_config("coarse")
        boxed = build_abstraction(cfg.grid, cfg.inputs, cfg.params)
        sysm = boxed if kind == "boxed" else explicit_reference(build_abstraction(
            small_grid(), small_inputs(), small_params()))
        n = sysm.n_states
        for size in (n // 3, n - 1, n + 1):
            removed, within = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
            removed[:5] = True
            if arg == "removed":
                removed = np.resize(removed, size)
            else:
                within = within[:size] if size < n else np.ones(size, dtype=bool)
            with pytest.raises(UniverseMismatch) as info:
                sysm.pair_hits(removed, within=within)
            assert f"{size} entries" in str(info.value) and f"{n} states" in str(info.value)
            assert arg in str(info.value)

    @pytest.mark.parametrize("kind", ["boxed", "explicit"])
    def test_stacked_mask_lengths_rejected(self, kind):
        # a `within` for copies of the states holds a whole number of them,
        # and a `removed` mask as many entries as `within`
        from parashield.bench import preset_config
        cfg = preset_config("coarse")
        sysm = build_abstraction(cfg.grid, cfg.inputs, cfg.params) if kind == "boxed" else explicit_reference(
            build_abstraction(small_grid(), small_inputs(), small_params()))
        n = sysm.n_states
        for arg, size, removed, within in (
                *(("within", size, size, size) for size in (0, 2 * n - 1, 2 * n + 1, 3 * n + n // 2)),
                *(("removed", size, size, 2 * n) for size in (n, 2 * n - 1, 3 * n))):
            removed = np.zeros(removed, dtype=bool)
            removed[:5] = True
            with pytest.raises(UniverseMismatch) as info:
                sysm.pair_hits(removed, within=np.ones(within, dtype=bool))
            states = n if arg == "within" else 2 * n
            assert f"a {arg} mask of {size} entries for {states} states" in str(info.value)


def stacked(sysm, removed, within, test=None):
    """What copy j of the states answers alone, for every j, its rows moved
    by j * n: by `pair_hits`, or by a hit test `test(arg, within)` that gets
    `arg(copy's removed mask)`."""
    n = sysm.n_states
    rows, hits = [], []
    for j in range(within.size // n):
        part, w = removed[j * n:(j + 1) * n], within[j * n:(j + 1) * n]
        r, h = sysm.pair_hits(part, within=w) if test is None else test[0](test[1](part), w)
        rows.append(r + j * n)
        hits.append(h)
    return np.concatenate(rows), np.concatenate(hits)


class TestStackedCopies:
    """`pair_hits` on k copies of the states (a `within` of k * n entries)
    answers exactly what each copy answers alone, its rows moved by j * n
    and its hits the same, on both abstractions and through both boxed hit
    tests."""

    @pytest.fixture(scope="class")
    def boxed(self):
        from parashield.bench import preset_config
        cfg = preset_config("coarse")
        return build_abstraction(cfg.grid, cfg.inputs, cfg.params)

    @staticmethod
    def _check(sysm, removed, within):
        expect_rows, expect_hits = stacked(sysm, removed, within)
        for arg in (removed, np.flatnonzero(removed)):
            rows, hits = sysm.pair_hits(arg, within=within)
            assert np.array_equal(rows, expect_rows)
            assert np.array_equal(hits, expect_hits)

    @staticmethod
    def _copies(boxed, columns, scattered=()):
        """Three copies of the states: whole heading columns (copy, x, y)
        and single states (copy, x, y, heading row)."""
        nx, ny, nt = boxed.grid.shape
        removed = np.zeros((3, nx, ny, nt), dtype=bool)
        for j, x, y in columns:
            removed[j, x, y] = True
        for j, x, y, t in scattered:
            removed[j, x, y, t] = True
        return removed.reshape(-1)

    def test_boxed_copies_answer_alone(self, boxed, monkeypatch, rng):
        nx, ny, nt = boxed.grid.shape
        # copy 0's last column (x = nx - 1) and copy 1's first (x = 0) are
        # neighbours in the stacked flat order; each copy holds one or two
        # whole columns, so alone it may take predecessors where the stack
        # takes the column test
        columns = [(0, nx - 1, ny - 1), (0, 3, 5), (1, 0, 0), (1, 0, ny // 2), (2, nx - 1, 0)]
        single = [(0, nx - 1, ny - 1), (1, 0, 0)]
        # states on the x = 0 and x = nx - 1 faces next to a copy boundary,
        # fewer than a column each
        faces = [(0, nx - 1, ny - 1, t) for t in range(0, nt, 2)] + [(1, 0, 0, t) for t in range(1, nt, 3)]
        faces += [(2, nx - 1, y, int(t)) for y, t in zip(range(ny), rng.integers(nt, size=ny))]
        faces += [(j, int(x), int(y), int(t)) for j, x, y, t in zip(rng.integers(3, size=40), rng.integers(nx, size=40),
                                                                      rng.integers(ny, size=40), rng.integers(nt, size=40))]
        paths = record_paths(boxed, monkeypatch)
        for removed, expect in ((self._copies(boxed, columns), ["_column_hits"]),
                                (self._copies(boxed, single), ["_column_hits"]),
                                (self._copies(boxed, (), faces), ["_scatter_hits"]),
                                (self._copies(boxed, columns, faces), ["_column_hits", "_scatter_hits"])):
            for within in (np.ones(removed.size, dtype=bool), rng.random(removed.size) < 0.7):
                self._check(boxed, removed, within)
                paths.clear()
                boxed.pair_hits(removed, within=within)
                assert paths == expect

    def test_boxed_hit_tests_answer_per_copy(self, boxed, rng):
        # each hit test on its own: columns spread over the copies, including
        # the faces next to a copy boundary, and scattered states
        nx, ny, nt = boxed.grid.shape
        columns = [(0, nx - 1, ny - 1), (1, 0, 0), (1, nx - 1, 2), (2, 0, ny - 1), (2, 7, 9)]
        scattered = [(0, nx - 1, ny - 1, 3), (1, 0, 0, nt - 1), (2, 0, 4, 0), (2, 12, 12, 5)]
        removed = self._copies(boxed, columns, scattered)
        within = rng.random(removed.size) < 0.7
        for test, arg in ((boxed._column_hits, lambda part: boxed._whole_columns(np.flatnonzero(part))),
                          (boxed._scatter_hits, np.flatnonzero)):
            rows, hits = test(arg(removed), within)
            expect_rows, expect_hits = stacked(boxed, removed, within, test=(test, arg))
            assert np.array_equal(rows, expect_rows)
            assert np.array_equal(hits, expect_hits)

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_explicit_copies_answer_alone(self, rng, copies):
        for m in (3, 70):
            n = 40
            post = {(x, u): rng.integers(0, n, size=2).tolist() for x in range(n) for u in range(m)}
            sysm = ExplicitAbstraction.from_map(n, m, post)
            for density in (0.05, 0.4):
                removed = rng.random(copies * n) < density
                self._check(sysm, removed, rng.random(copies * n) < 0.7)
