import csv

import numpy as np
import pytest

from parashield.bench import GRID_PRESETS, preset_config
from parashield.errors import GenerationFailed
from parashield.navsim import (
    ColumnLayout,
    EpisodeTrace,
    TRACE_FIELDS,
    SensingConfig,
    StepRecord,
    VisibleSnapshot,
    WorldMap,
    WorldParams,
    check_handover,
    load_world,
    make_atomics,
    make_sensing_config,
    random_world,
    run_episode,
    save_world,
    scripted_controller,
    sense,
)
from parashield.shield import compose
from parashield.synthesis import StateSet


@pytest.fixture(scope="module")
def coarse_cfg():
    return make_sensing_config(eta=(0.10, 0.10, 0.30))


def read_trace(path, mode, seed):
    """Read a trace CSV written by `EpisodeTrace.to_csv` back into a trace."""
    trace = EpisodeTrace(mode=mode, seed=seed)
    with open(path, newline="") as f:
        r = csv.DictReader(f)
        assert r.fieldnames == TRACE_FIELDS
        for row in r:
            trace.status = row.pop("status")
            trace.steps.append(StepRecord(
                step=int(row["step"]), x=float(row["x"]), y=float(row["y"]),
                theta=float(row["theta"]), cell=int(row["cell"]),
                active_count=int(row["active_count"]),
                proposed_v=float(row["proposed_v"]), proposed_a=float(row["proposed_a"]),
                chosen_v=float(row["chosen_v"]), chosen_a=float(row["chosen_a"]),
                intervened=row["intervened"] == "True", in_domain=row["in_domain"] == "True",
                shield_seconds=float(row["shield_seconds"]),
                w1=float(row["w1"]), w2=float(row["w2"]), w3=float(row["w3"]),
            ))
    return trace


def dense_atomics(grid, d):
    """The atomic safe sets as one dense mask each: the reference for the
    stored sequence of `make_atomics`."""
    layout = ColumnLayout(grid, d)
    fence = layout.fence_mask()
    atomics = [StateSet(~fence)]
    for ix in range(layout.ix0, layout.ix1 + 1):
        for iy in range(layout.iy0, layout.iy1 + 1):
            unsafe = fence.copy()
            unsafe[layout.column_cells(ix, iy)] = True
            atomics.append(StateSet(~unsafe))
    return atomics


def wall_world():
    """Straight corridor with a full-height wall: driving east collides."""
    return WorldMap(bounds=(0.0, 0.0, 3.0, 1.2),
                    obstacles=[(1.6, 0.0, 1.9, 1.2)],
                    goal=(2.5, 0.4, 2.8, 0.8),
                    start=(0.4, 0.6, 0.0))


class TestAtomics:
    def test_column_counts_coarse(self, coarse_cfg):
        layout = ColumnLayout(coarse_cfg.grid, coarse_cfg.d)
        assert layout.nx == 26 and layout.ny == 26
        assert layout.n_interior == 400
        assert layout.nx * layout.ny - layout.n_interior == 276

    def test_atomic_count_and_fence(self, coarse_cfg):
        atomics = make_atomics(coarse_cfg.grid, coarse_cfg.d, coarse_cfg.epsilon)
        assert len(atomics) == 401
        layout = ColumnLayout(coarse_cfg.grid, coarse_cfg.d)
        fence = StateSet(layout.fence_mask())
        # every atomic excludes the fence
        for a in (atomics[0], atomics[1], atomics[200]):
            assert (a & fence) == StateSet.empty(a.n)

    def test_intersection_is_de_morgan_union(self, coarse_cfg):
        atomics = make_atomics(coarse_cfg.grid, coarse_cfg.d, coarse_cfg.epsilon)
        layout = ColumnLayout(coarse_cfg.grid, coarse_cfg.d)
        i, j = 7, 123
        both = atomics[i] & atomics[j]
        cx, cy = layout.column_of(i)
        dx, dy = layout.column_of(j)
        unsafe = layout.fence_mask().copy()
        unsafe[layout.column_cells(cx, cy)] = True
        unsafe[layout.column_cells(dx, dy)] = True
        assert both == StateSet(~unsafe)

    @pytest.mark.parametrize("preset", ["coarse", "fine"])
    def test_equal_the_dense_masks(self, preset):
        cfg = preset_config(preset)
        atomics = make_atomics(cfg.grid, cfg.d, cfg.epsilon)
        want = dense_atomics(cfg.grid, cfg.d)
        assert len(atomics) == len(want)
        for i, s in enumerate(want):
            assert np.array_equal(atomics[i].mask, s.mask)

    def test_indexing(self, coarse_cfg):
        atomics = make_atomics(coarse_cfg.grid, coarse_cfg.d, coarse_cfg.epsilon)
        n = len(atomics)
        assert atomics[-1] == atomics[n - 1] and atomics[-n] == atomics[0]
        assert atomics[np.int64(3)] == atomics[3]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                atomics[i]
        # every access builds a fresh set
        a = atomics[5]
        a.mask[:] = False
        assert atomics[5] != a
        assert [s for s in atomics][7] == atomics[7] and sum(1 for _ in atomics) == n

    def test_fine_safe_sets_hold_under_a_megabyte(self, fine_rt):
        sets = fine_rt.bank.safes
        assert len(sets) == 1090
        assert sets.ref.nbytes + sets.ptr.nbytes + sets.idx.nbytes < 2 ** 20

    def test_interior_ids_are_bijective(self, coarse_cfg):
        layout = ColumnLayout(coarse_cfg.grid, coarse_cfg.d)
        seen = set()
        for ix in range(layout.ix0, layout.ix1 + 1):
            for iy in range(layout.iy0, layout.iy1 + 1):
                aid = layout.id_of(ix, iy)
                assert layout.column_of(aid) == (ix, iy)
                seen.add(aid)
        assert seen == set(range(1, layout.n_interior + 1))


class TestSensingConfig:
    def test_fence_must_exceed_step_bound(self):
        with pytest.raises(ValueError):
            make_sensing_config(epsilon=0.04)  # below v_max*tau + w

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            make_sensing_config(epsilon=-0.1)

    @pytest.mark.parametrize("preset", sorted(GRID_PRESETS))
    def test_the_benchmark_call_builds_the_setup(self, preset):
        # the call the benchmark makes builds the setup of the README's grid
        # presets: the [-1.3, 1.3]^2 x [-pi, pi) box, 85 inputs, tau = 0.1,
        # the disturbance radius, and a step bound below the fence thickness
        cfg = make_sensing_config(eta=GRID_PRESETS[preset], obstacle_margin=0.0)
        assert make_sensing_config is SensingConfig
        assert (cfg.d, cfg.epsilon, cfg.obstacle_margin) == (1.0, 0.3, 0.0)
        assert np.allclose(cfg.grid.lower, [-1.3, -1.3, -np.pi])
        assert np.allclose(cfg.grid.upper, [1.3, 1.3, np.pi])
        assert cfg.grid.periodic.tolist() == [False, False, True]
        assert np.allclose(cfg.grid.eta, GRID_PRESETS[preset], rtol=0.1)
        assert len(cfg.inputs) == 85
        assert np.unique(cfg.inputs.points[:, 0]).tolist() == [-0.4, -0.2, 0.0, 0.2, 0.4]
        assert np.allclose(np.unique(cfg.inputs.points[:, 1]), np.arange(-4.0, 4.25, 0.5))
        assert cfg.params.tau == 0.1
        assert cfg.params.disturbance.radius.tolist() == [0.01, 0.01, 0.02]
        assert cfg.step_bound == pytest.approx(0.4 * 0.1 + 0.01)
        assert cfg.step_bound < cfg.epsilon


class TestSense:
    def test_obstacle_free_snapshot_is_fence_only(self, coarse_cfg):
        world = WorldMap((0, 0, 8, 8), [], (7, 7, 7.5, 7.5), (4, 4, 0.0))
        snap = sense(world, world.start, coarse_cfg, ColumnLayout(coarse_cfg.grid, coarse_cfg.d))
        assert snap.active == (0,)

    def test_single_column_obstacle(self, coarse_cfg):
        layout = ColumnLayout(coarse_cfg.grid, coarse_cfg.d)
        # obstacle exactly covering the interior column [0, 0.1]^2 around a
        # robot at the origin-ish pose (4, 4)
        world = WorldMap((0, 0, 8, 8), [(4.02, 4.02, 4.08, 4.08)], (7, 7, 7.5, 7.5), (4, 4, 0.0))
        snap = sense(world, (4.0, 4.0, 0.0), coarse_cfg, layout)
        ids = set(snap.active) - {0}
        assert len(ids) == 1
        (aid,) = ids
        lo, hi = coarse_cfg.grid.cell_interval(layout.column_cells(*layout.column_of(aid))[0])
        assert lo[:2] == pytest.approx([0.0, 0.0])
        assert hi[:2] == pytest.approx([0.1, 0.1])

    def test_far_obstacle_not_sensed(self, coarse_cfg):
        world = WorldMap((0, 0, 8, 8), [(5.55, 4.0, 5.8, 4.2)], (7, 7, 7.5, 7.5), (4, 4, 0.0))
        # obstacle at 1.5*d
        snap = sense(world, (4.0, 4.0, 0.0), coarse_cfg, ColumnLayout(coarse_cfg.grid, coarse_cfg.d))
        assert snap.active == (0,)

    def test_fence_atomic_always_active(self):
        with pytest.raises(ValueError):
            VisibleSnapshot((1, 2))


class TestScriptedController:
    def test_goal_dead_ahead(self, coarse_cfg):
        u = scripted_controller((0, 0, 0), (0.9, -0.15, 1.1, 0.15), coarse_cfg)
        assert tuple(u) == (0.4, 0.0)

    def test_goal_directly_behind(self, coarse_cfg):
        u = scripted_controller((0, 0, 0), (-2.0, -0.15, -1.8, 0.15), coarse_cfg)
        assert abs(u[1]) == 4.0
        assert u[0] == 0.2

    def test_output_always_on_grid(self, coarse_cfg, rng):
        pts = {tuple(p) for p in coarse_cfg.inputs.points}
        for _ in range(50):
            pose = rng.uniform([-2, -2, -np.pi], [2, 2, np.pi])
            u = scripted_controller(pose, (3, 3, 3.4, 3.4), coarse_cfg)
            assert tuple(u) in pts


class TestRandomWorld:
    def test_deterministic_per_seed(self):
        a = random_world(42)
        b = random_world(42)
        assert a == b

    def test_zero_obstacles(self):
        w = random_world(1, WorldParams(n_obstacles=(0, 0)))
        assert w.obstacles == []

    def test_start_clearance(self):
        for seed in range(12):
            w = random_world(seed)
            sx, sy = w.start[0], w.start[1]
            for ob in w.obstacles:
                dx = max(ob[0] - sx, 0, sx - ob[2])
                dy = max(ob[1] - sy, 0, sy - ob[3])
                assert np.hypot(dx, dy) >= 0.12

    def test_generation_failure(self):
        params = WorldParams(bounds=(0, 0, 1.0, 1.0), n_obstacles=(30, 40),
                             obstacle_size=(0.5, 0.9), max_tries=5)
        with pytest.raises(GenerationFailed):
            random_world(0, params)


class TestWorldFiles:
    def test_round_trip(self, tmp_path):
        w = random_world(5)
        path = tmp_path / "w.world"
        save_world(w, path)
        assert load_world(path) == w

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.world"
        path.write_text("bounds 0 0 3 3\nobstacle 1 2 x 4\n")
        with pytest.raises(ValueError, match="bad.world:2"):
            load_world(path)

    @pytest.mark.parametrize("line", ["start nan 1.5 0", "obstacle 2 2 inf 2.5"])
    def test_non_finite_field_reports_line(self, tmp_path, line):
        path = tmp_path / "bad.world"
        path.write_text(f"bounds 0 0 8 8\ngoal 7 7 7.5 7.5\n{line}\nstart 1 1.5 0\n")
        with pytest.raises(ValueError, match="bad.world:3: non-finite"):
            load_world(path)

    def test_missing_records_rejected(self, tmp_path):
        path = tmp_path / "empty.world"
        path.write_text("bounds 0 0 3 3\n")
        with pytest.raises(ValueError, match="missing"):
            load_world(path)

    @pytest.mark.parametrize("records, problem", [
        ("bounds 0 0 8 8\nobstacle 3 3 2 2\ngoal 7 7 7.5 7.5\nstart 20 20 0\n", "start position .* outside the bounds"),
        ("bounds 0 0 8 8\nobstacle 3 3 2 4\ngoal 7 7 7.5 7.5\nstart 1 1 0\n", "obstacle .* is not ordered"),
        ("bounds 0 0 8 8\nobstacle 3 3 4 2\ngoal 7 7 7.5 7.5\nstart 1 1 0\n", "obstacle .* is not ordered"),
        ("bounds 8 0 0 8\ngoal 7 7 7.5 7.5\nstart 1 1 0\n", "bounds .* are not ordered"),
        ("bounds 0 8 8 0\ngoal 7 7 7.5 7.5\nstart 1 1 0\n", "bounds .* are not ordered"),
    ], ids=["start-outside", "obstacle-x-reversed", "obstacle-y-reversed", "bounds-x-reversed", "bounds-y-reversed"])
    def test_inconsistent_geometry_rejected(self, tmp_path, records, problem):
        path = tmp_path / "bad.world"
        path.write_text(records)
        with pytest.raises(ValueError, match=problem):
            load_world(path)

    def test_start_inside_obstacle_rejected(self):
        with pytest.raises(ValueError):
            WorldMap((0, 0, 3, 3), [(1, 1, 2, 2)], (2.5, 2.5, 2.8, 2.8), (1.5, 1.5, 0.0))


class TestEpisodes:
    def test_unshielded_negative_control_collides(self, coarse_rt):
        tr = run_episode(wall_world(), coarse_rt, mode="unshielded", seed=0, max_steps=120)
        assert tr.status == "collision"

    def test_dynamic_same_world_is_safe(self, coarse_rt):
        tr = run_episode(wall_world(), coarse_rt, mode="dynamic", seed=0, max_steps=120)
        assert tr.status in ("goal-reached", "max-steps")
        assert check_handover(tr)

    def test_decision_equivalence_of_modes(self, coarse_rt):
        w = random_world(77)
        a = run_episode(w, coarse_rt, mode="dynamic", seed=5, max_steps=40)
        b = run_episode(w, coarse_rt, mode="pure-online", seed=5, max_steps=40)
        assert a.status == b.status
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            assert (sa.chosen_v, sa.chosen_a) == (sb.chosen_v, sb.chosen_a)
            assert (sa.x, sa.y, sa.theta) == (sb.x, sb.y, sb.theta)
            assert sa.intervened == sb.intervened

    def test_handover_of_unshielded_trace_vacuous(self, coarse_rt):
        tr = run_episode(wall_world(), coarse_rt, mode="unshielded", seed=0, max_steps=50)
        assert check_handover(tr)

    def test_trace_csv_round_trip(self, coarse_rt, tmp_path):
        tr = run_episode(wall_world(), coarse_rt, mode="dynamic", seed=1, max_steps=15)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        back = read_trace(path, mode=tr.mode, seed=tr.seed)
        assert back.status == tr.status
        assert len(back.steps) == len(tr.steps)
        s0, b0 = tr.steps[-1], back.steps[-1]
        assert (s0.x, s0.y, s0.theta) == (b0.x, b0.y, b0.theta)
        assert s0.intervened == b0.intervened

    @pytest.mark.parametrize("defined", [True, False], ids=["blocking", "outside"])
    def test_a_cell_without_an_input_is_one_domain_violation_record(self, coarse_rt, monkeypatch, defined):
        # a shield with no input at the robot's cell, blocking there or
        # outside its domain, ends the episode with that step recorded
        import parashield.navsim as navsim_mod

        def no_input(bank, active):
            shield = compose(bank, active)
            shield.table.masks[:] = 0
            shield.table.defined[:] = defined
            return shield

        monkeypatch.setattr(navsim_mod, "compose", no_input)
        tr = run_episode(wall_world(), coarse_rt, mode="dynamic", seed=0, max_steps=20)
        assert tr.status == "domain-violation"
        (rec,) = tr.steps
        assert not rec.in_domain and not rec.intervened
        assert np.isnan(rec.chosen_v) and np.isnan(rec.chosen_a)
        assert not check_handover(tr)

    def test_invalid_mode_rejected(self, coarse_rt):
        with pytest.raises(ValueError):
            run_episode(wall_world(), coarse_rt, mode="off", seed=0)


class TestConservatismMonotonicity:
    def test_extra_obstacle_never_enlarges_domain(self, coarse_rt):
        base = WorldMap((0, 0, 8, 8), [(4.5, 4.0, 5.0, 4.4)], (7, 7, 7.5, 7.5), (4, 4, 0.0))
        more = WorldMap((0, 0, 8, 8), base.obstacles + [(3.2, 3.6, 3.6, 4.1)],
                        (7, 7, 7.5, 7.5), (4, 4, 0.0))
        for pose in [(4, 4, 0.0), (4.3, 4.1, 1.0), (3.9, 4.2, -2.0)]:
            sa = compose(coarse_rt.bank, sense(base, pose, coarse_rt.cfg, coarse_rt.layout).active)
            sb = compose(coarse_rt.bank, sense(more, pose, coarse_rt.cfg, coarse_rt.layout).active)
            assert sb.table.domain() <= sa.table.domain()
