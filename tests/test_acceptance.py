"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured numbers.  Tolerances are pinned here, not deferred.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from parashield.bench import (
    brute_force_safety_controller,
    build_runtime,
    run_oracle_trials,
    table_matches_brute,
)
from parashield.navsim import (
    WorldMap,
    WorldParams,
    check_handover,
    feasible_world,
    run_episode,
    sense,
)
from parashield.shield import compose, pure_online_shield, shield_apply
from parashield.synthesis import (
    SafetySpec,
    StateSet,
    closure_holds,
    controller_equal,
    largest_nonblocking,
    product,
    safety_control,
)
from reference import cpre

pytestmark = pytest.mark.acceptance

SUITE_WORLD_PARAMS = WorldParams()
SAFETY_INSTANCES = 70
SAFETY_MAX_STEPS = 120


def _ok(msg):
    print(f"\nPASS {msg}")


def test_criterion_1_golden_automaton(automaton7):
    """Exact reproduction of the 7-state, 2-input worked example."""
    t0 = time.perf_counter()
    sysm, g, h = automaton7
    assert sorted(cpre(sysm, g).indices()) == [0, 1, 2, 3, 4, 5]

    cg = safety_control(sysm, SafetySpec(g))
    ch = safety_control(sysm, SafetySpec(h))
    assert sorted(cg.domain().indices()) == [0, 1, 2, 3, 4, 5]
    assert list(cg.allowed_indices(4)) == [0]
    assert list(cg.allowed_indices(0)) == [0, 1]
    assert sorted(ch.domain().indices()) == [0, 1, 2, 3, 4, 6]
    assert list(ch.allowed_indices(4)) == [1]

    raw = product(cg, ch)
    assert sorted(raw.domain().indices()) == [0, 1, 2, 3, 4]
    assert list(raw.allowed_indices(4)) == []

    nb = largest_nonblocking(sysm, raw)
    assert sorted(nb.domain().indices()) == [0, 1, 2, 3]
    assert controller_equal(nb, safety_control(sysm, SafetySpec(g & h)))

    dt = time.perf_counter() - t0
    assert dt < 1.0
    _ok(f"criterion 1: golden automaton exact in {dt:.3f} s (< 1 s)")


def test_criterion_2_randomized_equivalence():
    """1000 random systems: composed == from-scratch == brute force, in < 1 min."""
    t0 = time.perf_counter()
    passed, failed = run_oracle_trials(1000, seed=2024)
    dt = time.perf_counter() - t0
    assert failed == 0
    assert passed == 1000
    assert dt < 60.0
    _ok(f"criterion 2: 1000/1000 equivalence trials in {dt:.1f} s (< 60 s)")


@pytest.mark.parametrize("preset", ["coarse", "medium", "fine"])
def test_criterion_3_safety_rate(preset, request):
    """70 instances per preset, dynamic mode: no collision, no domain violation,
    handover at every step; plus the negative control that CAN fail."""
    rt = request.getfixturevalue(f"{preset}_rt")
    collisions = violations = handover_bad = 0
    for i in range(SAFETY_INSTANCES):
        world = feasible_world(rt, 300 + 1000 * i, SUITE_WORLD_PARAMS)
        tr = run_episode(world, rt, mode="dynamic", seed=i, max_steps=SAFETY_MAX_STEPS)
        collisions += tr.status == "collision"
        violations += tr.status == "domain-violation"
        handover_bad += not check_handover(tr)
    assert collisions == 0
    assert violations == 0
    assert handover_bad == 0

    # negative control: drive straight at a wall without the shield
    wall = WorldMap((0, 0, 3.0, 1.2), [(1.6, 0.0, 1.9, 1.2)], (2.5, 0.4, 2.8, 0.8), (0.4, 0.6, 0.0))
    bad = run_episode(wall, rt, mode="unshielded", seed=0, max_steps=SAFETY_MAX_STEPS)
    assert bad.status == "collision"
    _ok(f"criterion 3 [{preset}]: {SAFETY_INSTANCES} instances safe, handover clean, "
        f"negative control collided")


def test_criterion_4_timing_ordering(fine_rt):
    """Fine preset: compose at least as fast as pure-online on >= 90% of
    instances, with max speedup >= 2x."""
    instances = 10
    adaptive, baseline = [], []
    for i in range(instances):
        world = feasible_world(fine_rt, 40_000 + 1000 * i, SUITE_WORLD_PARAMS)
        dyn = run_episode(world, fine_rt, mode="dynamic", seed=i, max_steps=35)
        pon = run_episode(world, fine_rt, mode="pure-online", seed=i, max_steps=35)
        assert dyn.status == pon.status and len(dyn.steps) == len(pon.steps)
        adaptive.append(dyn.mean_shield_seconds)
        baseline.append(pon.mean_shield_seconds)
    adaptive = np.array(adaptive)
    baseline = np.array(baseline)
    ordered = float(np.mean(adaptive <= baseline))
    speedups = baseline / adaptive
    assert ordered >= 0.9
    assert speedups.max() >= 2.0
    assert np.median(speedups) >= 1.0
    _ok(f"criterion 4: ordering on {100 * ordered:.0f}% of {instances} instances (>= 90%), "
        f"max speedup {speedups.max():.1f}x (>= 2x), median {np.median(speedups):.1f}x (>= 1x)")


def test_criterion_5_offline_scale_and_online_budget():
    """Coarse offline phase under 30 minutes; per-step compose under 5 s mean."""
    rt = build_runtime("coarse")
    assert len(rt.bank.safes) == 401
    t_abs, t_synth = rt.abstraction_seconds, rt.bank_seconds
    assert t_abs + t_synth < 1800.0

    world = feasible_world(rt, 55_000, SUITE_WORLD_PARAMS)
    tr = run_episode(world, rt, mode="dynamic", seed=1, max_steps=60)
    mean_compose = tr.mean_shield_seconds
    assert mean_compose < 5.0
    _ok(f"criterion 5: abstraction {t_abs:.1f} s + 401-atomic bank {t_synth:.1f} s "
        f"(< 1800 s); compose mean {1000 * mean_compose:.1f} ms/step (< 5 s)")


class TestCriterion6Properties:
    """Always-on property suites."""

    def test_fixpoint_descent_and_iteration_bound(self, rng):
        from parashield.bench import random_state_set, random_system
        for _ in range(50):
            sysm = random_system(rng)
            sizes = []
            safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states)),
                           iteration_sizes=sizes)
            assert len(sizes) <= sysm.n_states + 1
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        _ok("criterion 6a: monotone descent, <= |X| iterations (50 random systems)")

    def test_closure_of_synthesized_controllers(self, coarse_rt, rng):
        sysm = coarse_rt.sys
        for i in [0, 1, 57, 200, 400]:
            assert closure_holds(sysm, coarse_rt.bank.table(i))
        world = feasible_world(coarse_rt, 2_000, SUITE_WORLD_PARAMS)
        snap = sense(world, world.start, coarse_rt.cfg, coarse_rt.layout)
        assert closure_holds(sysm, compose(coarse_rt.bank, snap.active).table)
        _ok("criterion 6b: closure holds for atomic and composed controllers")

    @pytest.mark.parametrize("preset", ["coarse", "medium", "fine"])
    def test_abstraction_soundness_sampling(self, preset, request, rng):
        from parashield.abstraction import dubins_step
        rt = request.getfixturevalue(f"{preset}_rt")
        sysm, grid, cfg = rt.sys, rt.cfg.grid, rt.cfg
        n = 10_000
        xs = rng.uniform(grid.lower, grid.upper, size=(n, 3))
        us = rng.integers(0, sysm.n_inputs, size=n)
        ws = cfg.params.disturbance.sample(rng, n)
        cells = grid.quantize_many(xs)
        violations = 0
        for x, u, w, c in zip(xs, us, ws, cells):
            nxt = dubins_step(x, cfg.inputs[u], w, cfg.params)
            succ, is_out = sysm.post(int(c), int(u))
            if is_out:
                continue
            if grid.quantize(nxt) not in set(int(s) for s in succ):
                violations += 1
        assert violations == 0
        _ok(f"criterion 6c [{preset}]: 10^4 sampled transitions, 0 soundness violations")

    def test_minimal_intervention_on_every_decision(self, coarse_rt):
        world = feasible_world(coarse_rt, 3_000, SUITE_WORLD_PARAMS)
        snap = sense(world, world.start, coarse_rt.cfg, coarse_rt.layout)
        shield = compose(coarse_rt.bank, snap.active)
        rng = np.random.default_rng(0)
        checked = 0
        for cell in shield.table.domain().indices()[::37]:
            for _ in range(3):
                raw = rng.uniform((-0.45, -4.2), (0.45, 4.2))
                d = shield_apply(shield, int(cell), raw)
                snapped = shield.inputs.nearest(raw)
                assert d.intervened == (not shield.table.allows(int(cell), snapped))
                assert shield.table.allows(int(cell), d.u_index)
                checked += 1
        _ok(f"criterion 6d: intervention iff snapped proposal disallowed ({checked} decisions)")

    def test_product_algebra(self, rng):
        from parashield.bench import random_state_set, random_system
        for _ in range(20):
            sysm = random_system(rng)
            a, b, c = (safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states)))
                       for _ in range(3))
            assert controller_equal(product(a, a), a)
            assert controller_equal(product(a, b), product(b, a))
            assert controller_equal(product(product(a, b), c), product(a, product(b, c)))
        _ok("criterion 6e: product idempotent, commutative, associative (20 systems)")

    def test_mode_decision_equivalence(self, coarse_rt):
        for i in range(2):
            world = feasible_world(coarse_rt, 4_000 + 1000 * i, SUITE_WORLD_PARAMS)
            dyn = run_episode(world, coarse_rt, mode="dynamic", seed=i, max_steps=100)
            pon = run_episode(world, coarse_rt, mode="pure-online", seed=i, max_steps=100)
            assert dyn.status == pon.status
            assert len(dyn.steps) == len(pon.steps)
            for a, b in zip(dyn.steps, pon.steps):
                assert (a.chosen_v, a.chosen_a) == (b.chosen_v, b.chosen_a)
                assert a.intervened == b.intervened
        _ok("criterion 6f: dynamic and pure-online decisions identical on shared seeds")

    def test_compose_equals_pure_online_on_100_active_sets(self, coarse_rt, rng):
        count = 0
        for i in range(20):
            world = feasible_world(coarse_rt, 5_000 + 1000 * i, SUITE_WORLD_PARAMS)
            pose = world.start
            for _ in range(5):
                snap = sense(world, pose, coarse_rt.cfg, coarse_rt.layout)
                dyn = compose(coarse_rt.bank, snap.active)
                pon = pure_online_shield(coarse_rt.sys, [coarse_rt.bank.safes[j] for j in snap.active])
                assert controller_equal(dyn.table, pon.table)
                pose = (pose[0] + rng.uniform(-0.2, 0.2), pose[1] + rng.uniform(-0.2, 0.2), rng.uniform(-3, 3))
                count += 1
        assert count >= 100
        _ok(f"criterion 6g: composed == from-scratch on {count} live active sets")
