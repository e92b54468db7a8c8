"""Benchmark harness: instance generation, timing runs, result CSVs, and the
randomized equivalence suite for composed versus from-scratch controllers.

Timing hygiene: only the shield-update stage of each step is measured (with a
monotonic clock, inside run_episode); sensing, proposing and stepping stay
outside.  Timed sections are single-threaded so the adaptive and baseline
columns are comparable.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .abstraction import ExplicitAbstraction, build_abstraction
from .navsim import (
    ColumnLayout,
    NavRuntime,
    SensingConfig,
    WorldParams,
    feasible_world,
    make_atomics,
    run_episode,
)
from .shield import compose, synthesize_bank
from .synthesis import (
    ControllerTable,
    SafetySpec,
    StateSet,
    controller_equal,
    largest_nonblocking,
    product,
    safety_control,
)

# nominal grid widths per preset; the realized grid rounds each dimension to
# the nearest exactly-tiling width
GRID_PRESETS = {
    "coarse": (0.10, 0.10, 0.30),
    "medium": (0.08, 0.08, 0.25),
    "fine": (0.06, 0.06, 0.20),
}

@dataclass
class BenchRow:
    instance_id: int
    avg_computationAdaptive: float
    avg_computationBaseline: float
    steps: int
    interventions: int
    safe: bool


RESULT_HEADER = ",".join(f.name for f in fields(BenchRow))


def emit_results(rows, path):
    """Write the results CSV, one column per `BenchRow` field, each value
    as its repr; refuses an empty run."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    with open(path, "w", newline="") as f:
        f.write(RESULT_HEADER + "\n")
        for r in rows:
            f.write(",".join(map(repr, astuple(r))) + "\n")
    return path


# extra growth of obstacle rectangles (in grid cells) when mapped to unsafe
# columns; lattice-anchored frames already keep quantization consistent
# between steps, so no margin is needed by default
DEFAULT_OBSTACLE_MARGIN_CELLS = 0.0


def preset_config(preset) -> SensingConfig:
    if preset not in GRID_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(GRID_PRESETS)}")
    eta = GRID_PRESETS[preset]
    return SensingConfig(eta=eta, obstacle_margin=DEFAULT_OBSTACLE_MARGIN_CELLS * eta[0])


def build_runtime(preset, with_bank=True) -> NavRuntime:
    """Abstraction plus atomic-shield bank for one grid preset, synthesized
    with the fence atomic as base.  Without `with_bank` the runtime's bank is
    None and nothing is synthesized: enough for an unshielded episode in a
    given world."""
    cfg = preset_config(preset)
    t0 = time.perf_counter()
    sys = build_abstraction(cfg.grid, cfg.inputs, cfg.params)
    t1 = time.perf_counter()
    bank = synthesize_bank(sys, make_atomics(cfg.grid, cfg.d, cfg.epsilon), base_id=0) if with_bank else None
    return NavRuntime(cfg, sys, ColumnLayout(cfg.grid, cfg.d), bank,
                      abstraction_seconds=t1 - t0, bank_seconds=time.perf_counter() - t1)


def run_bench(rt: NavRuntime, instances=70, seed=0, max_steps=200):
    """Run the full protocol: per instance, one dynamic and one pure-online
    episode on the same seed, timing the shield-update stage of each."""
    if instances < 1:
        raise ValueError("instances must be positive")
    rows = []
    for i in range(instances):
        world = feasible_world(rt, seed + 1000 * i + 1, WorldParams())
        ep_seed = seed + 1000 * i + 7
        dyn, base = (run_episode(world, rt, mode=mode, seed=ep_seed, max_steps=max_steps)
                     for mode in ("dynamic", "pure-online"))
        rows.append(BenchRow(
            instance_id=i,
            avg_computationAdaptive=dyn.mean_shield_seconds,
            avg_computationBaseline=base.mean_shield_seconds,
            steps=len(dyn.steps),
            interventions=dyn.interventions,
            safe=all(t.status in ("goal-reached", "max-steps") for t in (dyn, base)),
        ))
    return rows


# -- randomized equivalence suite ---------------------------------------------


_MAX_INPUTS = 4       # inputs of a random system, at most
_MAX_SUCC = 3         # successor draws per pair, at most
_OUT_PROB = 0.05      # probability that a pair is OUT
_SPEC_COUNTS = (2, 2, 3, 2, 4)    # atomics per oracle trial, cycled


def random_system(rng, max_states=64) -> ExplicitAbstraction:
    """Random finite abstract system for oracle tests."""
    n = int(rng.integers(2, max_states + 1))
    m = int(rng.integers(1, _MAX_INPUTS + 1))
    post = {}
    out_pairs = []
    for x in range(n):
        for u in range(m):
            if rng.random() < _OUT_PROB:
                out_pairs.append((x, u))
                if rng.random() < 0.5:
                    continue  # OUT with empty in-box remainder
            k = int(rng.integers(1, _MAX_SUCC + 1))
            post[(x, u)] = rng.integers(0, n, size=k).tolist()
    return ExplicitAbstraction.from_map(n, m, post, out_pairs)


def random_state_set(rng, n, density=0.75) -> StateSet:
    return StateSet(rng.random(n) < density)


def brute_force_safety_controller(sys, safe: StateSet):
    """Independent reference: iterated removal of states with no input that
    keeps all successors inside the surviving set.  Plain sets and dicts."""
    survivors = set(int(i) for i in safe.indices())
    while True:
        keep = set()
        for x in survivors:
            for u in range(sys.n_inputs):
                succ, is_out = sys.post(x, u)
                if is_out:
                    continue
                if all(int(s) in survivors for s in succ):
                    keep.add(x)
                    break
        if keep == survivors:
            break
        survivors = keep
    allowed = {}
    for x in survivors:
        us = []
        for u in range(sys.n_inputs):
            succ, is_out = sys.post(x, u)
            if not is_out and all(int(s) in survivors for s in succ):
                us.append(u)
        allowed[x] = us
    return survivors, allowed


def table_matches_brute(table: ControllerTable, dom, allow) -> bool:
    if set(int(i) for i in np.nonzero(table.defined)[0]) != set(dom):
        return False
    for x in dom:
        if list(table.allowed_indices(x)) != sorted(allow[x]):
            return False
    return True


def oracle_trial(rng, n_specs=2) -> bool:
    """One equivalence check: composed atomic controllers versus from-scratch
    synthesis on the intersection, plus the brute-force reference.  Both ways
    of composing are checked: the product of the tables followed by
    `largest_nonblocking`, and the online path, `compose` on a bank."""
    sys = random_system(rng)
    safes = [random_state_set(rng, sys.n_states) for _ in range(n_specs)]
    tables = [safety_control(sys, SafetySpec(s)) for s in safes]

    combined = safes[0]
    for s in safes[1:]:
        combined = combined & s
    direct = safety_control(sys, SafetySpec(combined))

    order = list(range(n_specs))
    rng.shuffle(order)
    raw = tables[order[0]]
    for i in order[1:]:
        raw = product(raw, tables[i])
    composed = largest_nonblocking(sys, raw)

    if not controller_equal(composed, direct):
        return False
    if not controller_equal(compose(synthesize_bank(sys, safes), range(n_specs)).table, direct):
        return False

    dom, allow = brute_force_safety_controller(sys, combined)
    if not table_matches_brute(direct, dom, allow):
        return False

    bdom, ballow = brute_force_safety_controller(sys, safes[0])
    if not table_matches_brute(tables[0], bdom, ballow):
        return False
    return True


def run_oracle_trials(trials, seed=0):
    """Run the randomized equivalence suite; returns (passed, failed)."""
    rng = np.random.default_rng(seed)
    counts = itertools.cycle(_SPEC_COUNTS)
    passed = failed = 0
    for _ in range(trials):
        if oracle_trial(rng, n_specs=next(counts)):
            passed += 1
        else:
            failed += 1
    return passed, failed
