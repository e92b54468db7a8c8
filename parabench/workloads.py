"""The three workloads and the round that each of them repeats.

One round is: an offline build (timed as `offline_s`), a set-up from nothing
(timed as `setup_s`), one closed-loop episode on each world of the workload
(each step timed), then the correctness checks (untimed).  A run repeats whole
rounds until `--seconds` have passed, so every run attempts the same
operations (one bank build and one episode per world per round).
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from sys import executable
from types import SimpleNamespace

import numpy as np

from parashield import (
    DomainViolation,
    SafetySpec,
    StateSet,
    build_abstraction,
    compose,
    dubins_step,
    load_bank,
    pure_online_shield,
    safety_control,
    save_bank,
    shield_apply,
    synthesize_bank,
)
from parashield.bench import DEFAULT_OBSTACLE_MARGIN_CELLS, GRID_PRESETS
from parashield.navsim import (
    ColumnLayout,
    frame_cell,
    make_atomics,
    make_sensing_config,
    random_world,
    run_episode,
    scripted_controller,
    sense,
)

import checks
from tracing import Tracer, instrument_abstraction, instrument_synthesis, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".parabench"
CACHE_DIR = WORK_DIR / "cache"

# random_world seeds of the reach-avoid worlds (default WorldParams): the
# first eight from 1 whose start lies in the initial domain on both presets
# (seed 2 starts outside the coarse one).  Each episode stops after 30 steps:
# a per-step time distribution pooled over many short episodes has a median
# that stays put from seed to seed, where a few long ones give a two-cluster
# distribution (steps with and without deadlock repair) whose median jumps.
WORLD_SEEDS = (1, 3, 4, 5, 6, 7, 8, 9)
MAX_STEPS = 30
REPLAY_STEPS = 10          # steps compared against run_episode each run
ORACLE_WINDOW = 30         # the oracle-checked step is drawn from the first ones
PROBE_ATOMICS = 8          # fine offline slice: the fence plus this many columns
COLD_CHECKS = 4            # coarse atomics compared against cold synthesis per round
OTHER_PRESET = "medium"    # abstraction a bank must refuse to load against


@dataclass(frozen=True)
class Workload:
    preset: str
    mode: str              # run_episode mode of the closed loop
    worlds: tuple
    full_bank: bool        # build the whole bank each round; else a fixed slice


WORKLOADS = {
    "online-fine": Workload("fine", "dynamic", WORLD_SEEDS, full_bank=False),
    "baseline-fine": Workload("fine", "pure-online", WORLD_SEEDS[:1], full_bank=False),
    "offline-coarse": Workload("coarse", "dynamic", WORLD_SEEDS, full_bank=True),
}

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "offline_s": "s",
    "bank_bytes": "bytes",
    "peak_rss_mb": "MB",
}


def sensing_config(preset):
    eta = GRID_PRESETS[preset]
    return make_sensing_config(eta=eta, obstacle_margin=DEFAULT_OBSTACLE_MARGIN_CELLS * eta[0])


def abstraction(cfg):
    return build_abstraction(cfg.grid, cfg.inputs, cfg.params)


def source_digest():
    """Digest of the program's sources; part of the bank cache key."""
    h = hashlib.sha256()
    src = ROOT / "src" / "parashield"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def build_bank_file(preset, path):
    """Offline phase for one preset into `path`."""
    cfg = sensing_config(preset)
    bank = synthesize_bank(abstraction(cfg), make_atomics(cfg.grid, cfg.d, cfg.epsilon), base_id=0)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    save_bank(bank, tmp)
    os.replace(tmp, path)


def cached_bank(preset, sys):
    """Path of the bank for this abstraction and these sources; built once,
    in a child process so that the synthesis peak does not count in this
    process's peak_rss_mb."""
    path = CACHE_DIR / f"bank_{preset}_{sys.content_hash[:16]}_{source_digest()[:16]}.pshb"
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        code = "import sys, pathlib, workloads; workloads.build_bank_file(sys.argv[1], pathlib.Path(sys.argv[2]))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(Path(__file__).parent)]))
        subprocess.run([executable, "-c", code, preset, str(path)], env=env, check=True)
    return path


@dataclass
class Step:
    pose: tuple
    cell: int
    active: tuple
    decision: object


class Bench:
    """One run of one workload: its inputs, the figures it measured, and the
    problems its checks found."""

    def __init__(self, name, seed, trace):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.tr = Tracer(trace)
        self.cfg = sensing_config(self.w.preset)
        self.layout = ColumnLayout(self.cfg.grid, self.cfg.d)
        self.cached_path = None
        self.self_tested = False
        self.setup_s, self.offline_s, self.step_s = [], [], []
        self.bank_bytes = 0
        self.attempted = self.failed = 0
        self.problems = []

    def _timed(self, name, fn, *args, **kwargs):
        with self.tr.span(name):
            return fn(*args, **kwargs)

    def offline(self):
        """Abstraction, atomics, bank synthesis, save: the offline design path.
        Fine workloads build a fixed slice of the bank; the full fine bank is
        built once, outside the timed run, into the cache."""
        cfg = self.cfg
        path = WORK_DIR / f"bank_{self.w.preset}_{os.getpid()}.pshb"
        t0 = time.perf_counter()
        with self.tr.span("offline", root=True):
            sys = self._timed("abstraction.build_abstraction", abstraction, cfg)
            if self.tr.enabled:
                instrument_abstraction(sys, self.tr)
            atomics = make_atomics(cfg.grid, cfg.d, cfg.epsilon)
            ids = list(range(len(atomics))) if self.w.full_bank else self.probe_ids(len(atomics))
            with self.tr.span("shield.synthesize_bank") as rec:
                bank = synthesize_bank(sys, [atomics[i] for i in ids], base_id=0)
            if rec is not None:
                rec["atomics"] = len(ids)
            self._timed("shield.save_bank", save_bank, bank, path)
        self.offline_s.append(time.perf_counter() - t0)
        self.attempted += 1
        return bank, ids, path

    def warm_up(self, sys):
        """One untimed slice build, save and load, so that no timed sample
        pays first-call costs."""
        atomics = make_atomics(self.cfg.grid, self.cfg.d, self.cfg.epsilon)
        bank = synthesize_bank(sys, [atomics[i] for i in self.probe_ids(len(atomics))], base_id=0)
        path = WORK_DIR / f"warm_{os.getpid()}.pshb"
        save_bank(bank, path)
        load_bank(self.cached_path or path, sys)
        path.unlink()

    @staticmethod
    def probe_ids(n_atomics):
        step = (n_atomics - 1) // PROBE_ATOMICS
        return [0] + [1 + k * step for k in range(PROBE_ATOMICS)]

    def setup(self, bank_path):
        """From nothing to the first step: abstraction plus bank load with its
        integrity spot-check."""
        t0 = time.perf_counter()
        with self.tr.span("setup", root=True):
            sys = self._timed("abstraction.build_abstraction", abstraction, self.cfg)
            if self.tr.enabled:
                instrument_abstraction(sys, self.tr)
            bank = self._timed("shield.load_bank", load_bank, bank_path, sys)
        self.setup_s.append(time.perf_counter() - t0)
        self.bank_bytes = bank_path.stat().st_size
        return SimpleNamespace(cfg=self.cfg, layout=self.layout, sys=sys, bank=bank, atomics=bank.safes)

    def episode(self, rt, world, ep_seed, keep_at):
        """One closed-loop episode; returns (status, steps, kept shield)."""
        tr, cfg, mode = self.tr, self.cfg, self.w.mode
        rng = np.random.default_rng(ep_seed)
        pose = tuple(float(v) for v in world.start)
        steps, kept = [], None
        status = "max-steps"
        for k in range(MAX_STEPS):
            tr.step = len(self.step_s)
            t0 = time.perf_counter()
            with tr.span("navsim.step", root=True):
                with tr.span("navsim.sense"):
                    active = sense(world, pose, cfg, rt.layout).active
                if mode == "dynamic":
                    with tr.span("shield.compose"):
                        shield = compose(rt.bank, active)
                else:
                    with tr.span("shield.pure_online_shield"):
                        shield = pure_online_shield(rt.sys, [rt.bank.safes[i] for i in active])
                proposed = scripted_controller(pose, world.goal, cfg)
                cell = frame_cell(pose, cfg.grid)
                decision = None
                if shield.table.defined[cell]:
                    try:
                        with tr.span("shield.shield_apply") as rec:
                            decision = shield_apply(shield, cell, proposed)
                        if rec is not None:
                            rec["intervened"] = decision.intervened
                    except DomainViolation:
                        pass
                if decision is not None:
                    w = cfg.params.disturbance.sample(rng)
                    nxt = dubins_step(pose, decision.u, w, cfg.params)
                    hit = checks.collides(world, nxt)
                    goal = checks.in_rect(world.goal, nxt[0], nxt[1])
            self.step_s.append(time.perf_counter() - t0)
            if tr.enabled and mode == "dynamic":
                with tr.span("shield.raw_product", root=True) as rec:
                    raw = rt.bank.raw_product(active)
                rec["active"] = len(active)
                rec["blocking"] = int(np.count_nonzero(raw.defined & ~raw.masks.any(axis=1)))
                rec["removed"] = raw.domain_size() - shield.table.domain_size()
            tr.step = None
            if keep_at is not None and (k == keep_at or kept is None):
                kept = (active, shield)
            if decision is None:
                status = "domain-violation"
                break
            steps.append(Step(pose, cell, active, decision))
            self.problems += checks.check_decision(shield.table, cfg.inputs, cell, proposed, decision)
            pose = nxt
            if hit:
                status = "collision"
                break
            if goal:
                status = "goal-reached"
                break
        return status, steps, kept

    def oracle(self, rt, active, shield):
        """Composed versus from-scratch on the intersection of the active safe
        sets; whichever of the two the step did not compute is computed here."""
        safe = np.logical_and.reduce([rt.bank.safes[i].mask for i in active])
        if self.w.mode == "dynamic":
            composed = shield.table
            scratch = safety_control(rt.sys, SafetySpec(StateSet(safe)))
        else:
            composed = compose(rt.bank, active).table
            scratch = shield.table
        self.problems += checks.check_shield(rt.sys, composed, scratch)
        if not self.self_tested:
            self.problems += checks.self_test(rt.sys, composed, scratch)
            self.self_tested = True

    def replay(self, rt, world, ep_seed, steps, status):
        """run_episode on the same world and episode seed must take the same
        decisions over the first REPLAY_STEPS steps."""
        ref = run_episode(world, rt, mode=self.w.mode, seed=ep_seed, max_steps=REPLAY_STEPS)
        taken = len(steps) + (status == "domain-violation")
        want = status if status != "max-steps" and taken <= REPLAY_STEPS else "max-steps"
        mine = steps[:REPLAY_STEPS]
        same = ref.status == want and len(ref.steps) >= len(mine) and all(
            a.cell == b.cell and len(a.active) == b.active_count
            and a.pose == (b.x, b.y, b.theta)
            and (float(a.decision.u[0]), float(a.decision.u[1])) == (b.chosen_v, b.chosen_a)
            and a.decision.intervened == b.intervened
            for a, b in zip(mine, ref.steps))
        if not same:
            self.problems.append(f"step loop disagrees with run_episode ({ref.status} vs {want})")

    def round(self, rnd):
        """Offline build, set-up, one episode per world, checks.  The costlier
        checks run on the first round only; every round checks each decision
        and that the loaded bank holds the tables the offline build made."""
        w = self.w
        first = rnd == 0
        offline_bank, ids, offline_path = self.offline()
        bank_path = offline_path if w.full_bank else self.cached_path
        rt = self.setup(bank_path)
        kept = []
        for ws in w.worlds:
            world = random_world(ws)
            ep_seed = int(np.random.SeedSequence([self.seed, rnd, ws]).generate_state(1)[0])
            keep_at = int(np.random.default_rng(ep_seed).integers(ORACLE_WINDOW)) if first else None
            status, steps, shield = self.episode(rt, world, ep_seed, keep_at)
            self.attempted += 1
            if status in ("collision", "domain-violation"):
                self.failed += 1
            if first:
                kept.append(shield)
                if ws == w.worlds[0]:
                    self.replay(rt, world, ep_seed, steps, status)
        self.problems += checks.check_same_tables(offline_bank, rt.bank, ids)
        if first:
            for active, shield in kept:
                self.oracle(rt, active, shield)
            expect = 1 + checks.interior_columns(self.cfg.grid, self.cfg.d)
            if rt.bank.n_atomics != expect:
                self.problems.append(f"bank holds {rt.bank.n_atomics} atomics, grid geometry gives {expect}")
            if w.full_bank:
                cold = np.random.default_rng(self.seed).choice(
                    np.arange(1, rt.bank.n_atomics), size=COLD_CHECKS, replace=False)
                self.problems += checks.check_bank(rt.sys, offline_bank, [int(i) for i in cold])
            self.problems += checks.check_wrong_abstraction(bank_path, abstraction(sensing_config(OTHER_PRESET)))
        offline_path.unlink()


def execute(name, seed, seconds, trace):
    """Run one workload; returns (result, summary lines, check problems)."""
    bench = Bench(name, seed, trace)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    # untimed: fine workloads locate (or build) the cached bank, then every
    # workload warms up
    warm = abstraction(bench.cfg)
    if not bench.w.full_bank:
        bench.cached_path = cached_bank(bench.w.preset, warm)
    bench.warm_up(warm)
    del warm
    start = time.perf_counter()
    rnd = 0
    with instrument_synthesis(bench.tr) if trace else nullcontext():
        while rnd == 0 or time.perf_counter() - start < seconds:
            bench.round(rnd)
            rnd += 1
    step_ms = np.array(bench.step_s) * 1e3
    e2e = {
        "setup_s": np.median(bench.setup_s),
        "steps_per_s": len(bench.step_s) / np.sum(bench.step_s),
        "step_ms_p50": np.percentile(step_ms, 50),
        "step_ms_p95": np.percentile(step_ms, 95),
        "offline_s": np.median(bench.offline_s),
        "bank_bytes": bench.bank_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": float(e2e[k]), "unit": u} for k, u in END_TO_END.items()}
    summary = [f"workload {name} seed {seed}: {rnd} rounds, {len(bench.step_s)} steps, "
               f"{bench.attempted} operations, {bench.failed} failed, {len(bench.problems)} check problems"]
    summary += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    if trace:
        path = WORK_DIR / "traces" / f"{name}-seed{seed}.jsonl"
        bench.tr.write(path)
        metrics = per_layer_metrics(bench.tr.spans)
        summary.append(f"  (traced run) spans -> {path}")
        summary += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    result = {"correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    return result, summary, bench.problems
