"""Command-line front end.

Subcommands: synth-bank (offline phase with timing split), run (single
episode to a trace CSV), bench (full timing protocol to a results CSV),
verify-oracle (randomized equivalence suite), query (one shield decision).
Exit status 0 on success, 2 on any domain error, with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
import time

import numpy as np

from . import bench as bench_mod
from .abstraction import build_abstraction
from .errors import (
    AbstractionMismatch,
    DomainViolation,
    EmptyActiveSet,
    GenerationFailed,
    GridMismatch,
    PointOutOfDomain,
    UniverseMismatch,
)
from .navsim import WorldParams, feasible_world, load_world, run_episode
from .shield import compose, load_bank, save_bank, shield_apply

_ERRORS = (
    PointOutOfDomain, GridMismatch, UniverseMismatch, AbstractionMismatch,
    DomainViolation, EmptyActiveSet, GenerationFailed, ValueError,
)


def _add_common(p, with_mode=False):
    p.add_argument("--grid-preset", choices=sorted(bench_mod.GRID_PRESETS), default="coarse")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    if with_mode:
        p.add_argument("--mode", choices=["dynamic", "pure-online", "unshielded"], default="dynamic")


def _out_dir(args):
    out = bench_mod.out_dir_from(args.out)
    os.makedirs(out, exist_ok=True)
    return out


def cmd_synth_bank(args):
    out = _out_dir(args)
    rt = bench_mod.build_runtime(args.grid_preset)
    path = os.path.join(out, f"bank_{args.grid_preset}.pshb")
    save_bank(rt.bank, path)
    print(f"Abstraction: {rt.abstraction_seconds:.2f} s")
    print(f"Synthesis: {rt.bank_seconds:.2f} s ({rt.bank.n_atomics} atomic controllers) -> {path}")
    return 0


def cmd_run(args):
    out = _out_dir(args)
    # a bad world file is refused before any bank is built; an unshielded
    # episode reads no bank, but choosing its world without a file
    # (`feasible_world`) composes with one
    world = load_world(args.world) if args.world else None
    with_bank = args.mode != "unshielded" or world is None
    rt = bench_mod.build_runtime(args.grid_preset, cache_dir=out, with_bank=with_bank)
    if world is None:
        world = feasible_world(rt, args.seed + 1, WorldParams())
    trace = run_episode(world, rt, mode=args.mode, seed=args.seed, max_steps=args.max_steps)
    path = os.path.join(out, f"trace_{args.mode}_{args.seed}.csv")
    trace.to_csv(path)
    print(f"status={trace.status} steps={len(trace.steps)} interventions={trace.interventions} "
          f"mean_shield_seconds={trace.mean_shield_seconds:.4f} -> {path}")
    return 0 if trace.status in ("goal-reached", "max-steps") else 1


def cmd_bench(args):
    out = _out_dir(args)
    cfg = bench_mod.BenchConfig(
        preset=args.grid_preset, instances=args.instances, seed=args.seed,
        max_steps=args.max_steps,
    )
    rows = bench_mod.run_bench(cfg, bench_mod.build_runtime(args.grid_preset, cache_dir=out))
    path = os.path.join(out, f"results_{args.grid_preset}.csv")
    bench_mod.emit_results(rows, path)
    unsafe = sum(1 for r in rows if not r.safe)
    speedups = [r.avg_computationBaseline / r.avg_computationAdaptive
                for r in rows if r.avg_computationAdaptive > 0]
    print(f"{len(rows)} instances, {unsafe} unsafe, median speedup "
          f"{np.median(speedups):.2f}x, max {max(speedups):.2f}x -> {path}")
    return 0 if unsafe == 0 else 1


def cmd_verify_oracle(args):
    passed, failed = bench_mod.run_oracle_trials(args.trials, seed=args.seed)
    print(f"{passed}/{passed + failed} equal")
    return 0 if failed == 0 else 1


def cmd_query(args):
    cfg = bench_mod.preset_config(args.grid_preset)
    if args.bank:
        bank = load_bank(args.bank, build_abstraction(cfg.grid, cfg.inputs, cfg.params))
    else:
        bank = bench_mod.build_runtime(args.grid_preset, cache_dir=_out_dir(args)).bank
    active = [int(t) for t in args.active.split(",")] if args.active else [0]
    if 0 not in active:
        active = [0] + active
    shield = compose(bank, active)
    multi = tuple(int(t) for t in args.cell.split(","))
    cell = cfg.grid.flat(multi)
    proposed = tuple(float(t) for t in args.propose.split(","))
    decision = shield_apply(shield, cell, proposed)
    print(f"cell={multi} proposed={proposed} chosen=({decision.u[0]}, {decision.u[1]}) "
          f"intervened={decision.intervened}")
    return 0


def make_parser():
    p = argparse.ArgumentParser(prog="parashield",
                                description="dynamic safety shields over grid abstractions")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth-bank", help="offline phase: synthesize the atomic-shield bank")
    _add_common(ps)
    ps.set_defaults(fn=cmd_synth_bank)

    pr = sub.add_parser("run", help="run one navigation episode")
    _add_common(pr, with_mode=True)
    pr.add_argument("--world", default=None, help="world file (default: random from seed)")
    pr.add_argument("--max-steps", type=int, default=200)
    pr.set_defaults(fn=cmd_run)

    pb = sub.add_parser("bench", help="full timing protocol over random instances")
    _add_common(pb)
    pb.add_argument("--instances", type=int, default=70)
    pb.add_argument("--max-steps", type=int, default=200)
    pb.set_defaults(fn=cmd_bench)

    po = sub.add_parser("verify-oracle", help="randomized composed-vs-direct equivalence suite")
    po.add_argument("--trials", type=int, default=1000)
    po.add_argument("--seed", type=int, default=0)
    po.set_defaults(fn=cmd_verify_oracle)

    pq = sub.add_parser("query", help="one shield decision for a cell and proposed input")
    _add_common(pq)
    pq.add_argument("--bank", default=None, help="bank file (default: the bank cached in --out)")
    pq.add_argument("--active", default="", help="comma-separated atomic ids (fence id 0 is implied)")
    pq.add_argument("--cell", required=True, help="cell multi-index, e.g. 13,13,10")
    pq.add_argument("--propose", required=True, help="proposed input, e.g. 0.4,0.0")
    pq.set_defaults(fn=cmd_query)
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
