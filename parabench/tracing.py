"""In-memory spans around calls into the layers of parashield, and the
per-layer metrics derived from them.

A span records name, start, end, the span open around it (parent) and the id
of the closed-loop step it belongs to.  Spans are recorded only inside a root
span that the harness opens around a timed section (offline build, set-up, one
step, the derived raw product), so the correctness checks, which call the same
functions outside those sections, leave no spans.  With tracing disabled every
`span` is a no-op and nothing is instrumented.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import parashield.shield as shield_mod


class Tracer:
    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.spans = []
        self.step = None
        self._open = []

    @contextmanager
    def span(self, name, root=False):
        """Record one span; yields its record (None when not recorded)."""
        if not self.enabled or not (root or self._open):
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None, "step": self.step}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def instrument_abstraction(sys, tracer):
    """Time `pair_hits` by shadowing the method on this abstraction instance;
    records the candidate rows tested and the rows with at least one hit."""
    inner = sys.pair_hits

    def pair_hits(removed, within=None, row_alive=None):
        with tracer.span("abstraction.pair_hits") as rec:
            rows, hits = inner(removed, within=within, row_alive=row_alive)
        if rec is not None:
            rec["rows"] = int(len(rows))
            rec["hit_rows"] = int(np.count_nonzero(hits.any(axis=1)))
        return rows, hits

    sys.pair_hits = pair_hits


@contextmanager
def instrument_synthesis(tracer):
    """Time `safety_control` where `parashield.shield` calls it (pure-online
    shield, bank synthesis, load spot-check), counting its fixed-point sweeps
    through the public `iteration_sizes` argument.  Restored on exit."""
    inner = shield_mod.safety_control

    def safety_control(sys, spec, iteration_sizes=None, warm_start=None):
        sizes = [] if iteration_sizes is None else iteration_sizes
        with tracer.span("synthesis.safety_control") as rec:
            table = inner(sys, spec, iteration_sizes=sizes, warm_start=warm_start)
        if rec is not None:
            rec["sweeps"] = len(sizes)
        return table

    shield_mod.safety_control = safety_control
    try:
        yield
    finally:
        shield_mod.safety_control = inner


PER_LAYER = {
    "abstraction.build_abstraction.s": "s",
    "abstraction.pair_hits.calls_per_step": "count",
    "abstraction.pair_hits.ms_per_step": "ms",
    "abstraction.pair_hits.rows_per_call": "count",
    "abstraction.pair_hits.hit_ratio": "ratio",
    "synthesis.safety_control.ms_p50": "ms",
    "synthesis.safety_control.sweeps": "count",
    "shield.raw_product.ms_p50": "ms",
    "shield.raw_product.ms_p95": "ms",
    "shield.raw_product.active_atomics": "count",
    "shield.raw_product.blocking_states": "count",
    "shield.repair.ms_p50": "ms",
    "shield.repair.ms_p95": "ms",
    "shield.repair.removed_states": "count",
    "shield.compose.ms_p50": "ms",
    "shield.compose.ms_p95": "ms",
    "shield.compose.self_ms_p50": "ms",
    "shield.pure_online_shield.ms_p50": "ms",
    "shield.pure_online_shield.ms_p95": "ms",
    "shield.shield_apply.us_p50": "us",
    "shield.shield_apply.interventions": "count",
    "navsim.sense.us_p50": "us",
    "navsim.step.residual_ms_p50": "ms",
    "shield.synthesize_bank.s": "s",
    "shield.synthesize_bank.atomics_per_s": "1/s",
    "shield.save_bank.s": "s",
    "shield.load_bank.s": "s",
}


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def per_layer_metrics(spans):
    """Summarize spans into the PER_LAYER metrics.

    Step-scoped figures (pair_hits, safety_control, compose, pure-online,
    sense, shield_apply) use only spans inside closed-loop steps; a layer a
    workload does not call there reports 0.  Repair figures are derived:
    compose minus the separately timed raw product of the same step, and the
    raw domain size minus the composed one.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def in_steps(name):
        return [s for s in by_name[name] if s["step"] is not None and s["parent"] is not None]

    def ms(sel):
        return [dur[s["id"]] * 1e3 for s in sel]

    n_steps = len(by_name["navsim.step"])
    per_step = max(n_steps, 1)
    hits = in_steps("abstraction.pair_hits")
    rows = sum(s["rows"] for s in hits)
    sc = in_steps("synthesis.safety_control")
    raw = by_name["shield.raw_product"]
    compose = in_steps("shield.compose")
    raw_ms = {s["step"]: dur[s["id"]] * 1e3 for s in raw}
    repair_ms = [dur[s["id"]] * 1e3 - raw_ms[s["step"]] for s in compose if s["step"] in raw_ms]
    compose_self = [dur[s["id"]] * 1e3 - sum(dur[c["id"]] * 1e3 for c in children[s["id"]])
                    for s in compose]
    pure = in_steps("shield.pure_online_shield")
    apply_ = in_steps("shield.shield_apply")
    residual = [dur[s["id"]] * 1e3 - sum(dur[c["id"]] * 1e3 for c in children[s["id"]])
                for s in by_name["navsim.step"]]
    synth = by_name["shield.synthesize_bank"]

    values = {
        "abstraction.build_abstraction.s": _pct([dur[s["id"]] for s in by_name["abstraction.build_abstraction"]], 50),
        "abstraction.pair_hits.calls_per_step": len(hits) / per_step,
        "abstraction.pair_hits.ms_per_step": sum(ms(hits)) / per_step,
        "abstraction.pair_hits.rows_per_call": rows / len(hits) if hits else 0.0,
        "abstraction.pair_hits.hit_ratio": sum(s["hit_rows"] for s in hits) / rows if rows else 0.0,
        "synthesis.safety_control.ms_p50": _pct(ms(sc), 50),
        "synthesis.safety_control.sweeps": _pct([s["sweeps"] for s in sc], 50),
        "shield.raw_product.ms_p50": _pct(list(raw_ms.values()), 50),
        "shield.raw_product.ms_p95": _pct(list(raw_ms.values()), 95),
        "shield.raw_product.active_atomics": _pct([s["active"] for s in raw], 50),
        "shield.raw_product.blocking_states": _mean([s["blocking"] for s in raw]),
        "shield.repair.ms_p50": _pct(repair_ms, 50),
        "shield.repair.ms_p95": _pct(repair_ms, 95),
        "shield.repair.removed_states": _mean([s["removed"] for s in raw]),
        "shield.compose.ms_p50": _pct(ms(compose), 50),
        "shield.compose.ms_p95": _pct(ms(compose), 95),
        "shield.compose.self_ms_p50": _pct(compose_self, 50),
        "shield.pure_online_shield.ms_p50": _pct(ms(pure), 50),
        "shield.pure_online_shield.ms_p95": _pct(ms(pure), 95),
        "shield.shield_apply.us_p50": _pct([v * 1e3 for v in ms(apply_)], 50),
        "shield.shield_apply.interventions": sum(1 for s in apply_ if s["intervened"]),
        "navsim.sense.us_p50": _pct([v * 1e3 for v in ms(in_steps("navsim.sense"))], 50),
        "navsim.step.residual_ms_p50": _pct(residual, 50),
        "shield.synthesize_bank.s": _pct([dur[s["id"]] for s in synth], 50),
        "shield.synthesize_bank.atomics_per_s": _pct([s["atomics"] / dur[s["id"]] for s in synth], 50),
        "shield.save_bank.s": _pct([dur[s["id"]] for s in by_name["shield.save_bank"]], 50),
        "shield.load_bank.s": _pct([dur[s["id"]] for s in by_name["shield.load_bank"]], 50),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}
