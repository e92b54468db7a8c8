"""Shared fixtures: the 7-state golden automaton and per-preset navigation
runtimes.  Banks are cached on disk keyed by the abstraction's content hash
and a digest of the parashield sources, so repeated test runs skip the
offline synthesis and a changed program never loads a bank an older one
built."""

import hashlib
import os
import pathlib

import numpy as np
import pytest

import parashield
from parashield.abstraction import ExplicitAbstraction
from parashield.bench import GRID_PRESETS
from parashield.errors import AbstractionMismatch
from parashield.shield import load_bank, save_bank
from parashield.synthesis import StateSet

CACHE_DIR = pathlib.Path(os.environ.get("PARASHIELD_TEST_CACHE",
                                        pathlib.Path.home() / ".cache" / "parashield-tests"))


def branching_post_map():
    # states a..g = 0..6; c, d, f, g self-loop on both inputs
    return {
        (0, 0): [1], (0, 1): [4],
        (1, 0): [2], (1, 1): [3],
        (2, 0): [2], (2, 1): [2],
        (3, 0): [3], (3, 1): [3],
        (4, 0): [5], (4, 1): [6],
        (5, 0): [5], (5, 1): [5],
        (6, 0): [6], (6, 1): [6],
    }


@pytest.fixture(scope="session")
def automaton7():
    sysm = ExplicitAbstraction.from_map(7, 2, branching_post_map())
    g = StateSet.from_indices(7, [0, 1, 2, 3, 4, 5])
    h = StateSet.from_indices(7, [0, 1, 2, 3, 4, 6])
    return sysm, g, h


def _source_digest():
    h = hashlib.sha256()
    src = pathlib.Path(parashield.__file__).parent
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cached_runtime(preset):
    """Build the runtime, reusing the bank cached for this abstraction and
    these sources; a cache file that fails to load is rebuilt."""
    from parashield.navsim import ColumnLayout, NavRuntime, make_atomics, make_sensing_config
    from parashield.abstraction import build_abstraction
    from parashield.bench import DEFAULT_OBSTACLE_MARGIN_CELLS
    import time

    eta = GRID_PRESETS[preset]
    cfg = make_sensing_config(eta=eta, obstacle_margin=DEFAULT_OBSTACLE_MARGIN_CELLS * eta[0])
    rt = NavRuntime.__new__(NavRuntime)
    rt.cfg = cfg
    t0 = time.perf_counter()
    rt.sys = build_abstraction(cfg.grid, cfg.inputs, cfg.params)
    rt.abstraction_seconds = time.perf_counter() - t0
    rt.layout = ColumnLayout(cfg.grid, cfg.d)
    rt.atomics = make_atomics(cfg.grid, cfg.d, cfg.epsilon)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    cache = CACHE_DIR / f"bank_{rt.sys.content_hash[:16]}_{_source_digest()[:16]}.pshb"
    t0 = time.perf_counter()
    if cache.exists():
        try:
            rt.bank = load_bank(cache, rt.sys, spot_check=1)
            rt.synthesis_seconds = time.perf_counter() - t0
            return rt
        except (AbstractionMismatch, ValueError):
            cache.unlink()
    from parashield.shield import synthesize_bank
    rt.bank = synthesize_bank(rt.sys, rt.atomics, base_id=0)
    rt.synthesis_seconds = time.perf_counter() - t0
    save_bank(rt.bank, cache)
    return rt


@pytest.fixture(scope="session")
def coarse_rt():
    return _cached_runtime("coarse")


@pytest.fixture(scope="session")
def medium_rt():
    return _cached_runtime("medium")


@pytest.fixture(scope="session")
def fine_rt():
    return _cached_runtime("fine")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
