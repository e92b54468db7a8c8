"""Shared fixtures: the 7-state golden automaton and per-preset navigation
runtimes, each built once per session by `build_runtime` (bank synthesis
takes about a second on the fine preset)."""

import numpy as np
import pytest

from parashield.abstraction import ExplicitAbstraction
from parashield.bench import build_runtime
from parashield.synthesis import StateSet


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


@pytest.fixture(scope="session")
def coarse_rt():
    return build_runtime("coarse")


@pytest.fixture(scope="session")
def medium_rt():
    return build_runtime("medium")


@pytest.fixture(scope="session")
def fine_rt():
    return build_runtime("fine")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
