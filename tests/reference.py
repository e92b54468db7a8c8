"""Definitions that only the tests use: the controllable predecessor of the
paper, the interval image of a state box under one vehicle step, and deadlock
removal by plain iteration over sets."""

import numpy as np

from parashield.abstraction import DubinsParams, _displacement
from parashield.synthesis import StateSet, _check_universe


def cpre(sys, s: StateSet) -> StateSet:
    """Controllable predecessor: states with an input forcing all successors into s."""
    _check_universe(sys, s)
    rows, hits = sys.pair_hits(~s.mask)
    ok = sys.stays.copy()
    ok[rows] &= ~hits
    return StateSet(ok.any(axis=1))


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


def brute_force_nonblocking(sys, domain, allowed):
    """Independent reference for deadlock removal: iteratively delete blocking
    states and inputs that dangle outside the shrinking domain."""
    dom = set(domain)
    allow = {x: list(us) for x, us in allowed.items() if x in dom}
    while True:
        changed = False
        for x in list(dom):
            us = []
            for u in allow.get(x, []):
                succ, is_out = sys.post(x, u)
                if not is_out and all(int(s) in dom for s in succ):
                    us.append(u)
            if us:
                allow[x] = us
            else:
                dom.discard(x)
                allow.pop(x, None)
                changed = True
        if not changed:
            break
    return dom, allow
