"""Correctness checks on the program's outputs.

Every check compares against a property the method must have or against a
result computed apart from the code path under test (from-scratch synthesis,
closure, nonblocking, minimal intervention, the harness's own collision test
and grid geometry); none compares against a stored copy of earlier output.
Each function returns a list of problems, empty when the check holds.
"""

from __future__ import annotations

import numpy as np

from parashield import (
    AbstractionMismatch,
    SafetySpec,
    controller_equal,
    is_sub_controller,
    load_bank,
    safety_control,
)
from parashield.synthesis import closure_holds


def allowed_rows(table, rows):
    """Allowed-input bits of the given rows, unpacked from the 64-bit words
    independently of the program's own unpacking."""
    words = table.masks[np.asarray(rows, dtype=np.int64)]
    bits = np.unpackbits(words.view(np.uint8).reshape(len(words), -1), axis=1, bitorder="little")
    return bits[:, :table.n_inputs].astype(bool)


def in_rect(rect, x, y):
    return rect[0] <= x <= rect[2] and rect[1] <= y <= rect[3]


def collides(world, pose):
    return any(in_rect(ob, pose[0], pose[1]) for ob in world.obstacles)


def check_decision(table, inputs, cell, proposed, decision):
    """Chosen input allowed; intervention exactly when the snapped proposal is
    disallowed; an override is the nearest allowed input (ties to the lowest
    index)."""
    pts = inputs.points
    proposed = np.asarray(proposed, dtype=np.float64)
    allowed = allowed_rows(table, [cell])[0]
    snapped = int(np.argmin(((pts - proposed) ** 2).sum(axis=1)))
    problems = []
    if not allowed[decision.u_index]:
        problems.append(f"cell {cell}: chosen input {decision.u_index} is not allowed")
    if decision.intervened == bool(allowed[snapped]):
        problems.append(f"cell {cell}: intervened={decision.intervened} but snapped input "
                        f"{snapped} allowed={bool(allowed[snapped])}")
    cand = np.nonzero(allowed)[0]
    if cand.size:
        expect = snapped if allowed[snapped] else int(cand[np.argmin(((pts[cand] - proposed) ** 2).sum(axis=1))])
        if decision.u_index != expect or not np.array_equal(decision.u, pts[expect]):
            problems.append(f"cell {cell}: chose input {decision.u_index}, nearest allowed is {expect}")
    return problems


def check_shield(sys, composed, scratch):
    """Composed table equals from-scratch synthesis on the intersection of the
    active safe sets, is closed, and has no blocking states."""
    problems = []
    if not controller_equal(composed, scratch):
        problems.append("composed table differs from from-scratch synthesis")
    if not closure_holds(sys, composed):
        problems.append("composed table is not closed")
    if np.any(composed.defined & ~composed.masks.any(axis=1)):
        problems.append("composed table has blocking states")
    return problems


def interior_columns(grid, d):
    """Number of x-y cell columns lying inside [-d, d]^2, from the grid geometry."""
    def inside(k):
        lo = grid.lower[k] + np.arange(grid.shape[k]) * grid.eta[k]
        tol = 1e-9 * max(d, 1.0)
        return int(np.count_nonzero((lo >= -d - tol) & (lo + grid.eta[k] <= d + tol)))
    return inside(0) * inside(1)


def check_bank(sys, bank, cold_ids):
    """Every atomic is a closed, nonblocking sub-controller of the fence
    atomic with its domain inside its safe set; the `cold_ids` atomics equal
    cold synthesis (no warm start)."""
    problems = []
    base = bank.table(0)
    if not closure_holds(sys, base):
        problems.append("fence atomic is not closed")
    for i in range(bank.n_atomics):
        tab = bank.table(i)
        if np.any(tab.defined & ~bank.safes[i].mask):
            problems.append(f"atomic {i}: domain leaves its safe set")
        if np.any(tab.defined & ~tab.masks.any(axis=1)):
            problems.append(f"atomic {i}: blocking states")
        if not is_sub_controller(tab, base):
            problems.append(f"atomic {i}: not a sub-controller of the fence atomic")
            continue
        # a sub-controller of the closed fence atomic is closed iff no allowed
        # pair reaches a fence-domain state outside its own domain
        _, hits = sys.pair_hits(base.defined & ~tab.defined, within=tab.defined,
                                row_alive=lambda r: allowed_rows(tab, r))
        if hits.any():
            problems.append(f"atomic {i}: an allowed input leaves its domain")
    for i in cold_ids:
        if not controller_equal(safety_control(sys, SafetySpec(bank.safes[i])), bank.table(i)):
            problems.append(f"atomic {i} differs from cold synthesis")
    return problems


def check_same_tables(bank, other, ids_in_other):
    """Table j of `bank` equals table ids_in_other[j] of `other`, safe sets too."""
    problems = []
    for j, i in enumerate(ids_in_other):
        if not (controller_equal(bank.table(j), other.table(i))
                and np.array_equal(bank.safes[j].mask, other.safes[i].mask)):
            problems.append(f"table {j} differs from table {i} of the other bank")
    return problems


def check_wrong_abstraction(path, other_sys):
    """Loading a bank against another preset's abstraction must be refused."""
    try:
        load_bank(path, other_sys)
    except AbstractionMismatch:
        return []
    return [f"{path.name} loaded against a different abstraction"]


def self_test(sys, composed, scratch):
    """The shield check must fire on a composed table with one allowed bit
    cleared."""
    tampered = composed.copy()
    row = int(np.flatnonzero(tampered.masks.any(axis=1))[0])
    word = int(np.flatnonzero(tampered.masks[row])[0])
    value = tampered.masks[row, word]
    tampered.masks[row, word] = value & (value - np.uint64(1))
    if not check_shield(sys, tampered, scratch):
        return ["self-test: shield check passed a tampered table"]
    return []
