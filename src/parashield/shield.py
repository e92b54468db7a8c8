"""Dynamic shields: offline bank of atomic safety controllers, fast online
composition for any conjunction of atomic specifications, and the
pass-through/override decision rule.

Composition is a product of atomic controllers followed by deadlock removal,
which is the synthesis fixed point (`synthesis._narrow`) started from the
product's blocking states.  Because every atomic controller is closed
(allowed inputs never leave its own domain), no allowed input of the product
can leave the product domain either, so the loop only has to propagate away
from states whose allowed sets intersected to nothing.  In the common case
there are none and composition is a handful of bitwise ANDs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .artifact import read_artifact, write_artifact
from .errors import AbstractionMismatch, DomainViolation, EmptyActiveSet
from .synthesis import (
    ControllerTable,
    SafetySpec,
    StateSet,
    StateSets,
    _empty_rows,
    _narrow,
    _rows,
    controller_equal,
    safety_control,
)

logger = logging.getLogger(__name__)


@dataclass
class ShieldDecision:
    """Outcome of one shield query."""

    u: np.ndarray
    u_index: int
    intervened: bool
    proposed_allowed: bool


class Shield:
    """Composed safety controller plus the nearest-allowed-input override."""

    def __init__(self, table: ControllerTable, inputs):
        self.table = table
        self.inputs = inputs


class AtomicShieldBank:
    """One maximally permissive controller per atomic safe set.

    The safe sets are one `StateSets`, and every table is stored as a sparse
    diff against the controller of their reference set: every safe set lies
    inside it, so every table is a sub-controller of it by monotonicity of
    safety games under shrinking safe sets.  In the navigation bank that base
    is the fence atomic.  Composition then copies the base once and ANDs in a
    few thousand whole rows instead of streaming every full table.  The diffs
    of all atomics are concatenated: atomic i owns rows `ptr[i]:ptr[i + 1]`
    of `idx` (states, strictly ascending within each atomic) and `masks`.
    The base and the atomic tables are nonblocking on their domains, so a row
    is in the domain exactly when its mask is not empty; the states of the
    diff rows that leave it are `undefined[uptr[i]:uptr[i + 1]]`.
    """

    def __init__(self, sys, safes: StateSets, base, ptr, idx, masks):
        self.sys = sys
        self.safes = safes
        self.n_atomics = len(self.safes)
        self.base = base
        self.ptr = ptr
        self.idx = idx
        self.masks = masks
        # searching the empty rows' positions for the offsets makes no
        # full-length int64 temporary
        at = np.flatnonzero(_empty_rows(masks))
        self.undefined, self.uptr = idx[at], np.searchsorted(at, ptr)

    def table(self, i) -> ControllerTable:
        """Materialize the controller of one atomic: its diff rows are
        sub-rows of the base, so ANDing them in is the same as storing them."""
        return self.raw_product([i])

    def raw_product(self, active) -> ControllerTable:
        """Product of the active atomic controllers, blocking states kept.

        Per active atomic: one gather of the base rows its diff names, one
        AND with its diff masks, one scatter back (`synthesis._rows`), and
        its undefined states leave the domain; diffs are sub-controllers of
        the base, so rows only lose bits and only turn undefined."""
        ids = sorted(set(int(i) for i in active))
        if not ids:
            raise EmptyActiveSet("at least one atomic specification must be active")
        for i in ids:
            if i < 0 or i >= self.n_atomics:
                raise IndexError(f"atomic id {i} out of range")
        tab = self.base.copy()
        allowed = _rows(tab.masks)
        for i in ids:
            a, b = self.ptr[i], self.ptr[i + 1]
            idx = self.idx[a:b]
            kept = allowed[idx].view(np.uint64)
            kept &= self.masks[a:b].reshape(-1)
            allowed[idx] = kept.view(allowed.dtype)
            tab.defined[self.undefined[self.uptr[i]:self.uptr[i + 1]]] = False
        return tab


def synthesize_bank(sys, atomics, base_id=None) -> AtomicShieldBank:
    """Offline phase: one safety-controller synthesis per atomic safe set.

    `atomics` is a `StateSets` or a plain iterable of `StateSet`s; the sets
    are stored against the safe set of atomic `base_id`, or without one
    against a sequence's reference set or the full set.  The base is the
    controller of that reference set, so it is nonblocking.  Every safe set
    must lie inside it (the encoding raises a ValueError naming the first
    atomic that leaves it before anything is synthesized), so every run
    starts from the base's fixed point (shorter descent, same result) and its
    table is a sub-controller of the base.  All runs share one work copy of
    the base: its unsafe states leave the domain, `_narrow` runs from there
    and records the rows it writes, the rows among those whose masks differ
    from the base's are the diff, and copying them back from the base
    restores the work table.
    A run costs in proportion to the rows it touches, not to the grid, and
    only the base and the work table are alive.  Progress goes to this
    module's logger: one DEBUG record per atomic, whose `atomic`, `atomics`
    and `diff_rows` attributes give its index, the total and its diff size.
    """
    if not isinstance(atomics, StateSets):
        atomics = list(atomics)
        atomics = StateSets.encode(atomics, StateSet.full(sys.n_states) if base_id is None else atomics[base_id])
    elif base_id is not None and atomics.ptr[base_id] < atomics.ptr[base_id + 1]:
        # the base atomic lacks states of the reference: encoding against
        # its set checks every set against it
        atomics = StateSets.encode(atomics, atomics[base_id])
    base = safety_control(sys, SafetySpec(StateSet(atomics.ref)))
    work = base.copy()
    base_rows, work_rows = _rows(base.masks), _rows(work.masks)

    def warm_delta(i):
        touched = []
        _narrow(sys, work, base.defined & ~atomics[i].mask, touched=touched)
        # several sweeps can write one row; the diff lists it once, ascending
        rows = np.sort(np.concatenate(touched))
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows = rows[first]
        now, was = work_rows[rows], base_rows[rows]
        # both tables are nonblocking, so a row's mask also gives its domain bit
        changed = now != was
        rows, now, was = rows[changed], now[changed], was[changed]
        if np.any(now.view(np.uint64) & ~was.view(np.uint64)):
            raise ValueError(f"atomic {i} is not a sub-controller of the base; delta storage is invalid")
        work_rows[rows], work.defined[rows] = was, base.defined[rows]
        logger.debug("atomic %d of %d: %d diff rows", i, len(atomics), len(rows),
                     extra={"atomic": i, "atomics": len(atomics), "diff_rows": len(rows)})
        return rows, now.view(np.uint64).reshape(len(rows), base.words)

    diffs = [warm_delta(i) for i in range(len(atomics))]
    ptr = np.cumsum([0] + [len(rows) for rows, _ in diffs], dtype=np.int64)
    idx, masks = (np.concatenate(parts) for parts in zip(*diffs))
    return AtomicShieldBank(sys, atomics, base, ptr, idx, masks)


def compose(bank: AtomicShieldBank, active) -> Shield:
    """Online phase: product of the active atomic controllers, then deadlock removal.

    Semantically equal to synthesizing a controller for the intersection of
    the active safe sets from scratch; the randomized equivalence suite checks
    exactly that.
    """
    raw = bank.raw_product(active)
    return Shield(_narrow(bank.sys, raw, raw.blocking().mask), bank.sys.inputs)


def pure_online_shield(sys, safe_sets) -> Shield:
    """Baseline: synthesize the controller for the intersection from scratch."""
    sets = list(safe_sets)
    if not sets:
        raise EmptyActiveSet("at least one safe set is required")
    safe = StateSet(sets[0].mask.copy())
    for s in sets[1:]:
        safe._check(s)
        np.logical_and(safe.mask, s.mask, out=safe.mask)
    return Shield(safety_control(sys, SafetySpec(safe)), sys.inputs)


def shield_apply(shield: Shield, cell, proposed) -> ShieldDecision:
    """Pass the proposed input through when allowed, else the nearest allowed one.

    The proposal is snapped to the input grid before the membership test.
    Overrides minimize Euclidean distance to the proposal; ties go to the
    lowest input index.  Raises DomainViolation outside the shield's domain:
    there the safety guarantee is void and the caller owns the failsafe.
    """
    cell = int(cell)
    table = shield.table
    if not table.defined[cell]:
        raise DomainViolation(f"cell {cell} is outside the shield domain")
    proposed = np.asarray(proposed, dtype=np.float64)
    snapped = shield.inputs.nearest(proposed)
    if table.allows(cell, snapped):
        return ShieldDecision(shield.inputs[snapped], snapped, intervened=False, proposed_allowed=True)
    allowed = table.allowed_indices(cell)
    if allowed.size == 0:
        raise DomainViolation(f"cell {cell} has no allowed inputs (blocking state)")
    d2 = ((shield.inputs.points[allowed] - proposed) ** 2).sum(axis=1)
    pick = int(allowed[int(np.argmin(d2))])
    return ShieldDecision(shield.inputs[pick], pick, intervened=True, proposed_allowed=False)


# -- serialization ------------------------------------------------------------

_BANK_DTYPES = {
    "safe_ref": np.uint8, "safe_ptr": np.int64, "safe_idx": np.int64,
    "base_masks": np.uint64, "ptr": np.int64, "idx": np.int64, "masks": np.uint64,
}


def save_bank(bank: AtomicShieldBank, path):
    """Write the safe sets (reference set plus the states each lacks), the
    base and the concatenated diffs, keyed by the abstraction's content hash;
    bit arrays are packed."""
    write_artifact(path, "bank", bank.sys.content_hash, {
        "safe_ref": np.packbits(bank.safes.ref),
        "safe_ptr": bank.safes.ptr,
        "safe_idx": bank.safes.idx,
        "base_masks": bank.base.masks,
        "ptr": bank.ptr,
        "idx": bank.idx,
        "masks": bank.masks,
    })


def _check_segments(path, what, ptr, idx, n):
    """Rows `idx[ptr[i]:ptr[i + 1]]`: offsets monotone from 0 to the length
    of `idx`, states in [0, n), strictly ascending within each row."""
    k = idx.size
    if ptr[0] != 0 or ptr[-1] != k or np.any(np.diff(ptr) < 0):
        raise ValueError(f"{path}: offsets of the {what} are not monotone from 0 to {k}")
    if k and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"{path}: {what} outside [0, {n})")
    unordered = idx[1:] <= idx[:-1]
    starts = ptr[1:-1]
    unordered[starts[(starts > 0) & (starts < k)] - 1] = False
    if np.any(unordered):
        raise ValueError(f"{path}: {what} of an atomic are not strictly ascending")


def load_bank(path, sys, spot_check=1) -> AtomicShieldBank:
    """Load a bank; rejects the wrong abstraction (AbstractionMismatch) and
    malformed contents (ValueError), and checks `spot_check` tables drawn at
    random against fresh synthesis."""
    a = read_artifact(path, "bank", sys.content_hash, _BANK_DTYPES)
    n, words = sys.n_states, (sys.n_inputs + 63) // 64
    ptr, idx = a["ptr"], a["idx"]
    n_atomics, k = ptr.size - 1, idx.size
    shapes = {"safe_ref": ((n + 7) // 8,), "safe_ptr": (n_atomics + 1,), "safe_idx": (a["safe_idx"].size,),
              "base_masks": (n, words), "ptr": (n_atomics + 1,), "idx": (k,), "masks": (k, words)}
    for name, shape in shapes.items():
        if a[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {a[name].shape}, expected {shape}")
    if n_atomics < 1:
        raise ValueError(f"{path}: no atomics")
    # a repeated diff row would keep only its last mask in the product
    _check_segments(path, "diff rows", ptr, idx, n)
    _check_segments(path, "lacked safe states", a["safe_ptr"], a["safe_idx"], n)
    safe_ref = np.unpackbits(a["safe_ref"], count=n).view(bool)
    if not np.all(safe_ref[a["safe_idx"]]):
        raise ValueError(f"{path}: a safe set lacks a state outside the reference set")
    # the base is nonblocking: its domain is its rows with an input
    base = ControllerTable(n, sys.n_inputs, ~_empty_rows(a["base_masks"]), a["base_masks"])
    bank = AtomicShieldBank(sys, StateSets(safe_ref, a["safe_ptr"], a["safe_idx"]), base, ptr, idx, a["masks"])
    for i in np.random.default_rng().choice(n_atomics, size=min(spot_check, n_atomics), replace=False):
        fresh = safety_control(sys, SafetySpec(bank.safes[int(i)]))
        if not controller_equal(fresh, bank.table(int(i))):
            raise AbstractionMismatch(f"stored table {int(i)} does not match fresh synthesis")
    return bank
