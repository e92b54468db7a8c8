"""Dynamic shields: offline bank of atomic safety controllers, fast online
composition for any conjunction of atomic specifications, and the
pass-through/override decision rule.

Composition is a product of atomic controllers followed by deadlock removal.
Because every atomic controller is closed (allowed inputs never leave its own
domain), no allowed input of the product can leave the product domain either,
so the repair loop only has to propagate away from states whose allowed sets
intersected to nothing.  In the common case there are none and composition is
a handful of bitwise ANDs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import AbstractionMismatch, DomainViolation, EmptyActiveSet
from .synthesis import (
    ControllerTable,
    SafetySpec,
    StateSet,
    _pack_bool,
    _unpack_bool,
    is_sub_controller,
    product,
    safety_control,
)


@dataclass
class ShieldDecision:
    """Outcome of one shield query."""

    u: np.ndarray
    u_index: int
    intervened: bool
    proposed_allowed: bool


class Shield:
    """Composed safety controller plus the nearest-allowed-input override."""

    def __init__(self, table: ControllerTable, inputs, active_ids=None):
        self.table = table
        self.inputs = inputs
        self.active_ids = None if active_ids is None else tuple(sorted(active_ids))

    def domain(self) -> StateSet:
        return self.table.domain()


class AtomicShieldBank:
    """One maximally permissive controller per atomic safe set.

    When a base atomic is designated and every other controller is a
    sub-controller of it (the navigation bank is, by monotonicity of safety
    games under shrinking safe sets), tables are stored as sparse diffs
    against the base: composition then copies the base once and scatters a
    few thousand AND updates instead of streaming every full table.  Such a
    bank is built from the base table and one `_delta(base, table, i)` per
    atomic; without a base, `tables` lists every atomic's table.
    """

    def __init__(self, sys, safes, tables=None, base_id=None, base=None, diffs=None):
        self.sys = sys
        self.safes = list(safes)
        self.base_id = base_id
        self.n_atomics = len(self.safes)
        self._tables = None if tables is None else list(tables)
        self._base = base
        self._diffs = None if diffs is None else list(diffs)

    def table(self, i) -> ControllerTable:
        """Materialize the controller of one atomic."""
        if self._tables is not None:
            return self._tables[i]
        tab = self._base.copy()
        idx, masks, defined = self._diffs[i]
        tab.masks[idx] = masks
        tab.defined[idx] = defined
        tab.masks[~tab.defined] = 0
        return tab

    def raw_product(self, active) -> ControllerTable:
        """Product of the active atomic controllers, blocking states kept."""
        ids = sorted(set(int(i) for i in active))
        if not ids:
            raise EmptyActiveSet("at least one atomic specification must be active")
        for i in ids:
            if i < 0 or i >= self.n_atomics:
                raise IndexError(f"atomic id {i} out of range")
        if self._diffs is None:
            tab = self._tables[ids[0]].copy()
            for i in ids[1:]:
                tab = product(tab, self._tables[i])
            return tab
        tab = self._base.copy()
        for i in ids:
            idx, masks, defined = self._diffs[i]
            tab.masks[idx] &= masks
            tab.defined[idx] &= defined
        tab.masks[~tab.defined] = 0
        return tab


def _delta(base: ControllerTable, tab: ControllerTable, i):
    """Sparse diff of a sub-controller of `base`: (rows, masks, defined) of
    the rows that differ."""
    if not is_sub_controller(tab, base):
        raise ValueError(f"atomic {i} is not a sub-controller of the base; delta storage is invalid")
    diff = (tab.defined != base.defined) | (tab.masks != base.masks).any(axis=1)
    idx = np.nonzero(diff)[0].astype(np.int64)
    return idx, tab.masks[idx].copy(), tab.defined[idx].copy()


def synthesize_bank(sys, atomics, base_id=None, pool=None) -> AtomicShieldBank:
    """Offline phase: one safety-controller synthesis per atomic safe set.

    With a designated base atomic, its controller is synthesized first and the
    remaining runs start from its fixed point whenever their safe set is a
    subset of the base's (shorter descent, same result).  Each table is
    reduced to its diff against the base as soon as it is synthesized, so at
    most one full table per worker is alive at a time.
    """
    atomics = list(atomics)
    run = pool.map if pool is not None else map
    if base_id is None:
        tables = list(run(lambda s: safety_control(sys, SafetySpec(s)), atomics))
        return AtomicShieldBank(sys, atomics, tables)

    base = safety_control(sys, SafetySpec(atomics[base_id]))
    base_safe = atomics[base_id].mask

    def synth_delta(i):
        if i == base_id:
            return _delta(base, base, i)
        warm = base if not np.any(atomics[i].mask & ~base_safe) else None
        return _delta(base, safety_control(sys, SafetySpec(atomics[i]), warm_start=warm), i)

    diffs = list(run(synth_delta, range(len(atomics))))
    return AtomicShieldBank(sys, atomics, base_id=base_id, base=base, diffs=diffs)


def _repair_blocking(sys, table: ControllerTable):
    """Deadlock removal for a product of closed controllers, in place.

    Closure of the factors means no allowed input of the product leaves the
    product domain, so the greatest nonblocking fixed point only ever removes
    blocking states and then inputs leading into them.  Each sweep asks
    `sys.pair_hits` which allowed inputs reach the states just removed; on a
    boxed abstraction that test builds neighbourhood words only around those
    states and ANDs them with the per-(heading row, input) kernels, so the
    bulk of a sweep's work scales with the removed region, not the grid.  The
    allowed sets stay packed between sweeps.
    """
    d = table.defined
    masks = table.masks
    removed = table.blocking().mask
    while removed.any():
        d &= ~removed
        rows, hits = sys.pair_hits(
            removed, within=d,
            row_alive=lambda r: _unpack_bool(masks[r], table.n_inputs))
        if len(rows) == 0:
            break
        masks[rows] &= ~_pack_bool(hits)
        sub = rows[d[rows] & (masks[rows] == 0).all(axis=1)]
        removed = np.zeros_like(d)
        removed[sub] = True
    masks[~d] = 0
    return table


def compose(bank: AtomicShieldBank, active) -> Shield:
    """Online phase: product of the active atomic controllers, then deadlock removal.

    Semantically equal to synthesizing a controller for the intersection of
    the active safe sets from scratch; the randomized equivalence suite checks
    exactly that.
    """
    raw = bank.raw_product(active)
    return Shield(_repair_blocking(bank.sys, raw), bank.sys.inputs, active_ids=active)


def pure_online_shield(sys, safe_sets) -> Shield:
    """Baseline: synthesize the controller for the intersection from scratch."""
    sets = list(safe_sets)
    if not sets:
        raise EmptyActiveSet("at least one safe set is required")
    safe = sets[0]
    for s in sets[1:]:
        safe = safe & s
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

_MAGIC = b"PSHB1"


def save_bank(bank: AtomicShieldBank, path):
    """Bundle the abstraction hash and all atomic tables in one file."""
    sys = bank.sys
    with open(path, "wb") as f:
        f.write(_MAGIC)
        digest = sys.content_hash.encode("ascii")
        f.write(struct.pack("<B", len(digest)))
        f.write(digest)
        base_id = -1 if bank.base_id is None else bank.base_id
        f.write(struct.pack("<qqqq", bank.n_atomics, sys.n_states, sys.n_inputs, base_id))
        for s in bank.safes:
            f.write(np.packbits(s.mask).tobytes())
        if bank.base_id is None:
            for i in range(bank.n_atomics):
                tab = bank.table(i)
                f.write(np.packbits(tab.defined).tobytes())
                f.write(tab.masks.tobytes())
        else:
            f.write(np.packbits(bank._base.defined).tobytes())
            f.write(bank._base.masks.tobytes())
            for idx, masks, defined in bank._diffs:
                f.write(struct.pack("<q", len(idx)))
                f.write(idx.tobytes())
                f.write(masks.tobytes())
                f.write(np.packbits(defined).tobytes())


def load_bank(path, sys, spot_check=1, rng=None) -> AtomicShieldBank:
    """Load a bank; rejects the wrong abstraction and spot-checks a few tables
    against fresh synthesis."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:5] != _MAGIC:
        raise ValueError("not a bank file (bad magic)")
    off = 5
    (hlen,) = struct.unpack_from("<B", data, off)
    off += 1
    digest = data[off:off + hlen].decode("ascii")
    off += hlen
    if digest != sys.content_hash:
        raise AbstractionMismatch("bank was synthesized for a different abstraction")
    n_atomics, n_states, n_inputs, base_id = struct.unpack_from("<qqqq", data, off)
    off += 32
    if n_states != sys.n_states or n_inputs != sys.n_inputs:
        raise AbstractionMismatch("bank shape does not match the abstraction")
    words = (n_inputs + 63) // 64
    nbytes = (n_states + 7) // 8
    safes = []
    for _ in range(n_atomics):
        mask = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=off))[:n_states].astype(bool)
        off += nbytes
        safes.append(StateSet(mask))

    def read_table():
        nonlocal off
        defined = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=off))[:n_states].astype(bool)
        off2 = off + nbytes
        masks = np.frombuffer(data, dtype=np.uint64, count=n_states * words, offset=off2).reshape(n_states, words).copy()
        off = off2 + n_states * words * 8
        return ControllerTable(n_states, n_inputs, defined, masks)

    if base_id < 0:
        bank = AtomicShieldBank(sys, safes, [read_table() for _ in range(n_atomics)])
    else:
        base = read_table()
        diffs = []
        for _ in range(n_atomics):
            (k,) = struct.unpack_from("<q", data, off)
            off += 8
            idx = np.frombuffer(data, dtype=np.int64, count=k, offset=off).copy()
            off += 8 * k
            masks = np.frombuffer(data, dtype=np.uint64, count=k * words, offset=off).reshape(k, words).copy()
            off += 8 * k * words
            kb = (k + 7) // 8
            defined = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=kb, offset=off))[:k].astype(bool)
            off += kb
            diffs.append((idx, masks, defined))
        bank = AtomicShieldBank(sys, safes, base_id=int(base_id), base=base, diffs=diffs)

    if spot_check:
        from .synthesis import controller_equal
        rng = np.random.default_rng(0) if rng is None else rng
        for i in rng.choice(n_atomics, size=min(spot_check, n_atomics), replace=False):
            fresh = safety_control(sys, SafetySpec(bank.safes[int(i)]))
            if not controller_equal(fresh, bank.table(int(i))):
                raise AbstractionMismatch(f"stored table {int(i)} does not match fresh synthesis")
    return bank
