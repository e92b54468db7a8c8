"""Safety-game solving over finite abstractions.

Every fixed point here is one narrowing loop, `_narrow`, over packed
controller tables.  The loop takes a table and the states to drop from its
domain, asks the abstraction its one bulk question, "which pairs have a
successor in this set", about the states just dropped, clears those inputs
and drops the rows that emptied, until no row empties.  Synthesis starts it
from the universe controller (or a warm start) narrowed to the safe set,
bank synthesis from one work table that stacks several copies of the base,
each narrowed to one atomic's safe set in the same run (the loop reports the
rows it writes, so the diffs and the restore cost what the atomics change),
nonblocking pruning from a product's undefined and blocking states, and
`compose` from a raw product's blocking states.
Once a pair has a successor outside the shrinking domain it stays
disallowed, so each sweep only re-tests pairs whose successor box meets the
freshly removed cells.

The abstraction answers in the tables' own packing, so hits clear bits
directly, and tables move whole rows: `_rows` views each row of words as one
item, so a sweep's update (and a product's AND in `AtomicShieldBank`) is one
gather, one AND and one scatter of the rows it touches.  A boxed abstraction
answers a sweep's whole heading columns in the x-y plane and its other
removed states from their predecessors (`BoxedAbstraction.pair_hits`).
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import UniverseMismatch


class StateSet:
    """Set of abstract states, dense boolean membership over flat indices."""

    __slots__ = ("mask",)

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)

    @classmethod
    def empty(cls, n):
        return cls(np.zeros(n, dtype=bool))

    @classmethod
    def full(cls, n):
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_indices(cls, n, indices):
        m = np.zeros(n, dtype=bool)
        m[np.asarray(list(indices), dtype=np.int64)] = True
        return cls(m)

    @property
    def n(self):
        return self.mask.size

    def _check(self, other):
        if self.n != other.n:
            raise UniverseMismatch(f"state sets over universes of size {self.n} and {other.n}")

    def __and__(self, other):
        self._check(other)
        return StateSet(self.mask & other.mask)

    def __or__(self, other):
        self._check(other)
        return StateSet(self.mask | other.mask)

    def __sub__(self, other):
        self._check(other)
        return StateSet(self.mask & ~other.mask)

    def __invert__(self):
        return StateSet(~self.mask)

    def __le__(self, other):
        self._check(other)
        return bool(np.all(~self.mask | other.mask))

    def __eq__(self, other):
        return isinstance(other, StateSet) and self.n == other.n and np.array_equal(self.mask, other.mask)

    def __contains__(self, cell):
        return bool(self.mask[int(cell)])

    def __len__(self):
        return int(self.mask.sum())

    def indices(self):
        return np.nonzero(self.mask)[0]

    def __repr__(self):
        return f"StateSet({len(self)}/{self.n})"


class StateSets:
    """Sequence of state sets inside one reference set, each stored as the
    states it lacks from `ref`: set i lacks `idx[ptr[i]:ptr[i + 1]]`
    (strictly ascending).  Indexing builds a fresh `StateSet`; nothing is
    cached."""

    __slots__ = ("ref", "ptr", "idx")

    def __init__(self, ref, ptr, idx):
        self.ref, self.ptr, self.idx = np.asarray(ref, dtype=bool), ptr, idx

    @classmethod
    def encode(cls, sets, ref: StateSet):
        """The sets of an iterable against `ref`; a ValueError names the
        first one that leaves it."""
        lacks = []
        for i, s in enumerate(sets):
            if not s <= ref:
                raise ValueError(f"atomic {i}'s safe set leaves the reference set")
            lacks.append(np.flatnonzero(ref.mask & ~s.mask))
        ptr = np.cumsum([0] + [a.size for a in lacks], dtype=np.int64)
        return cls(ref.mask, ptr, np.concatenate([np.zeros(0, np.int64)] + lacks))

    def __len__(self):
        return self.ptr.size - 1

    def __getitem__(self, i):
        i = range(len(self))[i]    # negative indices count from the end
        mask = self.ref.copy()
        mask[self.idx[self.ptr[i]:self.ptr[i + 1]]] = False
        return StateSet(mask)


class SafetySpec:
    """Stay forever inside a set of safe states."""

    def __init__(self, safe: StateSet):
        self.safe = safe


def _pack_bool(bits):
    """Pack booleans along the last axis into little-endian 64-bit words:
    padded once to whole words, then packed flat."""
    m = bits.shape[-1]
    words = (m + 63) // 64
    lead = bits.shape[:-1]
    if m != 64 * words:
        padded = np.zeros(lead + (64 * words,), dtype=bool)
        padded[..., :m] = bits
        bits = padded
    return np.packbits(bits.reshape(-1), bitorder="little").view("<u8").reshape(lead + (words,))


def _unpack_bool(masks, m):
    """Inverse of `_pack_bool` for rows of `m` booleans."""
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=m, bitorder="little").view(bool)


def _has_bit(masks, row, u):
    """Whether bit `u` of row `row` of a packed table is set."""
    w, b = divmod(int(u), 64)
    return bool((masks[int(row), w] >> np.uint64(b)) & np.uint64(1))


def _rows(masks):
    """A C-contiguous (n, words) uint64 table as n items of `8 * words` bytes,
    one per row, sharing its memory.  Fancy indexing then moves whole rows:
    `r[idx].view(np.uint64)` gathers their words, row after row, and
    `r[idx] = words.view(r.dtype)` scatters them back."""
    return masks.view(np.dtype((np.void, masks.itemsize * masks.shape[1]))).reshape(len(masks))


def _empty_rows(masks):
    """Rows of a packed table with no bit set, word column by word column:
    reducing along the short word axis is several times slower."""
    empty = masks[:, 0] == 0
    for w in range(1, masks.shape[1]):
        empty &= masks[:, w] == 0
    return empty


class ControllerTable:
    """Per-state allowed-input sets with an explicit domain.

    A state can be undefined (outside the domain) or defined with an empty
    allowed set; products keep such blocking states so the deadlock-removal
    pass sees them.  Allowed sets are packed into 64-bit words, one
    C-contiguous row per state, so that `_rows` can move whole rows.
    Tables are canonical: undefined rows carry no bits.  `__init__` requires
    this of the masks it is given; `from_bool` clears undefined rows itself.
    """

    def __init__(self, n_states, n_inputs, defined, masks):
        self.n_states = int(n_states)
        self.n_inputs = int(n_inputs)
        self.defined = np.asarray(defined, dtype=bool)
        self.masks = np.ascontiguousarray(masks, dtype=np.uint64)

    @classmethod
    def from_bool(cls, defined, allowed):
        defined = np.asarray(defined, dtype=bool)
        return cls(allowed.shape[0], allowed.shape[1], defined, _pack_bool(allowed & defined[:, None]))

    @property
    def words(self):
        return self.masks.shape[1]

    def allowed_indices(self, cell):
        row = _unpack_bool(self.masks[int(cell)][None, :], self.n_inputs)[0]
        return np.nonzero(row)[0]

    def allows(self, cell, u):
        return _has_bit(self.masks, cell, u)

    def domain(self) -> StateSet:
        return StateSet(self.defined.copy())

    def domain_size(self):
        return int(self.defined.sum())

    def blocking(self) -> StateSet:
        """Defined states whose allowed set is empty."""
        return StateSet(self.defined & _empty_rows(self.masks))

    def _check(self, other):
        if self.n_states != other.n_states or self.n_inputs != other.n_inputs:
            raise UniverseMismatch("controller tables over different universes")

    def copy(self):
        tab = copy.copy(self)
        tab.defined, tab.masks = self.defined.copy(), self.masks.copy()
        return tab

    def tile(self, k):
        """k copies of this table stacked, copy j's state x at row
        j * n_states + x, as `pair_hits` and `_narrow` take them."""
        tab = copy.copy(self)
        tab.n_states = k * self.n_states
        tab.defined, tab.masks = np.tile(self.defined, k), np.tile(self.masks, (k, 1))
        return tab


def controller_equal(c1: ControllerTable, c2: ControllerTable) -> bool:
    """True iff domains and every allowed set coincide."""
    c1._check(c2)
    return np.array_equal(c1.defined, c2.defined) and np.array_equal(c1.masks, c2.masks)


def is_sub_controller(sub: ControllerTable, sup: ControllerTable) -> bool:
    """Domain containment plus pointwise allowed-set containment."""
    sub._check(sup)
    if np.any(sub.defined & ~sup.defined):
        return False
    return not np.any(sub.masks & ~sup.masks)


def _check_universe(sys, s: StateSet):
    if s.n != sys.n_states:
        raise UniverseMismatch(f"set over {s.n} states, system has {sys.n_states}")


def universe_controller(sys) -> ControllerTable:
    """Every state defined, every input allowed that does not leave the grid:
    the abstraction's `stays`.  Each call returns a fresh table, because
    `_narrow` narrows the table it is given in place.
    """
    return ControllerTable(sys.n_states, sys.n_inputs, np.ones(sys.n_states, dtype=bool), sys.stays.copy())


def _narrow(sys, table: ControllerTable, removed, iteration_sizes=None, touched=None):
    """Greatest fixed point below `table` once the states `removed` (a
    boolean mask or ascending indices) leave its domain, in place: their rows
    are cleared, inputs with a successor outside the domain are cleared, and
    states left with no input leave it in turn.  A table of k * n_states
    rows is k independent copies of the states, each narrowed as alone
    (`pair_hits` answers for copies).

    The callers make sure that no allowed input is OUT or leads outside the
    domain except into `removed`.  Each sweep asks `sys.pair_hits` which
    inputs reach the states just removed, gathers the rows it names whole,
    clears the packed hits in them, scatters them back, and finds the emptied
    ones in the gathered block; on a boxed abstraction that test works from
    those states' region (the x-y columns next to their whole heading
    columns, and the predecessors of the rest), so a sweep's work scales
    with the removed region, not the grid.
    The removed states are an ascending index array, so no sweep touches a
    full-length array.  Hits need no narrowing to allowed inputs (clearing a
    clear bit does nothing), and a state leaves the domain with an empty row.

    `iteration_sizes` receives the domain size after the first removal and
    after every sweep; the sweep that removes nothing repeats the last size.
    `touched` receives the index arrays of every row written: `removed`,
    then each sweep's `rows`.  Outside them the table is as it was given.
    """
    d = table.defined
    allowed = _rows(table.masks)
    if removed.dtype == bool:
        removed = np.flatnonzero(removed)
    table.masks[removed] = 0
    d[removed] = False
    if touched is not None:
        touched.append(removed)
    if iteration_sizes is not None:
        size = int(np.count_nonzero(d))
        iteration_sizes.append(size)
    while removed.size:
        rows, hits = sys.pair_hits(removed, within=d)
        kept = allowed[rows].view(np.uint64)
        kept &= ~hits.reshape(-1)
        allowed[rows] = kept.view(allowed.dtype)
        removed = rows[_empty_rows(kept.reshape(hits.shape))]
        d[removed] = False
        if touched is not None:
            touched.append(rows)
        if iteration_sizes is not None:
            size -= removed.size
            iteration_sizes.append(size)
    return table


def safety_control(sys, spec: SafetySpec, iteration_sizes=None, warm_start=None) -> ControllerTable:
    """Maximally permissive safety controller of the abstraction.

    Iterates S <- CPre(S) & safe from the full state set down to the greatest
    fixed point, keeping exactly the inputs whose successors stay inside.
    OUT transitions count as leaving S.  The returned table is nonblocking on
    its domain (possibly empty).  `iteration_sizes` receives |S| after every
    step of the descent, the last one repeated once S stops shrinking.

    `warm_start` may name a previously computed table whose safe set contained
    this one's: iteration then starts from that table's fixed point instead of
    the universe.  The greatest fixed point is unchanged (it is contained in
    any such starting set and the update is monotone), only the descent is
    shorter.
    """
    _check_universe(sys, spec.safe)
    table = universe_controller(sys) if warm_start is None else warm_start.copy()
    # the start's unsafe states leave, and so do its states without an input
    return _narrow(sys, table, table.defined & ~spec.safe.mask | table.blocking().mask, iteration_sizes)


def product(c1: ControllerTable, c2: ControllerTable) -> ControllerTable:
    """Pointwise intersection of allowed sets on the intersection of domains.

    Blocking states (defined, empty intersection) are kept, not dropped.
    """
    c1._check(c2)
    return ControllerTable(c1.n_states, c1.n_inputs, c1.defined & c2.defined, c1.masks & c2.masks)


def largest_nonblocking(sys, table: ControllerTable) -> ControllerTable:
    """Largest sub-controller in which every domain state keeps some input.

    Greatest fixed point of D -> {x in D : some allowed input keeps all
    successors in D}, starting from the table's domain.
    """
    if table.n_states != sys.n_states or table.n_inputs != sys.n_inputs:
        raise UniverseMismatch("table does not match the system")
    table = table.copy()
    table.masks &= sys.stays
    return _narrow(sys, table, ~table.defined | table.blocking().mask)


def closure_holds(sys, table: ControllerTable) -> bool:
    """Check that every allowed input maps entirely into the table's domain."""
    rows, hits = sys.pair_hits(~table.defined)
    leaves = ~sys.stays
    leaves[rows] |= hits
    return not np.any(table.masks & leaves)
