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

The bank stores every atomic table against the base (the controller of the
safe sets' reference set) and one translated template: where the
abstraction does not change under flat shifts, atomics that forbid one shape
in different places have one table moved around, so a user of the template
keeps only the rows where its table differs from the base AND its moved
template.  The raw product ANDs the template into all active users at once,
block by block, and then the active atomics' exception rows.
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
    universe_controller,
)

logger = logging.getLogger(__name__)

NO_SHIFT = np.iinfo(np.int64).min    # the shift of an atomic that does not use the template
_REWRITE_ATOMICS = 64     # atomics rewritten against the template at once: bounds its temporaries
_STACK_BYTES = 1 << 20    # bound on the work table that narrows several atomics at once


@dataclass
class ShieldDecision:
    """Outcome of one shield query."""

    u: np.ndarray
    u_index: int
    intervened: bool


class Shield:
    """Composed safety controller plus the nearest-allowed-input override."""

    def __init__(self, table: ControllerTable, inputs):
        self.table = table
        self.inputs = inputs


class AtomicShieldBank:
    """One maximally permissive controller per atomic safe set.

    The safe sets are one `StateSets`, and every table is a sub-controller of
    the controller of their reference set, the base: every safe set lies
    inside that set, and safety games are monotone under shrinking safe sets.
    In the navigation bank the base is the fence atomic.  Besides the safe
    sets, a bank is stored in four parts:

    - the base;
    - one template: the rows `tpl_rows` (strictly ascending) and masks
      `tpl_masks` of one atomic's diff against the base;
    - one flat shift per atomic, or `NO_SHIFT`: atomic i with shift s is a
      sub-controller of the base AND the template moved to rows
      `tpl_rows + s`, and equals it outside its exception rows.  Atomics
      with a shift are the template's users; every shift is a multiple of
      the group size `group`, which divides the number of states;
    - the exception rows of all atomics concatenated: atomic i owns rows
      `ptr[i]:ptr[i + 1]` of `idx` (states, strictly ascending within each
      atomic) and `masks`, each its full table row.  They are where its
      table differs from the base AND its moved template, or from the base
      alone for an atomic without a shift.

    Away from the fence, column atomics forbid one shape in different places
    of a translation-invariant abstraction, so one template serves most of
    them.  A bank without such structure has no users and its exceptions are
    plain diffs against the base.  The base and the atomic tables are
    nonblocking on their domains, so a row is in the domain exactly when its
    mask is not empty; the states of the exception rows that leave it are
    `undefined[uptr[i]:uptr[i + 1]]`, and those of the template rows that
    leave it, unmoved, are `tpl_undefined`.  `derived` marks the atomics
    whose tables `synthesize_bank` derived instead of narrowing them (none,
    for a loaded bank).
    """

    def __init__(self, sys, safes: StateSets, base, tpl_rows, tpl_masks, group, shift, ptr, idx, masks):
        self.sys = sys
        self.safes = safes
        self.n_atomics = len(self.safes)
        self.base = base
        self.tpl_rows, self.tpl_masks, self.group = tpl_rows, tpl_masks, int(group)
        self.shift = shift
        self.on_template = shift != NO_SHIFT
        self.ptr = ptr
        self.idx = idx
        self.masks = masks
        self.derived = np.zeros(self.n_atomics, dtype=bool)
        # searching the empty rows' positions for the offsets makes no
        # full-length int64 temporary
        at = np.flatnonzero(_empty_rows(masks))
        self.undefined, self.uptr = idx[at], np.searchsorted(at, ptr)
        self.tpl_undefined = tpl_rows[_empty_rows(tpl_masks)]
        # the template as dense blocks of `group` consecutive states, all
        # inputs allowed on the states it has no row for; every shift is a
        # multiple of `group`, so a user's rows are the same blocks moved
        self.tpl_blocks, at = np.unique(tpl_rows // self.group, return_inverse=True)
        dense = np.full((self.tpl_blocks.size, self.group, base.words), ~np.uint64(0))
        dense[at, tpl_rows % self.group] = tpl_masks
        self.tpl_dense = dense.reshape(self.tpl_blocks.size, self.group * base.words)

    def table(self, i) -> ControllerTable:
        """Materialize the controller of one atomic: its template and
        exception rows are sub-rows of the base, so ANDing them in is the
        same as storing them."""
        return self.raw_product([i])

    def raw_product(self, active) -> ControllerTable:
        """Product of the active atomic controllers, blocking states kept.

        First the template, in whole blocks of `group` rows
        (`synthesis._rows` over blocks): per template block, one gather of
        that block of every active user, one AND with the block's masks and
        one scatter back.  Users with different shifts move a block to
        different blocks, and users with one shift write one result, so no
        AND is lost.  The template's undefined states, moved, leave the
        domain.  Then, per active atomic with exception rows, one gather, AND
        and scatter of those rows, and its undefined states leave the domain.
        All of these are sub-rows of the base, so rows only lose bits and
        only turn undefined."""
        ids = np.unique(np.asarray([int(i) for i in active], dtype=np.int64))
        if not ids.size:
            raise EmptyActiveSet("at least one atomic specification must be active")
        for i in (ids[0], ids[-1]):
            if i < 0 or i >= self.n_atomics:
                raise IndexError(f"atomic id {i} out of range")
        tab = self.base.copy()
        shift = self.shift[ids[self.on_template[ids]]]
        if shift.size:
            blocks = _rows(tab.masks.reshape(-1, self.tpl_dense.shape[1]))
            steps = shift // self.group
            for b, dense in zip(self.tpl_blocks.tolist(), self.tpl_dense):
                at = steps + b
                kept = blocks[at].view(np.uint64).reshape(at.size, -1)
                kept &= dense
                blocks[at] = kept.view(blocks.dtype).reshape(-1)
            tab.defined[(shift[:, None] + self.tpl_undefined).reshape(-1)] = False
        allowed = _rows(tab.masks)
        for i in ids[self.ptr[ids + 1] > self.ptr[ids]].tolist():
            a, b = self.ptr[i], self.ptr[i + 1]
            idx = self.idx[a:b]
            kept = allowed[idx].view(np.uint64)
            kept &= self.masks[a:b].reshape(-1)
            allowed[idx] = kept.view(allowed.dtype)
            tab.defined[self.undefined[self.uptr[i]:self.uptr[i + 1]]] = False
        return tab


def _translates(atomics: StateSets, t, rows, n):
    """Per atomic, the flat shift that moves atomic t's lacked states onto
    its own and keeps `rows` inside [0, n), or NO_SHIFT: translates lack as
    many states, at one constant distance."""
    shift = np.full(len(atomics), NO_SHIFT)
    lacks = atomics.idx[atomics.ptr[t]:atomics.ptr[t + 1]]
    if not lacks.size or not rows.size:
        return shift
    same = np.flatnonzero(np.diff(atomics.ptr) == lacks.size)
    d = atomics.idx[atomics.ptr[same, None] + np.arange(lacks.size)] - lacks
    s = d[:, 0]
    ok = np.all(d == s[:, None], axis=1) & (rows[0] + s >= 0) & (rows[-1] + s < n)
    shift[same[ok]] = s[ok]
    return shift


def synthesize_bank(sys, atomics, base_id=None) -> AtomicShieldBank:
    """Offline phase: one maximally permissive safety controller per atomic
    safe set.

    `atomics` is a nonempty `StateSets` or plain iterable of `StateSet`s (an
    empty one raises EmptyActiveSet); the sets are stored against the safe
    set of atomic `base_id` (negative ids count from the end, as in a list),
    or without one against a sequence's reference set or the full set.  The
    base is the controller of that reference set, so it is nonblocking.
    Every safe set must lie inside it (the encoding raises a ValueError
    naming the first atomic that leaves it before anything is synthesized),
    so every table is a sub-controller of the base.

    Translates of one atomic are derived first, without a narrowing of
    their own (`_derive`): where the abstraction is the same around two
    places, the product of the base and the moved controller of "avoid the
    other's states" is the table whenever it has no blocking state.  The
    other atomics are narrowed k at a time, in index order, on one work
    table that stacks k copies of the base (copy j's state x is row j * n +
    x): k is as many as fit `_STACK_BYTES`, at least one.  Each copy's
    unsafe states leave its domain, and one `_narrow` run narrows every copy
    as if it were alone, from the base's fixed point (shorter descent, same
    result), recording the rows it writes.  The rows among those whose masks
    differ from the base's are the copies' diffs, and copying them back from
    the base restores the work table.  A run costs in proportion to the rows
    it touches, not to the grid, and only the base and the work table are
    alive; stacking shares the fixed cost of each `pair_hits` call among k
    small atomics.  Progress goes to this module's logger: one DEBUG record
    per atomic, in index order, whose `atomic`, `atomics`, `diff_rows` and
    `derived` attributes give its index, the total, its diff size and
    whether it was derived.  The bank's `derived` says the same per atomic.

    Once every diff is known, they are rewritten against one template, many
    atomics at a time (`_against_template`).  The template is the diff of
    the middle atomic, by index, among those with the most common diff
    size.  An atomic whose lacked states are those of the template's atomic
    moved by one flat shift, with the moved template rows on the grid, uses
    the template when its table lies below the base AND the moved template
    on the moved rows.  Its exception rows are its diff rows off the moved
    template, the moved rows where its mask differs from that AND, and the
    moved rows in the base's domain that the AND leaves empty but the
    template does not (there its table is undefined).  Every other atomic's
    exceptions are its diff, and a template with fewer than two users is
    dropped.  The tables themselves do not depend on the template, nor on
    which atomics were derived.
    """
    if not isinstance(atomics, StateSets):
        atomics = list(atomics)
    if not len(atomics):
        raise EmptyActiveSet("a bank needs at least one atomic safe set")
    if isinstance(atomics, list):
        atomics = StateSets.encode(atomics, StateSet.full(sys.n_states) if base_id is None else atomics[base_id])
    elif base_id is not None:
        base_id = range(len(atomics))[base_id]
        if atomics.ptr[base_id] < atomics.ptr[base_id + 1]:
            # the base atomic lacks states of the reference: encoding against
            # its set checks every set against it
            atomics = StateSets.encode(atomics, atomics[base_id])
    base = safety_control(sys, SafetySpec(StateSet(atomics.ref)))
    n, words = base.masks.shape
    diffs = [None] * len(atomics)
    derived = _derive(sys, base, atomics, diffs)
    todo = np.flatnonzero(~derived)
    k = max(1, min(todo.size, _STACK_BYTES // (n * (8 * words + 1))))
    work = base.tile(k)
    base_rows, work_rows = _rows(base.masks), _rows(work.masks)
    reported = 0

    def report(stop):
        # one record per atomic, in index order, up to `stop`
        nonlocal reported
        for i in range(reported, stop):
            logger.debug("atomic %d of %d: %d diff rows", i, len(atomics), len(diffs[i][0]),
                         extra={"atomic": i, "atomics": len(atomics), "diff_rows": len(diffs[i][0]),
                                "derived": bool(derived[i])})
        reported = stop

    def narrow_stack(ids):
        # copy j loses atomic ids[j]'s lacked states in the base's domain,
        # ascending because each atomic's are; the copies of a short last
        # stack past its atomics lose nothing and stay as they are
        lacks = [atomics.idx[atomics.ptr[i]:atomics.ptr[i + 1]] for i in ids.tolist()]
        at = np.repeat(np.arange(ids.size) * n, [a.size for a in lacks])
        lacks = np.concatenate(lacks)
        touched = []
        _narrow(sys, work, (lacks + at)[base.defined[lacks]], touched=touched)
        rows = _written(touched)
        states = rows % n
        now, was = work_rows[rows], base_rows[states]
        # both tables are nonblocking, so a row's mask also gives its domain bit
        changed = now != was
        rows, states, now, was = rows[changed], states[changed], now[changed], was[changed]
        work_rows[rows], work.defined[rows] = was, base.defined[states]
        now = now.view(np.uint64).reshape(len(rows), words)
        wider = now & ~was.view(np.uint64).reshape(len(rows), words)
        bad = ids[rows[np.flatnonzero(wider.any(axis=1))[0]] // n] if wider.any() else -1
        cut = np.searchsorted(rows, np.arange(ids.size + 1) * n).tolist()
        for j, i in enumerate(ids.tolist()):
            if i == bad:
                report(i)
                raise ValueError(f"atomic {i} is not a sub-controller of the base; delta storage is invalid")
            diffs[i] = (states[cut[j]:cut[j + 1]], now[cut[j]:cut[j + 1]])
            report(i + 1)

    for a in range(0, todo.size, k):
        narrow_stack(todo[a:a + k])
    report(len(atomics))
    del work
    ptr = np.cumsum([0] + [len(rows) for rows, _ in diffs], dtype=np.int64)
    idx, masks = (np.concatenate(parts) for parts in zip(*diffs))
    del diffs
    bank = AtomicShieldBank(sys, atomics, base, *_against_template(base, atomics, ptr, idx, masks))
    bank.derived[:] = derived
    return bank


def _written(touched):
    """The rows `_narrow` reported writing, ascending, each once: several
    sweeps can write one row."""
    rows = np.sort(np.concatenate(touched))
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return rows[first]


def _derive(sys, base, atomics: StateSets, diffs):
    """Per atomic, whether its table was derived from one narrowing of
    another atomic's states; fills in `diffs[i]`, as (rows, masks), for the
    derived ones.

    The maximal controller of an intersection of safe sets is the largest
    nonblocking sub-controller of the product of their maximal controllers,
    so a product with no blocking state is already the table.  Atomic t, of
    the most common nonzero lacked-set size, with its lacked states
    farthest from the grid's x-y faces, gives D_t: the universe controller
    narrowed from t's lacked states alone ("avoid them", without the base's
    fence), which differs from the universe only on the rows R that the run
    writes.  An atomic j whose lacked states are t's moved by a flat shift
    s (`_translates`), where the abstraction around R moves alike
    (`sys.moves_alike`), has D_j equal to D_t moved by s, so its product
    with the base differs from the base only on R + s.  Where none of those
    rows is defined in both and empty, the product is closed and
    nonblocking, so it is atomic j's table, and its diff is the rows of R +
    s where it differs from the base.  The products are formed
    `_REWRITE_ATOMICS` atomics at a time."""
    derived = np.zeros(len(atomics), dtype=bool)
    sizes = np.diff(atomics.ptr)
    values, counts = np.unique(sizes[sizes > 0], return_counts=True)
    if not values.size:
        return derived
    size = values[np.argmax(counts)]
    common = np.flatnonzero(sizes == size)
    far = sys.face_distance(atomics.idx[atomics.ptr[common, None] + np.arange(size)]).min(axis=1)
    t = int(common[np.argmax(far)])
    lacks = atomics.idx[atomics.ptr[t]:atomics.ptr[t + 1]]
    shift = _translates(atomics, t, lacks, base.n_states)
    users = np.flatnonzero(shift != NO_SHIFT)
    # R holds t's lacked states: users whose move fails for them fail for R
    users = users[sys.moves_alike(lacks, lacks[0], lacks[0] + shift[users])]
    if not users.size:
        return derived
    d_t = universe_controller(sys)
    touched = []
    _narrow(sys, d_t, lacks, touched=touched)
    rows = _written(touched)
    users = users[sys.moves_alike(rows, lacks[0], lacks[0] + shift[users])]
    m, words = rows.size, base.words
    base_rows, avoid, kept = _rows(base.masks), d_t.masks[rows], d_t.defined[rows]
    for a in range(0, users.size, _REWRITE_ATOMICS):
        ids = users[a:a + _REWRITE_ATOMICS]
        moved = (rows + shift[ids, None]).reshape(-1)
        was = base_rows[moved].view(np.uint64).reshape(ids.size, m, words)
        now = (was & avoid).reshape(-1, words)
        was = was.reshape(-1, words)
        # the product blocks where the base and D_t are defined and their AND is empty
        blocks = (_empty_rows(now) & ~_empty_rows(was)).reshape(ids.size, m) & kept
        ok = ~blocks.any(axis=1)
        # the diffs of the derived atomics, concatenated in order
        changed = (_rows(now) != _rows(was)).reshape(ids.size, m) & ok[:, None]
        cut = np.cumsum(np.concatenate([[0], changed.sum(axis=1)])).tolist()
        at = np.flatnonzero(changed)
        moved, now = moved[at], _rows(now)[at].view(np.uint64).reshape(-1, words)
        for j, i in enumerate(ids.tolist()):
            if ok[j]:
                diffs[i] = (moved[cut[j]:cut[j + 1]], now[cut[j]:cut[j + 1]])
        derived[ids[ok]] = True
    return derived


def _against_template(base, atomics: StateSets, ptr, idx, masks):
    """The diffs `ptr`, `idx`, `masks` of a bank's atomics, rewritten as its
    template rows and masks, group size, shifts and exception rows (see
    `synthesize_bank`), `_REWRITE_ATOMICS` atomics at a time."""
    n = base.masks.shape[0]
    sizes = np.diff(ptr)
    values, counts = np.unique(sizes, return_counts=True)
    common = np.flatnonzero(sizes == values[np.argmax(counts)])
    t = int(common[common.size // 2])
    tpl_rows, tpl_masks = idx[ptr[t]:ptr[t + 1]].copy(), masks[ptr[t]:ptr[t + 1]].copy()
    shift = _translates(atomics, t, tpl_rows, n)
    parts = []
    if np.count_nonzero(shift != NO_SHIFT) >= 2:
        parts = [_exceptions(base, tpl_rows, tpl_masks, shift[a:a + _REWRITE_ATOMICS],
                             ptr[a:a + _REWRITE_ATOMICS + 1], idx, masks)
                 for a in range(0, len(atomics), _REWRITE_ATOMICS)]
    users = shift[shift != NO_SHIFT]
    if users.size < 2:
        return tpl_rows[:0], tpl_masks[:0], 1, np.full(len(atomics), NO_SHIFT), ptr, idx, masks
    counts, idx, masks = (np.concatenate(p) for p in zip(*parts))
    group = int(np.gcd.reduce(np.concatenate([[n], users])))
    return tpl_rows, tpl_masks, group, shift, np.cumsum(np.concatenate([[0], counts])), idx, masks


def _exceptions(base, tpl_rows, tpl_masks, shift, ptr, idx, masks):
    """Exception rows of the atomics whose diffs are `idx[ptr[0]:ptr[-1]]`
    with masks, as (per atomic count, rows, masks), for all of them at once:
    each user's table on its moved template rows is the base there
    overwritten by its diff rows.  Users whose table is not below the base
    AND their moved template get NO_SHIFT in `shift`, in place."""
    n, words = base.masks.shape
    sizes = np.diff(ptr)
    idx, masks = idx[ptr[0]:ptr[-1]], masks[ptr[0]:ptr[-1]]
    users = np.flatnonzero(shift != NO_SHIFT)
    m = tpl_rows.size
    moved = (tpl_rows + shift[users, None]).reshape(-1)
    table = _rows(base.masks)[moved].view(np.uint64).reshape(-1, words)
    want = (table.reshape(users.size, m, words) & tpl_masks).reshape(-1, words)
    # rows of the base's domain that the AND empties although the template
    # row is not empty: the table has them undefined, which only an
    # exception row can say
    hollow = _empty_rows(want) & np.tile(~_empty_rows(tpl_masks), users.size) & base.defined[moved]
    # each diff row of a user, moved back by its shift, at its position
    # among the template rows (n stands for none)
    pos = np.full(n + 1, -1)
    pos[tpl_rows] = np.arange(m)
    back = idx - np.repeat(np.where(shift != NO_SHIFT, shift, n), sizes)
    back[(back < 0) | (back >= n)] = n
    at = pos[back]
    on = np.flatnonzero(at >= 0)
    user = np.full(shift.size, -1)
    user[users] = np.arange(users.size)
    _rows(table)[np.repeat(user, sizes)[on] * m + at[on]] = _rows(masks)[on]
    # a table above the base AND its moved template cannot use it
    want ^= table
    off = ~_empty_rows(want) | hollow
    want &= table
    kept = ~np.any(want.reshape(users.size, m * words), axis=1)
    shift[users[~kept]] = NO_SHIFT
    # exceptions: diff rows off the moved template, and moved rows where the
    # table differs from the AND or is undefined while the AND is not
    plain = np.flatnonzero(np.repeat(shift == NO_SHIFT, sizes) | (at < 0))
    off = np.flatnonzero(off & np.repeat(kept, m))
    owner = np.concatenate([np.repeat(np.arange(shift.size), sizes)[plain], users[off // m]])
    idx = np.concatenate([idx[plain], moved[off]])
    # both parts are ascending by atomic, then state: the sort merges them
    order = np.argsort(owner * n + idx, kind="stable")
    masks = np.concatenate([_rows(masks)[plain], _rows(table)[off]])[order]
    return np.bincount(owner, minlength=shift.size), idx[order], masks.view(np.uint64).reshape(-1, words)


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
    there the safety guarantee is void and the caller owns the failsafe.  A
    cell outside [0, n_states) is outside it too, and named as such.
    """
    cell = int(cell)
    table = shield.table
    if not 0 <= cell < table.n_states:
        raise DomainViolation(f"cell {cell} is not one of the shield's {table.n_states} states")
    if not table.defined[cell]:
        raise DomainViolation(f"cell {cell} is outside the shield domain")
    proposed = np.asarray(proposed, dtype=np.float64)
    snapped = shield.inputs.nearest(proposed)
    if table.allows(cell, snapped):
        return ShieldDecision(shield.inputs[snapped], snapped, intervened=False)
    allowed = table.allowed_indices(cell)
    if allowed.size == 0:
        raise DomainViolation(f"cell {cell} has no allowed inputs (blocking state)")
    d2 = ((shield.inputs.points[allowed] - proposed) ** 2).sum(axis=1)
    pick = int(allowed[int(np.argmin(d2))])
    return ShieldDecision(shield.inputs[pick], pick, intervened=True)


# -- serialization ------------------------------------------------------------

_BANK_DTYPES = {
    "safe_ref": np.uint8, "safe_ptr": np.int64, "safe_idx": np.int64, "base_masks": np.uint64,
    "tpl_rows": np.int64, "tpl_masks": np.uint64, "tpl_group": np.int64, "shift": np.int64,
    "exc_ptr": np.int64, "exc_idx": np.int64, "exc_masks": np.uint64,
}


def save_bank(bank: AtomicShieldBank, path):
    """Write the safe sets (reference set plus the states each lacks), the
    base, the template with its group size, the shifts and the concatenated
    exception rows, keyed by the abstraction's content hash; bit arrays are
    packed."""
    write_artifact(path, "bank", bank.sys.content_hash, {
        "safe_ref": np.packbits(bank.safes.ref),
        "safe_ptr": bank.safes.ptr,
        "safe_idx": bank.safes.idx,
        "base_masks": bank.base.masks,
        "tpl_rows": bank.tpl_rows,
        "tpl_masks": bank.tpl_masks,
        "tpl_group": np.int64(bank.group),
        "shift": bank.shift,
        "exc_ptr": bank.ptr,
        "exc_idx": bank.idx,
        "exc_masks": bank.masks,
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
    ptr, idx, tpl_rows = a["exc_ptr"], a["exc_idx"], a["tpl_rows"]
    n_atomics, k = ptr.size - 1, idx.size
    shapes = {"safe_ref": ((n + 7) // 8,), "safe_ptr": (n_atomics + 1,), "safe_idx": (a["safe_idx"].size,),
              "base_masks": (n, words), "tpl_rows": (tpl_rows.size,), "tpl_masks": (tpl_rows.size, words),
              "tpl_group": (), "shift": (n_atomics,), "exc_ptr": (n_atomics + 1,), "exc_idx": (k,),
              "exc_masks": (k, words)}
    for name, shape in shapes.items():
        if a[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {a[name].shape}, expected {shape}")
    if n_atomics < 1:
        raise ValueError(f"{path}: no atomics")
    # a repeated row would keep only its last mask in the product
    _check_segments(path, "exception rows", ptr, idx, n)
    _check_segments(path, "template rows", np.array([0, tpl_rows.size]), tpl_rows, n)
    _check_segments(path, "lacked safe states", a["safe_ptr"], a["safe_idx"], n)
    group = int(a["tpl_group"])
    if group < 1 or n % group:
        raise ValueError(f"{path}: template group size {group} does not divide {n} states")
    # numpy wraps negative indices, so a moved template row must be checked
    # to stay on the grid, in Python integers, which do not overflow
    shift = a["shift"][a["shift"] != NO_SHIFT]
    if shift.size and tpl_rows.size and (int(tpl_rows[0]) + int(shift.min()) < 0
                                         or int(tpl_rows[-1]) + int(shift.max()) >= n):
        raise ValueError(f"{path}: a template shift moves rows outside [0, {n})")
    if np.any(shift % group):
        raise ValueError(f"{path}: a template shift is not a multiple of the group size {group}")
    safe_ref = np.unpackbits(a["safe_ref"], count=n).view(bool)
    if not np.all(safe_ref[a["safe_idx"]]):
        raise ValueError(f"{path}: a safe set lacks a state outside the reference set")
    # the base is nonblocking: its domain is its rows with an input, so its
    # undefined rows are clear
    base = ControllerTable(n, sys.n_inputs, ~_empty_rows(a["base_masks"]), a["base_masks"])
    bank = AtomicShieldBank(sys, StateSets(safe_ref, a["safe_ptr"], a["safe_idx"]), base, tpl_rows,
                            a["tpl_masks"], group, a["shift"], ptr, idx, a["exc_masks"])
    for i in np.random.default_rng().choice(n_atomics, size=min(spot_check, n_atomics), replace=False):
        fresh = safety_control(sys, SafetySpec(bank.safes[int(i)]))
        if not controller_equal(fresh, bank.table(int(i))):
            raise AbstractionMismatch(f"stored table {int(i)} does not match fresh synthesis")
    return bank
