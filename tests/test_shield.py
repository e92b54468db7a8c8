import logging

import numpy as np
import pytest

from parashield.abstraction import ExplicitAbstraction, GridSpec, InputGrid, build_abstraction
from parashield.bench import (
    GRID_PRESETS,
    brute_force_safety_controller,
    preset_config,
    random_state_set,
    random_system,
    table_matches_brute,
)
from parashield.errors import AbstractionMismatch, DomainViolation, EmptyActiveSet
from parashield.shield import (
    NO_SHIFT,
    AtomicShieldBank,
    Shield,
    compose,
    load_bank,
    pure_online_shield,
    save_bank,
    shield_apply,
    synthesize_bank,
)
from parashield.synthesis import (
    ControllerTable,
    SafetySpec,
    StateSet,
    StateSets,
    _narrow,
    _rows,
    _unpack_bool,
    closure_holds,
    controller_equal,
    safety_control,
    universe_controller,
)


def neighbour_system(rng, n, m, n_near=3):
    """Random system in which every pair moves to two of its state's
    `n_near` neighbours."""
    near = rng.integers(0, n, size=(n, n_near))
    succ = np.sort(near[np.arange(n)[:, None, None], rng.integers(0, n_near, size=(n, m, 2))], axis=2)
    return ExplicitAbstraction(n, m, np.arange(0, 2 * n * m + 1, 2), succ.reshape(-1), np.zeros(n * m, dtype=bool))


def line_system(rng, n, m, n_odd):
    """States on a line: input u moves by a random range of offsets, OUT past
    either end, except `n_odd` random pairs that move to random states."""
    lo = rng.integers(-2, 2, size=m)
    hi = lo + rng.integers(0, 2, size=m)
    post, out = {}, []
    for x in range(n):
        for u in range(m):
            if x + lo[u] < 0 or x + hi[u] >= n:
                out.append((x, u))
            else:
                post[(x, u)] = range(x + lo[u], x + hi[u] + 1)
    for x, u in zip(rng.integers(0, n, size=n_odd), rng.integers(0, m, size=n_odd)):
        if (x, u) in post:
            post[(x, u)] = rng.integers(0, n, size=2).tolist()
    return ExplicitAbstraction.from_map(n, m, post, out)


def bank_diffs(bank):
    """Each atomic's (rows, masks) where its table differs from the base."""
    diffs = []
    for i in range(bank.n_atomics):
        masks = bank.table(i).masks
        rows = np.flatnonzero(_rows(masks) != _rows(bank.base.masks))
        diffs.append((rows, masks[rows]))
    return diffs


def stored(bank):
    """Everything a bank stores after its base: template, group size, shifts
    and exception rows."""
    return bank.tpl_rows, bank.tpl_masks, bank.group, bank.shift, bank.ptr, bank.idx, bank.masks


def no_template(n_atomics, words):
    """Template, group size and shifts of a bank without template users."""
    return np.zeros(0, np.int64), np.zeros((0, words), np.uint64), 1, np.full(n_atomics, NO_SHIFT)


def assert_same_diff(d1, d2):
    for x, y in zip(d1, d2):
        assert np.array_equal(x, y)


@pytest.fixture
def automaton7_bank(automaton7):
    sysm, g, h = automaton7
    return synthesize_bank(sysm, [g, h])


class TestSynthesizeBank:
    def test_automaton7_bank_tables(self, automaton7, automaton7_bank):
        sysm, g, h = automaton7
        assert controller_equal(automaton7_bank.table(0), safety_control(sysm, SafetySpec(g)))
        assert controller_equal(automaton7_bank.table(1), safety_control(sysm, SafetySpec(h)))

    def test_universe_atomic_is_all_permissive(self, automaton7):
        sysm, _, _ = automaton7
        bank = synthesize_bank(sysm, [StateSet.full(7)])
        t = bank.table(0)
        assert t.domain_size() == 7
        assert all(len(t.allowed_indices(x)) == 2 for x in range(7))

    def test_delta_storage_matches_dense(self, rng):
        # diffs against the controller of the full set and against a base
        # atomic both reproduce cold synthesis of every atomic
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.95)
        atomics = [base] + [base & random_state_set(rng, sysm.n_states) for _ in range(4)]
        full = synthesize_bank(sysm, atomics)
        fence = synthesize_bank(sysm, atomics, base_id=0)
        assert controller_equal(full.base, safety_control(sysm, SafetySpec(StateSet.full(sysm.n_states))))
        assert controller_equal(fence.base, safety_control(sysm, SafetySpec(base)))
        for i in range(len(atomics)):
            cold = safety_control(sysm, SafetySpec(atomics[i]))
            assert controller_equal(full.table(i), cold)
            assert controller_equal(fence.table(i), cold)

    def test_diffs_do_not_depend_on_atomic_order(self, rng):
        # every atomic is synthesized on one work copy of the base; a row it
        # left unrestored would change the diffs of the atomics after it
        for trial in range(20):
            sysm = random_system(rng, max_states=40)
            n = sysm.n_states
            base = random_state_set(rng, n, density=0.95)
            # the base's own safe set (empty diff) and one removing every state
            atomics = [base, StateSet(base.mask.copy()), StateSet.empty(n)]
            if trial % 2:
                base_id = None
                atomics += [random_state_set(rng, n) for _ in range(5)]
            else:
                base_id = 0
                atomics += [base & random_state_set(rng, n) for _ in range(5)]
            bank = synthesize_bank(sysm, atomics, base_id=base_id)
            order = rng.permutation(len(atomics))
            other = synthesize_bank(sysm, [atomics[i] for i in order],
                                    base_id=None if base_id is None else int(np.flatnonzero(order == 0)[0]))
            assert controller_equal(bank.base, other.base)
            # the base is the controller of the reference set, never blocking
            ref = StateSet.full(n) if base_id is None else base
            assert controller_equal(bank.base, safety_control(sysm, SafetySpec(ref)))
            assert len(bank.base.blocking()) == 0
            diffs = bank_diffs(bank)
            for k, d in enumerate(bank_diffs(other)):
                assert_same_diff(diffs[order[k]], d)
            if base_id == 0:
                assert len(diffs[0][0]) == len(diffs[1][0]) == 0
            rows, masks = diffs[2]
            assert np.array_equal(rows, np.flatnonzero(bank.base.defined))
            assert not np.any(masks)
            # no other atomic lacks as many states, so atomic 2 stores its
            # diff as exception rows
            assert not bank.on_template[2]
            assert np.array_equal(bank.idx[bank.ptr[2]:bank.ptr[3]], rows)
            assert np.array_equal(bank.undefined[bank.uptr[2]:bank.uptr[3]], rows)
            for i in range(len(atomics)):
                assert controller_equal(bank.table(i), safety_control(sysm, SafetySpec(atomics[i])))

    def test_coarse_diffs_do_not_depend_on_atomic_order(self, coarse_rt, rng):
        full = bank_diffs(coarse_rt.bank)
        ids = [0] + sorted(int(i) for i in rng.choice(np.arange(1, len(full)), size=24, replace=False))
        order = rng.permutation(len(ids))
        bank = synthesize_bank(coarse_rt.sys, [coarse_rt.bank.safes[ids[k]] for k in order],
                               base_id=int(np.flatnonzero(order == 0)[0]))
        assert controller_equal(bank.base, coarse_rt.bank.base)
        for k, d in enumerate(bank_diffs(bank)):
            assert_same_diff(full[ids[order[k]]], d)

    def test_plain_list_stores_the_same_sets_and_tables(self, coarse_rt):
        # a list is stored against the base atomic's safe set, which is the
        # reference `make_atomics` stores its sequence against
        atomics = coarse_rt.bank.safes
        from_list = synthesize_bank(coarse_rt.sys, [atomics[i] for i in range(len(atomics))], base_id=0)
        from_seq = synthesize_bank(coarse_rt.sys, atomics, base_id=0)
        assert from_seq.safes is atomics
        assert isinstance(from_list.safes, StateSets) and from_list.n_atomics == len(atomics)
        for name in ("ref", "ptr", "idx"):
            assert np.array_equal(getattr(from_list.safes, name), getattr(atomics, name))
        assert controller_equal(from_list.base, from_seq.base)
        for x, y in zip(stored(from_list), stored(from_seq)):
            assert np.array_equal(x, y)
        for i in range(len(atomics)):
            assert from_list.safes[i] == atomics[i]
            assert controller_equal(from_list.table(i), from_seq.table(i))

    def test_a_sequence_is_checked_against_its_base_atomic(self, rng):
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.8)
        base.mask[0] = False
        inside = base & random_state_set(rng, sysm.n_states)
        seq = StateSets.encode([StateSet.full(sysm.n_states), base, inside], StateSet.full(sysm.n_states))
        with pytest.raises(ValueError, match="atomic 0"):
            synthesize_bank(sysm, seq, base_id=1)
        bank = synthesize_bank(sysm, StateSets.encode([base, inside], StateSet.full(sysm.n_states)), base_id=0)
        assert np.array_equal(bank.safes.ref, base.mask)
        assert bank.safes[1] == inside
        assert controller_equal(bank.table(1), safety_control(sysm, SafetySpec(inside)))

    def test_translated_atomics_share_a_template(self, rng):
        # atomic k > 0 lacks states 2k - 2 and 2k - 1 of a line whose moves
        # are the same everywhere but at the ends and at a few odd pairs: the
        # atomics are flat translates, and near the ends and the odd pairs a
        # table is no sub-controller of the base AND the moved template
        refused = 0
        for _ in range(10):
            n = 60
            sysm = line_system(rng, n, 5, 6)
            atomics = [StateSet.full(n)] + [StateSet(np.arange(n) // 2 != k) for k in range(n // 2)]
            bank = synthesize_bank(sysm, atomics)
            # an explicit system is never known to move alike
            assert not bank.derived.any()
            (t,) = np.flatnonzero(bank.shift == 0)
            assert bank.group == 2 and bank.tpl_rows.size and bank.on_template.sum() >= 2
            assert bank.ptr[t + 1] == bank.ptr[t]
            shift = 2 * (np.arange(len(atomics)) - t)
            moved = (bank.tpl_rows[0] + shift >= 0) & (bank.tpl_rows[-1] + shift < n)
            moved[0] = False
            assert np.array_equal(bank.shift[bank.on_template], shift[bank.on_template])
            assert not np.any(bank.on_template & ~moved)
            refused += np.count_nonzero(moved & ~bank.on_template)
            for i in range(len(atomics)):
                assert controller_equal(bank.table(i), safety_control(sysm, SafetySpec(atomics[i])))
        assert refused > 0

    @pytest.mark.parametrize("preset", ["coarse", "medium"])
    def test_every_table_equals_warm_synthesis(self, preset, request):
        rt = request.getfixturevalue(f"{preset}_rt")
        bank = rt.bank
        # every column atomic uses the template, in blocks of one x-y column
        assert np.count_nonzero(bank.on_template) == bank.n_atomics - 1
        assert bank.group == rt.cfg.grid.shape[2] and bank.tpl_undefined.size
        base = bank.table(0)
        for i in range(bank.n_atomics):
            assert controller_equal(bank.table(i), safety_control(rt.sys, SafetySpec(bank.safes[i]), warm_start=base))

    def test_logs_one_record_per_atomic(self, rng, caplog):
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.95)
        atomics = [base] + [base & random_state_set(rng, sysm.n_states) for _ in range(4)]
        with caplog.at_level(logging.DEBUG, logger="parashield.shield"):
            bank = synthesize_bank(sysm, atomics, base_id=0)
        records = [r for r in caplog.records if r.name == "parashield.shield"]
        assert [r.atomic for r in records] == list(range(len(atomics)))
        assert all(r.levelno == logging.DEBUG and r.atomics == len(atomics) for r in records)
        assert [r.diff_rows for r in records] == [len(rows) for rows, _ in bank_diffs(bank)]
        assert [r.derived for r in records] == [False] * len(atomics) == bank.derived.tolist()

    @pytest.fixture
    def no_synthesis(self, monkeypatch):
        import parashield.shield as shield_mod

        def refuse(*args, **kwargs):
            raise AssertionError("nothing is synthesized for a refused bank")

        monkeypatch.setattr(shield_mod, "safety_control", refuse)
        monkeypatch.setattr(shield_mod, "_narrow", refuse)

    def test_safe_set_outside_the_base_is_refused_before_synthesis(self, rng, no_synthesis):
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.8)
        outside = base.mask.copy()
        outside[np.flatnonzero(~base.mask)[0]] = True
        atomics = [base, base & random_state_set(rng, sysm.n_states), StateSet(outside)]
        with pytest.raises(ValueError, match="atomic 2"):
            synthesize_bank(sysm, atomics, base_id=0)

    def test_delta_requires_sub_controllers(self, automaton7, no_synthesis):
        sysm, g, h = automaton7
        # the other atomic's safe set leaves the base's (the intersection),
        # so its controller need not be below the base's; it is refused
        # before anything is synthesized
        with pytest.raises(ValueError, match="atomic 1"):
            synthesize_bank(sysm, [g & h, g], base_id=0)

    @pytest.mark.parametrize("base_id", [None, 0])
    def test_empty_bank_is_refused_before_synthesis(self, automaton7, no_synthesis, base_id):
        sysm = automaton7[0]
        empty = StateSets.encode([], StateSet.full(sysm.n_states))
        for atomics in ([], empty):
            with pytest.raises(EmptyActiveSet, match="at least one atomic"):
                synthesize_bank(sysm, atomics, base_id=base_id)

    def test_negative_and_out_of_range_base_id_as_for_a_list(self, rng):
        # `base_id` counts from the end when negative, for a sequence as for
        # a list; past either end it names no atomic
        sysm = random_system(rng, max_states=40)
        n = sysm.n_states
        full = StateSet.full(n)
        base = random_state_set(rng, n, density=0.8)
        base.mask[0] = False
        a, b = base & random_state_set(rng, n), base & random_state_set(rng, n)
        banks = []
        for form in ([a, b, base], StateSets.encode([a, b, base], full)):
            banks.append(synthesize_bank(sysm, form, base_id=-1))
            assert np.array_equal(banks[-1].safes.ref, base.mask)
        assert controller_equal(banks[0].base, banks[1].base)
        for x, y in zip(stored(banks[0]), stored(banks[1])):
            assert np.array_equal(x, y)
        for i, s in enumerate([a, b, base]):
            assert controller_equal(banks[1].table(i), safety_control(sysm, SafetySpec(s)))
        for form in ([full, b, a], StateSets.encode([full, b, a], full)):
            with pytest.raises(ValueError, match="atomic 0's safe set leaves the reference set"):
                synthesize_bank(sysm, form, base_id=-1)
            for base_id in (-4, 3):
                with pytest.raises(IndexError):
                    synthesize_bank(sysm, form, base_id=base_id)


def stack_bytes(sysm, k):
    """The `_STACK_BYTES` at which bank synthesis on `sysm` narrows k atomics at once."""
    return k * sysm.n_states * (8 * ((sysm.n_inputs + 63) // 64) + 1)


def stacked_synthesis(monkeypatch, caplog, sysm, atomics, k, narrow=None):
    """Bank synthesis with base_id 0 narrowing k atomics at once (None: as
    many as `_STACK_BYTES` gives), as (bank, DEBUG records as (atomic,
    atomics, diff_rows, derived), the row count of every `_narrow` run's
    table); a ValueError it raises stands in for the bank.  `narrow`
    replaces `_narrow` in the module."""
    import parashield.shield as shield_mod
    with monkeypatch.context() as patch:
        if k is not None:
            patch.setattr(shield_mod, "_STACK_BYTES", stack_bytes(sysm, k))
        runs = []

        def counted(sys, table, removed, **kwargs):
            runs.append(table.n_states)
            return (narrow or _narrow)(sys, table, removed, **kwargs)

        patch.setattr(shield_mod, "_narrow", counted)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="parashield.shield"):
            try:
                bank = synthesize_bank(sysm, atomics, base_id=0)
            except ValueError as err:
                bank = err
    records = [(r.atomic, r.atomics, r.diff_rows, r.derived) for r in caplog.records if r.name == "parashield.shield"]
    return bank, records, runs


class TestStackedBankSynthesis:
    """Narrowing several atomics at once on one stacked work table gives
    the bank, the progress records and the errors of narrowing them one at
    a time, whatever the stack size and however short the last stack.  The
    records cover the derived atomics too, in index order."""

    @staticmethod
    def _check_sizes(sysm, atomics, monkeypatch, caplog, default_k, template_run):
        n = sysm.n_states
        one, records, runs = stacked_synthesis(monkeypatch, caplog, sysm, atomics, 1)
        narrowed = sum(not r[3] for r in records)
        # on a boxed abstraction one run narrows the universe from the
        # template atomic's states first; the others narrow atomics
        lead = [n] if template_run else []
        assert runs == lead + [n] * narrowed
        assert [r[0] for r in records] == list(range(7)) and all(r[1] == 7 for r in records)
        assert [r[2] for r in records] == [len(rows) for rows, _ in bank_diffs(one)]
        assert [r[3] for r in records] == one.derived.tolist()
        # the narrowed atomics leave the last stack of two or three short;
        # it runs on the whole work table
        for k, patched in ((2, 2), (3, 3), (default_k, None)):
            bank, got, runs = stacked_synthesis(monkeypatch, caplog, sysm, atomics, patched)
            assert runs == lead + [k * n] * -(-narrowed // k)
            assert got == records
            assert controller_equal(bank.base, one.base)
            for x, y in zip(stored(bank), stored(one)):
                assert np.array_equal(x, y)
        return records

    def test_coarse_bank_does_not_depend_on_stack_size(self, coarse_rt, rng, monkeypatch, caplog):
        # two atomics that the whole coarse bank derives and four that it
        # narrows: these four and the fence are narrowed four at a time, as
        # the coarse preset stacks them of its own accord
        bank = coarse_rt.bank
        derived, narrowed = np.flatnonzero(bank.derived), np.flatnonzero(~bank.derived)[1:]
        ids = [0] + sorted(int(i) for i in np.concatenate([rng.choice(derived, size=2, replace=False),
                                                          rng.choice(narrowed, size=4, replace=False)]))
        atomics = [bank.safes[i] for i in ids]
        records = self._check_sizes(coarse_rt.sys, atomics, monkeypatch, caplog, 4, True)
        assert [r[3] for r in records] == bank.derived[ids].tolist()
        bank, _, _ = stacked_synthesis(monkeypatch, caplog, coarse_rt.sys, atomics, 3)
        for k, i in enumerate(ids):
            assert controller_equal(bank.table(k), coarse_rt.bank.table(i))

    def test_random_bank_does_not_depend_on_stack_size(self, rng, monkeypatch, caplog):
        # a small system stacks every atomic of its own accord
        diff_rows = 0
        for _ in range(10):
            sysm = random_system(rng, max_states=40)
            n = sysm.n_states
            base = random_state_set(rng, n, density=0.95)
            atomics = [base, StateSet.empty(n)] + [base & random_state_set(rng, n) for _ in range(5)]
            self._check_sizes(sysm, atomics, monkeypatch, caplog, 7, False)
            bank, records, _ = stacked_synthesis(monkeypatch, caplog, sysm, atomics, 3)
            diff_rows += sum(r[2] for r in records)
            for i, s in enumerate(atomics):
                assert controller_equal(bank.table(i), safety_control(sysm, SafetySpec(s)))
        assert diff_rows

    @pytest.mark.parametrize("bad", [4, 5])
    def test_non_sub_controller_named_inside_its_stack(self, rng, monkeypatch, caplog, bad):
        # a narrowing that leaves atomic `bad` with an input the base lacks;
        # with three atomics at a time it is second or last in its stack
        while True:
            sysm = random_system(rng, max_states=40)
            n = sysm.n_states
            base = random_state_set(rng, n, density=0.95)
            cold = safety_control(sysm, SafetySpec(base))
            lacking = np.argwhere(~_unpack_bool(cold.masks, sysm.n_inputs))
            if lacking.size and cold.domain_size():
                break
        x, u = (int(v) for v in lacking[rng.integers(len(lacking))])
        atomics = [base] + [base & random_state_set(rng, n) for _ in range(6)]

        def widening(sys, table, removed, touched, done):
            _narrow(sys, table, removed, touched=touched)
            copies = table.n_states // n
            if done[0] <= bad < done[0] + copies:
                row = (bad - done[0]) * n + x
                table.masks[row, u // 64] |= np.uint64(1) << np.uint64(u % 64)
                touched.append(np.array([row]))
            done[0] += copies
            return table

        for k in (1, 2, 3):
            # the atomics narrowed so far
            done = [0]
            err, records, _ = stacked_synthesis(monkeypatch, caplog, sysm, atomics, k,
                                                narrow=lambda *a, **kw: widening(*a, **kw, done=done))
            assert isinstance(err, ValueError) and f"atomic {bad} is not a sub-controller" in str(err)
            assert [r[0] for r in records] == list(range(bad))

    def test_non_sub_controller_named_after_derived_atomics(self, coarse_rt, monkeypatch, caplog):
        # atomics 1 and 2 are derived; atomic 3, narrowed second, is left an
        # input the base lacks, and the records before the error cover the
        # derived atomics too
        bank, sysm = coarse_rt.bank, coarse_rt.sys
        n = sysm.n_states
        ids = np.concatenate([[0], np.flatnonzero(bank.derived)[:2], np.flatnonzero(~bank.derived)[1:3]])
        atomics = [bank.safes[int(i)] for i in ids]
        lacking = ~_unpack_bool(bank.base.masks, sysm.n_inputs) & bank.base.defined[:, None]
        x, u = (int(v) for v in np.argwhere(lacking)[0])

        def widening(sys, table, removed, touched, done):
            universe = table.defined.all()    # the run that the derived atomics come from
            _narrow(sys, table, removed, touched=touched)
            copies = table.n_states // n
            if not universe and done[0] <= 1 < done[0] + copies:
                row = (1 - done[0]) * n + x
                table.masks[row, u // 64] |= np.uint64(1) << np.uint64(u % 64)
                touched.append(np.array([row]))
            done[0] += 0 if universe else copies
            return table

        for k in (1, 2, 3):
            done = [0]
            err, records, runs = stacked_synthesis(monkeypatch, caplog, sysm, atomics, k,
                                                   narrow=lambda *a, **kw: widening(*a, **kw, done=done))
            assert isinstance(err, ValueError) and "atomic 3 is not a sub-controller" in str(err)
            assert [(r[0], r[3]) for r in records] == [(0, False), (1, True), (2, True)]
            assert runs[0] == n


class TestDerivedTranslates:
    """Atomics derived from the product of the base and a moved controller
    equal cold synthesis.  A translate is narrowed instead when the
    abstraction does not move alike around the template's rows (at the
    grid's faces) or when its product has a blocking state."""

    @pytest.fixture(scope="class")
    def sysm(self):
        # the coarse preset's vehicle on a 12 x 12 x 21 grid
        cfg = preset_config("coarse")
        grid = GridSpec.from_target_eta([-0.6, -0.6, -np.pi], [0.6, 0.6, np.pi], GRID_PRESETS["coarse"],
                                        periodic=[False, False, True])
        return build_abstraction(grid, cfg.inputs, cfg.params)

    @staticmethod
    def _synthesize(sysm, ref, monkeypatch):
        """The bank of the set `ref`, as atomic 0 and the base, and one
        atomic per x-y column inside it, lacking that column.  Returns its
        derived atomics, the atomics whose move the last `moves_alike` call
        accepted, and each atomic's x-y column (none for atomic 0)."""
        nx, ny, nt = sysm.grid.shape
        cols = np.arange(sysm.n_states).reshape(nx * ny, nt)
        inside = np.flatnonzero(ref[cols].all(axis=1))
        atomics = [StateSet(ref)]
        for c in inside:
            safe = ref.copy()
            safe[cols[c]] = False
            atomics.append(StateSet(safe))
        last = {}
        alike = sysm.moves_alike

        def recorded(rows, src, dst):
            ok = alike(rows, src, dst)
            last.clear()
            last.update(zip(np.asarray(dst).tolist(), ok.tolist()))
            return ok

        monkeypatch.setattr(sysm, "moves_alike", recorded)
        bank = synthesize_bank(sysm, atomics, base_id=0)
        for i, safe in enumerate(atomics):
            assert controller_equal(bank.table(i), safety_control(sysm, SafetySpec(safe)))
        moved = np.array([False] + [last.get(int(c * nt), False) for c in inside])
        assert not np.any(bank.derived & ~moved)
        return bank.derived, moved, np.concatenate([[-1], inside])

    def test_columns_at_the_faces_do_not_move_alike(self, sysm, monkeypatch):
        # no fence: the reference is the full set
        derived, moved, col = self._synthesize(sysm, np.ones(sysm.n_states, dtype=bool), monkeypatch)
        nx, ny, _ = sysm.grid.shape
        x, y = np.divmod(col[1:], ny)
        face = (x == 0) | (x == nx - 1) | (y == 0) | (y == ny - 1)
        assert face.any() and not np.any(moved[1:][face])
        assert derived.any() and not derived[1:].all()

    def test_blocking_products_are_narrowed(self, sysm, monkeypatch):
        # a hole of two columns in the middle of the reference: next to it,
        # the base and a translate's moved controller can leave no common
        # input
        nx, ny, nt = sysm.grid.shape
        ref = np.ones((nx, ny, nt), dtype=bool)
        ref[nx // 2 - 1:nx // 2 + 1, ny // 2 - 1] = False
        derived, moved, _ = self._synthesize(sysm, ref.reshape(-1), monkeypatch)
        assert derived.any() and np.any(moved & ~derived)


class TestCompose:
    def test_automaton7_pair(self, automaton7, automaton7_bank):
        sh = compose(automaton7_bank, {0, 1})
        assert sorted(sh.table.domain().indices()) == [0, 1, 2, 3]
        assert closure_holds(automaton7[0], sh.table)

    def test_single_atomic_is_identity(self, automaton7_bank):
        sh = compose(automaton7_bank, {0})
        assert controller_equal(sh.table, automaton7_bank.table(0))

    def test_empty_active_rejected(self, automaton7_bank):
        with pytest.raises(EmptyActiveSet):
            compose(automaton7_bank, set())

    @pytest.mark.parametrize("atomic", [-1, 2])
    def test_atomic_id_out_of_range_rejected(self, automaton7_bank, atomic):
        with pytest.raises(IndexError, match=f"atomic id {atomic} out of range"):
            automaton7_bank.raw_product([0, atomic])

    def test_fine_rectangles_of_active_columns(self, fine_rt, rng):
        layout, bank = fine_rt.layout, fine_rt.bank
        for _ in range(20):
            x0, y0 = (int(rng.integers(0, n)) for n in (layout.n_ix, layout.n_iy))
            x1, y1 = x0 + int(rng.integers(1, 12)), y0 + int(rng.integers(1, 12))
            active = [0] + [layout.id_of(ix, iy) for ix in range(layout.ix0 + x0, layout.ix0 + min(x1, layout.n_ix))
                            for iy in range(layout.iy0 + y0, layout.iy0 + min(y1, layout.n_iy))]
            assert bank.on_template[active[1:]].all()
            pon = pure_online_shield(fine_rt.sys, [bank.safes[i] for i in active])
            assert controller_equal(compose(bank, active).table, pon.table)

    def test_equals_direct_synthesis_random(self, rng):
        for _ in range(25):
            sysm = random_system(rng)
            atomics = [random_state_set(rng, sysm.n_states) for _ in range(4)]
            bank = synthesize_bank(sysm, atomics)
            k = int(rng.integers(1, 5))
            active = list(rng.choice(4, size=k, replace=False))
            sh = compose(bank, active)
            safe = atomics[active[0]]
            for i in active[1:]:
                safe = safe & atomics[i]
            assert controller_equal(sh.table, safety_control(sysm, SafetySpec(safe)))

    def test_equals_direct_synthesis_over_several_words(self, rng):
        # 64, 65 and 130 inputs take 1, 2 and 3 words (rows of 8, 16 and 24
        # bytes) per allowed set; each state's inputs lead into the same few
        # neighbours, so two atomics often allow disjoint inputs there and
        # the raw product has blocking states
        blocking = upper_lane_repairs = 0
        for m in (64, 65, 130):
            for _ in range(5):
                sysm = neighbour_system(rng, 40, m)
                atomics = [random_state_set(rng, sysm.n_states) for _ in range(3)]
                bank = synthesize_bank(sysm, atomics)
                raw = bank.raw_product(range(3))
                sh = compose(bank, range(3))
                safe = atomics[0] & atomics[1] & atomics[2]
                direct = safety_control(sysm, SafetySpec(safe))
                assert controller_equal(sh.table, direct)
                # compose and safety_control share one loop: check it independently
                assert table_matches_brute(direct, *brute_force_safety_controller(sysm, safe))
                blocking += len(raw.blocking())
                cleared = raw.masks[:, -1] & ~sh.table.masks[:, -1]
                upper_lane_repairs += np.count_nonzero(cleared[sh.table.defined])
        assert blocking > 0
        assert upper_lane_repairs > 0

    def test_diffs_of_two_atomics_on_one_row_are_anded(self, rng):
        # atomic 0 narrows rows 3 and 5, atomic 1 rows 5 and 9 (9 turns
        # undefined: its mask is empty); row 5 of the product holds the AND
        # of both diffs
        sysm = neighbour_system(rng, 12, 70)
        base = universe_controller(sysm)
        sub = base.masks[[3, 5, 5, 9]] & rng.integers(0, 2 ** 64, size=(4, 2), dtype=np.uint64)
        sub[3] = 0
        assert sub[:3].any(axis=1).all() and not np.array_equal(sub[1], sub[2])
        safes = StateSets.encode([StateSet.full(12), StateSet.full(12)], StateSet.full(12))
        bank = AtomicShieldBank(sysm, safes, base, *no_template(2, 2), np.array([0, 2, 4]), np.array([3, 5, 5, 9]),
                                sub.copy())
        assert np.array_equal(bank.undefined, [9]) and np.array_equal(bank.uptr, [0, 0, 1])
        raw = bank.raw_product([0, 1])
        expect = base.masks.copy()
        expect[3], expect[5], expect[9] = sub[0], sub[1] & sub[2], 0
        assert np.array_equal(raw.masks, expect)
        assert np.array_equal(raw.defined, np.arange(12) != 9)
        assert np.array_equal(bank.table(0).masks[5], sub[1]) and np.array_equal(bank.table(1).masks[5], sub[2])

    @pytest.mark.parametrize("layout", ["fortran", "sliced"])
    def test_base_from_a_non_contiguous_array(self, rng, layout):
        # tables store their rows C-contiguous, as the whole-row views need
        sysm = neighbour_system(rng, 40, 70)
        bank = synthesize_bank(sysm, [random_state_set(rng, sysm.n_states) for _ in range(3)])
        if layout == "fortran":
            masks = np.asfortranarray(bank.base.masks)
        else:
            masks = np.zeros((sysm.n_states, 2 * bank.base.words), dtype=np.uint64)[:, ::2]
            masks[:] = bank.base.masks
        assert not masks.flags.c_contiguous
        base = ControllerTable(sysm.n_states, sysm.n_inputs, bank.base.defined.copy(), masks)
        assert base.masks.flags.c_contiguous
        other = AtomicShieldBank(sysm, bank.safes, base, *stored(bank))
        assert controller_equal(compose(other, range(3)).table, compose(bank, range(3)).table)
        # the narrowing loop updates the rows of the table it is given: from
        # the base narrowed to atomic 0's safe set, as synthesis does, both
        # layouts reach atomic 0's table
        for table in (base, bank.base.copy()):
            table.masks[~bank.safes[0].mask] = 0
            assert controller_equal(_narrow(sysm, table, table.blocking().mask), bank.table(0))

    def test_order_independence(self, rng):
        sysm = random_system(rng)
        atomics = [random_state_set(rng, sysm.n_states) for _ in range(4)]
        bank = synthesize_bank(sysm, atomics)
        perms = [(0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)]
        tables = [compose(bank, p).table for p in perms]
        assert controller_equal(tables[0], tables[1])
        assert controller_equal(tables[0], tables[2])


class TestPureOnline:
    def test_equals_compose(self, automaton7, automaton7_bank):
        sysm, g, h = automaton7
        sh = pure_online_shield(sysm, [g, h])
        assert controller_equal(sh.table, compose(automaton7_bank, {0, 1}).table)

    def test_universe_all_permissive(self, automaton7):
        sysm, _, _ = automaton7
        sh = pure_online_shield(sysm, [StateSet.full(7)])
        assert sh.table.domain_size() == 7

    def test_intersects_without_changing_its_sets(self, rng):
        sysm = random_system(rng, max_states=40)
        sets = [random_state_set(rng, sysm.n_states, density=0.9) for _ in range(4)]
        before = [s.mask.copy() for s in sets]
        sh = pure_online_shield(sysm, iter(sets))
        assert controller_equal(sh.table, safety_control(sysm, SafetySpec(sets[0] & sets[1] & sets[2] & sets[3])))
        assert all(np.array_equal(s.mask, m) for s, m in zip(sets, before))
        with pytest.raises(EmptyActiveSet):
            pure_online_shield(sysm, [])


class TestShieldApply:
    def make_shield(self, allowed_rows, points):
        n, m = allowed_rows.shape
        table = ControllerTable.from_bool(np.ones(n, dtype=bool), allowed_rows)
        return Shield(table, InputGrid(points))

    def test_pass_through_when_allowed(self):
        sh = self.make_shield(np.array([[True, True]]), [[-0.2, 0.0], [0.2, 0.0]])
        d = shield_apply(sh, 0, (0.19, 0.0))
        assert not d.intervened
        assert tuple(d.u) == (0.2, 0.0)

    def test_automaton7c_override_at_a(self, automaton7, automaton7_bank):
        sh = compose(automaton7_bank, {0, 1})
        d = shield_apply(sh, 0, (1.0,))  # input index 1 of the abstract grid
        assert d.intervened
        assert d.u_index == 0

    def test_nearest_and_tie_break(self):
        pts = [[-0.2, 0.0], [0.0, 0.0], [0.2, 0.0]]
        allowed = np.array([[True, False, True]])
        sh = self.make_shield(allowed, pts)
        assert tuple(shield_apply(sh, 0, (0.1, 0.0)).u) == (0.2, 0.0)
        # equidistant override resolves to the lowest input index
        assert tuple(shield_apply(sh, 0, (0.0, 0.0)).u) == (-0.2, 0.0)

    def test_domain_violation(self, automaton7, automaton7_bank):
        sh = compose(automaton7_bank, {0, 1})
        with pytest.raises(DomainViolation):
            shield_apply(sh, 5, (0.0,))

    @pytest.mark.parametrize("cell", [-1, -7, 7, 8])
    def test_cell_outside_the_states(self, automaton7_bank, cell):
        sh = compose(automaton7_bank, {0, 1})
        with pytest.raises(DomainViolation, match=f"cell {cell} is not one of the shield's 7 states"):
            shield_apply(sh, cell, (0.0,))

    def test_negative_cell_does_not_wrap(self, coarse_rt):
        # numpy would read cell c - n as cell c, which is in the domain
        sh = compose(coarse_rt.bank, [0])
        n = coarse_rt.sys.n_states
        assert sh.table.defined[12487]
        shield_apply(sh, 12487, (0.0, 0.0))
        with pytest.raises(DomainViolation, match=f"cell {12487 - n} is not one of the shield's {n} states"):
            shield_apply(sh, 12487 - n, (0.0, 0.0))

    def test_minimal_intervention_predicate(self, automaton7, automaton7_bank, rng):
        sh = compose(automaton7_bank, {0, 1})
        for cell in sh.table.domain().indices():
            for raw in rng.uniform(-0.2, 1.2, size=8):
                d = shield_apply(sh, int(cell), (raw,))
                snapped = sh.inputs.nearest((raw,))
                assert d.intervened == (not sh.table.allows(int(cell), snapped))
                assert sh.table.allows(int(cell), d.u_index)


class TestAbstractShieldedRuns:
    def test_adversarial_walk_stays_in_domain_and_safe(self, automaton7, automaton7_bank, rng):
        sysm, g, h = automaton7
        sh = compose(automaton7_bank, {0, 1})
        safe = g & h
        dom = sh.table.domain()
        for start in dom.indices():
            cell = int(start)
            for _ in range(30):
                proposed = rng.uniform(-0.5, 1.5, size=1)
                d = shield_apply(sh, cell, proposed)
                succ, is_out = sysm.post(cell, d.u_index)
                assert not is_out
                cell = int(rng.choice(succ))  # adversarial nondeterminism
                assert cell in dom
                assert cell in safe

    def test_adversarial_walk_on_random_banks(self, rng):
        for _ in range(10):
            sysm = random_system(rng)
            atomics = [random_state_set(rng, sysm.n_states) for _ in range(3)]
            bank = synthesize_bank(sysm, atomics)
            sh = compose(bank, {0, 1, 2})
            dom = sh.table.domain()
            if not len(dom):
                continue
            cell = int(rng.choice(dom.indices()))
            for _ in range(40):
                d = shield_apply(sh, cell, rng.uniform(0, sysm.n_inputs, size=1))
                succ, is_out = sysm.post(cell, d.u_index)
                assert not is_out
                cell = int(rng.choice(succ))
                assert cell in dom


class TestBankSerialization:
    def test_round_trip_dense(self, automaton7, automaton7_bank, tmp_path):
        sysm, _, _ = automaton7
        path = tmp_path / "bank.pshb"
        save_bank(automaton7_bank, path)
        loaded = load_bank(path, sysm, spot_check=2)
        assert loaded.n_atomics == 2
        for i in range(2):
            assert controller_equal(loaded.table(i), automaton7_bank.table(i))
            assert loaded.safes[i] == automaton7_bank.safes[i]

    def test_round_trip_delta(self, rng, tmp_path):
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.95)
        atomics = [base] + [base & random_state_set(rng, sysm.n_states) for _ in range(3)]
        bank = synthesize_bank(sysm, atomics, base_id=0)
        path = tmp_path / "bank.pshb"
        save_bank(bank, path)
        loaded = load_bank(path, sysm, spot_check=2)
        assert controller_equal(loaded.base, bank.base)
        for i in range(4):
            assert controller_equal(loaded.table(i), bank.table(i))

    def test_wrong_abstraction_rejected(self, automaton7, automaton7_bank, tmp_path, rng):
        path = tmp_path / "bank.pshb"
        save_bank(automaton7_bank, path)
        other = random_system(rng)
        with pytest.raises(AbstractionMismatch):
            load_bank(path, other)

    def test_tampered_table_fails_spot_check(self, automaton7, automaton7_bank, tmp_path):
        sysm, _, _ = automaton7
        b = automaton7_bank
        path = tmp_path / "bank.pshb"
        # each table stored under the other atomic's safe set
        swapped = StateSets.encode(list(b.safes)[::-1], StateSet.full(7))
        tampered = AtomicShieldBank(sysm, swapped, b.base, *stored(b))
        save_bank(tampered, path)
        with pytest.raises(AbstractionMismatch):
            load_bank(path, sysm, spot_check=2)

    def test_spot_check_draws_fresh_atomics(self, rng, tmp_path, monkeypatch):
        import parashield.shield as shield_mod
        sysm = random_system(rng, max_states=40)
        atomics = [random_state_set(rng, sysm.n_states) for _ in range(12)]
        path = tmp_path / "bank.pshb"
        save_bank(synthesize_bank(sysm, atomics), path)
        checked = []
        inner = shield_mod.safety_control

        def recording(sys, spec, **kwargs):
            checked.append(next(i for i, s in enumerate(atomics) if s == spec.safe))
            return inner(sys, spec, **kwargs)

        monkeypatch.setattr(shield_mod, "safety_control", recording)
        for _ in range(8):
            load_bank(path, sysm)
        assert len(checked) == 8 and len(set(checked)) > 1

    def test_save_writes_exactly_the_given_path(self, automaton7_bank, tmp_path):
        save_bank(automaton7_bank, tmp_path / "x.pshb.tmp")
        assert [p.name for p in tmp_path.iterdir()] == ["x.pshb.tmp"]


def _members(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _shifted_ptr(m, n):
    ptr = m["exc_ptr"].copy()
    ptr[1] = ptr[-1] + 1
    return {"exc_ptr": ptr}


def _short_ptr(m, n):
    ptr = m["exc_ptr"].copy()
    ptr[-1] -= 1
    return {"exc_ptr": ptr}


def _idx_out_of_range(m, n):
    idx = m["exc_idx"].copy()
    idx[0] = n
    return {"exc_idx": idx}


def _safe_ptr_not_monotone(m, n):
    ptr = m["safe_ptr"].copy()
    ptr[1], ptr[2] = ptr[2], ptr[1]
    return {"safe_ptr": ptr}


def _safe_idx_out_of_range(m, n):
    idx = m["safe_idx"].copy()
    idx[-1] = n
    return {"safe_idx": idx}


def _safe_idx_repeated(m, n):
    # the second state safe set 0 lacks is its first one again
    assert m["safe_ptr"][1] >= 2
    idx = m["safe_idx"].copy()
    idx[1] = idx[0]
    return {"safe_idx": idx}


def _lacked_state_outside_the_reference(m, n):
    ref = np.unpackbits(m["safe_ref"], count=n).view(bool)
    ref[m["safe_idx"][0]] = False
    return {"safe_ref": np.packbits(ref)}


def _idx_repeated(m, n):
    # the second exception row of atomic 0 names its first row again
    assert m["exc_ptr"][1] >= 2
    idx = m["exc_idx"].copy()
    idx[1] = idx[0]
    return {"exc_idx": idx}


def _template_rows_swapped(m, n):
    rows = m["tpl_rows"].copy()
    rows[[0, 1]] = rows[[1, 0]]
    return {"tpl_rows": rows}


def _user_shift(m, shift, down=False):
    # atomic 1, which uses the template, moves by `shift` rounded to a
    # multiple of the group size, so that only the range check can refuse it
    assert m["shift"][1] != NO_SHIFT
    g = int(m["tpl_group"])
    shifts = m["shift"].copy()
    shifts[1] = (shift // g if down else -(-shift // g)) * g
    return {"shift": shifts}


class TestMalformedBank:
    """Every damaged or foreign container is a ValueError, which a caller
    can tell from a program error."""

    @pytest.fixture
    def bank_file(self, tmp_path):
        rng = np.random.default_rng(7)
        sysm = random_system(rng, max_states=40)
        atomics = [random_state_set(rng, sysm.n_states) for _ in range(3)]
        path = tmp_path / "bank.pshb"
        bank = synthesize_bank(sysm, atomics)
        assert all(bank.ptr[i] < bank.ptr[i + 1] for i in range(3))
        assert all(bank.safes.ptr[i] < bank.safes.ptr[i + 1] for i in range(3))
        save_bank(bank, path)
        return sysm, path

    @pytest.mark.parametrize("change", [
        lambda m, n: {"exc_ptr": None},
        lambda m, n: {"kind": np.str_("abstraction")},
        lambda m, n: {"version": np.int64(2)},
        _shifted_ptr,
        _short_ptr,
        _idx_out_of_range,
        _idx_repeated,
        lambda m, n: {"exc_masks": np.hstack([m["exc_masks"], m["exc_masks"]])},
        lambda m, n: {"exc_masks": m["exc_masks"].astype(np.int64)},
        _safe_ptr_not_monotone,
        _safe_idx_out_of_range,
        _safe_idx_repeated,
        _lacked_state_outside_the_reference,
    ], ids=["missing-member", "wrong-kind", "wrong-version", "ptr-not-monotone",
            "ptr-not-ending-at-idx", "idx-out-of-range", "idx-repeated", "mask-width", "mask-dtype",
            "safe-ptr-not-monotone", "safe-idx-out-of-range", "safe-idx-repeated", "lacked-state-outside-ref"])
    def test_bad_contents(self, bank_file, change):
        sysm, path = bank_file
        members = _members(path)
        members.update(change(members, sysm.n_states))
        with open(path, "wb") as f:
            np.savez(f, **{k: v for k, v in members.items() if v is not None})
        # no spot check: the structural checks alone must refuse the file
        with pytest.raises(ValueError) as err:
            load_bank(path, sysm, spot_check=0)
        assert not isinstance(err.value, AbstractionMismatch)

    def test_old_layout_with_stored_domain_bits(self, bank_file):
        # earlier files stored each diff row's domain bit, which is now read
        # off its mask; the member set no longer matches
        sysm, path = bank_file
        members = _members(path)
        members["defined"] = np.packbits(members["exc_masks"].any(axis=1))
        with open(path, "wb") as f:
            np.savez(f, **members)
        with pytest.raises(ValueError, match="members") as err:
            load_bank(path, sysm, spot_check=0)
        assert not isinstance(err.value, AbstractionMismatch)

    def test_old_layout_with_dense_safe_sets(self, bank_file):
        # earlier files stored every safe set as one packed row
        sysm, path = bank_file
        members = _members(path)
        safes = StateSets(np.unpackbits(members.pop("safe_ref"), count=sysm.n_states).view(bool),
                          members.pop("safe_ptr"), members.pop("safe_idx"))
        members["safes"] = np.array([np.packbits(s.mask) for s in safes])
        with open(path, "wb") as f:
            np.savez(f, **members)
        with pytest.raises(ValueError, match="members") as err:
            load_bank(path, sysm, spot_check=0)
        assert not isinstance(err.value, AbstractionMismatch)

    def test_old_layout_with_diffs_only(self, bank_file):
        # the layout before the template stored every atomic's diff as
        # `ptr`, `idx` and `masks`
        sysm, path = bank_file
        members = _members(path)
        for name in ("tpl_rows", "tpl_masks", "tpl_group", "shift"):
            del members[name]
        for name in ("ptr", "idx", "masks"):
            members[name] = members.pop(f"exc_{name}")
        with open(path, "wb") as f:
            np.savez(f, **members)
        with pytest.raises(ValueError, match="members") as err:
            load_bank(path, sysm, spot_check=0)
        assert not isinstance(err.value, AbstractionMismatch)

    @pytest.fixture
    def template_file(self, tmp_path, coarse_rt):
        path = tmp_path / "bank.pshb"
        save_bank(coarse_rt.bank, path)
        return coarse_rt.sys, path

    @pytest.mark.parametrize("change", [
        _template_rows_swapped,
        lambda m, n: _user_shift(m, -1 - int(m["tpl_rows"][0]), down=True),
        lambda m, n: _user_shift(m, n - int(m["tpl_rows"][-1])),
        lambda m, n: _user_shift(m, 2 ** 63 - 1, down=True),
        lambda m, n: {"shift": m["shift"] + np.where(np.arange(m["shift"].size) == 1, 1, 0)},
        lambda m, n: {"tpl_group": np.int64(0)},
        lambda m, n: {"tpl_group": np.int64(5)},
        lambda m, n: {"tpl_masks": m["tpl_masks"][1:]},
    ], ids=["rows-not-ascending", "row-below-0", "row-at-n", "row-far-above", "shift-off-the-group",
            "group-0", "group-not-dividing-n", "masks-short"])
    def test_bad_template(self, template_file, change):
        sysm, path = template_file
        members = _members(path)
        assert sysm.n_states % 5 and members["tpl_group"] > 1
        members.update(change(members, sysm.n_states))
        with open(path, "wb") as f:
            np.savez(f, **members)
        with pytest.raises(ValueError) as err:
            load_bank(path, sysm, spot_check=0)
        assert not isinstance(err.value, AbstractionMismatch)

    def test_foreign_hash_is_refused_before_any_array_is_read(self, bank_file):
        sysm, path = bank_file
        members = _members(path)
        members["content_hash"] = np.str_("0" * 64)
        members["exc_masks"] = members["exc_masks"].astype(np.int64)
        with open(path, "wb") as f:
            np.savez(f, **members)
        with pytest.raises(AbstractionMismatch):
            load_bank(path, sysm, spot_check=0)

    def test_flipped_byte_in_diff_masks(self, bank_file):
        sysm, path = bank_file
        data = bytearray(path.read_bytes())
        at = data.find(_members(path)["exc_masks"].tobytes())
        assert at > 0
        data[at + 3] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_bank(path, sysm)

    @pytest.mark.parametrize("keep", [0, 0.5, 0.99])
    def test_truncated(self, bank_file, keep):
        sysm, path = bank_file
        data = path.read_bytes()
        path.write_bytes(data[:int(keep * len(data))])
        with pytest.raises(ValueError):
            load_bank(path, sysm)
