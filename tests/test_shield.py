import logging

import numpy as np
import pytest

from parashield.abstraction import ExplicitAbstraction, InputGrid
from parashield.bench import (
    brute_force_safety_controller,
    random_state_set,
    random_system,
    table_matches_brute,
)
from parashield.errors import AbstractionMismatch, DomainViolation, EmptyActiveSet
from parashield.shield import (
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
    _narrow,
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


def bank_diffs(bank):
    """Each atomic's stored (rows, masks)."""
    return [(bank.idx[a:b], bank.masks[a:b]) for a, b in zip(bank.ptr[:-1], bank.ptr[1:])]


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
        # diffs against the universe controller and against a base atomic
        # both reproduce cold synthesis of every atomic
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.95)
        atomics = [base] + [base & random_state_set(rng, sysm.n_states) for _ in range(4)]
        universe = synthesize_bank(sysm, atomics)
        fence = synthesize_bank(sysm, atomics, base_id=0)
        for i in range(len(atomics)):
            cold = safety_control(sysm, SafetySpec(atomics[i]))
            assert controller_equal(universe.table(i), cold)
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
            diffs = bank_diffs(bank)
            for k, d in enumerate(bank_diffs(other)):
                assert_same_diff(diffs[order[k]], d)
            if base_id == 0:
                assert len(diffs[0][0]) == len(diffs[1][0]) == 0
            rows, masks = diffs[2]
            assert np.array_equal(rows, np.flatnonzero(bank.base.defined))
            assert not np.any(masks)
            assert np.array_equal(bank.undefined[bank.uptr[2]:bank.uptr[3]], rows)
            for i in range(len(atomics)):
                assert controller_equal(bank.table(i), safety_control(sysm, SafetySpec(atomics[i])))

    def test_coarse_diffs_do_not_depend_on_atomic_order(self, coarse_rt, rng):
        full = bank_diffs(coarse_rt.bank)
        ids = [0] + sorted(int(i) for i in rng.choice(np.arange(1, len(full)), size=24, replace=False))
        order = rng.permutation(len(ids))
        bank = synthesize_bank(coarse_rt.sys, [coarse_rt.atomics[ids[k]] for k in order],
                               base_id=int(np.flatnonzero(order == 0)[0]))
        assert controller_equal(bank.base, coarse_rt.bank.base)
        for k, d in enumerate(bank_diffs(bank)):
            assert_same_diff(full[ids[order[k]]], d)

    def test_logs_one_record_per_atomic(self, rng, caplog):
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.95)
        atomics = [base] + [base & random_state_set(rng, sysm.n_states) for _ in range(4)]
        with caplog.at_level(logging.DEBUG, logger="parashield.shield"):
            bank = synthesize_bank(sysm, atomics, base_id=0)
        records = [r for r in caplog.records if r.name == "parashield.shield"]
        assert [r.atomic for r in records] == list(range(len(atomics)))
        assert all(r.levelno == logging.DEBUG and r.atomics == len(atomics) for r in records)
        assert [r.diff_rows for r in records] == list(np.diff(bank.ptr))

    def test_delta_requires_sub_controllers(self, automaton7):
        sysm, g, h = automaton7
        # the other atomic's safe set leaves the base's (the intersection),
        # so its controller need not be below the base's and is refused
        with pytest.raises(ValueError, match="atomic 1"):
            synthesize_bank(sysm, [g & h, g], base_id=0)

    def test_safe_set_outside_the_base_is_refused_before_synthesis(self, rng, monkeypatch):
        import parashield.shield as shield_mod
        sysm = random_system(rng, max_states=40)
        base = random_state_set(rng, sysm.n_states, density=0.8)
        outside = base.mask.copy()
        outside[np.flatnonzero(~base.mask)[0]] = True
        atomics = [base, base & random_state_set(rng, sysm.n_states), StateSet(outside)]

        def no_synthesis(*args, **kwargs):
            raise AssertionError("nothing is synthesized for a refused bank")

        monkeypatch.setattr(shield_mod, "safety_control", no_synthesis)
        monkeypatch.setattr(shield_mod, "_narrow", no_synthesis)
        with pytest.raises(ValueError, match="atomic 2"):
            synthesize_bank(sysm, atomics, base_id=0)


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
        safes = [StateSet.full(12), StateSet.full(12)]
        bank = AtomicShieldBank(sysm, safes, base, np.array([0, 2, 4]), np.array([3, 5, 5, 9]), sub.copy())
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
        other = AtomicShieldBank(sysm, bank.safes, base, bank.ptr, bank.idx, bank.masks)
        assert controller_equal(compose(other, range(3)).table, compose(bank, range(3)).table)
        # the narrowing loop updates the rows of the table it is given: from
        # the universe base narrowed to atomic 0's safe set, as synthesis
        # does, both layouts reach atomic 0's table
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


class TestShieldApply:
    def make_shield(self, allowed_rows, points):
        n, m = allowed_rows.shape
        table = ControllerTable.from_bool(np.ones(n, dtype=bool), allowed_rows)
        return Shield(table, InputGrid(points))

    def test_pass_through_when_allowed(self):
        sh = self.make_shield(np.array([[True, True]]), [[-0.2, 0.0], [0.2, 0.0]])
        d = shield_apply(sh, 0, (0.19, 0.0))
        assert not d.intervened and d.proposed_allowed
        assert tuple(d.u) == (0.2, 0.0)

    def test_automaton7c_override_at_a(self, automaton7, automaton7_bank):
        sh = compose(automaton7_bank, {0, 1})
        d = shield_apply(sh, 0, (1.0,))  # input index 1 of the abstract grid
        assert d.intervened and not d.proposed_allowed
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

    def test_minimal_intervention_predicate(self, automaton7, automaton7_bank, rng):
        sh = compose(automaton7_bank, {0, 1})
        for cell in sh.table.domain().indices():
            for raw in rng.uniform(-0.2, 1.2, size=8):
                d = shield_apply(sh, int(cell), (raw,))
                snapped = sh.inputs.nearest((raw,))
                assert d.intervened == (not sh.table.allows(int(cell), snapped))
                assert d.intervened == (not d.proposed_allowed)
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
        tampered = AtomicShieldBank(sysm, b.safes[::-1], b.base, b.ptr, b.idx, b.masks)
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
    ptr = m["ptr"].copy()
    ptr[1] = ptr[-1] + 1
    return {"ptr": ptr}


def _short_ptr(m, n):
    ptr = m["ptr"].copy()
    ptr[-1] -= 1
    return {"ptr": ptr}


def _idx_out_of_range(m, n):
    idx = m["idx"].copy()
    idx[0] = n
    return {"idx": idx}


def _idx_repeated(m, n):
    # the second diff row of atomic 0 names its first row again
    assert m["ptr"][1] >= 2
    idx = m["idx"].copy()
    idx[1] = idx[0]
    return {"idx": idx}


class TestMalformedBank:
    """Every damaged or foreign container is a ValueError, so a cache can
    tell it from a program error and rebuild the file."""

    @pytest.fixture
    def bank_file(self, tmp_path):
        rng = np.random.default_rng(7)
        sysm = random_system(rng, max_states=40)
        atomics = [random_state_set(rng, sysm.n_states) for _ in range(3)]
        path = tmp_path / "bank.pshb"
        bank = synthesize_bank(sysm, atomics)
        assert all(bank.ptr[i] < bank.ptr[i + 1] for i in range(3))
        save_bank(bank, path)
        return sysm, path

    @pytest.mark.parametrize("change", [
        lambda m, n: {"ptr": None},
        lambda m, n: {"kind": np.str_("abstraction")},
        lambda m, n: {"version": np.int64(2)},
        _shifted_ptr,
        _short_ptr,
        _idx_out_of_range,
        _idx_repeated,
        lambda m, n: {"masks": np.hstack([m["masks"], m["masks"]])},
        lambda m, n: {"masks": m["masks"].astype(np.int64)},
    ], ids=["missing-member", "wrong-kind", "wrong-version", "ptr-not-monotone",
            "ptr-not-ending-at-idx", "idx-out-of-range", "idx-repeated", "mask-width", "mask-dtype"])
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
        members["defined"] = np.packbits(members["masks"].any(axis=1))
        with open(path, "wb") as f:
            np.savez(f, **members)
        with pytest.raises(ValueError, match="members") as err:
            load_bank(path, sysm, spot_check=0)
        assert not isinstance(err.value, AbstractionMismatch)

    def test_flipped_byte_in_diff_masks(self, bank_file):
        sysm, path = bank_file
        data = bytearray(path.read_bytes())
        at = data.find(_members(path)["masks"].tobytes())
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
