import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parashield.abstraction import ExplicitAbstraction, build_abstraction
from parashield.bench import (
    brute_force_safety_controller,
    random_state_set,
    random_system,
    table_matches_brute,
)
from parashield.errors import UniverseMismatch
from parashield.synthesis import (
    ControllerTable,
    SafetySpec,
    StateSet,
    StateSets,
    _narrow,
    _pack_bool,
    _unpack_bool,
    closure_holds,
    controller_equal,
    is_sub_controller,
    largest_nonblocking,
    product,
    safety_control,
    universe_controller,
)
from reference import brute_force_nonblocking, cpre

sets_of_7 = st.sets(st.integers(0, 6))


def full_permissive(n_states, n_inputs, domain=None):
    """Table allowing every input on `domain` (default: every state)."""
    defined = np.ones(n_states, dtype=bool) if domain is None else np.asarray(domain, bool).copy()
    return ControllerTable.from_bool(defined, np.tile(defined[:, None], (1, n_inputs)))


def dump_controller(table, fh, grid=None):
    """Text dump: one `cell : sorted inputs` line per domain state."""
    for cell in np.nonzero(table.defined)[0]:
        label = str(grid.multi(int(cell))) if grid is not None else str(int(cell))
        inputs = " ".join(str(int(u)) for u in table.allowed_indices(cell))
        fh.write(f"{label} : {inputs}\n")


def sset(indices, n=7):
    return StateSet.from_indices(n, indices)


class TestStateSets:
    def test_encode_stores_what_each_set_lacks(self, rng):
        ref = random_state_set(rng, 50, density=0.8)
        sets = [ref & random_state_set(rng, 50) for _ in range(6)] + [ref, StateSet.empty(50)]
        seq = StateSets.encode(sets, ref)
        assert len(seq) == len(sets) and np.array_equal(seq.ref, ref.mask)
        for i, s in enumerate(sets):
            assert seq[i] == s
            lacks = seq.idx[seq.ptr[i]:seq.ptr[i + 1]]
            assert np.all(np.diff(lacks) > 0) and np.array_equal(lacks, np.flatnonzero(ref.mask & ~s.mask))
        assert seq.ptr[6] == seq.ptr[7] and seq.ptr[8] - seq.ptr[7] == len(ref)

    def test_encode_refuses_a_set_outside_the_reference(self):
        with pytest.raises(ValueError, match="atomic 1"):
            StateSets.encode([sset([0, 1]), sset([1, 2])], sset([0, 1]))
        with pytest.raises(UniverseMismatch):
            StateSets.encode([sset([0], n=6)], sset([0, 1]))

    def test_encode_nothing(self):
        seq = StateSets.encode([], StateSet.full(7))
        assert len(seq) == 0 and list(seq) == []
        with pytest.raises(IndexError):
            seq[0]


class TestStateSetAlgebra:
    @given(sets_of_7, sets_of_7)
    @settings(max_examples=60, deadline=None)
    def test_de_morgan(self, a, b):
        x, y = sset(a), sset(b)
        assert ~(x | y) == (~x & ~y)
        assert ~(x & y) == (~x | ~y)

    @given(sets_of_7, sets_of_7, sets_of_7)
    @settings(max_examples=60, deadline=None)
    def test_lattice_laws(self, a, b, c):
        x, y, z = sset(a), sset(b), sset(c)
        assert (x & y) & z == x & (y & z)
        assert x | y == y | x
        assert x & (x | y) == x
        assert ~~x == x

    @given(sets_of_7, sets_of_7)
    @settings(max_examples=60, deadline=None)
    def test_subset_and_difference(self, a, b):
        x, y = sset(a), sset(b)
        assert (x & y) <= x
        assert (x - y) <= x
        assert len(x - y) == len(x) - len(x & y)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            sset({1}, 7) & sset({1}, 8)


class TestGoldenAutomaton:
    def test_cpre(self, automaton7):
        sysm, g, _ = automaton7
        assert sorted(cpre(sysm, g).indices()) == [0, 1, 2, 3, 4, 5]
        assert cpre(sysm, StateSet.full(7)) == StateSet.full(7)
        assert cpre(sysm, StateSet.empty(7)) == StateSet.empty(7)

    def test_atomic_controllers(self, automaton7):
        sysm, g, h = automaton7
        cg = safety_control(sysm, SafetySpec(g))
        ch = safety_control(sysm, SafetySpec(h))
        assert sorted(cg.domain().indices()) == [0, 1, 2, 3, 4, 5]
        assert list(cg.allowed_indices(4)) == [0]
        assert list(cg.allowed_indices(0)) == [0, 1]
        assert sorted(ch.domain().indices()) == [0, 1, 2, 3, 4, 6]
        assert list(ch.allowed_indices(4)) == [1]

    def test_product_keeps_blocking_state(self, automaton7):
        sysm, g, h = automaton7
        cg = safety_control(sysm, SafetySpec(g))
        ch = safety_control(sysm, SafetySpec(h))
        raw = product(cg, ch)
        assert sorted(raw.domain().indices()) == [0, 1, 2, 3, 4]
        assert list(raw.allowed_indices(4)) == []
        assert sorted(raw.blocking().indices()) == [4]

    def test_largest_nonblocking(self, automaton7):
        sysm, g, h = automaton7
        raw = product(safety_control(sysm, SafetySpec(g)), safety_control(sysm, SafetySpec(h)))
        nb = largest_nonblocking(sysm, raw)
        assert sorted(nb.domain().indices()) == [0, 1, 2, 3]
        assert list(nb.allowed_indices(0)) == [0]

    def test_corollary_equality(self, automaton7):
        sysm, g, h = automaton7
        nb = largest_nonblocking(sysm, product(
            safety_control(sysm, SafetySpec(g)), safety_control(sysm, SafetySpec(h))))
        direct = safety_control(sysm, SafetySpec(g & h))
        assert controller_equal(nb, direct)


class TestSafetyControlProperties:
    def test_safe_universe_total_relation_all_allowed(self, automaton7):
        sysm, _, _ = automaton7
        t = safety_control(sysm, SafetySpec(StateSet.full(7)))
        assert t.domain_size() == 7
        assert all(list(t.allowed_indices(x)) == [0, 1] for x in range(7))

    def test_monotone_descent_and_iteration_bound(self, rng):
        for _ in range(30):
            sysm = random_system(rng)
            safe = random_state_set(rng, sysm.n_states)
            sizes = []
            t = safety_control(sysm, SafetySpec(safe), iteration_sizes=sizes)
            assert len(sizes) <= sysm.n_states + 1
            stays = _unpack_bool(sysm.stays, sysm.n_inputs)
            assert sizes[0] == np.count_nonzero(safe.mask & stays.any(axis=1))
            # strictly decreasing; once there is a sweep, the one that
            # removes nothing repeats the last size
            if len(sizes) > 1:
                assert sizes[-1] == sizes[-2]
            assert all(a > b for a, b in zip(sizes[:-2], sizes[1:-1]))
            assert sizes[-1] == t.domain_size()

    def test_result_within_safe_and_closed(self, rng):
        for _ in range(30):
            sysm = random_system(rng)
            safe = random_state_set(rng, sysm.n_states)
            t = safety_control(sysm, SafetySpec(safe))
            assert t.domain() <= safe
            assert closure_holds(sysm, t)

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            sysm = random_system(rng)
            safe = random_state_set(rng, sysm.n_states)
            t = safety_control(sysm, SafetySpec(safe))
            dom, allow = brute_force_safety_controller(sysm, safe)
            assert table_matches_brute(t, dom, allow)

    def test_warm_start_equals_cold(self, rng):
        for _ in range(30):
            sysm = random_system(rng)
            big = random_state_set(rng, sysm.n_states, density=0.9)
            small = big & random_state_set(rng, sysm.n_states, density=0.8)
            base = safety_control(sysm, SafetySpec(big))
            warm = safety_control(sysm, SafetySpec(small), warm_start=base)
            cold = safety_control(sysm, SafetySpec(small))
            assert controller_equal(warm, cold)


class TestNarrowTouchedRows:
    def test_cover_every_changed_row(self, rng):
        for trial in range(60):
            sysm = random_system(rng)
            # cold starts from the universe controller, warm ones from a
            # safety controller
            if trial % 2:
                start = universe_controller(sysm)
            else:
                start = safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states, density=0.9)))
            removed = start.defined & ~random_state_set(rng, sysm.n_states).mask | start.blocking().mask
            touched = []
            recorded = _narrow(sysm, start.copy(), removed, touched=touched)
            assert controller_equal(recorded, _narrow(sysm, start.copy(), removed))
            assert np.array_equal(touched[0], np.flatnonzero(removed))
            written = np.zeros(sysm.n_states, dtype=bool)
            for rows in touched:
                written[rows] = True
            changed = (recorded.defined != start.defined) | (recorded.masks != start.masks).any(axis=1)
            assert not np.any(changed & ~written)


class TestUniverseController:
    def test_each_call_returns_a_fresh_table(self, automaton7):
        sysm = automaton7[0]
        stays = [[not sysm.post(x, u)[1] for u in range(sysm.n_inputs)] for x in range(sysm.n_states)]
        expect = ControllerTable.from_bool(np.ones(sysm.n_states, dtype=bool), np.array(stays))
        first = universe_controller(sysm)
        assert controller_equal(first, expect)
        first.masks[:] = 0
        first.defined[:] = False
        assert controller_equal(universe_controller(sysm), expect)
        # a cold safety_control narrows the table it starts from in place
        safety_control(sysm, SafetySpec(sset([0, 1])))
        assert controller_equal(universe_controller(sysm), expect)

    @pytest.mark.parametrize("kind", ["explicit", "boxed"])
    def test_synthesis_attaches_nothing_to_the_system(self, kind, rng):
        if kind == "explicit":
            sysm = random_system(rng)
        else:
            from parashield.bench import preset_config
            cfg = preset_config("coarse")
            sysm = build_abstraction(cfg.grid, cfg.inputs, cfg.params)
        keys, stays = set(vars(sysm)), sysm.stays.copy()
        safe = StateSet(np.arange(sysm.n_states) % 5 != 0)
        table = safety_control(sysm, SafetySpec(safe))
        cpre(sysm, safe)
        largest_nonblocking(sysm, product(table, universe_controller(sysm)))
        assert closure_holds(sysm, table)
        assert set(vars(sysm)) == keys
        assert np.array_equal(sysm.stays, stays)


class TestClosureHolds:
    def test_out_and_leaving_inputs_break_closure(self):
        # state 0: input 0 stays, input 1 is OUT; state 1: input 0 goes to
        # state 0, input 1 stays
        sysm = ExplicitAbstraction.from_map(2, 2, {(0, 0): [0], (1, 0): [0], (1, 1): [1]}, out_pairs=[(0, 1)])
        both = np.array([True, True])
        assert closure_holds(sysm, ControllerTable.from_bool(both, np.array([[True, False], [True, True]])))
        assert not closure_holds(sysm, ControllerTable.from_bool(both, np.array([[True, True], [True, True]])))
        only_1 = np.array([False, True])
        assert closure_holds(sysm, ControllerTable.from_bool(only_1, np.array([[False, False], [False, True]])))
        assert not closure_holds(sysm, ControllerTable.from_bool(only_1, np.array([[False, False], [True, True]])))


class TestProduct:
    def test_idempotent(self, rng):
        sysm = random_system(rng)
        t = safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states)))
        assert controller_equal(product(t, t), t)

    def test_identity_element_on_common_domain(self, automaton7):
        sysm, g, _ = automaton7
        t = safety_control(sysm, SafetySpec(g))
        full = full_permissive(7, 2, domain=t.defined)
        assert controller_equal(product(t, full), t)

    def test_commutative_associative(self, rng):
        sysm = random_system(rng)
        ts = [safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states)))
              for _ in range(3)]
        ab = product(ts[0], ts[1])
        ba = product(ts[1], ts[0])
        assert controller_equal(ab, ba)
        assert controller_equal(product(ab, ts[2]), product(ts[0], product(ts[1], ts[2])))

    def test_rows_outside_either_domain_are_clear(self, rng):
        # tables are canonical, and the product of two canonical tables is too
        sysm = random_system(rng)
        a, b = (ControllerTable.from_bool(rng.random(sysm.n_states) < 0.7,
                                          np.ones((sysm.n_states, sysm.n_inputs), bool)) for _ in range(2))
        ab = product(a, b)
        assert not np.any(ab.masks[~ab.defined])
        assert np.array_equal(_unpack_bool(ab.masks[ab.defined], sysm.n_inputs),
                              np.ones((ab.domain_size(), sysm.n_inputs), bool))

    def test_universe_mismatch(self, automaton7, rng):
        sysm, g, _ = automaton7
        t = safety_control(sysm, SafetySpec(g))
        other = full_permissive(9, 2)
        with pytest.raises(UniverseMismatch):
            product(t, other)


class TestLargestNonblocking:
    def test_nonblocking_input_returned_unchanged(self, rng):
        for _ in range(20):
            sysm = random_system(rng)
            t = safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states)))
            assert controller_equal(largest_nonblocking(sysm, t), t)

    def test_is_sub_controller_of_input(self, rng):
        for _ in range(30):
            sysm = random_system(rng)
            a = safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states)))
            b = safety_control(sysm, SafetySpec(random_state_set(rng, sysm.n_states)))
            raw = product(a, b)
            nb = largest_nonblocking(sysm, raw)
            assert is_sub_controller(nb, raw)
            assert closure_holds(sysm, nb)

    def test_matches_brute_force_on_arbitrary_tables(self, rng):
        for _ in range(40):
            sysm = random_system(rng)
            n, m = sysm.n_states, sysm.n_inputs
            allowed = rng.random((n, m)) < 0.6
            defined = rng.random(n) < 0.8
            t = ControllerTable.from_bool(defined, allowed & defined[:, None])
            nb = largest_nonblocking(sysm, t)
            dom, allow = brute_force_nonblocking(
                sysm, [int(i) for i in np.nonzero(t.defined)[0]],
                {int(x): list(t.allowed_indices(x)) for x in np.nonzero(t.defined)[0]})
            assert table_matches_brute(nb, dom, allow)


class TestControllerEqual:
    def test_reflexive(self, automaton7):
        sysm, g, _ = automaton7
        t = safety_control(sysm, SafetySpec(g))
        assert controller_equal(t, t)

    def test_single_bit_difference_detected(self, automaton7):
        sysm, g, _ = automaton7
        t = safety_control(sysm, SafetySpec(g))
        t2 = t.copy()
        t2.masks[0, 0] ^= np.uint64(2)
        assert not controller_equal(t, t2)

    def test_from_bool_clears_undefined_rows(self):
        t = ControllerTable.from_bool(np.array([True, False, True]), np.ones((3, 70), bool))
        assert np.array_equal(t.masks[1], [0, 0])
        assert controller_equal(t, ControllerTable.from_bool(t.defined, np.array([[True] * 70, [False] * 70, [True] * 70])))

    def test_defined_empty_differs_from_undefined(self):
        a = ControllerTable.from_bool(np.array([True, False]), np.zeros((2, 3), bool))
        b = ControllerTable.from_bool(np.array([False, False]), np.zeros((2, 3), bool))
        assert not controller_equal(a, b)
        assert sorted(a.blocking().indices()) == [0]


class TestControllerSerialization:
    def test_dump_format(self, automaton7):
        sysm, g, _ = automaton7
        t = safety_control(sysm, SafetySpec(g))
        buf = io.StringIO()
        dump_controller(t, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "0 : 0 1"
        assert lines[4] == "4 : 0"

    def test_dump_with_grid_uses_multi_index(self):
        from parashield.abstraction import (
            DisturbanceBox, DubinsParams, GridSpec, InputGrid, build_abstraction)
        grid = GridSpec.from_target_eta([-0.2, -0.2, -np.pi], [0.2, 0.2, np.pi],
                                        [0.1, 0.1, np.pi], [False, False, True])
        sysm = build_abstraction(grid, InputGrid.from_values([0.0], [0.0]),
                                 DubinsParams(0.1, DisturbanceBox([0, 0, 0])))
        t = safety_control(sysm, SafetySpec(StateSet.full(grid.n_cells)))
        buf = io.StringIO()
        dump_controller(t, buf, grid=grid)
        assert buf.getvalue().startswith("(0, 0, 0) : 0")


def pack_reference(allowed):
    """Per-word packing loop: bit b of word w holds column 64 * w + b."""
    n, m = allowed.shape
    out = np.zeros((n, (m + 63) // 64), dtype=np.uint64)
    for w in range(out.shape[1]):
        chunk = allowed[:, w * 64:(w + 1) * 64]
        bits = np.uint64(1) << np.arange(chunk.shape[1], dtype=np.uint64)
        out[:, w] = np.bitwise_or.reduce(np.where(chunk, bits, np.uint64(0)), axis=1)
    return out


def unpack_reference(masks, m):
    out = np.zeros((masks.shape[0], m), dtype=bool)
    for w in range(masks.shape[1]):
        k = min(64, m - w * 64)
        shifted = masks[:, w][:, None] >> np.arange(k, dtype=np.uint64)
        out[:, w * 64:w * 64 + k] = shifted & np.uint64(1) != 0
    return out


class TestBitPacking:
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 85, 130])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), density=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_loop(self, m, seed, n, density):
        allowed = np.random.default_rng(seed).random((n, m)) < density
        packed = _pack_bool(allowed)
        assert packed.dtype == np.uint64
        assert np.array_equal(packed, pack_reference(allowed))
        assert np.array_equal(_unpack_bool(packed, m), unpack_reference(packed, m))
        assert np.array_equal(_unpack_bool(packed, m), allowed)

    @pytest.mark.parametrize("m", [1, 9, 64, 85, 130])
    @pytest.mark.parametrize("lead", [(0,), (5,), (0, 3), (3, 0), (4, 7)])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_any_leading_shape_and_layout(self, m, lead, transposed, rng):
        if transposed:
            # a non-contiguous view (unless empty or one wide): the packed
            # axis strides across rows
            bits = (rng.random((m,) + lead[::-1]) < 0.5).T
        else:
            bits = rng.random(lead + (m,)) < 0.5
        packed = _pack_bool(bits)
        assert packed.dtype == np.uint64 and packed.shape == lead + ((m + 63) // 64,)
        assert np.array_equal(packed.reshape(-1, packed.shape[-1]), pack_reference(bits.reshape(-1, m)))
