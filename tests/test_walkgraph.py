import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameless.topology import (
    GroupSpec,
    NetworkTopology,
    full_topology,
    structure_fingerprint,
)
from frameless.walkgraph import (
    GuardError,
    PatternDag,
    RetrievabilityTable,
    build_retrievability_tables,
    companion_order,
    load_or_build_tables,
    load_table,
    pattern_states,
    save_table,
)
from conftest import edge_topologies, random_topology
from oracles import compute_w_coop, pattern_mass, reference_table

# appendix group convention: positions 0..6 are
# {1},{2},{3},{1,2},{2,3},{1,3},{1,2,3}
APPENDIX_MASKS = [0b001, 0b010, 0b100, 0b011, 0b110, 0b101, 0b111]


def appendix_m3():
    from frameless.topology import GroupSpec, NetworkTopology

    return NetworkTopology(
        num_bs=3, groups=tuple(GroupSpec(m, 10) for m in APPENDIX_MASKS)
    )


def pattern_index(states, target, num_groups):
    comps = companion_order(num_groups, target)
    idx = 0
    for c in comps:
        idx = idx * 3 + states[c]
    return idx


def test_single_collided_packet_rescued():
    # u1 and u7 hold one un-retrieved packet each, u2 collides, rest silent:
    # u7 is a singleton at BS 3, peels, then u1 becomes a singleton at BS 1.
    topo = appendix_m3()
    table = build_retrievability_tables(topo)[0]
    states = [1, 2, 0, 0, 0, 0, 1]
    k = pattern_index(states, 0, 7)
    assert table.retrievable[k]
    assert not table.singleton[k]  # rescued from a collision, not collision-free


def test_all_silent_companions_retrievable():
    topo = appendix_m3()
    table = build_retrievability_tables(topo)[0]
    k = pattern_index([1, 0, 0, 0, 0, 0, 0], 0, 7)
    assert table.retrievable[k]
    assert table.singleton[k]


def test_all_neighbors_collided_blocked():
    # every group sharing a BS with the target is in state 2
    topo = appendix_m3()
    table = build_retrievability_tables(topo)[0]
    # target u1 at BS1; groups at BS1: u4={1,2}, u6={1,3}, u7={1,2,3}
    states = [1, 0, 0, 2, 0, 2, 2]
    assert not table.retrievable[pattern_index(states, 0, 7)]


def test_triple_group_never_rescued():
    # the all-BS group can only be retrieved collision-free
    topo = appendix_m3()
    table = build_retrievability_tables(topo)[6]
    assert not table.rescue.any()


def test_guard_on_too_many_groups():
    import frameless.walkgraph as wg

    class Fake:
        num_groups = wg.MAX_GROUPS + 1

    with pytest.raises(GuardError):
        build_retrievability_tables(Fake())


def test_table_shape_and_chunking(monkeypatch):
    import frameless.walkgraph as wg

    topo = full_topology(3, [5] * 7)
    t_serial = build_retrievability_tables(topo, workers=1)
    monkeypatch.setattr(wg, "_CHUNK", 100)  # 22 chunks over 3^7 patterns
    t_parallel = build_retrievability_tables(topo, workers=2)
    assert sorted(t_serial) == list(range(7))
    for t in range(7):
        assert len(t_serial[t].retrievable) == 3**6
        assert np.array_equal(t_serial[t].retrievable, t_parallel[t].retrievable)
        assert np.array_equal(t_serial[t].singleton, t_parallel[t].singleton)


def test_cache_roundtrip(tmp_path):
    topo = full_topology(2, [5, 5, 5])
    table = build_retrievability_tables(topo)[1]
    save_table(table, topo, cache_dir=tmp_path)
    loaded = load_table(topo, 1, cache_dir=tmp_path)
    assert loaded is not None
    assert np.array_equal(loaded.retrievable, table.retrievable)
    assert np.array_equal(loaded.singleton, table.singleton)
    # counts don't invalidate the cache; connectivity does
    other_counts = full_topology(2, [9, 9, 9])
    assert load_table(other_counts, 1, cache_dir=tmp_path) is not None
    other_struct = full_topology(2, [5, 5, 0])
    tables = load_or_build_tables(other_struct, cache_dir=tmp_path)
    assert set(tables) == {0, 1, 2}


@pytest.mark.parametrize("damage", ["truncated", "empty"])
def test_damaged_cache_file_rebuilt(tmp_path, damage):
    topo = full_topology(2, [5, 5, 5])
    path = save_table(build_retrievability_tables(topo)[1], topo, cache_dir=tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2] if damage == "truncated" else b"")
    assert load_table(topo, 1, cache_dir=tmp_path) is None
    tables = load_or_build_tables(topo, cache_dir=tmp_path)
    reloaded = load_table(topo, 1, cache_dir=tmp_path)
    assert reloaded is not None
    assert np.array_equal(reloaded.retrievable, tables[1].retrievable)


def test_cache_file_of_other_topology_rebuilt(tmp_path):
    topo = full_topology(2, [5, 5, 5])
    other = NetworkTopology(
        num_bs=2, groups=(GroupSpec(0b11, 5), GroupSpec(0b01, 5), GroupSpec(0b10, 5))
    )
    stale = build_retrievability_tables(topo)[1]
    expected = build_retrievability_tables(other)[1]
    assert not np.array_equal(stale.retrievable, expected.retrievable)
    path = save_table(stale, topo, cache_dir=tmp_path)
    path.rename(
        path.with_name(
            path.name.replace(structure_fingerprint(topo), structure_fingerprint(other))
        )
    )
    assert load_table(other, 1, cache_dir=tmp_path) is None
    tables = load_or_build_tables(other, cache_dir=tmp_path)
    assert np.array_equal(tables[1].retrievable, expected.retrievable)
    reloaded = load_table(other, 1, cache_dir=tmp_path)
    assert reloaded is not None
    assert np.array_equal(reloaded.retrievable, expected.retrievable)
    assert np.array_equal(reloaded.singleton, expected.singleton)


def test_flipped_payload_byte_rebuilt(tmp_path):
    # the archive stays valid; only the stored checksum catches the flip
    topo = full_topology(2, [5, 5, 5])
    expected = build_retrievability_tables(topo)[1]
    path = save_table(expected, topo, cache_dir=tmp_path)
    with np.load(path) as z:
        arrays = dict(z)
    arrays["retrievable"][0] ^= 0x80
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    assert load_table(topo, 1, cache_dir=tmp_path) is None
    tables = load_or_build_tables(topo, cache_dir=tmp_path)
    assert np.array_equal(tables[1].retrievable, expected.retrievable)
    reloaded = load_table(topo, 1, cache_dir=tmp_path)
    assert reloaded is not None
    assert np.array_equal(reloaded.retrievable, expected.retrievable)


def _save_repeatedly(cache_dir, barrier):
    topo = full_topology(2, [5, 5, 5])
    tables = build_retrievability_tables(topo).values()
    barrier.wait()
    for _ in range(30):
        for table in tables:
            save_table(table, topo, cache_dir=cache_dir)


def test_concurrent_writers(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_save_repeatedly, args=(str(tmp_path), barrier))
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0, 0]
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".npz"] * 3
    topo = full_topology(2, [5, 5, 5])
    for t in range(3):
        loaded = load_table(topo, t, cache_dir=tmp_path)
        assert loaded is not None
        assert np.array_equal(
            loaded.retrievable, build_retrievability_tables(topo)[t].retrievable
        )


def test_compute_w_trivial_cases():
    topo = full_topology(2, [5, 5, 5])
    tables = load_or_build_tables(topo)
    ones = np.ones(3)
    zeros = np.zeros(3)
    # everyone retrieved/silent: only the all-zero companion pattern has
    # mass and it is always retrievable, so w = 0
    assert compute_w_coop(topo, tables, ones, zeros, ones, 0) == 0.0
    # target never the sole survivor of its own group: w = 1
    assert compute_w_coop(topo, tables, ones, zeros, zeros, 0) == 1.0


def test_pattern_mass_closure_simple():
    topo = full_topology(2, [5, 5, 5])
    rng = np.random.default_rng(0)
    r = rng.random(3)
    c = rng.random(3) * (1 - r)
    assert pattern_mass(topo, 0, r, c) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=15)
@given(seed=st.integers(0, 10**6))
def test_pattern_mass_closure_random(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    n = topo.num_groups
    r = rng.random(n)
    c = rng.random(n) * (1 - r)
    target = int(rng.integers(n))
    assert pattern_mass(topo, target, r, c) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=15)
@given(seed=st.integers(0, 10**6))
def test_dag_matches_direct_sum(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    n = topo.num_groups
    target = int(rng.integers(n))
    table = build_retrievability_tables(topo)[target]
    r = rng.random(n)
    c = rng.random(n) * (1 - r)
    v = np.stack([r, c, 1 - r - c])
    for mask in (table.retrievable, table.singleton, table.rescue):
        dag = PatternDag(mask[None], [companion_order(n, target)])
        direct = pattern_mass(topo, target, r, c, mask=mask)
        assert dag.evaluate(v)[0] == pytest.approx(direct, abs=1e-12)


def test_dag_batch_evaluation():
    topo = full_topology(2, [4, 4, 4])
    table = build_retrievability_tables(topo)[2]
    dag = PatternDag(table.retrievable[None], [companion_order(3, 2)])
    rng = np.random.default_rng(3)
    r = rng.random((3, 5))
    c = rng.random((3, 5)) * (1 - r)
    v = np.stack([r, c, 1 - r - c])  # (3, I, batch)
    batched = dag.evaluate(v)[0]
    for b in range(5):
        assert batched[b] == pytest.approx(dag.evaluate(v[:, :, b])[0], abs=1e-12)


def test_fused_dag_matches_per_root_direct_sums():
    rng = np.random.default_rng(7)
    topos = edge_topologies() + [random_topology(rng) for _ in range(15)]
    saw_no_companions = saw_empty_mask = False
    for topo in topos:
        n = topo.num_groups
        tables = list(build_retrievability_tables(topo).values())
        comps = [companion_order(n, i) for i in range(n)]
        r = rng.random((n, 4))
        c = rng.random((n, 4)) * (1 - r)
        v = np.stack([r, c, 1 - r - c])
        saw_no_companions |= n == 1
        for kind in ("retrievable", "singleton", "rescue"):
            masks = np.array([getattr(table, kind) for table in tables])
            saw_empty_mask |= not masks.any(axis=1).all()
            fused = PatternDag(masks, comps).evaluate(v)
            assert fused.shape == (n, 4)
            for i in range(n):
                # a single root runs the same node arithmetic
                single = PatternDag(masks[i : i + 1], [comps[i]]).evaluate(v)[0]
                assert np.array_equal(fused[i], single)
                for b in range(4):
                    direct = pattern_mass(topo, i, r[:, b], c[:, b], mask=masks[i])
                    assert fused[i, b] == pytest.approx(direct, abs=1e-12)
    assert saw_no_companions and saw_empty_mask


def test_pattern_states_mixed_radix():
    states = pattern_states(3, 0, 27)
    # group 0 is the most significant digit
    assert states[0].tolist() == [0, 0, 0]
    assert states[1].tolist() == [0, 0, 1]
    assert states[3].tolist() == [0, 1, 0]
    assert states[13].tolist() == [1, 1, 1]
    assert states[26].tolist() == [2, 2, 2]
    assert pattern_states(3, 9, 12).tolist() == [[1, 0, 0], [1, 0, 1], [1, 0, 2]]


def test_tables_match_per_pattern_peeling():
    rng = np.random.default_rng(17)
    topos = [full_topology(m, [5] * (2**m - 1)) for m in (1, 2, 3)]
    topos += edge_topologies() + [random_topology(rng) for _ in range(25)]
    for topo in topos:
        tables = build_retrievability_tables(topo)
        assert sorted(tables) == list(range(topo.num_groups))
        for t, table in tables.items():
            retrievable, singleton = reference_table(topo, t)
            assert np.array_equal(table.retrievable, retrievable), (topo, t)
            assert np.array_equal(table.singleton, singleton), (topo, t)


def test_full_m4_tables_match_per_pattern_peeling_at_sampled_patterns():
    topo = full_topology(4, [5] * 15)
    tables = load_or_build_tables(topo)
    rng = np.random.default_rng(4)
    for t, table in tables.items():
        idx = rng.integers(0, 3**14, size=2000)
        retrievable, singleton = reference_table(topo, t, idx)
        assert np.array_equal(table.retrievable[idx], retrievable), t
        assert np.array_equal(table.singleton[idx], singleton), t


def test_rc_sum_above_one_rejected():
    topo = full_topology(2, [5, 5, 5])
    tables = load_or_build_tables(topo)
    with pytest.raises(ValueError, match="exceeds 1"):
        compute_w_coop(topo, tables, np.ones(3), np.ones(3) * 0.5, np.ones(3), 0)


def test_table_validates_length():
    with pytest.raises(ValueError):
        RetrievabilityTable(0, 3, np.zeros(5, bool), np.zeros(5, bool))


def test_dag_matches_direct_sum_on_random_masks():
    # Unstructured masks share few subtrees, so the DAG build ranks wide
    # levels, some through its dense table and some through a sort.
    rng = np.random.default_rng(11)
    v = rng.random((3, 8, 2))
    for k in range(1, 7):
        comps = [tuple(rng.permutation(8)[:k]) for _ in range(5)]
        masks = rng.random((5, 3**k)) < rng.random((5, 1))
        digits = np.unravel_index(np.arange(3**k), (3,) * k)
        fused = PatternDag(masks, comps).evaluate(v)
        for mask, comp, got in zip(masks, comps, fused):
            terms = np.ones((3**k, 2))
            for d, g in zip(digits, comp):
                terms *= v[d, g]
            assert got == pytest.approx(mask @ terms, abs=1e-12)
