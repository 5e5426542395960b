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
    _checksum,
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
    retrievable, singleton = build_retrievability_tables(topo)
    states = [1, 2, 0, 0, 0, 0, 1]
    k = pattern_index(states, 0, 7)
    assert retrievable[0, k]
    assert not singleton[0, k]  # rescued from a collision, not collision-free


def test_all_silent_companions_retrievable():
    topo = appendix_m3()
    retrievable, singleton = build_retrievability_tables(topo)
    k = pattern_index([1, 0, 0, 0, 0, 0, 0], 0, 7)
    assert retrievable[0, k]
    assert singleton[0, k]


def test_all_neighbors_collided_blocked():
    # every group sharing a BS with the target is in state 2
    topo = appendix_m3()
    retrievable, _ = build_retrievability_tables(topo)
    # target u1 at BS1; groups at BS1: u4={1,2}, u6={1,3}, u7={1,2,3}
    states = [1, 0, 0, 2, 0, 2, 2]
    assert not retrievable[0, pattern_index(states, 0, 7)]


def test_triple_group_never_rescued():
    # the all-BS group can only be retrieved collision-free
    topo = appendix_m3()
    retrievable, singleton = build_retrievability_tables(topo)
    assert not (retrievable[6] & ~singleton[6]).any()


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
    monkeypatch.setattr(wg, "_CHUNK", 3**4)  # 27 chunks over 3^7 patterns
    t_parallel = build_retrievability_tables(topo, workers=2)
    for serial, parallel in zip(t_serial, t_parallel):
        assert serial.shape == (7, 3**6)
        assert np.array_equal(serial, parallel)


def assert_tables_equal(got, expected):
    assert got is not None
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def cache_files(cache_dir):
    return sorted(p.name for p in cache_dir.iterdir())


def test_cache_roundtrip(tmp_path):
    topo = full_topology(2, [5, 5, 5])
    tables = build_retrievability_tables(topo)
    path = save_table(tables, topo, cache_dir=tmp_path)
    assert path.name == f"walktab-v3-{structure_fingerprint(topo)}.npz"
    assert_tables_equal(load_table(topo, cache_dir=tmp_path), tables)
    # counts don't invalidate the cache; connectivity does
    other_counts = full_topology(2, [9, 9, 9])
    assert load_table(other_counts, cache_dir=tmp_path) is not None
    other_struct = NetworkTopology(
        num_bs=2, groups=(GroupSpec(0b01, 5), GroupSpec(0b11, 5))
    )
    assert load_table(other_struct, cache_dir=tmp_path) is None
    retrievable, singleton = load_or_build_tables(other_struct, cache_dir=tmp_path)
    assert retrievable.shape == singleton.shape == (2, 3)
    assert len(cache_files(tmp_path)) == 2


def assert_miss_rebuilt(topo, cache_dir, expected):
    """The damaged file is a miss; one load_or_build_tables replaces it."""
    assert load_table(topo, cache_dir=cache_dir) is None
    assert_tables_equal(load_or_build_tables(topo, cache_dir=cache_dir), expected)
    assert_tables_equal(load_table(topo, cache_dir=cache_dir), expected)
    assert len(cache_files(cache_dir)) == 1


@pytest.mark.parametrize("damage", ["truncated", "empty"])
def test_damaged_cache_file_rebuilt(tmp_path, damage):
    topo = full_topology(2, [5, 5, 5])
    tables = build_retrievability_tables(topo)
    path = save_table(tables, topo, cache_dir=tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2] if damage == "truncated" else b"")
    assert_miss_rebuilt(topo, tmp_path, tables)


def test_cache_file_of_other_topology_rebuilt(tmp_path):
    topo = full_topology(2, [5, 5, 5])
    other = NetworkTopology(
        num_bs=2, groups=(GroupSpec(0b11, 5), GroupSpec(0b01, 5), GroupSpec(0b10, 5))
    )
    stale = build_retrievability_tables(topo)
    expected = build_retrievability_tables(other)
    assert not np.array_equal(stale[0], expected[0])
    path = save_table(stale, topo, cache_dir=tmp_path)
    path.rename(
        path.with_name(
            path.name.replace(structure_fingerprint(topo), structure_fingerprint(other))
        )
    )
    assert_miss_rebuilt(other, tmp_path, expected)


def resave(path, edit):
    """Rewrite a cache file with edit(arrays) applied; the archive stays valid."""
    with np.load(path) as z:
        arrays = dict(z)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def test_flipped_payload_byte_rebuilt(tmp_path):
    # only the stored checksum catches the flip
    def flip(arrays):
        arrays["retrievable"][0] ^= 0x80

    topo = full_topology(2, [5, 5, 5])
    expected = build_retrievability_tables(topo)
    resave(save_table(expected, topo, cache_dir=tmp_path), flip)
    assert_miss_rebuilt(topo, tmp_path, expected)


def test_short_payload_with_matching_checksum_rebuilt(tmp_path):
    # unpackbits(count=...) zero-pads a short payload, so only the length
    # check catches a file whose checksum was taken over the short bytes
    def shorten(arrays):
        arrays["retrievable"] = arrays["retrievable"][:-1]
        arrays["checksum"] = np.str_(_checksum(arrays["retrievable"], arrays["singleton"]))

    topo = full_topology(2, [5, 5, 5])
    expected = build_retrievability_tables(topo)
    resave(save_table(expected, topo, cache_dir=tmp_path), shorten)
    assert_miss_rebuilt(topo, tmp_path, expected)


def test_per_target_v2_file_neither_read_nor_deleted(tmp_path):
    topo = full_topology(2, [5, 5, 5])
    retrievable, singleton = expected = build_retrievability_tables(topo)
    fingerprint = structure_fingerprint(topo)
    old = tmp_path / f"walktab-v2-{fingerprint}-t0.npz"
    packed = np.packbits(retrievable[0]), np.packbits(singleton[0])
    with open(old, "wb") as fh:
        np.savez_compressed(
            fh,
            version=np.int64(2),
            fingerprint=np.str_(fingerprint),
            target=np.int64(0),
            num_groups=np.int64(3),
            retrievable=packed[0],
            singleton=packed[1],
            checksum=np.str_(_checksum(*packed)),
        )
    data = old.read_bytes()
    assert load_table(topo, cache_dir=tmp_path) is None
    assert_tables_equal(load_or_build_tables(topo, cache_dir=tmp_path), expected)
    assert old.read_bytes() == data
    assert cache_files(tmp_path) == [old.name, f"walktab-v3-{fingerprint}.npz"]


def _save_repeatedly(cache_dir, barrier):
    topo = full_topology(2, [5, 5, 5])
    tables = build_retrievability_tables(topo)
    barrier.wait()
    for _ in range(90):
        save_table(tables, topo, cache_dir=cache_dir)


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
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
    topo = full_topology(2, [5, 5, 5])
    assert_tables_equal(
        load_table(topo, cache_dir=tmp_path), build_retrievability_tables(topo)
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
    retrievable, singleton = build_retrievability_tables(topo)
    retrievable, singleton = retrievable[target], singleton[target]
    r = rng.random(n)
    c = rng.random(n) * (1 - r)
    v = np.stack([r, c, 1 - r - c])
    for mask in (retrievable, singleton, retrievable & ~singleton):
        dag = PatternDag(mask[None], [companion_order(n, target)])
        direct = pattern_mass(topo, target, r, c, mask=mask)
        assert dag.evaluate(v)[0] == pytest.approx(direct, abs=1e-12)


def test_dag_batch_evaluation():
    topo = full_topology(2, [4, 4, 4])
    retrievable, _ = build_retrievability_tables(topo)
    dag = PatternDag(retrievable[2:], [companion_order(3, 2)])
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
        retrievable, singleton = build_retrievability_tables(topo)
        comps = [companion_order(n, i) for i in range(n)]
        r = rng.random((n, 4))
        c = rng.random((n, 4)) * (1 - r)
        v = np.stack([r, c, 1 - r - c])
        saw_no_companions |= n == 1
        for masks in (retrievable, singleton, retrievable & ~singleton):
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
        n = topo.num_groups
        retrievable, singleton = build_retrievability_tables(topo)
        assert retrievable.shape == singleton.shape == (n, 3 ** (n - 1))
        for t in range(n):
            ref_retrievable, ref_singleton = reference_table(topo, t)
            assert np.array_equal(retrievable[t], ref_retrievable), (topo, t)
            assert np.array_equal(singleton[t], ref_singleton), (topo, t)


def test_full_m4_tables_match_per_pattern_peeling_at_sampled_patterns():
    topo = full_topology(4, [5] * 15)
    retrievable, singleton = load_or_build_tables(topo)
    rng = np.random.default_rng(4)
    for t in range(15):
        idx = rng.integers(0, 3**14, size=2000)
        ref_retrievable, ref_singleton = reference_table(topo, t, idx)
        assert np.array_equal(retrievable[t, idx], ref_retrievable), t
        assert np.array_equal(singleton[t, idx], ref_singleton), t


def test_rc_sum_above_one_rejected():
    topo = full_topology(2, [5, 5, 5])
    tables = load_or_build_tables(topo)
    with pytest.raises(ValueError, match="exceeds 1"):
        compute_w_coop(topo, tables, np.ones(3), np.ones(3) * 0.5, np.ones(3), 0)


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
