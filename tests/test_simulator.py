import math

import numpy as np
import pytest

import frameless.simulator as simulator
from frameless.simulator import (
    RNG_ID,
    SimulationSpec,
    _bernoulli_slots,
    _EdgePeeler,
    monte_carlo,
    run_fixed_frame,
    run_frame,
    run_spatio_temporal,
)
from frameless.topology import GroupSpec, NetworkTopology, full_topology

import oracles
from conftest import random_topology
from oracles import _frameless_run


def test_lone_user_always_singleton():
    topo = full_topology(1, [1])
    res = run_frame(topo, (1.0,), alpha=1.0, seed=0)
    assert res.t == 1
    assert res.throughput == 1.0
    assert res.terminated_by == "threshold"


def test_threshold_termination_retrieves_enough():
    topo = full_topology(1, [500])
    res = run_frame(topo, (3.0,), alpha=0.8, seed=3)
    assert res.terminated_by == "threshold"
    assert res.n_ret >= math.floor(0.8 * 500)


def test_slot_cap_flagged():
    topo = full_topology(1, [100])
    res = run_frame(topo, (0.05,), alpha=1.0, seed=1, slot_cap=5)
    assert res.terminated_by == "slot_cap"
    assert res.t == 5


def test_alpha_validation():
    topo = full_topology(1, [100])
    with pytest.raises(ValueError):
        run_frame(topo, (3.0,), alpha=0.0, seed=0)
    with pytest.raises(ValueError):
        run_frame(topo, (3.0,), alpha=1.2, seed=0)


@pytest.mark.parametrize(
    "settings",
    [
        dict(mode="slotted", degrees=(3.0,)),
        dict(mode="frameless", degrees=(3.0,), alpha=1.5),
        dict(mode="frameless", degrees=(3.0,), slot_cap=0),
        dict(mode="frameless"),
        dict(mode="frameless", degrees=(3.0, 3.0)),
        dict(mode="fixed", degrees=(3.0,)),
        dict(mode="fixed", degrees=(3.0,), t_slots=0),
        dict(mode="fixed", degrees=(3.0,), t_slots=50, alpha=0.0),
        dict(mode="spatio", t_slots=50),
        dict(mode="spatio", replica_dist=((2, 1.0),)),
        dict(mode="spatio", replica_dist=((2, 0.5),), t_slots=50),
        dict(mode="spatio", replica_dist=((2, float("nan")),), t_slots=50),
        dict(mode="spatio", replica_dist=((0, 1.0),), t_slots=50),
        dict(mode="spatio", replica_dist=((60, 1.0),), t_slots=50),
    ],
    ids=["mode-unknown", "alpha-above-1", "slot-cap-0", "no-degrees",
         "degrees-wrong-length", "fixed-without-t", "fixed-t-0", "alpha-0",
         "spatio-without-replica", "spatio-without-t", "replica-not-a-mass",
         "replica-nan", "replica-count-0", "replica-count-above-t"],
)
def test_spec_checks_its_settings_before_any_trial(settings):
    with pytest.raises(ValueError):
        SimulationSpec(topology=full_topology(1, [100]), **settings)


def test_fixed_frame_t_zero_rejected():
    topo = full_topology(1, [10])
    with pytest.raises(ValueError):
        run_fixed_frame(topo, (1.0,), 0, seed=0)


def test_determinism_same_seed():
    topo = full_topology(2, [200, 200, 200])
    a = run_frame(topo, (1.8, 1.8, 1.7), alpha=0.8, seed=42)
    b = run_frame(topo, (1.8, 1.8, 1.7), alpha=0.8, seed=42)
    assert a.t == b.t
    assert np.array_equal(a.retrieved_per_group, b.retrieved_per_group)
    c = run_frame(topo, (1.8, 1.8, 1.7), alpha=0.8, seed=43)
    assert (a.t, a.n_ret) != (c.t, c.n_ret) or not np.array_equal(
        a.retrieved_per_group, c.retrieved_per_group
    )


def test_conservation():
    topo = full_topology(2, [50, 50, 50])
    res = run_fixed_frame(topo, (1.5, 1.5, 1.5), 100, seed=9)
    assert res.n_ret == res.retrieved_per_group.sum() <= topo.num_users
    assert (res.retrieved_per_group <= [50, 50, 50]).all()


def test_worker_count_does_not_change_results():
    topo = full_topology(2, [100, 100, 100])
    spec = SimulationSpec(topology=topo, mode="frameless",
                          degrees=(1.8, 1.8, 1.7), alpha=0.9, master_seed=17)
    a = monte_carlo(spec, trials=6, workers=1)
    b = monte_carlo(spec, trials=6, workers=2)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.n_ret, b.n_ret)
    assert np.array_equal(a.plr_groups, b.plr_groups)


def test_single_trial_reduces_to_run_frame():
    topo = full_topology(1, [50])
    spec = SimulationSpec(topology=topo, mode="frameless", degrees=(3.0,),
                          alpha=0.8, master_seed=5)
    mc = monte_carlo(spec, trials=1)
    direct = run_frame(topo, (3.0,), alpha=0.8, seed=spec.trial_seed(0))
    assert mc.t[0] == direct.t
    assert mc.n_ret[0] == direct.n_ret
    assert mc.stderr_throughput == 0.0


def _bucket_tables(peel):
    """Count and id sum of every bucket, rebuilt from the alive users' edges."""
    alive = np.flatnonzero(peel.alive)
    users = alive.repeat(peel.deg[alive])
    edges = np.concatenate([peel.edges[peel.start[u] : peel.start[u] + peel.deg[u]] for u in alive])
    count = np.bincount(edges, minlength=len(peel.count))
    idsum = np.zeros(len(peel.count), np.int64)
    np.add.at(idsum, edges, users)
    return count, idsum


def test_atomic_multi_bs_reception():
    # single group heard by both BSs: bucket contents must mirror exactly
    topo = NetworkTopology(2, (GroupSpec(0b11, 30),))
    peel = _EdgePeeler(topo)
    peel.extend(np.array([7, 9]), np.array([0, 0], np.int32), 1)
    assert peel.count[0] == peel.count[1] == 2
    assert peel.idsum[0] == peel.idsum[1] == 16
    # and stay mirrored through random slots and peeling
    slots = _bernoulli_slots(np.random.default_rng(4), topo, (1.5,), 1, 20)
    peel.extend(*slots, 20)
    peel.peel(0, 20)
    assert 0 < peel.n_ret < 30
    assert np.array_equal(peel.count[0::2], peel.count[1::2])
    assert np.array_equal(peel.idsum[0::2], peel.idsum[1::2])


def test_sic_fixpoint_no_singletons_left():
    # drive a peeler by hand, adding slots in ranges and peeling in blocks,
    # and verify that once it settles no bucket holds exactly one
    # un-retrieved user and the buckets hold exactly the alive users' edges
    topo = full_topology(2, [40, 40, 40])
    peel = _EdgePeeler(topo)
    rng = np.random.default_rng(21)
    t = 0
    for horizon in (20, 45, 60):
        slots = _bernoulli_slots(rng, topo, (1.2, 1.2, 0.8), peel.horizon, horizon)
        peel.extend(*slots, horizon)
        for t_next in range(t + 7, horizon + 7, 7):
            peel.peel(t, min(t_next, horizon))
            t = min(t_next, horizon)
            assert not (peel.count[: t * 2] == 1).any()
    assert 0 < peel.n_ret < topo.num_users  # losses exist at this load
    assert peel.n_ret == (~peel.alive).sum()
    assert not (peel.count == 1).any()
    count, idsum = _bucket_tables(peel)
    assert np.array_equal(peel.count, count)
    assert np.array_equal(peel.idsum, idsum)


def test_zero_degree_group_never_retrieved():
    # p = 0 in a non-empty group: geometric(0) is undefined, the group just
    # never transmits
    topo = full_topology(2, [20, 20, 20])
    degrees = (1.0, 1.0, 0.0)
    fixed = run_fixed_frame(topo, degrees, 60, seed=3)
    framed = run_frame(topo, degrees, alpha=0.5, seed=3)
    for res in (fixed, framed):
        assert res.retrieved_per_group[2] == 0
        assert res.retrieved_per_group[:2].sum() > 0
    assert framed.terminated_by == "threshold"
    capped = run_frame(topo, degrees, alpha=0.9, seed=3, slot_cap=300)
    assert capped.terminated_by == "slot_cap" and capped.t == 300
    assert capped.retrieved_per_group[2] == 0


def test_full_load_group():
    # G = N_g (p = 1): the group sends in every slot
    lone = NetworkTopology(2, (GroupSpec(0b01, 1), GroupSpec(0b10, 5)))
    res = run_fixed_frame(lone, (1.0, 1.0), 40, seed=5)
    assert res.retrieved_per_group[0] == 1  # alone at BS 1 in slot 0
    crowd = full_topology(1, [3])
    res = run_fixed_frame(crowd, (3.0,), 25, seed=5)
    assert res.n_ret == 0  # three users collide in every slot
    res = run_frame(crowd, (3.0,), alpha=1.0, seed=5, slot_cap=9)
    assert (res.t, res.n_ret, res.terminated_by) == (9, 0, "slot_cap")


@pytest.mark.parametrize("block", [1, 3, simulator._BLOCK])
def test_block_size_does_not_change_frames(monkeypatch, block):
    # slots are drawn per slot range, never per block, and the block that
    # crosses the threshold is replayed slot by slot: the first slot that
    # reaches floor(alpha*N) is the same for every block size
    cases = [
        (full_topology(1, [300]), (3.1,), None),
        (full_topology(2, [200, 200, 200]), (1.81, 1.81, 1.68), None),
        (full_topology(3, [60] * 7), (1.11, 1.11, 0.94, 1.11, 0.94, 0.94, 0.78), None),
        (full_topology(2, [200, 200, 200]), (1.81, 1.81, 1.68), 130),
    ]
    expected = []
    for topo, g, cap in cases:
        for seed in range(3):
            res = run_frame(topo, g, alpha=0.8, seed=seed, slot_cap=cap)
            expected.append((res.t, tuple(res.retrieved_per_group), res.terminated_by))
    monkeypatch.setattr(simulator, "_BLOCK", block)
    got = []
    for topo, g, cap in cases:
        for seed in range(3):
            res = run_frame(topo, g, alpha=0.8, seed=seed, slot_cap=cap)
            got.append((res.t, tuple(res.retrieved_per_group), res.terminated_by))
    assert got == expected
    assert {e[2] for e in expected} == {"threshold", "slot_cap"}


@pytest.mark.parametrize("mode", ["frameless", "fixed"])
def test_matches_slot_by_slot_oracle(mode):
    # two-sample check against the slot-by-slot simulator: mean T, n_ret
    # and per-group PLR agree within 4 standard errors
    topo = full_topology(2, [200, 200, 200])
    g = (1.81, 1.81, 1.68)
    trials = 150
    kw = dict(threshold=480, slot_cap=1000) if mode == "frameless" else dict(
        threshold=None, slot_cap=300
    )
    new, old = [], []
    for k in range(trials):
        seed = np.random.SeedSequence(entropy=31, spawn_key=(k,))
        if mode == "frameless":
            new.append(run_frame(topo, g, 0.8, seed, slot_cap=1000))
        else:
            new.append(run_fixed_frame(topo, g, 300, seed))
        old.append(_frameless_run(topo, g, np.random.SeedSequence(entropy=32, spawn_key=(k,)), **kw))
    for name, f in (
        ("T", lambda r: [r.t]),
        ("n_ret", lambda r: [r.n_ret]),
        ("plr", lambda r: r.plr_groups(topo)),
    ):
        a = np.array([f(r) for r in new], dtype=float)
        b = np.array([f(r) for r in old], dtype=float)
        se = np.sqrt(a.var(axis=0, ddof=1) / trials + b.var(axis=0, ddof=1) / trials)
        diff = np.abs(a.mean(axis=0) - b.mean(axis=0))
        assert (diff <= 4 * se + 1e-12).all(), (mode, name, diff, se)
    assert {r.terminated_by for r in new} == {r.terminated_by for r in old}


def test_spatio_temporal_single_user():
    topo = full_topology(1, [1])
    res = run_spatio_temporal(topo, {1: 1.0}, 5, seed=0)
    assert res.n_ret == 1


def test_spatio_temporal_degree_exceeds_frame():
    topo = full_topology(1, [10])
    with pytest.raises(ValueError):
        run_spatio_temporal(topo, {6: 1.0}, 5, seed=0)


def test_spatio_temporal_bad_mass():
    topo = full_topology(1, [10])
    with pytest.raises(ValueError):
        run_spatio_temporal(topo, {1: 0.4, 2: 0.4}, 5, seed=0)


def test_spatio_replica_count():
    # with Lambda = {2: 1}, every user lands in exactly two distinct slots
    topo = full_topology(1, [40])
    peel_res = run_spatio_temporal(topo, {2: 1.0}, 200, seed=8)
    # sparse frame: essentially everyone decoded
    assert peel_res.n_ret >= 38


def test_plr_floor_fixed_frame():
    # simulated PLR cannot beat the never-transmitted floor (3 sigma)
    topo = full_topology(1, [300])
    g, t, trials = (0.9,), 200, 40
    p = 0.9 / 300
    floor = (1 - p) ** t
    spec = SimulationSpec(topology=topo, mode="fixed", degrees=g, t_slots=t,
                          master_seed=11)
    mc = monte_carlo(spec, trials=trials, workers=2)
    sigma = math.sqrt(floor * (1 - floor) / (trials * 300))
    assert mc.mean_plr >= floor - 3 * sigma


def test_empty_group_plr_one():
    topo = full_topology(2, [20, 20, 0])
    res = run_fixed_frame(topo, (1.0, 1.0, 0.0), 50, seed=2)
    assert res.plr_groups(topo)[2] == 1.0


def test_csv_and_summary_shape():
    topo = full_topology(2, [30, 30, 30])
    spec = SimulationSpec(topology=topo, mode="frameless",
                          degrees=(1.5, 1.5, 1.5), alpha=0.8, master_seed=1)
    mc = monte_carlo(spec, trials=3)
    summary = mc.summary()
    assert summary["rng"] == RNG_ID
    assert summary["trials"] == 3


M1 = full_topology(1, [300])
M2 = full_topology(2, [200, 200, 200])
M3 = full_topology(3, [60] * 7)
G1, G2, G3 = (3.1,), (1.81, 1.81, 1.68), (1.11, 1.11, 0.94, 1.11, 0.94, 0.94, 0.78)


def _frames(run, seeds=range(3)):
    out = []
    for seed in seeds:
        res = run(seed)
        out.append((res.t, tuple(int(v) for v in res.retrieved_per_group), res.terminated_by))
    return out


def test_rng_stream_is_pinned():
    # literal frames of an earlier revision: a change to the draws or to the
    # peeling moves at least one of them
    assert RNG_ID == "numpy-philox4x64-10-gaps"
    assert _frames(lambda s: run_frame(M1, G1, 0.8, s)) == [
        (319, (265,), "threshold"), (359, (292,), "threshold"), (337, (282,), "threshold"),
    ]
    assert _frames(lambda s: run_frame(M2, G2, 0.8, s)) == [
        (317, (167, 171, 157), "threshold"),
        (402, (194, 195, 192), "threshold"),
        (314, (180, 181, 168), "threshold"),
    ]
    assert _frames(lambda s: run_frame(M3, G3, 0.8, s)) == [
        (155, (52, 50, 49, 51, 48, 51, 48), "threshold"),
        (181, (56, 57, 55, 60, 58, 58, 54), "threshold"),
        (170, (54, 52, 51, 59, 55, 55, 54), "threshold"),
    ]
    assert _frames(lambda s: run_frame(M2, G2, 0.8, s, slot_cap=130)) == [
        (130, (14, 15, 15), "slot_cap"), (130, (11, 8, 15), "slot_cap"), (130, (11, 7, 15), "slot_cap"),
    ]
    assert _frames(lambda s: run_fixed_frame(M2, G2, 300, s)) == [
        (300, (55, 54, 75), "fixed"), (300, (30, 38, 39), "fixed"), (300, (29, 28, 45), "fixed"),
    ]
    assert _frames(lambda s: run_spatio_temporal(M3, {2: 1.0}, 200, s)) == [
        (200, (60, 60, 60, 60, 60, 60, 60), "fixed"),
        (200, (60, 58, 60, 60, 60, 60, 60), "fixed"),
        (200, (53, 52, 51, 54, 58, 43, 51), "fixed"),
    ]


def _assert_same_state(new, old):
    for name in ("count", "idsum", "alive", "deg", "start"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
    assert new.n_ret == old.n_ret
    # each user's edges as a set: order within a user's block is free
    owner = np.arange(len(old.deg)).repeat(old.deg)
    for peel in (new, old):
        assert len(peel.edges) == len(owner)
    a = np.lexsort((new.edges, owner))
    b = np.lexsort((old.edges, owner))
    assert np.array_equal(new.edges[a], old.edges[b])


def _random_transmissions(rng, n, lo, hi):
    """int64 users and slots in [lo, hi), each user at most once per slot,
    in random order (as the framed baseline hands them over)."""
    users, slots = np.nonzero(rng.random((n, hi - lo)) < rng.uniform(0.01, 0.2))
    order = rng.permutation(len(users))
    return users[order], (slots + lo)[order].astype(np.int32)


@pytest.mark.parametrize("ids", ["int32", "int64"])
def test_peeler_matches_plain_kernels(ids):
    # the plain extend and peel of tests/oracles.py and the peeler driven
    # through one random sequence of extends, block peels and block
    # restores: the same bucket tables and per-user edge sets after every
    # call, and the same draws from the same stream
    rng = np.random.default_rng(15 if ids == "int32" else 16)
    restores = late = 0  # block restores; extends after a retrieval
    for _ in range(8):
        topo = random_topology(rng, max_users=60)
        n = topo.num_users
        degrees = tuple(float(g) for g in rng.uniform(0.3, 2.5, topo.num_groups))
        new, old = _EdgePeeler(topo), oracles.EdgePeeler(topo)
        seed = int(rng.integers(1 << 30))
        draw_new, draw_old = np.random.default_rng(seed), np.random.default_rng(seed)
        t = horizon = 0
        for _ in range(4):
            late += new.n_ret > 0
            lo, horizon = horizon, horizon + int(rng.integers(1, 40))
            if ids == "int32":
                sent = _bernoulli_slots(draw_new, topo, degrees, lo, horizon)
                plain = oracles.bernoulli_slots(draw_old, topo, degrees, lo, horizon)
                assert sent[0].dtype == np.int32
                assert all(np.array_equal(a, b) for a, b in zip(sent, plain))
            else:
                sent = plain = _random_transmissions(rng, n, lo, horizon)
            new.extend(*sent, horizon)
            old.extend(*plain, horizon)
            _assert_same_state(new, old)
            while t < horizon:
                t_next = min(horizon, t + int(rng.integers(1, 12)))
                snaps = new.snapshot(), old.snapshot()
                new.peel(t, t_next)
                old.peel(t, t_next)
                _assert_same_state(new, old)
                if rng.random() < 0.3:
                    new.restore(snaps[0])
                    old.restore(snaps[1])
                    _assert_same_state(new, old)
                    restores += 1
                    t_next = t + 1
                    new.peel(t, t_next)
                    old.peel(t, t_next)
                    _assert_same_state(new, old)
                t = t_next
    assert restores > 0 and late > 0
