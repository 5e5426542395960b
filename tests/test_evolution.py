import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from frameless.evolution import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SUB_MARGIN,
    CoopEngine,
    NoncoopEngine,
    PlrCurve,
    _RowPool,
    batched_peak_search,
    batched_peaks,
    default_t_grid,
    evolve,
    make_engine,
    peak_search,
    peak_t,
    simultaneous_transmission_degrees,
)
from frameless.topology import (
    GroupSpec,
    NetworkTopology,
    TargetDegreeVector,
    full_topology,
    load_topology,
)
from frameless.walkgraph import load_or_build_tables
from conftest import edge_topologies, random_topology
from oracles import pattern_mass

MODES = ("coop", "noncoop", "bound")
ROW_FIELDS = ("w", "x", "plr_groups", "plr_avg", "throughput", "iterations", "converged")


@functools.lru_cache(maxsize=None)
def exhaustive_tiny_plr(topo, g, t_slots, share):
    """Independent oracle: enumerate every transmission realization of a
    tiny network and run set-based SIC on each. Cached, because the
    criterion-8 check reuses the two sums the tests here take."""
    groups_of_user = []
    for i, grp in enumerate(topo.groups):
        groups_of_user += [i] * grp.num_users
    n_users = len(groups_of_user)
    bs0 = [tuple(j - 1 for j in grp.bs_set) for grp in topo.groups]
    p = [gi / grp.num_users for gi, grp in zip(g, topo.groups)]
    total = 0.0
    plr = 0.0
    for idx in range(2 ** (n_users * t_slots)):
        bits = [
            [(idx >> (u * t_slots + t)) & 1 for t in range(t_slots)]
            for u in range(n_users)
        ]
        weight = 1.0
        for u in range(n_users):
            pu = p[groups_of_user[u]]
            for t in range(t_slots):
                weight *= pu if bits[u][t] else (1 - pu)
        buckets = {}
        for u in range(n_users):
            for t in range(t_slots):
                if bits[u][t]:
                    for b in bs0[groups_of_user[u]]:
                        buckets.setdefault((b, t), set()).add(u)
        if share:
            alive = [True] * n_users
            changed = True
            while changed:
                changed = False
                for members in buckets.values():
                    if len(members) == 1:
                        (u,) = members
                        for m2 in buckets.values():
                            m2.discard(u)
                        alive[u] = False
                        changed = True
                        break
            lost = sum(alive)
        else:
            retrieved = [False] * n_users
            for b in range(topo.num_bs):
                local = {t: set(m) for (bb, t), m in buckets.items() if bb == b}
                changed = True
                while changed:
                    changed = False
                    for members in local.values():
                        if len(members) == 1:
                            (u,) = members
                            for m2 in local.values():
                                m2.discard(u)
                            retrieved[u] = True
                            changed = True
                            break
            lost = n_users - sum(retrieved)
        plr += weight * lost / n_users
        total += weight
    assert abs(total - 1.0) < 1e-9
    return plr


def test_noncoop_matches_exhaustive_tiny(topo_tiny):
    # finite-size gap acknowledged; the asymptotic analysis sits within 0.05
    exact = exhaustive_tiny_plr(topo_tiny, (1.0, 1.0, 1.0), 3, share=False)
    de = evolve(topo_tiny, (1.0, 1.0, 1.0), 3, "noncoop")
    assert de.plr_avg == pytest.approx(exact, abs=0.05)


def test_coop_matches_exhaustive_tiny_light_load(topo_tiny):
    exact = exhaustive_tiny_plr(topo_tiny, (0.75, 0.75, 0.75), 3, share=True)
    de = evolve(topo_tiny, (0.75, 0.75, 0.75), 3)
    assert de.plr_avg == pytest.approx(exact, abs=0.05)


def test_zero_degrees_lose_everything(topo_m2):
    res = evolve(topo_m2, (0.0, 0.0, 0.0), 100)
    assert np.allclose(res.plr, 1.0)
    res_nc = evolve(topo_m2, (0.0, 0.0, 0.0), 100, "noncoop")
    assert np.allclose(res_nc.plr, 1.0)


def test_empty_group_reports_plr_one():
    topo = full_topology(2, (10000, 10000, 0))
    res = evolve(topo, (3.098, 3.098, 0.0), 11000)
    assert res.plr[2] == 1.0
    assert res.plr[0] < 0.2  # populated groups still decode


def test_m1_coop_equals_noncoop(topo_m1):
    for t in (5000, 9000, 11000, 15000):
        rc = evolve(topo_m1, (3.10,), t)
        rn = evolve(topo_m1, (3.10,), t, "noncoop")
        assert rc.plr_avg == pytest.approx(rn.plr_avg, abs=1e-9)


def test_disjoint_bs_coop_equals_noncoop():
    # no overlap: cooperation has nothing to share
    topo = NetworkTopology(2, (GroupSpec(0b01, 5000), GroupSpec(0b10, 5000)))
    for t in (2000, 3000, 4000):
        rc = evolve(topo, (3.0, 3.0), t)
        rn = evolve(topo, (3.0, 3.0), t, "noncoop")
        assert np.abs(rc.plr - rn.plr).max() < 1e-9


def test_monotone_x_iterates(topo_m2):
    g = (1.81, 1.81, 1.68)
    prev = None
    for max_iter in range(1, 16):
        res = evolve(topo_m2, g, 16000, max_iter=max_iter)
        if prev is not None:
            assert (res.x <= prev + 1e-12).all()
        prev = res.x


def test_probability_closure(topo_m2):
    res = evolve(topo_m2, (1.81, 1.81, 1.68), 16000)
    for arr in (res.plr, res.w, res.x):
        assert (arr >= -1e-9).all() and (arr <= 1 + 1e-9).all()


def test_convergence_flag():
    topo = full_topology(1, [10000])
    res = evolve(topo, (3.10,), 11000, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    res2 = evolve(topo, (3.10,), 11000)
    assert res2.converged


def test_coop_not_worse_on_reference_networks():
    # cooperation helps at the operating points that matter: with equal
    # degrees the cooperative peak dominates the non-cooperative one, and
    # at the cooperative peak frame length the PLR ordering holds; deep in
    # the error-floor regime the ordering is not a theorem because the
    # non-cooperative analysis multiplies per-BS failure probabilities as
    # if independent (see test_acceptance for the faithful statement)
    cases = [
        (full_topology(2, [10000] * 3), (1.81, 1.81, 1.68)),
        (full_topology(2, [1000, 1000, 10000]), (1.621, 1.621, 3.063)),
        (full_topology(2, [10000, 10000, 1000]), (3.051, 3.051, 1.869)),
    ]
    for topo, g in cases:
        pc = peak_search(topo, g, "coop")
        pn = peak_search(topo, g, "noncoop")
        assert pc.throughput >= pn.throughput - 1e-9
        rn = evolve(topo, g, pc.t_star, "noncoop")
        assert pc.plr_avg <= rn.plr_avg + 1e-9


def test_product_approximation_squares_shared_failures():
    # one group heard by two BSs: both BSs see identical slots, so the
    # cooperative chain reduces to the single-BS recursion while the
    # non-cooperative combination multiplies two identical failure
    # probabilities; the flipped ordering is pinned here on purpose
    topo = NetworkTopology(2, (GroupSpec(0b11, 5000),))
    single = full_topology(1, [5000])
    for t in (1200, 1600, 2000):
        rc = evolve(topo, (3.0,), t)
        rn = evolve(topo, (3.0,), t, "noncoop")
        ref = evolve(single, (3.0,), t)
        assert rc.plr_avg == pytest.approx(ref.plr_avg, abs=1e-9)
        assert rn.w[0] == pytest.approx(rc.w[0] ** 2, abs=1e-9)
        assert rn.plr_avg <= rc.plr_avg + 1e-12


@settings(max_examples=10)
@given(seed=st.integers(0, 10**6))
def test_probabilities_stay_unit_random(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, max_users=60)
    g = tuple(
        float(rng.uniform(0, min(4.0, grp.num_users))) if grp.num_users else 0.0
        for grp in topo.groups
    )
    t = int(rng.integers(1, 300))
    res = evolve(topo, g, t)
    for arr in (res.plr, res.w, res.x):
        assert (arr >= -1e-9).all() and (arr <= 1 + 1e-9).all()


def test_trace_decomposition(topo_m3):
    engine = CoopEngine(topo_m3)
    res = evolve(topo_m3, (1.11, 1.11, 0.94, 1.11, 0.94, 0.94, 0.78),
                 25777, engine=engine, trace=True)
    assert res.trace_r0.shape == (res.iterations, 7)
    # w at the last iteration is exactly 1 - (P_r0 + P_r1)
    w_from_trace = 1.0 - (res.trace_r0[-1] + res.trace_r1[-1])
    assert np.allclose(w_from_trace, res.w, atol=1e-12)
    # collision-free retrievals dominate the cooperative rescues at the end
    assert (res.trace_r0[-1] > res.trace_r1[-1]).all()


def test_engine_p_r0_p_r1_match_pattern_sums(topo_m3):
    engine = CoopEngine(topo_m3)
    rng = np.random.default_rng(5)
    big_r = rng.random((1, 7))
    big_c = rng.random((1, 7)) * (1 - big_r)
    p0, p1 = engine._p_r(big_r, big_c)
    retrievable, singleton = load_or_build_tables(topo_m3)
    rescue = retrievable & ~singleton
    for gi in range(7):
        ref0 = pattern_mass(topo_m3, gi, big_r[0], big_c[0], mask=singleton[gi])
        ref1 = pattern_mass(topo_m3, gi, big_r[0], big_c[0], mask=rescue[gi])
        assert p0[0, gi] == pytest.approx(ref0, abs=1e-12)
        assert p1[0, gi] == pytest.approx(ref1, abs=1e-12)


def test_fused_coop_kernel_matches_pattern_sums():
    rng = np.random.default_rng(11)
    for topo in edge_topologies() + [random_topology(rng) for _ in range(15)]:
        engine = CoopEngine(topo)
        n = topo.num_groups
        big_r = rng.random((3, n))
        big_c = rng.random((3, n)) * (1 - big_r)
        p0, p1 = engine._p_r(big_r, big_c)
        assert p0.shape == p1.shape == (3, n)
        retrievable, singleton = load_or_build_tables(topo)
        rescue = retrievable & ~singleton
        for b in range(3):
            for gi in range(n):
                ref0 = pattern_mass(topo, gi, big_r[b], big_c[b], mask=singleton[gi])
                ref1 = pattern_mass(topo, gi, big_r[b], big_c[b], mask=rescue[gi])
                assert p0[b, gi] == pytest.approx(ref0, abs=1e-12)
                assert p1[b, gi] == pytest.approx(ref1, abs=1e-12)


def test_fused_noncoop_kernel_matches_per_bs_products():
    rng = np.random.default_rng(12)
    for topo in edge_topologies() + [random_topology(rng) for _ in range(15)]:
        engine = NoncoopEngine(topo)
        pairs = [(i, j) for i, g in enumerate(topo.groups) for j in g.bs_set]
        big_r = rng.random((3, len(pairs)))
        rho = rng.random((3, len(pairs)))
        w = engine._w(np.ones_like(big_r), None, big_r, rho)
        for k, (_, j) in enumerate(pairs):
            others = [o for o, (_, jj) in enumerate(pairs) if jj == j and o != k]
            expected = 1.0 - rho[:, k] * big_r[:, others].prod(axis=1)
            assert np.allclose(w[:, k], expected, rtol=0.0, atol=1e-12)


def kernel_inputs(engine, rng, rows):
    """(x, p, R, rho) of random fixed-point states, as `_RowPool.step`
    hands them to an engine's w kernel."""
    counts = engine.counts[engine.columns]
    g = rng.uniform(0.2, 3.0, size=(rows, engine.topology.num_groups))
    p = np.minimum(g / np.maximum(engine.counts, 1.0), 1.0)[:, engine.columns]
    x = rng.uniform(0.0, 1.0, size=p.shape)
    base = 1.0 - p * x
    return x, p, base**counts, base ** np.maximum(counts - 1.0, 0.0)


def assert_same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


REFERENCE_W = {
    "coop": oracles.coop_w,
    "noncoop": oracles.noncoop_w,
    "bound": oracles.bound_w,
}


@pytest.mark.parametrize("mode", MODES)
def test_kernels_match_plain_references_bit_for_bit(mode):
    rng = np.random.default_rng(31)
    networks = [full_topology(m, [10000] * (2**m - 1)) for m in (1, 2, 3)]
    networks += [random_topology(rng) for _ in range(5)]
    # Target 0 has the same companions at BSs 1 and 2, so its 3x3 bound
    # system is singular and falls back to max_j p_j = rho.
    singular = NetworkTopology(num_bs=3, groups=(GroupSpec(0b111, 50), GroupSpec(0b011, 50)))
    if mode == "bound":  # the 4-BS group of the full M = 4 network takes the stacked solve
        networks += [full_topology(4, [10000] * 15), singular]
    for topo in networks:
        engine = make_engine(topo, mode)
        for rows in (1, 9, 300):
            args = kernel_inputs(engine, rng, rows)
            w = engine._w(*args)
            assert_same_bits(w, REFERENCE_W[mode](engine, *args))
            if topo is singular:
                assert_same_bits(w[:, 0], 1.0 - args[3][:, 0])
            if mode == "coop":
                n = topo.num_groups
                for v in (rng.random((3, n)), rng.random((3, n, rows))):
                    assert_same_bits(engine.dag.evaluate(v), oracles.dag_evaluate(engine.dag, v))


def test_plr_curve_header_and_peak(topo_m1):
    out = make_engine(topo_m1, "coop").evaluate(
        np.full((3, 1), 3.10 / 10000), [9000, 10615, 12000]
    )
    curve = PlrCurve(out.t, out.plr_groups, out.plr_avg, out.throughput, out.converged)
    assert curve.header() == "T,plr_avg,plr_g1,throughput"
    t_star = peak_t(dict(zip(curve.t.tolist(), zip(curve.throughput.tolist()))))
    assert t_star == 10615
    rows = list(curve.csv_rows())
    assert len(rows) == 3 and rows[0].startswith("9000,")


def test_default_grid_brackets_peak(topo_m1):
    grid = default_t_grid(topo_m1)
    assert grid[0] <= 10615 <= grid[-1]
    assert len(grid) == 41


def test_peak_search_small_instance():
    topo = full_topology(1, [200])
    pk = peak_search(topo, (3.0,), "coop")
    assert pk.t_star >= 1
    assert 0 < pk.throughput <= 1.0
    assert pk.curve.t[0] >= 1


def test_peak_search_extends_grid(topo_m1):
    # start the grid well left of the true peak; extension must find it
    pk = peak_search(topo_m1, (3.10,), "coop", t_grid=range(3000, 5001, 500))
    assert pk.t_star > 5000
    assert pk.throughput == pytest.approx(0.8745, abs=0.001)


@pytest.mark.parametrize("t_grid", [[], np.array([], dtype=np.int64)])
def test_empty_t_grid_rejected(topo_m1, t_grid):
    engine = make_engine(topo_m1, "noncoop")
    with pytest.raises(ValueError, match="empty t_grid"):
        batched_peak_search(engine, np.full((1, 1), 3.10 / 10000), t_grid=t_grid)


@pytest.mark.parametrize("mode", MODES)
def test_t_below_one_rejected(topo_m1, mode):
    with pytest.raises(ValueError):
        evolve(topo_m1, (3.10,), 0, mode)


@pytest.mark.parametrize("mode", MODES)
def test_batch_rows_match_rows_alone(topo_m2, mode):
    # mixed loads and frame lengths retire at different iterations, and a
    # short max_iter leaves some rows unconverged
    engine = make_engine(topo_m2, mode)
    g = np.array([[1.81, 1.81, 1.68], [0.4, 0.9, 0.2], [2.6, 2.2, 2.4], [1.0, 1.0, 1.0]])
    p = np.repeat(g / 10000.0, 2, axis=0)
    t = np.array([16000, 9000, 14000, 30000, 12000, 20000, 5000, 16000])
    for max_iter in (2000, 20):
        batch = engine.evaluate(p, t, max_iter=max_iter)
        assert len(set(batch.iterations)) > 2
        if max_iter == 20:
            assert 0 < batch.converged.sum() < len(t)
        for k in range(len(t)):
            alone = engine.evaluate(p[k : k + 1], t[k : k + 1], max_iter=max_iter)
            for name in ROW_FIELDS:
                assert np.array_equal(getattr(batch, name)[k], getattr(alone, name)[0])


def test_simultaneous_transmission_degrees(topo_m2):
    g = simultaneous_transmission_degrees(topo_m2, 3.098)
    assert g == pytest.approx((1.549, 1.549, 1.549))
    # every BS observes the single-BS design load
    assert g[0] + g[2] == pytest.approx(3.098)


def assert_same_seen(streamed, lockstep):
    """Per candidate: the same T in the same order, and bit-equal results."""
    assert len(streamed) == len(lockstep)
    for a, b in zip(streamed, lockstep):
        assert list(a) == list(b)
        for t in a:
            (thr_a, avg_a, grp_a, conv_a), (thr_b, avg_b, grp_b, conv_b) = a[t], b[t]
            assert np.array([thr_a, avg_a]).tobytes() == np.array([thr_b, avg_b]).tobytes()
            assert grp_a.tobytes() == grp_b.tobytes()
            assert conv_a is conv_b


def search_cases():
    """(topology, degree rows, T grid, max_iter) covering duplicate and
    single candidates, maxima on either grid edge, unconverged rows, random
    networks, a t* row that is its step's slowest row (the bound at the
    M = 2 Table-1 degrees: T = 19 210 in the second window) and a step
    whose last row wins (one BS with 31 users at degree 1)."""
    m2 = full_topology(2, [10000] * 3)
    m1 = full_topology(1, [31])
    g = [[1.81, 1.81, 1.68], [2.6, 2.2, 2.4], [1.81, 1.81, 1.68]]
    cases = [
        (m2, g, default_t_grid(m2), 2000),
        (m2, g[:1], default_t_grid(m2), 2000),
        (m2, g[:1], range(6000, 12001, 1500), 2000),
        (m2, g[1:2], range(40000, 60001, 5000), 2000),
        (m2, g[:2], default_t_grid(m2), 20),
        (m1, [[1.0]], default_t_grid(m1), 2000),
    ]
    for seed, n_topo, n_rows in ((21, 4, 3), (5, 3, 1)):
        rng = np.random.default_rng(seed)
        for _ in range(n_topo):
            topo = random_topology(rng)
            rows = [
                [rng.uniform(0.2, min(3.0, grp.num_users)) if grp.num_users else 0.0
                 for grp in topo.groups]
                for _ in range(n_rows)
            ]
            cases.append((topo, rows, default_t_grid(topo), 2000))
    return cases


@pytest.mark.parametrize("mode", MODES)
def test_streamed_search_matches_lockstep_oracle(mode):
    extended, unconverged = set(), False
    for topo, degrees, grid, max_iter in search_cases():
        engine = make_engine(topo, mode)
        p_mat = np.array([TargetDegreeVector(tuple(g)).probabilities(topo) for g in degrees])
        streamed = batched_peak_search(engine, p_mat, t_grid=grid, max_iter=max_iter)
        lockstep = oracles.batched_peak_search(engine, p_mat, t_grid=grid, max_iter=max_iter)
        assert_same_seen(streamed, lockstep)
        for seen in streamed:
            extended |= {"up"} if max(seen) > max(grid) else set()
            extended |= {"down"} if min(seen) < min(grid) else set()
            unconverged |= not all(v[3] for v in seen.values())
    assert extended == {"up", "down"} and unconverged


def table1_topologies(ms):
    configs = Path(__file__).resolve().parent.parent / "configs"
    docs = [json.loads((configs / f"table1_m{m}.json").read_text()) for m in ms]
    return [load_topology(json.dumps(doc["topology"])) for doc in docs]


@pytest.mark.parametrize("mode", MODES)
def test_map_is_monotone(mode):
    # The premise of _RowPool.decide: x <= y gives w(x) <= w(y) and
    # F_T(x) <= F_T(y) in every column. A computed map may break it only by
    # rounding, far below the margin a sub-solution must clear. (The M = 4
    # coop tables take seconds to build, so coop stops at M = 3.)
    rng = np.random.default_rng(17)
    topologies = table1_topologies((1, 2, 3) if mode == "coop" else (1, 2, 3, 4))
    topologies += [random_topology(rng) for _ in range(12)]
    slack = SUB_MARGIN * 1e-3
    for topo in topologies:
        engine = make_engine(topo, mode)
        pool = _RowPool(engine, DEFAULT_MAX_ITER, DEFAULT_TOL)
        counts = engine.counts
        t_max = 2 * int(default_t_grid(topo).max())
        for _ in range(40):
            g = rng.uniform(0.05, 4.0, (64, len(counts)))
            p = (np.minimum(g / np.maximum(counts, 1.0), 1.0) * (counts > 0))[:, engine.columns]
            tm1 = rng.integers(0, t_max, (64, 1)).astype(float)
            x = rng.random(p.shape)
            y = x + (1.0 - x) * rng.random(p.shape) * (rng.random(p.shape) < 0.5)
            (wx, fx), (wy, fy) = pool._map(x, p, 1.0 - p, tm1), pool._map(y, p, 1.0 - p, tm1)
            assert (wx <= wy + slack).all() and (fx <= fy + slack).all()


@pytest.mark.parametrize("mode", MODES)
def test_decided_search_matches_reference(mode, monkeypatch):
    joined, decided = [], []  # keys (T * candidates + candidate) of the rows
    pool_add, pool_decide = _RowPool.add, _RowPool.decide

    def add(pool, keys, p, t):
        joined.extend(keys.tolist())
        pool_add(pool, keys, p, t)

    def decide(pool, bar):
        keys = pool_decide(pool, bar)
        decided.extend(keys.tolist())
        return keys

    monkeypatch.setattr(_RowPool, "add", add)
    monkeypatch.setattr(_RowPool, "decide", decide)
    n_decided = 0
    for topo, degrees, grid, max_iter in search_cases():
        engine = make_engine(topo, mode)
        p_mat = np.array([TargetDegreeVector(tuple(g)).probabilities(topo) for g in degrees])
        n = len(p_mat)
        reference = batched_peak_search(engine, p_mat, t_grid=grid, max_iter=max_iter)
        joined.clear()
        decided.clear()
        peaks = batched_peaks(engine, p_mat, t_grid=grid, max_iter=max_iter)
        assert_same_seen([{t: row} for t, row in peaks],
                         [{peak_t(seen): seen[peak_t(seen)]} for seen in reference])
        # The same rows are requested, and each decided row loses to its
        # candidate's peak when it runs to the end.
        for c, seen in enumerate(reference):
            assert sorted(k // n for k in joined if k % n == c) == sorted(seen)
        ts, cands = np.divmod(np.array(decided, dtype=np.int64), n)
        if len(ts):
            out = engine.evaluate(p_mat[cands], ts, max_iter=max_iter)
            assert (out.throughput < [peaks[c][1][0] for c in cands]).all()
        n_decided += len(ts)
        for c in range(n):
            alone = batched_peaks(engine, p_mat[c : c + 1], t_grid=grid, max_iter=max_iter)
            assert_same_seen([dict(alone)], [dict(peaks[c : c + 1])])
    assert n_decided > 0


def assert_pool_rows_match_rows_alone(topo, mode, joins, drops):
    """Rows run through one _RowPool: the rows in joins[i] join and those
    in drops[i] are removed before iteration i. Every row that is not
    removed must get the bits it gets evaluated alone, removed rows must
    never leave the pool and no row may leave twice."""
    engine = make_engine(topo, mode)
    g = np.array([[1.81, 1.81, 1.68], [0.4, 0.9, 0.2], [2.6, 2.2, 2.4], [1.0, 1.0, 1.0]])
    p = np.repeat(g / 10000.0, 2, axis=0)
    t = np.array([16000, 9000, 14000, 30000, 12000, 20000, 5000, 16000])
    dropped = [k for rows in drops.values() for k in rows]
    for max_iter in (2000, 20):
        pool = _RowPool(engine, max_iter, DEFAULT_TOL)
        x = np.zeros((len(t), len(engine.columns)))
        w = np.zeros_like(x)
        iters = np.zeros(len(t), dtype=np.int64)
        conv = np.zeros(len(t), dtype=bool)
        it = 0
        while len(pool) or it <= max(joins):
            if it in joins:
                pool.add(np.array(joins[it]), p[joins[it]], t[joins[it]])
            if it in drops:
                pool.remove(drops[it])
            left = pool.step()
            if left is not None:
                keys = left[0]
                assert not iters[keys].any()  # neither left before nor dropped
                x[keys], w[keys], iters[keys], conv[keys] = left[1:]
            it += 1
        assert not iters[dropped].any()
        streamed = engine._finish(p, t, w, x, iters, conv)
        for k in sorted(set(range(len(t))) - set(dropped)):
            alone = engine.evaluate(p[k : k + 1], t[k : k + 1], max_iter=max_iter)
            for name in ROW_FIELDS:
                assert np.array_equal(getattr(streamed, name)[k], getattr(alone, name)[0])


JOINS = {0: [0, 1, 2], 5: [3, 4], 40: [5], 41: [6, 7]}  # iteration -> rows


@pytest.mark.parametrize("mode", MODES)
def test_rows_joining_mid_run_match_rows_alone(topo_m2, mode):
    assert_pool_rows_match_rows_alone(topo_m2, mode, JOINS, {})


@pytest.mark.parametrize("mode", MODES)
def test_rows_removed_mid_run_match_rows_alone(topo_m2, mode):
    # removals at the first row, mid-pool, and in the iteration a row joins
    drops = {3: [0], 12: [3], 41: [5, 6]}
    assert_pool_rows_match_rows_alone(topo_m2, mode, JOINS, drops)


@pytest.mark.parametrize("mode", MODES)
def test_search_beats_waiting_for_each_step(topo_m2, mode, monkeypatch):
    # The search at the M = 2 Table-1 degrees. The lockstep oracle runs one
    # candidate's steps one after another, each until its slowest row. The
    # search does not wait for the rows decide() proves to lose, but still
    # runs them to the end: every requested row reaches the results.
    engine = make_engine(topo_m2, mode)
    p = np.array([TargetDegreeVector((1.81, 1.81, 1.68)).probabilities(topo_m2)])
    grid = default_t_grid(topo_m2)
    calls, decided = [], []  # pool sizes at each step; keys T of decided rows
    pool_step, pool_decide = _RowPool.step, _RowPool.decide

    def step(pool):
        calls.append(len(pool))
        return pool_step(pool)

    def decide(pool, bar):
        keys = pool_decide(pool, bar)
        decided.extend(keys.tolist())
        return keys

    monkeypatch.setattr(_RowPool, "step", step)
    lockstep = oracles.batched_peak_search(engine, p, t_grid=grid)
    waiting = len(calls)
    calls.clear()
    monkeypatch.setattr(_RowPool, "decide", decide)
    seen = batched_peak_search(engine, p, t_grid=grid)
    assert len(calls) < waiting
    assert_same_seen(seen, lockstep)
    peak = seen[0][peak_t(seen[0])][0]
    assert decided and all(seen[0][t][0] < peak for t in decided)


@pytest.mark.parametrize("mode", MODES)
def test_out_of_range_w_raises(topo_m2, mode, monkeypatch):
    engine = make_engine(topo_m2, mode)
    monkeypatch.setattr(engine, "_w", lambda xa, pa, big_r, rho: np.full_like(xa, 1.5))
    p = np.array([[1.81, 1.81, 1.68]]) / 10000.0
    with pytest.raises(FloatingPointError):
        engine.evaluate(p, [16000])
    with pytest.raises(FloatingPointError):
        batched_peak_search(engine, p, t_grid=[12000, 16000])
