"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured values at the stated tolerance.

Two sub-checks are implemented faithfully but are expected to fail, and
the reasons are mathematical rather than implementation gaps:

* the comparison-network waterfall check demands an average PLR below
  1e-2 at normalized load 0.7, but with the fixed degree vector the
  never-transmitted floor alone exceeds 2e-2 for every possible
  user-count assignment of that five-group family;

* the cooperative-vs-non-cooperative PLR ordering on arbitrary random
  topologies is broken by the non-cooperative analysis itself, which
  multiplies per-BS failure probabilities as if independent (a group
  heard by two BSs with identical neighborhoods has its true failure
  probability squared), so the non-cooperative curve can sit below the
  exact cooperative one.

Everything else runs green at the stated tolerances. The long-running
M=4 Monte Carlo and M=3-optimizer checks are skipped unless
FRAMELESS_RUN_LONG=1.
"""

import math
import os

import numpy as np
import pytest

from frameless.bounds import BoundEngine, upper_bound_throughput
from frameless.evolution import (
    CoopEngine,
    evolve,
    peak_search,
    simultaneous_transmission_degrees,
)
from frameless.optimizer import OptimizationSpec, optimize
from frameless.simulator import SimulationSpec, monte_carlo
from frameless.topology import GroupSpec, NetworkTopology, full_topology
from frameless.walkgraph import build_retrievability_tables, load_or_build_tables
from conftest import long_running, random_topology
from oracles import (
    closed_form_for_topology,
    compute_w_coop,
    pattern_mass,
    tiny_distribution_by_loop,
)

WORKERS = min(2, os.cpu_count() or 1)

TABLE1 = {
    1: ((3.10,), 0.874, 0.867),
    2: ((1.81, 1.81, 1.68), 1.676, 1.673),
    3: ((1.11, 1.11, 0.94, 1.11, 0.94, 0.94, 0.78), 2.366, 2.363),
    4: (
        (0.69, 0.69, 0.52, 0.69, 0.52, 0.52, 0.46, 0.69,
         0.52, 0.52, 0.46, 0.52, 0.46, 0.46, 0.46),
        2.940,
        2.936,
    ),
}

TABLE2 = {
    "a": ((0, 0, 10000), (0.0, 0.0, 3.098), 0.874),
    "b": ((100, 100, 10000), (1.388, 1.388, 3.094), 0.893),
    "c": ((1000, 1000, 10000), (1.621, 1.621, 3.063), 1.064),
    "d": ((10000, 10000, 10000), (1.812, 1.812, 1.680), 1.676),
    "e": ((10000, 10000, 1000), (3.051, 3.051, 1.869), 1.836),
    "f": ((10000, 10000, 100), (3.096, 3.096, 0.302), 1.758),
    "g": ((10000, 10000, 0), (3.098, 3.098, 0.0), 1.748),
}

COMPARE_DEGREES = (1.42, 1.42, 1.30, 0.47, 2.33)


def compare_network():
    return NetworkTopology(
        num_bs=3,
        groups=(
            GroupSpec(0b001, 1500),
            GroupSpec(0b010, 1500),
            GroupSpec(0b100, 1500),
            GroupSpec(0b011, 1500),
            GroupSpec(0b111, 3000),
        ),
    )


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


# --- criterion 1: theoretical peak throughput of the symmetric networks ---

def test_c1_table1_theoretical_peaks():
    ok = True
    details = []
    for m in (1, 2, 3):
        degrees, expect, _ = TABLE1[m]
        topo = full_topology(m, [10000] * (2**m - 1))
        pk = peak_search(topo, degrees, "coop", workers=WORKERS)
        good = abs(pk.throughput - expect) <= 0.005
        ok &= good
        details.append(f"M={m}: {pk.throughput:.4f} vs {expect}±0.005")
    assert report("criterion-1 (theoretical peaks M<=3)", ok, "; ".join(details))


@pytest.fixture(scope="module")
def m4_coop_peak():
    degrees, _, _ = TABLE1[4]
    topo = full_topology(4, [10000] * 15)
    return peak_search(topo, degrees, "coop", workers=WORKERS, points=21)


def test_c1_table1_m4_peak(m4_coop_peak):
    _, expect, _ = TABLE1[4]
    pk = m4_coop_peak
    ok = abs(pk.throughput - expect) <= 0.01
    assert report("criterion-1 (M=4 peak)", ok, f"{pk.throughput:.4f} vs {expect}±0.01")


# --- criterion 2: optimizer recovers the printed degrees ---

def test_c2_optimizer_m1():
    topo = full_topology(1, [10000])
    spec = OptimizationSpec(topology=topo, alpha=0.8, mode="coop")
    res = optimize(spec, seed=101, workers=WORKERS)
    ok = (
        res.feasible
        and abs(res.best_g[0] - 3.10) <= 0.05
        and abs(res.throughput - 0.874) <= 0.01
    )
    assert report(
        "criterion-2 (optimizer M=1, 300/0.2/30)",
        ok,
        f"G={res.best_g[0]:.4f} vs 3.10±0.05, S={res.throughput:.4f} vs 0.874±0.01",
    )


def test_c2_optimizer_m2():
    topo = full_topology(2, [10000] * 3)
    spec = OptimizationSpec(topology=topo, alpha=0.8, mode="coop")
    res = optimize(spec, seed=101, workers=WORKERS)
    g_single, g_pair = res.best_g[0], res.best_g[2]
    ok = (
        res.feasible
        and abs(g_single - 1.81) <= 0.05
        and abs(g_pair - 1.68) <= 0.05
        and abs(res.throughput - 1.676) <= 0.01
        and res.best_g[0] == res.best_g[1]
    )
    assert report(
        "criterion-2 (optimizer M=2, 300/0.2/30)",
        ok,
        f"G=({g_single:.4f},{g_pair:.4f}) vs (1.81,1.68)±0.05, "
        f"S={res.throughput:.4f} vs 1.676±0.01",
    )


@long_running
def test_c2_optimizer_m3():
    topo = full_topology(3, [10000] * 7)
    spec = OptimizationSpec(topology=topo, alpha=0.8, mode="coop")
    res = optimize(spec, seed=101, workers=WORKERS)
    by_class = (res.best_g[0], res.best_g[2], res.best_g[6])
    expect = (1.11, 0.94, 0.78)
    ok = res.feasible and all(
        abs(a - b) <= 0.05 for a, b in zip(by_class, expect)
    ) and abs(res.throughput - 2.366) <= 0.01
    assert report(
        "criterion-2 (optimizer M=3)",
        ok,
        f"G={tuple(round(v, 3) for v in by_class)} vs {expect}±0.05, "
        f"S={res.throughput:.4f} vs 2.366±0.01",
    )


# --- criterion 3: asymmetric two-BS study ---

def test_c3_table2_rows():
    ok = True
    details = []
    for name, (counts, degrees, expect) in TABLE2.items():
        topo = full_topology(2, counts)
        pk = peak_search(topo, degrees, "coop")
        good = abs(pk.throughput - expect) <= 0.01
        ok &= good
        details.append(f"({name}) {pk.throughput:.4f} vs {expect}")
    assert report("criterion-3 (asymmetric rows a-g, ±0.01)", ok, "; ".join(details))


# --- criterion 4: Monte Carlo agreement with the analysis ---

def test_c4_monte_carlo_agreement():
    ok = True
    details = []
    for m in (1, 2, 3):
        degrees, _, expect_sim = TABLE1[m]
        topo = full_topology(m, [10000] * (2**m - 1))
        spec = SimulationSpec(
            topology=topo, mode="frameless", degrees=degrees, alpha=0.8,
            master_seed=404,
        )
        mc = monte_carlo(spec, trials=100, workers=WORKERS)
        good = abs(mc.mean_throughput - expect_sim) <= 0.01
        ok &= good
        details.append(
            f"M={m}: {mc.mean_throughput:.4f}±{mc.stderr_throughput:.4f} vs {expect_sim}"
        )
    assert report("criterion-4 (simulated averages, 100 trials, ±0.01)", ok,
                  "; ".join(details))


@long_running
def test_c4_monte_carlo_m4():
    degrees, _, expect_sim = TABLE1[4]
    topo = full_topology(4, [10000] * 15)
    spec = SimulationSpec(topology=topo, mode="frameless", degrees=degrees,
                          alpha=0.8, master_seed=404)
    mc = monte_carlo(spec, trials=100, workers=WORKERS)
    ok = abs(mc.mean_throughput - expect_sim) <= 0.01
    assert report("criterion-4 (M=4 simulated)", ok,
                  f"{mc.mean_throughput:.4f} vs {expect_sim}±0.01")


# --- criterion 5: enumeration equals the closed forms ---

def test_c5_appendix_oracle(topo_m3):
    tables = load_or_build_tables(topo_m3)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        r = rng.random(7)
        c = rng.random(7) * (1.0 - r)
        rho = rng.random(7)
        for gi in range(7):
            w_enum = compute_w_coop(topo_m3, tables, r, c, rho, gi)
            w_cf = closed_form_for_topology(topo_m3, r, c, rho, gi)
            worst = max(worst, abs(w_enum - w_cf))
    ok = worst < 1e-12
    assert report("criterion-5 (walk-graph enumeration vs closed forms)", ok,
                  f"max |difference| = {worst:.2e} over 100 probes x 7 targets")


# --- criterion 6: diversity gain and its bounds ---

def test_c6_gains_and_bounds():
    ok = True
    details = []
    # gains for the symmetric and asymmetric two-BS networks
    for name, expect_gamma in (("d", 1.26), ("c", 1.09), ("e", 1.11)):
        counts, degrees, _ = TABLE2[name]
        topo = full_topology(2, counts)
        pk_c = peak_search(topo, degrees, "coop")
        g_nc = simultaneous_transmission_degrees(topo)
        pk_n = peak_search(topo, g_nc, "noncoop")
        gamma = pk_c.throughput / pk_n.throughput
        good = abs(gamma - expect_gamma) <= 0.03
        ok &= good
        details.append(f"Gamma({name})={gamma:.3f} vs {expect_gamma}±0.03")
    # ordering: bounded <= exact <= M * single-BS peak, at fixed degrees
    for m in (2, 3):
        degrees, _, _ = TABLE1[m]
        topo = full_topology(m, [10000] * (2**m - 1))
        pk_exact = peak_search(topo, degrees, "coop", workers=WORKERS)
        pk_bound = peak_search(topo, degrees, "bound")
        s_up = upper_bound_throughput(m)
        good = pk_bound.throughput <= pk_exact.throughput + 1e-9 <= s_up + 1e-9
        ok &= good
        details.append(
            f"M={m}: {pk_bound.throughput:.3f} <= {pk_exact.throughput:.3f} <= {s_up:.3f}"
        )
    # the bound-derived gain exceeds 1 at its own optimized degrees
    topo2 = full_topology(2, [10000] * 3)
    bound_spec = OptimizationSpec(
        topology=topo2, alpha=0.8, mode="bound", population=30, generations=10
    )
    opt_b = optimize(bound_spec, seed=6, workers=WORKERS)
    pk_n2 = peak_search(topo2, simultaneous_transmission_degrees(topo2), "noncoop")
    gamma_lb = opt_b.throughput / pk_n2.throughput
    good = gamma_lb > 1.0
    ok &= good
    details.append(f"bound-derived Gamma={gamma_lb:.3f} > 1")
    assert report("criterion-6 (gain and bounds)", ok, "; ".join(details))


def test_c6_m4_bound_below_coop(m4_coop_peak):
    degrees, _, _ = TABLE1[4]
    topo = full_topology(4, [10000] * 15)
    pk_bound = peak_search(topo, degrees, "bound", points=21)
    ok = pk_bound.throughput <= m4_coop_peak.throughput + 1e-9
    assert report(
        "criterion-6 (M=4 bound <= exact)",
        ok,
        f"{pk_bound.throughput:.4f} <= {m4_coop_peak.throughput:.4f}",
    )


# --- criterion 7: comparison against the framed baseline ---

def _compare_sweep(gbars, trials=12):
    topo = compare_network()
    n = topo.num_users
    rows = {}
    for gbar in gbars:
        t = int(round(n / (3 * gbar)))
        mc_f = monte_carlo(
            SimulationSpec(topology=topo, mode="fixed", degrees=COMPARE_DEGREES,
                           t_slots=t, master_seed=71),
            trials=trials, workers=WORKERS,
        )
        mc_b = monte_carlo(
            SimulationSpec(topology=topo, mode="spatio", replica_dist=((2, 1.0),),
                           t_slots=t, master_seed=72),
            trials=trials, workers=WORKERS,
        )
        rows[gbar] = (t, mc_f, mc_b)
    return topo, rows


@pytest.fixture(scope="module")
def compare_sweep():
    return _compare_sweep((0.6, 0.7, 0.75, 0.85, 0.9))


def test_c7_throughput_comparison(compare_sweep):
    _, rows = compare_sweep
    ok = True
    details = []
    for gbar in (0.6, 0.7, 0.75):
        _, mc_f, mc_b = rows[gbar]
        good = mc_f.mean_throughput > mc_b.mean_throughput
        ok &= good
        details.append(
            f"Gbar={gbar}: frameless {mc_f.mean_throughput/3:.3f} > "
            f"baseline {mc_b.mean_throughput/3:.3f}"
        )
    _, mc_f, mc_b = rows[0.9]
    good = mc_b.mean_throughput > mc_f.mean_throughput
    ok &= good
    details.append(
        f"Gbar=0.9: baseline {mc_b.mean_throughput/3:.3f} > "
        f"frameless {mc_f.mean_throughput/3:.3f}"
    )
    assert report("criterion-7 (throughput crossover)", ok, "; ".join(details))


def test_c7_plr_floor(compare_sweep):
    topo, rows = compare_sweep
    n = topo.num_users
    p = np.array([g / grp.num_users for g, grp in zip(COMPARE_DEGREES, topo.groups)])
    weights = np.array([grp.num_users for grp in topo.groups]) / n
    ok = True
    details = []
    for gbar, (t, mc_f, _) in rows.items():
        floor = float(weights @ (1.0 - p) ** t)
        trials = mc_f.trials
        sigma = math.sqrt(max(floor * (1 - floor), 1e-12) / (trials * n))
        good = mc_f.mean_plr >= floor - 3 * sigma
        ok &= good
        details.append(f"Gbar={gbar}: plr={mc_f.mean_plr:.3e} >= floor {floor:.3e}")
    assert report("criterion-7 (never-transmitted floor, 3 sigma)", ok,
                  "; ".join(details))


def test_c7_plr_waterfall_sandwich(compare_sweep):
    _, rows = compare_sweep
    plr_07 = rows[0.7][1].mean_plr
    plr_085 = rows[0.85][1].mean_plr
    right = plr_085 > 1e-2
    left = plr_07 < 1e-2
    detail = (
        f"PLR(0.7)={plr_07:.3e} vs 1e-2, PLR(0.85)={plr_085:.3e} vs 1e-2; "
        "the left side is unreachable: with degrees "
        f"{COMPARE_DEGREES} the never-transmitted floor at Gbar=0.7 exceeds "
        "2e-2 for every user-count assignment of this five-group family "
        "(the per-group mass budgets that keep each floor term under 1e-2 "
        "sum to less than 1)"
    )
    assert report("criterion-7 (waterfall sandwich)", right and left, detail)


# --- criterion 8: exhaustive tiny-instance oracle ---

def _enumerate_tiny_distribution(t_slots):
    """All 2^(6*T) equiprobable realizations of the 6-user network at
    p=1/2, joint SIC on each; independent of the simulator's machinery.

    Bit u*T + t of a realization's index says whether user u transmits in
    slot t. Every realization is one entry of an int64 array: each (BS,
    slot) bucket holds the bitmask of the users in it, and a round peels
    every bucket that holds one live user, until no realization changes.
    """
    groups_of_user = [0, 0, 1, 1, 2, 2]
    bs_of_group = [(0,), (1,), (0, 1)]
    idx = np.arange(2 ** (6 * t_slots), dtype=np.int64)
    buckets = []
    for b in (0, 1):
        for t in range(t_slots):
            members = np.zeros_like(idx)
            for u in range(6):
                if b in bs_of_group[groups_of_user[u]]:
                    members |= (idx >> (u * t_slots + t) & 1) << u
            buckets.append(members)
    alive = np.full_like(idx, 0b111111)
    while True:
        before = alive
        for members in buckets:
            live = members & alive
            alone = (live != 0) & (live & (live - 1) == 0)
            alive = np.where(alone, alive & ~live, alive)
        if np.array_equal(alive, before):
            break
    retrieved = 6 - sum(alive >> u & 1 for u in range(6))
    return np.bincount(retrieved, minlength=7) / len(idx)


@pytest.mark.parametrize("t_slots", [1, 2])
def test_c8_enumeration_matches_per_realization_loop(t_slots):
    assert np.array_equal(
        _enumerate_tiny_distribution(t_slots), tiny_distribution_by_loop(t_slots)
    )


def test_c8_small_instance_oracle(topo_tiny):
    t_slots = 3
    dist = _enumerate_tiny_distribution(t_slots)
    trials = 10**5
    spec = SimulationSpec(topology=topo_tiny, mode="fixed", degrees=(1.0, 1.0, 1.0),
                          t_slots=t_slots, master_seed=88)
    mc = monte_carlo(spec, trials=trials, workers=WORKERS)
    emp = np.bincount(mc.n_ret, minlength=7) / trials
    ok = True
    worst = 0.0
    for k in range(7):
        sigma = math.sqrt(dist[k] * (1 - dist[k]) / trials)
        dev = abs(emp[k] - dist[k]) / sigma if sigma else 0.0
        worst = max(worst, dev)
        ok &= dev <= 3.0
    # asymptotic analysis against the exhaustive mean, both retrieval modes
    exact_mean_plr = float((dist * (6 - np.arange(7))).sum() / 6)
    de_nc = evolve(topo_tiny, (1.0, 1.0, 1.0), t_slots, "noncoop")
    # lighter load for the cooperative check: at p=0.5 a 6-user graph is
    # far outside the asymptotic regime the analysis assumes
    from test_evolution import exhaustive_tiny_plr

    exact_coop_light = exhaustive_tiny_plr(topo_tiny, (0.75,) * 3, t_slots, share=True)
    de_coop = evolve(topo_tiny, (0.75,) * 3, t_slots)
    exact_nc = exhaustive_tiny_plr(topo_tiny, (1.0,) * 3, t_slots, share=False)
    gap_nc = abs(de_nc.plr_avg - exact_nc)
    gap_coop = abs(de_coop.plr_avg - exact_coop_light)
    ok &= gap_nc <= 0.05 and gap_coop <= 0.05
    assert report(
        "criterion-8 (tiny-instance oracle)",
        ok,
        f"distribution worst dev {worst:.2f} sigma over {trials} trials; "
        f"analysis gaps: noncoop {gap_nc:.3f}, coop {gap_coop:.3f} (both ±0.05)",
    )


def test_c8_stop_time_oracle(topo_tiny):
    # frameless stop at threshold 4 with slot_cap 2: n_ret(t) is that of a
    # fixed frame of t slots, so the exhaustive distributions at T = 1 and 2
    # give P(T <= 1), P(T <= 2) and the slot_cap share exactly (P(T <= 1)
    # is 0: one slot has only M = 2 buckets)
    reach = [float(_enumerate_tiny_distribution(t)[4:].sum()) for t in (1, 2)]
    ends = {
        (1, "threshold"): reach[0],
        (2, "threshold"): reach[1] - reach[0],
        (2, "slot_cap"): 1 - reach[1],
    }
    trials = 2 * 10**4
    spec = SimulationSpec(topology=topo_tiny, mode="frameless", degrees=(1.0, 1.0, 1.0),
                          alpha=0.7, slot_cap=2, master_seed=89)
    assert math.floor(spec.alpha * topo_tiny.num_users) == 4
    mc = monte_carlo(spec, trials=trials, workers=WORKERS)
    seen = list(zip(mc.t.tolist(), mc.terminated_by))
    ok = all(end in ends for end in seen)
    details = []
    for end, p in ends.items():
        emp = seen.count(end) / trials
        sigma = math.sqrt(p * (1 - p) / trials)
        ok &= abs(emp - p) <= 3 * sigma
        details.append(f"T={end[0]} {end[1]}: {emp:.4f} vs {p:.4f} (3 sigma = {3 * sigma:.4f})")
    assert report("criterion-8 (frameless stop time vs enumeration)", ok,
                  "; ".join(details))


# --- criterion 9: invariant property suite ---

def test_c9_monotone_closure_and_pattern_mass():
    rng = np.random.default_rng(99)
    ok = True
    worst_mass = 0.0
    for _ in range(12):
        topo = random_topology(rng, max_users=50)
        n_groups = topo.num_groups
        g = tuple(
            float(rng.uniform(0, min(3.0, grp.num_users))) if grp.num_users else 0.0
            for grp in topo.groups
        )
        t = int(rng.integers(5, 150))
        # monotone non-increasing x across iterations
        prev = None
        for it in range(1, 9):
            res = evolve(topo, g, t, max_iter=it)
            if prev is not None:
                ok &= bool((res.x <= prev + 1e-12).all())
            prev = res.x
        full = evolve(topo, g, t)
        for arr in (full.plr, full.w, full.x):
            ok &= bool((arr >= -1e-9).all() and (arr <= 1 + 1e-9).all())
        # sum of all pattern probabilities equals the sole-survivor factor
        probs = np.array(
            [gi / grp.num_users if grp.num_users else 0.0
             for gi, grp in zip(g, topo.groups)]
        )
        x = rng.random(n_groups)
        big_r = (1.0 - probs * x) ** np.array([grp.num_users for grp in topo.groups])
        rho = (1.0 - probs * x) ** np.maximum(
            np.array([grp.num_users for grp in topo.groups]) - 1.0, 0.0
        )
        big_c = x * np.array([grp.num_users for grp in topo.groups]) * probs * rho
        target = int(rng.integers(n_groups))
        total = rho[target] * pattern_mass(topo, target, big_r, big_c)
        worst_mass = max(worst_mass, abs(total - rho[target]))
        ok &= abs(total - rho[target]) < 1e-9
    assert report(
        "criterion-9 (monotone x, probability closure, pattern mass)",
        ok,
        f"12 random topologies; worst pattern-mass deviation {worst_mass:.2e}",
    )


def test_c9_coop_vs_noncoop_ordering():
    rng = np.random.default_rng(123)
    violations = []
    for _ in range(40):
        topo = random_topology(rng, max_users=60)
        g = tuple(
            float(rng.uniform(0, min(3.0, grp.num_users))) if grp.num_users else 0.0
            for grp in topo.groups
        )
        t = int(rng.integers(5, 200))
        rc = evolve(topo, g, t)
        rn = evolve(topo, g, t, "noncoop")
        if rc.plr_avg > rn.plr_avg + 1e-9:
            violations.append(rc.plr_avg - rn.plr_avg)
    ok = not violations
    detail = (
        f"{len(violations)}/40 random topologies violate the ordering "
        f"(worst excess {max(violations, default=0):.3e}); the "
        "non-cooperative recursion multiplies per-BS failure probabilities "
        "as if independent, which understates correlated failures (a group "
        "whose BSs all see identical slots has its failure probability "
        "squared), so the exact cooperative PLR can exceed it"
    )
    assert report("criterion-9 (coop <= noncoop PLR on random topologies)", ok, detail)


def test_c9_determinism_under_workers(topo_tiny):
    ok = True
    spec = SimulationSpec(topology=topo_tiny, mode="frameless",
                          degrees=(1.0, 1.0, 1.0), alpha=0.8, master_seed=7)
    a = monte_carlo(spec, trials=8, workers=1)
    b = monte_carlo(spec, trials=8, workers=2)
    ok &= bool(np.array_equal(a.n_ret, b.n_ret) and np.array_equal(a.t, b.t))
    topo = full_topology(2, [300, 300, 300])
    ospec = OptimizationSpec(topology=topo, population=8, generations=3)
    ra = optimize(ospec, seed=5, workers=1)
    rb = optimize(ospec, seed=5, workers=2)
    ok &= ra.best_g == rb.best_g and ra.history == rb.history
    ta = build_retrievability_tables(topo, workers=1)
    tb = build_retrievability_tables(topo, workers=2)
    ok &= all(np.array_equal(a, b) for a, b in zip(ta, tb))
    assert report("criterion-9 (determinism across worker counts)", ok,
                  "simulation, optimization, and table construction identical")
