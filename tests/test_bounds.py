import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameless.bounds import (
    BoundEngine,
    solve_gauss_batched,
    upper_bound_throughput,
)
from frameless.evolution import evolve
from frameless.topology import GroupSpec, NetworkTopology, full_topology
from conftest import edge_topologies, random_topology


def test_upper_bound_values():
    assert upper_bound_throughput(1) == pytest.approx(0.87)
    assert upper_bound_throughput(4) == pytest.approx(3.48)
    assert upper_bound_throughput(4) >= 2.940  # dominates the exact optimum


def test_upper_bound_rejects_zero():
    with pytest.raises(ValueError):
        upper_bound_throughput(0)


def test_single_bs_bound_is_exact(topo_m1):
    # 1x1 system: p Q^-1 p^t = p, identical to the cooperative analysis
    for t in (9000, 10615, 12000):
        rb = evolve(topo_m1, (3.10,), t, "bound")
        rc = evolve(topo_m1, (3.10,), t, persist_tables=False)
        assert rb.plr_avg == pytest.approx(rc.plr_avg, abs=1e-9)


def test_two_by_two_matches_hand_inverse():
    # symmetric system: p (a, a), joint b -> bound = 2a^2/(a+b)
    engine = BoundEngine(full_topology(2, [10, 10, 10]))
    from frameless.bounds import _union_lower_bound

    a, b = 0.3, 0.2
    p = np.array([[a, a]])
    q = np.array([[[a, b], [b, a]]])
    hand = (a * a * a - 2 * a * a * b + a * a * a) / (a * a - b * b)
    assert _union_lower_bound(p, q)[0] == pytest.approx(hand, rel=1e-12)
    assert _union_lower_bound(p, q)[0] == pytest.approx(2 * a * a / (a + b), rel=1e-12)


def test_gauss_solver_matches_numpy():
    rng = np.random.default_rng(0)
    for m in (2, 3, 4, 6):
        a = rng.random((40, m, m))
        a = a @ a.transpose(0, 2, 1) + 0.05 * np.eye(m)
        b = rng.random((40, m))
        y, singular = solve_gauss_batched(a, b)
        assert not singular.any()
        ref = np.linalg.solve(a, b[..., None])[..., 0]
        assert np.abs(y - ref).max() < 1e-8


def test_gauss_solver_flags_singular():
    q = np.array([[[1.0, 1.0], [1.0, 1.0]]])
    p = np.array([[0.5, 0.5]])
    _, singular = solve_gauss_batched(q, p)
    assert singular[0]


def test_singular_falls_back_to_max():
    from frameless.bounds import _union_lower_bound

    p = np.array([[0.4, 0.3, 0.2]])
    q = np.ones((1, 3, 3)) * 0.2  # rank-1, singular
    out = _union_lower_bound(p, q)
    assert out[0] == pytest.approx(0.4)


def test_bound_plr_dominates_exact(topo_m2):
    g = (1.81, 1.81, 1.68)
    for t in (12000, 14000, 16000, 18000):
        pb = evolve(topo_m2, g, t, "bound").plr
        pc = evolve(topo_m2, g, t, persist_tables=False).plr
        assert (pb >= pc - 1e-9).all()


@settings(max_examples=10)
@given(seed=st.integers(0, 10**6))
def test_bound_ordering_random(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, max_users=50)
    g = tuple(
        float(rng.uniform(0.1, min(3.0, grp.num_users)))
        if grp.num_users
        else 0.0
        for grp in topo.groups
    )
    t = int(rng.integers(5, 150))
    rb = evolve(topo, g, t, "bound")
    rc = evolve(topo, g, t, persist_tables=False)
    assert (rb.plr >= rc.plr - 1e-9).all()
    assert rb.throughput <= rc.throughput + 1e-9


def test_zero_degree_rejected_by_bound_wrapper():
    topo = full_topology(2, [10, 10, 10])
    with pytest.raises(ValueError, match="G > 0"):
        evolve(topo, (0.0, 1.0, 1.0), 10, "bound")


def test_zero_degree_on_empty_group_allowed():
    topo = full_topology(2, [10, 10, 0])
    res = evolve(topo, (1.0, 1.0, 0.0), 20, "bound")
    assert res.plr[2] == 1.0


def direct_bound_w(topo, big_r, rho):
    """1 - p Q^-1 p^t per group and row, solved with numpy one at a time."""
    w = np.empty_like(big_r)
    for b in range(len(big_r)):
        for i, g in enumerate(topo.groups):
            at_bs = [set(topo.groups_at_bs[j - 1]) - {i} for j in g.bs_set]

            def mass(members):
                return rho[b, i] * np.prod(big_r[b, sorted(members)])

            p = np.array([mass(s) for s in at_bs])
            q = np.array([[mass(s | t) for t in at_bs] for s in at_bs])
            # identical companion sets at two BSs make Q singular
            bound = p.max() if np.linalg.cond(q) > 1e12 else p @ np.linalg.solve(q, p)
            w[b, i] = 1.0 - np.clip(bound, 0.0, min(1.0, p.sum()))
    return w


def test_fused_bound_kernel_matches_direct_solve():
    rng = np.random.default_rng(13)
    # The 3-BS target's only companion is heard at BSs 1 and 2 alike, so
    # two rows of its 3x3 Q are identical: Q is exactly singular.
    singular = NetworkTopology(
        num_bs=3, groups=(GroupSpec(0b111, 4), GroupSpec(0b011, 3))
    )
    for topo in edge_topologies() + [singular] + [random_topology(rng) for _ in range(15)]:
        n = topo.num_groups
        big_r = rng.uniform(0.05, 1.0, size=(3, n))
        rho = rng.uniform(0.05, 1.0, size=(3, n))
        w = BoundEngine(topo)._w(np.ones_like(big_r), None, big_r, rho)
        assert np.allclose(w, direct_bound_w(topo, big_r, rho), rtol=0.0, atol=1e-12)
