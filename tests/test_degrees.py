import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frameless.evolution import _RowPool, make_engine
from frameless.topology import full_topology
from oracles import (
    DegreePolynomial,
    edge_perspective,
    observation_node_dist,
    variable_node_dist,
)


def test_bernoulli():
    d = variable_node_dist(1, 0.5)
    assert np.allclose(d.coeffs, [0.5, 0.5])


def test_binomial_symmetry():
    d = variable_node_dist(2, 0.5)
    assert np.allclose(d.coeffs, [0.25, 0.5, 0.25])


def test_zero_mass_at_large_t():
    # mass at k=0 for 200 slots at p = 3.10/10000, against exact arithmetic;
    # the log-space coefficient path is good to ~n*ulp
    d = variable_node_dist(200, 3.10 / 10000)
    expected = float(mpmath.mpf(1 - mpmath.mpf("3.10") / 10000) ** 200)
    assert d.coeffs[0] == pytest.approx(expected, rel=1e-12)
    # the closed-form evaluation path hits it exactly
    assert d.eval(0.0) == pytest.approx(expected, rel=1e-15)


def test_empty_group():
    d = observation_node_dist(0, 0.7)
    assert list(d.coeffs) == [1.0]


def test_observation_n2():
    d = observation_node_dist(2, 0.5)
    assert np.allclose(d.coeffs, [0.25, 0.5, 0.25])


def test_binomial_approaches_poisson():
    d = observation_node_dist(10000, 3.1e-4)
    poisson_k3 = math.exp(-3.1) * 3.1**3 / 6
    assert abs(d.coeffs[3] - poisson_k3) < 1e-4


def test_p_out_of_range():
    with pytest.raises(ValueError):
        variable_node_dist(10, 1.1)
    with pytest.raises(ValueError):
        observation_node_dist(10, -0.1)


def test_edge_perspective_binomial_identity():
    d = edge_perspective(variable_node_dist(2, 0.5))
    assert np.allclose(d.coeffs, variable_node_dist(1, 0.5).coeffs, atol=1e-12)


def test_edge_perspective_all_degree_one():
    d = edge_perspective(DegreePolynomial(np.array([0.0, 1.0])))
    assert np.allclose(d.coeffs, [1.0])


def test_edge_perspective_binomial5():
    lam = edge_perspective(observation_node_dist(5, 0.3))
    ref = observation_node_dist(4, 0.3)
    n = min(len(lam.coeffs), len(ref.coeffs))
    assert np.allclose(lam.coeffs[:n], ref.coeffs[:n], atol=1e-12)


def test_edge_perspective_coefficient_path():
    # k * c_k / sum(j * c_j) on a non-binomial mass
    d = DegreePolynomial(np.array([0.1, 0.3, 0.6]))
    lam = edge_perspective(d)
    mean = 0.3 + 2 * 0.6
    assert np.allclose(lam.coeffs, [0.3 / mean, 1.2 / mean])
    assert lam.coeffs.sum() == pytest.approx(1.0, abs=1e-9)


def test_edge_perspective_zero_mean_rejected():
    with pytest.raises(ValueError):
        edge_perspective(DegreePolynomial(np.array([1.0])))
    with pytest.raises(ValueError):
        edge_perspective(variable_node_dist(5, 0.0))


def test_eval_normalization():
    for d in (variable_node_dist(17, 0.3), observation_node_dist(40, 0.05)):
        assert d.eval(1.0) == pytest.approx(1.0, abs=1e-9)


def test_eval_at_zero():
    d = DegreePolynomial(np.array([0.25, 0.5, 0.25]))
    assert d.eval(0.0) == 0.25


def test_eval_closed_form():
    d = variable_node_dist(10, 0.2)
    assert d.eval(0.5) == pytest.approx(0.9**10, rel=1e-12)
    # coefficient path agrees with the closed form
    assert d.eval_coeffs(0.5) == pytest.approx(d.eval(0.5), rel=1e-10)


@given(
    n=st.integers(1, 60),
    p=st.floats(0.01, 0.99),
    x1=st.floats(0.0, 1.0),
    x2=st.floats(0.0, 1.0),
)
def test_eval_monotone(n, p, x1, x2):
    d = variable_node_dist(n, p)
    lo, hi = min(x1, x2), max(x1, x2)
    assert d.eval(lo) <= d.eval(hi) + 1e-12


@given(n=st.integers(1, 200), p=st.floats(0.001, 0.999))
def test_edge_perspective_sums_to_one(n, p):
    lam = edge_perspective(variable_node_dist(n, p))
    assert lam.eval(1.0) == pytest.approx(1.0, abs=1e-9)


@given(n=st.integers(2, 100), p=st.floats(0.001, 0.999))
def test_edge_perspective_matches_shifted_binomial(n, p):
    lam = edge_perspective(variable_node_dist(n, p))
    ref = variable_node_dist(n - 1, p)
    k = min(len(lam.coeffs), len(ref.coeffs))
    assert np.abs(lam.coeffs[:k] - ref.coeffs[:k]).max() < 1e-12


def test_mean_degree():
    assert variable_node_dist(40, 0.25).mean_degree() == pytest.approx(10.0)


def test_derivative_closed_form():
    d = observation_node_dist(7, 0.4)
    x = 0.3
    assert d.derivative_at(x) == pytest.approx(7 * 0.4 * (1 - 0.4 + 0.4 * x) ** 6, rel=1e-12)


@pytest.mark.parametrize("mode", ["coop", "noncoop", "bound"])
def test_row_pool_map_matches_the_degree_distributions(mode):
    # At x, the pool's map hands w_of R = R_i(1 - x) and rho = rho_i(1 - x),
    # the observation-node distribution and its edge perspective, and maps
    # each chain to F_T(x) = lambda_i(w), lambda_i the edge perspective of
    # the variable-node distribution L_i over T slots.
    topo = full_topology(2, [1, 300, 2000])
    pool = _RowPool(make_engine(topo, mode), max_iter=10, tol=1e-12)
    handed, w_of = [], pool.w_of

    def recording_w_of(x, p, big_r, rho):
        handed.append((big_r, rho))
        return w_of(x, p, big_r, rho)

    pool.w_of = recording_w_of
    t = np.array([1, 2, 37, 16069])
    g = np.array([[0.5, 1.5, 2.0], [1.0, 3.0, 3.1], [0.0, 0.2, 4.0], [0.9, 1.8, 1.7]])
    p = (g / [grp.num_users for grp in topo.groups])[:, pool.columns]
    x = np.random.default_rng(3).random(p.shape)
    x[0], x[1, 0] = 1.0, 0.0
    w, f = pool._map(x, p, 1.0 - p, t[:, None] - 1.0)
    (big_r, rho), = handed
    for r, c in np.ndindex(p.shape):
        n = topo.groups[pool.columns[c]].num_users
        obs = observation_node_dist(n, p[r, c])
        assert big_r[r, c] == pytest.approx(obs.eval(1.0 - x[r, c]), rel=1e-12, abs=0)
        if p[r, c] > 0:  # the edge perspective needs a mean degree above 0
            assert rho[r, c] == pytest.approx(
                edge_perspective(obs).eval(1.0 - x[r, c]), rel=1e-12, abs=0)
            lam = edge_perspective(variable_node_dist(int(t[r]), p[r, c]))
            assert f[r, c] == pytest.approx(lam.eval(w[r, c]), rel=1e-12, abs=0)
