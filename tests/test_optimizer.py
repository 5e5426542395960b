import numpy as np
import pytest

from frameless.optimizer import (
    FitnessResult,
    OptimizationSpec,
    _FitnessEvaluator,
    _reflect,
    fitness,
    optimize,
)
from frameless.topology import full_topology


@pytest.fixture(scope="module")
def small_spec():
    # tiny network keeps every fitness evaluation cheap
    topo = full_topology(2, [300, 300, 300])
    return OptimizationSpec(
        topology=topo, alpha=0.8, mode="coop", population=12, generations=6
    )


def test_spec_validation():
    topo = full_topology(1, [100])
    with pytest.raises(ValueError):
        OptimizationSpec(topology=topo, population=3)
    with pytest.raises(ValueError):
        OptimizationSpec(topology=topo, bounds=(2.0, 2.0))
    with pytest.raises(ValueError):
        OptimizationSpec(topology=topo, alpha=0.0)


def test_classes_default_by_degree():
    topo = full_topology(2, [100, 100, 100])
    spec = OptimizationSpec(topology=topo)
    assert spec.classes() == ((0, 1), (2,))
    g = spec.expand(np.array([1.5, 0.7]))
    assert list(g) == [1.5, 1.5, 0.7]


def test_classes_skip_empty_groups():
    topo = full_topology(2, [100, 100, 0])
    spec = OptimizationSpec(topology=topo)
    assert spec.classes() == ((0, 1),)
    assert list(spec.expand(np.array([2.0]))) == [2.0, 2.0, 0.0]


def test_explicit_classes_must_cover():
    topo = full_topology(2, [100, 100, 100])
    with pytest.raises(ValueError, match="not covered"):
        OptimizationSpec(topology=topo, tie_classes=((0, 1),)).classes()
    with pytest.raises(ValueError, match="overlap"):
        OptimizationSpec(topology=topo, tie_classes=((0, 1), (1, 2))).classes()


def test_reflection_into_bounds():
    v = np.array([-0.5, 4.5, 2.0])
    out = _reflect(v, 0.0, 4.0)
    assert np.allclose(out, [0.5, 3.5, 2.0])
    far = np.array([-100.0])
    assert 0.0 <= _reflect(far, 0.0, 4.0)[0] <= 4.0


def test_fitness_zero_degrees_infeasible():
    topo = full_topology(1, [500])
    spec = OptimizationSpec(topology=topo, population=8, generations=2)
    res = fitness(spec, (0.0,))
    assert not res.feasible
    assert res.value < 0.0


def test_fitness_value_ordering():
    feasible = FitnessResult(throughput=0.8, t_star=10, feasible=True,
                             success_fraction=0.9)
    infeasible = FitnessResult(throughput=2.0, t_star=10, feasible=False,
                               success_fraction=0.5)
    assert feasible.value > infeasible.value


def test_fitness_cache_hits(small_spec):
    ev = _FitnessEvaluator(small_spec)
    g = np.array([1.7, 1.7, 1.5])
    first = ev([g])[0]
    n_cached = len(ev.cache)
    again = ev([g + 2e-6])[0]  # same 1e-4 quantization bucket
    assert len(ev.cache) == n_cached
    assert again == first


def test_optimize_deterministic(small_spec):
    a = optimize(small_spec, seed=11)
    b = optimize(small_spec, seed=11)
    assert a.best_g == b.best_g
    assert a.history == b.history


def test_optimize_worker_invariance(small_spec):
    a = optimize(small_spec, seed=7, workers=1)
    b = optimize(small_spec, seed=7, workers=2)
    assert a.best_g == b.best_g
    assert a.history == b.history


def test_optimize_matches_lockstep_oracle(small_spec, monkeypatch):
    import oracles
    from frameless import optimizer

    streamed = optimize(small_spec, seed=4)
    monkeypatch.setattr(optimizer, "batched_peak_search", oracles.batched_peak_search)
    lockstep = optimize(small_spec, seed=4)
    assert streamed.best_g == lockstep.best_g
    assert streamed.history == lockstep.history
    assert streamed.t_star == lockstep.t_star


def test_history_monotone(small_spec):
    res = optimize(small_spec, seed=3)
    hist = np.array(res.history)
    assert (np.diff(hist) >= -1e-12).all()


def test_ties_respected_and_reevaluable(small_spec):
    res = optimize(small_spec, seed=5)
    assert res.best_g[0] == res.best_g[1]
    # reported optimum reproduces its reported fitness exactly
    again = fitness(small_spec, res.best_g)
    assert again.throughput == res.throughput
    assert again.t_star == res.t_star


def test_no_feasible_candidate_reported():
    # alpha = 1 cannot be met: PLR never hits exactly zero
    topo = full_topology(1, [300])
    spec = OptimizationSpec(topology=topo, alpha=1.0, population=6, generations=2)
    res = optimize(spec, seed=1)
    assert not res.feasible
    assert res.success_fraction < 1.0


def test_fast_scaling():
    topo = full_topology(1, [300])
    spec = OptimizationSpec(topology=topo, population=300, generations=30)
    assert spec.scaled(True).population == 50
    assert spec.scaled(True).generations == 15
    assert spec.scaled(False) is spec


def test_converged_flag_carried(small_spec):
    from dataclasses import replace

    g = (1.7, 1.7, 1.5)
    assert fitness(small_spec, g).converged
    short = replace(small_spec, max_iter=3)
    assert not fitness(short, g).converged
    res = optimize(replace(short, population=4, generations=1), seed=0)
    assert res.summary()["converged"] is False
