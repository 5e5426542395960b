"""Differential-evolution search over target degrees.

Maximizes the peak throughput sup_T S(T) subject to the termination
constraint 1 - p_e(T*) > alpha, over a target-degree vector reduced by
tie classes (groups forced to share one value). DE/rand/1/bin with
reflection at the bounds; infeasible candidates are ranked below every
feasible one by the negated constraint shortfall (death penalty).

Fitness is the dominant cost, so the peak searches of a whole population
run through one fixed-point pool (`batched_peaks`), which drops the rows
certified to lose to their candidate's best without iterating them to
the end; results are cached on a 1e-4 quantization of the degree vector,
and the walk-graph tables are shared across all evaluations. The worker
count only reaches the table builds, so results do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .evolution import batched_peaks, default_t_grid, make_engine
from .topology import NetworkTopology, TargetDegreeVector, default_tie_classes

QUANT = 1e-4


@dataclass(frozen=True)
class OptimizationSpec:
    """Search problem: topology, constraint, tie structure, DE settings."""

    topology: NetworkTopology
    alpha: float = 0.8
    mode: str = "coop"
    tie_classes: tuple[tuple[int, ...], ...] | None = None
    bounds: tuple[float, float] = (0.0, 4.0)
    population: int = 300
    mutant_factor: float = 0.2
    generations: int = 30
    crossover_rate: float = 0.9
    cache_dir: str | None = None

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("DE needs a population of at least 4")
        lo, hi = self.bounds
        if not lo < hi:
            raise ValueError(f"degenerate bounds {self.bounds}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate must be in [0, 1], got {self.crossover_rate}")
        # Storn & Price's range of the differential weight; NaN fails too.
        if not 0.0 < self.mutant_factor <= 2.0:
            raise ValueError(f"mutant_factor must be in (0, 2], got {self.mutant_factor}")
        if not self.classes():  # raises on overlapping or incomplete tie classes
            raise ValueError("no populated groups to optimize")

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Tie classes over populated groups (empty groups keep G = 0)."""
        populated = {
            i for i, g in enumerate(self.topology.groups) if g.num_users > 0
        }
        if self.tie_classes is None:
            return default_tie_classes(self.topology)
        cleaned = []
        seen = set()
        for cls in self.tie_classes:
            kept = tuple(i for i in cls if i in populated)
            if seen & set(kept):
                raise ValueError("tie classes overlap")
            seen.update(kept)
            if kept:
                cleaned.append(kept)
        if seen != populated:
            missing = sorted(populated - seen)
            raise ValueError(f"groups {missing} not covered by tie classes")
        return tuple(cleaned)

    def expand(self, theta: np.ndarray) -> np.ndarray:
        """Class values -> full per-group degree vector (0 for empty groups)."""
        g = np.zeros(self.topology.num_groups)
        for value, cls in zip(theta, self.classes()):
            for i in cls:
                g[i] = value
        return g

    def scaled(self, fast: bool) -> "OptimizationSpec":
        if not fast:
            return self
        return replace(self, population=50, generations=15)


@dataclass(frozen=True)
class FitnessResult:
    throughput: float
    t_star: int
    feasible: bool
    success_fraction: float
    # Whether the density evolution at t_star converged within max_iter.
    converged: bool = True

    @property
    def value(self) -> float:
        """Selection key: feasible candidates compare by throughput,
        infeasible ones sit below zero at minus the constraint shortfall."""
        if self.feasible:
            return self.throughput
        return self.success_fraction - 1.0  # == -(alpha-ish shortfall), < 0


@dataclass(frozen=True)
class OptimizationResult:
    best_g: tuple[float, ...]
    throughput: float
    t_star: int
    feasible: bool
    success_fraction: float
    history: tuple[float, ...]
    classes: tuple[tuple[int, ...], ...]
    n_evaluations: int
    seed: int
    converged: bool = True

    def summary(self) -> dict:
        return {
            "best_g": list(self.best_g),
            "throughput": self.throughput,
            "t_star": self.t_star,
            "feasible": self.feasible,
            "success_fraction": self.success_fraction,
            "converged": self.converged,
            "generations": len(self.history) - 1,
            "history": list(self.history),
            "classes": [list(c) for c in self.classes],
            "n_evaluations": self.n_evaluations,
            "seed": self.seed,
        }


def _quantize(g: np.ndarray) -> tuple[int, ...]:
    return tuple(int(round(v / QUANT)) for v in g)


def _result_from_peak(spec: OptimizationSpec, t_star: int, row: tuple) -> FitnessResult:
    throughput, plr_avg, _, converged = row
    success = 1.0 - plr_avg
    return FitnessResult(
        throughput=throughput,
        t_star=t_star,
        feasible=success > spec.alpha,
        success_fraction=success,
        converged=converged,
    )


class _FitnessEvaluator:
    """Caches fitness on quantized degree vectors, shares one engine."""

    def __init__(self, spec: OptimizationSpec, workers: int = 1):
        self.spec = spec
        self.engine = make_engine(
            spec.topology,
            spec.mode,
            cache_dir=spec.cache_dir,
            workers=workers,
        )
        self.cache: dict[tuple, FitnessResult] = {}
        self.grid = default_t_grid(spec.topology)

    def __call__(self, g_vectors: list[np.ndarray]) -> list[FitnessResult]:
        keys = [_quantize(g) for g in g_vectors]
        new_keys = []
        new_rows = []
        deg = TargetDegreeVector
        for key, g in zip(keys, g_vectors):
            if key not in self.cache and key not in new_keys:
                new_keys.append(key)
                p = deg(tuple(g)).probabilities(self.spec.topology)
                new_rows.append(p)
        if new_rows:
            peaks = batched_peaks(self.engine, np.array(new_rows), t_grid=self.grid)
            for key, peak in zip(new_keys, peaks):
                self.cache[key] = _result_from_peak(self.spec, *peak)
        return [self.cache[key] for key in keys]


def fitness(spec: OptimizationSpec, g) -> FitnessResult:
    """Peak throughput, its frame length, and constraint feasibility for
    one full-length target-degree vector."""
    return _FitnessEvaluator(spec)([np.asarray(g, dtype=float)])[0]


def _reflect(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    for _ in range(8):
        under, over = v < lo, v > hi
        if not (under.any() or over.any()):
            return v
        v = np.where(under, 2 * lo - v, v)
        v = np.where(over, 2 * hi - v, v)
    return np.clip(v, lo, hi)


def optimize(
    spec: OptimizationSpec, seed: int, *, workers: int = 1, fast: bool = False
) -> OptimizationResult:
    """DE/rand/1/bin over the tie-class-reduced degree vector."""
    spec = spec.scaled(fast)
    classes = spec.classes()
    dim = len(classes)
    lo, hi = spec.bounds
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    evaluator = _FitnessEvaluator(spec, workers=workers)
    npop = spec.population

    pop = lo + rng.random((npop, dim)) * (hi - lo)
    results = evaluator([spec.expand(th) for th in pop])
    values = np.array([r.value for r in results])
    history = [float(values.max())]

    for _ in range(spec.generations):
        trials = np.empty_like(pop)
        for i in range(npop):
            picks = []
            while len(picks) < 3:
                j = int(rng.integers(npop))
                if j != i and j not in picks:
                    picks.append(j)
            r1, r2, r3 = picks
            mutant = pop[r1] + spec.mutant_factor * (pop[r2] - pop[r3])
            mutant = _reflect(mutant, lo, hi)
            cross = rng.random(dim) < spec.crossover_rate
            cross[int(rng.integers(dim))] = True
            trials[i] = np.where(cross, mutant, pop[i])
        trial_results = evaluator([spec.expand(th) for th in trials])
        for i in range(npop):
            if trial_results[i].value >= values[i]:
                pop[i] = trials[i]
                values[i] = trial_results[i].value
                results[i] = trial_results[i]
        history.append(float(values.max()))

    best = int(np.argmax(values))
    best_fit = results[best]
    return OptimizationResult(
        best_g=tuple(float(v) for v in spec.expand(pop[best])),
        throughput=best_fit.throughput,
        t_star=best_fit.t_star,
        feasible=best_fit.feasible,
        success_fraction=best_fit.success_fraction,
        history=tuple(history),
        classes=classes,
        n_evaluations=len(evaluator.cache),
        seed=int(seed),
        converged=best_fit.converged,
    )
