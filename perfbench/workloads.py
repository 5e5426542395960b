"""The benchmark's four workloads: inputs from a seed, set-up, one
operation, and the checks on its output.

Each workload is called in three steps. `build(seed)` makes the inputs
(untimed). `setup(cache_dir)` does the cold set-up a user pays before the
first result: engine construction with an empty table cache. `run(k)`
performs operation k, the unit that is timed; `check(out)` validates its
output and returns failure messages, and `finish()` returns the failures
of checks over the whole run. Only public library calls are timed, the
same calls the CLI commands make, always in one process with workers=1.

`smoke=True` selects tiny sizes (M = 1 or 2, one generation, one frame)
that run the same code paths and checks in seconds.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from frameless import bounds, evolution, optimizer, simulator
from frameless import topology as topo_mod

ROOT = Path(__file__).resolve().parent.parent

# Table 1 of the paper: M -> (target degrees, analytical peak, simulated peak).
TABLE1 = {
    1: ((3.10,), 0.874, 0.867),
    2: ((1.81, 1.81, 1.68), 1.676, 1.673),
    3: ((1.11, 1.11, 0.94, 1.11, 0.94, 0.94, 0.78), 2.366, 2.363),
}
USERS_PER_GROUP = 10000
NONCOOP_DEGREE = 3.098
ALPHA = 0.8


def _symmetric_topology(m: int):
    return topo_mod.full_topology(m, [USERS_PER_GROUP] * (2**m - 1))


class Workload:
    """Defaults shared by the workloads below."""

    def __init__(self):
        # Findings listed with the result that do not fail an operation.
        self.notes: list[str] = []

    def finish(self) -> list[str]:
        return []


class AnalyzeM3(Workload):
    """Peak searches of the three engines, as `analyze` and `bounds` run them.

    Seed 0 uses the Table-1 degrees. Other seeds scale every degree (and
    the non-cooperative per-BS degree) by independent factors in
    [0.98, 1.02] drawn from the seed. The iteration count of a peak
    search varies by about 10 % between such inputs, so every operation
    of a run repeats the same inputs and their times differ only by
    the host's noise.

    Some jittered inputs put a peak on a row that stopped at max_iter
    without converging: about 1 in 15 bound or non-cooperative searches
    and 1 in 80 coop searches. Such a peak is listed in the notes and
    counted by the traced run (evolution.nonconverged_peaks); it does not
    fail the operation, whose checks are on the peak values.
    """

    name = "analyze-m3"
    PEAK_TOL = 0.005
    JITTER = 0.02

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.m = 2 if smoke else 3

    def build(self, seed: int):
        self.seed = seed
        self.table_degrees, self.expect, _ = TABLE1[self.m]
        self.topology = _symmetric_topology(self.m)
        self.upper = bounds.upper_bound_throughput(self.m)

        scale = np.ones(len(self.table_degrees) + 1)
        if seed != 0:
            rng = np.random.default_rng(seed)
            scale += rng.uniform(-self.JITTER, self.JITTER, len(scale))
        # Degrees of the coop and bound searches, then of the noncoop one.
        self.degrees = tuple(float(g * s) for g, s in zip(self.table_degrees, scale))
        self.degrees_nc = evolution.simultaneous_transmission_degrees(
            self.topology, NONCOOP_DEGREE * float(scale[-1])
        )

    def setup(self, cache_dir):
        self.engines = {
            mode: evolution.make_engine(self.topology, mode, cache_dir=cache_dir)
            for mode in ("coop", "noncoop", "bound")
        }

    def run(self, k: int):
        out, times = {}, {}
        searches = (("coop", self.degrees), ("noncoop", self.degrees_nc), ("bound", self.degrees))
        for mode, degrees in searches:
            t0 = time.perf_counter()
            out[mode] = evolution.peak_search(
                self.topology, degrees, mode, engine=self.engines[mode]
            )
            times[f"{mode}_peak_s"] = time.perf_counter() - t0
        return out, times

    def check(self, out) -> list[str]:
        peaks, _ = out
        fails = []
        self.notes.extend(
            f"{mode} peak at T={pk.t_star} did not converge"
            for mode, pk in peaks.items()
            if not pk.converged
        )
        coop, bound, nc = (peaks[m].throughput for m in ("coop", "bound", "noncoop"))
        if abs(coop - self.expect) > self.PEAK_TOL:
            fails.append(f"coop peak {coop:.4f} not within {self.PEAK_TOL} of {self.expect}")
        if not bound <= coop <= self.upper:
            fails.append(f"bound {bound:.4f} <= coop {coop:.4f} <= {self.upper:.3f} violated")
        if not 0.0 < nc < coop:
            fails.append(f"non-cooperative peak {nc:.4f} not in (0, coop)")
        return fails


class OptimizeM2(Workload):
    """Differential evolution on the symmetric 2-BS network, coop mode.

    Population 50 as in `optimize --fast`, but 2 generations instead of
    15 so that several runs fit in one measurement. The DE seed is the
    workload seed, so every operation of a run repeats the same search.

    Two generations stop short of the published optimum 1.676 by a
    seed-dependent amount (1.558 to 1.676 seen), so a DE
    run is checked for a feasible optimum, equal degrees within each tie
    class, a best value that never decreased across generations, a
    throughput in [LOWER, 1.676 + 0.005], and the same peak when
    `fitness` re-evaluates the returned degrees alone. LOWER sits 0.058
    below the worst value seen, so a DE run that stalls near a poor
    feasible point fails. Once per run, `fitness` at the published
    degrees must give 1.676 within 0.005.
    """

    name = "optimize-m2"
    PUBLISHED = ((1.812, 1.812, 1.680), 1.676)
    TOL = 0.005
    LOWER = 1.50

    def __init__(self, smoke: bool = False):
        super().__init__()
        # The smoke size narrows the search box around the optimum so that
        # one generation of 8 candidates still finds a feasible point.
        self.population, self.generations = (8, 1) if smoke else (50, 2)
        self.box = (1.6, 1.9) if smoke else (0.0, 4.0)

    def build(self, seed: int):
        self.seed = seed
        self.topology = _symmetric_topology(2)

    def setup(self, cache_dir):
        # The cold engine build fills the table cache; each `optimize`
        # call then builds its own engine from the cached tables.
        evolution.make_engine(self.topology, "coop", cache_dir=cache_dir)
        self.spec = optimizer.OptimizationSpec(
            topology=self.topology,
            alpha=ALPHA,
            mode="coop",
            bounds=self.box,
            population=self.population,
            generations=self.generations,
            cache_dir=str(cache_dir),
        )

    def run(self, k: int):
        t0 = time.perf_counter()
        res = optimizer.optimize(self.spec, seed=self.seed, workers=1)
        return res, {"optimize_s": time.perf_counter() - t0}

    def check(self, out) -> list[str]:
        res, _ = out
        fails = []
        if not res.feasible:
            fails.append(f"optimum infeasible: success {res.success_fraction:.4f}")
        for cls in res.classes:
            if len({res.best_g[i] for i in cls}) != 1:
                fails.append(f"tie class {cls} has unequal degrees")
        if list(res.history) != sorted(res.history) or res.history[-1] != res.throughput:
            fails.append(f"best value history {res.history} is not the elitist DE's")
        if res.throughput > self.PUBLISHED[1] + self.TOL:
            fails.append(f"throughput {res.throughput:.4f} above the optimum {self.PUBLISHED[1]}")
        if res.throughput < self.LOWER:
            fails.append(f"throughput {res.throughput:.4f} below {self.LOWER}")
        again = optimizer.fitness(self.spec, res.best_g)
        if again.t_star != res.t_star or abs(again.throughput - res.throughput) > 1e-9:
            fails.append("re-evaluating the optimum gives a different peak")
        return fails

    def finish(self) -> list[str]:
        degrees, expect = self.PUBLISHED
        got = optimizer.fitness(self.spec, degrees).throughput
        if abs(got - expect) > self.TOL:
            return [f"fitness at {degrees} is {got:.4f}, not {expect} within {self.TOL}"]
        return []


class SimulateM3(Workload):
    """Frameless frames at the Table-1 degrees with threshold stop.

    Frame k is trial k of a SimulationSpec whose master seed is the
    workload seed, exactly as `simulate` runs trial k. The run's mean
    throughput must match the Table-1 simulated value within four
    standard errors, using a per-frame standard deviation of SIGMA.
    """

    name = "simulate-m3"
    # Per-frame throughput standard deviation: 0.0065 (M=3) and 0.0054
    # (M=1) measured over 40 frames each, rounded up.
    SIGMA = {3: 0.007, 1: 0.006}

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.m = 1 if smoke else 3
        self.throughputs: list[float] = []

    def build(self, seed: int):
        self.seed = seed
        self.degrees, _, self.expect = TABLE1[self.m]
        self.topology = _symmetric_topology(self.m)
        self.threshold = math.floor(ALPHA * self.topology.num_users)

    def setup(self, cache_dir):
        self.spec = simulator.SimulationSpec(
            topology=self.topology,
            mode="frameless",
            degrees=self.degrees,
            alpha=ALPHA,
            master_seed=self.seed,
        )

    def run(self, k: int):
        t0 = time.perf_counter()
        frame = self.spec.run_trial(k)
        return frame, {"frameless_s": time.perf_counter() - t0, "frameless_slots": frame.t}

    def check(self, out) -> list[str]:
        frame, _ = out
        self.throughputs.append(frame.throughput)
        fails = []
        if frame.terminated_by != "threshold":
            fails.append(f"frame ended by {frame.terminated_by}, not threshold")
        if frame.n_ret < self.threshold:
            fails.append(f"{frame.n_ret} retrieved < threshold {self.threshold}")
        return fails

    def finish(self) -> list[str]:
        n = len(self.throughputs)
        if n == 0:
            return []
        mean = math.fsum(self.throughputs) / n
        tol = 4 * self.SIGMA[self.m] / math.sqrt(n)
        if abs(mean - self.expect) > tol:
            return [f"mean throughput {mean:.4f} not within {tol:.4f} of {self.expect}"]
        return []


class CompareBaseline(Workload):
    """The configs/compare_baseline.json sweep, one trial per operation.

    Operation k runs trial k of every point: a fixed-length frameless
    frame (master seed = seed) and a framed baseline frame with the
    configured replica distribution (master seed = seed + 1), as
    `compare` seeds them. Every frame must end `fixed` at its T with at
    most N retrieved, and the fixed-frame PLR must stay at or above the
    never-transmitted floor minus 3 sigma, per frame and over the run.
    """

    name = "compare-baseline"
    CONFIG = ROOT / "configs" / "compare_baseline.json"

    def __init__(self, smoke: bool = False):
        super().__init__()
        self.smoke = smoke

    def build(self, seed: int):
        doc = json.loads(self.CONFIG.read_text())
        self.seed = seed
        self.topology = topo_mod.load_topology(json.dumps(doc["topology"]))
        self.degrees = tuple(float(g) for g in doc["degrees"])
        self.replica = tuple(
            sorted((int(k), float(v)) for k, v in doc.get("replica_dist", {"2": 1.0}).items())
        )
        gbars = [float(v) for v in doc["gbar_values"]]
        if self.smoke:
            gbars = gbars[-1:]
        n, m = self.topology.num_users, self.topology.num_bs
        p = np.array([g / grp.num_users for g, grp in zip(self.degrees, self.topology.groups)])
        weights = np.array([grp.num_users for grp in self.topology.groups]) / n
        self.points = []
        for gbar in gbars:
            t = max(1, int(round(n / (m * gbar))))
            self.points.append((gbar, t, float(weights @ (1.0 - p) ** t)))
        self.plr_sums = [0.0] * len(self.points)
        self.trials = 0

    def setup(self, cache_dir):
        self.specs = [
            (
                simulator.SimulationSpec(
                    topology=self.topology, mode="fixed", degrees=self.degrees,
                    t_slots=t, master_seed=self.seed,
                ),
                simulator.SimulationSpec(
                    topology=self.topology, mode="spatio", replica_dist=self.replica,
                    t_slots=t, master_seed=self.seed + 1,
                ),
            )
            for _, t, _ in self.points
        ]

    def run(self, k: int):
        frames = []
        fixed_s = spatio_s = 0.0
        for fixed, spatio in self.specs:
            t0 = time.perf_counter()
            f = fixed.run_trial(k)
            t1 = time.perf_counter()
            b = spatio.run_trial(k)
            t2 = time.perf_counter()
            fixed_s += t1 - t0
            spatio_s += t2 - t1
            frames.append((f, b))
        times = {
            "fixed_s": fixed_s,
            "fixed_slots": float(sum(f.t for f, _ in frames)),
            "baseline_s": spatio_s,
            "baseline_frames": float(len(frames)),
        }
        return frames, times

    def _sigma(self, floor: float, trials: int) -> float:
        return math.sqrt(max(floor * (1 - floor), 1e-12) / (trials * self.topology.num_users))

    def check(self, out) -> list[str]:
        frames, _ = out
        fails = []
        n = self.topology.num_users
        self.trials += 1
        for idx, ((gbar, t, floor), (f, b)) in enumerate(zip(self.points, frames)):
            for kind, fr in (("fixed", f), ("baseline", b)):
                if fr.terminated_by != "fixed" or fr.t != t or fr.n_ret > n:
                    fails.append(
                        f"Gbar={gbar} {kind} frame: {fr.terminated_by} at T={fr.t}, "
                        f"n_ret={fr.n_ret} (want fixed at T={t}, n_ret <= {n})"
                    )
            self.plr_sums[idx] += f.plr
            if f.plr < floor - 3 * self._sigma(floor, 1):
                fails.append(f"Gbar={gbar}: fixed-frame PLR {f.plr:.3e} below floor {floor:.3e}")
        return fails

    def finish(self) -> list[str]:
        if self.trials == 0:
            return []
        fails = []
        for (gbar, _, floor), total in zip(self.points, self.plr_sums):
            plr = total / self.trials
            if plr < floor - 3 * self._sigma(floor, self.trials):
                fails.append(f"Gbar={gbar}: mean fixed PLR {plr:.3e} below floor {floor:.3e}")
        return fails


WORKLOADS = {w.name: w for w in (AnalyzeM3, OptimizeM2, SimulateM3, CompareBaseline)}
