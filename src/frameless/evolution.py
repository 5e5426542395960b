"""Density evolution of the packet-loss rate, with and without cooperation.

Every analysis iterates the same erasure fixed point from x^(0) = w^(0) = 1:
an iteration computes the collision probability w from the previous x and
then x = lambda(w), until no entry of a row moves by tol. One row pool,
`_RowPool`, runs it for all engines; an engine supplies only its w
kernel. The cooperative kernel gives each group's w by summing the
probabilities of every walk-graph pattern from which the target packet
peels. The non-cooperative kernel runs one chain per (group, BS) pair and
combines per-BS failures with a product approximation; the matrix
lower-bound kernel lives in `bounds`.

The collision-free part of the cooperative sum (initial singleton at some
BS) has an exact inclusion-exclusion closed form over the target's BS
subsets; the cooperative-rescue remainder is evaluated on the compressed
pattern DAG. Each kernel covers all targets at once (padded gathers, one
levelized DAG holding every target), and all engines evaluate batches of
(transmission-probability vector, T) rows at once, which is what makes
the optimizer affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .topology import NetworkTopology, TargetDegreeVector
from .walkgraph import (
    GuardError,
    PatternDag,
    companion_order,
    load_or_build_tables,
)

DEFAULT_MAX_ITER = 2000
DEFAULT_TOL = 1e-10
# Asymptotic peak throughput of single-BS frameless ALOHA.
SINGLE_BS_PEAK = 0.87

# Pattern space beyond 3^6 (more than 7 groups) is gated behind allow_long.
FAST_GROUP_LIMIT = 7

# Computed probabilities outside [0, 1] by more than this indicate a bug.
PROB_SLACK = 1e-6


def _prob_vector(topology: NetworkTopology, degrees) -> np.ndarray:
    if not isinstance(degrees, TargetDegreeVector):
        degrees = TargetDegreeVector(tuple(degrees))
    return np.asarray(degrees.probabilities(topology), dtype=float)


def _check_unit(name: str, arr: np.ndarray):
    if (arr < -PROB_SLACK).any() or (arr > 1.0 + PROB_SLACK).any():
        bad = arr[(arr < -PROB_SLACK) | (arr > 1.0 + PROB_SLACK)]
        raise FloatingPointError(f"{name}={bad[:4]} outside [0,1] beyond tolerance")


def _padded(lists, fill: int) -> np.ndarray:
    """Index lists as one (len(lists), longest) array, each row padded at
    its end with fill. Kernels pad with the index of the ones column that
    `_with_ones` appends, so a padded factor multiplies by exactly 1."""
    out = np.full((len(lists), max(map(len, lists))), fill, dtype=np.intp)
    for r, row in enumerate(lists):
        out[r, : len(row)] = row
    return out


def _with_ones(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a, np.ones((len(a), 1))], axis=1)


class _RowPool:
    """Rows of the fixed point x = (1 - p + p w)^(T-1), iterated together.

    Columns are the engine's chains, with transmission probability p and
    population counts; w_of(x, p, R, rho) returns w for every row, given
    R = (1 - p x)^N and rho = (1 - p x)^(N-1). Rows join with add() at
    any iteration, start from x = w = 1 and leave once no entry moves by
    tol or after max_iter iterations of their own. A row's bits do not
    depend on the other rows in the pool.
    """

    def __init__(self, engine, max_iter, tol, trace=None):
        self.columns = engine.columns
        self.counts = engine.counts[self.columns]
        self.nm1 = np.maximum(self.counts - 1.0, 0.0)
        self.w_of = engine._w if trace is None else partial(engine._w, trace=trace)
        self.max_iter, self.tol = max_iter, tol
        n = len(self.columns)
        self.keys = np.empty(0, dtype=np.intp)
        self.p = self.q = self.x = np.empty((0, n))
        self.tm1 = np.empty((0, 1), dtype=np.int64)
        self.iters = np.empty(0, dtype=np.int64)

    def __len__(self):
        return len(self.keys)

    def add(self, keys, p, t):
        """Join rows with group probabilities p and slot counts t."""
        t = np.asarray(t, dtype=np.int64)
        if (t < 1).any():
            raise ValueError("slot counts must be >= 1")
        p = p[:, self.columns]
        self.keys = np.concatenate([self.keys, keys])
        self.p = np.concatenate([self.p, p])
        self.q = np.concatenate([self.q, 1.0 - p])
        self.x = np.concatenate([self.x, np.ones(p.shape)])
        self.tm1 = np.concatenate([self.tm1, t[:, None] - 1])
        self.iters = np.concatenate([self.iters, np.zeros(len(t), dtype=np.int64)])

    def step(self):
        """Run one iteration of every row. Returns (keys, x, w, iterations,
        converged) of the rows that leave, or None."""
        p, x = self.p, self.x
        base = 1.0 - p * x
        w = self.w_of(x, p, base**self.counts, base**self.nm1)
        _check_unit("w", w)
        np.clip(w, 0.0, 1.0, out=w)
        self.x = (self.q + p * w) ** self.tm1
        self.iters += 1
        done = np.abs(self.x - x).max(axis=1) < self.tol
        leave = done | (self.iters >= self.max_iter)
        if not leave.any():
            return None
        out = (self.keys[leave], self.x[leave], w[leave], self.iters[leave], done[leave])
        stay = ~leave
        self.keys, self.p, self.q, self.x, self.tm1, self.iters = (
            a[stay] for a in (self.keys, self.p, self.q, self.x, self.tm1, self.iters)
        )
        return out


@dataclass
class BatchEvolution:
    """Evolution outcome for a batch of (p, T) rows."""

    t: np.ndarray
    w: np.ndarray
    x: np.ndarray
    plr_groups: np.ndarray
    plr_avg: np.ndarray
    throughput: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    trace_r0: np.ndarray | None = None
    trace_r1: np.ndarray | None = None


@dataclass(frozen=True)
class EvolutionResult:
    """Single-T evolution outcome (per-group view of BatchEvolution)."""

    t: int
    plr: np.ndarray
    w: np.ndarray
    x: np.ndarray
    plr_avg: float
    throughput: float
    iterations: int
    converged: bool
    trace_r0: np.ndarray | None = None
    trace_r1: np.ndarray | None = None


class _EngineBase:
    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self.counts = np.array([g.num_users for g in topology.groups], dtype=float)
        self.total_users = float(self.counts.sum())
        if self.total_users <= 0:
            raise ValueError("topology has no users")
        # The fixed point runs one column per chain, listed group by group:
        # one per group here, one per (group, BS) pair in NoncoopEngine.
        self.columns = np.arange(topology.num_groups)
        self.group_offsets = self.columns

    def evaluate(
        self,
        p_rows,
        t_rows,
        max_iter: int = DEFAULT_MAX_ITER,
        tol: float = DEFAULT_TOL,
        want_trace: bool = False,
    ) -> BatchEvolution:
        p = np.atleast_2d(np.asarray(p_rows, dtype=float))
        t = np.asarray(t_rows, dtype=np.int64)
        if want_trace and p.shape[0] != 1:
            raise ValueError("trace recording supports a single row")
        trace = [] if want_trace else None
        pool = _RowPool(self, max_iter, tol, trace)
        pool.add(np.arange(len(p)), p, t)
        x = np.ones((len(p), len(self.columns)))
        w = np.ones_like(x)
        iters = np.zeros(len(p), dtype=np.int64)
        conv = np.zeros(len(p), dtype=bool)
        while len(pool):
            left = pool.step()
            if left is not None:
                keys = left[0]
                x[keys], w[keys], iters[keys], conv[keys] = left[1:]
        return self._finish(p, t, w, x, iters, conv, trace)

    def _finish(self, p, t, w, x, iters, conv, trace=None):
        # Per group, w is the product of its chains' collision probabilities
        # (the identity for one chain per group).
        w = np.multiply.reduceat(w, self.group_offsets, axis=1)
        x = np.minimum.reduceat(x, self.group_offsets, axis=1)
        pe = (1.0 - p + p * w) ** t[:, None]
        # Elementwise sums, not BLAS products, so that a row's rounding does
        # not depend on its place in the batch.
        plr_avg = (pe * (self.counts / self.total_users)).sum(axis=1)
        throughput = ((1.0 - pe) * self.counts).sum(axis=1) / t
        trace_r0 = trace_r1 = None
        if trace is not None and trace:
            trace_r0 = np.array([a for a, _ in trace])
            trace_r1 = np.array([b for _, b in trace])
        return BatchEvolution(
            t=t,
            w=w,
            x=x,
            plr_groups=pe,
            plr_avg=plr_avg,
            throughput=throughput,
            iterations=iters,
            converged=conv,
            trace_r0=trace_r0,
            trace_r1=trace_r1,
        )

    def evaluate_degrees(
        self, degrees, t_values, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL, **kw
    ) -> BatchEvolution:
        p = _prob_vector(self.topology, degrees)
        t = np.atleast_1d(np.asarray(t_values, dtype=np.int64))
        rows = np.broadcast_to(p, (len(t), len(p)))
        return self.evaluate(rows, t, max_iter=max_iter, tol=tol, **kw)


class CoopEngine(_EngineBase):
    """Joint-SIC density evolution using the walk-graph retrievability tables."""

    def __init__(
        self,
        topology: NetworkTopology,
        *,
        cache_dir=None,
        workers: int = 1,
        allow_long: bool = False,
        persist_tables: bool = True,
    ):
        super().__init__(topology)
        n_groups = topology.num_groups
        if n_groups > FAST_GROUP_LIMIT and not allow_long:
            raise GuardError(
                f"exact cooperative analysis over {n_groups} groups means "
                f"3^{n_groups - 1} patterns per target; pass allow_long=True"
            )
        self.tables = load_or_build_tables(
            topology, cache_dir=cache_dir, workers=workers, persist=persist_tables
        )
        # One levelized rescue DAG over all targets.
        self.dag = PatternDag(
            np.array([self.tables[i].rescue for i in range(n_groups)]),
            [companion_order(n_groups, i) for i in range(n_groups)],
        )
        # Inclusion-exclusion terms for the initial-singleton probability:
        # per target and term, the sign and the companions at the union of a
        # BS subset. Terms and members are padded with sign 0 and with the
        # index of an appended column of ones.
        terms = []
        for i, g in enumerate(topology.groups):
            row = []
            for size in range(1, g.degree + 1):
                for subset in combinations(g.bs_set, size):
                    members = set()
                    for j in subset:
                        members.update(topology.groups_at_bs[j - 1])
                    members.discard(i)
                    row.append(((-1.0) ** (size + 1), sorted(members)))
            terms.append(row)
        n_terms = max(len(row) for row in terms)
        terms = [row + [(0.0, [])] * (n_terms - len(row)) for row in terms]
        self._r0_sign = np.array([[sign for sign, _ in row] for row in terms])
        idx = _padded([members for row in terms for _, members in row], n_groups)
        self._r0_idx = idx.reshape(n_groups, n_terms, idx.shape[1])

    def _p_r0(self, big_r: np.ndarray) -> np.ndarray:
        terms = _with_ones(big_r)[:, self._r0_idx].prod(axis=-1) * self._r0_sign
        acc = terms[:, :, 0]
        for k in range(1, terms.shape[2]):
            acc = acc + terms[:, :, k]
        return acc

    def _p_r1(self, big_r: np.ndarray, big_c: np.ndarray) -> np.ndarray:
        v = np.array([big_r.T, big_c.T, (1.0 - big_r - big_c).T])
        return self.dag.evaluate(v).T

    def _w(self, xa, pa, big_r, rho, trace=None):
        big_c = xa * self.counts * pa * rho
        p0 = self._p_r0(big_r)
        p1 = self._p_r1(big_r, big_c)
        if trace is not None:
            trace.append((rho[0] * p0[0], rho[0] * p1[0]))
        return 1.0 - rho * (p0 + p1)


def _leave_one_out(a: np.ndarray) -> np.ndarray:
    """Per-entry product of all other entries on the last axis, without
    division."""
    k = a.shape[-1]
    if k == 1:
        return np.ones_like(a)
    fwd = np.cumprod(a, axis=-1)
    bwd = np.cumprod(a[..., ::-1], axis=-1)[..., ::-1]
    out = np.empty_like(a)
    out[..., 0] = bwd[..., 1]
    out[..., -1] = fwd[..., -2]
    if k > 2:
        out[..., 1:-1] = fwd[..., :-2] * bwd[..., 2:]
    return out


class NoncoopEngine(_EngineBase):
    """Per-BS local SIC; failure events combined by the product approximation."""

    def __init__(self, topology: NetworkTopology):
        super().__init__(topology)
        pairs = [
            (i, j)
            for i in range(topology.num_groups)
            for j in topology.groups[i].bs_set
        ]
        self.columns = np.array([i for i, _ in pairs], dtype=np.intp)
        # (M, k_max) pair indices per BS, padded at the end with the index
        # of an appended column of ones; padding there leaves the forward
        # and backward products of the real entries exact.
        self._bs_idx = _padded(
            [[k for k, (_, j) in enumerate(pairs) if j == b]
             for b in range(1, topology.num_bs + 1)],
            len(pairs),
        )
        self._bs_real = self._bs_idx < len(pairs)
        self._pair_at = self._bs_idx[self._bs_real]
        # Pairs are emitted group-major, so per-group reduction is contiguous.
        self.group_offsets = np.searchsorted(
            self.columns, np.arange(topology.num_groups)
        )

    def _w(self, xa, pa, big_r, rho):
        loo = _leave_one_out(_with_ones(big_r)[:, self._bs_idx])[:, self._bs_real]
        wa = np.empty_like(xa)
        wa[:, self._pair_at] = 1.0 - rho[:, self._pair_at] * loo
        return wa


def make_engine(
    topology: NetworkTopology,
    mode: str,
    *,
    cache_dir=None,
    workers: int = 1,
    allow_long: bool = False,
    persist_tables: bool = True,
):
    if mode == "coop":
        return CoopEngine(
            topology,
            cache_dir=cache_dir,
            workers=workers,
            allow_long=allow_long,
            persist_tables=persist_tables,
        )
    if mode == "noncoop":
        return NoncoopEngine(topology)
    if mode == "bound":
        from .bounds import BoundEngine

        return BoundEngine(topology)
    raise ValueError(f"unknown mode {mode!r}")


def evolve(
    topology: NetworkTopology,
    degrees,
    t_slots: int,
    mode: str = "coop",
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    engine=None,
    trace: bool = False,
    **engine_kw,
) -> EvolutionResult:
    """Per-group PLR at one frame length for mode "coop", "noncoop" or
    "bound" (PLR upper bound, throughput lower bound). trace=True records
    the cooperative per-iteration decomposition into collision-free and
    rescue retrievals."""
    if not isinstance(degrees, TargetDegreeVector):
        degrees = TargetDegreeVector(tuple(degrees))
    if mode == "bound" and any(
        grp.num_users > 0 and gi <= 0 for gi, grp in zip(degrees.g, topology.groups)
    ):
        raise ValueError("the matrix bound needs G > 0 for every populated group")
    if trace and mode != "coop":
        raise ValueError("trace recording needs the cooperative mode")
    engine = engine or make_engine(topology, mode, **engine_kw)
    kw = {"want_trace": True} if trace else {}
    out = engine.evaluate_degrees(degrees, [t_slots], max_iter=max_iter, tol=tol, **kw)
    return EvolutionResult(
        t=t_slots,
        plr=out.plr_groups[0],
        w=out.w[0],
        x=out.x[0],
        plr_avg=float(out.plr_avg[0]),
        throughput=float(out.throughput[0]),
        iterations=int(out.iterations[0]),
        converged=bool(out.converged[0]),
        trace_r0=out.trace_r0,
        trace_r1=out.trace_r1,
    )


@dataclass
class PlrCurve:
    """PLR and throughput across frame lengths."""

    t: np.ndarray
    plr_groups: np.ndarray
    plr_avg: np.ndarray
    throughput: np.ndarray
    converged: np.ndarray

    CSV_PREFIX = "T,plr_avg"

    def header(self) -> str:
        n_groups = self.plr_groups.shape[1]
        cols = ",".join(f"plr_g{i + 1}" for i in range(n_groups))
        return f"{self.CSV_PREFIX},{cols},throughput"

    def csv_rows(self):
        for k in range(len(self.t)):
            plrs = ",".join(repr(float(v)) for v in self.plr_groups[k])
            yield (
                f"{int(self.t[k])},{float(self.plr_avg[k])!r},{plrs},"
                f"{float(self.throughput[k])!r}"
            )

    def peak(self) -> tuple[int, float]:
        k = int(np.argmax(self.throughput))
        return int(self.t[k]), float(self.throughput[k])

    @classmethod
    def from_batch(cls, out: BatchEvolution) -> "PlrCurve":
        order = np.argsort(out.t, kind="stable")
        return cls(
            t=out.t[order],
            plr_groups=out.plr_groups[order],
            plr_avg=out.plr_avg[order],
            throughput=out.throughput[order],
            converged=out.converged[order],
        )


@dataclass(frozen=True)
class PeakResult:
    t_star: int
    throughput: float
    plr_avg: float
    plr_groups: np.ndarray
    converged: bool
    curve: PlrCurve
    n_evaluated: int

    @property
    def success_fraction(self) -> float:
        return 1.0 - self.plr_avg


def default_t_grid(topology: NetworkTopology, points: int = 41) -> np.ndarray:
    """Coarse integer frame-length grid bracketing the throughput peak."""
    n, m = topology.num_users, topology.num_bs
    lo = max(1, math.ceil(0.5 * n / (m * SINGLE_BS_PEAK)))
    hi = max(lo + 1, math.ceil(2 * n / m))
    return np.unique(np.linspace(lo, hi, points).round().astype(np.int64))


def plr_curve(
    topology: NetworkTopology,
    degrees,
    t_range,
    mode: str = "coop",
    *,
    engine=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    **engine_kw,
) -> PlrCurve:
    t_range = np.asarray(list(t_range), dtype=np.int64)
    if t_range.size == 0:
        raise ValueError("empty T range")
    engine = engine or make_engine(topology, mode, **engine_kw)
    out = engine.evaluate_degrees(degrees, t_range, max_iter=max_iter, tol=tol)
    return PlrCurve.from_batch(out)


def _peak_requests(seen: dict, grid: np.ndarray):
    """One candidate's peak search. Yields the frame lengths each step
    needs; the caller fills seen with their results before resuming."""

    def best_t():
        return max(seen, key=lambda t: (seen[t][0], -t))

    yield grid
    for _ in range(3):  # extend while the maximum sits on an edge
        t_best, lo, hi = best_t(), min(seen), max(seen)
        if t_best == hi:
            yield np.linspace(hi, 2 * hi, 9).round().astype(np.int64)
        elif t_best == lo and lo > 1:
            yield np.linspace(max(1, lo // 2), lo, 9).round().astype(np.int64)
        else:
            break
    ts = sorted(seen)
    step = max((b - a for a, b in zip(ts, ts[1:])), default=1)
    while step > 1:
        t_best = best_t()
        window = np.linspace(t_best - step, t_best + step, 9)
        request = list(np.clip(window.round().astype(np.int64), 1, None))
        step = max(1, math.ceil(step / 4))
        if step == 1:
            request += range(max(1, t_best - 3), t_best + 4)
        yield request
    t_best = best_t()  # final unit-step sweep around the maximum
    yield range(max(1, t_best - 3), t_best + 4)


def batched_peak_search(
    engine,
    p_mat: np.ndarray,
    *,
    t_grid=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> list[dict[int, tuple]]:
    """Peak search for many probability vectors at once.

    Each candidate evaluates a shared coarse grid, extends it when its
    maximum sits on an edge, and refines windows around the maximum down
    to unit step. All candidates stream their rows through one fixed-point
    pool: once every row of a candidate's step has left the pool, the
    candidate's next step joins it, without waiting for the others.
    Returns, per candidate, {T: (throughput, plr_avg, plr_groups,
    converged)}. Per-candidate results are independent of how candidates
    are batched together.
    """
    p_mat = np.atleast_2d(np.asarray(p_mat, dtype=float))
    if t_grid is None:
        raise ValueError("t_grid is required")
    grid = np.asarray(t_grid, dtype=np.int64)
    seen: list[dict[int, tuple]] = [{} for _ in p_mat]
    searches = [_peak_requests(s, grid) for s in seen]
    pool = _RowPool(engine, max_iter, tol)
    rows: dict[int, tuple[int, int]] = {}  # pool key -> (candidate, T)
    n_keys = 0
    step_out: list[dict[int, tuple]] = [{} for _ in p_mat]
    missing = [0] * len(p_mat)

    def advance(c):
        nonlocal n_keys
        for request in searches[c]:
            ts = sorted({int(t) for t in request} - seen[c].keys())
            if ts:
                keys = range(n_keys, n_keys + len(ts))
                n_keys += len(ts)
                pool.add(np.array(keys), p_mat[[c] * len(ts)], ts)
                rows.update(zip(keys, ((c, t) for t in ts)))
                step_out[c] = dict.fromkeys(ts)
                missing[c] = len(ts)
                return

    for c in range(len(p_mat)):
        advance(c)
    while len(pool):
        left = pool.step()
        if left is None:
            continue
        gone, x, w, iters, conv = left
        cands, ts = zip(*(rows.pop(k) for k in gone))
        out = engine._finish(p_mat[list(cands)], np.array(ts), w, x, iters, conv)
        for k, (c, t) in enumerate(zip(cands, ts)):
            step_out[c][t] = (
                float(out.throughput[k]),
                float(out.plr_avg[k]),
                out.plr_groups[k],
                bool(out.converged[k]),
            )
            missing[c] -= 1
            if not missing[c]:
                seen[c].update(step_out[c])
                advance(c)
    return seen


def peak_search(
    topology: NetworkTopology,
    degrees,
    mode: str = "coop",
    *,
    engine=None,
    t_grid=None,
    points: int = 41,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    **engine_kw,
) -> PeakResult:
    """Locate sup_T S(T) on an integer grid, refining around the maximum.

    The coarse grid is extended if the maximum lands on its edge, then
    successively narrowed (roughly quartering the spacing) until unit step.
    """
    engine = engine or make_engine(topology, mode, **engine_kw)
    p = _prob_vector(topology, degrees)
    if t_grid is None:
        t_grid = default_t_grid(topology, points)
    seen = batched_peak_search(
        engine, p[None, :], t_grid=t_grid, max_iter=max_iter, tol=tol
    )[0]
    t_star = max(seen, key=lambda t: (seen[t][0], -t))
    thr, plr_avg, plr_groups, conv = seen[t_star]
    ts = np.array(sorted(seen), dtype=np.int64)
    curve = PlrCurve(
        t=ts,
        plr_groups=np.array([seen[int(t)][2] for t in ts]),
        plr_avg=np.array([seen[int(t)][1] for t in ts]),
        throughput=np.array([seen[int(t)][0] for t in ts]),
        converged=np.array([seen[int(t)][3] for t in ts]),
    )
    return PeakResult(
        t_star=t_star,
        throughput=thr,
        plr_avg=plr_avg,
        plr_groups=plr_groups,
        converged=conv,
        curve=curve,
        n_evaluated=len(seen),
    )


def simultaneous_transmission_degrees(
    topology: NetworkTopology, g_single: float = 3.098
) -> tuple[float, ...]:
    """Target degrees of the non-cooperative reference scheme.

    All users share one transmission probability chosen so a BS observes
    the single-BS-optimal target degree g_single per slot; with BSs seeing
    unequal populations the mean observed count is used.
    """
    per_bs = [
        sum(topology.groups[i].num_users for i in members)
        for members in topology.groups_at_bs
    ]
    mean_observed = sum(per_bs) / len(per_bs)
    if mean_observed <= 0:
        raise ValueError("topology has no users")
    p = g_single / mean_observed
    return tuple(g.num_users * p for g in topology.groups)


@dataclass(frozen=True)
class GainResult:
    gamma: float
    peak_coop: PeakResult
    peak_noncoop: PeakResult


def diversity_gain(
    topology: NetworkTopology,
    degrees_coop,
    degrees_noncoop,
    *,
    t_grid=None,
    coop_engine=None,
    noncoop_engine=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    **engine_kw,
) -> GainResult:
    """Ratio of cooperative to non-cooperative peak throughput."""
    pc = peak_search(
        topology,
        degrees_coop,
        "coop",
        engine=coop_engine,
        t_grid=t_grid,
        max_iter=max_iter,
        tol=tol,
        **engine_kw,
    )
    pn = peak_search(
        topology,
        degrees_noncoop,
        "noncoop",
        engine=noncoop_engine,
        t_grid=t_grid,
        max_iter=max_iter,
        tol=tol,
    )
    if pn.throughput <= 0:
        raise ZeroDivisionError("non-cooperative peak throughput is zero")
    return GainResult(
        gamma=pc.throughput / pn.throughput, peak_coop=pc, peak_noncoop=pn
    )
