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

The cooperative sum splits into the collision-free part P^(r0) (initial
singleton at some BS) and the cooperative rescue P^(r1); both come from
one pass over a compressed pattern DAG that holds every target's
singleton and rescue tables. Each kernel covers all targets at once
(padded gathers, one levelized DAG), and all engines evaluate batches of
(transmission-probability vector, T) rows at once, which is what makes
the optimizer affordable.

Every peak search over T runs through one driver, `_search`: all
candidates share one pool, each runs its steps one after another, and a
row that provably ends below its candidate's best finished row does not
hold up its step. `batched_peak_search` (`analyze`, `bounds`) keeps such
rows in the pool until they leave, so every requested T gets its result;
`batched_peaks` (the optimizer) drops them at once and returns only the
peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .topology import NetworkTopology, TargetDegreeVector
from .walkgraph import PatternDag, companion_order, load_or_build_tables

DEFAULT_MAX_ITER = 2000
DEFAULT_TOL = 1e-10
# Asymptotic peak throughput of single-BS frameless ALOHA.
SINGLE_BS_PEAK = 0.87

# Computed probabilities outside [0, 1] by more than this indicate a bug.
PROB_SLACK = 1e-6

# A peak search tries to decide its rows every CHECK_EVERY-th pool iteration.
# A check costs one kernel evaluation of the rows it covers and the NumPy
# calls of a few iterations. On DE runs of population 50 (M = 2, 2
# generations, 4 seeds, 2-vCPU host) checks every 32nd iteration were
# 6-10 % faster than every 16th and no slower than every 48th or 64th.
CHECK_EVERY = 32
# z is a sub-solution of x = F_T(x) if the computed F_T(z) - z is at least
# SUB_MARGIN + SUB_MARGIN_PER_SLOT * (T - 1) in every column: that exceeds
# twice the rounding error of a computed F_T. The kernel gives w to a few
# ulps, so b = 1 - p + p w is within about 8u of its exact value (u = 2^-53,
# p <= 1), and the power b^(T-1) <= b turns that into an absolute error of
# at most about 8u (T - 1) + u, below 1e-15 (T - 1) + 1e-16. SUB_MARGIN
# also covers kernels whose w is off by more than a few ulps.
SUB_MARGIN = 1e-9
SUB_MARGIN_PER_SLOT = 2e-15
# A row is decided if its throughput bound is below (1 - LOSS_SLACK) times
# its bar. The slack covers the rounding of the two throughputs compared,
# about T u relative.
LOSS_SLACK = 1e-9


def transmission_probabilities(topology: NetworkTopology, degrees, mode: str) -> np.ndarray:
    """p_i = G_i / N_i per group for an analysis in mode; the topology needs
    users, and the matrix bound needs G > 0 for every populated group."""
    if not isinstance(degrees, TargetDegreeVector):
        degrees = TargetDegreeVector(tuple(degrees))
    if topology.num_users <= 0:
        raise ValueError("topology has no users")
    if mode == "bound" and any(
        grp.num_users > 0 and gi <= 0 for gi, grp in zip(degrees.g, topology.groups)
    ):
        raise ValueError("the matrix bound needs G > 0 for every populated group")
    return np.asarray(degrees.probabilities(topology), dtype=float)


def _check_unit(name: str, arr: np.ndarray):
    if (arr < -PROB_SLACK).any() or (arr > 1.0 + PROB_SLACK).any():
        bad = arr[(arr < -PROB_SLACK) | (arr > 1.0 + PROB_SLACK)]
        raise FloatingPointError(f"{name}={bad[:4]} outside [0,1] beyond tolerance")


def _padded(lists, fill: int) -> np.ndarray:
    """Index lists as one (len(lists), max(1, longest)) array, each row
    padded at its end with fill."""
    out = np.full((len(lists), max(1, *map(len, lists))), fill, dtype=np.intp)
    for r, row in enumerate(lists):
        out[r, : len(row)] = row
    return out


class _RowPool:
    """Rows of the fixed point x = (1 - p + p w)^(T-1), iterated together.

    Columns are the engine's chains, with transmission probability p and
    population counts; w_of(x, p, R, rho) returns w for every row, given
    R = (1 - p x)^N and rho = (1 - p x)^(N-1). Rows join with add() at
    any iteration, start from x = w = 1 and leave once no entry moves by
    tol, after max_iter iterations of their own, or by remove(). A row's
    bits do not depend on the other rows in the pool. decide() names the
    rows that provably lose.
    """

    def __init__(self, engine, max_iter, tol, trace=None):
        self.columns = engine.columns
        self.counts = engine.counts[self.columns]
        self.nm1 = np.maximum(self.counts - 1.0, 0.0)
        self.w_of = engine._w if trace is None else partial(engine._w, trace=trace)
        self.engine = engine
        self.max_iter, self.tol = max_iter, tol
        n = len(self.columns)
        self.keys = np.empty(0, dtype=np.intp)
        self.p = self.q = self.x = np.empty((0, n))
        self.tm1 = np.empty((0, 1))  # T - 1 as a float, so the power casts nothing
        self.start = np.empty(0, dtype=np.int64)  # clock when the row joined
        self.clock = self.first = 0  # first <= the start of every row in the pool
        # x at the two iterations before each check of decide().
        self.back = []

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
        self.tm1 = np.concatenate([self.tm1, t[:, None] - 1.0])
        self.start = np.concatenate([self.start, np.full(len(t), self.clock)])
        if self.back:  # joining rows are too young to be checked
            self.back = [np.concatenate([b, np.ones(p.shape)]) for b in self.back]

    def _map(self, x, p, q, tm1):
        """(w, F_T(x)) of rows at x."""
        base = 1.0 - p * x
        w = self.w_of(x, p, base**self.counts, base**self.nm1)
        if np.minimum.reduce(w, axis=None) < 0.0 or np.maximum.reduce(w, axis=None) > 1.0:
            _check_unit("w", w)  # clipping a w in range changes no bit
            np.clip(w, 0.0, 1.0, out=w)
        return w, (q + p * w) ** tm1

    def step(self):
        """Run one iteration of every row. Returns (keys, x, w, iterations,
        converged) of the rows that leave, or None."""
        if not len(self.keys):  # remove() can empty the pool
            return None
        x = self.x
        lag = self.clock % CHECK_EVERY
        if lag == CHECK_EVERY - 2:
            self.back = [x]
        elif lag == CHECK_EVERY - 1:
            self.back.append(x)
        elif lag == 0:  # the check after the last iteration has passed
            self.back = []
        w, self.x = self._map(x, self.p, self.q, self.tm1)
        self.clock += 1
        delta = self.x - x
        leave = done = np.maximum.reduce(np.abs(delta, out=delta), axis=1) < self.tol
        if self.clock - self.first >= self.max_iter:  # the oldest row may be at max_iter
            leave = done | (self.clock - self.start >= self.max_iter)
            self.first = self.start[~leave].min(initial=self.clock)
        if not leave.any():
            return None
        iters = self.clock - self.start[leave]
        out = (self.keys[leave], self.x[leave], w[leave], iters, done[leave])
        self._keep(~leave)
        return out

    def decide(self, bar):
        """The keys of the rows that provably report a throughput below bar
        (one value per row, -inf for none); the rows stay in the pool.

        Only after an iteration at which the clock is a multiple of
        CHECK_EVERY, and only rows that have run CHECK_EVERY iterations,
        are checked. From a row's last two steps, d' and d, the point
        z = x + 2 d lam / (1 - lam), with lam the largest ratio d / d',
        overshoots its geometric limit. The map F_T is monotone, so if
        F_T(z) >= z, iterating from z rises to a fixed point and z lies
        below the largest one, which the iterate from x = 1 never falls
        below. w then never falls below w(z), and the throughput, which
        falls as w grows, stays below the throughput at w(z), whether the
        row converges or stops at max_iter.
        """
        if self.clock % CHECK_EVERY or len(self.back) < 2:
            return self.keys[:0]
        idx = np.flatnonzero((self.clock - self.start >= CHECK_EVERY) & (bar > -np.inf))
        if not len(idx):
            return self.keys[idx]
        x, x1 = self.x[idx], self.back[1][idx]
        d, d1 = x - x1, x1 - self.back[0][idx]
        with np.errstate(over="ignore"):  # a ratio too large for a float is clipped
            lam = np.divide(d, d1, out=np.zeros_like(d), where=d1 != 0.0).max(axis=1)
        lam = np.clip(lam, 0.0, 1.0 - 1e-6)[:, None]
        z = np.clip(x + 2.0 * d * lam / (1.0 - lam), 0.0, 1.0)
        p, tm1 = self.p[idx], self.tm1[idx, 0]
        w, fz = self._map(z, p, self.q[idx], tm1[:, None])
        groups = self.engine.group_offsets
        bound = self.engine._loss(p[:, groups], tm1 + 1.0, w)[2]
        return self.keys[idx[((fz - z).min(axis=1) >= SUB_MARGIN + SUB_MARGIN_PER_SLOT * tm1)
                             & (bound < bar[idx] * (1.0 - LOSS_SLACK))]]

    def remove(self, keys):
        """Drop the rows with these keys."""
        self._keep(~np.isin(self.keys, keys))

    def _keep(self, stay):
        self.keys, self.p, self.q, self.x, self.tm1, self.start = (
            a[stay] for a in (self.keys, self.p, self.q, self.x, self.tm1, self.start)
        )
        if self.back:
            self.back = [b[stay] for b in self.back]


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

    def _loss(self, p, t, w):
        """(w, PLR, throughput) per row from group probabilities p, frame
        lengths t and the chains' w; per group, w is the product of its
        chains' collision probabilities (the identity for one chain per
        group)."""
        w = np.multiply.reduceat(w, self.group_offsets, axis=1)
        pe = (1.0 - p + p * w) ** t[:, None]
        # Elementwise sums, not BLAS products, so that a row's rounding does
        # not depend on its place in the batch.
        return w, pe, ((1.0 - pe) * self.counts).sum(axis=1) / t

    def _finish(self, p, t, w, x, iters, conv, trace=None):
        w, pe, throughput = self._loss(p, t, w)
        x = np.minimum.reduceat(x, self.group_offsets, axis=1)
        plr_avg = (pe * (self.counts / self.total_users)).sum(axis=1)
        trace_r0, trace_r1 = map(np.array, zip(*trace)) if trace else (None, None)
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


class CoopEngine(_EngineBase):
    """Joint-SIC density evolution using the walk-graph retrievability tables."""

    def __init__(self, topology: NetworkTopology, *, cache_dir=None, workers: int = 1):
        super().__init__(topology)
        n_groups = topology.num_groups
        retrievable, singleton = load_or_build_tables(topology, cache_dir, workers)
        # One levelized DAG over all targets: every target's collision-free
        # (singleton) table, then every target's rescue table.
        comps = [companion_order(n_groups, i) for i in range(n_groups)]
        self.dag = PatternDag(
            np.concatenate([singleton, retrievable & ~singleton]), comps + comps
        )

    def _p_r(self, big_r: np.ndarray, big_c: np.ndarray):
        """(P^(r0), P^(r1)) per row and target from one pass over the DAG."""
        v = np.empty((3, *big_r.T.shape))
        v[0], v[1] = big_r.T, big_c.T
        np.subtract(1.0 - v[0], v[1], out=v[2])
        out = self.dag.evaluate(v)
        n = len(out) // 2
        return out[:n].T, out[n:].T

    def _w(self, xa, pa, big_r, rho, trace=None):
        p0, p1 = self._p_r(big_r, xa * self.counts * pa * rho)
        if trace is not None:
            trace.append((rho[0] * p0[0], rho[0] * p1[0]))
        return 1.0 - rho * (p0 + p1)


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
        # Per BS, its pairs' indices between two end entries and padded at
        # the end, as an (M, k_max + 2) array. The ends and the padding
        # gather 1, so the forward and backward running products hold
        # every pair's leave-one-out product exactly, as for an unpadded BS.
        n = len(pairs)
        self._bs_idx = _padded(
            [[n, *(k for k, (_, j) in enumerate(pairs) if j == b), n]
             for b in range(1, topology.num_bs + 1)],
            n,
        )
        self._bs_one = self._bs_idx == n
        # Each pair's entry in the flattened (M, k_max) leave-one-out array.
        self._loo_at = np.argsort(self._bs_idx[:, 1:-1], axis=None)[:n]
        # Pairs are emitted group-major, so per-group reduction is contiguous.
        self.group_offsets = np.searchsorted(
            self.columns, np.arange(topology.num_groups)
        )

    def _w(self, xa, pa, big_r, rho):
        ext = big_r.take(self._bs_idx, axis=1, mode="clip")
        ext[:, self._bs_one] = 1.0
        fwd = np.multiply.accumulate(ext, axis=-1)
        bwd = np.multiply.accumulate(ext[..., ::-1], axis=-1)[..., ::-1]
        loo = (fwd[..., :-2] * bwd[..., 2:]).reshape(len(big_r), -1)
        return 1.0 - rho * loo.take(self._loo_at, axis=1)


def make_engine(
    topology: NetworkTopology, mode: str, *, cache_dir=None, workers: int = 1
):
    if mode == "coop":
        return CoopEngine(topology, cache_dir=cache_dir, workers=workers)
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
    p = transmission_probabilities(topology, degrees, mode)
    if trace and mode != "coop":
        raise ValueError("trace recording needs the cooperative mode")
    engine = engine or make_engine(topology, mode, **engine_kw)
    out = engine.evaluate(
        p,
        [t_slots],
        max_iter=max_iter,
        tol=tol,
        want_trace=trace,
    )
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


def peak_t(seen: dict[int, tuple]) -> int:
    """The peak of a {T: (throughput, ...)} search result: the frame length
    of the highest throughput, the smallest one on a tie."""
    return max(seen, key=lambda t: (seen[t][0], -t))


def _nine(a: int, b: int) -> list[int]:
    """np.linspace(a, b, 9).round() as ints: every point is a multiple of
    1/8 and exact in floating point, and round() also rounds half to even."""
    return [round(a + k * (b - a) / 8) for k in range(9)]


def _next_request(phase, ts, t_best):
    """One candidate's peak search after its grid, as a step function.
    Given the phase of its next step, the set ts of frame lengths requested
    so far and the best of them, returns (the step's new frame lengths,
    sorted; the phase after it), passing over steps that request nothing
    new, or None once the search is done."""
    while phase is not None:
        kind, n = phase
        if kind == "edge" and n < 3 and t_best == max(ts):  # extend at an edge
            request, phase = _nine(t_best, 2 * t_best), ("edge", n + 1)
        elif kind == "edge" and n < 3 and t_best == min(ts) > 1:
            request, phase = _nine(max(1, t_best // 2), t_best), ("edge", n + 1)
        else:
            if kind == "edge":  # windows of nine around the maximum, quartering the step
                s = sorted(ts)
                n = max((b - a for a, b in zip(s, s[1:])), default=1)
            if n > 1:
                request = [max(1, t) for t in _nine(t_best - n, t_best + n)]
                n = max(1, math.ceil(n / 4))
                if n == 1:
                    request += range(max(1, t_best - 3), t_best + 4)
                phase = ("window", n)
            else:  # final unit-step sweep around the maximum
                request, phase = range(max(1, t_best - 3), t_best + 4), None
        new = sorted(set(request) - ts)
        if new:
            return new, phase
    return None


def _search(engine, p_mat, t_grid, max_iter, tol, keep):
    """The peak searches of many probability vectors, all in one pool.

    Each candidate evaluates a shared coarse grid, extends it when its
    maximum sits on an edge, and refines windows around the maximum down
    to unit step, one step after another (`_next_request`). Its bar is
    the throughput of its best finished row. A row that `_RowPool.decide`
    proves to end below the bar no longer holds up its step: the best row
    only gains, so a decided row is never the best row that picks a next
    request, and every step asks for the rows that waiting for each row
    would ask for. With keep, decided rows stay in the pool until they
    leave, and every row's result is kept; without, they leave at once.
    Returns, per candidate, (throughput, -t*, peak row) of its best row,
    and with keep {T: (throughput, plr_avg, plr_groups, converged)}, each
    step's T in sorted order (else None). A row's bits do not depend on
    the other rows in the pool, so results are independent of how
    candidates are batched together.
    """
    p_mat = np.atleast_2d(np.asarray(p_mat, dtype=float))
    if t_grid is None or len(t_grid) == 0:
        raise ValueError("empty t_grid: the peak search needs a frame length")
    n = len(p_mat)
    pool = _RowPool(engine, max_iter, tol)
    first = sorted(set(np.asarray(t_grid, dtype=np.int64).tolist()))
    asked = [set(first) for _ in p_mat]  # every T requested so far
    phase = [("edge", 0)] * n  # of each candidate's next step
    pending = [len(first)] * n  # rows of its current step neither finished nor decided
    best = [None] * n  # (throughput, -T, row) of its best finished row
    bar = np.full(n, -np.inf)  # that throughput
    seen = [dict.fromkeys(first) for _ in p_mat] if keep else None
    decided = set()  # keys of decided rows still in the pool
    joins = [t * n + c for c in range(n) for t in first]  # keys T * n + c
    while joins or len(pool):
        if joins:
            keys = np.array(joins)
            pool.add(keys, p_mat[keys % n], keys // n)
            joins = []
        resolved = []
        left = pool.step()
        if left is not None:
            gone, x, w, iters, conv = left
            ts, cands = np.divmod(gone, n)
            out = engine._finish(p_mat[cands], ts, w, x, iters, conv)
            rows = zip(out.throughput.tolist(), out.plr_avg.tolist(), out.plr_groups,
                       out.converged.tolist())
            for key, c, t, r in zip(gone.tolist(), cands.tolist(), ts.tolist(), rows):
                if keep:
                    seen[c][t] = r
                if key in decided:
                    decided.remove(key)
                    continue
                if best[c] is None or (r[0], -t) > best[c][:2]:
                    best[c], bar[c] = (r[0], -t, r), r[0]
                resolved.append(c)
        if pool.clock % CHECK_EVERY == 0:
            rows_bar = bar[pool.keys % n]
            if decided:  # each row is decided once
                rows_bar[np.isin(pool.keys, list(decided))] = -np.inf
            keys = pool.decide(rows_bar)
            if keep:
                decided.update(keys.tolist())
            elif len(keys):
                pool.remove(keys)
            resolved += (keys % n).tolist()
        for c in resolved:
            pending[c] -= 1
            if pending[c] == 0 and (step := _next_request(phase[c], asked[c], -best[c][1])):
                ts, phase[c] = step
                asked[c].update(ts)
                if keep:
                    seen[c].update(dict.fromkeys(ts))
                pending[c] = len(ts)
                joins.extend(t * n + c for t in ts)
    return best, seen


def batched_peak_search(
    engine,
    p_mat: np.ndarray,
    *,
    t_grid=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> list[dict[int, tuple]]:
    """Peak search for many probability vectors at once (`_search`), every
    requested row run to the end. Returns, per candidate, {T: (throughput,
    plr_avg, plr_groups, converged)}, each step's T in sorted order."""
    return _search(engine, p_mat, t_grid, max_iter, tol, keep=True)[1]


def batched_peaks(
    engine,
    p_mat: np.ndarray,
    *,
    t_grid=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> list[tuple[int, tuple]]:
    """The peak of each candidate's search, as (t*, (throughput, plr_avg,
    plr_groups, converged)): the frame length `peak_t` picks from the
    result of `batched_peak_search` and that result's row, bit for bit.
    Decided rows leave the pool without a result."""
    best, _ = _search(engine, p_mat, t_grid, max_iter, tol, keep=False)
    return [(-b[1], b[2]) for b in best]


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
    p = transmission_probabilities(topology, degrees, mode)
    engine = engine or make_engine(topology, mode, **engine_kw)
    if t_grid is None:
        t_grid = default_t_grid(topology, points)
    seen = batched_peak_search(
        engine, p[None, :], t_grid=t_grid, max_iter=max_iter, tol=tol
    )[0]
    t_star = peak_t(seen)
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
