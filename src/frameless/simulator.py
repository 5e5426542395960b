"""Monte Carlo protocol engine.

Frames run on the graph of users and buckets, one bucket per (slot, BS).
Each user sends in each slot with its group probability, its slots drawn
from geometric gaps (an exact Bernoulli process, whatever the grouping of
slots); a transmission lands in the bucket of every BS the group reaches.
Buckets keep a member count and id sum, so a singleton's occupant is read
off directly. One vectorized peeler serves every mode: each round takes
every bucket holding one user and subtracts all edges of those users. SIC
ends in the same retrieved set in any order, so never adding future
replicas of retrieved users (the frameless rule) retrieves what peeling
slots 1..t does. A fixed frame is one peel of slots [0, T); a frameless
frame peels by blocks and replays the block reaching floor(alpha*N) slot
by slot (n_ret(t) is monotone); the framed baseline places every replica,
then peels once.

Each user's edges form one block of a flat edge list, blocks in user order.
A draw is sorted by user, so each group's transmissions are one run: each
BS column of the group counts its buckets and adds its ids, and the new
edges go to the back of each owner's block, behind the alive old ones,
which are moved but never re-sorted. Every ufunc.at call gets operands of
its table's dtype (int32 counts, int64 id sums), so none leaves NumPy's
fast path for its casting loop.

RNG: numpy Philox (counter-based, philox4x64-10). Trial seeds derive from
the master seed via SeedSequence(entropy=seed, spawn_key=(trial,)), so
results do not depend on worker count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .topology import NetworkTopology, TargetDegreeVector

RNG_ID = "numpy-philox4x64-10-gaps"

# Slots a frameless frame peels between threshold tests.
_BLOCK = 512


def _make_rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.Philox(seed))


def _plr_groups(retrieved: np.ndarray, topology: NetworkTopology) -> np.ndarray:
    """Per-group loss rate (groups on the last axis); 1 for an empty group."""
    counts = np.array([g.num_users for g in topology.groups], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        plr = 1.0 - retrieved / counts
    return np.where(counts > 0, plr, 1.0)


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one simulated frame."""

    t: int
    retrieved_per_group: np.ndarray
    n_users: int
    throughput: float
    terminated_by: str

    @property
    def n_ret(self) -> int:
        return int(self.retrieved_per_group.sum())

    def plr_groups(self, topology: NetworkTopology) -> np.ndarray:
        return _plr_groups(self.retrieved_per_group, topology)

    @property
    def plr(self) -> float:
        return 1.0 - self.n_ret / self.n_users


@functools.lru_cache(maxsize=16)
def _user_layout(topology: NetworkTopology):
    """Users are numbered group by group. Returns each user's group, the
    first user of every group (then N), each group's 0-based BS columns and
    each user's BS count. Read-only, built once."""
    sizes = [g.num_users for g in topology.groups]
    group_of = np.repeat(np.arange(topology.num_groups), sizes)
    first = np.add.accumulate([0, *sizes], dtype=np.int32)
    cols = tuple(np.array(g.bs_set) - 1 for g in topology.groups)
    nbs = np.array([len(c) for c in cols], dtype=np.int8)[group_of]
    for a in (group_of, first, nbs, *cols):
        a.setflags(write=False)
    return group_of, first, cols, nbs


class _EdgePeeler:
    """Buckets b = slot*M + bs up to the drawn horizon: count (int32) and id
    sum (int64) of alive members. User u owns edges[end[u] - deg[u]:end[u]];
    a retrieved user's edges are all subtracted and its later ones never
    added, so no bucket holds a retrieved user."""

    def __init__(self, topology: NetworkTopology):
        self.group_of, self.first, self.cols, self.nbs = _user_layout(topology)
        self.num_groups = topology.num_groups
        self.m = np.int64(topology.num_bs)
        n = len(self.group_of)
        self.edges = np.zeros(0, dtype=np.intp)
        self.end = self.deg = np.zeros(n, dtype=np.intp)
        self.count, self.idsum = np.zeros(0, np.int32), np.zeros(0, np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.mark = np.empty(n, dtype=np.int64)
        self.n_ret = self.horizon = 0

    @property
    def start(self) -> np.ndarray:
        return self.end - self.deg

    def extend(self, users: np.ndarray, slots: np.ndarray, horizon: int):
        """Add the transmission of users[i] in slots[i] for every i, leaving
        out retrieved users; every slot lies in [self.horizon, horizon).
        Sorted by user, each group's transmissions are one run of the input;
        each BS column of the group adds them to its buckets, and the
        group's edges, in owner order, go to the back of each owner's block.
        An alive user's old edges keep their order at the front."""
        lo, m = self.horizon, self.m
        if self.n_ret:
            keep = self.alive[users]
            users, slots = users[keep], slots[keep]
            old, kept = self.edges[self.alive.repeat(self.deg)], self.deg * self.alive
        else:
            old, kept = self.edges, self.deg
        order = users.argsort(kind="stable")
        users, slots = users[order], slots[order]
        del order
        add = np.bincount(users, minlength=len(kept)) * self.nbs
        self.deg = kept + add
        self.end = np.add.accumulate(self.deg)
        self.edges = None  # free the old list before the new one
        edges = np.empty(len(old) + int(add.sum()), np.intp)
        if len(old):
            base = self.end - np.add.accumulate(add)  # new edge i of user u: i + base[u]
            free = np.ones(len(edges), bool)
        del add, kept
        for name, dtype in (("count", np.int32), ("idsum", np.int64)):
            grown = np.zeros(horizon * m, dtype)
            grown[: lo * m] = getattr(self, name)
            setattr(self, name, grown)
        cut = np.searchsorted(users, self.first)
        o = 0
        for g, cols in enumerate(self.cols):
            s, u = slots[cut[g] : cut[g + 1]], users[cut[g] : cut[g + 1]]
            if not len(s):
                continue
            at = slice(o, o + len(s) * len(cols))
            o = at.stop
            if len(old):
                at = base[u].repeat(len(cols))
                at += np.arange(o - len(at), o)
                free[at] = False
            e, sm = np.empty((len(s), len(cols)), np.intp), s * m
            u = u.astype(np.int64)  # the id sums' dtype: ufunc.at's fast path
            for k, j in enumerate(cols):  # one long column per BS
                np.add(sm, j, out=e[:, k])
                np.add.at(self.count, e[:, k], np.int32(1))
                np.add.at(self.idsum, e[:, k], u)
            edges[at] = e.ravel()
        if len(old):
            edges[free] = old
        self.edges = edges
        self.horizon = horizon

    def peel(self, lo: int, hi: int):
        """Peel slots [0, hi) to fixpoint, given the fixpoint of [0, lo)."""
        lim = hi * self.m
        below = lim < len(self.count)  # buckets from lim on are not peeled yet
        cand = (self.count[lo * self.m : lim] == 1).nonzero()[0] + lo * self.m
        while cand.size:
            users = self.idsum[cand]
            if len(users) > 1:  # one copy of a user found in several buckets
                first = np.arange(len(users))
                self.mark[users] = first
                users = users[self.mark[users] == first]
            self.alive[users] = False
            self.n_ret += len(users)
            deg = self.deg[users]
            at = (self.end[users] - np.add.accumulate(deg)).repeat(deg)
            at += np.arange(len(at))
            b = self.edges[at]
            np.subtract.at(self.count, b, np.int32(1))
            np.subtract.at(self.idsum, b, users.repeat(deg))
            single = self.count[b] == 1
            if below:
                single &= b < lim
            cand = b[single]

    def snapshot(self):
        return self.count.copy(), self.idsum.copy(), self.alive.copy(), self.n_ret

    def restore(self, snap):
        self.count, self.idsum, self.alive, self.n_ret = snap

    def result(self, t: int, terminated_by: str) -> FrameResult:
        got = np.bincount(self.group_of[~self.alive], minlength=self.num_groups)
        return FrameResult(t, got, len(self.alive), self.n_ret / t, terminated_by)


@functools.lru_cache(maxsize=16)
def _draw_plan(topology: NetworkTopology, degrees: tuple):
    """Each group's first user (then N) and gap scale -1/ln(1 - p) (inf at
    p = 0, 0 at p = 1) for p = G/N, and the largest p."""
    p = TargetDegreeVector(degrees).probabilities(topology)
    scale = tuple(math.inf if q == 0 else -1 / math.log1p(-q) if q < 1 else 0.0 for q in p)
    return _user_layout(topology)[1], scale, max(p)


def _bernoulli_slots(rng, topology: NetworkTopology, degrees, lo: int, hi: int):
    """Users (int32) and slots of all transmissions in slots [lo, hi), each
    user sending in every slot with its group's p = G/N. Gaps are geometric,
    1 + floor(E / -ln(1 - p)) with E standard exponential, drawn k per user
    at a time (user-major); the process is memoryless, so a range starts
    afresh at lo. Users are numbered group by group, so each group's rows
    are one run, scaled by one number; the running sums go column by
    column, so each NumPy call walks one long column, not many short rows."""
    if isinstance(degrees, TargetDegreeVector):
        degrees = degrees.g
    cut, scale, p_max = _draw_plan(topology, tuple(degrees))  # cut: each group's first row
    mean = p_max * (hi - lo)  # the busiest user's mean count in the range
    k = 1 + math.ceil(mean + math.sqrt(mean))  # most users finish in one round
    users, slots = [], []
    active, last = np.arange(cut[-1], dtype=np.int32), lo - 1
    while True:
        at = rng.standard_exponential((len(active), k))
        for g, q in enumerate(scale):
            at[cut[g] : cut[g + 1]] *= q
        np.floor(at, out=at)
        at += 1
        for c in range(1, k):
            at[:, c] += at[:, c - 1]
        at += last
        sent = (at < hi).ravel()
        idx = sent.nonzero()[0]
        more = sent[k - 1 :: k].nonzero()[0]  # a user's slots rise: all k sent iff the last is
        slot = at.ravel()[idx]
        last = at[more, -1:]
        del at, sent  # free the draw before the integer copies
        idx //= k
        users.append(active[idx])
        slots.append(slot.astype(np.intp))
        del idx, slot
        if not len(more):
            return np.concatenate(users), np.concatenate(slots)
        active, cut = active[more], np.searchsorted(more, cut)


def _check_frame(topology: NetworkTopology, mode: str, alpha=0.8, t_slots=None,
                 slot_cap=None, replica_dist=None):
    """Raise ValueError unless frames of this mode can run with these
    settings; SimulationSpec and each run_* function check through here."""
    if mode not in ("frameless", "fixed", "spatio"):
        raise ValueError(f"unknown simulation mode {mode!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if mode == "frameless":
        if math.floor(alpha * topology.num_users) < 1:
            raise ValueError("floor(alpha*N) = 0; nothing to wait for")
        if slot_cap is not None and slot_cap < 1:
            raise ValueError(f"slot_cap must be >= 1, got {slot_cap}")
    elif t_slots is None or t_slots < 1:
        raise ValueError(f"{mode} frames need a frame length T >= 1, got {t_slots}")
    elif mode == "spatio":
        dist = dict(replica_dist or ())
        probs = np.array(list(dist.values()), dtype=float)
        if not dist or (probs < 0).any() or not abs(probs.sum() - 1.0) <= 1e-9:
            raise ValueError("replica distribution must be a probability mass")
        if not 1 <= min(dist) <= max(dist) <= t_slots:
            raise ValueError(f"replica degrees must lie in 1..T={t_slots}")


def run_frame(
    topology: NetworkTopology,
    degrees,
    alpha: float,
    seed,
    slot_cap: int | None = None,
) -> FrameResult:
    """Frameless frame: terminate once floor(alpha*N) packets are retrieved
    (or at slot_cap, flagged in the result)."""
    _check_frame(topology, "frameless", alpha, slot_cap=slot_cap)
    n = topology.num_users
    threshold = math.floor(alpha * n)
    if slot_cap is None:
        slot_cap = math.ceil(10 * n / topology.num_bs)
    rng, peel = _make_rng(seed), _EdgePeeler(topology)
    # T >= threshold/M (a retrieval empties one of M buckets); then grow by 1/4.
    horizon = min(slot_cap, -(-threshold // topology.num_bs))
    t, step = 0, _BLOCK
    while True:
        if t == peel.horizon:
            peel.extend(*_bernoulli_slots(rng, topology, degrees, t, horizon), horizon)
            horizon = min(slot_cap, horizon + -(-horizon // 4))
        t_next = min(t + step, peel.horizon)
        snap = peel.snapshot() if t_next - t > 1 else None
        peel.peel(t, t_next)
        if peel.n_ret >= threshold:
            if snap is None:
                return peel.result(t_next, "threshold")
            peel.restore(snap)
            step = 1
        elif t_next == slot_cap:
            return peel.result(t_next, "slot_cap")
        else:
            t = t_next


def run_fixed_frame(topology: NetworkTopology, degrees, t_slots: int, seed) -> FrameResult:
    """Frameless transmission over exactly t_slots, no threshold stop."""
    _check_frame(topology, "fixed", t_slots=t_slots)
    rng, peel = _make_rng(seed), _EdgePeeler(topology)
    peel.extend(*_bernoulli_slots(rng, topology, degrees, 0, t_slots), t_slots)
    peel.peel(0, t_slots)
    return peel.result(t_slots, "fixed")


def run_spatio_temporal(
    topology: NetworkTopology, replica_dist: dict, t_slots: int, seed
) -> FrameResult:
    """Framed baseline: each user draws a replica count from replica_dist
    ({degree: probability}) and places that many copies in distinct slots."""
    _check_frame(topology, "spatio", t_slots=t_slots, replica_dist=replica_dist)
    degs = sorted(replica_dist)
    probs = np.array([replica_dist[s] for s in degs], dtype=float)
    rng, peel = _make_rng(seed), _EdgePeeler(topology)
    draws = rng.choice(len(degs), size=len(peel.alive), p=probs)
    users, slots = [], []
    for k, s in enumerate(degs):
        owners = np.flatnonzero(draws == k)
        # Floyd's algorithm, one row per user: a uniform s-subset of slots.
        picks = np.empty((len(owners), s), dtype=np.int32)
        for i, j in enumerate(range(t_slots - s, t_slots)):
            r = rng.integers(0, j + 1, size=len(owners), dtype=np.int32)
            picks[:, i] = np.where((picks[:, :i] == r[:, None]).any(axis=1), j, r)
        users.append(owners.repeat(s))
        slots.append(picks.ravel())
    peel.extend(np.concatenate(users), np.concatenate(slots), t_slots)
    peel.peel(0, t_slots)
    return peel.result(t_slots, "fixed")


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate, sufficient to derive every trial deterministically."""

    topology: NetworkTopology
    mode: str = "frameless"  # frameless | fixed | spatio
    degrees: tuple[float, ...] | None = None
    alpha: float = 0.8
    t_slots: int | None = None
    slot_cap: int | None = None
    replica_dist: tuple[tuple[int, float], ...] | None = None
    master_seed: int = 0

    def __post_init__(self):
        """Every setting is checked before the first trial; frameless and
        fixed frames need target degrees, one per group, each p <= 1."""
        _check_frame(self.topology, self.mode, self.alpha, self.t_slots, self.slot_cap,
                     self.replica_dist)
        if self.mode != "spatio":
            if self.degrees is None:
                raise ValueError(f"{self.mode} frames need target degrees")
            TargetDegreeVector(self.degrees).probabilities(self.topology)

    def trial_seed(self, trial: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(trial,)
        )

    def run_trial(self, trial: int) -> FrameResult:
        seed = self.trial_seed(trial)
        if self.mode == "frameless":
            return run_frame(self.topology, self.degrees, self.alpha, seed, self.slot_cap)
        if self.mode == "fixed":
            return run_fixed_frame(self.topology, self.degrees, self.t_slots, seed)
        return run_spatio_temporal(self.topology, dict(self.replica_dist), self.t_slots, seed)


def _trial_task(args):
    spec, trial = args
    return spec.run_trial(trial)


@dataclass
class MonteCarloResult:
    spec: SimulationSpec
    trials: int
    t: np.ndarray
    n_ret: np.ndarray
    throughput: np.ndarray
    plr_groups: np.ndarray
    terminated_by: list[str] = field(repr=False, default_factory=list)

    @property
    def mean_throughput(self) -> float:
        return math.fsum(self.throughput) / self.trials

    @property
    def stderr_throughput(self) -> float:
        if self.trials < 2:
            return 0.0
        return float(np.std(self.throughput, ddof=1) / math.sqrt(self.trials))

    @property
    def mean_plr(self) -> float:
        n = self.spec.topology.num_users
        return math.fsum(1.0 - self.n_ret / n) / self.trials

    @property
    def mean_plr_groups(self) -> np.ndarray:
        return self.plr_groups.mean(axis=0)

    @property
    def mean_t(self) -> float:
        return math.fsum(self.t) / self.trials

    def csv_header(self) -> str:
        n_groups = self.plr_groups.shape[1]
        cols = ",".join(f"plr_g{i + 1}" for i in range(n_groups))
        return f"trial,seed,T,n_ret,throughput,{cols}"

    def csv_rows(self):
        for k in range(self.trials):
            seed = int(self.spec.trial_seed(k).generate_state(1, np.uint64)[0])
            plrs = ",".join(repr(float(v)) for v in self.plr_groups[k])
            yield (
                f"{k},{seed},{int(self.t[k])},{int(self.n_ret[k])},"
                f"{float(self.throughput[k])!r},{plrs}"
            )

    def summary(self) -> dict:
        return {
            "trials": self.trials,
            "rng": RNG_ID,
            "master_seed": self.spec.master_seed,
            "mean_throughput": self.mean_throughput,
            "stderr_throughput": self.stderr_throughput,
            "mean_plr": self.mean_plr,
            "mean_plr_groups": [float(v) for v in self.mean_plr_groups],
            "mean_t": self.mean_t,
            "terminated_by": {
                kind: self.terminated_by.count(kind)
                for kind in sorted(set(self.terminated_by))
            },
        }


def monte_carlo(
    spec: SimulationSpec, trials: int, workers: int = 1
) -> MonteCarloResult:
    """Run independent trials; aggregation order is fixed by trial index,
    so the result is identical for any worker count."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _trial_task,
                    ((spec, k) for k in range(trials)),
                    chunksize=max(1, trials // (4 * workers)),
                )
            )
    else:
        results = [spec.run_trial(k) for k in range(trials)]
    return MonteCarloResult(
        spec=spec,
        trials=trials,
        t=np.array([r.t for r in results], dtype=np.int64),
        n_ret=np.array([r.n_ret for r in results], dtype=np.int64),
        throughput=np.array([r.throughput for r in results]),
        plr_groups=_plr_groups(
            np.array([r.retrieved_per_group for r in results]), spec.topology
        ),
        terminated_by=[r.terminated_by for r in results],
    )
