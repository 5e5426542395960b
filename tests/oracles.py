"""Reference paths that only the tests use.

Degree-distribution algebra for the transmission graph: node-perspective
distributions of a user transmitting with probability p are binomial, over
T slots for variable nodes and over the N_i group members for observation
nodes; edge-perspective distributions follow by the derivative identity
lambda(x) = L'(x)/L'(1). Binomial coefficient masses are computed in log
space so N up to 1e5 is safe, and tiny tails are truncated; polynomials
known to be binomial also carry (n, p) so evaluation can use the exact
closed form (1-p+p*x)^n, which is what the engines use directly.

Walk-graph peeling: plain per-pattern SIC, one group at a time until no
group peels, decoding companion pattern indices with its own decoder; the
reference for the retrievability tables.

Walk-graph pattern sums: the direct 3^(I-1) enumeration of the pattern
probabilities that the cooperative engine evaluates, collision-free
(P^(r0)) and rescue (P^(r1)) sums alike, in one pass over the compressed
DAG.

Closed-form w expressions for the three-BS full topology: transcriptions
of the hand-derived collision-resolution formulas for a network with all
seven groups of a 3-BS deployment, indexed in the convention u1={1},
u2={2}, u3={3}, u4={1,2}, u5={2,3}, u6={1,3}, u7={1,2,3}. Targets 2, 3, 5
and 6 follow from targets 1 and 4 by permuting BS labels. Used as an
independent oracle against the walk-graph enumeration.

Fixed-point kernels in their plain form, the bit-exact references for
the engines' w kernels and `PatternDag.evaluate`: every level of the DAG
gathers through `np.take` and adds its three states term by term, the
cooperative kernel stacks its inputs through a list and splits the DAG
output with `np.split`, the non-cooperative kernel appends a column of
ones to R on each call and takes the leave-one-out products from two
running products, and the bound kernel always computes both branches of
its singular-system fallback.

Lockstep peak search, the reference for the peak-search driver of
`frameless.evolution` (`batched_peak_search` and `batched_peaks`): all
candidates advance through the same rounds, each round one `evaluate`
call over every candidate's pending frame lengths, and no round starts
before every row of the last one has run to the end.

Slot-by-slot simulator, the reference for the vectorized peeler of
`frameless.simulator`: every un-retrieved user transmits per slot with its
group probability, a transmission lands in the bucket of every BS the
group reaches, and joint SIC runs to fixpoint after each slot in per-user
Python; retrieved users are never sampled again.

Frame kernels in their plain form, the bit-exact references for the
peeler and slot draws of `frameless.simulator`: the draw scales and sums
whole k-column rows and counts each row's slots; extend gathers every
transmission's (M,) BS columns, scatters id sums with `np.add.at` (an
int64 table and the draw's int32 ids, NumPy's casting loop) and re-sorts
every alive edge by owner; the peeler keeps each user's block start.

Tiny-instance enumeration by a per-realization loop, the reference for the
bit-parallel enumeration of the criterion-8 checks.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from frameless.bounds import PIVOT_TOL, _union_lower_bound
from frameless.evolution import DEFAULT_MAX_ITER, DEFAULT_TOL, _padded
from frameless.simulator import FrameResult, _make_rng
from frameless.topology import NetworkTopology, TargetDegreeVector

# Tail mass below which binomial coefficient sequences are truncated.
TAIL_TOL = 1e-14
# Companion patterns decoded at a time by pattern_mass.
PATTERN_CHUNK = 1 << 16


def _binomial_coeffs(n: int, p: float) -> np.ndarray:
    if p == 0.0:
        return np.array([1.0])
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    log_p, log_q = math.log(p), math.log1p(-p)
    lgn = math.lgamma(n + 1)
    ks = np.arange(n + 1)
    log_mass = (
        lgn
        - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in ks])
        + ks * log_p
        + (n - ks) * log_q
    )
    mass = np.exp(log_mass)
    # Truncate once the remaining tail is negligible; renormalize only when
    # something was actually dropped (the untruncated sequence is already
    # exact to rounding).
    cum = np.cumsum(mass)
    keep = min(int(np.searchsorted(cum, 1.0 - TAIL_TOL)) + 2, n + 1)
    if keep < n + 1:
        mass = mass[:keep] / mass[:keep].sum()
    return mass


@dataclass(frozen=True)
class DegreePolynomial:
    """Probability generating polynomial sum_k coeffs[k] * x^k.

    `binom`, when set to (n, p), marks the polynomial as an exact
    binomial(n, p); evaluation then uses the closed form.
    """

    coeffs: np.ndarray
    binom: tuple[int, float] | None = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        if (c < -1e-15).any():
            raise ValueError("negative coefficient")
        object.__setattr__(self, "coeffs", np.maximum(c, 0.0))

    def __len__(self) -> int:
        return len(self.coeffs)

    def is_mass(self, tol: float = 1e-9) -> bool:
        return abs(float(self.coeffs.sum()) - 1.0) <= tol

    def eval(self, x):
        """Evaluate sum_k c_k x^k (closed form when binomial)."""
        if self.binom is not None:
            n, p = self.binom
            return (1.0 - p + p * np.asarray(x, dtype=float)) ** n
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def eval_coeffs(self, x):
        """Coefficient-path evaluation, kept separate for cross-checks."""
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def derivative_at(self, x):
        if self.binom is not None:
            n, p = self.binom
            if n == 0:
                return np.zeros_like(np.asarray(x, dtype=float)) + 0.0
            return n * p * (1.0 - p + p * np.asarray(x, dtype=float)) ** (n - 1)
        ks = np.arange(1, len(self.coeffs))
        return np.polynomial.polynomial.polyval(x, self.coeffs[1:] * ks)

    def mean_degree(self) -> float:
        if self.binom is not None:
            n, p = self.binom
            return n * p
        return float(np.arange(len(self.coeffs)) @ self.coeffs)


def variable_node_dist(t_slots: int, p: float) -> DegreePolynomial:
    """L_i: binomial(T, p) mass over the number of transmissions in T slots."""
    if t_slots < 0:
        raise ValueError(f"slot count must be >= 0, got {t_slots}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability {p} outside [0, 1]")
    return DegreePolynomial(_binomial_coeffs(t_slots, p), binom=(t_slots, p))


def observation_node_dist(n_users: int, p: float) -> DegreePolynomial:
    """R_i: binomial(N_i, p) mass over simultaneous transmitters in one slot."""
    if n_users < 0:
        raise ValueError(f"group size must be >= 0, got {n_users}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability {p} outside [0, 1]")
    return DegreePolynomial(_binomial_coeffs(n_users, p), binom=(n_users, p))


def edge_perspective(d: DegreePolynomial) -> DegreePolynomial:
    """lambda(x) = L'(x)/L'(1): coefficient k-1 is k*c_k / sum_j j*c_j."""
    if d.binom is not None:
        n, p = d.binom
        if n == 0 or p == 0.0:
            raise ValueError("edge perspective undefined for mean degree 0")
        return DegreePolynomial(_binomial_coeffs(n - 1, p), binom=(n - 1, p))
    mean = d.mean_degree()
    if mean <= 0:
        raise ValueError("edge perspective undefined for mean degree 0")
    ks = np.arange(1, len(d.coeffs))
    return DegreePolynomial(d.coeffs[1:] * ks / mean)


def companion_states(num_groups: int, target: int, idx) -> np.ndarray:
    """(len(idx), I) states of companion pattern indices idx: the target in
    state 1, the other groups in ascending order, first most significant."""
    idx = np.array(idx, dtype=np.int64)
    states = np.ones((len(idx), num_groups), dtype=np.int8)
    for c in reversed([i for i in range(num_groups) if i != target]):
        states[:, c] = idx % 3
        idx //= 3
    return states


def peel_pattern(bs_sets, states) -> tuple[list[bool], list[bool]]:
    """Walk-graph SIC on one pattern: for each group, whether it peels and
    whether it starts as a singleton at one of its BSs.

    A state-s group puts s edges on each BS in its set; a state-1 group
    alone at some BS (edge multiplicity 1) peels and takes its edge off all
    its BSs. Groups are peeled one at a time until none can be.
    """
    states = [int(v) for v in states]
    mult = {}
    for bss, s in zip(bs_sets, states):
        for b in bss:
            mult[b] = mult.get(b, 0) + s

    def alone(i):
        return states[i] == 1 and any(mult[b] == 1 for b in bs_sets[i])

    singleton = [alone(i) for i in range(len(states))]
    peeled = [False] * len(states)
    progress = True
    while progress:
        progress = False
        for i in range(len(states)):
            if alone(i):
                states[i], peeled[i], progress = 0, True, True
                for b in bs_sets[i]:
                    mult[b] -= 1
    return peeled, singleton


def reference_table(topology: NetworkTopology, target: int, indices=None):
    """(retrievable, singleton) of the target at the given companion pattern
    indices (all 3^(I-1) by default), by plain per-pattern peeling."""
    n_groups = topology.num_groups
    if indices is None:
        indices = np.arange(3 ** (n_groups - 1))
    bs_sets = [tuple(g.bs_set) for g in topology.groups]
    retrievable, singleton = [], []
    for states in companion_states(n_groups, target, indices):
        peeled, alone = peel_pattern(bs_sets, states)
        retrievable.append(peeled[target])
        singleton.append(alone[target])
    return np.array(retrievable, dtype=bool), np.array(singleton, dtype=bool)


def pattern_mass(
    topology: NetworkTopology, target: int, probs_r, probs_c, mask=None
) -> float:
    """Sum over companion patterns of prod_i V[state_i, i] (excluding r_target).

    With mask=None this sums every pattern and equals 1 when each group's
    three state probabilities are consistent (R + C + (1-R-C) = 1).
    """
    n_groups = topology.num_groups
    n_pat = 3 ** (n_groups - 1)
    probs_r = np.asarray(probs_r, dtype=float)
    probs_c = np.asarray(probs_c, dtype=float)
    v = np.stack([probs_r, probs_c, 1.0 - probs_r - probs_c])
    comps = [i for i in range(n_groups) if i != target]
    total = 0.0
    for lo in range(0, n_pat, PATTERN_CHUNK):
        hi = min(lo + PATTERN_CHUNK, n_pat)
        states = companion_states(n_groups, target, np.arange(lo, hi))
        terms = v[states[:, comps], comps].prod(axis=1)
        if mask is not None:
            terms = terms[mask[lo:hi]]
        total += float(terms.sum())
    return total


def compute_w_coop(
    topology: NetworkTopology,
    tables: tuple[np.ndarray, np.ndarray],
    probs_r,
    probs_c,
    probs_rho,
    target: int,
) -> float:
    """w = 1 - sum over retrievable patterns of the pattern probability.

    probs_r, probs_c are the per-group no-edge / one-edge probabilities;
    probs_rho[target] is the probability that the target's packet is its
    group's sole un-retrieved transmission. Direct pattern-sum reference
    path; the evolution engine uses a compressed equivalent. tables is the
    (retrievable, singleton) pair of `load_or_build_tables`.
    """
    retrievable = tables[0]
    if not 0 <= target < len(retrievable):
        raise KeyError(f"no retrievability table for target {target}")
    probs_r = np.asarray(probs_r, dtype=float)
    probs_c = np.asarray(probs_c, dtype=float)
    if ((probs_r + probs_c) > 1.0 + 1e-9).any():
        raise ValueError("R + C exceeds 1")
    mass = pattern_mass(
        topology, target, probs_r, probs_c, mask=retrievable[target]
    )
    w = 1.0 - float(np.asarray(probs_rho, dtype=float)[target]) * mass
    if w < -1e-6 or w > 1.0 + 1e-6:
        raise ValueError(f"w={w} outside [0,1] beyond float tolerance")
    return min(max(w, 0.0), 1.0)


APPENDIX_BS_SETS = (
    frozenset({1}),
    frozenset({2}),
    frozenset({3}),
    frozenset({1, 2}),
    frozenset({2, 3}),
    frozenset({1, 3}),
    frozenset({1, 2, 3}),
)

# Group-index permutations induced by BS relabelings: entry k-1 names the
# appendix group whose probabilities play role k in the base formula.
_PERMS = {
    1: (1, 2, 3, 4, 5, 6, 7),
    2: (2, 1, 3, 4, 6, 5, 7),  # swap BS 1 and 2
    3: (3, 2, 1, 5, 4, 6, 7),  # swap BS 1 and 3
    4: (1, 2, 3, 4, 5, 6, 7),
    5: (2, 3, 1, 5, 6, 4, 7),  # rotate BSs 1->2->3->1
    6: (1, 3, 2, 6, 5, 4, 7),  # swap BS 2 and 3
    7: (1, 2, 3, 4, 5, 6, 7),
}
_BASE = {1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 4, 7: 7}


def _retrieval_sum_u1(r, c):
    rb = 1.0 - r
    return (
        r[4] * r[6] * r[7]
        + c[4] * r[2] * r[5] * r[6] * r[7]
        + c[4] * c[5] * r[2] * r[3] * r[6] * r[7]
        + c[6] * r[3] * r[4] * r[5] * r[7]
        + c[6] * c[5] * r[2] * r[3] * r[4] * r[7]
        + c[4] * c[6] * r[2] * r[3] * r[5] * r[7]
        + c[7]
        * (
            r[4] * r[5] * r[6] * (1.0 - rb[2] * rb[3])
            + c[4] * r[2] * r[3] * r[5] * r[6]
            + c[6] * r[2] * r[3] * r[4] * r[5]
        )
    )


def _retrieval_sum_u4(r, c):
    rb = 1.0 - r
    return (
        r[7]
        * (
            r[5] * r[6] * (1.0 - rb[1] * rb[2])
            + (1.0 - r[5] - c[5]) * r[1] * r[6]
            + (1.0 - r[6] - c[6]) * r[2] * r[5]
            + c[5] * r[6] * (r[1] + rb[1] * r[2] * r[3])
            + c[6] * r[5] * (r[2] + rb[2] * r[1] * r[3])
        )
        + c[7] * r[3] * r[5] * r[6] * (1.0 - rb[1] * rb[2])
    )


def _retrieval_sum_u7(r, c):
    rb = 1.0 - r
    return (
        r[4] * r[5] * r[6] * (1.0 - rb[1] * rb[2] * rb[3])
        + r[4] * r[5] * rb[6] * r[2]
        + r[4] * rb[5] * r[6] * r[1]
        + rb[4] * r[5] * r[6] * r[3]
    )


_SUMS = {1: _retrieval_sum_u1, 4: _retrieval_sum_u4, 7: _retrieval_sum_u7}


def closed_form_w_m3(probs_r, probs_c, rho_target: float, target: int) -> float:
    """w for one target group of the full 3-BS network.

    probs_r and probs_c are length-7 sequences in the appendix group
    convention (see APPENDIX_BS_SETS); rho_target is the probability the
    target packet is its group's sole un-retrieved transmission.
    """
    if target not in range(1, 8):
        raise ValueError(f"target must be in 1..7, got {target}")
    perm = _PERMS[target]
    pr = np.asarray(probs_r, dtype=float)
    pc = np.asarray(probs_c, dtype=float)
    if pr.shape[0] != 7 or pc.shape[0] != 7:
        raise ValueError("need probabilities for all 7 groups")
    # 1-indexed views with roles permuted for the target's BS relabeling.
    r = np.concatenate([np.zeros((1,) + pr.shape[1:]), pr[[k - 1 for k in perm]]])
    c = np.concatenate([np.zeros((1,) + pc.shape[1:]), pc[[k - 1 for k in perm]]])
    w = 1.0 - rho_target * _SUMS[_BASE[target]](r, c)
    return w


def appendix_index(topology: NetworkTopology) -> tuple[int, ...]:
    """Map appendix position k (0-based) to the topology's group index."""
    if topology.num_bs != 3 or topology.num_groups != 7:
        raise ValueError("closed forms require the full 3-BS topology")
    by_set = {frozenset(g.bs_set): i for i, g in enumerate(topology.groups)}
    return tuple(by_set[s] for s in APPENDIX_BS_SETS)


def closed_form_for_topology(
    topology: NetworkTopology, probs_r, probs_c, probs_rho, group_index: int
) -> float:
    """closed_form_w_m3 addressed by topology group order instead."""
    order = appendix_index(topology)
    pr = np.asarray(probs_r, dtype=float)[list(order)]
    pc = np.asarray(probs_c, dtype=float)[list(order)]
    target = order.index(group_index) + 1
    rho = float(np.asarray(probs_rho, dtype=float)[group_index])
    return closed_form_w_m3(pr, pc, rho, target)


class _Peeler:
    """Bucket state shared by all simulation modes."""

    def __init__(self, topology: NetworkTopology):
        self.m = topology.num_bs
        self.group_of = np.repeat(
            np.arange(topology.num_groups),
            [g.num_users for g in topology.groups],
        )
        self.bs0 = [tuple(j - 1 for j in g.bs_set) for g in topology.groups]
        n = len(self.group_of)
        self.alive = np.ones(n, dtype=bool)
        self.user_buckets: list[list[int]] = [[] for _ in range(n)]
        self.count: list[int] = []
        self.idsum: list[int] = []
        self.retrieved_per_group = np.zeros(topology.num_groups, dtype=np.int64)
        self.n_ret = 0
        self.retrieved_log: list[int] = []
        self.queue: deque[int] = deque()

    def open_slot(self) -> int:
        base = len(self.count)
        self.count.extend([0] * self.m)
        self.idsum.extend([0] * self.m)
        return base

    def add(self, uid: int, base: int):
        for b0 in self.bs0[self.group_of[uid]]:
            b = base + b0
            self.count[b] += 1
            self.idsum[b] += uid
            self.user_buckets[uid].append(b)

    def seal_slot(self, base: int):
        for b in range(base, base + self.m):
            if self.count[b] == 1:
                self.queue.append(b)
        self._drain()

    def _drain(self):
        count, idsum, queue = self.count, self.idsum, self.queue
        while queue:
            b = queue.popleft()
            if count[b] != 1:
                continue
            uid = idsum[b]
            if not self.alive[uid]:
                continue
            self.alive[uid] = False
            self.retrieved_per_group[self.group_of[uid]] += 1
            self.n_ret += 1
            self.retrieved_log.append(uid)
            for ob in self.user_buckets[uid]:
                count[ob] -= 1
                idsum[ob] -= uid
                if count[ob] == 1:
                    queue.append(ob)
            self.user_buckets[uid].clear()


class _AliveSet:
    """Per-group alive-user pools supporting O(1) removal and k-sampling."""

    def __init__(self, topology: NetworkTopology):
        self.members = []
        self.pos = {}
        start = 0
        for g in topology.groups:
            ids = list(range(start, start + g.num_users))
            self.members.append(ids)
            for k, uid in enumerate(ids):
                self.pos[uid] = k
            start += g.num_users
        self.sizes = np.array([g.num_users for g in topology.groups], dtype=np.int64)

    def sample(self, group: int, k: int, rng: np.random.Generator) -> list[int]:
        pool = self.members[group]
        n = len(pool)
        if k >= n:
            return list(pool)
        picked = []
        taken = set()
        while len(picked) < k:
            j = int(rng.integers(n))
            if j not in taken:
                taken.add(j)
                picked.append(pool[j])
        return picked

    def remove(self, uid: int, group: int):
        pool = self.members[group]
        j = self.pos.pop(uid)
        last = pool.pop()
        if last != uid:
            pool[j] = last
            self.pos[last] = j
        self.sizes[group] -= 1


def _frameless_run(
    topology: NetworkTopology,
    degrees,
    seed,
    *,
    threshold: int | None,
    slot_cap: int,
) -> FrameResult:
    if not isinstance(degrees, TargetDegreeVector):
        degrees = TargetDegreeVector(tuple(degrees))
    p = np.array(degrees.probabilities(topology))
    rng = _make_rng(seed)
    peel = _Peeler(topology)
    alive = _AliveSet(topology)
    n_users = topology.num_users
    t = 0
    consumed = 0
    while t < slot_cap:
        base = peel.open_slot()
        arrivals = rng.binomial(alive.sizes, p)
        for g in np.flatnonzero(arrivals):
            for uid in alive.sample(int(g), int(arrivals[g]), rng):
                peel.add(uid, base)
        peel.seal_slot(base)
        t += 1
        # Retrieved users stop being sampled: their remaining replicas are
        # known to the BSs and pre-subtracted.
        log = peel.retrieved_log
        while consumed < len(log):
            uid = log[consumed]
            alive.remove(uid, int(peel.group_of[uid]))
            consumed += 1
        if threshold is not None and peel.n_ret >= threshold:
            return FrameResult(
                t=t,
                retrieved_per_group=peel.retrieved_per_group,
                n_users=n_users,
                throughput=peel.n_ret / t,
                terminated_by="threshold",
            )
    return FrameResult(
        t=t,
        retrieved_per_group=peel.retrieved_per_group,
        n_users=n_users,
        throughput=peel.n_ret / t,
        terminated_by="slot_cap" if threshold is not None else "fixed",
    )


@functools.lru_cache(maxsize=16)
def user_layout(topology: NetworkTopology) -> tuple[np.ndarray, np.ndarray]:
    """Each user's group and (M,) 0-based BS columns, -1 where the group is
    not heard; users numbered group by group. Read-only, built once."""
    sizes = [g.num_users for g in topology.groups]
    group_of = np.repeat(np.arange(topology.num_groups), sizes)
    bs = [[j if g.bs_mask >> j & 1 else -1 for j in range(topology.num_bs)]
          for g in topology.groups]
    user_bs = np.array(bs, dtype=np.int8)[group_of]
    for a in (group_of, user_bs):
        a.setflags(write=False)
    return group_of, user_bs


class EdgePeeler:
    """Buckets b = slot*M + bs up to the drawn horizon: count (int32) and id
    sum (int64) of alive members. User u owns edges[start[u]:][:deg[u]];
    a retrieved user's edges are all subtracted and its later ones never
    added, so no bucket holds a retrieved user."""

    def __init__(self, topology: NetworkTopology):
        self.group_of, self.user_bs = user_layout(topology)
        self.num_groups = topology.num_groups
        self.m = np.int64(topology.num_bs)
        n = len(self.group_of)
        self.edges = np.zeros(0, dtype=np.int64)
        self.start = self.deg = np.zeros(n, dtype=np.int64)
        self.count, self.idsum = np.zeros(0, np.int32), np.zeros(0, np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.mark = np.empty(n, dtype=np.int64)
        self.n_ret = self.horizon = 0

    def extend(self, users: np.ndarray, slots: np.ndarray, horizon: int):
        """Add the transmission of users[i] in slots[i] for every i (slots
        below `horizon`), leaving out retrieved users."""
        if self.n_ret:
            users, slots = users[self.alive[users]], slots[self.alive[users]]
        bs = self.user_bs[users]
        real = bs >= 0
        n_bs = np.add.reduce(real, axis=1, dtype=np.int8)
        new, owner = slots.repeat(n_bs) * self.m, users.repeat(n_bs)
        new += bs[real]
        del bs, real, users, slots
        grow = horizon * self.m - len(self.count)
        self.count = np.concatenate([self.count, np.zeros(grow, np.int32)])
        self.idsum = np.concatenate([self.idsum, np.zeros(grow, np.int64)])
        np.add.at(self.count, new, np.int32(1))
        np.add.at(self.idsum, new, owner)
        if len(self.edges):
            old = np.arange(len(self.deg), dtype=np.int32).repeat(self.deg)
            kept = self.alive[old]
            owner = np.concatenate([old[kept], owner])
            new = np.concatenate([self.edges[kept], new])
            del old, kept, self.edges  # free them before the sort
        self.edges = new[owner.argsort(kind="stable")]
        self.deg = np.bincount(owner, minlength=len(self.deg))
        self.start = np.add.accumulate(self.deg) - self.deg
        self.horizon = horizon

    def peel(self, lo: int, hi: int):
        """Peel slots [0, hi) to fixpoint, given the fixpoint of [0, lo)."""
        lim = hi * self.m
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
            ends = np.add.accumulate(deg)
            at = (self.start[users] - ends + deg).repeat(deg)
            at += np.arange(len(at))
            b = self.edges[at]
            np.subtract.at(self.count, b, np.int32(1))
            np.subtract.at(self.idsum, b, users.repeat(deg))
            cand = b[(self.count[b] == 1) & (b < lim)]

    def snapshot(self):
        return self.count.copy(), self.idsum.copy(), self.alive.copy(), self.n_ret

    def restore(self, snap):
        self.count, self.idsum, self.alive, self.n_ret = snap

    def result(self, t: int, terminated_by: str) -> FrameResult:
        got = np.bincount(self.group_of[~self.alive], minlength=self.num_groups)
        return FrameResult(t, got, len(self.alive), self.n_ret / t, terminated_by)


def bernoulli_slots(rng, topology: NetworkTopology, degrees, lo: int, hi: int):
    """Users and slots (int32) of all transmissions in slots [lo, hi), each
    user sending in every slot with its group's p = G/N. Gaps are geometric,
    1 + floor(E / -ln(1 - p)) with E standard exponential, drawn k per user
    at a time (user-major); the process is memoryless, so a range starts
    afresh at lo."""
    if not isinstance(degrees, TargetDegreeVector):
        degrees = TargetDegreeVector(tuple(degrees))
    p = degrees.probabilities(topology)
    group_of = user_layout(topology)[0]
    scale = [math.inf if q == 0 else -1 / math.log1p(-q) if q < 1 else 0.0 for q in p]
    scale = np.array(scale)[group_of]
    mean = max(p) * (hi - lo)  # the busiest user's mean count in the range
    k = 1 + math.ceil(mean + math.sqrt(mean))  # most users finish in one round
    users, slots = [], []
    active, last = np.arange(len(group_of), dtype=np.int32), lo - 1
    while True:
        at = rng.standard_exponential((len(active), k))
        at *= scale[active][:, None]
        np.floor(at, out=at)
        at += 1
        np.add.accumulate(at, axis=1, out=at)
        at += last
        sent = at < hi
        n_sent = np.add.reduce(sent, axis=1)
        users.append(active.repeat(n_sent))
        slots.append(at[sent].astype(np.int32))
        more = n_sent == k
        if not more.any():
            return np.concatenate(users), np.concatenate(slots)
        active, last = active[more], at[more, -1:]


def dag_evaluate(dag, v: np.ndarray) -> np.ndarray:
    """`PatternDag.evaluate`: v has shape (3, I) or (3, I, B); returns (R,)
    or (R, B) sums."""
    vals = np.zeros((2,) + v.shape[2:])
    vals[1] = 1.0
    for children, grp in zip(dag.children, dag.groups):
        terms = np.take(vals, children, axis=0)
        terms *= np.take(v, grp, axis=1)
        vals = terms[0] + terms[1] + terms[2]
    return vals[dag.roots]


def coop_p_r(engine, big_r: np.ndarray, big_c: np.ndarray):
    """`CoopEngine._p_r`: (P^(r0), P^(r1)) per row and target."""
    v = np.array([big_r.T, big_c.T, (1.0 - big_r - big_c).T])
    return np.split(dag_evaluate(engine.dag, v).T, 2, axis=1)


def coop_w(engine, xa, pa, big_r, rho):
    """`CoopEngine._w`."""
    big_c = xa * engine.counts * pa * rho
    p0, p1 = coop_p_r(engine, big_r, big_c)
    return 1.0 - rho * (p0 + p1)


def _with_ones(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a, np.ones((len(a), 1))], axis=1)


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


def noncoop_w(engine, xa, pa, big_r, rho):
    """`NoncoopEngine._w` over the engine's (group, BS) pair columns."""
    topology = engine.topology
    pairs = [(i, j) for i in range(topology.num_groups) for j in topology.groups[i].bs_set]
    # (M, k_max) pair indices per BS, padded at the end with the index of
    # the appended column of ones.
    bs_idx = _padded(
        [[k for k, (_, j) in enumerate(pairs) if j == b]
         for b in range(1, topology.num_bs + 1)],
        len(pairs),
    )
    bs_real = bs_idx < len(pairs)
    pair_at = bs_idx[bs_real]
    loo = _leave_one_out(_with_ones(big_r)[:, bs_idx])[:, bs_real]
    wa = np.empty_like(xa)
    wa[:, pair_at] = 1.0 - rho[:, pair_at] * loo
    return wa


def quadratic_form3(p: np.ndarray, d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """`bounds._quadratic_form3`: p Q^-1 p^t for stacked symmetric 3x3
    systems from 2x2 cofactors, max_j p_j where Q is numerically singular,
    clamped into [0, min(1, sum_j p_j)]."""
    oo = o * o
    a = d[1:4] * d[2:5] - oo[:3]  # diagonal cofactors
    b = o[1:4] * o[2:5] - d[:3] * o[:3]  # cofactor of each o_i
    det = d[0] * a[0] + o[2] * b[2] + o[1] * b[1]
    norms = d[:3] * d[:3] + oo[1:4] + oo[2:5]  # squared row norms
    singular = np.abs(det) <= PIVOT_TOL * np.sqrt(norms.prod(axis=0))
    pa = p[:3] * p[:3] * a
    pb = 2.0 * p[1:4] * p[2:5] * b
    num = pa[0] + pb[2] + pa[1] + (pa[2] + pb[0] + pb[1])
    out = np.where(singular, p[:3].max(axis=0), num / np.where(singular, 1.0, det))
    return np.minimum(np.maximum(out, 0.0), np.minimum(1.0, p[0] + p[1] + p[2]))


def bound_w(engine, xa, pa, big_r, rho):
    """`BoundEngine._w`."""
    ext = np.empty((big_r.shape[1] + 2, len(big_r)))
    ext[:-2] = big_r.T
    ext[-2:] = [[1.0], [0.0]]
    terms = rho.T * np.multiply.reduce(ext[engine._idx], axis=0)
    p = terms[:5]
    w = (1.0 - quadratic_form3(p, p + engine._pad, terms[5:])).T
    for m, targets, idx in engine._large:
        q = rho[:, targets, None] * np.multiply.reduce(ext.T[:, idx], axis=-1)
        q = q.reshape(-1, m, m)
        bound = _union_lower_bound(q.diagonal(axis1=1, axis2=2), q)
        w[:, targets] = 1.0 - bound.reshape(len(xa), -1)
    return w


def batched_peak_search(
    engine,
    p_mat: np.ndarray,
    *,
    t_grid=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> list[dict[int, tuple]]:
    """Peak search for many probability vectors at once.

    All candidates advance in lockstep so every round is one batched
    evaluate() call: shared coarse grid, boundary extension for candidates
    whose maximum sits on an edge, then per-candidate window refinement
    down to unit step. Returns, per candidate, {T: (throughput, plr_avg,
    plr_groups, converged)}. Per-candidate results are independent of how
    candidates are batched together.
    """
    p_mat = np.atleast_2d(np.asarray(p_mat, dtype=float))
    n_cand = p_mat.shape[0]
    if t_grid is None:
        raise ValueError("t_grid is required")
    grid = np.asarray(t_grid, dtype=np.int64)
    seen: list[dict[int, tuple]] = [{} for _ in range(n_cand)]

    def run(pairs):
        pairs = [(c, t) for c, t in pairs if t not in seen[c]]
        if not pairs:
            return
        pairs = sorted(set(pairs))
        rows = p_mat[[c for c, _ in pairs]]
        ts = np.array([t for _, t in pairs], dtype=np.int64)
        out = engine.evaluate(rows, ts, max_iter=max_iter, tol=tol)
        for k, (c, t) in enumerate(pairs):
            seen[c][t] = (
                float(out.throughput[k]),
                float(out.plr_avg[k]),
                out.plr_groups[k],
                bool(out.converged[k]),
            )

    def best_t(c):
        return max(seen[c], key=lambda t: (seen[c][t][0], -t))

    run([(c, int(t)) for c in range(n_cand) for t in grid])
    for _ in range(3):  # extend when a candidate's max sits on the boundary
        pairs = []
        for c in range(n_cand):
            t_best, lo, hi = best_t(c), min(seen[c]), max(seen[c])
            if t_best == hi:
                ext = np.linspace(hi, 2 * hi, 9).round().astype(np.int64)
            elif t_best == lo and lo > 1:
                ext = np.linspace(max(1, lo // 2), lo, 9).round().astype(np.int64)
            else:
                continue
            pairs.extend((c, int(t)) for t in ext)
        if not pairs:
            break
        run(pairs)

    steps = []
    for c in range(n_cand):
        ts_sorted = sorted(seen[c])
        gaps = [b - a for a, b in zip(ts_sorted, ts_sorted[1:])]
        steps.append(max(gaps, default=1))
    while max(steps) > 1:
        pairs = []
        for c in range(n_cand):
            if steps[c] <= 1:
                continue
            t_best = best_t(c)
            window = np.linspace(t_best - steps[c], t_best + steps[c], 9)
            window = np.clip(window.round().astype(np.int64), 1, None)
            pairs.extend((c, int(t)) for t in window)
            steps[c] = max(1, math.ceil(steps[c] / 4))
            if steps[c] == 1:
                pairs.extend(
                    (c, int(t))
                    for t in range(max(1, t_best - 3), t_best + 4)
                )
        run(pairs)
    # Final unit-step sweep around each maximum.
    run(
        [
            (c, t)
            for c in range(n_cand)
            for t in range(max(1, best_t(c) - 3), best_t(c) + 4)
        ]
    )
    return seen


def tiny_distribution_by_loop(t_slots: int) -> np.ndarray:
    """All 2^(6*T) equiprobable realizations of the 6-user network of
    criterion 8 at p=1/2 (two users in each of the groups {1}, {2} and
    {1, 2}), joint SIC on each: the distribution of the retrieved count."""
    groups_of_user = [0, 0, 1, 1, 2, 2]
    bs_of_group = [(0,), (1,), (0, 1)]
    n_pat = 2 ** (6 * t_slots)
    dist = np.zeros(7)
    for idx in range(n_pat):
        buckets = {}
        for u in range(6):
            for t in range(t_slots):
                if idx >> (u * t_slots + t) & 1:
                    for b in bs_of_group[groups_of_user[u]]:
                        buckets.setdefault((b, t), set()).add(u)
        alive = [True] * 6
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
        dist[6 - sum(alive)] += 1
    return dist / n_pat
