"""Reference paths that only the tests use.

Degree-distribution algebra for the transmission graph: node-perspective
distributions of a user transmitting with probability p are binomial, over
T slots for variable nodes and over the N_i group members for observation
nodes; edge-perspective distributions follow by the derivative identity
lambda(x) = L'(x)/L'(1). Binomial coefficient masses are computed in log
space so N up to 1e5 is safe, and tiny tails are truncated; polynomials
known to be binomial also carry (n, p) so evaluation can use the exact
closed form (1-p+p*x)^n, which is what the engines use directly.

Walk-graph pattern sums: the direct 3^(I-1) enumeration of the pattern
probabilities that the engines evaluate through the compressed DAG and the
inclusion-exclusion closed form.

Slot-by-slot simulator, the reference for the vectorized peeler of
`frameless.simulator`: every un-retrieved user transmits per slot with its
group probability, a transmission lands in the bucket of every BS the
group reaches, and joint SIC runs to fixpoint after each slot in per-user
Python; retrieved users are never sampled again.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from frameless.simulator import FrameResult, _make_rng
from frameless.topology import NetworkTopology, TargetDegreeVector
from frameless.walkgraph import (
    _CHUNK,
    RetrievabilityTable,
    companion_order,
    pattern_states,
)

# Tail mass below which binomial coefficient sequences are truncated.
TAIL_TOL = 1e-14


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
    comps = list(companion_order(n_groups, target))
    total = 0.0
    for lo in range(0, n_pat, _CHUNK):
        hi = min(lo + _CHUNK, n_pat)
        states = pattern_states(n_groups, target, lo, hi)
        terms = v[states[:, comps], comps].prod(axis=1)
        if mask is not None:
            terms = terms[mask[lo:hi]]
        total += float(terms.sum())
    return total


def compute_w_coop(
    topology: NetworkTopology,
    tables: dict[int, RetrievabilityTable],
    probs_r,
    probs_c,
    probs_rho,
    target: int,
) -> float:
    """w = 1 - sum over retrievable patterns of the pattern probability.

    probs_r, probs_c are the per-group no-edge / one-edge probabilities;
    probs_rho[target] is the probability that the target's packet is its
    group's sole un-retrieved transmission. Direct pattern-sum reference
    path; the evolution engine uses a compressed equivalent.
    """
    if target not in tables:
        raise KeyError(f"no retrievability table for target {target}")
    probs_r = np.asarray(probs_r, dtype=float)
    probs_c = np.asarray(probs_c, dtype=float)
    if ((probs_r + probs_c) > 1.0 + 1e-9).any():
        raise ValueError("R + C exceeds 1")
    mass = pattern_mass(
        topology, target, probs_r, probs_c, mask=tables[target].retrievable
    )
    w = 1.0 - float(np.asarray(probs_rho, dtype=float)[target]) * mass
    if w < -1e-6 or w > 1.0 + 1e-6:
        raise ValueError(f"w={w} outside [0,1] beyond float tolerance")
    return min(max(w, 0.0), 1.0)


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
