"""Walk-graph enumeration: which slot snapshots let a packet be retrieved.

A walk graph is a per-slot snapshot assigning every user group a state in
{0, 1, 2}: no un-retrieved transmission, exactly one, or a collision among
two or more. A group in state s contributes s edges to each BS it can
reach. SIC peels any state-1 group adjacent to a BS whose total incident
edge multiplicity is 1; peeling removes the group's edges at all its BSs;
state-2 groups are never peelable.

For a target group fixed in state 1, the retrievability table records, for
each of the 3^(I-1) companion-state patterns, whether the target peels.
The table depends only on connectivity, never on probabilities, so it is
built once and cached on disk.

Patterns are indexed by a mixed-radix base-3 counter over the non-target
groups in ascending group order, first companion most significant.
"""

from __future__ import annotations

import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .topology import NetworkTopology, structure_fingerprint

CACHE_ENV = "FRAMELESS_CACHE_DIR"
CACHE_VERSION = 1

# 3^(I-1) enumeration is refused beyond this many groups.
MAX_GROUPS = 15
_CHUNK = 1 << 19


class GuardError(RuntimeError):
    """Exact enumeration refused because the pattern space is too large."""


def companion_order(num_groups: int, target: int) -> tuple[int, ...]:
    return tuple(i for i in range(num_groups) if i != target)


def pattern_states(num_groups: int, target: int, lo: int, hi: int) -> np.ndarray:
    """Decode pattern indices [lo, hi) into (hi-lo, I) state matrices."""
    comps = companion_order(num_groups, target)
    k = len(comps)
    idx = np.arange(lo, hi, dtype=np.int64)
    states = np.ones((hi - lo, num_groups), dtype=np.int8)
    for pos in range(k - 1, -1, -1):
        states[:, comps[pos]] = (idx % 3).astype(np.int8)
        idx //= 3
    return states


def incidence(topology: NetworkTopology) -> np.ndarray:
    """(I, M) 0/1 matrix: group i reaches BS j."""
    a = np.zeros((topology.num_groups, topology.num_bs), dtype=np.float32)
    for i, g in enumerate(topology.groups):
        for j in g.bs_set:
            a[i, j - 1] = 1.0
    return a


def sic_on_patterns(states: np.ndarray, a: np.ndarray, target: int):
    """Run walk-graph SIC on a batch of patterns simultaneously.

    Returns (retrieved, initial_singleton) boolean vectors: whether the
    target peels, and whether it was already a singleton at one of its
    BSs before any peeling.
    """
    s = states.astype(np.float32)
    target_bs = a[target] > 0
    mult = s @ a
    initial_singleton = (mult[:, target_bs] == 1.0).any(axis=1)
    live = np.ones(len(s), dtype=bool)
    while True:
        singleton = mult[live] == 1.0
        peel = (s[live] == 1.0) & ((singleton @ a.T) > 0.0)
        if not peel.any():
            break
        sl = s[live]
        sl[peel] = 0.0
        s[live] = sl
        mult[live] = sl @ a
        # Rows whose target already peeled need no further rounds.
        sub = np.flatnonzero(live)
        live[sub[s[sub, target] == 0.0]] = False
    retrieved = states[:, target] == 1
    retrieved = retrieved & (s[:, target] == 0.0)
    return retrieved, initial_singleton


@dataclass(frozen=True)
class RetrievabilityTable:
    """Per-target retrievability over all companion patterns.

    retrievable[k] is True iff pattern k lets the target peel; singleton[k]
    marks the subset where the target starts as a singleton at some BS
    (the collision-free retrievals, P^(r0)); the remainder are the
    cooperative rescues (P^(r1)).
    """

    target: int
    num_groups: int
    retrievable: np.ndarray
    singleton: np.ndarray

    @property
    def rescue(self) -> np.ndarray:
        return self.retrievable & ~self.singleton

    def __post_init__(self):
        expected = 3 ** (self.num_groups - 1)
        if len(self.retrievable) != expected or len(self.singleton) != expected:
            raise ValueError("table length does not match pattern space")


def build_retrievability_table(
    topology: NetworkTopology, target: int, workers: int = 1
) -> RetrievabilityTable:
    """Exhaustive SIC over all 3^(I-1) companion patterns for one target."""
    n_groups = topology.num_groups
    if n_groups > MAX_GROUPS:
        raise GuardError(
            f"{n_groups} groups means 3^{n_groups - 1} patterns; "
            f"exact enumeration is guarded at {MAX_GROUPS} groups"
        )
    if not 0 <= target < n_groups:
        raise ValueError(f"target {target} out of range")
    a = incidence(topology)
    n_pat = 3 ** (n_groups - 1)
    retrievable = np.zeros(n_pat, dtype=bool)
    singleton = np.zeros(n_pat, dtype=bool)
    bounds = [(lo, min(lo + _CHUNK, n_pat)) for lo in range(0, n_pat, _CHUNK)]

    def run(span):
        lo, hi = span
        states = pattern_states(n_groups, target, lo, hi)
        return lo, hi, *sic_on_patterns(states, a, target)

    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, bounds))
    else:
        results = [run(b) for b in bounds]
    for lo, hi, retr, sing in results:
        retrievable[lo:hi] = retr
        singleton[lo:hi] = sing
    return RetrievabilityTable(
        target=target, num_groups=n_groups, retrievable=retrievable, singleton=singleton
    )


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "frameless-aloha"


def _table_path(cache_dir: Path, fingerprint: str, target: int) -> Path:
    return cache_dir / f"walktab-v{CACHE_VERSION}-{fingerprint}-t{target}.npz"


def save_table(table: RetrievabilityTable, topology: NetworkTopology, cache_dir=None):
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _table_path(cache_dir, structure_fingerprint(topology), table.target)
    # A private temp file per writer, so concurrent builders of the same
    # table never write into each other's file; os.replace is atomic.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez_compressed(
                fh,
                version=np.int64(CACHE_VERSION),
                target=np.int64(table.target),
                num_groups=np.int64(table.num_groups),
                retrievable=np.packbits(table.retrievable),
                singleton=np.packbits(table.singleton),
            )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_table(topology: NetworkTopology, target: int, cache_dir=None):
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    path = _table_path(cache_dir, structure_fingerprint(topology), target)
    if not path.exists():
        return None
    try:
        with np.load(path) as z:
            if int(z["version"]) != CACHE_VERSION:
                return None
            n_groups = int(z["num_groups"])
            n_pat = 3 ** (n_groups - 1)
            return RetrievabilityTable(
                target=int(z["target"]),
                num_groups=n_groups,
                retrievable=np.unpackbits(z["retrievable"], count=n_pat).astype(bool),
                singleton=np.unpackbits(z["singleton"], count=n_pat).astype(bool),
            )
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
        # Unreadable (truncated, empty, foreign) files count as a miss.
        return None


def load_or_build_tables(
    topology: NetworkTopology,
    targets=None,
    cache_dir=None,
    workers: int = 1,
    persist: bool = True,
) -> dict[int, RetrievabilityTable]:
    """Tables for the given targets (default: all groups), disk-cached."""
    if targets is None:
        targets = range(topology.num_groups)
    out = {}
    for t in targets:
        table = load_table(topology, t, cache_dir)
        if table is None:
            table = build_retrievability_table(topology, t, workers=workers)
            if persist:
                try:
                    save_table(table, topology, cache_dir)
                except OSError:
                    pass
        out[t] = table
    return out


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


class PatternDag:
    """Quasi-reduced ternary decision DAG over a pattern subset.

    Compresses a boolean table over 3^K companion patterns by merging
    identical subtrees level by level, so the per-iteration sum
    sum_k mask[k] * prod_i V[state_i, i] evaluates in O(nodes) instead of
    O(3^K), vectorized over any trailing batch shape of V.
    """

    def __init__(self, mask: np.ndarray, companions: tuple[int, ...]):
        k = len(companions)
        if len(mask) != 3**k:
            raise ValueError("mask length must be 3^K")
        self.companions = companions
        ids = mask.astype(np.int64)
        levels = []
        for _ in range(k):
            triples = ids.reshape(-1, 3)
            uniq, inverse = np.unique(triples, axis=0, return_inverse=True)
            levels.append(uniq)
            ids = inverse.reshape(-1).astype(np.int64)
        self.levels = levels  # levels[0] consumes the last companion digit
        self.root = int(ids[0]) if k > 0 else int(mask[0])
        self.num_nodes = sum(len(lv) for lv in levels)
        self.empty = not mask.any()

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        """v has shape (3, I) or (3, I, B); returns scalar or (B,) sums."""
        batch = v.shape[2:]
        if self.empty:
            return np.zeros(batch) if batch else 0.0
        if not self.companions:
            return np.full(batch, float(self.root)) if batch else float(self.root)
        vals = np.zeros((2,) + batch)
        vals[1] = 1.0
        # levels[0] merges over the least significant (last) companion.
        for level, group in zip(self.levels, reversed(self.companions)):
            vals = (
                vals[level[:, 0]] * v[0, group]
                + vals[level[:, 1]] * v[1, group]
                + vals[level[:, 2]] * v[2, group]
            )
        out = vals[self.root]
        return out if batch else float(out)
