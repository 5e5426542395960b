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

import hashlib
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .topology import NetworkTopology, structure_fingerprint

CACHE_ENV = "FRAMELESS_CACHE_DIR"
CACHE_VERSION = 2

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


def _checksum(retrievable: np.ndarray, singleton: np.ndarray) -> str:
    """SHA-256 of the packed table arrays."""
    return hashlib.sha256(retrievable.tobytes() + singleton.tobytes()).hexdigest()


def save_table(table: RetrievabilityTable, topology: NetworkTopology, cache_dir=None):
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = structure_fingerprint(topology)
    path = _table_path(cache_dir, fingerprint, table.target)
    retrievable = np.packbits(table.retrievable)
    singleton = np.packbits(table.singleton)
    # A private temp file per writer, so concurrent builders of the same
    # table never write into each other's file; os.replace is atomic.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez_compressed(
                fh,
                version=np.int64(CACHE_VERSION),
                fingerprint=np.str_(fingerprint),
                target=np.int64(table.target),
                num_groups=np.int64(table.num_groups),
                retrievable=retrievable,
                singleton=singleton,
                checksum=np.str_(_checksum(retrievable, singleton)),
            )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_table(topology: NetworkTopology, target: int, cache_dir=None):
    """The cached table, or None on a miss.

    Missing, unreadable (truncated, empty, foreign), other-version and
    mislabelled files (a fingerprint, target or payload checksum that does
    not match) all count as a miss.
    """
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    fingerprint = structure_fingerprint(topology)
    path = _table_path(cache_dir, fingerprint, target)
    if not path.exists():
        return None
    try:
        with np.load(path) as z:
            if (
                int(z["version"]) != CACHE_VERSION
                or str(z["fingerprint"]) != fingerprint
                or int(z["target"]) != target
            ):
                return None
            retrievable, singleton = z["retrievable"], z["singleton"]
            if str(z["checksum"]) != _checksum(retrievable, singleton):
                return None
            n_groups = int(z["num_groups"])
            n_pat = 3 ** (n_groups - 1)
            return RetrievabilityTable(
                target=target,
                num_groups=n_groups,
                retrievable=np.unpackbits(retrievable, count=n_pat).astype(bool),
                singleton=np.unpackbits(singleton, count=n_pat).astype(bool),
            )
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
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


class PatternDag:
    """Quasi-reduced ternary decision DAG over pattern subsets, levelized.

    Compresses boolean tables over 3^K companion patterns by merging
    identical subtrees level by level (a quasi-reduced MDD), so the sum
    sum_k mask[k] * prod_i V[state_i, i] evaluates in O(nodes) instead of
    O(3^K), vectorized over any trailing batch shape of V.

    masks is one table of length 3^K with its companion tuple, or an
    (R, 3^K) stack with one companion tuple per row: every root has K
    companions, so level l of all roots lines up and one pass over the
    levels evaluates all R sums. Each level holds its nodes' child indices
    into the level below, state by state as a (3, nodes) array, and the
    group whose digit each node consumes; the leaves 0 and 1 are shared.
    """

    def __init__(self, masks: np.ndarray, companions):
        masks = np.asarray(masks)
        self._single = masks.ndim == 1
        if self._single:
            masks, companions = masks[None], [tuple(companions)]
        comps = np.array(companions, dtype=np.intp).reshape(len(masks), -1)
        k = comps.shape[1]
        if masks.shape[1] != 3**k:
            raise ValueError("mask length must be 3^K")
        ids = masks.astype(np.intp)
        self.children: list[np.ndarray] = []
        self.groups: list[np.ndarray] = []
        # Level l consumes the (l+1)-th last companion digit of every root.
        for pos in range(k - 1, -1, -1):
            triples = ids.reshape(len(masks), -1, 3)
            grp = np.broadcast_to(comps[:, pos, None, None], triples.shape[:2] + (1,))
            keys = np.concatenate([grp, triples], axis=2).reshape(-1, 4)
            uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
            self.groups.append(uniq[:, 0])
            self.children.append(np.ascontiguousarray(uniq[:, 1:].T))
            ids = inverse.reshape(len(masks), -1)
        self.roots = ids[:, 0]
        self.num_nodes = sum(len(g) for g in self.groups)

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        """v has shape (3, I) or (3, I, B); returns (R,) or (R, B) sums
        (a scalar or (B,) for a single mask)."""
        vals = np.zeros((2,) + v.shape[2:])
        vals[1] = 1.0
        for children, grp in zip(self.children, self.groups):
            terms = vals[children]
            terms *= v[:, grp]
            vals = terms[0] + terms[1] + terms[2]
        out = vals[self.roots]
        if self._single:
            return out[0] if out.ndim > 1 else float(out[0])
        return out
