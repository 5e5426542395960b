"""Walk-graph enumeration: which slot snapshots let a packet be retrieved.

A walk graph is a per-slot snapshot assigning every user group a state in
{0, 1, 2}: no un-retrieved transmission, exactly one, or a collision among
two or more. A group in state s contributes s edges to each BS it can
reach. SIC peels any state-1 group adjacent to a BS whose total incident
edge multiplicity is 1; peeling removes the group's edges at all its BSs;
state-2 groups are never peelable.

One SIC pass over all 3^I patterns, group 0 the most significant digit,
records for every group whether it peels and whether it started as a
singleton at one of its BSs. A target's retrievability table is the slice
of that pass where the target is in state 1: 3^(I-1) companion patterns,
indexed by a mixed-radix base-3 counter over the other groups in
ascending group order, first companion most significant. The tables
depend only on connectivity, never on probabilities, so they are built
once and cached on disk.
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

# Exact enumeration is refused beyond this many groups.
MAX_GROUPS = 15
_CHUNK = 1 << 19


class GuardError(RuntimeError):
    """Exact enumeration refused because the pattern space is too large."""


def companion_order(num_groups: int, target: int) -> tuple[int, ...]:
    return tuple(i for i in range(num_groups) if i != target)


def pattern_states(num_groups: int, lo: int, hi: int) -> np.ndarray:
    """Decode pattern indices [lo, hi) into (hi-lo, I) state matrices,
    group 0 the most significant digit."""
    idx = np.arange(lo, hi, dtype=np.int64)
    states = np.empty((hi - lo, num_groups), dtype=np.int8)
    for i in range(num_groups - 1, -1, -1):
        states[:, i] = idx % 3
        idx //= 3
    return states


def incidence(topology: NetworkTopology) -> np.ndarray:
    """(I, M) 0/1 matrix: group i reaches BS j."""
    a = np.zeros((topology.num_groups, topology.num_bs), dtype=np.float32)
    for i, g in enumerate(topology.groups):
        for j in g.bs_set:
            a[i, j - 1] = 1.0
    return a


def sic_on_patterns(states: np.ndarray, a: np.ndarray):
    """Run walk-graph SIC to its fixpoint on a batch of patterns.

    Returns (peeled, singleton) boolean (P, I) arrays: whether each group
    peels, and whether it starts as a singleton at one of its BSs before
    any peeling. A row leaves once a round peels nothing in it.
    """
    s = states.astype(np.float32)
    singleton = (states == 1) & (((s @ a) == 1.0) @ a.T > 0.0)
    rows, peel = np.arange(len(s)), singleton
    while True:
        busy = peel.any(axis=1)
        rows, peel = rows[busy], peel[busy]
        if not len(rows):
            break
        sub = s[rows]
        sub[peel] = 0.0
        s[rows] = sub
        peel = (sub == 1.0) & (((sub @ a) == 1.0) @ a.T > 0.0)
    return (states == 1) & (s == 0.0), singleton


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


def build_retrievability_tables(
    topology: NetworkTopology, workers: int = 1
) -> dict[int, RetrievabilityTable]:
    """Every group's table from one exhaustive SIC pass over 3^I patterns."""
    n_groups = topology.num_groups
    if n_groups > MAX_GROUPS:
        raise GuardError(
            f"{n_groups} groups means 3^{n_groups} patterns; "
            f"exact enumeration is guarded at {MAX_GROUPS} groups"
        )
    a = incidence(topology)
    n_pat = 3**n_groups
    peeled = np.empty((n_pat, n_groups), dtype=bool)
    singleton = np.empty((n_pat, n_groups), dtype=bool)

    def run(lo):
        hi = min(lo + _CHUNK, n_pat)
        peeled[lo:hi], singleton[lo:hi] = sic_on_patterns(
            pattern_states(n_groups, lo, hi), a
        )

    starts = range(0, n_pat, _CHUNK)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)

    def target_rows(table, i):
        # Digit i fixed at 1; the digits left over are the companions of i
        # in ascending group order, first most significant.
        return table[:, i].reshape(3**i, 3, -1)[:, 1, :].ravel()

    return {
        i: RetrievabilityTable(
            target=i,
            num_groups=n_groups,
            retrievable=target_rows(peeled, i),
            singleton=target_rows(singleton, i),
        )
        for i in range(n_groups)
    }


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
    topology: NetworkTopology, cache_dir=None, workers: int = 1
) -> dict[int, RetrievabilityTable]:
    """Tables for every group, disk-cached; any miss rebuilds all of them
    in one pass and saves the missing ones."""
    tables = {t: load_table(topology, t, cache_dir) for t in range(topology.num_groups)}
    missing = [t for t, table in tables.items() if table is None]
    if missing:
        tables = build_retrievability_tables(topology, workers)
        for t in missing:
            try:
                save_table(tables[t], topology, cache_dir)
            except OSError:
                pass
    return tables


def _ranks(keys: np.ndarray, size: int):
    """np.unique(keys, return_inverse=True) for int64 keys in [0, size); a
    range no larger than the keys is ranked by a dense table, not a sort."""
    if size > keys.size:
        uniq, inverse = np.unique(keys, return_inverse=True)
        return uniq, inverse.reshape(keys.shape)
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[keys]


class PatternDag:
    """Quasi-reduced ternary decision DAG over pattern subsets, levelized.

    Compresses boolean tables over 3^K companion patterns by merging
    identical subtrees level by level (a quasi-reduced MDD), so the sum
    sum_k mask[k] * prod_i V[state_i, i] evaluates in O(nodes) instead of
    O(3^K), vectorized over any trailing batch shape of V.

    masks is an (R, 3^K) stack of tables with one companion tuple per row:
    every root has K companions, so level l of all roots lines up and one
    pass over the levels evaluates all R sums. Each level holds its nodes'
    child indices into the level below, state by state as a (3, nodes)
    array, and the group whose digit each node consumes; the leaves 0 and 1
    are shared.
    """

    def __init__(self, masks: np.ndarray, companions):
        masks = np.asarray(masks)
        comps = np.array(companions, dtype=np.int64).reshape(len(masks), -1)
        k = comps.shape[1]
        if masks.shape[1] != 3**k:
            raise ValueError("mask length must be 3^K")
        ids, n = masks, 2  # node ids one level down; the leaves are 0 and 1
        self.children, self.groups = [], []
        # Level l consumes the (l+1)-th last companion digit of every root.
        # Its nodes are the distinct keys (group, child 0, child 1, child 2),
        # ranked as int64 in lexicographic order, (child 0, child 1) first so
        # that no key exceeds groups times the squared triple count.
        for pos in range(k - 1, -1, -1):
            c = ids.reshape(len(masks), -1, 3)
            pairs, pair = _ranks(c[..., 0] * np.int64(n) + c[..., 1], n * n)
            size = len(pairs) * n
            key = (comps[:, pos, None] * len(pairs) + pair) * n + c[..., 2]
            uniq, inverse = _ranks(key, (comps.max() + 1) * size)
            self.groups.append(uniq // size)
            pair, last = np.divmod(uniq % size, n)
            self.children.append(np.array([*np.divmod(pairs[pair], n), last]))
            ids, n = inverse.astype(np.int32), len(uniq)
        self.roots = ids[:, 0].astype(np.intp)
        self.num_nodes = sum(len(g) for g in self.groups)

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        """v has shape (3, I) or (3, I, B); returns (R,) or (R, B) sums."""
        vals = np.zeros((2,) + v.shape[2:])
        vals[1] = 1.0
        for children, grp in zip(self.children, self.groups):
            terms = vals.take(children, axis=0)
            terms *= v.take(grp, axis=1)
            # A reduce over the leading axis adds (t0 + t1) + t2 in order.
            vals = np.add.reduce(terms, axis=0)
        return vals[self.roots]
