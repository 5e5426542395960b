"""Walk-graph enumeration: which slot snapshots let a packet be retrieved.

A walk graph is a per-slot snapshot assigning every user group a state in
{0, 1, 2}: no un-retrieved transmission, exactly one, or a collision among
two or more. A group in state s contributes s edges to each BS it can
reach. SIC peels any state-1 group adjacent to a BS whose total incident
edge multiplicity is 1; peeling removes the group's edges at all its BSs;
state-2 groups are never peelable.

One SIC pass over all 3^I patterns, group 0 the most significant digit,
records for every group whether it peels and whether it started as a
singleton at one of its BSs. Its output is a pair of (I, 3^(I-1)) boolean
arrays, (retrievable, singleton): row i is target i's table, the slice of
the pass where the target is in state 1, over its companion patterns
indexed by a mixed-radix base-3 counter over the other groups in
ascending group order, first companion most significant. The pair
depends only on connectivity, never on probabilities, so it is built
once and cached on disk as one bit-packed file per connectivity.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .topology import NetworkTopology, structure_fingerprint

CACHE_ENV = "FRAMELESS_CACHE_DIR"
CACHE_VERSION = 3

# Exact enumeration is refused beyond this many groups.
MAX_GROUPS = 15
# Patterns per SIC chunk. A power of 3, so that a chunk, which starts at a
# multiple of it, holds whole blocks of each digit or lies inside one.
_CHUNK = 3**12


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


def build_retrievability_tables(
    topology: NetworkTopology, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(retrievable, singleton) of every group from one exhaustive SIC pass
    over 3^I patterns, each an (I, 3^(I-1)) boolean array whose row i is
    target i's table."""
    n_groups = topology.num_groups
    if n_groups > MAX_GROUPS:
        raise GuardError(
            f"{n_groups} groups means 3^{n_groups} patterns; "
            f"exact enumeration is guarded at {MAX_GROUPS} groups"
        )
    a = incidence(topology)
    n_pat = 3**n_groups
    retrievable, singleton = np.empty((2, n_groups, n_pat // 3), dtype=bool)

    def run(lo):
        hi = min(lo + _CHUNK, n_pat)
        chunk = sic_on_patterns(pattern_states(n_groups, lo, hi), a)
        # Target i's rows are the patterns whose digit i is 1, in order.
        for i in range(n_groups):
            s = 3 ** (n_groups - 1 - i)  # place value of digit i
            for table, part in zip((retrievable, singleton), chunk):
                if 3 * s <= hi - lo:
                    # Whole blocks of 3s patterns; digit i is 1 in the
                    # middle third of each.
                    table[i, lo // 3 : hi // 3] = part[:, i].reshape(-1, 3, s)[:, 1].ravel()
                elif lo // s % 3 == 1:
                    # Inside the middle third of one block.
                    k0 = lo // (3 * s) * s + lo % s
                    table[i, k0 : k0 + hi - lo] = part[:, i]

    starts = range(0, n_pat, _CHUNK)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)
    return retrievable, singleton


def _table_path(cache_dir, fingerprint: str) -> Path:
    """The network's cache file under cache_dir, else $FRAMELESS_CACHE_DIR,
    else ~/.cache/frameless-aloha."""
    if not cache_dir:
        cache_dir = os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "frameless-aloha"
    return Path(cache_dir) / f"walktab-v{CACHE_VERSION}-{fingerprint}.npz"


def _checksum(retrievable: np.ndarray, singleton: np.ndarray) -> str:
    """SHA-256 of the packed table arrays."""
    return hashlib.sha256(retrievable.tobytes() + singleton.tobytes()).hexdigest()


def save_table(tables, topology: NetworkTopology, cache_dir=None) -> Path:
    """Write the (retrievable, singleton) pair as the network's one cache
    file, bit-packed."""
    fingerprint = structure_fingerprint(topology)
    path = _table_path(cache_dir, fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    retrievable, singleton = (np.packbits(t) for t in tables)
    # A private temp file per writer, so concurrent builders of the same
    # tables never write into each other's file; os.replace is atomic.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez_compressed(
                fh,
                version=np.int64(CACHE_VERSION),
                fingerprint=np.str_(fingerprint),
                retrievable=retrievable,
                singleton=singleton,
                checksum=np.str_(_checksum(retrievable, singleton)),
            )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_table(topology: NetworkTopology, cache_dir=None):
    """The cached (retrievable, singleton) pair, or None on a miss.

    Missing, unreadable (truncated, empty, foreign), other-version and
    mislabelled files (a fingerprint, packed length or payload checksum
    that does not match) all count as a miss.
    """
    fingerprint = structure_fingerprint(topology)
    shape = (topology.num_groups, 3 ** (topology.num_groups - 1))
    n_bits = shape[0] * shape[1]
    try:
        with np.load(_table_path(cache_dir, fingerprint)) as z:
            packed = z["retrievable"], z["singleton"]
            if (
                int(z["version"]) != CACHE_VERSION
                or str(z["fingerprint"]) != fingerprint
                # unpackbits(count=...) would zero-pad a short payload.
                or any(p.shape != (-(-n_bits // 8),) for p in packed)
                or str(z["checksum"]) != _checksum(*packed)
            ):
                return None
            return tuple(
                np.unpackbits(p, count=n_bits).view(bool).reshape(shape) for p in packed
            )
    except (OSError, KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile):
        return None


def load_or_build_tables(
    topology: NetworkTopology, cache_dir=None, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(retrievable, singleton) for every group, disk-cached; a miss builds
    them in one pass and saves them."""
    tables = load_table(topology, cache_dir)
    if tables is None:
        tables = build_retrievability_tables(topology, workers)
        try:
            save_table(tables, topology, cache_dir)
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
