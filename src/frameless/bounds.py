"""Throughput bounds for cooperative retrieval.

The upper bound is M times the single-BS peak. The lower bound runs the
shared density-evolution loop of `evolution` with its own w kernel: the
exact retrieval probability is replaced with a quadratic-form lower bound
on the union of per-BS collision-free retrieval events, computed from the
event probabilities and their pairwise joints. The resulting PLR
upper-bounds the exact cooperative PLR at every frame length while needing
only |S(u_i)|(|S(u_i)|+1)/2 terms per group instead of the 3^(I-1)
pattern enumeration. `evolution.evolve(..., mode="bound")` gives it at one
frame length.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .evolution import SINGLE_BS_PEAK, _EngineBase, _padded, _with_ones
from .topology import NetworkTopology

PIVOT_TOL = 1e-14


def upper_bound_throughput(num_bs: int) -> float:
    """Cooperative throughput never exceeds M times the single-BS peak."""
    if num_bs < 1:
        raise ValueError(f"need at least one BS, got {num_bs}")
    return num_bs * SINGLE_BS_PEAK


def solve_gauss_batched(q: np.ndarray, p: np.ndarray):
    """Solve q @ y = p for stacked small systems in one LAPACK call.

    Returns (y, singular) where singular flags systems whose determinant
    is below PIVOT_TOL times the product of their row norms (Hadamard's
    bound on it); they are solved against the identity instead, so their
    y rows are unusable and callers must fall back.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    scale = np.linalg.norm(q, axis=2).prod(axis=1)
    singular = np.abs(np.linalg.det(q)) <= PIVOT_TOL * scale
    q = np.where(singular[:, None, None], np.eye(q.shape[1]), q)
    return np.linalg.solve(q, p[:, :, None])[:, :, 0], singular


def _union_lower_bound(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p Q^-1 p^t per stacked system, falling back to max_j p_j when Q is
    numerically singular. Clamped into [0, min(1, sum_j p_j)]."""
    n, m = p.shape
    fallback = p.max(axis=1)
    if m == 1:
        out = p[:, 0]
    elif m == 2:
        det = q[:, 0, 0] * q[:, 1, 1] - q[:, 0, 1] * q[:, 1, 0]
        num = (
            p[:, 0] * p[:, 0] * q[:, 1, 1]
            - 2.0 * p[:, 0] * p[:, 1] * q[:, 0, 1]
            + p[:, 1] * p[:, 1] * q[:, 0, 0]
        )
        singular = np.abs(det) < PIVOT_TOL
        out = np.where(singular, fallback, num / np.where(singular, 1.0, det))
    else:
        y, singular = solve_gauss_batched(q, p)
        out = np.where(singular, fallback, (p * y).sum(axis=1))
    return np.clip(out, 0.0, np.minimum(1.0, p.sum(axis=1)))


class BoundEngine(_EngineBase):
    """Density evolution with the matrix lower bound on retrieval."""

    def __init__(self, topology: NetworkTopology):
        super().__init__(topology)
        # Targets grouped by their BS count m. Per class and target, one
        # member list per Q entry: the companions at each single BS (the
        # diagonal), then at each BS pair (the upper triangle, row-major).
        n_groups = topology.num_groups
        by_degree: dict[int, list[int]] = {}
        for i, g in enumerate(topology.groups):
            by_degree.setdefault(g.degree, []).append(i)
        self._classes = []
        for m, targets in sorted(by_degree.items()):
            lists = []
            for i in targets:
                at_bs = [
                    set(topology.groups_at_bs[j - 1]) - {i}
                    for j in topology.groups[i].bs_set
                ]
                joins = [at_bs[j1] | at_bs[j2] for j1, j2 in combinations(range(m), 2)]
                lists += [sorted(s) for s in at_bs + joins]
            idx = _padded(lists, n_groups)
            idx = idx.reshape(len(targets), len(lists) // len(targets), idx.shape[1])
            # Q entry (j1, j2) -> its list: j on the diagonal, else the pair.
            slot = np.diag(np.arange(m))
            upper = np.triu_indices(m, 1)
            slot[upper] = slot.T[upper] = m + np.arange(len(upper[0]))
            self._classes.append((m, np.array(targets, dtype=np.intp), idx, slot))

    def _w(self, xa, pa, big_r, rho):
        ext = _with_ones(big_r)
        wa = np.empty_like(xa)
        for m, targets, idx, slot in self._classes:
            terms = rho[:, targets, None] * ext[:, idx].prod(axis=-1)
            p = terms[:, :, :m].reshape(-1, m)
            q = terms[:, :, slot].reshape(-1, m, m)
            wa[:, targets] = 1.0 - _union_lower_bound(p, q).reshape(len(xa), -1)
        return wa
