"""Throughput bounds for cooperative retrieval.

The upper bound is M times the single-BS peak. The lower bound runs the
shared density-evolution loop of `evolution` with its own w kernel, where
the quadratic form p Q^-1 p^t of the per-BS collision-free retrieval
probabilities p and their pairwise joints Q lower-bounds the exact
retrieval probability, so the PLR upper-bounds the exact cooperative PLR
at every frame length, from |S(u_i)|(|S(u_i)|+1)/2 terms per group instead
of 3^(I-1) patterns. Targets that hear at most 3 BSs share one closed form
from 2x2 cofactors; the others take a stacked LAPACK solve.
`evolution.evolve(..., mode="bound")` gives it at one frame length.
"""

from __future__ import annotations

import numpy as np

from .evolution import SINGLE_BS_PEAK, _EngineBase, _padded
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


# A 3-entry leading axis listed as entries 0, 1, 2, 0, 1, so that the
# entries after i in cyclic order are the slices 1:4 and 2:5.
_WRAP = [0, 1, 2, 0, 1]


def _quadratic_form3(p: np.ndarray, d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """p Q^-1 p^t for stacked symmetric 3x3 systems from 2x2 cofactors, with
    the screen, fallback and clamp of `_union_lower_bound`. p, d and o hold
    p, diag(Q) and o = (q12, q02, q01) along a leading axis in `_WRAP` order.
    Padding a smaller system with diagonal 1, off-diagonal 0 and p 0 keeps
    the form (and a padded 2x2 system the bits of its own closed form)."""
    oo = o * o
    a = d[1:4] * d[2:5] - oo[:3]  # diagonal cofactors
    b = o[1:4] * o[2:5] - d[:3] * o[:3]  # cofactor of each o_i
    det = d[0] * a[0] + o[2] * b[2] + o[1] * b[1]
    norms = d[:3] * d[:3] + oo[1:4] + oo[2:5]  # squared row norms
    singular = np.abs(det) <= PIVOT_TOL * np.sqrt(np.multiply.reduce(norms, axis=0))
    pa = p[:3] * p[:3] * a
    pb = 2.0 * p[1:4] * p[2:5] * b
    num = pa[0] + pb[2] + pa[1] + (pa[2] + pb[0] + pb[1])
    if singular.any():
        det = np.where(singular, 1.0, det)
        out = np.where(singular, np.maximum.reduce(p[:3], axis=0), num / det)
    else:
        out = num / det
    return np.minimum(np.maximum(out, 0.0), np.minimum(1.0, p[0] + p[1] + p[2]))


def _union_lower_bound(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p Q^-1 p^t per stacked symmetric system of any size by LAPACK, max_j p_j
    where Q is numerically singular, clamped into [0, min(1, sum_j p_j)]."""
    y, singular = solve_gauss_batched(q, p)
    out = np.where(singular, p.max(axis=1), (p * y).sum(axis=1))
    return np.minimum(np.maximum(out, 0.0), np.minimum(1.0, p.sum(axis=1)))


class BoundEngine(_EngineBase):
    """Density evolution with the matrix lower bound on retrieval."""

    def __init__(self, topology: NetworkTopology):
        super().__init__(topology)
        # Per target, the companions at one BS (diagonal of Q) or at a pair
        # of BSs. Targets that hear at most 3 BSs share one index in
        # `_quadratic_form3` layout, padded with an appended zeros column
        # (`_pad` makes the padded diagonal 1); targets that hear m > 3 BSs
        # keep their m x m lists, grouped by m, for a stacked solve.
        n_groups = topology.num_groups
        zero = [n_groups + 1]
        diag, off, large = [], [], {}
        for i, g in enumerate(topology.groups):
            at_bs = [set(topology.groups_at_bs[j - 1]) - {i} for j in g.bs_set]
            m = len(at_bs)
            if m > 3:
                targets, rows = large.setdefault(m, ([], []))
                targets.append(i)
                rows += [sorted(a | b) for a in at_bs for b in at_bs]
                at_bs, m = [], 0
            diag.append([sorted(a) for a in at_bs] + [zero] * (3 - m))
            off.append([sorted(at_bs[j] | at_bs[k]) if k < m else zero
                        for j, k in ((1, 2), (0, 2), (0, 1))])
        # (member, entry in `_WRAP` order with the diagonal first, target).
        rows = [row[j] for part in (diag, off) for j in _WRAP for row in part]
        self._idx = _padded(rows, n_groups).T.reshape(-1, 10, n_groups)
        self._pad = (self._idx[0, :5, :, None] == zero[0]).astype(float)
        self._large = [
            (m, np.array(t), _padded(rows, n_groups).reshape(len(t), m * m, -1))
            for m, (t, rows) in sorted(large.items())
        ]

    def _w(self, xa, pa, big_r, rho):
        # Rows on the last axis; ext appends a column of ones and of zeros.
        ext = np.empty((big_r.shape[1] + 2, len(big_r)))
        ext[:-2] = big_r.T
        ext[-2], ext[-1] = 1.0, 0.0
        terms = rho.T * np.multiply.reduce(ext.take(self._idx, axis=0), axis=0)
        p = terms[:5]
        w = (1.0 - _quadratic_form3(p, p + self._pad, terms[5:])).T
        for m, targets, idx in self._large:
            q = rho[:, targets, None] * np.multiply.reduce(ext.T[:, idx], axis=-1)
            q = q.reshape(-1, m, m)
            bound = _union_lower_bound(q.diagonal(axis1=1, axis2=2), q)
            w[:, targets] = 1.0 - bound.reshape(len(xa), -1)
        return w
