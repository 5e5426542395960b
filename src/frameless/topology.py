"""Network topology: base stations, user groups, and target degrees.

A network has M base stations and up to 2^M - 1 user groups, each group
defined by the non-empty set of BSs its users can reach. Connectivity is
declared, not derived from geometry. BS sets are encoded as bitmasks with
BS 1 on the least significant bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property


class TopologyError(ValueError):
    """Invalid network topology or target-degree configuration."""


def mask_to_bs_set(mask: int) -> tuple[int, ...]:
    """Bitmask -> ascending tuple of 1-based BS indices."""
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def bs_set_to_mask(bs_set) -> int:
    """Distinct 1-based BS indices -> bitmask."""
    return sum(1 << (j - 1) for j in bs_set)


@dataclass(frozen=True)
class GroupSpec:
    """One user group: its BS connectivity (bitmask) and user count."""

    bs_mask: int
    num_users: int

    @property
    def bs_set(self) -> tuple[int, ...]:
        return mask_to_bs_set(self.bs_mask)

    @property
    def degree(self) -> int:
        """Number of BSs the group can reach, |S(u_i)|."""
        return bin(self.bs_mask).count("1")


@dataclass(frozen=True)
class NetworkTopology:
    """M base stations plus a sequence of user groups.

    Group order is significant (it fixes group indexing everywhere
    downstream) and is preserved through serialization.
    """

    num_bs: int
    groups: tuple[GroupSpec, ...]

    def __post_init__(self):
        if self.num_bs < 1:
            raise TopologyError(f"num_bs must be >= 1, got {self.num_bs}")
        if len(self.groups) > 2**self.num_bs - 1:
            raise TopologyError(
                f"{len(self.groups)} groups exceeds 2^M-1 = {2**self.num_bs - 1}"
            )
        seen = set()
        for k, g in enumerate(self.groups):
            if g.bs_mask == 0:
                raise TopologyError(f"group {k}: empty bs_set")
            if g.bs_mask >= 2**self.num_bs:
                raise TopologyError(
                    f"group {k}: bs_set {mask_to_bs_set(g.bs_mask)} references BS "
                    f"beyond M={self.num_bs}"
                )
            if g.bs_mask in seen:
                raise TopologyError(
                    f"group {k}: duplicate bs_set {mask_to_bs_set(g.bs_mask)}"
                )
            if g.num_users < 0:
                raise TopologyError(f"group {k}: negative num_users {g.num_users}")
            seen.add(g.bs_mask)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_users(self) -> int:
        return sum(g.num_users for g in self.groups)

    @cached_property
    def groups_at_bs(self) -> tuple[tuple[int, ...], ...]:
        """For each BS j (0-based slot j-1), the group indices attached to it."""
        out = []
        for j in range(1, self.num_bs + 1):
            out.append(
                tuple(i for i, g in enumerate(self.groups) if g.bs_mask >> (j - 1) & 1)
            )
        return tuple(out)


def full_topology(num_bs: int, counts) -> NetworkTopology:
    """Topology with all 2^M - 1 non-empty BS subsets, ascending bitmask order.

    `counts[k]` is the user count of the group with bitmask k+1.
    """
    if num_bs < 1:
        raise TopologyError(f"num_bs must be >= 1, got {num_bs}")
    counts = list(counts)
    expected = 2**num_bs - 1
    if len(counts) != expected:
        raise TopologyError(
            f"need {expected} counts for M={num_bs}, got {len(counts)}"
        )
    groups = tuple(
        GroupSpec(bs_mask=k + 1, num_users=int(n)) for k, n in enumerate(counts)
    )
    return NetworkTopology(num_bs=num_bs, groups=groups)


def _field(obj: dict, key: str, where: str, ok, what: str):
    """obj[key] when ok(obj[key]); else a TopologyError naming where and key."""
    if key not in obj:
        raise TopologyError(f"{where}missing field '{key}'")
    if not ok(obj[key]):
        raise TopologyError(f"{where}'{key}' must be {what}, got {obj[key]!r}")
    return obj[key]


def _only(obj: dict, keys, where: str):
    for key in obj:
        if key not in keys:
            raise TopologyError(f"{where}unknown key '{key}'")


def _is_int(v) -> bool:
    return type(v) is int  # JSON true and 2.7 are not integers


def load_topology(text: str) -> NetworkTopology:
    """Parse a JSON topology document.

    Schema::

        {"num_bs": int,
         "groups": [{"bs_set": [int, ...], "num_users": int}, ...]}

    BS indices are 1-based and distinct within a group. Numbers must be
    JSON integers, and no other key is allowed. Raises TopologyError,
    naming the group and the field, on any violation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TopologyError(f"config does not parse as JSON: {e}") from e
    if not isinstance(doc, dict):
        raise TopologyError("topology config must be a JSON object")
    _only(doc, ("num_bs", "groups"), "")
    num_bs = _field(doc, "num_bs", "", _is_int, "an integer")
    raw_groups = _field(doc, "groups", "", lambda v: isinstance(v, list) and v,
                        "a non-empty list")
    groups = []
    for k, rg in enumerate(raw_groups):
        where = f"group {k}: "
        if not isinstance(rg, dict):
            raise TopologyError(f"{where}must be an object, got {rg!r}")
        _only(rg, ("bs_set", "num_users"), where)
        bs_set = _field(
            rg, "bs_set", where,
            lambda v: isinstance(v, list) and v
            and all(_is_int(j) and j >= 1 for j in v) and len(set(v)) == len(v),
            "a non-empty list of distinct BS indices >= 1")
        num_users = _field(rg, "num_users", where, lambda v: _is_int(v) and v >= 0,
                           "an integer >= 0")
        groups.append(GroupSpec(bs_mask=bs_set_to_mask(bs_set), num_users=num_users))
    return NetworkTopology(num_bs=num_bs, groups=tuple(groups))


def serialize_topology(topology: NetworkTopology) -> str:
    """Canonical JSON text; load_topology(serialize_topology(t)) == t."""
    doc = {
        "num_bs": topology.num_bs,
        "groups": [
            {"bs_set": list(g.bs_set), "num_users": g.num_users}
            for g in topology.groups
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def structure_fingerprint(topology: NetworkTopology) -> str:
    """Hash of the connectivity structure only (M and the ordered bs masks).

    Retrievability tables depend only on connectivity, so the cache key
    deliberately excludes user counts.
    """
    import hashlib

    doc = {"num_bs": topology.num_bs, "masks": [g.bs_mask for g in topology.groups]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TargetDegreeVector:
    """Per-group target degrees G_i. Transmission probability is p_i = G_i/N_i."""

    g: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(float(v) for v in self.g))
        for v in self.g:
            if not 0 <= v < math.inf:  # NaN fails too
                raise TopologyError(f"target degree {v} is not in [0, inf)")

    def probabilities(self, topology: NetworkTopology) -> tuple[float, ...]:
        """p_i = G_i / N_i per group; 0 for empty groups. Errors if any p_i > 1."""
        if len(self.g) != topology.num_groups:
            raise TopologyError(
                f"{len(self.g)} target degrees for {topology.num_groups} groups"
            )
        out = []
        for gi, grp in zip(self.g, topology.groups):
            if grp.num_users == 0:
                out.append(0.0)
                continue
            p = gi / grp.num_users
            if p > 1.0:
                raise TopologyError(
                    f"G={gi} exceeds group size {grp.num_users}: p={p} > 1"
                )
            out.append(p)
        return tuple(out)


def default_tie_classes(topology: NetworkTopology) -> tuple[tuple[int, ...], ...]:
    """Partition non-empty groups by |S(u_i)|, ascending degree."""
    by_deg: dict[int, list[int]] = {}
    for i, g in enumerate(topology.groups):
        if g.num_users > 0:
            by_deg.setdefault(g.degree, []).append(i)
    return tuple(tuple(by_deg[d]) for d in sorted(by_deg))
