import os
import tempfile

# Isolate the retrievability-table cache before any frameless import.
os.environ.setdefault(
    "FRAMELESS_CACHE_DIR", tempfile.mkdtemp(prefix="frameless-test-cache-")
)

import hypothesis
import numpy as np
import pytest

from frameless.topology import GroupSpec, NetworkTopology, full_topology

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=25, derandomize=True
)
hypothesis.settings.load_profile("default")

RUN_LONG = os.environ.get("FRAMELESS_RUN_LONG") == "1"

long_running = pytest.mark.skipif(
    not RUN_LONG,
    reason="long-running (hours-scale) check; set FRAMELESS_RUN_LONG=1",
)


@pytest.fixture(scope="session")
def topo_m1():
    return full_topology(1, [10000])


@pytest.fixture(scope="session")
def topo_m2():
    return full_topology(2, [10000, 10000, 10000])


@pytest.fixture(scope="session")
def topo_m3():
    return full_topology(3, [10000] * 7)


@pytest.fixture(scope="session")
def topo_tiny():
    # two users per group, M=2: small enough for exhaustive oracles
    return full_topology(2, [2, 2, 2])


@pytest.fixture(scope="session")
def topo_compare():
    """Five-group 3-BS network used for the baseline comparison."""
    return NetworkTopology(
        num_bs=3,
        groups=(
            GroupSpec(0b001, 1500),
            GroupSpec(0b010, 1500),
            GroupSpec(0b100, 1500),
            GroupSpec(0b011, 1500),
            GroupSpec(0b111, 3000),
        ),
    )


def random_topology(rng: np.random.Generator, max_bs: int = 3, max_users: int = 40):
    """Random valid topology for property tests (possibly with empty groups)."""
    m = int(rng.integers(1, max_bs + 1))
    all_masks = np.arange(1, 2**m)
    k = int(rng.integers(1, len(all_masks) + 1))
    masks = rng.choice(all_masks, size=k, replace=False)
    groups = tuple(
        GroupSpec(int(mask), int(rng.integers(0, max_users + 1))) for mask in masks
    )
    if all(g.num_users == 0 for g in groups):
        groups = groups[:-1] + (GroupSpec(groups[-1].bs_mask, 1 + int(rng.integers(max_users))),)
    return NetworkTopology(num_bs=m, groups=groups)


def edge_topologies():
    """Networks that reach the corner cases of the fused w kernels: a single
    group (no companions), a zero-user group, and a target with an empty
    rescue mask (the all-BS group of the full 3-BS network)."""
    return [
        NetworkTopology(num_bs=1, groups=(GroupSpec(0b1, 5),)),
        NetworkTopology(
            num_bs=2,
            groups=(GroupSpec(0b01, 0), GroupSpec(0b10, 4), GroupSpec(0b11, 3)),
        ),
        full_topology(3, [3] * 7),
    ]
