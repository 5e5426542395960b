import json

import pytest

from frameless.topology import (
    GroupSpec,
    NetworkTopology,
    TargetDegreeVector,
    TopologyError,
    default_tie_classes,
    full_topology,
    load_topology,
    serialize_topology,
    structure_fingerprint,
)

TWO_BS = """
{"num_bs": 2,
 "groups": [
   {"bs_set": [1], "num_users": 10000},
   {"bs_set": [2], "num_users": 10000},
   {"bs_set": [1, 2], "num_users": 10000}]}
"""


def test_load_two_bs_symmetric():
    topo = load_topology(TWO_BS)
    assert topo.num_bs == 2
    assert topo.num_groups == 3
    assert topo.groups[2].bs_set == (1, 2)
    assert topo.num_users == 30000


def test_load_single_group():
    topo = load_topology('{"num_bs": 1, "groups": [{"bs_set": [1], "num_users": 10000}]}')
    assert topo.num_groups == 1


def test_empty_bs_set_rejected():
    with pytest.raises(TopologyError):
        load_topology('{"num_bs": 1, "groups": [{"bs_set": [], "num_users": 5}]}')


def test_duplicate_bs_set_rejected():
    with pytest.raises(TopologyError, match="duplicate"):
        NetworkTopology(2, (GroupSpec(1, 5), GroupSpec(1, 6)))


def test_too_many_groups_rejected():
    with pytest.raises(TopologyError):
        NetworkTopology(1, (GroupSpec(1, 5), GroupSpec(2, 6)))


def test_bs_beyond_m_rejected():
    with pytest.raises(TopologyError, match="beyond"):
        NetworkTopology(1, (GroupSpec(2, 5),))


def test_parse_failure():
    with pytest.raises(TopologyError, match="JSON"):
        load_topology("num_bs: 2")


def test_full_topology_m2():
    topo = full_topology(2, (10000, 10000, 10000))
    assert [g.bs_set for g in topo.groups] == [(1,), (2,), (1, 2)]


def test_full_topology_m1():
    topo = full_topology(1, (10000,))
    assert topo.num_groups == 1


def test_full_topology_m3_ordering():
    topo = full_topology(3, [10000] * 7)
    assert topo.num_groups == 7
    assert topo.groups[6].bs_set == (1, 2, 3)
    assert [g.bs_mask for g in topo.groups] == list(range(1, 8))


def test_full_topology_length_mismatch():
    with pytest.raises(TopologyError):
        full_topology(2, (1, 2))


def test_roundtrip_identity():
    topo = load_topology(TWO_BS)
    text = serialize_topology(topo)
    again = load_topology(text)
    assert again == topo
    assert serialize_topology(again) == text


def test_membership_consistency():
    topo = full_topology(3, [10] * 7)
    for j in range(1, topo.num_bs + 1):
        for i in topo.groups_at_bs[j - 1]:
            assert j in topo.groups[i].bs_set
    for i, g in enumerate(topo.groups):
        for j in g.bs_set:
            assert i in topo.groups_at_bs[j - 1]


def test_fingerprint_ignores_counts():
    a = full_topology(2, (1, 2, 3))
    b = full_topology(2, (7, 8, 9))
    assert structure_fingerprint(a) == structure_fingerprint(b)
    c = full_topology(2, (1, 2, 3))
    assert structure_fingerprint(a) == structure_fingerprint(c)


def test_probabilities():
    topo = full_topology(2, (10, 0, 20))
    p = TargetDegreeVector((5.0, 0.0, 5.0)).probabilities(topo)
    assert p == (0.5, 0.0, 0.25)


def test_probability_above_one_rejected():
    topo = full_topology(1, (10,))
    with pytest.raises(TopologyError, match="p="):
        TargetDegreeVector((11.0,)).probabilities(topo)


def test_negative_degree_rejected():
    with pytest.raises(TopologyError):
        TargetDegreeVector((-0.1,))


@pytest.mark.parametrize("g", [float("nan"), float("inf")])
def test_non_finite_degree_rejected(g):
    with pytest.raises(TopologyError):
        TargetDegreeVector((g,))


def test_default_tie_classes_by_degree():
    topo = full_topology(3, [10] * 7)
    classes = default_tie_classes(topo)
    assert classes == ((0, 1, 3), (2, 4, 5), (6,))


def test_default_tie_classes_skip_empty():
    topo = full_topology(2, (10, 10, 0))
    assert default_tie_classes(topo) == ((0, 1),)


def test_config_hash_roundtrips_floats():
    # serialized config reloads to identical structures, bit for bit
    topo = full_topology(2, (123, 456, 789))
    doc = json.loads(serialize_topology(topo))
    assert doc["groups"][2] == {"bs_set": [1, 2], "num_users": 789}
