import numpy as np
import pytest

from frameless.topology import full_topology
from frameless.walkgraph import load_or_build_tables
from oracles import (
    APPENDIX_BS_SETS,
    appendix_index,
    closed_form_for_topology,
    closed_form_w_m3,
    compute_w_coop,
)


def test_all_silent_gives_zero_w():
    r = np.ones(7)
    c = np.zeros(7)
    for target in range(1, 8):
        assert closed_form_w_m3(r, c, 1.0, target) == pytest.approx(0.0, abs=1e-12)


def test_zero_rho_gives_one():
    rng = np.random.default_rng(1)
    r = rng.random(7)
    c = rng.random(7) * (1 - r)
    for target in range(1, 8):
        assert closed_form_w_m3(r, c, 0.0, target) == 1.0


def test_bad_target():
    with pytest.raises(ValueError):
        closed_form_w_m3(np.ones(7), np.zeros(7), 1.0, 8)


def test_appendix_index_maps_bitmask_topology():
    topo = full_topology(3, [10] * 7)
    order = appendix_index(topo)
    for pos, gi in enumerate(order):
        assert frozenset(topo.groups[gi].bs_set) == APPENDIX_BS_SETS[pos]


def test_appendix_index_requires_full_m3():
    with pytest.raises(ValueError):
        appendix_index(full_topology(2, [1, 1, 1]))


def test_matches_enumeration_on_random_probes(topo_m3):
    tables = load_or_build_tables(topo_m3)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        r = rng.random(7)
        c = rng.random(7) * (1.0 - r)
        rho = rng.random(7)
        for gi in range(7):
            w_enum = compute_w_coop(topo_m3, tables, r, c, rho, gi)
            w_cf = closed_form_for_topology(topo_m3, r, c, rho, gi)
            worst = max(worst, abs(w_enum - w_cf))
    assert worst < 1e-12


def test_symmetric_probes_make_symmetric_targets_equal():
    # with identical per-group probabilities, all single-BS targets agree,
    # as do all two-BS targets
    r = np.full(7, 0.8)
    c = np.full(7, 0.1)
    singles = [closed_form_w_m3(r, c, 0.9, t) for t in (1, 2, 3)]
    pairs = [closed_form_w_m3(r, c, 0.9, t) for t in (4, 5, 6)]
    assert max(singles) - min(singles) < 1e-15
    assert max(pairs) - min(pairs) < 1e-15
