"""Frameless ALOHA over cooperating base stations.

Library for analyzing, simulating, bounding, and optimizing frameless
ALOHA random access when user groups overlap the coverage areas of
multiple base stations that share retrieved packets over a backhaul.
"""

from .topology import (
    GroupSpec,
    NetworkTopology,
    TargetDegreeVector,
    TopologyError,
    full_topology,
    load_topology,
    serialize_topology,
)
from .walkgraph import (
    GuardError,
    build_retrievability_tables,
    load_or_build_tables,
)
from .evolution import (
    SINGLE_BS_PEAK,
    EvolutionResult,
    PlrCurve,
    PeakResult,
    default_t_grid,
    evolve,
    peak_search,
)
from .bounds import upper_bound_throughput
from .simulator import (
    FrameResult,
    MonteCarloResult,
    SimulationSpec,
    monte_carlo,
    run_fixed_frame,
    run_frame,
    run_spatio_temporal,
)
from .optimizer import (
    FitnessResult,
    OptimizationResult,
    OptimizationSpec,
    fitness,
    optimize,
)

__version__ = "0.1.0"
