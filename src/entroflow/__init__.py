"""Numerical experiments on heat-flow direction in correlated quantum
systems: entropy inequalities, entangled states with thermal marginals,
heat-exchange unitaries, Clausius cycles, and a dilute-gas collision
ensemble."""

__version__ = "0.1.0"

from .errors import (
    BadCycle,
    ConfigError,
    DimensionMismatch,
    EntroflowError,
    InvalidSpec,
    InvalidState,
    NoConvergence,
    NonFiniteResult,
    NotDegenerate,
    OverlappingPlanes,
)
from .exchange import (
    CaseSpec,
    ClausiusStroke,
    clausius_cycle,
    givens_planes,
    run_exchange,
)
from .gas import (
    CollisionSpec,
    ensemble_heat,
    x_parameter,
)
from .inequalities import (
    AncillaChannel,
    GibbsEvolutionReport,
    SlackReport,
    average_correlation_bound,
    check_ssa,
    gibbs_evolution_identity,
)
from .qmath import (
    dagger,
    kron,
    partial_trace,
    substream,
)
from .states import (
    DensityOperator,
    EntangledThermalSpec,
    HamiltonianSpec,
    gibbs_divergence,
    gibbs_populations,
    subsystem_entropy,
    von_neumann_entropy,
)
