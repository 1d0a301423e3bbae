"""Staged-coordinate Hamiltonian Monte Carlo for nonlinear reservoir SDE inference."""

from .diagnostics import PosteriorSummary, ess, kde, summarize
from .errors import DomainError, NonFiniteError, StagHmcError, ValidationError
from .integrator import IntegratorConfig
from .lattice import MassConfig
from .model import (
    DimensionlessParams,
    InputSignal,
    ObservationModel,
    PhysicalParams,
    TimeSeriesData,
    TruthPath,
    fine_grid,
    generate_observations,
    path_transform,
    simulate_truth,
    to_dimensionless,
)
from .sampler import ChainRecord, HmcConfig, InferenceProblem, run_chain, run_parallel_chains

__version__ = "0.1.0"
