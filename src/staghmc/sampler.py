"""Hamiltonian Monte Carlo over the staged path.

Each iteration refreshes all momenta from their Gaussians, runs the
multi-scale trajectory, and applies the Metropolis test on the total
Hamiltonian. Proposals that leave the valid parameter domain (beta <= 0 or
gamma <= 0) or produce non-finite energies are rejected rather than raised.
Chains are reproducible from a single 64-bit seed; parallel chains get
independent streams spawned from it and run on a pool of min(chains, CPUs
in the affinity mask) processes.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .energy import (
    Gradient,
    PathContext,
    Potential,
    _end_energy,
    _exit_force,
    _load_drawn,
    _proposal,
    _saturating,
    _start_energy,
    h_total,
)
from .errors import (
    DomainError,
    NonFiniteError,
    StagHmcError,
    ValidationError,
    _integer,
    _positive_pair,
)
from .integrator import (  # noqa: F401 -- trotter_propagate stays bound here for tracers
    IntegratorConfig,
    _trajectory,
    trotter_propagate,
)
from .lattice import (
    LatticeLayout,
    MassConfig,
    PolymerState,
    build_layout,
    initial_state,
)
from .model import (
    DimensionlessParams,
    InputSignal,
    ObservationModel,
    TimeSeriesData,
    _read_csv,
    _write_csv,
)

__all__ = [
    "ChainRecord",
    "HmcConfig",
    "InferenceProblem",
    "IterationStats",
    "hmc_iteration",
    "metropolis_accept",
    "run_chain",
    "run_parallel_chains",
    "sample_momenta",
]

# (ChainRecord field, CSV header) of each per-iteration column, in file
# order; the CSV's first column is the 1-based iteration number
CHAIN_COLUMNS = (
    ("beta", "beta"), ("gamma", "gamma"), ("K", "K"), ("accepted", "accepted"),
    ("h_before", "H_before"), ("h_after", "H_after"), ("dh", "dH"),
)
CHAIN_CSV_HEADER = ",".join(["iter", *(header for _, header in CHAIN_COLUMNS)])


@dataclass(frozen=True)
class InferenceProblem:
    """Everything needed to pose the inference: the observations, the input
    signal they respond to, the noise model, and the lattice refinement j
    (beads per data segment)."""

    data: TimeSeriesData
    signal: InputSignal
    obs: ObservationModel
    j: int
    # built once: every context of the problem shares it
    _layout: LatticeLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "j", _integer("j", self.j))
        if self.j < 1:
            raise ValidationError(f"j must be >= 1, got {self.j}")
        try:  # a tabulated input must span the data's times
            self.signal.value(self.data.times)
        except DomainError as exc:
            raise ValidationError(f"input signal does not cover the data: {exc}") from None
        layout = build_layout(self.data.n_segments, self.j, self.data.horizon)
        object.__setattr__(self, "_layout", layout)

    def layout(self) -> LatticeLayout:
        return self._layout

    def context(self) -> PathContext:
        return PathContext(self._layout, self.signal, self.data, self.obs)


@dataclass(frozen=True)
class HmcConfig:
    """Sampler settings. theta0 is the dimensionless start (beta, gamma)."""

    n_mc: int
    theta0: tuple[float, float]
    masses: MassConfig
    integrator: IntegratorConfig
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        for name in ("n_mc", "chains", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_mc < 1:
            raise ValidationError(f"n_mc must be >= 1, got {self.n_mc}")
        if self.chains < 1:
            raise ValidationError(f"chains must be >= 1, got {self.chains}")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "theta0", _positive_pair("theta0", self.theta0))

    def echo(self) -> dict:
        """JSON-ready mirror of every knob, sufficient to reproduce the run:
        ``dataclasses.asdict``, so the pairs theta0 and m_alpha are tuples."""
        return asdict(self)


class IterationStats(NamedTuple):
    accepted: bool
    h_before: float
    h_after: float
    dh: float
    pathology: str | None = None
    # the returned state's potential and force, for the next iteration
    potential: Potential | None = None
    force: Gradient | None = None
    # the returned state's (beta, gamma), as Python floats
    theta: tuple[float, float] | None = None


@dataclass
class ChainRecord:
    """Per-iteration trace of one chain plus run metadata."""

    beta: np.ndarray
    gamma: np.ndarray
    K: np.ndarray
    accepted: np.ndarray
    h_before: np.ndarray
    h_after: np.ndarray
    dh: np.ndarray
    meta: dict

    @property
    def n_rows(self) -> int:
        return self.beta.size

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))

    def to_csv(self, path) -> None:
        cols = [np.arange(1, self.n_rows + 1, dtype=float)]
        cols += [getattr(self, name) for name, _ in CHAIN_COLUMNS]
        _write_csv(path, CHAIN_CSV_HEADER, np.column_stack(cols))

    @classmethod
    def from_csv(cls, path) -> "ChainRecord":
        """Read a chain CSV. beta, gamma and K must be finite; H_after and
        dH may hold inf or NaN, the record of a rejected proposal."""
        raw = _read_csv(path, CHAIN_CSV_HEADER)
        columns = {name: raw[:, i].copy() for i, (name, _) in enumerate(CHAIN_COLUMNS, 1)}
        for name in ("beta", "gamma", "K"):
            if not np.all(np.isfinite(columns[name])):
                raise ValidationError(f"non-finite {name} in chain file {path}")
        columns["accepted"] = columns["accepted"] != 0.0
        return cls(**columns, meta={"source": str(path)})


@functools.lru_cache(maxsize=16)
def _momentum_scale(masses: MassConfig, layout: LatticeLayout) -> np.ndarray:
    """Read-only (N + 2) standard deviations of (p, pi): sqrt(m_prime/dt) at
    staging beads, sqrt(M) at measurement beads, then sqrt(m_alpha)."""
    scale = np.empty(layout.N + 2)
    scale[: layout.N] = np.sqrt(masses.m_prime / layout.dt)
    scale[: layout.N : layout.j] = np.sqrt(masses.M)
    scale[layout.N :] = np.sqrt(masses.m_alpha)
    scale.setflags(write=False)
    return scale


# (masses, layout, scale) of the last draw, matched by identity (both are
# frozen, and the entry keeps them alive), so that a chain's draws hash no
# dataclass; a miss looks the table up in `_momentum_scale`. One tuple,
# replaced whole, so threads always read a consistent entry
_last_scale = (None, None, None)


def sample_momenta(
    masses: MassConfig,
    layout: LatticeLayout,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (p, pi) from the Gaussians matching the kinetic terms: variance M
    on measurement beads, m_prime/dt on staging beads, m_alpha on parameters.

    One draw of N + 2 standard normals, scaled in place; p and pi are views
    of it. The stream matches a draw of N followed by a draw of 2. With
    ``out``, a float64 array of N + 2 entries, the normals are drawn into
    it, the same values from the same stream; `hmc_iteration` draws so into
    its workspace's row [p; pi]."""
    global _last_scale
    last_masses, last_layout, scale = _last_scale
    if last_masses is not masses or last_layout is not layout:
        scale = _momentum_scale(masses, layout)
        _last_scale = (masses, layout, scale)
    # a tuple size: an int one costs NumPy a caught TypeError beside ``out``
    z = rng.standard_normal((layout.N + 2,), out=out)
    z *= scale
    return z[: layout.N], z[layout.N :]


def metropolis_accept(
    h_before: float, h_after: float, rng: np.random.Generator
) -> bool:
    """min(1, exp(h_before - h_after)) acceptance. The gap dh = h_after -
    h_before decides without a draw where it can: dh <= 0 is accepted, -inf
    included (a start of infinite energy has zero probability, so it is
    left), and a NaN or +inf gap is rejected. Any other gap consumes one
    uniform draw."""
    dh = float(h_after) - float(h_before)
    if math.isnan(dh):
        return False
    if dh <= 0:
        return True
    if math.isinf(dh):
        return False
    return float(rng.random()) < math.exp(-dh)  # -dh < 0: cannot overflow


@_saturating
def hmc_iteration(
    state: PolymerState,
    ctx: PathContext,
    config: HmcConfig,
    rng: np.random.Generator,
    potential: Potential | None = None,
    force: Gradient | None = None,
) -> tuple[PolymerState, IterationStats]:
    """One momentum-refresh / trajectory / Metropolis cycle.

    The fresh momenta are drawn by `sample_momenta` straight into the
    context's workspace, where the trajectory runs. ``potential`` and
    ``force`` are the state's position-only energy and the `Gradient` of H'
    at its positions (the ``potential`` and ``force`` of the previous
    iteration's stats); without them, they are computed afresh, the
    potential by `h_total` and the force inside the trajectory.
    Everything else the trajectory needs, its free-flow tables included,
    follows from ``ctx`` and ``config``. The proposal's potential and force
    come from the trajectory's last kernel pass, so an iteration given both
    makes P kernel passes and no `h_total`. Both ends are scored in the
    context's workspace, where the trajectory runs, by the scorer of
    `h_total` (`energy._start_energy` and `energy._end_energy`); the
    proposal and its force are copied out of the workspace only on
    acceptance.
    Returns the next state and the iteration stats, whose ``potential``,
    ``force`` and ``theta`` are those of the next state. An accepted
    proposal is a new state that shares no array with the input or the
    workspace; a rejection returns the input state object itself (its
    momenta are the input's, not the discarded draw) and keeps the
    ``potential`` and ``force`` given. Invalid proposals never raise, a
    non-finite start force included; they score an infinite energy and the
    pathology is recorded.

    The input state is never mutated, but it is not copied either: on
    rejection it is returned as is, so a caller that keeps the input and
    then mutates the result must copy first.

    Decorated with `energy._saturating`, so the whole iteration, the
    energies of both ends included, saturates instead of warning.
    """
    masses = config.masses
    if potential is None:
        potential = h_total(state, ctx, masses).potential
    sample_momenta(masses, ctx.layout, rng, out=ctx._scratch.momenta)
    start = _load_drawn(state, ctx)
    h_before = _start_energy(potential, ctx, masses, start[2], start[3])
    pathology = None
    try:
        end, g_theta, (h_n, h_1) = _trajectory(ctx, masses, config.integrator, force, start)
        beta, gamma, pa, pg = end
        if not (beta > 0 and gamma > 0):
            pathology = "nonpositive-parameter"
            h_after = float("inf")
        else:
            *_, h_after, moved = _end_energy(h_n, h_1, ctx, masses, pa, pg)
            if not math.isfinite(h_after):
                pathology = "nonfinite-energy"
    except (NonFiniteError, DomainError) as exc:
        pathology = type(exc).__name__
        h_after = float("inf")

    accepted = metropolis_accept(h_before, h_after, rng)
    if accepted:  # only now copy the proposal and its force out of the workspace
        state, potential, theta = _proposal(ctx, end), moved, (beta, gamma)
        force = _exit_force(ctx, g_theta)
    else:
        theta = (start[0], start[1])
    stats = IterationStats(
        accepted, h_before, h_after, h_after - h_before, pathology, potential, force, theta
    )
    return state, stats


def _run_seeded(
    problem: InferenceProblem,
    config: HmcConfig,
    chain_index: int,
    seed_seq: np.random.SeedSequence,
) -> ChainRecord:
    ctx = problem.context()
    layout = ctx.layout
    theta0 = DimensionlessParams(*config.theta0)
    state = initial_state(problem.data, problem.signal, theta0, layout)
    rng = np.random.default_rng(seed_seq)

    n = config.n_mc
    # one column (beta, gamma, accepted, h_before, h_after, dh) per
    # iteration, stored from Python floats in one call
    table = np.empty((6, n))
    pathologies: dict[str, int] = {}

    t0 = time.perf_counter()
    potential = force = None  # the first iteration computes both
    for i in range(n):
        state, stats = hmc_iteration(state, ctx, config, rng, potential=potential, force=force)
        potential, force = stats.potential, stats.force
        table[:, i] = (*stats.theta, stats.accepted, stats.h_before, stats.h_after, stats.dh)
        if stats.pathology is not None:
            pathologies[stats.pathology] = pathologies.get(stats.pathology, 0) + 1
    elapsed = time.perf_counter() - t0

    beta, gamma, accepted, h_before, h_after, dh = table
    accepted = accepted != 0.0
    K = layout.T * gamma / beta**2
    meta = {
        "config": config.echo(),
        "data_digest": problem.data.digest(),
        "sigma": problem.obs.sigma,
        "j": problem.j,
        "T": layout.T,
        "chain_index": chain_index,
        "spawn_key": [int(k) for k in seed_seq.spawn_key],
        "wall_clock_s": elapsed,
        "acceptance_rate": float(np.mean(accepted)),
        "pathologies": pathologies,
    }
    return ChainRecord(
        beta=beta,
        gamma=gamma,
        K=K,
        accepted=accepted,
        h_before=h_before,
        h_after=h_after,
        dh=dh,
        meta=meta,
    )


def run_chain(problem: InferenceProblem, config: HmcConfig) -> ChainRecord:
    """Run a single chain for n_mc iterations from the data-pinned start."""
    child = np.random.SeedSequence(config.seed).spawn(1)[0]
    return _run_seeded(problem, config, 0, child)


def _chain_worker(args):
    problem, config, index, seed_seq = args
    try:
        return index, _run_seeded(problem, config, index, seed_seq), None
    except Exception as exc:  # isolate failures so sibling chains finish
        return index, None, f"chain {index}: {type(exc).__name__}: {exc}"


def run_parallel_chains(
    problem: InferenceProblem, config: HmcConfig, processes: int | None = None
) -> list[ChainRecord]:
    """Run config.chains independent chains on a pool of ``processes``
    worker processes (an integer >= 1, checked before any pool is made),
    by default min(config.chains, the CPUs in this process's affinity
    mask); a single chain runs in this process.

    Chain c draws from the c-th stream spawned off the master seed, so
    chains=1 reproduces run_chain exactly and adding chains never perturbs
    existing ones. A failing chain does not abort its siblings; failures are
    reported together after all chains finish.
    """
    if processes is not None:
        processes = _integer("processes", processes)
        if processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    jobs = [(problem, config, c, seeds[c]) for c in range(config.chains)]
    if config.chains == 1:
        _, record, err = _chain_worker(jobs[0])
        if err is not None:
            raise StagHmcError(err)
        return [record]

    if processes is None:
        # the CPUs this process may run on, where the platform can say
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        processes = min(config.chains, cpus)
    try:
        mp_ctx = multiprocessing.get_context("fork")
    except ValueError:
        mp_ctx = multiprocessing.get_context()
    with mp_ctx.Pool(processes=processes) as pool:
        outs = pool.map(_chain_worker, jobs)  # in job order

    errors = [err for _, _, err in outs if err is not None]
    if errors:
        raise StagHmcError("; ".join(errors))
    return [rec for _, rec, _ in outs]
