"""Hamiltonian Monte Carlo over the staged path.

Each iteration refreshes all momenta from their Gaussians, runs the
multi-scale trajectory, and applies the Metropolis test on the total
Hamiltonian. Proposals that leave the valid parameter domain (beta <= 0 or
gamma <= 0) or produce non-finite energies are rejected rather than raised.
Chains are reproducible from a single 64-bit seed; parallel chains get
independent streams spawned from it, one process per chain.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import Gradient, PathContext, Potential, _harmonic, _refreshed, _saturating, h_total
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
# %.17g prints the whole-number iteration and accepted columns as integers
CHAIN_CSV_ROW = ",".join(["%.17g"] * (len(CHAIN_COLUMNS) + 1)) + "\n"
CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class InferenceProblem:
    """Everything needed to pose the inference: the observations, the input
    signal they respond to, the noise model, and the lattice refinement j
    (beads per data segment)."""

    data: TimeSeriesData
    signal: InputSignal
    obs: ObservationModel
    j: int

    def __post_init__(self):
        object.__setattr__(self, "j", _integer("j", self.j))
        if self.j < 1:
            raise ValidationError(f"j must be >= 1, got {self.j}")
        try:  # a tabulated input must span the data's times
            self.signal.value(self.data.times)
        except DomainError as exc:
            raise ValidationError(f"input signal does not cover the data: {exc}") from None

    def layout(self) -> LatticeLayout:
        return build_layout(self.data.n_segments, self.j, self.data.horizon)

    def context(self) -> PathContext:
        return PathContext(self.layout(), self.signal, self.data, self.obs)


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
        """JSON-ready mirror of every knob, sufficient to reproduce the run."""
        return {
            "n_mc": self.n_mc,
            "theta0": list(self.theta0),
            "masses": {
                "M": self.masses.M,
                "m_prime": self.masses.m_prime,
                "m_alpha": list(self.masses.m_alpha),
            },
            "integrator": {"d_tau": self.integrator.d_tau, "P": self.integrator.P},
            "seed": self.seed,
            "chains": self.chains,
        }


class IterationStats(NamedTuple):
    accepted: bool
    h_before: float
    h_after: float
    dh: float
    pathology: str | None = None
    # the returned state's potential and force, for the next iteration
    potential: Potential | None = None
    force: Gradient | None = None


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
        cols = np.column_stack(
            [
                np.arange(1, self.n_rows + 1, dtype=float),
                *(getattr(self, name) for name, _ in CHAIN_COLUMNS),
            ]
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CHAIN_CSV_HEADER + "\n")
            # one % of the repeated row template per block of rows; blocks
            # bound the formatting temporaries at about 2 MB
            for a in range(0, self.n_rows, CSV_BLOCK_ROWS):
                block = cols[a : a + CSV_BLOCK_ROWS]
                fh.write((CHAIN_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))

    @classmethod
    def from_csv(cls, path) -> "ChainRecord":
        raw = _read_csv(path, CHAIN_CSV_HEADER)
        columns = {name: raw[:, i].copy() for i, (name, _) in enumerate(CHAIN_COLUMNS, 1)}
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


def sample_momenta(
    masses: MassConfig, layout: LatticeLayout, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (p, pi) from the Gaussians matching the kinetic terms: variance M
    on measurement beads, m_prime/dt on staging beads, m_alpha on parameters.

    One draw of N + 2 standard normals, scaled in place; p and pi are views
    of it. The stream matches a draw of N followed by a draw of 2."""
    z = rng.standard_normal(layout.N + 2)
    z *= _momentum_scale(masses, layout)
    return z[: layout.N], z[layout.N :]


def metropolis_accept(
    h_before: float, h_after: float, rng: np.random.Generator
) -> bool:
    """min(1, exp(h_before - h_after)) acceptance; non-finite energy gaps
    (including NaN) are rejected. Consumes at most one uniform draw."""
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

    ``potential`` and ``force`` are the state's position-only energy and
    the `Gradient` of H' at its positions (the ``potential`` and ``force``
    of the previous iteration's stats); without them, they are computed
    afresh, the force inside the trajectory. Everything else the trajectory
    needs, its free-flow tables included, follows from ``ctx`` and
    ``config``. The proposal's potential and force come from the
    trajectory's last kernel pass, so an iteration given both makes P
    kernel passes and no `h_total`; both its energies match `h_total` bit
    for bit (`energy._refreshed`).
    Returns the next state (positions revert on rejection) and the iteration
    stats, whose ``potential`` and ``force`` are those of the next state: a
    rejection keeps the ones given. Invalid proposals never raise, a
    non-finite start force included; they score an infinite energy and the
    pathology is recorded.

    The input state is never mutated, but it is not copied either: on
    rejection the returned state shares its ``u`` and ``theta`` arrays with
    the input (with fresh momenta), so a caller that keeps the input and
    then mutates the result must copy first.

    Decorated with `energy._saturating`, so the whole iteration, the
    refreshed energy of a carried potential included, saturates instead of
    warning.
    """
    masses, layout = config.masses, ctx.layout
    p, pi = sample_momenta(masses, layout, rng)
    cur = PolymerState._trusted(state.u, state.theta, p, pi)
    pathology = None
    proposal = after = moved = None
    if potential is None:
        before = h_total(cur, ctx, masses)
    else:
        before = _refreshed(potential, cur, masses, layout)
    h_before = before.total
    try:  # the trajectory checks the state size up front
        proposal, moved, (h_n, h_1) = _trajectory(cur, ctx, masses, config.integrator, force)
        beta, gamma = proposal.theta.tolist()
        if not (beta > 0 and gamma > 0):
            pathology = "nonpositive-parameter"
            h_after = float("inf")
        else:
            moved_potential = Potential(_harmonic(proposal, layout), h_n, h_1)
            after = _refreshed(moved_potential, proposal, masses, layout)
            h_after = after.total
            if not math.isfinite(h_after):
                pathology = "nonfinite-energy"
    except (NonFiniteError, DomainError) as exc:
        pathology = type(exc).__name__
        h_after = float("inf")

    accepted = metropolis_accept(h_before, h_after, rng)
    nxt, kept, force = (proposal, after, moved) if accepted else (cur, before, force)
    return nxt, IterationStats(
        accepted=accepted,
        h_before=float(h_before),
        h_after=float(h_after),
        dh=float(h_after - h_before),
        pathology=pathology,
        potential=kept.potential,
        force=force,
    )


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
    beta = np.empty(n)
    gamma = np.empty(n)
    accepted = np.zeros(n, dtype=bool)
    h_before = np.empty(n)
    h_after = np.empty(n)
    dh = np.empty(n)
    pathologies: dict[str, int] = {}

    t0 = time.perf_counter()
    potential = h_total(state, ctx, config.masses).potential
    force = None  # computed by the first trajectory, where it may fail
    for i in range(n):
        state, stats = hmc_iteration(state, ctx, config, rng, potential=potential, force=force)
        potential, force = stats.potential, stats.force
        beta[i], gamma[i] = state.theta.tolist()
        accepted[i] = stats.accepted
        h_before[i] = stats.h_before
        h_after[i] = stats.h_after
        dh[i] = stats.dh
        if stats.pathology is not None:
            pathologies[stats.pathology] = pathologies.get(stats.pathology, 0) + 1
    elapsed = time.perf_counter() - t0

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
    """Run config.chains independent chains, one process per chain.

    Chain c draws from the c-th stream spawned off the master seed, so
    chains=1 reproduces run_chain exactly and adding chains never perturbs
    existing ones. A failing chain does not abort its siblings; failures are
    reported together after all chains finish.
    """
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
        outs = pool.map(_chain_worker, jobs)

    outs.sort(key=lambda t: t[0])
    errors = [err for _, _, err in outs if err is not None]
    if errors:
        raise StagHmcError("; ".join(errors))
    return [rec for _, rec, _ in outs]
