"""Hamiltonian Monte Carlo over the staged path.

Each iteration refreshes all momenta from their Gaussians, runs the
multi-scale trajectory, and applies the Metropolis test on the total
Hamiltonian. Proposals that leave the valid parameter domain (beta <= 0 or
gamma <= 0) or produce non-finite energies are rejected rather than raised.
A chain (`Chain`) stays resident between iterations: its beads and their
force, taken when it is built, live in one workspace of the problem, the
next trajectory runs in a second, and an accepted proposal swaps the two,
so no iteration copies a state out. A chain also holds what its settings
fix, looked up once when it is built: the free flow's `OscillatorBank`,
which is the step (its masses, d_tau, flow tables, kick steps and
momentum scale), and the number P of steps. So an iteration looks nothing
up by settings, and the module keeps no mutable state. Chains are
reproducible from a single 64-bit seed. One runner, `run_parallel_chains`,
spawns each chain its own stream from it and reports every failed chain
in one StagHmcError; `run_chain` is this runner for one chain. The chains
run on min(chains, CPUs in the affinity mask) workers, so a caller who
wants fewer narrows the mask; one worker is this process, and worker
processes are forked only for two or more, where the platform has
``os.fork`` (elsewhere every chain runs in this process): `_dispatch`
hands each one chain at a time over a plain pipe, pickled, and receives
every chain on the calling thread. No part of the package imports
`multiprocessing`; only `_dispatch` imports `select`, and only a failed
chain imports `traceback`, so a process loads `traceback` only when a
chain fails.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import sys
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import _percentiles
from .energy import (  # noqa: F401 -- h_total stays bound here for tracers
    InferenceProblem,
    _end_energy,
    _hprime,
    _load,
    _saturating,
    h_total,
)
from .errors import (
    DomainError,
    NonFiniteError,
    StagHmcError,
    ValidationError,
    _count,
    _frozen,
    _positive_pair,
    _rule,
    _seed,
    _sized,
)
from .integrator import (  # noqa: F401 -- trotter_propagate stays bound here for tracers
    IntegratorConfig,
    OscillatorBank,
    _trajectory,
    trotter_propagate,
)
from .lattice import MassConfig, PolymerState, initial_state
from .model import DimensionlessParams, _read_csv, _write_csv

__all__ = [
    "Chain",
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


@_frozen
class HmcConfig:
    """Sampler settings. theta0 is the dimensionless start (beta, gamma)."""

    n_mc: int = _rule(_count)
    theta0: tuple[float, float] = _rule(_positive_pair)
    masses: MassConfig
    integrator: IntegratorConfig
    seed: int = _rule(_seed, default=0)
    chains: int = _rule(_count, default=1)


class IterationStats(NamedTuple):
    accepted: bool
    h_before: float
    h_after: float
    dh: float
    pathology: str | None = None


@dataclass(eq=False)
class ChainRecord:
    """Per-iteration trace of one chain plus run metadata; a mutable record,
    equal only to itself."""

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
        """Read a chain CSV. The iteration numbers must rise by 1 from row
        to row, from a whole number >= 1 (a file cut from the front reads,
        one chain pasted under another does not); beta, gamma and K must be
        positive and finite, and accepted 0 or 1, as the sampler records
        them. The first row that breaks this is a ValidationError naming
        the file and its line. H_after and dH may hold inf or NaN, the
        record of a rejected proposal."""
        raw, lines = _read_csv(path, CHAIN_CSV_HEADER)
        iters = raw[:, 0]
        columns = {name: raw[:, i].copy() for i, (name, _) in enumerate(CHAIN_COLUMNS, 1)}
        whole = 1 <= iters[0] < np.inf and iters[0] % 1 == 0
        bad = {"iter": np.append(not whole, iters[1:] != iters[:-1] + 1)}
        for name in ("beta", "gamma", "K"):
            bad[name] = ~((columns[name] > 0.0) & (columns[name] < np.inf))
        bad["accepted"] = (columns["accepted"] != 0.0) & (columns["accepted"] != 1.0)
        rows = np.flatnonzero(np.logical_or.reduce(list(bad.values())))
        if rows.size:
            row = rows[0]
            name = next(name for name in bad if bad[name][row])
            if name == "iter":
                rule = f"{int(iters[row - 1]) + 1}" if row else "a whole number >= 1"
                value = iters[row]
            else:
                rule = "0 or 1" if name == "accepted" else "positive and finite"
                value = columns[name][row]
            raise ValidationError(
                f"{path}, line {lines[row]}: {name} must be {rule}, got {float(value)!r}"
            )
        columns["accepted"] = columns["accepted"] != 0.0
        return cls(**columns, meta={"source": str(path)})


def sample_momenta(
    scale: np.ndarray, rng: np.random.Generator, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (p, pi) from the Gaussians matching the kinetic terms: ``scale``
    holds their N + 2 standard deviations, `OscillatorBank.scale` of the
    chain's masses and layout (sqrt(M) on measurement beads,
    sqrt(m_prime/dt) on staging beads, sqrt(m_alpha) on the parameters).

    One draw of N + 2 standard normals, scaled in place; p and pi are views
    of it. The stream matches a draw of N followed by a draw of 2. With
    ``out``, a float64 array of N + 2 entries, the normals are drawn into
    it, the same values from the same stream; `hmc_iteration` draws so into
    the row [p; pi] of the workspace where the trajectory runs."""
    # a tuple size: an int one costs NumPy a caught TypeError beside ``out``
    z = rng.standard_normal(scale.shape, out=out)
    z *= scale
    return z[:-2], z[-2:]


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


class Chain:
    """One chain's resident state over an `InferenceProblem`, between two
    iterations.

    ``cur`` and ``work`` are two workspaces (`PathContext`) of the problem.
    ``cur`` holds the current beads in its kernel row u and the u part of
    their force in its kernel row g_u; the next trajectory runs in
    ``work``. An accepted proposal swaps the two, so no iteration copies a
    state or a force out. ``theta`` is the current (beta, gamma),
    ``potential`` the pair (h_n, h_1) of its kernel pass (h_N, the staged
    energy, is formed afresh whenever the state is scored), and ``g_theta`` the
    theta part of the force, all Python floats. What the chain's settings
    fix is looked up once, when the chain is built: ``bank``, the shared
    `OscillatorBank` of its masses and step, which carries both
    (``bank.masses``, ``bank.d_tau``) beside the free flow's tables, the
    kick steps and the momentum scale ``bank.scale`` that `sample_momenta`
    draws by; and ``P``, the int number of steps per trajectory. The
    config itself is not kept.

    Built from a `PolymerState`, which it copies in and takes the
    potential and the force of with one kernel pass, so a chain is complete
    from the start: a start with beta <= 0 or gamma <= 0, where every
    proposal would be rejected, raises DomainError before that pass, and
    one whose force is not finite NonFiniteError. The state is not kept;
    `state` returns a copy of the current one, and a chain built
    from that copy continues as this one does. That rebuild is the one way
    to copy a chain: `pickle`, `copy.copy` and `copy.deepcopy` raise
    TypeError. Decorated with `energy._saturating`, as `hmc_iteration` is.
    """

    __slots__ = ("bank", "P", "cur", "work", "theta", "potential", "g_theta")

    @_saturating
    def __init__(self, problem: InferenceProblem, config: HmcConfig, state: PolymerState):
        integ = config.integrator
        self.bank = OscillatorBank.build(problem.layout, config.masses, integ.d_tau)
        self.P = integ.P
        self.cur, self.work = problem.context(), problem.context()
        # checks the state's size and loads its beads into ``cur``
        self.theta = tuple(_load(state, self.cur)[:2])
        if self.theta[0] <= 0.0 or self.theta[1] <= 0.0:
            raise DomainError(f"a chain must start at beta > 0 and gamma > 0, not {self.theta}")
        start = _hprime(*self.theta, self.cur, True)
        self.potential, self.g_theta = start[:2], start[3:]

    def state(self) -> PolymerState:
        """A copy of the current beads and parameters, with zero momenta:
        every iteration draws its own."""
        u = self.cur.rows.u.copy()
        return PolymerState(u, np.array(self.theta), np.zeros(u.size), np.zeros(2))

    def __reduce__(self):
        # a workspace unpickles empty (`PathContext`), so a copy would lose its beads
        raise TypeError(
            "a Chain cannot be pickled or copied; rebuild it with "
            "Chain(problem, config, chain.state())"
        )


@_saturating
def hmc_iteration(chain: Chain, rng: np.random.Generator) -> tuple[Chain, IterationStats]:
    """One momentum-refresh / trajectory / Metropolis cycle of ``chain``.

    The fresh momenta are drawn by `sample_momenta`, at the bank's
    ``scale``, straight into its ``work`` workspace, and the current beads
    are copied in beside them. The trajectory runs there from the carried
    force, ``chain.P`` steps of ``chain.bank``; it makes P kernel passes,
    of which the last also forms the proposal's potential. Both ends are
    scored with the bank's masses by `energy._end_energy`, the scorer of
    `h_total`: the start from the carried (h_n, h_1), whose h_N it forms
    again from the beads just copied in, and the end from the trajectory's
    last pass; so no iteration calls `h_total`. On acceptance the
    workspaces swap, and the proposal, its (h_n, h_1) and its force are the
    chain's; a rejection leaves the chain as it was.

    Returns the chain itself and the iteration stats. Invalid proposals
    never raise: the pathology is recorded, and an iteration with a
    pathology is rejected without a draw. That includes a proposal whose
    energy overflows to -inf, which `metropolis_accept` alone would take; a
    start of infinite energy with a finite proposal is accepted.

    Decorated with `energy._saturating`, so the whole iteration, the
    energies of both ends included, saturates instead of warning.
    """
    cur, work, masses = chain.cur, chain.work, chain.bank.masses
    sample_momenta(chain.bank.scale, rng, out=work.momenta)
    work.rows.u[...] = cur.rows.u
    pa, pg = work.pi_slots.tolist()
    h_before = _end_energy(*chain.potential, work, masses, pa, pg)[3]
    force = (cur.rows.g_u, *chain.g_theta)
    pathology = None
    try:
        end, g_theta, (h_n, h_1) = _trajectory(
            work, chain.bank, chain.P, (*chain.theta, pa, pg), force
        )
        beta, gamma, pa, pg = end
        if not (beta > 0 and gamma > 0):
            pathology = "nonpositive-parameter"
            h_after = float("inf")
        else:
            h_after = _end_energy(h_n, h_1, work, masses, pa, pg)[3]
            if not math.isfinite(h_after):
                pathology = "nonfinite-energy"
    except (NonFiniteError, DomainError) as exc:
        pathology = type(exc).__name__
        h_after = float("inf")

    accepted = pathology is None and metropolis_accept(h_before, h_after, rng)
    if accepted:
        chain.cur, chain.work = work, cur
        chain.theta, chain.potential, chain.g_theta = (beta, gamma), (h_n, h_1), g_theta
    return chain, IterationStats(accepted, h_before, h_after, h_after - h_before, pathology)


def _start_chain(problem: InferenceProblem, config: HmcConfig) -> Chain:
    """A chain at the data-pinned start of ``config``, where every chain of
    a run starts."""
    theta0 = DimensionlessParams(*config.theta0)
    start = initial_state(problem.data, problem.signal, theta0, problem.layout)
    return Chain(problem, config, start)


def _run_seeded(
    problem: InferenceProblem,
    config: HmcConfig,
    chain_index: int,
    seed_seq: np.random.SeedSequence,
) -> ChainRecord:
    layout = problem.layout
    chain = _start_chain(problem, config)
    rng = np.random.default_rng(seed_seq)

    n = config.n_mc
    # one column (beta, gamma, accepted, h_before, h_after, dh) per
    # iteration, stored from Python floats in one call; one NumPy cannot
    # allocate is refused naming n_mc
    with _sized(n_mc=n):
        table = np.empty((6, n))
    pathologies: dict[str, int] = {}

    t0 = time.perf_counter()
    for i in range(n):
        chain, stats = hmc_iteration(chain, rng)
        table[:, i] = (*chain.theta, stats.accepted, stats.h_before, stats.h_after, stats.dh)
        if stats.pathology is not None:
            pathologies[stats.pathology] = pathologies.get(stats.pathology, 0) + 1
    elapsed = time.perf_counter() - t0

    beta, gamma, accepted, h_before, h_after, dh = table
    accepted = accepted != 0.0
    K = layout.T * gamma / beta**2
    # how well the step fits the chain's N beads: None if no dH is finite
    abs_dh = np.abs(dh[np.isfinite(dh)])
    meta = {
        "config": asdict(config),
        "data_digest": problem.data.digest(),
        "sigma": problem.obs.sigma,
        "j": problem.j,
        "N": layout.N,
        "T": layout.T,
        "chain_index": chain_index,
        "spawn_key": [int(k) for k in seed_seq.spawn_key],
        "wall_clock_s": elapsed,
        "acceptance_rate": float(np.mean(accepted)),
        "pathologies": pathologies,
        "median_abs_dh": float(_percentiles(abs_dh, (50.0,))[0]) if abs_dh.size else None,
    }
    return ChainRecord(beta=beta, gamma=gamma, K=K, accepted=accepted, h_before=h_before,
                       h_after=h_after, dh=dh, meta=meta)


def run_chain(problem: InferenceProblem, config: HmcConfig) -> ChainRecord:
    """Run a single chain for n_mc iterations from the data-pinned start:
    `run_parallel_chains` of one chain, which is one worker, so it runs in
    this process on chain 0's stream, its failure raised as the one
    StagHmcError ``chain 0: ...``.
    A config of more chains is a ValidationError: `run_parallel_chains`
    runs those."""
    if config.chains != 1:
        raise ValidationError(
            f"run_chain runs one chain, got chains = {config.chains}; "
            "use run_parallel_chains"
        )
    return run_parallel_chains(problem, config)[0]


class _ChainTraceback(Exception):
    """The formatted tracebacks of the failed chains, as text: the cause of
    the StagHmcError that reports them, as ``concurrent.futures`` attaches
    the traceback of a failed call in a worker."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _chain_worker(args):
    """(index, record, None) for a chain that ran; (index, None, (message,
    formatted traceback)) for one that failed."""
    problem, config, index, seed_seq = args
    try:
        return index, _run_seeded(problem, config, index, seed_seq), None
    except Exception as exc:  # isolate failures so sibling chains finish
        import traceback  # only a failed chain formats one

        return index, None, (f"chain {index}: {type(exc).__name__}: {exc}", traceback.format_exc())


def _serve(jobs, outcomes, problem, config):
    """A worker process's loop: run each job, (chain index, seed sequence),
    read from the pipe ``jobs`` through `_chain_worker`, and write its
    outcome to the pipe ``outcomes``, until None arrives."""
    for index, seed_seq in iter(lambda: pickle.load(jobs), None):
        pickle.dump(_chain_worker((problem, config, index, seed_seq)), outcomes)
        outcomes.flush()


def _dispatch(problem: InferenceProblem, config: HmcConfig, seeds, workers: int) -> list:
    """Each chain's `_chain_worker` outcome, in chain order, from
    ``workers`` forked processes, which inherit the problem and the config
    and serve jobs (`_serve`) over a pipe each way, pickled. This thread
    hands a worker the next chain as it frees up and receives every
    outcome itself, polling the outcome pipes. A worker whose outcome pipe
    ends before its chain came back (it exited, or died mid-write) makes
    that chain a failure named with its exit code, and a replacement takes
    the chains not yet handed out. A worker leaves only through
    ``os._exit``. Every worker is reaped and every pipe end closed before
    this returns or raises; after an exception on this thread, such as a
    KeyboardInterrupt, every worker is sent SIGTERM first."""
    import select  # only two or more workers need it

    outs = [None] * len(seeds)
    todo = list(enumerate(seeds))[::-1]  # popped from the end: chain 0 first
    # every pipe end opened here; every worker not yet reaped; outcome
    # pipe's descriptor -> (worker, its job pipe, its outcome pipe, its chain)
    ends, live, busy = [], [], {}

    def pipe(buffering):  # (read end, write end)
        r, w = os.pipe()
        ends.extend((open(r, "rb"), open(w, "wb", buffering=buffering)))
        return ends[-2:]

    def hand_out(pid, jobs, outcomes):
        job = todo.pop() if todo else None
        with contextlib.suppress(OSError):  # the worker is gone: its outcome pipe ends
            pickle.dump(job, jobs)  # unbuffered: a failed write leaves nothing to flush
        if job is not None:
            busy[outcomes.fileno()] = pid, jobs, outcomes, job[0]

    def start():
        (jobs_r, jobs_w), (outcomes_r, outcomes_w) = pipe(0), pipe(-1)
        for stream in filter(None, (sys.stdout, sys.stderr)):  # no buffered output is written twice
            stream.flush()
        pid = os.fork()
        if pid == 0:  # the worker
            try:
                for end in set(ends) - {jobs_r, outcomes_w}:
                    end.close()
                _serve(jobs_r, outcomes_w, problem, config)
                os._exit(0)
            finally:
                os._exit(1)
        live.append(pid)
        jobs_r.close()
        outcomes_w.close()
        hand_out(pid, jobs_w, outcomes_r)

    try:
        for _ in range(workers):
            start()
        while busy:
            poller = select.poll()
            for fd in busy:
                poller.register(fd, select.POLLIN)
            for fd, _ in poller.poll():
                pid, jobs, outcomes, c = busy.pop(fd)
                try:
                    outs[c] = pickle.load(outcomes)
                except (EOFError, pickle.UnpicklingError):  # it ended before its chain came back
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    live.remove(pid)
                    message = f"chain {c}: worker exited with code {code}"
                    outs[c] = c, None, (message, message + "\n")
                    if todo:
                        start()
                else:
                    hand_out(pid, jobs, outcomes)
    except BaseException:
        import signal

        for pid in live:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for end in ends:
            end.close()
        for pid in live:
            os.waitpid(pid, 0)
    return outs


def run_parallel_chains(problem: InferenceProblem, config: HmcConfig) -> list[ChainRecord]:
    """Run config.chains independent chains on min(config.chains, the CPUs
    in this process's affinity mask) workers; to use fewer, narrow the mask
    (``taskset``, ``os.sched_setaffinity``). One worker is this process,
    which runs every chain in turn; worker processes are forked only for
    two or more. A platform without ``os.fork`` runs every chain in this
    process, as one CPU does: there is no spawned worker.

    This process hands the worker processes one chain at a time, as each
    frees up: chains take unequal times, so a batch of slow ones would
    leave the other workers idle at the end. A worker inherits the problem
    and the config at its fork, so a job is a chain index and its seed
    sequence. The chains come back in
    chain order. Chain c draws from the c-th stream spawned off the master
    seed, so run_chain is this runner for one chain and adding chains
    never perturbs existing ones. A failing chain does not abort its
    siblings; failures are reported together after all chains finish, as
    one StagHmcError that names each failed chain (``chain 0: ...``) and
    whose ``__cause__`` holds their tracebacks, from this process or a
    worker alike. A worker that dies mid-chain fails that chain with its
    exit code (``chain 3: worker exited with code 1``); the chains not yet
    handed out still run.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    # the CPUs this process may run on, where the platform can say
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(config.chains, cpus)
    if workers == 1 or not hasattr(os, "fork"):
        outs = [_chain_worker((problem, config, c, seed)) for c, seed in enumerate(seeds)]
    else:
        outs = _dispatch(problem, config, seeds, workers)

    errors = [err for _, _, err in outs if err is not None]
    if errors:
        messages, tracebacks = zip(*errors)
        raise StagHmcError("; ".join(messages)) from _ChainTraceback("\n".join(tracebacks))
    return [rec for _, rec, _ in outs]
