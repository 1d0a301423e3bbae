"""The benchmark's two workloads on the paper's section-4 problem.

Every workload infers (K, gamma) = (50, 0.2) from ten noisy readings of a
reservoir driven by sin^2(0.01 t) + 0.1 over T = 833, with the masses, step
and start of the ``paper-sec4`` preset. They differ in what they stress:

* ``paper-sec4``: chains of 250 iterations at N = 301 beads, one at a time,
  in-process through ``run_chain``, each written to CSV and summarised. Each
  kernel call is dominated by fixed NumPy dispatch cost.
* ``chains-16``: the command line as a user runs it: ``simulate``, then
  ``infer`` with 16 chains over the CLI's worker processes, then
  ``summarize`` on the 16 chain CSVs.

The amount of work is a fixed function of ``--seconds`` (see
``library_chains`` and ``cli_iterations``), so a faster program finishes
the same work sooner, and the same seed gives the same chains.
Timings are host-normalised: raw time x (reference probe / this run's
probe around the timed phase), see `HostClock`. Chain k of a run draws
from ``chain_seed(seed, k)``, and the dataset from ``data_seed(seed)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import staghmc.cli
import staghmc.diagnostics
import staghmc.model
import staghmc.sampler
from staghmc.integrator import IntegratorConfig, OscillatorBank
from staghmc.lattice import MassConfig, initial_state
from staghmc.model import (
    InputSignal,
    ObservationModel,
    PhysicalParams,
    fine_grid,
    to_dimensionless,
)
from staghmc.sampler import ChainRecord, HmcConfig, InferenceProblem

from estimators import bulk_ess, chain_digest, host_probe_us
from tracer import bind

TRUTH = PhysicalParams(K=50.0, gamma=0.2, T=833.0)
SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
NOISE = ObservationModel(0.1)
N_SEGMENTS = 10
J = 30  # beads per observation interval, for the data and the sampler
N_BEADS = N_SEGMENTS * J + 1
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
INTEGRATOR = IntegratorConfig(d_tau=0.25, P=3)
START = PhysicalParams(K=200.0, gamma=0.5, T=TRUTH.T)
BURN_IN = 0.2
SETUP_REPEATS = 15
TRACED_CHAINS = 4  # chains replayed with tracing on in a traced run
PROBE = (301, 40, 15)  # host probe: array size, steps per round, rounds
# A 95% interval misses the truth on about one dataset in twenty even when
# the sampler is exact (seed 3 does at 20 s), so the gate on chains-16 is the
# pooled central 99.9% interval; the 95% one is reported beside it.
COVERAGE_LEVEL = 99.9


# paper-sec4: chains of a fixed length, as many as --seconds allows at
# the nominal rate
LIBRARY_CHAIN_ITERS = 250
LIBRARY_ITER_PER_S = 400.0
# chains-16: a fixed number of chains, as long as --seconds allows at the
# nominal rate
CLI_CHAINS = 16
CLI_ITER_PER_S = 640.0


def library_chains(seconds: float) -> int:
    return max(2, round(seconds * LIBRARY_ITER_PER_S / LIBRARY_CHAIN_ITERS))


def cli_iterations(seconds: float) -> int:
    return max(100, round(seconds * CLI_ITER_PER_S / CLI_CHAINS))


def derive_seed(seed: int, *path: int) -> int:
    """A 64-bit seed for one purpose (dataset, chain k) from the run seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def data_seed(seed: int) -> int:
    return derive_seed(seed, 0)


def chain_seed(seed: int, k: int) -> int:
    return derive_seed(seed, 1, k)


class HostClock:
    """Wall clock corrected for host speed by the NumPy probe.

    Each timed phase is bracketed by probes (consecutive phases share one);
    its normalised time is raw x ref / mean(probe before, probe after). The
    host's speed wanders on a scale of seconds, so timed phases are kept
    short and the probe runs between every two of them.
    """

    def __init__(self, ref_probe_us: float):
        self.ref = ref_probe_us
        self.probes: list[float] = [host_probe_us(*PROBE)]

    def close_phase(self, raw_s: float) -> float:
        before = self.probes[-1]
        self.probes.append(host_probe_us(*PROBE))
        return raw_s * self.ref / (0.5 * (before + self.probes[-1]))


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    checks_ok: bool = True
    sample_norm_s: float = 0.0
    chain_rates: list = field(default_factory=list)  # normalised it/s per timed phase
    twin_rates: list = field(default_factory=list)  # untraced twins of traced chains
    raw_rates: list = field(default_factory=list)
    setup_norm_s: list = field(default_factory=list)
    setup_raw_s: list = field(default_factory=list)
    wall_norm_s: float = 0.0
    csv_bytes: int = 0
    records: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # failed checks
    info: list = field(default_factory=list)

    def fail(self, message: str):
        self.failed += 1
        self.notes.append(message)


# ---------------------------------------------------------------------------
# set-up


def make_dataset(seed: int):
    """Truth path and observations, as ``staghmc simulate`` makes them."""
    rng = np.random.default_rng(np.random.SeedSequence(data_seed(seed)))
    grid = fine_grid(TRUTH.T, N_SEGMENTS, J)
    path = staghmc.model.simulate_truth(TRUTH, SIGNAL, grid, seed=rng)
    obs_times = np.linspace(0.0, TRUTH.T, N_SEGMENTS + 1)
    return staghmc.model.generate_observations(path, obs_times, TRUTH, NOISE, seed=rng)


def theta0() -> tuple[float, float]:
    start = to_dimensionless(START)
    return (start.beta, start.gamma)


def build_problem(data) -> InferenceProblem:
    """The problem plus everything a chain builds before its first iteration."""
    problem = InferenceProblem(data, SIGNAL, NOISE, J)
    ctx = problem.context()
    OscillatorBank.build(ctx.layout, MASSES, INTEGRATOR.d_tau)
    initial_state(data, SIGNAL, to_dimensionless(START), ctx.layout)
    return problem


def measure_setup(seed: int, clock: HostClock, res: RunResult, tracer=None):
    """Repeat the set-up and keep every (raw, normalised) time; the median
    is ``setup_s``. Traced, it runs a few times with the wrappers bound."""
    problem = None
    for _ in range(SETUP_REPEATS if tracer is None else 3):
        t0 = perf_counter()
        if tracer is None:
            problem = build_problem(make_dataset(seed))
        else:
            with bind(tracer):
                data = make_dataset(seed)
                with tracer.span("sampler.problem_build"):
                    problem = build_problem(data)
        raw = perf_counter() - t0
        norm = clock.close_phase(raw)
        if tracer is None:
            res.setup_raw_s.append(raw)
            res.setup_norm_s.append(norm)
    return problem


# ---------------------------------------------------------------------------
# output checks


def check_chain(rec: ChainRecord, n_expected: int) -> str | None:
    """None if the chain is sound, else what is wrong with it."""
    if rec.n_rows != n_expected:
        return f"{rec.n_rows} rows, expected {n_expected}"
    for name in ("beta", "gamma", "K", "h_before"):
        if not np.all(np.isfinite(getattr(rec, name))):
            return f"non-finite {name}"
    if not (np.all(rec.beta > 0) and np.all(rec.gamma > 0)):
        return "beta or gamma not positive"
    return None


def pooled_interval(records, name: str, level: float):
    x = post_burn_in(records, name)
    half = (100.0 - level) / 2.0
    lo, hi = np.percentile(x, [half, 100.0 - half])
    return float(lo), float(hi)


def post_burn_in(records, name: str) -> np.ndarray:
    n = min(r.n_rows for r in records)
    s = int(round(n * BURN_IN))
    return np.array([getattr(r, name)[s:n] for r in records])


# ---------------------------------------------------------------------------
# in-process workload: paper-sec4


def _library_chain(problem, n_iters: int, seed: int, k: int, workdir: str):
    """One chain as a library user runs it: sample, write the CSV, summarise.
    Returns the record, its summary, the sampling time and the whole time."""
    cfg = HmcConfig(
        n_mc=n_iters, theta0=theta0(), masses=MASSES, integrator=INTEGRATOR,
        seed=chain_seed(seed, k),
    )
    t0 = perf_counter()
    rec = staghmc.sampler.run_chain(problem, cfg)
    t1 = perf_counter()
    rec.to_csv(os.path.join(workdir, f"chain{k:03d}.csv"))
    summary = staghmc.diagnostics.summarize(rec, discard=BURN_IN)
    return rec, summary, t1 - t0, perf_counter() - t0


def _library_unit(problem, n_iters, seed, k, workdir, clock, res) -> float:
    """Run, time and check chain k; returns its normalised whole time."""
    res.attempted += 1
    try:
        rec, summary, sample_s, unit_s = _library_chain(problem, n_iters, seed, k, workdir)
    except Exception as exc:  # a failing chain is counted, not fatal
        clock.close_phase(0.0)
        res.fail(f"chain {k}: {type(exc).__name__}: {exc}")
        return 0.0
    norm_unit = clock.close_phase(unit_s)
    norm_sample = sample_s * norm_unit / unit_s
    res.sample_norm_s += norm_sample
    res.chain_rates.append(n_iters / norm_sample)
    res.raw_rates.append(n_iters / sample_s)
    problem_text = check_chain(rec, n_iters)
    if problem_text is None and not all(
        math.isfinite(p.mean) for p in summary.parameters.values()
    ):
        problem_text = "non-finite posterior summary"
    if problem_text is not None:
        res.fail(f"chain {k}: {problem_text}")
    else:
        res.records.append(rec)
        res.digests.append(chain_digest(rec.beta, rec.gamma))
    return norm_unit


def run_library(seed: int, seconds: float, clock: HostClock, workdir: str,
                tracer=None) -> RunResult:
    res = RunResult()
    problem = measure_setup(seed, clock, res, tracer)
    n_iters = LIBRARY_CHAIN_ITERS
    if tracer is not None:
        # each traced chain right after its untraced twin, for the overhead
        twins = RunResult()
        for k in range(min(TRACED_CHAINS, library_chains(seconds))):
            _library_unit(problem, n_iters, seed, k, workdir, clock, twins)
            with bind(tracer):
                _library_unit(problem, n_iters, seed, k, workdir, clock, res)
        res.twin_rates = twins.chain_rates
        res.failed += twins.failed
        res.notes += twins.notes
        return res
    units = [
        _library_unit(problem, n_iters, seed, k, workdir, clock, res)
        for k in range(library_chains(seconds))
    ]
    # one set-up and every chain, each taken at its run's median so that a
    # host hiccup during one chain does not move the total
    res.wall_norm_s = statistics.median(res.setup_norm_s) + len(units) * statistics.median(units)
    return res


# ---------------------------------------------------------------------------
# chains-16: the command line


def _cli(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return staghmc.cli.main(args)


# The infer command runs its chains in forked pool workers for ~20 s, which
# probes in the parent before and after do not track. So one wrapper of the
# pool's task function probes the host right before and after each chain
# and, in a traced run, records the chain's spans between the probes; both
# travel back to the parent in the chain record's meta under _META_KEY. The
# pool pickles its task function by module path, so the wrapper is
# module-level and finds the wrapped worker and the tracer through _POOL
# (fork copies it into each worker, where the tracer starts empty).
_META_KEY = "bench"
_POOL = None


def _instrumented_chain_worker(args):
    worker, tracer = _POOL
    t0 = perf_counter()
    before = host_probe_us(*PROBE)
    t1 = perf_counter()
    if tracer is None:
        index, record, err = worker(args)
    else:
        tracer.clear()
        with tracer.span("sampler.chain") as idx:
            tracer.tag[idx] = os.getpid()
            index, record, err = worker(args)
    t2 = perf_counter()
    after = host_probe_us(*PROBE)
    probe_s = (t1 - t0) + (perf_counter() - t2)
    if record is not None:
        record.meta[_META_KEY] = {
            "probe": (os.getpid(), t2 - t1, 0.5 * (before + after), probe_s),
            "spans": None if tracer is None else tracer.export(),
        }
    return index, record, err


@contextlib.contextmanager
def instrumented_pool(sink: list, tracer=None):
    """Probe inside the pool workers around every chain; each chain adds
    (pid, chain seconds, mean probe us, probing seconds) to ``sink``. With
    a tracer, the pool call is a ``sampler.run_parallel_chains`` span and
    the workers' spans are merged under it."""
    global _POOL
    sampler, cli = staghmc.sampler, staghmc.cli
    worker, pool = sampler._chain_worker, cli.run_parallel_chains

    def instrumented(*args, **kwargs):
        span = (contextlib.nullcontext() if tracer is None
                else tracer.span("sampler.run_parallel_chains"))
        with span as idx:
            records = pool(*args, **kwargs)
        for rec in records:
            meta = rec.meta.pop(_META_KEY)
            sink.append(meta["probe"])
            if meta["spans"] is not None:
                tracer.merge(meta["spans"], under=idx)
        return records

    _POOL = (worker, tracer)
    sampler._chain_worker = _instrumented_chain_worker
    cli.run_parallel_chains = instrumented
    try:
        yield
    finally:
        sampler._chain_worker, cli.run_parallel_chains = worker, pool
        _POOL = None


def pool_sampling_time(raw_s: float, probes: list, ref_us: float) -> tuple[float, float]:
    """The pool's wall time less the probing, raw and host-normalised by the
    workers' probes weighted by the chain time each one brackets."""
    workers = len({pid for pid, _, _, _ in probes})
    busy = sum(t for _, t, _, _ in probes)
    probe_us = sum(t * p for _, t, p, _ in probes) / busy
    sampling_s = raw_s - sum(s for _, _, _, s in probes) / workers
    return sampling_s, sampling_s * ref_us / probe_us


def run_cli(seed: int, seconds: float, clock: HostClock, workdir: str,
            tracer=None) -> RunResult:
    res = RunResult()
    measure_setup(seed, clock, res, tracer)
    n_chains, n_iters = CLI_CHAINS, cli_iterations(seconds)
    cfg_path = os.path.join(workdir, "bench_config.json")
    summary_dir = os.path.join(workdir, "summary")
    chain_files = [os.path.join(workdir, f"chain{i:02d}.csv") for i in range(n_chains)]
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "lattice": {"j": J},
                "infer": {
                    "n_mc": n_iters,
                    "discard": BURN_IN,
                    "observations_file": os.path.join(workdir, "observations.csv"),
                },
                "summarize": {"chain_files": chain_files, "discard": BURN_IN},
            },
            fh,
        )
    common = ["--preset", "paper-sec4", "--config", cfg_path]
    steps = [
        ("cli.simulate", ["simulate", *common, "--seed", str(data_seed(seed)), "--out", workdir]),
        ("cli.infer", ["infer", *common, "--seed", str(chain_seed(seed, 0)),
                       "--chains", str(n_chains), "--out", workdir]),
        ("cli.summarize", ["summarize", *common, "--out", summary_dir]),
    ]
    res.attempted = n_chains
    wall = 0.0
    worker_probes: list = []
    for name, args in steps:
        traced = contextlib.nullcontext() if tracer is None else bind(tracer)
        probes = (instrumented_pool(worker_probes, tracer) if name == "cli.infer"
                  else contextlib.nullcontext())
        span = contextlib.nullcontext() if tracer is None else tracer.span(name)
        t0 = perf_counter()
        with traced, probes, span:
            code = _cli(args)
        raw = perf_counter() - t0
        norm = clock.close_phase(raw)
        if code != 0:
            res.failed = n_chains
            res.notes.append(f"{args[0]} exited with {code}")
            res.wall_norm_s = wall + norm
            return res
        if name == "cli.infer":
            raw, norm = pool_sampling_time(raw, worker_probes, clock.ref)
            clock.probes.extend(p for _, _, p, _ in worker_probes)
            res.sample_norm_s = norm
            res.chain_rates.append(n_chains * n_iters / norm)
            res.raw_rates.append(n_chains * n_iters / raw)
        wall += norm
    res.wall_norm_s = wall

    for i, path in enumerate(chain_files):
        try:
            rec = ChainRecord.from_csv(path)
        except Exception as exc:  # a missing or malformed chain file is a failure
            res.fail(f"chain {i}: {type(exc).__name__}: {exc}")
            continue
        problem_text = check_chain(rec, n_iters)
        if problem_text is not None:
            res.fail(f"chain {i}: {problem_text}")
            continue
        res.records.append(rec)
        res.digests.append(chain_digest(rec.beta, rec.gamma))
    if len(res.records) == n_chains:
        for name, truth in (("K", TRUTH.K), ("gamma", TRUTH.gamma)):
            lo95, hi95 = pooled_interval(res.records, name, 95.0)
            lo, hi = pooled_interval(res.records, name, COVERAGE_LEVEL)
            res.info.append(f"pooled 95% interval of {name}: [{lo95:.4g}, {hi95:.4g}], "
                            f"{COVERAGE_LEVEL}%: [{lo:.4g}, {hi:.4g}], truth {truth}")
            if not lo <= truth <= hi:
                res.checks_ok = False
                res.notes.append(f"pooled {COVERAGE_LEVEL}% interval of {name} misses {truth}")
    for path in (os.path.join(workdir, "summary.json"),
                 os.path.join(summary_dir, "summary.json"),
                 *(os.path.join(summary_dir, f"density_{p}.csv") for p in ("beta", "gamma", "K"))):
        if not os.path.exists(path):
            res.checks_ok = False
            res.notes.append(f"missing output {os.path.basename(path)}")
    return res


RUNNERS = {"paper-sec4": run_library, "chains-16": run_cli}


def run_workload(name: str, seed: int, seconds: float, clock: HostClock, workdir: str,
                 tracer=None) -> RunResult:
    os.makedirs(workdir, exist_ok=True)
    res = RUNNERS[name](seed, seconds, clock, workdir, tracer)
    res.csv_bytes = sum(
        e.stat().st_size
        for e in os.scandir(workdir)
        if e.name.startswith("chain") and e.name.endswith(".csv")
    )
    return res


def ess_per_s(res: RunResult) -> dict:
    """Multi-chain bulk ESS of K and gamma per host-normalised second of
    sampling, over the run's chains after burn-in."""
    if len(res.records) < 2 or res.sample_norm_s <= 0:
        return {"K": 0.0, "gamma": 0.0}
    return {
        name: bulk_ess(post_burn_in(res.records, name)) / res.sample_norm_s
        for name in ("K", "gamma")
    }
