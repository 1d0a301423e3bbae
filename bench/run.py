"""Benchmark of the staghmc sampler: one workload per run.

    python3 bench/run.py --workload paper-sec4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced replay (see ``tracer.py``). Informational
lines (host facts, chain digests, raw rates, check notes) come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` and ``failed``
count chains. The workloads are described in ``workloads.py``;
``reference.json`` holds the reference probe times, the default seed, the
ESS yardstick and the chain digests of seed 1 at 20 s.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_package():
    """Import staghmc from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "staghmc", "__init__.py")):
        raise SystemExit(f"error: no staghmc package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import staghmc

    where = os.path.dirname(os.path.abspath(staghmc.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"error: staghmc was imported from {where}, not from {SRC}")


def host_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = None
    return facts


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest finished child
    (the pool workers), in MB."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def end_to_end(res) -> dict:
    return {
        "iter_per_s": (statistics.median(res.chain_rates), "it/s"),
        "setup_s": (statistics.median(res.setup_norm_s), "s"),
        "wall_s": (res.wall_norm_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(res, traced_res, tracer, clock) -> dict:
    from tracer import TAG_ACCEPTED, TAG_PATHOLOGY, SpanTable
    from workloads import N_BEADS, ess_per_s

    t = SpanTable(tracer)
    it_total = t.total("sampler.hmc_iteration")

    per_call = t.mean_scaled
    per_iter = t.calls_per_clean_iteration

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    tags = t.tags("sampler.hmc_iteration")
    # chains run in pool workers; without a pool (one chain at a time,
    # in-process) the efficiency is 1 by definition
    workers = len(set(t.tags("sampler.chain").tolist()))
    pool_s = t.total("sampler.run_parallel_chains")
    efficiency = share(t.total("sampler.chain"), workers * pool_s) if workers else 1.0
    grad_us = per_call("energy.grad_hprime", 1e6)
    prop_total = t.total("integrator.trotter_propagate")
    prop_grad = float(
        t.dur[t.mask("energy.grad_hprime") & t.mask_parent("integrator.trotter_propagate")].sum()
    )
    untraced_rate = statistics.median(traced_res.twin_rates or res.chain_rates)
    traced_rate = statistics.median(traced_res.chain_rates)
    ess = ess_per_s(res)
    m = {
        "model.simulate_truth.ms": (per_call("model.simulate_truth", 1e3), "ms"),
        "model.generate_observations.ms": (per_call("model.generate_observations", 1e3), "ms"),
        "sampler.problem_build.ms": (per_call("sampler.problem_build", 1e3), "ms"),
        "lattice.staging_inverse.us_per_call": (per_call("lattice.staging_inverse", 1e6), "us"),
        "lattice.staging_inverse.calls_per_iter": (per_iter("lattice.staging_inverse"), "calls/it"),
        "lattice.staging_adjoint.us_per_call": (per_call("lattice.staging_adjoint", 1e6), "us"),
        "lattice.staging_adjoint.calls_per_iter": (per_iter("lattice.staging_adjoint"), "calls/it"),
        "energy.grad_hprime.us_per_call": (grad_us, "us"),
        "energy.grad_hprime.calls_per_iter": (per_iter("energy.grad_hprime"), "calls/it"),
        "energy.grad_hprime.share": (share(t.total("energy.grad_hprime"), it_total), "fraction"),
        "energy.grad_hprime.ns_per_bead": (grad_us * 1e3 / N_BEADS, "ns"),
        "energy.h_total.us_per_call": (per_call("energy.h_total", 1e6), "us"),
        "energy.h_total.calls_per_iter": (per_iter("energy.h_total"), "calls/it"),
        "integrator.trotter_propagate.us_per_call": (
            per_call("integrator.trotter_propagate", 1e6), "us"),
        "integrator.self_share": (share(prop_total - prop_grad, prop_total), "fraction"),
        "sampler.hmc_iteration.us_per_call": (per_call("sampler.hmc_iteration", 1e6), "us"),
        "sampler.self_share": (share(t.self_total("sampler.hmc_iteration"), it_total), "fraction"),
        "sampler.sample_momenta.us_per_call": (per_call("sampler.sample_momenta", 1e6), "us"),
        "sampler.metropolis_accept.us_per_call": (
            per_call("sampler.metropolis_accept", 1e6), "us"),
        "sampler.acceptance": (float(((tags & TAG_ACCEPTED) > 0).mean()), "fraction"),
        "sampler.pathology_frac": (float(((tags & TAG_PATHOLOGY) > 0).mean()), "fraction"),
        "sampler.parallel_efficiency": (efficiency, "fraction"),
        "ess_per_s_K": (ess["K"], "1/s"),
        "ess_per_s_gamma": (ess["gamma"], "1/s"),
        "cli.infer.s": (t.total("cli.infer"), "s"),
        "cli.summarize.s": (t.total("cli.summarize"), "s"),
        "sampler.ChainRecord.to_csv.ms": (per_call("sampler.ChainRecord.to_csv", 1e3), "ms"),
        "io.chain_csv_bytes": (float(traced_res.csv_bytes), "bytes"),
        "diagnostics.summarize.ms": (per_call("diagnostics.summarize", 1e3), "ms"),
        "diagnostics.kde.ms": (per_call("diagnostics.kde", 1e3), "ms"),
        "diagnostics.ess.ms": (per_call("diagnostics.ess", 1e3), "ms"),
        "host.probe_us": (statistics.median(clock.probes), "us"),
        "host.raw_iter_per_s": (statistics.median(res.raw_rates), "it/s"),
        "trace.overhead_frac": (1.0 - traced_rate / untraced_rate, "fraction"),
    }
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from tracer import Tracer
    from workloads import RUNNERS, HostClock, run_workload

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    if args.workload not in RUNNERS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {sorted(RUNNERS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    seed = reference["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        raise SystemExit("error: --seed must be >= 0")
    name = args.workload

    print("host " + json.dumps(host_facts(), sort_keys=True))
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    clock = HostClock(reference["probe_ref_us"])
    try:
        res = run_workload(name, seed, args.seconds, clock, os.path.join(workdir, "run"))
        traced = None
        if args.trace:
            tracer = Tracer()
            traced = run_workload(
                name, seed, args.seconds, clock, os.path.join(workdir, "traced"), tracer
            )
            trace_dir = os.path.join(ROOT, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.save(os.path.join(trace_dir, f"{name}-seed{seed}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only if no other run uses it

    runs = [res] if traced is None else [res, traced]
    if traced is not None and traced.digests != res.digests[: len(traced.digests)]:
        traced.checks_ok = False
        traced.notes.append("traced chains differ from the untraced ones")
    for k, digest in enumerate(res.digests):
        print(f"digest {name} seed={seed} seconds={args.seconds:g} chain={k} sha256={digest}")
    print(
        "raw "
        + json.dumps(
            {
                "iter_per_s": statistics.median(res.raw_rates) if res.raw_rates else None,
                "setup_s": statistics.median(res.setup_raw_s),
                "probe_us_median": statistics.median(clock.probes),
            }
        )
    )
    expected = reference["digests"].get(f"seed{seed}-seconds{args.seconds:g}", {}).get(name)
    if expected is not None:
        res.info.append(f"chain digests match bench/reference.json: {expected == res.digests}")
    for line in res.info:
        print(f"info {line}")
    for r in runs:
        for note in r.notes:
            print(f"check {note}")

    attempted = res.attempted
    failed = res.failed
    correct = failed == 0 and res.checks_ok and bool(res.chain_rates)
    if traced is not None:
        correct = correct and traced.failed == 0 and traced.checks_ok
    if not res.chain_rates:
        metrics = {}
    elif args.trace:
        metrics = per_layer(res, traced, tracer, clock)
    else:
        metrics = end_to_end(res)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
