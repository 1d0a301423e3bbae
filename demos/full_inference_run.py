#!/usr/bin/env python3
"""End-to-end parameter recovery on a synthetic dataset.

Generates noisy observations from a reservoir with K=50, gamma=0.2 driven by
r(t) = sin^2(0.01 t) + 0.1, then starts an HMC chain far away (K=200,
gamma=0.5) and lets it find the posterior. Prints the summary and writes the
chain record plus kernel density curves under demos/out/.

Runs in well under a minute on one core. The same shape of run through the
CLI (the dataset differs, simulate shares one noise stream for path and
observations):

    staghmc simulate --preset paper-sec4 --seed 2718 --out demos/out
    echo '{"infer": {"observations_file": "demos/out/observations.csv"}}' > infer.json
    staghmc infer --preset paper-sec4 --seed 7 --config infer.json --out demos/out
"""

from pathlib import Path

import numpy as np

from staghmc import (
    HmcConfig,
    InferenceProblem,
    InputSignal,
    IntegratorConfig,
    MassConfig,
    ObservationModel,
    PhysicalParams,
    fine_grid,
    generate_observations,
    kde,
    simulate_truth,
    summarize,
    to_dimensionless,
)
from staghmc.diagnostics import discard_start, silverman_bandwidth, write_density_csv
from staghmc.sampler import run_chain

OUT = Path(__file__).parent / "out"

TRUTH = PhysicalParams(K=50.0, gamma=0.2, T=833.0)
SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
NOISE = ObservationModel(sigma=0.1)
SEGMENTS, BEADS_PER_SEGMENT = 10, 30
N_MC, DISCARD = 4000, 0.25


def main():
    OUT.mkdir(exist_ok=True)

    grid = fine_grid(TRUTH.T, SEGMENTS, BEADS_PER_SEGMENT)
    truth = simulate_truth(TRUTH, SIGNAL, grid, seed=31415)
    obs_times = np.linspace(0.0, TRUTH.T, SEGMENTS + 1)
    data = generate_observations(truth, obs_times, TRUTH, NOISE, seed=31416)
    print(f"simulated {grid.size}-point truth path, kept {data.times.size} noisy readings")

    problem = InferenceProblem(data, SIGNAL, NOISE, BEADS_PER_SEGMENT)
    start = to_dimensionless(PhysicalParams(K=200.0, gamma=0.5, T=TRUTH.T))
    config = HmcConfig(
        n_mc=N_MC,
        theta0=(start.beta, start.gamma),
        masses=MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0)),
        integrator=IntegratorConfig(d_tau=0.25, P=3),
        seed=7,
    )
    record = run_chain(problem, config)
    record.to_csv(OUT / "chain.csv")

    summary = summarize(record, discard=DISCARD)
    print(f"\n{N_MC} iterations, acceptance {summary.acceptance_rate:.3f}, "
          f"{summary.n_retained} rows kept after {DISCARD:.0%} burn-in")
    print(f"{'':10s}{'mean':>10s}{'sd':>10s}{'2.5%':>10s}{'97.5%':>10s}{'ESS':>8s}")
    for name, true_value in (("K", TRUTH.K), ("gamma", TRUTH.gamma)):
        p = summary.parameters[name]
        lo, hi = p.ci95
        hit = "covers" if lo <= true_value <= hi else "MISSES"
        # ess is None for a series that never moved
        neff = "-" if p.ess is None else f"{p.ess:.0f}"
        print(f"{name:10s}{p.mean:10.3f}{p.sd:10.3f}{lo:10.3f}{hi:10.3f}{neff:>8s}"
              f"   truth {true_value:g}: {hit}")

    kept = discard_start(DISCARD, record.n_rows)  # the first row summarize kept
    for name in ("K", "gamma"):
        series = getattr(record, name)[kept:]
        pad = 3.0 * silverman_bandwidth(series)
        xs = np.linspace(series.min() - pad, series.max() + pad, 256)
        write_density_csv(OUT / f"density_{name}.csv", xs, kde(series, xs))
    print(f"\nchain and density curves written to {OUT}/")


if __name__ == "__main__":
    main()
