"""The paper's scale separation: with the exact harmonic flow of the staging
beads, the step need not shrink as the lattice refines.

The data stay fixed at n = 10 segments (bench dataset 2, as
``bench/workloads.py`` ``make_dataset(2)`` builds it) and the preset masses,
d_tau and P stay fixed, while j goes from 15 to 120 beads per segment
(N = 151 to 1 201). Acceptance and the median abs(dH) must not move beyond
the spread that chain seeds alone give.

Bench dataset 1 is not used: its gamma trajectories cross zero (ROADMAP
item 9), so its acceptance swings by chain at every j (0.04-0.53) and would
hide a change with j. Add it once the sampler works in ln gamma.

The bounds were fixed from a seed scan before this check was written:
20 seed pairs (chain seeds 2s and 2s+1) of 2 chains x 1 000 iterations,
20 % burn-in, started at the truth, on bench datasets 2 and 3. There the
pooled acceptance read 0.58-0.88, the median abs(dH) 0.19-0.56, the change
in acceptance from j = 15 to j = 120 at one seed pair -0.24 to +0.17
(standard deviation 0.06-0.07), and the ratio of the medians 0.59-1.65.
"""

import numpy as np
import pytest

from staghmc.integrator import IntegratorConfig
from staghmc.lattice import MassConfig
from staghmc.model import (
    InputSignal,
    ObservationModel,
    PhysicalParams,
    fine_grid,
    generate_observations,
    simulate_truth,
    to_dimensionless,
)
from staghmc.sampler import HmcConfig, InferenceProblem, run_chain

TRUTH = PhysicalParams(K=50.0, gamma=0.2, T=833.0)
SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
NOISE = ObservationModel(0.1)
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
STEP = IntegratorConfig(d_tau=0.25, P=3)
N_MC = 1000
BURN_IN = N_MC // 5
CHAIN_SEEDS = (0, 1)

# bounds from the seed scan in the module docstring, fixed before the check
MIN_ACCEPTANCE = 0.5  # scan: 0.58 at the lowest
MAX_MEDIAN_DH = 1.0  # scan: 0.56 at the highest
MAX_ACCEPTANCE_CHANGE = 0.3  # scan: 0.24 at the largest, about 4 standard deviations
MAX_MEDIAN_RATIO = 2.0  # scan: 0.59-1.65, so within a factor of 2 either way


def bench_dataset(seed: int):
    """The observations of bench dataset ``seed``: the truth path simulated
    at j = 30 and read at the n + 1 = 11 observation times."""
    entropy = int(np.random.SeedSequence([seed, 0]).generate_state(1, np.uint64)[0])
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    path = simulate_truth(TRUTH, SIGNAL, fine_grid(TRUTH.T, 10, 30), seed=rng)
    obs_times = np.linspace(0.0, TRUTH.T, 11)
    return generate_observations(path, obs_times, TRUTH, NOISE, seed=rng)


@pytest.fixture(scope="module")
def step_fit():
    """(pooled acceptance, pooled median abs(dH)) after burn-in, by j."""
    data = bench_dataset(2)
    start = to_dimensionless(TRUTH)
    out = {}
    for j in (15, 120):
        problem = InferenceProblem(data, SIGNAL, NOISE, j)
        records = [
            run_chain(problem, HmcConfig(n_mc=N_MC, theta0=(start.beta, start.gamma),
                                         masses=MASSES, integrator=STEP, seed=seed))
            for seed in CHAIN_SEEDS
        ]
        accepted = np.concatenate([rec.accepted[BURN_IN:] for rec in records])
        dh = np.concatenate([rec.dh[BURN_IN:] for rec in records])
        out[j] = (float(np.mean(accepted)), float(np.median(np.abs(dh))))
    print(f"scale separation (acceptance, median abs(dH)) by j: {out}")
    return out


def test_each_lattice_keeps_the_step(step_fit):
    for j, (acceptance, median_dh) in step_fit.items():
        assert acceptance >= MIN_ACCEPTANCE, (j, acceptance)
        assert median_dh <= MAX_MEDIAN_DH, (j, median_dh)


def test_refining_the_lattice_moves_neither_acceptance_nor_dh(step_fit):
    (acc_coarse, dh_coarse), (acc_fine, dh_fine) = step_fit[15], step_fit[120]
    assert abs(acc_fine - acc_coarse) <= MAX_ACCEPTANCE_CHANGE, step_fit
    assert 1 / MAX_MEDIAN_RATIO <= dh_fine / dh_coarse <= MAX_MEDIAN_RATIO, step_fit
