#!/usr/bin/env python3
"""Numerical health checks of the multi-timescale trajectory integrator.

Three quick measurements on the benchmark-size problem (N=301 beads):

1. reversibility: integrate, flip momenta, integrate back, compare;
2. exact harmonic sub-propagator: the fast-mode energy h_N is conserved
   to machine precision by the analytic rotations;
3. energy-error scaling: halving the outer step at fixed trajectory
   length divides |dH| by ~4, the signature of a second-order scheme.
"""

import dataclasses

import numpy as np

from staghmc import (
    InputSignal,
    IntegratorConfig,
    MassConfig,
    ObservationModel,
    PhysicalParams,
    fine_grid,
    generate_observations,
    simulate_truth,
    to_dimensionless,
)
from staghmc.energy import h_N, h_total
from staghmc.integrator import OscillatorBank, _free_flow, trotter_propagate
from staghmc.lattice import LatticeLayout, PolymerState, initial_state
from staghmc.model import DimensionlessParams
from staghmc.sampler import Chain, HmcConfig, InferenceProblem, hmc_iteration, sample_momenta

PARAMS = PhysicalParams(K=50.0, gamma=0.2, T=833.0)
SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
NOISE = ObservationModel(0.1)
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
STEP = IntegratorConfig(d_tau=0.25, P=3)


def make_context():
    truth = simulate_truth(PARAMS, SIGNAL, fine_grid(PARAMS.T, 10, 30), seed=1000)
    data = generate_observations(
        truth, np.linspace(0.0, PARAMS.T, 11), PARAMS, NOISE, seed=2000
    )
    return InferenceProblem(data, SIGNAL, NOISE, 30)


def moderate_state(layout, rng):
    return PolymerState(
        u=rng.normal(0, 0.2, layout.N),
        theta=np.array([rng.uniform(1.0, 1.8), rng.uniform(0.25, 0.9)]),
        p=rng.normal(0, 3.0, layout.N),
        pi=rng.normal(0, 3.0, 2),
    )


def main():
    problem = make_context()
    ctx = problem.context()
    layout = problem.layout
    rng = np.random.default_rng(42)

    worst = 0.0
    for _ in range(50):
        state = moderate_state(layout, rng)
        out = trotter_propagate(state, ctx, MASSES, STEP)
        back_start = out.copy()
        back_start.p *= -1.0
        back_start.pi *= -1.0
        back = trotter_propagate(back_start, ctx, MASSES, STEP)
        worst = max(worst, np.max(np.abs(back.u - state.u)),
                    np.max(np.abs(back.p + state.p)))
    print(f"reversibility: worst coordinate error over 50 round trips = {worst:.2e}")

    # the free flow of a half step, on the stacked rows [u; p] of a copy
    flow = OscillatorBank.build(layout, MASSES, STEP.d_tau / 2.0).flow
    drift = 0.0
    for _ in range(200):
        state = moderate_state(layout, rng)
        x, cross = np.stack((state.u, state.p)), np.empty((2, layout.N))
        _free_flow((x, *x, cross, *cross), flow)
        out = dataclasses.replace(state, u=x[0], p=x[1])
        before, after = h_N(state, MASSES, layout), h_N(out, MASSES, layout)
        drift = max(drift, abs(after - before) / before)
    print(f"harmonic rotations: relative h_N drift over 200 states = {drift:.2e}")

    # warm states from a short chain, then |dH| at successively halved steps
    start = to_dimensionless(PhysicalParams(K=200.0, gamma=0.5, T=PARAMS.T))
    cfg = HmcConfig(n_mc=1, theta0=(start.beta, start.gamma),
                    masses=MASSES, integrator=STEP, seed=0)
    chain = Chain(problem, cfg, initial_state(problem.data, problem.signal,
                                              DimensionlessParams(*cfg.theta0), layout))
    chain_rng = np.random.default_rng(12345)
    snapshots = []
    for i in range(300):
        hmc_iteration(chain, chain_rng)
        if i >= 100 and (i - 100) % 10 == 0:
            snapshots.append(chain.state())

    print("\nenergy error vs outer step (fixed trajectory length 0.75):")
    print(f"{'dtau':>8s}{'P':>5s}{'median |dH|':>14s}{'ratio':>8s}")
    mrng = np.random.default_rng(777)
    scale = OscillatorBank.build(layout, MASSES, STEP.d_tau).scale
    momenta = [sample_momenta(scale, mrng) for _ in snapshots]
    previous = None
    for d_tau, P in ((0.25, 3), (0.125, 6), (0.0625, 12), (0.03125, 24)):
        step = IntegratorConfig(d_tau=d_tau, P=P)
        dh = []
        for snap, (p, pi) in zip(snapshots, momenta):
            begin = dataclasses.replace(snap, p=p, pi=pi)
            h0 = h_total(begin, ctx, MASSES).total
            prop = trotter_propagate(begin, ctx, MASSES, step)
            dh.append(abs(h_total(prop, ctx, MASSES).total - h0))
        med = float(np.median(dh))
        ratio = "" if previous is None else f"{previous / med:7.2f}"
        print(f"{d_tau:8.5f}{P:5d}{med:14.3e}{ratio:>8s}")
        previous = med


if __name__ == "__main__":
    main()
