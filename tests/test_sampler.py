import contextlib
import copy
import inspect
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats

import staghmc
from staghmc import (
    DomainError,
    InputSignal,
    NonFiniteError,
    ObservationModel,
    PhysicalParams,
    StagHmcError,
    TimeSeriesData,
    ValidationError,
)
from staghmc.diagnostics import discard_start, ess
from staghmc.energy import grad_hprime, h_total
from staghmc.integrator import IntegratorConfig, OscillatorBank, trotter_propagate
from staghmc.lattice import LatticeLayout, MassConfig, PolymerState, initial_state
from staghmc.model import (
    DimensionlessParams,
    generate_observations,
    simulate_truth,
)
from staghmc.sampler import (
    CHAIN_CSV_HEADER,
    Chain,
    ChainRecord,
    HmcConfig,
    InferenceProblem,
    IterationStats,
    _run_seeded,
    hmc_iteration,
    metropolis_accept,
    run_chain,
    run_parallel_chains,
    sample_momenta,
)

SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
STEP = IntegratorConfig(d_tau=0.25, P=3)


@pytest.fixture(scope="module")
def toy_problem():
    """Tiny fixed-data problem for mechanical tests (5 observations)."""
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 40.0, 5)
    y = SIGNAL.value(times) * np.exp(rng.normal(0, 0.3, 5))
    data = TimeSeriesData(times=times, values=y)
    return InferenceProblem(data=data, signal=SIGNAL, obs=ObservationModel(0.1), j=5)


@pytest.fixture(scope="module")
def posterior_problem():
    """Well-posed problem with data drawn from the generative model."""
    truth = PhysicalParams(K=50.0, gamma=0.2, T=800.0)
    grid = np.linspace(0.0, 800.0, 20 * 2 * 60 + 1)
    path = simulate_truth(truth, SIGNAL, grid, seed=71)
    obs_times = np.linspace(0.0, 800.0, 21)
    data = generate_observations(path, obs_times, truth, ObservationModel(0.05), seed=72)
    return InferenceProblem(data=data, signal=SIGNAL, obs=ObservationModel(0.05), j=2)


def averaged_median(x):
    """The 50th level by the rule `diagnostics._percentiles` keeps, NumPy's
    ``averaged_inverted_cdf``: the step's fit ``median_abs_dh``."""
    return np.percentile(x, 50, method="averaged_inverted_cdf")


def small_config(**kw):
    base = dict(n_mc=20, theta0=(1.0, 0.5), masses=MASSES, integrator=STEP, seed=1)
    base.update(kw)
    return HmcConfig(**base)


class TestHmcConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            small_config(n_mc=0)
        with pytest.raises(ValidationError):
            small_config(chains=0)

    def test_rejects_bad_start(self):
        for theta0 in [(0.0, 0.5), (1.0, -0.2), (np.nan, 0.5)]:
            with pytest.raises(ValidationError):
                small_config(theta0=theta0)

    def test_start_of_three_numbers_rejected(self):
        # not silently cut to its first two
        with pytest.raises(ValidationError, match="theta0"):
            small_config(theta0=(1.0, 0.5, 7.0))

    def test_start_of_one_number_rejected(self):
        with pytest.raises(ValidationError, match="theta0"):
            small_config(theta0=(1.0,))

    @pytest.mark.parametrize("theta0", [("1", 0.5), (1.0, True), "12", 1.0, None])
    def test_start_that_is_not_a_pair_of_numbers_rejected(self, theta0):
        # a string is not converted, a bool is not a number
        with pytest.raises(ValidationError, match="theta0"):
            small_config(theta0=theta0)

    def test_start_is_two_floats(self):
        for theta0 in ([1, 0.5], np.array([1.0, 0.5])):
            cfg = small_config(theta0=theta0)
            assert cfg.theta0 == (1.0, 0.5)
            assert all(type(x) is float for x in cfg.theta0)

    @pytest.mark.parametrize("field, value", [("M", "720"), ("m_prime", True), ("m_alpha", 5.0)])
    def test_masses_that_are_not_numbers_rejected(self, field, value):
        masses = dict(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
        masses[field] = value
        with pytest.raises(ValidationError, match=field):
            small_config(masses=MassConfig(**masses))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            small_config(seed=-1)
        with pytest.raises(ValidationError):
            small_config(seed=2**64)

    def test_echo_is_json_ready(self):
        cfg = small_config(seed=9, chains=3)
        echo = json.loads(json.dumps(asdict(cfg)))
        assert echo["n_mc"] == 20
        assert echo["seed"] == 9
        assert echo["chains"] == 3
        assert echo["masses"]["M"] == 720.0
        assert echo["integrator"] == {"d_tau": 0.25, "P": 3}

    def test_echo_rebuilds_the_config(self):
        cfg = small_config(seed=2**64 - 1, chains=5, theta0=(1.25, 0.75))
        echo = json.loads(json.dumps(asdict(cfg)))
        echo["masses"] = MassConfig(**echo["masses"])
        echo["integrator"] = IntegratorConfig(**echo["integrator"])
        assert HmcConfig(**echo) == cfg


class TestIntegerCounts:
    """P, n_mc, chains, seed and j are checked as integers when the config
    is built, not when a chain first uses them."""

    def build(self, field, value, toy_problem):
        if field == "P":
            return IntegratorConfig(d_tau=0.25, P=value)
        if field == "j":
            return InferenceProblem(
                data=toy_problem.data, signal=SIGNAL, obs=toy_problem.obs, j=value
            )
        return small_config(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    @pytest.mark.parametrize("field", ["P", "n_mc", "chains", "seed", "j"])
    def test_non_integer_rejected_at_construction(self, field, value, toy_problem):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            self.build(field, value, toy_problem)

    @pytest.mark.parametrize("field", ["P", "n_mc", "chains", "seed", "j"])
    def test_numpy_integer_accepted_as_int(self, field, toy_problem):
        built = self.build(field, np.int64(3), toy_problem)
        assert type(getattr(built, field)) is int and getattr(built, field) == 3

    def test_numpy_integer_counts_echo_and_run(self, toy_problem):
        step = IntegratorConfig(d_tau=0.25, P=np.int32(2))
        cfg = small_config(
            n_mc=np.int64(3), chains=np.int16(1), seed=np.uint64(1), integrator=step
        )
        echo = json.loads(json.dumps(asdict(cfg)))
        assert echo["integrator"]["P"] == 2 and echo["n_mc"] == 3
        rec = run_chain(toy_problem, cfg)
        want = run_chain(toy_problem, small_config(n_mc=3, integrator=IntegratorConfig(0.25, 2)))
        np.testing.assert_array_equal(rec.beta, want.beta)


class TestInferenceProblem:
    def test_rejects_bad_refinement(self, toy_problem):
        with pytest.raises(ValidationError):
            InferenceProblem(
                data=toy_problem.data, signal=SIGNAL, obs=toy_problem.obs, j=0
            )

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160])
    def test_rejects_sigma_whose_inverse_square_overflows(self, toy_problem, sigma):
        # positive and finite, but its noise model refuses it, so no plan
        # can be built on it (TestObservationModel in test_model.py)
        with pytest.raises(ValidationError, match="1/sigma\\^2 overflows"):
            InferenceProblem(
                data=toy_problem.data, signal=SIGNAL, obs=ObservationModel(sigma), j=5
            )

    def test_small_sigma_with_a_finite_weight_is_kept(self, toy_problem):
        obs = ObservationModel(1e-150)
        problem = InferenceProblem(data=toy_problem.data, signal=SIGNAL, obs=obs, j=5)
        assert problem.context().inv_sigma2 == obs.inv_sigma2 == 1.0 / 1e-150 / 1e-150

    def test_context_matches_data(self, toy_problem):
        ctx = toy_problem.context()
        assert ctx.layout.n == toy_problem.data.n_segments
        assert ctx.layout.N == 4 * 5 + 1
        assert ctx.layout.T == toy_problem.data.horizon

    def test_contexts_share_one_layout(self, toy_problem):
        first, second = toy_problem.context(), toy_problem.context()
        assert first is not second
        assert first.layout is second.layout is toy_problem.layout

    def test_pickle_round_trip_compares_equal(self, toy_problem):
        back = pickle.loads(pickle.dumps(toy_problem))
        assert back == toy_problem and hash(back) == hash(toy_problem)

    def test_pickle_round_trip(self, toy_problem):
        back = pickle.loads(pickle.dumps(toy_problem))
        assert back.layout == toy_problem.layout
        assert back.context().layout is back.layout
        cfg = small_config(n_mc=5, seed=3)
        np.testing.assert_array_equal(run_chain(back, cfg).beta, run_chain(toy_problem, cfg).beta)


class TestSampleMomenta:
    def test_class_variances(self):
        # 50,000 draws on a 5-bead layout: >= 1e5 samples per class
        layout = LatticeLayout(2, 2, 4.0)
        scale = OscillatorBank.build(layout, MASSES, STEP.d_tau).scale
        rng = np.random.default_rng(123)
        ps, pis = [], []
        for _ in range(50_000):
            p, pi = sample_momenta(scale, rng)
            ps.append(p)
            pis.append(pi)
        ps = np.array(ps)
        pis = np.array(pis)
        bound = np.arange(layout.n + 1) * layout.j
        stage = np.arange(layout.N) % layout.j != 0
        var_bound = ps[:, bound].var()
        var_stage = ps[:, stage].var()
        var_pi = pis.var()
        assert abs(var_bound / MASSES.M - 1) < 0.02
        assert abs(var_stage / (MASSES.m_prime / layout.dt) - 1) < 0.02
        assert abs(var_pi / 150.0 - 1) < 0.02

    def test_zero_mass_rejected_at_config(self):
        with pytest.raises(ValidationError):
            MassConfig(M=0.0, m_prime=130.0, m_alpha=(150.0, 150.0))
        with pytest.raises(ValidationError):
            MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 0.0))

    def test_fixed_seed_reproducible(self):
        scale = OscillatorBank.build(LatticeLayout(3, 10, 83.0), MASSES, STEP.d_tau).scale
        p1, pi1 = sample_momenta(scale, np.random.default_rng(42))
        p2, pi2 = sample_momenta(scale, np.random.default_rng(42))
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(pi1, pi2)

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_single_draw_matches_two_draws(self, seed):
        layout = LatticeLayout(3, 10, 83.0)
        scale = OscillatorBank.build(layout, MASSES, STEP.d_tau).scale
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for _ in range(200):
            p, pi = sample_momenta(scale, rng)
            z = ref.standard_normal(layout.N)
            p_ref = z * np.sqrt(MASSES.m_prime / layout.dt)
            p_ref[:: layout.j] = z[:: layout.j] * np.sqrt(MASSES.M)
            pi_ref = ref.standard_normal(2) * np.sqrt(np.asarray(MASSES.m_alpha))
            np.testing.assert_array_equal(p, p_ref)
            np.testing.assert_array_equal(pi, pi_ref)
        # both streams stand at the same position afterwards
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("seed", [3, 17])
    def test_draw_into_out_matches_allocating_draw(self, seed):
        layout = LatticeLayout(3, 10, 83.0)
        scale = OscillatorBank.build(layout, MASSES, STEP.d_tau).scale
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        row = np.full(2 * layout.N + 2, np.nan)[layout.N :]  # as the workspace holds it
        for _ in range(20):
            p, pi = sample_momenta(scale, rng, out=row)
            p_ref, pi_ref = sample_momenta(scale, ref)
            assert np.shares_memory(p, row) and np.shares_memory(pi, row)
            assert p.tobytes() == p_ref.tobytes() and pi.tobytes() == pi_ref.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_draw_into_out_of_the_wrong_size_raises(self):
        scale = OscillatorBank.build(LatticeLayout(3, 10, 83.0), MASSES, STEP.d_tau).scale
        with pytest.raises(ValueError):
            sample_momenta(scale, np.random.default_rng(0), out=np.empty(scale.size - 2))

    def test_scale_table_follows_masses_and_layout(self):
        # each (masses, layout) builds its own table; a switch of either,
        # and back, must scale by the right one
        layouts = LatticeLayout(3, 10, 83.0), LatticeLayout(3, 5, 83.0)
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(15.0, 150.0))
        for masses, layout in ((MASSES, layouts[0]), (other, layouts[0]),
                               (other, layouts[1]), (MASSES, layouts[0])):
            scale = OscillatorBank.build(layout, masses, STEP.d_tau).scale
            p, pi = sample_momenta(scale, np.random.default_rng(9))
            z = np.random.default_rng(9).standard_normal(layout.N + 2)
            want = z[: layout.N] * np.sqrt(masses.m_prime / layout.dt)
            want[:: layout.j] = z[: layout.N : layout.j] * np.sqrt(masses.M)
            np.testing.assert_array_equal(p, want)
            np.testing.assert_array_equal(pi, z[layout.N :] * np.sqrt(masses.m_alpha))

    def test_scale_table_is_read_only(self):
        scale = OscillatorBank.build(LatticeLayout(3, 10, 83.0), MASSES, STEP.d_tau).scale
        assert scale.shape == (33,)
        with pytest.raises(ValueError):
            scale[0] = 1.0


class _NoDraw:
    """RNG stub that fails the test if a uniform is requested."""

    def random(self):
        raise AssertionError("metropolis consumed a draw it should not need")


class _Fixed:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestMetropolis:
    def test_downhill_always_accepted_without_draw(self):
        assert metropolis_accept(10.0, 3.0, _NoDraw())
        assert metropolis_accept(5.0, 5.0, _NoDraw())

    def test_nonfinite_rejected_without_draw(self):
        assert not metropolis_accept(1.0, np.inf, _NoDraw())
        assert not metropolis_accept(1.0, np.nan, _NoDraw())
        assert not metropolis_accept(np.inf, np.inf, _NoDraw())

    def test_gap_of_minus_inf_accepted_without_draw(self):
        # a start of infinite energy has zero probability: leave it
        assert metropolis_accept(np.inf, 1.0, _NoDraw())
        assert metropolis_accept(np.inf, -np.inf, _NoDraw())
        assert metropolis_accept(1.0, -np.inf, _NoDraw())

    def test_decision_uses_single_uniform(self):
        # exp(-0.5) = 0.6065...
        assert metropolis_accept(0.0, 0.5, _Fixed(0.60))
        assert not metropolis_accept(0.0, 0.5, _Fixed(0.61))

    def test_rate_matches_boltzmann_factor(self):
        dh = 0.35
        rng = np.random.default_rng(2024)
        hits = sum(metropolis_accept(0.0, dh, rng) for _ in range(10_000))
        assert abs(hits / 10_000 - np.exp(-dh)) < 0.02


def start_state(problem, theta0=(1.0, 0.5)):
    """The data-pinned start of a chain on ``problem``."""
    return initial_state(
        problem.data, problem.signal, DimensionlessParams(*theta0), problem.layout
    )


def new_chain(problem, cfg=None, state=None):
    cfg = small_config() if cfg is None else cfg
    return Chain(problem, cfg, start_state(problem, cfg.theta0) if state is None else state)


def step_config(d_tau, **kw):
    return small_config(integrator=IntegratorConfig(d_tau=d_tau, P=STEP.P), **kw)


def refreshed(chain, rng):
    """The chain's state with the momenta that ``rng`` draws next, drawn
    from a copy of it."""
    state = chain.state()
    state.p, state.pi = sample_momenta(chain.bank.scale, copy.deepcopy(rng))
    return state


class TestHmcIteration:
    def test_h_before_matches_refreshed_state(self, toy_problem):
        chain = new_chain(toy_problem)
        expected = h_total(refreshed(chain, np.random.default_rng(5)), toy_problem.context(), MASSES)
        out, stats_out = hmc_iteration(chain, np.random.default_rng(5))
        assert out is chain
        assert stats_out.h_before == expected.total
        assert stats_out.dh == stats_out.h_after - stats_out.h_before

    def test_rejection_reverts_positions(self, toy_problem):
        chain = new_chain(toy_problem, step_config(40.0))
        before = chain.state()
        _, stats_out = hmc_iteration(chain, np.random.default_rng(0))
        assert not stats_out.accepted
        assert stats_out.pathology is not None
        np.testing.assert_array_equal(chain.state().u, before.u)
        np.testing.assert_array_equal(chain.state().theta, before.theta)

    def test_nonpositive_parameter_is_rejected(self, posterior_problem):
        beta0 = float(np.sqrt(800.0 * 0.5 / 200.0))
        # gamma is nearly massless, so the drift throws it negative
        cfg = small_config(
            theta0=(beta0, 0.5),
            masses=MassConfig(720.0, 130.0, (1e30, 0.02)),
        )
        chain = new_chain(posterior_problem, cfg)
        _, stats_out = hmc_iteration(chain, np.random.default_rng(0))
        assert stats_out.pathology == "nonpositive-parameter"
        assert not stats_out.accepted
        assert stats_out.h_after == np.inf

    @pytest.mark.parametrize("d_tau, accepted", [(0.25, True), (40.0, False)])
    def test_input_state_not_mutated(self, toy_problem, d_tau, accepted):
        state = start_state(toy_problem)
        state.p[:] = 1.5
        state.pi[:] = -0.5
        snapshot = copy.deepcopy(state)
        chain = new_chain(toy_problem, step_config(d_tau), state)
        _, stats_out = hmc_iteration(chain, np.random.default_rng(4))
        assert stats_out.accepted is accepted
        for name in ("u", "theta", "p", "pi"):
            np.testing.assert_array_equal(getattr(state, name), getattr(snapshot, name))

    def after_momenta(self, seed, chain):
        """A stream of ``seed`` past one momentum refresh of ``chain``."""
        rng = np.random.default_rng(seed)
        sample_momenta(chain.bank.scale, rng)
        return rng

    def test_proposal_overflowing_to_minus_inf_is_rejected(self, toy_problem, monkeypatch):
        # a gap of -inf alone would be accepted: the pathology rejects it,
        # without a draw
        import staghmc.sampler as sampler

        end_energy = sampler._end_energy
        scored = []

        def overflowed(*args):  # the second score, the proposal's, overflows
            h_N, h_n, h_1, total = end_energy(*args)
            scored.append(total)
            if len(scored) == 1:
                return h_N, h_n, h_1, total
            return h_N, h_n, -np.inf, -np.inf

        _, finite = hmc_iteration(new_chain(toy_problem), np.random.default_rng(6))
        assert finite.accepted and finite.pathology is None  # the control
        chain = new_chain(toy_problem)
        cur = chain.cur
        rng = np.random.default_rng(6)
        monkeypatch.setattr(sampler, "_end_energy", overflowed)
        _, stats_out = hmc_iteration(chain, rng)
        assert len(scored) == 2 and stats_out.h_before == scored[0] < np.inf
        assert stats_out.h_after == -np.inf
        assert stats_out.pathology == "nonfinite-energy"
        assert not stats_out.accepted and chain.cur is cur
        assert rng.random() == self.after_momenta(6, chain).random()

    def test_start_of_infinite_energy_moves_to_a_finite_proposal(self, toy_problem):
        chain = new_chain(toy_problem)
        chain.potential = (np.inf, chain.potential[1])
        cur = chain.cur
        rng = np.random.default_rng(6)
        _, stats_out = hmc_iteration(chain, rng)
        assert stats_out.h_before == np.inf and np.isfinite(stats_out.h_after)
        assert stats_out.accepted and stats_out.pathology is None and chain.cur is not cur
        assert rng.random() == self.after_momenta(6, chain).random()


class TestMomentumRefresh:
    """The iteration draws its momenta into the chain's workspace."""

    def run(self, problem, state, masses, d_tau, seed):
        chain = new_chain(problem, step_config(d_tau, masses=masses), state)
        return chain, hmc_iteration(chain, np.random.default_rng(seed))[1]

    def test_chains_of_other_settings_match_fresh_problems(self, toy_problem):
        # a chain builds its momentum scale and looks its bank up from its
        # settings; chains of other settings in turn must each get their own
        state = start_state(toy_problem)
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(150.0, 150.0))
        for seed, (masses, d_tau) in enumerate(((MASSES, 0.25), (other, 0.25), (MASSES, 0.3))):
            got, got_stats = self.run(toy_problem, state, masses, d_tau, seed)
            fresh = pickle.loads(pickle.dumps(toy_problem))
            want, want_stats = self.run(fresh, state, masses, d_tau, seed)
            for name in ("u", "theta"):
                assert getattr(got.state(), name).tobytes() == getattr(want.state(), name).tobytes()
            assert got_stats == want_stats
            assert got.theta == want.theta and got.potential == want.potential

    def test_chain_holds_the_bank_of_its_settings_and_P(self, toy_problem):
        # the bank is the step, masses and d_tau included; the chain keeps
        # it and P, not the settings they came from
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(15.0, 150.0))
        for cfg in (small_config(), step_config(0.3, masses=other)):
            chain = new_chain(toy_problem, cfg)
            integ = cfg.integrator
            assert chain.bank is OscillatorBank.build(toy_problem.layout, cfg.masses, integ.d_tau)
            assert (chain.bank.masses, chain.bank.d_tau) == (cfg.masses, integ.d_tau)
            assert chain.P == integ.P and type(chain.P) is int
            assert not hasattr(chain, "masses") and not hasattr(chain, "integrator")

    def test_interleaved_chains_match_their_solo_runs(self, toy_problem):
        # two chains of other masses and layouts, stepped in turn in one
        # process, each hold their own tables and run as they run alone
        coarse = InferenceProblem(toy_problem.data, SIGNAL, toy_problem.obs, j=3)
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(15.0, 150.0))
        plans = (
            (toy_problem, step_config(1.0), 21),
            (coarse, step_config(1.0, masses=other), 22),
        )

        def step(chain, rng):
            _, stats_out = hmc_iteration(chain, rng)
            return (*chain.theta, stats_out.accepted, stats_out.h_before, stats_out.h_after)

        solo = []
        for problem, cfg, seed in plans:
            chain, rng = new_chain(problem, cfg), np.random.default_rng(seed)
            solo.append(np.array([step(chain, rng) for _ in range(40)]))
        runs = [(new_chain(p, cfg), np.random.default_rng(seed)) for p, cfg, seed in plans]
        mixed = [[], []]
        for _ in range(40):
            for rows, (chain, rng) in zip(mixed, runs):
                rows.append(step(chain, rng))
        assert runs[0][0].cur.layout.N != runs[1][0].cur.layout.N
        for want, got in zip(solo, mixed):
            assert np.array(got).tobytes() == want.tobytes()
            assert 0 < want[:, 2].sum() < len(want)  # accepted some, not all

    def test_rejection_leaves_the_chain_as_it_was(self, toy_problem):
        chain = new_chain(toy_problem, step_config(1.0))
        rng = np.random.default_rng(1)
        rejected = 0
        for _ in range(40):
            kept = (chain.cur, chain.work, chain.theta, chain.potential, chain.g_theta)
            u, g_u = chain.cur.rows.u.tobytes(), chain.cur.rows.g_u.tobytes()
            _, stats_out = hmc_iteration(chain, rng)
            if stats_out.accepted:
                continue
            rejected += 1
            assert (chain.cur, chain.work, chain.theta, chain.potential, chain.g_theta) == kept
            # the beads and the u part of their force stay too
            assert chain.cur.rows.u.tobytes() == u
            assert chain.cur.rows.g_u.tobytes() == g_u
        assert rejected

    def test_accepted_state_shares_no_memory_with_the_workspace(self, toy_problem):
        from test_energy import workspace_arrays

        state = start_state(toy_problem)
        chain, stats_out = self.run(toy_problem, state, MASSES, 0.25, 0)
        assert stats_out.accepted
        out = chain.state()
        arrays = [out.u, out.theta, out.p, out.pi, state.u, state.theta, state.p, state.pi]
        for row in workspace_arrays(chain.cur) + workspace_arrays(chain.work):
            for array in arrays:
                assert not np.shares_memory(array, row)

    def test_iterations_hash_no_settings(self, toy_problem, monkeypatch):
        chain = new_chain(toy_problem)
        rng = np.random.default_rng(2)
        hmc_iteration(chain, rng)
        hashed = []
        for cls in (MassConfig, type(chain.cur.layout)):
            def counted(obj, _hash=cls.__hash__):
                hashed.append(type(obj).__name__)
                return _hash(obj)

            monkeypatch.setattr(cls, "__hash__", counted)
        for _ in range(10):
            hmc_iteration(chain, rng)
        assert hashed == []
        hash(MASSES)  # the counter itself works
        assert hashed == ["MassConfig"]


class TestSaturatingStates:
    """Extreme parameters saturate to inf/NaN without a single warning, and
    a chain cannot start there: its force is not finite."""

    @pytest.mark.parametrize(
        "theta", [(1e200, 0.2), (1.0, 1e-200), (1e-200, 0.2), (1e-170, 1e-170)]
    )
    def test_warning_free_and_rejected(self, toy_problem, theta):
        ctx = toy_problem.context()
        state = start_state(toy_problem)
        state.theta[:] = theta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h_total(state, ctx, MASSES)
            with pytest.raises(NonFiniteError):
                grad_hprime(state, ctx)
            with pytest.raises(NonFiniteError):
                new_chain(toy_problem, state=state)


class TestCarriedPotential:
    def test_call_budget_of_one_iteration(self, toy_problem, monkeypatch):
        import staghmc.integrator
        import staghmc.lattice
        import staghmc.sampler

        chain = new_chain(toy_problem)
        rng = np.random.default_rng(3)
        calls = {"grad": 0, "inverse": 0, "potential": 0, "h_total": 0}
        kernel = inspect.signature(staghmc.integrator._hprime)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                if key == "grad":  # does this pass form the potential too?
                    bound = kernel.bind(*args, **kwargs)
                    bound.apply_defaults()
                    calls["potential"] += bool(bound.arguments["potential"])
                return fn(*args, **kwargs)

            return wrapper

        # the trajectory's entry into the kernel, the kernel's staging map,
        # and the scorer the chain starts with
        monkeypatch.setattr(
            staghmc.integrator, "_hprime", counted("grad", staghmc.integrator._hprime)
        )
        rows = staghmc.lattice._StagingRows
        monkeypatch.setattr(rows, "inverse", counted("inverse", rows.inverse))
        monkeypatch.setattr(staghmc.sampler, "h_total", counted("h_total", h_total))
        _, stats_out = hmc_iteration(chain, rng)
        assert stats_out.pathology is None
        # P passes, of which only the last forms the proposal's potential
        assert calls == {"grad": STEP.P, "inverse": STEP.P, "potential": 1, "h_total": 0}

    def test_call_budget_of_chain_construction(self, toy_problem, monkeypatch):
        # one kernel pass forms both the start's potential and its force,
        # whatever route reaches the kernel, and the chain calls no h_total
        import staghmc.energy
        import staghmc.lattice
        import staghmc.sampler

        passes, calls = [], {"inverse": 0, "h_total": 0}
        kernel = staghmc.energy._hprime
        signature = inspect.signature(kernel)

        def counted_kernel(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            passes.append((bound.arguments["gradient"], bound.arguments["potential"]))
            return kernel(*args, **kwargs)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner in (staghmc.energy, staghmc.sampler):
            monkeypatch.setattr(owner, "_hprime", counted_kernel)
        rows = staghmc.lattice._StagingRows
        monkeypatch.setattr(rows, "inverse", counted("inverse", rows.inverse))
        monkeypatch.setattr(staghmc.sampler, "h_total", counted("h_total", h_total))
        chain = new_chain(toy_problem)
        assert passes == [(True, True)]
        assert calls == {"inverse": 1, "h_total": 0}
        # the pass's potential and force are those of a fresh evaluation;
        # chain.state() has zero momenta, so h_n and h_1 are position parts
        ctx = toy_problem.context()
        assert chain.potential == h_total(chain.state(), ctx, MASSES)[1:3]
        assert chain.g_theta == tuple(grad_hprime(chain.state(), ctx).g_theta.tolist())

    def test_carried_h_before_matches_fresh_energy(self, toy_problem):
        # a long step, so that some proposals are rejected on dH alone and
        # some meet a pathology
        ctx = toy_problem.context()
        chain = new_chain(toy_problem, step_config(2.0))
        rng = np.random.default_rng(11)
        outcomes = []
        for _ in range(40):
            expected = h_total(refreshed(chain, rng), ctx, MASSES).total
            _, stats_out = hmc_iteration(chain, rng)
            assert stats_out.h_before == expected
            assert chain.potential == h_total(chain.state(), ctx, MASSES)[1:3]
            outcomes.append((stats_out.accepted, stats_out.pathology))
        assert any(acc for acc, _ in outcomes)
        assert any(not acc and path is None for acc, path in outcomes)
        assert any(path is not None for _, path in outcomes)

    def test_h_after_is_h_total_of_the_proposal(self, toy_problem):
        # the sampler scores the proposal in the workspace and keeps it
        # there on acceptance; its energy must still be h_total's, bit for
        # bit, at the preset step (all accepted here) and a long one
        ctx = toy_problem.context()
        outcomes = []
        for d_tau in (STEP.d_tau, 1.0):
            cfg = step_config(d_tau)
            chain = new_chain(toy_problem, cfg)
            rng = np.random.default_rng(13)
            for _ in range(100):
                start = refreshed(chain, rng)
                _, stats_out = hmc_iteration(chain, rng)
                if stats_out.pathology is not None:
                    continue
                proposal = trotter_propagate(start, ctx, MASSES, cfg.integrator)
                assert stats_out.h_after == h_total(proposal, ctx, MASSES).total
                if stats_out.accepted:  # the chain holds the proposal
                    assert chain.state().u.tobytes() == proposal.u.tobytes()
                    assert chain.theta == tuple(proposal.theta.tolist())
                outcomes.append(stats_out.accepted)
        assert len(outcomes) > 150
        assert any(outcomes) and not all(outcomes)

    def test_acceptance_swaps_workspaces_and_copies_nothing_out(self, toy_problem, monkeypatch):
        import staghmc.energy
        import staghmc.integrator

        chain = new_chain(toy_problem, step_config(1.0))

        def forbidden(*args, **kwargs):
            raise AssertionError("an iteration built a state or a workspace")

        for owner, name in (
            (staghmc.integrator, "_proposal"),
            (PolymerState, "__post_init__"),
            (staghmc.energy.PathContext, "__init__"),
        ):
            monkeypatch.setattr(owner, name, forbidden)
        rng = np.random.default_rng(13)
        accepted = []
        for _ in range(40):
            cur, work = chain.cur, chain.work
            _, stats_out = hmc_iteration(chain, rng)
            swapped = (work, cur) if stats_out.accepted else (cur, work)
            assert (chain.cur, chain.work) == swapped
            accepted.append(stats_out.accepted)
        assert any(accepted) and not all(accepted)

    def test_carried_force_matches_fresh_gradient(self, toy_problem):
        ctx = toy_problem.context()
        chain = new_chain(toy_problem, step_config(2.0))
        rng = np.random.default_rng(11)

        def fresh():  # the force the chain carries is the gradient of its beads
            want = grad_hprime(chain.state(), ctx)
            np.testing.assert_array_equal(chain.cur.rows.g_u, want.g_u)
            assert chain.g_theta == tuple(want.g_theta.tolist())

        fresh()  # the start's, from the chain's construction
        outcomes = []
        for _ in range(40):
            given = chain.g_theta
            _, stats_out = hmc_iteration(chain, rng)
            if not stats_out.accepted:
                assert chain.g_theta == given  # a rejection keeps the force
            fresh()
            outcomes.append((stats_out.accepted, stats_out.pathology))
        assert any(acc for acc, _ in outcomes)
        assert any(not acc and path is None for acc, path in outcomes)
        assert any(path is not None for _, path in outcomes)

    def test_nonfinite_start_force_is_refused_at_construction(self, toy_problem):
        # a chain is built with the force of its start; a start whose force
        # is not finite is refused there, without a warning
        state = start_state(toy_problem)
        state.u[toy_problem.j] = np.inf
        with pytest.raises(NonFiniteError):
            grad_hprime(state, toy_problem.context())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="gradient w.r.t. u"):
                new_chain(toy_problem, state=state)

    def test_zero_parameter_start_is_refused_at_construction(self, toy_problem):
        # gamma = 0, and beta or gamma below 0, where every proposal would
        # be rejected as nonpositive-parameter
        for index, value in ((1, 0.0), (0, -2.0), (1, -0.5)):
            state = start_state(toy_problem)
            state.theta[index] = value
            with pytest.raises(DomainError, match="^a chain must start at beta > 0 and gamma > 0"):
                new_chain(toy_problem, state=state)


class TestResume:
    """A chain rebuilt from `Chain.state()` continues as the original does:
    the beads, theta and the generator are all that an exact resume needs,
    since a chain is built with the force and the potential of its start."""

    @staticmethod
    def run(chain, rng, m):
        rows = []
        for _ in range(m):
            _, stats_out = hmc_iteration(chain, rng)
            rows.append((*chain.theta, stats_out.accepted, stats_out.h_before, stats_out.h_after))
        return np.array(rows)

    @pytest.mark.parametrize("last_accepted", [False, True], ids=["rejected", "accepted"])
    def test_rebuilt_chain_continues_bit_for_bit(self, toy_problem, last_accepted):
        cfg = step_config(1.0)
        chain = new_chain(toy_problem, cfg)
        rng = np.random.default_rng(21)
        # k iterations, at least 5, of which the last ended as asked
        for k in range(1, 200):
            _, stats_out = hmc_iteration(chain, rng)
            if k >= 5 and stats_out.accepted is last_accepted:
                break
        assert stats_out.accepted is last_accepted
        resumed = Chain(toy_problem, cfg, chain.state())
        assert resumed.cur.rows.g_u.tobytes() == chain.cur.rows.g_u.tobytes()
        assert resumed.g_theta == chain.g_theta
        assert resumed.theta == chain.theta and resumed.potential == chain.potential
        got = self.run(resumed, copy.deepcopy(rng), 30)
        want = self.run(chain, rng, 30)
        assert got.tobytes() == want.tobytes()
        accepted = want[:, 2]
        assert accepted.any() and not accepted.all()

    @pytest.mark.parametrize(
        "route",
        [lambda c: pickle.loads(pickle.dumps(c)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copy_is_refused(self, toy_problem, route):
        # a workspace unpickles empty, so a copy would continue from beads
        # it never had; the rebuild above is the one copy
        chain = new_chain(toy_problem)
        with pytest.raises(TypeError, match=r"Chain\(problem, config, chain\.state\(\)\)"):
            route(chain)


class TestRunChain:
    def test_more_than_one_chain_is_refused(self, toy_problem):
        # one record whose meta echoes chains = 4 would misreport the run
        with pytest.raises(ValidationError, match="run_parallel_chains"):
            run_chain(toy_problem, small_config(chains=4))

    def test_failure_names_chain_0(self, toy_problem, monkeypatch):
        # run_chain is run_parallel_chains of one chain: a start whose force
        # is not finite is reported as that runner reports a failed chain
        import staghmc.sampler

        def infinite_start(*args):
            state = initial_state(*args)
            state.u[toy_problem.j] = np.inf
            return state

        monkeypatch.setattr(staghmc.sampler, "initial_state", infinite_start)
        with pytest.raises(StagHmcError, match="^chain 0: NonFiniteError: ") as raised:
            run_chain(toy_problem, small_config(n_mc=5))
        assert type(raised.value) is StagHmcError
        # its cause is the chain's traceback, down to the start that failed
        cause = self.chain_traceback(raised.value, 1)
        assert "in _start_chain" in cause
        assert "staghmc.errors.NonFiniteError: " in cause

    def test_pool_failure_keeps_its_cause(self, toy_problem, monkeypatch):
        # of two chains on the pool, chain 1 fails in a worker: its message
        # is the lone chain's form, and its traceback comes back as the cause
        import staghmc.sampler

        run_seeded = staghmc.sampler._run_seeded

        def chain_1_fails(problem, config, chain_index, seed_seq):
            if chain_index == 1:
                raise IndexError("injected failure")
            return run_seeded(problem, config, chain_index, seed_seq)

        # the pool forks, so its workers inherit the patch
        monkeypatch.setattr(staghmc.sampler, "_run_seeded", chain_1_fails)
        with pytest.raises(StagHmcError, match="^chain 1: IndexError: injected failure$") as raised:
            run_parallel_chains(toy_problem, small_config(n_mc=5, chains=2))
        cause = self.chain_traceback(raised.value, 1)
        assert "in chain_1_fails" in cause
        assert "\nIndexError: injected failure\n" in cause

    @staticmethod
    def chain_traceback(error, n_failed):
        """The text of the traceback cause of ``error``, checked to hold
        ``n_failed`` formatted tracebacks."""
        cause = error.__cause__
        assert cause is not None and error.__suppress_context__
        text = str(cause)
        assert text.count("Traceback (most recent call last):") == n_failed
        assert "in _chain_worker" in text
        return text

    @staticmethod
    def literal_chain(problem, cfg):
        """The chain of ``cfg`` written out from public functions: refresh
        the momenta, score the refreshed state, propagate, score the
        proposal, and apply the Metropolis test with the sampler's rules. A
        proposal that raises, leaves beta > 0 and gamma > 0, or has an
        energy that is not finite is rejected without a draw."""
        layout = problem.layout
        state = initial_state(
            problem.data, problem.signal, DimensionlessParams(*cfg.theta0), layout
        )
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        rows = []
        scale = OscillatorBank.build(layout, cfg.masses, cfg.integrator.d_tau).scale
        for _ in range(cfg.n_mc):
            refreshed = copy.deepcopy(state)
            refreshed.p, refreshed.pi = sample_momenta(scale, rng)
            h_before = h_total(refreshed, problem.context(), cfg.masses).total
            try:
                proposal = trotter_propagate(
                    refreshed, problem.context(), cfg.masses, cfg.integrator
                )
            except (NonFiniteError, DomainError):
                proposal = None
            h_after, valid = np.inf, False
            if proposal is not None and np.all(proposal.theta > 0):
                h_after = h_total(proposal, problem.context(), cfg.masses).total
                valid = bool(np.isfinite(h_after))
            accepted = valid and metropolis_accept(h_before, h_after, rng)
            if accepted:
                state = proposal
            rows.append((*state.theta.tolist(), accepted, h_before, h_after))
        return np.array(rows).T

    # three seeds at the preset step, and one step that meets all three
    # kinds of pathology
    @pytest.mark.parametrize("seed, d_tau", [(1, 0.25), (2, 0.25), (3, 0.25), (4, 3.0)])
    def test_matches_a_literal_hmc_loop(self, toy_problem, seed, d_tau):
        cfg = small_config(n_mc=60, seed=seed, integrator=IntegratorConfig(d_tau=d_tau, P=3))
        rec = run_chain(toy_problem, cfg)
        want = self.literal_chain(toy_problem, cfg)
        got = (rec.beta, rec.gamma, rec.accepted, rec.h_before, rec.h_after)
        for name, a, b in zip(("beta", "gamma", "accepted", "H_before", "H_after"), got, want):
            assert a.tobytes() == b.astype(a.dtype).tobytes(), name
        assert rec.accepted.any() and not rec.accepted.all()
        if d_tau > 1.0:
            assert len(rec.meta["pathologies"]) == 3

    def test_record_shape_and_rates(self, toy_problem):
        rec = run_chain(toy_problem, small_config(n_mc=30))
        assert rec.n_rows == 30
        assert rec.acceptance_rate == rec.accepted.mean()
        assert rec.meta["acceptance_rate"] == rec.acceptance_rate

    def test_meta_counts_pathologies(self, toy_problem, monkeypatch):
        import staghmc.sampler

        seen = []
        iteration = staghmc.sampler.hmc_iteration

        def recorded(*args, **kwargs):
            out = iteration(*args, **kwargs)
            if out[1].pathology is not None:
                seen.append(out[1].pathology)
            return out

        monkeypatch.setattr(staghmc.sampler, "hmc_iteration", recorded)
        # a step long enough that some trajectories blow up
        cfg = small_config(n_mc=40, integrator=IntegratorConfig(d_tau=6.0, P=3))
        rec = run_chain(toy_problem, cfg)
        assert seen
        counts = {name: seen.count(name) for name in set(seen)}
        assert rec.meta["pathologies"] == counts
        # the step's fit is the median abs(dH) over the finite dH alone
        finite = np.isfinite(rec.dh)
        assert not finite.all()
        assert rec.meta["median_abs_dh"] == float(averaged_median(np.abs(rec.dh[finite])))
        assert run_chain(toy_problem, small_config(n_mc=5)).meta["pathologies"] == {}

    def test_meta_step_fit_without_a_finite_dh_is_none(self, toy_problem, monkeypatch):
        import staghmc.sampler

        def blown_up(chain, rng):
            return chain, IterationStats(False, 1.0, math.inf, math.inf, "nonfinite-energy")

        monkeypatch.setattr(staghmc.sampler, "hmc_iteration", blown_up)
        meta = run_chain(toy_problem, small_config(n_mc=5)).meta
        assert meta["median_abs_dh"] is None
        json.dumps(meta)

    @pytest.mark.parametrize("n_finite", [7, 8])
    def test_meta_step_fit_is_numpys_median(self, toy_problem, monkeypatch, n_finite):
        import staghmc.sampler

        # an odd and an even count of finite dH, with ties, among inf and nan
        drawn = np.random.default_rng(n_finite).normal(0.0, 2.0, n_finite).round(1)
        dhs = iter([math.inf, *drawn, math.nan, -math.inf])

        def given(chain, rng):
            dh = next(dhs)
            return chain, IterationStats(False, 1.0, 1.0 + dh, dh, None)

        monkeypatch.setattr(staghmc.sampler, "hmc_iteration", given)
        rec = run_chain(toy_problem, small_config(n_mc=n_finite + 3))
        finite = np.isfinite(rec.dh)
        assert finite.sum() == n_finite
        assert rec.meta["median_abs_dh"] == float(averaged_median(np.abs(rec.dh[finite])))

    def test_single_iteration_single_row(self, toy_problem):
        rec = run_chain(toy_problem, small_config(n_mc=1))
        assert rec.n_rows == 1

    def test_same_seed_identical(self, toy_problem):
        a = run_chain(toy_problem, small_config(n_mc=25, seed=77))
        b = run_chain(toy_problem, small_config(n_mc=25, seed=77))
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.accepted, b.accepted)
        np.testing.assert_array_equal(a.h_after, b.h_after)

    def test_back_transform_invariant(self, toy_problem):
        rec = run_chain(toy_problem, small_config(n_mc=40, seed=3))
        T = rec.meta["T"]
        np.testing.assert_allclose(rec.K, T * rec.gamma / rec.beta**2, rtol=1e-12)

    def test_meta_contents(self, toy_problem):
        cfg = small_config(n_mc=10, seed=5)
        rec = run_chain(toy_problem, cfg)
        assert rec.meta["data_digest"] == toy_problem.data.digest()
        assert rec.meta["config"] == asdict(cfg)
        assert rec.meta["wall_clock_s"] > 0
        assert rec.meta["j"] == toy_problem.j
        assert rec.meta["N"] == toy_problem.layout.N
        assert rec.meta["median_abs_dh"] == float(averaged_median(np.abs(rec.dh)))
        json.dumps(rec.meta)

    def test_csv_round_trip(self, toy_problem, tmp_path):
        rec = run_chain(toy_problem, small_config(n_mc=15, seed=8))
        path = tmp_path / "chain.csv"
        rec.to_csv(path)
        assert path.read_text().splitlines()[0] == CHAIN_CSV_HEADER
        back = ChainRecord.from_csv(path)
        np.testing.assert_array_equal(back.beta, rec.beta)
        np.testing.assert_array_equal(back.gamma, rec.gamma)
        np.testing.assert_array_equal(back.K, rec.K)
        np.testing.assert_array_equal(back.accepted, rec.accepted)
        np.testing.assert_array_equal(back.dh, rec.dh)

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 800, 9_000])
    def test_csv_bytes_match_savetxt(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        rec = ChainRecord(
            beta=rng.random(n_rows),
            gamma=rng.random(n_rows),
            K=100.0 * rng.random(n_rows),
            accepted=rng.random(n_rows) < 0.5,
            h_before=1e5 * rng.standard_normal(n_rows),
            h_after=rng.standard_normal(n_rows),
            dh=rng.standard_normal(n_rows) * 1e-300,
            meta={},
        )
        if n_rows:
            # a proposal that left the finite range records inf/NaN energies
            rec.h_after[-1] = np.inf
            rec.dh[-1] = np.nan
            rec.dh[0] = -np.inf
        ref = tmp_path / "ref.csv"
        np.savetxt(
            ref,
            np.column_stack(
                [np.arange(1, n_rows + 1, dtype=float), rec.beta, rec.gamma, rec.K,
                 rec.accepted.astype(float), rec.h_before, rec.h_after, rec.dh]
            ),
            delimiter=",",
            header=CHAIN_CSV_HEADER,
            comments="",
            fmt=["%d", "%.17g", "%.17g", "%.17g", "%d", "%.17g", "%.17g", "%.17g"],
        )
        path = tmp_path / "chain.csv"
        rec.to_csv(path)
        assert path.read_bytes() == ref.read_bytes()

    def test_csv_header_checked(self, toy_problem, tmp_path):
        rec = run_chain(toy_problem, small_config(n_mc=5))
        path = tmp_path / "chain.csv"
        rec.to_csv(path)
        body = path.read_text().splitlines()
        body[0] = "iter,beta,gamma"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(ValidationError):
            ChainRecord.from_csv(path)

    def test_bad_value_is_named_from_one_read(self, tmp_path, monkeypatch):
        # the line of a bad beta below comment lines comes with the rows:
        # the file is opened once, not scanned again for the line
        import builtins

        import staghmc.model

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        path = tmp_path / "chain.csv"
        body = ["1,1.5,0.5,10,1,3,3,0", "# resumed", "", "2,-1.5,0.5,10,1,3,3,0"]
        path.write_text(CHAIN_CSV_HEADER + "\n" + "\n".join(body) + "\n")
        monkeypatch.setattr(staghmc.model, "open", counting_open, raising=False)
        with pytest.raises(ValidationError) as raised:
            ChainRecord.from_csv(path)
        assert str(raised.value) == f"{path}, line 5: beta must be positive and finite, got -1.5"
        assert opened == [path]


def recording_context(monkeypatch, started, sent):
    """Patch this process's pipes, forks and pickling to record each worker
    it forks in ``started`` (its pid), and in ``sent`` each job written to
    a worker and each outcome read from it, as (the worker's number, job or
    "outcome"). A worker owns the two pipes made last before its fork. The
    forked workers inherit the patches but record nothing."""
    parent, pipes, owner = os.getpid(), [], {}
    pipe, fork, dump, load = os.pipe, os.fork, pickle.dump, pickle.load

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def recorded_fork():
        pid = fork()
        if pid:
            owner.update(dict.fromkeys(pipes[-2] + pipes[-1], len(started)))
            started.append(pid)
        return pid

    def recorded_dump(job, file, *args, **kwargs):
        if os.getpid() == parent:
            sent.append((owner[file.fileno()], job))
        return dump(job, file, *args, **kwargs)

    def recorded_load(file, *args, **kwargs):
        if os.getpid() == parent:
            sent.append((owner[file.fileno()], "outcome"))
        return load(file, *args, **kwargs)

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(pickle, "dump", recorded_dump)
    monkeypatch.setattr(pickle, "load", recorded_load)


def assert_handed_out_one_at_a_time(sent, chains):
    # one job per chain, in chain order, each one (index, its stream); a
    # worker gets its next job only after its outcome came back, and a
    # None ends it
    jobs = [job for _, job in sent if job not in (None, "outcome")]
    assert [index for index, _ in jobs] == list(range(chains))
    assert [seed.spawn_key for _, seed in jobs] == [(c,) for c in range(chains)]
    for worker in {worker for worker, _ in sent}:
        steps = [job for each, job in sent if each == worker]
        assert steps[-1] is None
        assert steps[1:-1:2] == ["outcome"] * (len(steps) // 2)


def assert_no_child():
    """This process has no child left, running or exited and not reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_descriptors():
    """How many descriptors this process holds open."""
    return len(os.listdir("/proc/self/fd"))


class TestParallelChains:
    def test_single_chain_matches_run_chain(self, toy_problem):
        cfg = small_config(n_mc=25, seed=6)
        solo = run_chain(toy_problem, cfg)
        par = run_parallel_chains(toy_problem, cfg)
        assert len(par) == 1
        np.testing.assert_array_equal(par[0].beta, solo.beta)
        np.testing.assert_array_equal(par[0].h_before, solo.h_before)

    def test_chains_are_distinct_and_ordered(self, toy_problem):
        cfg = small_config(n_mc=25, seed=6, chains=3)
        recs = run_parallel_chains(toy_problem, cfg)
        assert [r.meta["chain_index"] for r in recs] == [0, 1, 2]
        assert not np.array_equal(recs[0].beta, recs[1].beta)
        assert not np.array_equal(recs[1].beta, recs[2].beta)

    def test_pool_chains_match_in_process_runs(self, toy_problem, monkeypatch):
        # two CPUs in the mask, on any host: a pool of two workers
        import staghmc.sampler

        monkeypatch.setattr(staghmc.sampler.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(staghmc.sampler.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = small_config(n_mc=25, seed=8, chains=2)
        pooled = run_parallel_chains(toy_problem, cfg)
        seeds = np.random.SeedSequence(cfg.seed).spawn(2)
        for c, rec in enumerate(pooled):
            solo = _run_seeded(toy_problem, cfg, c, seeds[c])
            np.testing.assert_array_equal(rec.beta, solo.beta)
            np.testing.assert_array_equal(rec.gamma, solo.gamma)
            np.testing.assert_array_equal(rec.h_before, solo.h_before)

    def test_failures_reported_after_all_finish(self, toy_problem, monkeypatch):
        import staghmc.sampler

        def fail(problem, config, chain_index, seed_seq):
            raise StagHmcError(f"injected failure of chain {chain_index}")

        # the pool forks, so its workers inherit the patch
        monkeypatch.setattr(staghmc.sampler, "_run_seeded", fail)
        cfg = small_config(n_mc=4, chains=2)
        with pytest.raises(StagHmcError, match="chain 0.*chain 1"):
            run_parallel_chains(toy_problem, cfg)

    def test_lone_chain_makes_no_pool_and_names_its_failure(self, toy_problem, monkeypatch):
        # one worker, whether one chain, one CPU allowed on an eight-CPU
        # host, or no mask and an unknown CPU count, is this process: its
        # chains run here in turn, on their own streams, and a failure is
        # reported as a pool's is
        import staghmc.sampler

        run_seeded = staghmc.sampler._run_seeded

        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(staghmc.sampler.os, "fork", no_fork)
        monkeypatch.setattr(staghmc.sampler.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(staghmc.sampler.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        for chains, failing, masked in ((1, 0, True), (3, 1, True), (3, 1, False)):
            if not masked:
                monkeypatch.delattr(staghmc.sampler.os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(staghmc.sampler.os, "cpu_count", lambda: None)
            monkeypatch.setattr(staghmc.sampler, "_run_seeded", run_seeded)
            cfg = small_config(n_mc=5, seed=6, chains=chains)
            recs = run_parallel_chains(toy_problem, cfg)
            assert len(recs) == chains
            seeds = np.random.SeedSequence(cfg.seed).spawn(chains)
            for c, rec in enumerate(recs):
                np.testing.assert_array_equal(rec.beta, run_seeded(toy_problem, cfg, c, seeds[c]).beta)

            def fail(problem, config, chain_index, seed_seq, failing=failing):
                if chain_index == failing:
                    raise DomainError("injected failure")
                return run_seeded(problem, config, chain_index, seed_seq)

            monkeypatch.setattr(staghmc.sampler, "_run_seeded", fail)
            pattern = f"^chain {failing}: DomainError: injected failure$"
            with pytest.raises(StagHmcError, match=pattern) as raised:
                run_parallel_chains(toy_problem, cfg)
            assert type(raised.value) is StagHmcError

    def test_default_pool_follows_the_affinity_mask(self, toy_problem, monkeypatch):
        # two CPUs allowed on an eight-CPU host: two workers, not eight; the
        # chains go to them one at a time
        import staghmc.sampler

        started, sent = [], []
        recording_context(monkeypatch, started, sent)
        monkeypatch.setattr(staghmc.sampler.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(staghmc.sampler.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = small_config(n_mc=5, seed=6, chains=3)
        recs = run_parallel_chains(toy_problem, cfg)
        assert len(started) == 2
        assert_handed_out_one_at_a_time(sent, chains=3)
        seeds = np.random.SeedSequence(cfg.seed).spawn(3)
        for c, rec in enumerate(recs):
            np.testing.assert_array_equal(rec.beta, _run_seeded(toy_problem, cfg, c, seeds[c]).beta)

    def test_pool_without_affinity_mask_or_fork(self, toy_problem, monkeypatch):
        # a platform with no affinity mask and two CPUs: two forked workers;
        # one without os.fork as well: no child, every chain in this
        # process, equal to its forked run
        import staghmc.sampler

        started, sent = [], []
        recording_context(monkeypatch, started, sent)
        monkeypatch.delattr(staghmc.sampler.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(staghmc.sampler.os, "cpu_count", lambda: 2)
        cfg = small_config(n_mc=5, seed=6, chains=2)
        forked = run_parallel_chains(toy_problem, cfg)
        assert len(started) == 2
        assert_handed_out_one_at_a_time(sent, chains=2)
        del started[:], sent[:]
        monkeypatch.delattr(staghmc.sampler.os, "fork")
        here = run_parallel_chains(toy_problem, cfg)
        assert (started, sent) == ([], [])
        assert_no_child()
        for rec, solo in zip(forked, here, strict=True):
            np.testing.assert_array_equal(rec.beta, solo.beta)
            np.testing.assert_array_equal(rec.h_before, solo.h_before)

    def test_interrupt_here_ends_every_worker(self, toy_problem, monkeypatch):
        # an exception on the calling thread while the workers run chains
        # propagates, and no worker outlives the call
        import select

        import staghmc.sampler

        class Interrupted:
            def register(self, *args):
                pass

            def poll(self, *args):
                raise KeyboardInterrupt

        monkeypatch.setattr(staghmc.sampler.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(select, "poll", Interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_parallel_chains(toy_problem, small_config(n_mc=2000, chains=4))
        assert_no_child()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_pooled_runs_leave_no_descriptor_and_no_child(self, toy_problem, monkeypatch):
        # a pooled run, and one whose chain-1 worker exits mid-chain, close
        # every pipe end they opened and reap every worker they forked
        import staghmc.sampler

        run_seeded = staghmc.sampler._run_seeded

        def exit_on_chain_1(problem, config, chain_index, seed_seq):
            if chain_index == 1:
                os._exit(1)
            return run_seeded(problem, config, chain_index, seed_seq)

        monkeypatch.setattr(staghmc.sampler.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = small_config(n_mc=5, seed=6, chains=3)
        before = open_descriptors()
        assert len(run_parallel_chains(toy_problem, cfg)) == 3
        assert open_descriptors() <= before
        assert_no_child()
        monkeypatch.setattr(staghmc.sampler, "_run_seeded", exit_on_chain_1)  # the workers inherit it
        with pytest.raises(StagHmcError, match="^chain 1: worker exited with code 1$"):
            run_parallel_chains(toy_problem, cfg)
        assert open_descriptors() <= before
        assert_no_child()

    def test_worker_dying_mid_write_fails_its_chain(self, toy_problem, monkeypatch):
        # chain 1's worker exits halfway through writing its outcome: the
        # truncated pickle fails that chain with the exit code
        import staghmc.sampler

        parent, dump = os.getpid(), pickle.dump

        def cut_short(outcome, file, *args, **kwargs):
            if os.getpid() != parent and outcome[0] == 1:  # chain 1's outcome, in its worker
                data = pickle.dumps(outcome)
                file.write(data[: len(data) // 2])
                file.flush()
                os._exit(3)
            return dump(outcome, file, *args, **kwargs)

        monkeypatch.setattr(staghmc.sampler.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(pickle, "dump", cut_short)  # the workers inherit it
        with pytest.raises(StagHmcError, match="^chain 1: worker exited with code 3$"):
            run_parallel_chains(toy_problem, small_config(n_mc=5, seed=6, chains=3))
        assert_no_child()

    def test_worker_death_fails_its_chain_and_the_rest_run(self, toy_problem, tmp_path):
        # chain 3's worker exits mid-chain; in a child process in a session of
        # its own, so that a runner which waits for it forever fails here by
        # the timeout, and the whole session is killed then
        cfg = small_config(n_mc=5, seed=6, chains=6)
        proc = subprocess.Popen(
            [sys.executable, "-c", _DYING_WORKER_RUN, str(tmp_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": source_path()},
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(pickle.dumps((toy_problem, cfg)), timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("run_parallel_chains still waited for a dead worker after 60 s")
        assert proc.returncode == 0, err.decode()
        assert json.loads(out) == {
            "error": "chain 3: worker exited with code 1",
            "ran": [0, 1, 2, 4, 5],
            "children": 0,
            "imported multiprocessing": False,
        }

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
    def test_workers_exit_when_their_runner_is_killed(self, toy_problem, tmp_path):
        # a pooled run in a child process, in a session of its own, killed by
        # SIGKILL while its two workers run a chain each: each worker finds
        # its pipes' other ends gone and exits rather than wait for a next
        # job for good; the session is killed at the end either way
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_RUNNER_RUN, str(tmp_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": source_path()},
            start_new_session=True,
        )
        try:
            proc.stdin.write(pickle.dumps((toy_problem, small_config(n_mc=5, seed=6, chains=6))))
            proc.stdin.close()
            deadline = time.monotonic() + 60
            while len(workers := [int(path.name) for path in tmp_path.iterdir()]) < 2:
                assert time.monotonic() < deadline, "the workers never started a chain"
                time.sleep(0.05)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 30
            while any(map(running, workers)):
                assert time.monotonic() < deadline, "a worker outlived its runner by 30 s"
                time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_pooled_mean_matches_long_chain(self, posterior_problem):
        beta0 = float(np.sqrt(800.0 * 0.5 / 200.0))
        base = dict(theta0=(beta0, 0.5), masses=MASSES, integrator=STEP)
        recs = run_parallel_chains(
            posterior_problem, HmcConfig(n_mc=1500, seed=11, chains=4, **base)
        )
        long = run_chain(posterior_problem, HmcConfig(n_mc=6000, seed=12, **base))
        # every chain starts at K = 200: drop the same burn-in fraction from
        # each, so that both sides hold the start's transient in equal share
        kept = [r.K[discard_start(0.2, r.n_rows) :] for r in recs]
        long_K = long.K[discard_start(0.2, long.n_rows) :]
        pooled = np.concatenate(kept)

        def se(x):  # the standard error of a chain's mean, from its ESS
            return np.std(x, ddof=1) / np.sqrt(ess(x))

        se_pool = np.sqrt(np.mean([se(k) ** 2 for k in kept]) / 4)
        se_long = se(long_K)
        diff = abs(pooled.mean() - long_K.mean())
        assert diff < 4 * np.sqrt(se_pool**2 + se_long**2)


# a pooled run in a fresh interpreter on two workers, of the (problem,
# config) pickled on its stdin, whose chain 3 exits its worker process and
# whose other chains leave a file named by their index in the directory
# argv[1]; it prints, as JSON, the error, the chains that ran, whether a
# worker process is left and whether the run imported multiprocessing
_DYING_WORKER_RUN = """
import json
import os
import pathlib
import pickle
import sys
import staghmc.sampler
from staghmc import StagHmcError, run_parallel_chains

problem, config = pickle.load(sys.stdin.buffer)
preloaded = "multiprocessing" in sys.modules
marks = pathlib.Path(sys.argv[1])
run_seeded = staghmc.sampler._run_seeded


def exit_on_chain_3(problem, config, chain_index, seed_seq):
    if chain_index == 3:
        os._exit(1)
    record = run_seeded(problem, config, chain_index, seed_seq)
    (marks / str(chain_index)).touch()
    return record


staghmc.sampler._run_seeded = exit_on_chain_3  # the forked workers inherit it
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host
out = {"error": None}
try:
    run_parallel_chains(problem, config)
except StagHmcError as error:
    out["error"] = str(error)
out["ran"] = sorted(int(path.name) for path in marks.iterdir())
try:
    os.waitpid(-1, os.WNOHANG)  # (0, 0) while a child runs, its pid once one exited
    out["children"] = 1
except ChildProcessError:  # no child left, running or exited
    out["children"] = 0
out["imported multiprocessing"] = not preloaded and "multiprocessing" in sys.modules
print(json.dumps(out))
"""


# a pooled run in a fresh interpreter on two workers, of the (problem,
# config) pickled on its stdin, each of whose chains leaves a file named by
# its worker's pid in the directory argv[1] and then sleeps for a second
_KILLED_RUNNER_RUN = """
import os
import pathlib
import pickle
import sys
import time
import staghmc.sampler
from staghmc import run_parallel_chains

problem, config = pickle.load(sys.stdin.buffer)
marks = pathlib.Path(sys.argv[1])
run_seeded = staghmc.sampler._run_seeded


def mark_and_sleep(problem, config, chain_index, seed_seq):
    (marks / str(os.getpid())).touch()
    time.sleep(1.0)
    return run_seeded(problem, config, chain_index, seed_seq)


staghmc.sampler._run_seeded = mark_and_sleep  # the forked workers inherit it
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host
run_parallel_chains(problem, config)
"""


def running(pid):
    """Whether the process ``pid`` exists and is not a zombie (/proc)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def source_path():
    """PYTHONPATH for a child interpreter that imports this staghmc."""
    src = os.path.dirname(os.path.dirname(staghmc.__file__))
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


# a one-chain run in a fresh interpreter, with the input signal's amplitude
# as its one argument: 1.0 runs, 1e300 leaves the start's force non-finite;
# it prints, as JSON, the error and its cause, if any, and which of the
# pool machinery's modules are loaded at the end
_LONE_CHAIN_RUN = """
import json
import sys
import numpy as np
machinery = ("multiprocessing", "traceback")
if any(name in sys.modules for name in machinery):
    print("preloaded")
    raise SystemExit
from staghmc import HmcConfig, InferenceProblem, InputSignal, ObservationModel, StagHmcError
from staghmc import TimeSeriesData, run_chain
from staghmc.integrator import IntegratorConfig
from staghmc.lattice import MassConfig

times = np.linspace(0.0, 40.0, 5)
values = InputSignal.sinusoid(1.0, 0.01, 0.1).value(times)
problem = InferenceProblem(
    data=TimeSeriesData(times=times, values=values),
    signal=InputSignal.sinusoid(float(sys.argv[1]), 0.01, 0.1),
    obs=ObservationModel(0.1), j=5,
)
config = HmcConfig(
    n_mc=12, theta0=(1.0, 0.5), seed=1,
    masses=MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0)),
    integrator=IntegratorConfig(d_tau=0.25, P=3),
)
out = {"error": None, "cause": None}
try:
    run_chain(problem, config)
except StagHmcError as error:
    out = {"error": str(error), "cause": str(error.__cause__)}
out["loaded"] = sorted(name for name in machinery if name in sys.modules)
print(json.dumps(out))
"""


def lone_chain_run(amplitude):
    """What `_LONE_CHAIN_RUN` prints at this amplitude; skips where
    ``import numpy`` alone loads the pool machinery."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _LONE_CHAIN_RUN, repr(amplitude)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source_path()},
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "preloaded":
        pytest.skip("import numpy alone loads multiprocessing or traceback in this environment")
    return json.loads(proc.stdout)


class TestPoolMachineryImports:
    def test_lone_chain_loads_neither_multiprocessing_nor_traceback(self):
        # one chain is one worker, this process: no pool, and no failure to format
        assert lone_chain_run(1.0) == {"error": None, "cause": None, "loaded": []}

    def test_failed_lone_chain_keeps_its_traceback(self):
        # the failing chain imports traceback to format its own; still no pool
        out = lone_chain_run(1e300)
        assert out["error"].startswith("chain 0: NonFiniteError: non-finite gradient w.r.t. u at ")
        text = out["cause"]
        assert text.count("Traceback (most recent call last):") == 1
        assert "in _chain_worker" in text
        assert "in _start_chain" in text
        assert "staghmc.errors.NonFiniteError: non-finite gradient w.r.t. u" in text
        assert out["loaded"] == ["traceback"]


class TestDetailedBalance:
    def test_two_bead_bond_marginal(self):
        # constant input, sigma so large the data never pulls, beta tiny so
        # the path action is flat: the only live coupling is the boundary
        # bond (T / (2 j dt)) (u_1 - u_0)^2 = (u_1 - u_0)^2 / 2, so the gap
        # u_1 - u_0 must sample N(0, 1)
        T = 7.0
        signal = InputSignal.sinusoid(0.0, 0.0, 0.6)
        layout = LatticeLayout(1, 1, T)
        data = TimeSeriesData(times=np.array([0.0, T]), values=np.array([0.6, 0.6]))
        problem = InferenceProblem(data, signal, ObservationModel(sigma=1e9), 1)
        masses = MassConfig(M=1.0, m_prime=1.0, m_alpha=(1e30, 1e30))
        cfg = HmcConfig(
            n_mc=1,
            theta0=(1e-7, 0.5),
            masses=masses,
            integrator=IntegratorConfig(d_tau=0.6, P=1),
            seed=0,
        )
        chain = Chain(
            problem, cfg, initial_state(data, signal, DimensionlessParams(1e-7, 0.5), layout)
        )
        rng = np.random.default_rng(99)
        n = 100_000
        gap = np.empty(n)
        n_acc = 0
        for i in range(n):
            _, st = hmc_iteration(chain, rng)
            u = chain.state().u
            gap[i] = u[1] - u[0]
            n_acc += st.accepted
        assert n_acc / n > 0.9
        ks = stats.kstest(gap, "norm").statistic
        assert ks < 0.03
