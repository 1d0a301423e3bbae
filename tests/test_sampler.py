import copy
import inspect
import json
import pickle
import warnings

import numpy as np
import pytest
from scipy import stats

from staghmc import (
    InputSignal,
    NonFiniteError,
    ObservationModel,
    PhysicalParams,
    StagHmcError,
    TimeSeriesData,
    ValidationError,
)
from staghmc.diagnostics import discard_start
from staghmc.energy import grad_hprime, h_total
from staghmc.integrator import IntegratorConfig, trotter_propagate
from staghmc.lattice import MassConfig, build_layout, initial_state
from staghmc.model import (
    DimensionlessParams,
    fine_grid,
    generate_observations,
    simulate_truth,
)
from staghmc.sampler import (
    CHAIN_CSV_HEADER,
    ChainRecord,
    HmcConfig,
    InferenceProblem,
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
    grid = fine_grid(800.0, 20, 2, 60)
    path = simulate_truth(truth, SIGNAL, grid, seed=71)
    obs_times = np.linspace(0.0, 800.0, 21)
    data = generate_observations(path, obs_times, truth, ObservationModel(0.05), seed=72)
    return InferenceProblem(data=data, signal=SIGNAL, obs=ObservationModel(0.05), j=2)


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
        echo = json.loads(json.dumps(cfg.echo()))
        assert echo["n_mc"] == 20
        assert echo["seed"] == 9
        assert echo["chains"] == 3
        assert echo["masses"]["M"] == 720.0
        assert echo["integrator"] == {"d_tau": 0.25, "P": 3}

    def test_echo_rebuilds_the_config(self):
        cfg = small_config(seed=2**64 - 1, chains=5, theta0=(1.25, 0.75))
        echo = json.loads(json.dumps(cfg.echo()))
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
        echo = json.loads(json.dumps(cfg.echo()))
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

    def test_context_matches_data(self, toy_problem):
        ctx = toy_problem.context()
        assert ctx.layout.n == toy_problem.data.n_segments
        assert ctx.layout.N == 4 * 5 + 1
        assert ctx.layout.T == toy_problem.data.horizon

    def test_contexts_share_one_layout(self, toy_problem):
        first, second = toy_problem.context(), toy_problem.context()
        assert first is not second
        assert first.layout is second.layout is toy_problem.layout()

    def test_pickle_round_trip_compares_equal(self, toy_problem):
        back = pickle.loads(pickle.dumps(toy_problem))
        assert back == toy_problem and hash(back) == hash(toy_problem)

    def test_pickle_round_trip(self, toy_problem):
        back = pickle.loads(pickle.dumps(toy_problem))
        assert back.layout() == toy_problem.layout()
        assert back.context().layout is back.layout()
        cfg = small_config(n_mc=5, seed=3)
        np.testing.assert_array_equal(run_chain(back, cfg).beta, run_chain(toy_problem, cfg).beta)


class TestSampleMomenta:
    def test_class_variances(self):
        # 50,000 draws on a 5-bead layout: >= 1e5 samples per class
        layout = build_layout(2, 2, 4.0)
        rng = np.random.default_rng(123)
        ps, pis = [], []
        for _ in range(50_000):
            p, pi = sample_momenta(MASSES, layout, rng)
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
        layout = build_layout(3, 10, 83.0)
        p1, pi1 = sample_momenta(MASSES, layout, np.random.default_rng(42))
        p2, pi2 = sample_momenta(MASSES, layout, np.random.default_rng(42))
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(pi1, pi2)

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_single_draw_matches_two_draws(self, seed):
        layout = build_layout(3, 10, 83.0)
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for _ in range(200):
            p, pi = sample_momenta(MASSES, layout, rng)
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
        layout = build_layout(3, 10, 83.0)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        row = np.full(2 * layout.N + 2, np.nan)[layout.N :]  # as the workspace holds it
        for _ in range(20):
            p, pi = sample_momenta(MASSES, layout, rng, out=row)
            p_ref, pi_ref = sample_momenta(MASSES, layout, ref)
            assert np.shares_memory(p, row) and np.shares_memory(pi, row)
            assert p.tobytes() == p_ref.tobytes() and pi.tobytes() == pi_ref.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_draw_into_out_of_the_wrong_size_raises(self):
        layout = build_layout(3, 10, 83.0)
        with pytest.raises(ValueError):
            sample_momenta(MASSES, layout, np.random.default_rng(0), out=np.empty(layout.N))

    def test_scale_table_follows_masses_and_layout(self):
        # the draw remembers the table of its last (masses, layout) by
        # identity; a switch of either, and back, must scale by the right one
        layouts = build_layout(3, 10, 83.0), build_layout(3, 5, 83.0)
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(15.0, 150.0))
        for masses, layout in ((MASSES, layouts[0]), (other, layouts[0]),
                               (other, layouts[1]), (MASSES, layouts[0])):
            p, pi = sample_momenta(masses, layout, np.random.default_rng(9))
            z = np.random.default_rng(9).standard_normal(layout.N + 2)
            want = z[: layout.N] * np.sqrt(masses.m_prime / layout.dt)
            want[:: layout.j] = z[: layout.N : layout.j] * np.sqrt(masses.M)
            np.testing.assert_array_equal(p, want)
            np.testing.assert_array_equal(pi, z[layout.N :] * np.sqrt(masses.m_alpha))

    def test_scale_table_is_read_only(self):
        from staghmc.sampler import _momentum_scale

        scale = _momentum_scale(MASSES, build_layout(3, 10, 83.0))
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


class TestHmcIteration:
    def test_h_before_matches_refreshed_state(self, toy_problem):
        ctx = toy_problem.context()
        cfg = small_config()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        probe = state.copy()
        probe.p, probe.pi = sample_momenta(MASSES, ctx.layout, np.random.default_rng(5))
        expected = h_total(probe, ctx, MASSES).total
        _, stats_out = hmc_iteration(state, ctx, cfg, np.random.default_rng(5))
        assert stats_out.h_before == expected
        assert stats_out.dh == stats_out.h_after - stats_out.h_before

    def test_rejection_reverts_positions(self, toy_problem):
        ctx = toy_problem.context()
        cfg = small_config(integrator=IntegratorConfig(d_tau=40.0, P=3))
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        nxt, stats_out = hmc_iteration(state, ctx, cfg, np.random.default_rng(0))
        assert not stats_out.accepted
        assert stats_out.pathology is not None
        np.testing.assert_array_equal(nxt.u, state.u)
        np.testing.assert_array_equal(nxt.theta, state.theta)

    def test_nonpositive_parameter_is_rejected(self, posterior_problem):
        ctx = posterior_problem.context()
        beta0 = float(np.sqrt(800.0 * 0.5 / 200.0))
        # gamma is nearly massless, so the drift throws it negative
        cfg = small_config(
            theta0=(beta0, 0.5),
            masses=MassConfig(720.0, 130.0, (1e30, 0.02)),
        )
        state = initial_state(
            posterior_problem.data,
            SIGNAL,
            DimensionlessParams(beta0, 0.5),
            ctx.layout,
        )
        _, stats_out = hmc_iteration(state, ctx, cfg, np.random.default_rng(0))
        assert stats_out.pathology == "nonpositive-parameter"
        assert not stats_out.accepted
        assert stats_out.h_after == np.inf

    @pytest.mark.parametrize("d_tau, accepted", [(0.25, True), (40.0, False)])
    def test_input_state_not_mutated(self, toy_problem, d_tau, accepted):
        ctx = toy_problem.context()
        cfg = small_config(integrator=IntegratorConfig(d_tau=d_tau, P=3))
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        state.p[:] = 1.5
        state.pi[:] = -0.5
        snapshot = state.copy()
        _, stats_out = hmc_iteration(state, ctx, cfg, np.random.default_rng(4))
        assert stats_out.accepted is accepted
        for name in ("u", "theta", "p", "pi"):
            np.testing.assert_array_equal(getattr(state, name), getattr(snapshot, name))

    def after_momenta(self, seed, layout):
        """A stream of ``seed`` past one momentum refresh on ``layout``."""
        rng = np.random.default_rng(seed)
        sample_momenta(MASSES, layout, rng)
        return rng

    def test_proposal_overflowing_to_minus_inf_is_rejected(self, toy_problem, monkeypatch):
        # a gap of -inf alone would be accepted: the pathology rejects it,
        # without a draw
        import staghmc.sampler as sampler

        end_energy = sampler._end_energy

        def overflowed(*args):
            h_N, h_n, _, _, moved = end_energy(*args)
            return h_N, h_n, -np.inf, -np.inf, moved

        ctx = toy_problem.context()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        rng = np.random.default_rng(6)
        _, finite = hmc_iteration(state, ctx, small_config(), np.random.default_rng(6))
        assert finite.accepted and finite.pathology is None  # the control
        monkeypatch.setattr(sampler, "_end_energy", overflowed)
        out, stats_out = hmc_iteration(state, ctx, small_config(), rng)
        assert stats_out.h_after == -np.inf
        assert stats_out.pathology == "nonfinite-energy"
        assert not stats_out.accepted and out is state
        assert rng.random() == self.after_momenta(6, ctx.layout).random()

    def test_start_of_infinite_energy_moves_to_a_finite_proposal(self, toy_problem):
        ctx = toy_problem.context()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        rng = np.random.default_rng(6)
        infinite = h_total(state, ctx, MASSES).potential._replace(h_N=np.inf)
        out, stats_out = hmc_iteration(state, ctx, small_config(), rng, potential=infinite)
        assert stats_out.h_before == np.inf and np.isfinite(stats_out.h_after)
        assert stats_out.accepted and stats_out.pathology is None and out is not state
        assert rng.random() == self.after_momenta(6, ctx.layout).random()


class TestMomentumRefresh:
    """The iteration draws its momenta into the context's workspace."""

    def run(self, ctx, state, masses, d_tau, seed):
        cfg = small_config(masses=masses, integrator=IntegratorConfig(d_tau=d_tau, P=3))
        return hmc_iteration(state, ctx, cfg, np.random.default_rng(seed))

    def test_settings_switch_on_one_context_matches_fresh_contexts(self, toy_problem):
        ctx = toy_problem.context()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(150.0, 150.0))
        for seed, (masses, d_tau) in enumerate(((MASSES, 0.25), (other, 0.25), (MASSES, 0.3))):
            got, got_stats = self.run(ctx, state, masses, d_tau, seed)
            want, want_stats = self.run(toy_problem.context(), state, masses, d_tau, seed)
            for name in ("u", "theta", "p", "pi"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got_stats[:4] == want_stats[:4] and got_stats.theta == want_stats.theta
            assert got_stats.potential == want_stats.potential

    def test_rejection_returns_the_input_state(self, toy_problem):
        ctx = toy_problem.context()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        out, stats_out = self.run(ctx, state, MASSES, 40.0, 0)
        assert not stats_out.accepted
        assert out is state

    def test_accepted_state_shares_no_memory_with_the_workspace(self, toy_problem):
        from test_energy import workspace_arrays

        ctx = toy_problem.context()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        out, stats_out = self.run(ctx, state, MASSES, 0.25, 0)
        assert stats_out.accepted
        arrays = [out.u, out.theta, out.p, out.pi, *stats_out.force]
        for row in workspace_arrays(ctx):
            for array in arrays:
                assert not np.shares_memory(array, row)

    def test_iterations_hash_no_settings(self, toy_problem, monkeypatch):
        ctx = toy_problem.context()
        cfg = small_config()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        rng = np.random.default_rng(2)
        state, stats_out = hmc_iteration(state, ctx, cfg, rng)  # fills the memos
        hashed = []
        for cls in (MassConfig, type(ctx.layout)):
            def counted(obj, _hash=cls.__hash__):
                hashed.append(type(obj).__name__)
                return _hash(obj)

            monkeypatch.setattr(cls, "__hash__", counted)
        for _ in range(10):
            state, stats_out = hmc_iteration(
                state, ctx, cfg, rng, potential=stats_out.potential, force=stats_out.force
            )
        assert hashed == []
        hash(MASSES)  # the counter itself works
        assert hashed == ["MassConfig"]


class TestSaturatingStates:
    """Extreme parameters saturate to inf/NaN without a single warning."""

    @pytest.mark.parametrize(
        "theta", [(1e200, 0.2), (1.0, 1e-200), (1e-200, 0.2), (1e-170, 1e-170)]
    )
    def test_warning_free_and_rejected(self, toy_problem, theta):
        ctx = toy_problem.context()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        state.theta[:] = theta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h_total(state, ctx, MASSES)
            try:
                grad_hprime(state, ctx)
            except NonFiniteError:
                pass
            _, stats_out = hmc_iteration(state, ctx, small_config(), np.random.default_rng(0))
        assert not stats_out.accepted
        assert stats_out.pathology is not None


class TestCarriedPotential:
    def test_call_budget_of_one_iteration(self, toy_problem, monkeypatch):
        import staghmc.integrator
        import staghmc.lattice

        ctx = toy_problem.context()
        cfg = small_config()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        potential = h_total(state, ctx, MASSES).potential
        force = grad_hprime(state, ctx)
        calls = {"grad": 0, "inverse": 0, "potential": 0}
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

        # the trajectory's entry into the kernel, and the kernel's staging map
        monkeypatch.setattr(
            staghmc.integrator, "_hprime", counted("grad", staghmc.integrator._hprime)
        )
        rows = staghmc.lattice._StagingRows
        monkeypatch.setattr(rows, "inverse", counted("inverse", rows.inverse))
        _, stats_out = hmc_iteration(
            state, ctx, cfg, np.random.default_rng(3), potential=potential, force=force
        )
        assert stats_out.pathology is None
        # P passes, of which only the last forms the proposal's potential
        assert calls == {"grad": STEP.P, "inverse": STEP.P, "potential": 1}

    def test_carried_h_before_matches_fresh_energy(self, toy_problem):
        ctx = toy_problem.context()
        layout = ctx.layout
        # a long step, so that some proposals are rejected on dH alone
        cfg = small_config(integrator=IntegratorConfig(d_tau=1.5, P=3))
        blowup = small_config(integrator=IntegratorConfig(d_tau=40.0, P=3))
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), layout
        )
        rng = np.random.default_rng(11)
        potential = h_total(state, ctx, MASSES).potential
        outcomes = []
        for i in range(40):
            probe = state.copy()
            probe.p, probe.pi = sample_momenta(MASSES, layout, copy.deepcopy(rng))
            expected = h_total(probe, ctx, MASSES).total
            state, stats_out = hmc_iteration(
                state, ctx, blowup if i == 20 else cfg, rng, potential=potential
            )
            assert stats_out.h_before == expected
            potential = stats_out.potential
            assert potential == h_total(state, ctx, MASSES).potential
            outcomes.append((stats_out.accepted, stats_out.pathology))
        assert any(acc for acc, _ in outcomes)
        assert any(not acc and path is None for acc, path in outcomes)
        assert outcomes[20][1] is not None and not outcomes[20][0]

    def test_h_after_is_h_total_of_the_proposal(self, toy_problem):
        # the sampler scores the proposal in the workspace and builds it
        # only on acceptance; its energy must still be h_total's, bit for
        # bit, at the preset step (all accepted here) and a long one
        ctx = toy_problem.context()
        layout = ctx.layout
        outcomes = []
        for d_tau in (STEP.d_tau, 1.0):
            cfg = small_config(integrator=IntegratorConfig(d_tau=d_tau, P=STEP.P))
            state = initial_state(
                toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), layout
            )
            rng = np.random.default_rng(13)
            potential, force = h_total(state, ctx, MASSES).potential, None
            for _ in range(100):
                refreshed = state.copy()
                refreshed.p, refreshed.pi = sample_momenta(MASSES, layout, copy.deepcopy(rng))
                state, stats_out = hmc_iteration(
                    state, ctx, cfg, rng, potential=potential, force=force
                )
                potential, force = stats_out.potential, stats_out.force
                assert stats_out.theta == tuple(state.theta.tolist())
                if stats_out.pathology is not None:
                    continue
                proposal = trotter_propagate(refreshed, ctx, MASSES, cfg.integrator)
                assert stats_out.h_after == h_total(proposal, ctx, MASSES).total
                outcomes.append(stats_out.accepted)
        assert len(outcomes) > 150
        assert any(outcomes) and not all(outcomes)

    def test_proposal_and_force_copied_out_only_on_acceptance(self, toy_problem, monkeypatch):
        import staghmc.sampler

        copies = {"_proposal": 0, "_exit_force": 0}
        for name in copies:
            def counted(*args, _fn=getattr(staghmc.sampler, name), _name=name):
                copies[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(staghmc.sampler, name, counted)
        ctx = toy_problem.context()
        cfg = small_config(integrator=IntegratorConfig(d_tau=1.0, P=3))
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        rng = np.random.default_rng(13)
        potential, force, accepted = None, None, []
        for _ in range(40):
            state, stats_out = hmc_iteration(
                state, ctx, cfg, rng, potential=potential, force=force
            )
            potential, force = stats_out.potential, stats_out.force
            accepted.append(stats_out.accepted)
        assert any(accepted) and not all(accepted)
        assert copies == {"_proposal": sum(accepted), "_exit_force": sum(accepted)}

    def test_carried_force_matches_fresh_gradient(self, toy_problem):
        ctx = toy_problem.context()
        layout = ctx.layout
        cfg = small_config(integrator=IntegratorConfig(d_tau=1.5, P=3))
        blowup = small_config(integrator=IntegratorConfig(d_tau=40.0, P=3))
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), layout
        )
        rng = np.random.default_rng(11)
        potential, force = h_total(state, ctx, MASSES).potential, None
        outcomes = []
        for i in range(40):
            given = force
            state, stats_out = hmc_iteration(
                state, ctx, blowup if i == 20 else cfg, rng, potential=potential, force=force
            )
            potential, force = stats_out.potential, stats_out.force
            if not stats_out.accepted:
                assert force is given  # a rejection keeps the force it was given
            if force is not None:
                want = grad_hprime(state, ctx)
                np.testing.assert_array_equal(force.g_u, want.g_u)
                np.testing.assert_array_equal(force.g_theta, want.g_theta)
            outcomes.append((stats_out.accepted, given is not None))
        assert any(acc and given for acc, given in outcomes)
        assert any(not acc and given for acc, given in outcomes)
        assert not outcomes[20][0]

    def test_nonfinite_start_force_is_a_rejection(self, toy_problem):
        # a chain starts with no carried force: the trajectory computes it,
        # and a non-finite one rejects the proposal instead of raising
        ctx = toy_problem.context()
        state = initial_state(
            toy_problem.data, SIGNAL, DimensionlessParams(1.0, 0.5), ctx.layout
        )
        state.u[ctx.layout.j] = np.inf
        with pytest.raises(NonFiniteError):
            grad_hprime(state, ctx)
        _, stats_out = hmc_iteration(state, ctx, small_config(), np.random.default_rng(5))
        assert not stats_out.accepted
        assert stats_out.pathology == "NonFiniteError"
        assert stats_out.force is None


class TestRunChain:
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
        assert run_chain(toy_problem, small_config(n_mc=5)).meta["pathologies"] == {}

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
        assert rec.meta["config"] == cfg.echo()
        assert rec.meta["wall_clock_s"] > 0
        assert rec.meta["j"] == toy_problem.j
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


def _batch_se(x, nb=20):
    m = x.size // nb
    bm = x[: nb * m].reshape(nb, m).mean(axis=1)
    return float(np.std(bm, ddof=1) / np.sqrt(nb))


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

    def test_pool_chains_match_in_process_runs(self, toy_problem):
        cfg = small_config(n_mc=25, seed=8, chains=2)
        pooled = run_parallel_chains(toy_problem, cfg, processes=2)
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

    @pytest.mark.parametrize("processes", [0, -1, 2.5, "2", True])
    def test_bad_process_count_rejected_before_any_pool(self, toy_problem, monkeypatch, processes):
        import staghmc.sampler

        def no_pool(*args):
            raise AssertionError("a pool was made")

        monkeypatch.setattr(staghmc.sampler.multiprocessing, "get_context", no_pool)
        with pytest.raises(ValidationError, match="processes"):
            run_parallel_chains(toy_problem, small_config(n_mc=4, chains=2), processes=processes)

    def test_default_pool_follows_the_affinity_mask(self, toy_problem, monkeypatch):
        # one CPU allowed on an eight-CPU host: one worker, not eight
        import staghmc.sampler

        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        class Context:
            Pool = InlinePool

        monkeypatch.setattr(staghmc.sampler.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(staghmc.sampler.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(staghmc.sampler.multiprocessing, "get_context", lambda *a: Context())
        cfg = small_config(n_mc=5, seed=6, chains=3)
        recs = run_parallel_chains(toy_problem, cfg)
        assert sizes == [1]
        seeds = np.random.SeedSequence(cfg.seed).spawn(3)
        for c, rec in enumerate(recs):
            np.testing.assert_array_equal(rec.beta, _run_seeded(toy_problem, cfg, c, seeds[c]).beta)

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
        se_pool = np.sqrt(np.mean([_batch_se(k) ** 2 for k in kept]) / 4)
        se_long = _batch_se(long_K)
        diff = abs(pooled.mean() - long_K.mean())
        assert diff < 4 * np.sqrt(se_pool**2 + se_long**2)


class TestDetailedBalance:
    def test_two_bead_bond_marginal(self):
        # constant input, sigma so large the data never pulls, beta tiny so
        # the path action is flat: the only live coupling is the boundary
        # bond (T / (2 j dt)) (u_1 - u_0)^2 = (u_1 - u_0)^2 / 2, so the gap
        # u_1 - u_0 must sample N(0, 1)
        T = 7.0
        signal = InputSignal.constant(0.6)
        layout = build_layout(1, 1, T)
        data = TimeSeriesData(times=np.array([0.0, T]), values=np.array([0.6, 0.6]))
        ctx = InferenceProblem(data, signal, ObservationModel(sigma=1e9), 1).context()
        masses = MassConfig(M=1.0, m_prime=1.0, m_alpha=(1e30, 1e30))
        cfg = HmcConfig(
            n_mc=1,
            theta0=(1e-7, 0.5),
            masses=masses,
            integrator=IntegratorConfig(d_tau=0.6, P=1),
            seed=0,
        )
        state = initial_state(data, signal, DimensionlessParams(1e-7, 0.5), layout)
        rng = np.random.default_rng(99)
        n = 100_000
        gap = np.empty(n)
        n_acc = 0
        for i in range(n):
            state, st = hmc_iteration(state, ctx, cfg, rng)
            gap[i] = state.u[1] - state.u[0]
            n_acc += st.accepted
        assert n_acc / n > 0.9
        ks = stats.kstest(gap, "norm").statistic
        assert ks < 0.03
