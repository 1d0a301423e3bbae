import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from staghmc import (
    InputSignal,
    NonFiniteError,
    ObservationModel,
    TimeSeriesData,
    ValidationError,
)
from staghmc.energy import PathContext, grad_hprime, h_N, h_total
from staghmc.integrator import (
    IntegratorConfig,
    OscillatorBank,
    _rotate_inplace,
    _verlet_inplace,
    trotter_propagate,
)
from staghmc.lattice import MassConfig, PolymerState, build_layout

SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUTS = [
    build_layout(1, 1, 5.0),
    build_layout(2, 5, 833.0),
    build_layout(10, 10, 120.0),
    build_layout(10, 30, 833.0),
    build_layout(5, 1, 7.0),
    build_layout(4, 2, 13.0),
]


def make_problem(n=3, j=10, T=83.0, seed=0):
    layout = build_layout(n, j, T)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, T, n + 1)
    y = SIGNAL.value(times) * np.exp(rng.normal(0, 0.5, n + 1))
    data = TimeSeriesData(times=times, values=y)
    ctx = PathContext(layout, SIGNAL, data, ObservationModel(sigma=0.1))
    return layout, ctx


def random_state(layout, rng, u_scale=0.5, p_scale=3.0):
    return PolymerState(
        u=rng.normal(0, u_scale, layout.N),
        theta=np.array([rng.uniform(1.0, 2.2), rng.uniform(0.15, 0.9)]),
        p=rng.normal(0, p_scale, layout.N),
        pi=rng.normal(0, p_scale, 2),
    )


def rotated(state, bank):
    """The in-place half rotation applied to a copy."""
    out = state.copy()
    _rotate_inplace(out.u, out.p, bank)
    return out


def flipped(state):
    out = state.copy()
    out.p *= -1.0
    out.pi *= -1.0
    return out


class TestConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(d_tau=0.0, P=3)
        with pytest.raises(ValidationError):
            IntegratorConfig(d_tau=-0.1, P=3)
        with pytest.raises(ValidationError):
            IntegratorConfig(d_tau=float("nan"), P=3)

    def test_rejects_bad_count(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(d_tau=0.25, P=0)

    def test_accepts_valid(self):
        cfg = IntegratorConfig(d_tau=0.25, P=3)
        assert cfg.d_tau == 0.25 and cfg.P == 3


class TestOscillatorBank:
    def test_frequency_matches_spring_constant(self):
        layout = build_layout(3, 10, 83.0)
        bank = OscillatorBank.build(layout, MASSES, 0.25)
        k = np.tile(np.arange(2.0, layout.j + 1), layout.n)
        stiff = layout.T * k / (layout.dt * (k - 1.0))
        np.testing.assert_allclose(bank.m * bank.omega**2, stiff, rtol=1e-12)

    def test_frequencies_decrease_with_order(self):
        layout = build_layout(2, 6, 40.0)
        bank = OscillatorBank.build(layout, MASSES, 0.25)
        per_segment = bank.omega.reshape(layout.n, layout.j - 1)
        assert np.all(np.diff(per_segment, axis=1) < 0)
        # both segments see the same oscillators
        np.testing.assert_allclose(per_segment[0], per_segment[1], rtol=1e-15)

    def test_one_shared_read_only_bank_per_key(self):
        bank = OscillatorBank.build(build_layout(3, 10, 83.0), MASSES, 0.25)
        same = OscillatorBank.build(
            build_layout(3, 10, 83.0), MassConfig(720.0, 130.0, (150.0, 150.0)), 0.25
        )
        assert same is bank
        assert OscillatorBank.build(bank.layout, MASSES, 0.5) is not bank
        other = MassConfig(720.0, 260.0, (150.0, 150.0))
        assert OscillatorBank.build(bank.layout, other, 0.25).m == 2.0 * bank.m
        assert not bank.omega.flags.writeable
        with pytest.raises(ValueError):
            bank.omega[0] = 1.0

    def test_no_staging_beads_is_identity(self):
        layout = build_layout(4, 1, 20.0)
        bank = OscillatorBank.build(layout, MASSES, 0.25)
        assert bank.omega.size == 0
        rng = np.random.default_rng(1)
        st = random_state(layout, rng)
        out = rotated(st, bank)
        np.testing.assert_array_equal(out.u, st.u)
        np.testing.assert_array_equal(out.p, st.p)


class TestRotation:
    def test_conserves_harmonic_energy(self):
        layout = build_layout(3, 10, 83.0)
        bank = OscillatorBank.build(layout, MASSES, 0.37)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            st = random_state(layout, rng, u_scale=1.0, p_scale=5.0)
            before = h_N(st, MASSES, layout)
            after = h_N(rotated(st, bank), MASSES, layout)
            assert abs(after - before) <= 1e-12 * abs(before)

    def test_leaves_boundary_and_parameters_alone(self):
        layout = build_layout(3, 10, 83.0)
        bank = OscillatorBank.build(layout, MASSES, 0.37)
        st = random_state(layout, np.random.default_rng(2))
        out = rotated(st, bank)
        b = np.arange(layout.n + 1) * layout.j
        np.testing.assert_array_equal(out.u[b], st.u[b])
        np.testing.assert_array_equal(out.p[b], st.p[b])
        np.testing.assert_array_equal(out.theta, st.theta)
        np.testing.assert_array_equal(out.pi, st.pi)

    def test_full_period_returns_to_start(self):
        layout = build_layout(3, 10, 83.0)
        ref = OscillatorBank.build(layout, MASSES, 1.0)
        idx = np.flatnonzero(np.arange(layout.N) % layout.j)[4]  # a staging bead
        omega = ref.omega[4]
        bank = OscillatorBank.build(layout, MASSES, 4.0 * np.pi / omega)
        st = PolymerState(
            u=np.zeros(layout.N),
            theta=np.array([1.8, 0.2]),
            p=np.zeros(layout.N),
            pi=np.zeros(2),
        )
        st.u[idx] = 0.7
        st.p[idx] = -2.1
        out = rotated(st, bank)
        assert abs(out.u[idx] - 0.7) < 1e-12
        assert abs(out.p[idx] + 2.1) < 1e-12

    def test_quarter_period_swaps_position_and_momentum(self):
        layout = build_layout(3, 10, 83.0)
        ref = OscillatorBank.build(layout, MASSES, 1.0)
        idx = np.flatnonzero(np.arange(layout.N) % layout.j)[4]  # a staging bead
        omega = ref.omega[4]
        bank = OscillatorBank.build(layout, MASSES, np.pi / omega)
        st = PolymerState(
            u=np.zeros(layout.N),
            theta=np.array([1.8, 0.2]),
            p=np.zeros(layout.N),
            pi=np.zeros(2),
        )
        st.u[idx] = 0.7
        st.p[idx] = -2.1
        out = rotated(st, bank)
        m_omega = bank.m * omega
        assert abs(out.u[idx] - st.p[idx] / m_omega) < 1e-12
        assert abs(out.p[idx] + m_omega * st.u[idx]) < 1e-12

    def test_full_step_is_two_half_steps(self):
        layout = build_layout(3, 10, 83.0)
        bank = OscillatorBank.build(layout, MASSES, 0.37)
        st = random_state(layout, np.random.default_rng(6), u_scale=1.0, p_scale=5.0)
        twice = rotated(rotated(st, bank), bank)
        once = st.copy()
        _rotate_inplace(once.u, once.p, bank, full=True)
        np.testing.assert_allclose(once.u, twice.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(once.p, twice.p, rtol=0, atol=1e-12)

    def test_tables_are_read_only(self):
        bank = OscillatorBank.build(build_layout(3, 10, 83.0), MASSES, 0.37)
        for table in (*bank.half, *bank.full):
            with pytest.raises(ValueError):
                table[0] = 0.0


def view_rotation(state, bank, step):
    """The rotation on the (n, j-1) staging views, with tables in that shape."""
    out = state.copy()
    lay = bank.layout
    omega = bank.omega.reshape(lay.n, lay.j - 1)
    m_omega = bank.m * omega
    angle = omega * step
    sin = np.sin(angle)
    cos, sin_over_m_omega, m_omega_sin = np.cos(angle), sin / m_omega, m_omega * sin
    us, ps = lay.staging(out.u), lay.staging(out.p)
    kick = us * m_omega_sin
    us *= cos
    us += ps * sin_over_m_omega
    ps *= cos
    ps -= kick
    return out


class TestFlatRotation:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    @pytest.mark.parametrize("full", [False, True])
    def test_matches_view_formula(self, layout, full):
        bank = OscillatorBank.build(layout, MASSES, 0.37)
        st = random_state(layout, np.random.default_rng(layout.N), u_scale=1.0, p_scale=5.0)
        out = st.copy()
        _rotate_inplace(out.u, out.p, bank, full=full)
        ref = view_rotation(st, bank, bank.d_tau if full else bank.d_tau / 2.0)
        np.testing.assert_array_equal(out.u, ref.u)
        np.testing.assert_array_equal(out.p, ref.p)
        # measurement beads, the last one included, come out exactly unchanged
        np.testing.assert_array_equal(out.u[:: layout.j], st.u[:: layout.j])
        np.testing.assert_array_equal(out.p[:: layout.j], st.p[:: layout.j])

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_tables_are_flat_with_identity_at_measurement_beads(self, layout):
        bank = OscillatorBank.build(layout, MASSES, 0.37)
        for cos, sin_over_m_omega, m_omega_sin in (bank.half, bank.full):
            for table in (cos, sin_over_m_omega, m_omega_sin):
                assert table.shape == (layout.N - 1,)
                assert not table.flags.writeable
            np.testing.assert_array_equal(cos[:: layout.j], 1.0)
            np.testing.assert_array_equal(sin_over_m_omega[:: layout.j], 0.0)
            np.testing.assert_array_equal(m_omega_sin[:: layout.j], 0.0)


class TestVerlet:
    def test_moves_only_slow_positions(self):
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(4))
        u, p = ctx._scratch.rows.u, st.p.copy()
        np.copyto(u, st.u)
        beta, gamma, pa, pg = _verlet_inplace(
            p, ctx, MASSES, 0.25, *st.theta.tolist(), *st.pi.tolist()
        )
        stg = np.arange(layout.N) % layout.j != 0
        np.testing.assert_array_equal(u[stg], st.u[stg])
        b = np.arange(layout.n + 1) * layout.j
        assert np.all(u[b] != st.u[b])
        assert np.all(np.array([beta, gamma]) != st.theta)
        # every momentum feels the force kick
        assert np.all(p != st.p)
        assert np.all(np.array([pa, pg]) != st.pi)


class TestTrotter:
    @pytest.mark.parametrize("seed", range(6))
    def test_reversible_to_tight_tolerance(self, seed):
        layout, ctx = make_problem(2, 5, 60.0, seed=3)
        st = random_state(layout, np.random.default_rng(100 + seed), u_scale=0.3)
        cfg = IntegratorConfig(d_tau=0.25, P=3)
        back = flipped(trotter_propagate(flipped(trotter_propagate(st, ctx, MASSES, cfg)), ctx, MASSES, cfg))
        assert np.abs(back.u - st.u).max() < 1e-10
        assert np.abs(back.p - st.p).max() < 1e-10
        assert np.abs(back.theta - st.theta).max() < 1e-10
        assert np.abs(back.pi - st.pi).max() < 1e-10

    def test_input_state_not_mutated(self):
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(8))
        snapshot = st.copy()
        trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.25, P=3))
        np.testing.assert_array_equal(st.u, snapshot.u)
        np.testing.assert_array_equal(st.p, snapshot.p)
        np.testing.assert_array_equal(st.theta, snapshot.theta)
        np.testing.assert_array_equal(st.pi, snapshot.pi)

    def test_gradient_between_trajectories_leaves_the_next_unchanged(self):
        # the trajectory and the public gradient share the context's kernel
        # rows; a gradient of another state between two identical
        # trajectories must leave nothing behind that the second one reads
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(9))
        other = random_state(layout, np.random.default_rng(10))
        cfg = IntegratorConfig(d_tau=0.25, P=3)
        first = trotter_propagate(st, ctx, MASSES, cfg)
        grad_hprime(other, ctx)
        second = trotter_propagate(st, ctx, MASSES, cfg)
        for name in ("u", "p", "theta", "pi"):
            np.testing.assert_array_equal(getattr(second, name), getattr(first, name))

    @pytest.mark.parametrize("bead", [0, 5, 10])
    def test_infinite_boundary_momentum_rejected_without_warning(self, bead):
        # the identity table entries meet inf as inf * 0 = NaN; the trajectory
        # errstate keeps that silent and the next gradient raises
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(21))
        st.p[bead] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.25, P=3))

    @pytest.mark.parametrize("P", [1, 2, 3])
    def test_merged_rotations_match_split_schedule(self, P):
        # P x (half rotation, Verlet, half rotation), unmerged
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(12 + P))
        cfg = IntegratorConfig(d_tau=0.25, P=P)
        bank = OscillatorBank.build(layout, MASSES, cfg.d_tau)
        u, p = ctx._scratch.rows.u, st.p.copy()
        np.copyto(u, st.u)
        beta, gamma = st.theta.tolist()
        pa, pg = st.pi.tolist()
        for _ in range(P):
            _rotate_inplace(u, p, bank)
            beta, gamma, pa, pg = _verlet_inplace(p, ctx, MASSES, cfg.d_tau, beta, gamma, pa, pg)
            _rotate_inplace(u, p, bank)
        ref = {"u": u.copy(), "p": p, "theta": [beta, gamma], "pi": [pa, pg]}
        out = trotter_propagate(st, ctx, MASSES, cfg)
        for name in ("u", "p", "theta", "pi"):
            np.testing.assert_allclose(getattr(out, name), ref[name], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_matches_array_reference_bit_for_bit(self, layout, P, seed):
        # the merged schedule written out with fresh public gradients and
        # array kicks and drift, the form the Python-float Verlet step replaces
        _, ctx = make_problem(layout.n, layout.j, layout.T, seed=5)
        st = random_state(layout, np.random.default_rng(40 + 4 * seed + P), u_scale=0.3)
        # not a power of two, so that a reordered product shows in the bits
        cfg = IntegratorConfig(d_tau=0.3, P=P)
        bank = OscillatorBank.build(layout, MASSES, cfg.d_tau)
        half, j = 0.5 * cfg.d_tau, layout.j
        ref = st.copy()

        def kick():
            g_u, g_theta = grad_hprime(ref, ctx)
            ref.p -= g_u * half
            ref.pi -= g_theta * half

        try:
            _rotate_inplace(ref.u, ref.p, bank)
            for step in range(1, P + 1):
                kick()
                ref.u[::j] += (cfg.d_tau / MASSES.M) * ref.p[::j]
                ref.theta += cfg.d_tau * ref.pi / np.array(MASSES.m_alpha)
                kick()
                _rotate_inplace(ref.u, ref.p, bank, full=step < P)
        except NonFiniteError:  # a runaway trajectory must run away alike
            with pytest.raises(NonFiniteError):
                trotter_propagate(st, ctx, MASSES, cfg)
            return
        out = trotter_propagate(st, ctx, MASSES, cfg)
        for name in ("u", "p", "theta", "pi"):
            np.testing.assert_array_equal(getattr(out, name), getattr(ref, name))

    def test_state_size_checked_once_up_front(self):
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(build_layout(2, 4, 60.0), np.random.default_rng(9))
        with pytest.raises(ValidationError):
            trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.25, P=3))

    @pytest.mark.parametrize("seed", range(6))
    def test_energy_error_scales_quadratically(self, seed):
        # halving the step at fixed trajectory length should cut the
        # Hamiltonian error by about 4
        layout, ctx = make_problem(2, 5, 60.0, seed=3)
        st = random_state(layout, np.random.default_rng(100 + seed), u_scale=0.3)
        h0 = h_total(st, ctx, MASSES).total
        coarse = trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.1, P=8))
        fine = trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.05, P=16))
        dh_coarse = h_total(coarse, ctx, MASSES).total - h0
        dh_fine = h_total(fine, ctx, MASSES).total - h0
        assert abs(dh_fine) > 1e-12
        ratio = abs(dh_coarse / dh_fine)
        assert 3.5 < ratio < 4.6

    def test_preserves_phase_space_volume(self):
        layout, ctx = make_problem(1, 2, 8.0, seed=5)
        cfg = IntegratorConfig(d_tau=0.3, P=2)
        rng = np.random.default_rng(5)
        st0 = PolymerState(
            u=rng.normal(0, 0.3, layout.N),
            theta=np.array([1.6, 0.4]),
            p=rng.normal(0, 2.0, layout.N),
            pi=rng.normal(0, 2.0, 2),
        )

        def pack(s):
            return np.concatenate([s.u, s.theta, s.p, s.pi])

        def unpack(v):
            N = layout.N
            return PolymerState(
                u=v[:N].copy(),
                theta=v[N : N + 2].copy(),
                p=v[N + 2 : 2 * N + 2].copy(),
                pi=v[2 * N + 2 :].copy(),
            )

        v0 = pack(st0)
        dim = v0.size
        h = 1e-6
        jac = np.zeros((dim, dim))
        for i in range(dim):
            vp = v0.copy()
            vp[i] += h
            vm = v0.copy()
            vm[i] -= h
            jac[:, i] = (
                pack(trotter_propagate(unpack(vp), ctx, MASSES, cfg))
                - pack(trotter_propagate(unpack(vm), ctx, MASSES, cfg))
            ) / (2 * h)
        assert abs(abs(np.linalg.det(jac)) - 1.0) < 1e-6

    def test_runaway_force_raises(self):
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(13))
        st.u[:: layout.j] -= 1e6
        with pytest.raises(NonFiniteError):
            trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.25, P=3))


def test_integrator_checks_demo_runs():
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "demos", "integrator_checks.py")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "reversibility" in proc.stdout
