import copy
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
from staghmc.energy import (
    InferenceProblem,
    _load,
    _proposal,
    _saturating,
    grad_hprime,
    h_N,
    h_total,
)
from staghmc.integrator import (
    IntegratorConfig,
    OscillatorBank,
    _free_flow,
    _trajectory,
    trotter_propagate,
)
from staghmc.lattice import LatticeLayout, MassConfig, PolymerState

SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
LAYOUTS = [
    LatticeLayout(1, 1, 5.0),
    LatticeLayout(2, 5, 833.0),
    LatticeLayout(10, 10, 120.0),
    LatticeLayout(10, 30, 833.0),
    LatticeLayout(5, 1, 7.0),
    LatticeLayout(4, 2, 13.0),
]


def make_problem(n=3, j=10, T=83.0, seed=0):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, T, n + 1)
    y = SIGNAL.value(times) * np.exp(rng.normal(0, 0.5, n + 1))
    data = TimeSeriesData(times=times, values=y)
    ctx = InferenceProblem(data, SIGNAL, ObservationModel(sigma=0.1), j).context()
    return ctx.layout, ctx


def random_state(layout, rng, u_scale=0.5, p_scale=3.0):
    return PolymerState(
        u=rng.normal(0, u_scale, layout.N),
        theta=np.array([rng.uniform(1.0, 2.2), rng.uniform(0.15, 0.9)]),
        p=rng.normal(0, p_scale, layout.N),
        pi=rng.normal(0, p_scale, 2),
    )


def rotate(u, p, bank):
    """The trajectory's free flow by the bank's step, in place, on separate
    rows ``u`` and ``p`` through a stacked copy."""
    x, cross = np.stack((u, p)), np.empty((2, u.size))
    _free_flow((x, *x, cross, *cross), bank.flow)
    u[...], p[...] = x


def rotated(state, bank):
    """The free flow by the bank's step applied to a copy."""
    out = copy.deepcopy(state)
    rotate(out.u, out.p, bank)
    return out


def frequencies(layout, masses):
    """(omega, m): omega_k = sqrt(T k / ((k-1) dt m)) at each staging bead,
    in lattice order, with m = m'/dt, from the formula and not the bank."""
    m = masses.m_prime / layout.dt
    k = np.tile(np.arange(2.0, layout.j + 1), layout.n)
    return np.sqrt(layout.T * k / (layout.dt * (k - 1.0)) / m), m


def flipped(state):
    out = copy.deepcopy(state)
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

    @pytest.mark.parametrize("d_tau", ["0.1", True, None, [0.1]])
    def test_rejects_a_step_that_is_not_a_number(self, d_tau):
        with pytest.raises(ValidationError, match="d_tau"):
            IntegratorConfig(d_tau=d_tau, P=3)

    def test_accepts_valid(self):
        cfg = IntegratorConfig(d_tau=0.25, P=3)
        assert cfg.d_tau == 0.25 and cfg.P == 3


class TestOscillatorBank:
    def test_frequency_matches_spring_constant(self):
        # the staging entries of the tables are those of the formula's
        # frequencies, bit for bit, and m omega^2 = T k / ((k-1) dt)
        layout = LatticeLayout(3, 10, 83.0)
        bank = OscillatorBank.build(layout, MASSES, 0.25)
        omega, m = frequencies(layout, MASSES)
        sin = np.sin(omega * 0.25)
        stg = np.arange(layout.N) % layout.j != 0
        cos, over, minus = bank.flow
        np.testing.assert_array_equal(cos[:, stg], [np.cos(omega * 0.25)] * 2)
        np.testing.assert_array_equal(over[stg], sin / (m * omega))
        np.testing.assert_array_equal(minus[stg], -(m * omega * sin))
        k = np.tile(np.arange(2.0, layout.j + 1), layout.n)
        stiff = layout.T * k / (layout.dt * (k - 1.0))
        np.testing.assert_allclose(-minus[stg] / over[stg] / m, stiff, rtol=1e-12)

    def test_frequencies_decrease_with_order(self):
        # omega = sqrt(-(m omega sin) / (sin / (m omega))) / m, off the tables
        layout = LatticeLayout(2, 6, 40.0)
        bank = OscillatorBank.build(layout, MASSES, 0.25)
        _, over, minus = bank.flow
        stg = np.arange(layout.N) % layout.j != 0
        omega = np.sqrt(-minus[stg] / over[stg]) / frequencies(layout, MASSES)[1]
        per_segment = omega.reshape(layout.n, layout.j - 1)
        assert np.all(np.diff(per_segment, axis=1) < 0)
        # both segments see the same oscillators
        np.testing.assert_allclose(per_segment[0], per_segment[1], rtol=1e-15)

    def test_one_shared_read_only_bank_per_key(self):
        bank = OscillatorBank.build(LatticeLayout(3, 10, 83.0), MASSES, 0.25)
        same = OscillatorBank.build(
            LatticeLayout(3, 10, 83.0), MassConfig(720.0, 130.0, (150.0, 150.0)), 0.25
        )
        assert same is bank
        assert OscillatorBank.build(bank.layout, MASSES, 0.5) is not bank
        other = MassConfig(720.0, 260.0, (150.0, 150.0))
        m = other.m_prime / bank.layout.dt
        assert OscillatorBank.build(bank.layout, other, 0.25).scale[1] == np.sqrt(m)
        assert not bank.scale.flags.writeable
        with pytest.raises(ValueError):
            bank.scale[0] = 1.0

    def test_no_staging_beads_is_a_free_drift(self):
        layout = LatticeLayout(4, 1, 20.0)
        bank = OscillatorBank.build(layout, MASSES, 0.125)
        assert np.all(bank.flow[0] == 1.0)
        rng = np.random.default_rng(1)
        st = random_state(layout, rng)
        out = rotated(st, bank)
        np.testing.assert_array_equal(out.u, st.u + st.p * (0.125 / MASSES.M))
        np.testing.assert_array_equal(out.p, st.p)


class TestRotation:
    def test_conserves_harmonic_energy(self):
        layout = LatticeLayout(3, 10, 83.0)
        bank = OscillatorBank.build(layout, MASSES, 0.185)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            st = random_state(layout, rng, u_scale=1.0, p_scale=5.0)
            before = h_N(st, MASSES, layout)
            after = h_N(rotated(st, bank), MASSES, layout)
            assert abs(after - before) <= 1e-12 * abs(before)

    def test_leaves_boundary_and_parameters_alone(self):
        # but for the free drift of the measurement beads
        layout = LatticeLayout(3, 10, 83.0)
        bank = OscillatorBank.build(layout, MASSES, 0.185)
        st = random_state(layout, np.random.default_rng(2))
        out = rotated(st, bank)
        b = np.arange(layout.n + 1) * layout.j
        np.testing.assert_array_equal(out.u[b], st.u[b] + st.p[b] * (0.185 / MASSES.M))
        np.testing.assert_array_equal(out.p[b], st.p[b])
        np.testing.assert_array_equal(out.theta, st.theta)
        np.testing.assert_array_equal(out.pi, st.pi)

    def test_full_period_returns_to_start(self):
        layout = LatticeLayout(3, 10, 83.0)
        idx = np.flatnonzero(np.arange(layout.N) % layout.j)[4]  # a staging bead
        omega = frequencies(layout, MASSES)[0][4]
        bank = OscillatorBank.build(layout, MASSES, 2.0 * np.pi / omega)
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
        layout = LatticeLayout(3, 10, 83.0)
        idx = np.flatnonzero(np.arange(layout.N) % layout.j)[4]  # a staging bead
        omega_all, m = frequencies(layout, MASSES)
        omega = omega_all[4]
        bank = OscillatorBank.build(layout, MASSES, 0.5 * np.pi / omega)
        st = PolymerState(
            u=np.zeros(layout.N),
            theta=np.array([1.8, 0.2]),
            p=np.zeros(layout.N),
            pi=np.zeros(2),
        )
        st.u[idx] = 0.7
        st.p[idx] = -2.1
        out = rotated(st, bank)
        m_omega = m * omega
        assert abs(out.u[idx] - st.p[idx] / m_omega) < 1e-12
        assert abs(out.p[idx] + m_omega * st.u[idx]) < 1e-12

    def test_full_step_is_two_half_steps(self):
        layout = LatticeLayout(3, 10, 83.0)
        half_step = OscillatorBank.build(layout, MASSES, 0.185)
        st = random_state(layout, np.random.default_rng(6), u_scale=1.0, p_scale=5.0)
        twice = rotated(rotated(st, half_step), half_step)
        once = rotated(st, OscillatorBank.build(layout, MASSES, 0.37))
        np.testing.assert_allclose(once.u, twice.u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(once.p, twice.p, rtol=0, atol=1e-12)

    def test_tables_are_read_only(self):
        bank = OscillatorBank.build(LatticeLayout(3, 10, 83.0), MASSES, 0.37)
        for table in bank.flow:
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_kick_steps_are_read_only_scalars(self):
        bank = OscillatorBank.build(LatticeLayout(3, 10, 83.0), MASSES, 0.37)
        assert (bank.kick_half.shape, bank.kick_full.shape) == ((), ())
        assert (float(bank.kick_half), float(bank.kick_full)) == (0.5 * 0.37, 0.37)
        for kick in (bank.kick_half, bank.kick_full):
            with pytest.raises(ValueError):
                kick[...] = 0.0


def view_rotation(state, bank, step):
    """The rotation on the (n, j-1) staging views, with tables in that shape."""
    out = copy.deepcopy(state)
    lay = bank.layout
    omega, m = frequencies(lay, bank.masses)
    omega = omega.reshape(lay.n, lay.j - 1)
    m_omega = m * omega
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
    @pytest.mark.parametrize("whole_step", [False, True])
    def test_matches_view_formula(self, layout, whole_step):
        step = 0.37 if whole_step else 0.185
        bank = OscillatorBank.build(layout, MASSES, step)
        st = random_state(layout, np.random.default_rng(layout.N), u_scale=1.0, p_scale=5.0)
        out = rotated(st, bank)
        ref = view_rotation(st, bank, step)
        stg = np.arange(layout.N) % layout.j != 0
        np.testing.assert_array_equal(out.u[stg], ref.u[stg])
        np.testing.assert_array_equal(out.p, ref.p)
        # measurement beads, the last one included, drift freely with their
        # momenta exactly unchanged
        b = slice(None, None, layout.j)
        np.testing.assert_array_equal(out.u[b], st.u[b] + st.p[b] * (step / MASSES.M))
        np.testing.assert_array_equal(out.p[b], st.p[b])

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_tables_are_flat_with_identity_at_measurement_beads(self, layout):
        # identity on the momenta; the positions drift as free particles
        for step in (0.185, 0.37):
            cos, sin_over_m_omega, minus_m_omega_sin = OscillatorBank.build(
                layout, MASSES, step
            ).flow
            assert cos.shape == (2, layout.N)
            np.testing.assert_array_equal(cos[0], cos[1])
            for table in (cos, sin_over_m_omega, minus_m_omega_sin):
                assert table.shape[-1] == layout.N
                assert not table.flags.writeable
            np.testing.assert_array_equal(cos[:, :: layout.j], 1.0)
            np.testing.assert_array_equal(sin_over_m_omega[:: layout.j], step / MASSES.M)
            # -0.0, so that p + u (-0.0) keeps the sign of a zero momentum
            np.testing.assert_array_equal(minus_m_omega_sin[:: layout.j], 0.0)
            assert np.all(np.signbit(minus_m_omega_sin[:: layout.j]))


class TestTwoRowFlow:
    """The trajectory's free flow on the phase-space array [u; p] against the
    rotation formula on separate rows u and p, as the integrator ran it
    before the rows were stacked, with flat tables built here from the
    formula's frequencies and the step, not read from the bank."""

    @staticmethod
    def formula(u, p, bank, step):
        lay = bank.layout
        omega, m = frequencies(lay, bank.masses)
        omega = omega.reshape(lay.n, lay.j - 1)
        m_omega = m * omega
        angle = omega * step
        sin = np.sin(angle)
        # the free-particle entries (1, step / M, 0) at the measurement beads
        cos, sin_over_m_omega = np.ones(lay.N), np.full(lay.N, step / bank.masses.M)
        m_omega_sin = np.zeros(lay.N)
        lay.staging(cos)[...] = np.cos(angle)
        lay.staging(sin_over_m_omega)[...] = sin / m_omega
        lay.staging(m_omega_sin)[...] = m_omega * sin
        kick = u * m_omega_sin
        u *= cos
        u += p * sin_over_m_omega
        p *= cos
        p -= kick

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    @pytest.mark.parametrize("whole_step", [False, True])
    def test_matches_the_rotation_formula_bit_for_bit(self, layout, whole_step):
        step = 0.37 if whole_step else 0.185
        bank = OscillatorBank.build(layout, MASSES, step)
        rng = np.random.default_rng(layout.N)
        for case in range(4):
            u = rng.normal(0, 1.0, layout.N)
            p = rng.normal(0, 5.0, layout.N)
            # signed zeros on both kinds of bead, in both rows
            u[rng.integers(0, layout.N, 3)] = rng.choice([0.0, -0.0], 3)
            p[rng.integers(0, layout.N, 3)] = rng.choice([0.0, -0.0], 3)
            p[:: layout.j][case % 2 :: 2] = -0.0 if case < 2 else 0.0
            if case % 2:  # an infinite measurement bead: inf * 0 = NaN
                u[layout.j * (layout.n // 2)] = np.inf if case == 1 else -np.inf
            want = np.stack((u, p))
            x, cross = want.copy(), np.empty((2, layout.N))
            with np.errstate(invalid="ignore"):
                self.formula(*want, bank, step)
                _free_flow((x, *x, cross, *cross), bank.flow)
            np.testing.assert_array_equal(x, want)
            # assert_array_equal takes 0.0 == -0.0; the signs must agree too
            np.testing.assert_array_equal(np.signbit(x), np.signbit(want))


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
        snapshot = copy.deepcopy(st)
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

    def test_flow_memo_follows_masses_and_step(self):
        # the context remembers the free-flow tables of its last (masses,
        # d_tau); a change of either, and a change back, must look up the
        # right bank
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(11))
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(150.0, 150.0))
        for masses, d_tau in ((MASSES, 0.25), (other, 0.25), (MASSES, 0.3), (MASSES, 0.25)):
            cfg = IntegratorConfig(d_tau=d_tau, P=3)
            got = trotter_propagate(st, ctx, masses, cfg)
            want = trotter_propagate(st, make_problem(2, 5, 60.0)[1], masses, cfg)
            for name in ("u", "p", "theta", "pi"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

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
        # P x (half kick, half flow, half flow, half kick), unmerged, every
        # kick from a fresh public gradient
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(layout, np.random.default_rng(12 + P))
        cfg = IntegratorConfig(d_tau=0.25, P=P)
        half = 0.5 * cfg.d_tau
        bank = OscillatorBank.build(layout, MASSES, half)
        ref = copy.deepcopy(st)

        def kick():
            g_u, g_theta = grad_hprime(ref, ctx)
            ref.p -= g_u * half
            ref.pi -= g_theta * half

        for _ in range(P):
            kick()
            for _ in range(2):
                rotate(ref.u, ref.p, bank)
                ref.theta += half * ref.pi / np.array(MASSES.m_alpha)
            kick()
        out = trotter_propagate(st, ctx, MASSES, cfg)
        for name in ("u", "p", "theta", "pi"):
            np.testing.assert_allclose(
                getattr(out, name), getattr(ref, name), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_matches_array_reference_bit_for_bit(self, layout, P, seed):
        # K(dtau/2) [F(dtau) K(dtau)]^(P-1) F(dtau) K(dtau/2) written out
        # with fresh public gradients and array kicks and drifts, the form
        # the Python-float trajectory replaces
        _, ctx = make_problem(layout.n, layout.j, layout.T, seed=5)
        st = random_state(layout, np.random.default_rng(40 + 4 * seed + P), u_scale=0.3)
        # not a power of two, so that a reordered product shows in the bits
        cfg = IntegratorConfig(d_tau=0.3, P=P)
        bank = OscillatorBank.build(layout, MASSES, cfg.d_tau)
        ref = copy.deepcopy(st)

        def kick(step):
            g_u, g_theta = grad_hprime(ref, ctx)
            ref.p -= g_u * step
            ref.pi -= g_theta * step

        try:
            kick(0.5 * cfg.d_tau)
            for step in range(1, P + 1):
                rotate(ref.u, ref.p, bank)
                ref.theta += cfg.d_tau * ref.pi / np.array(MASSES.m_alpha)
                kick(cfg.d_tau if step < P else 0.5 * cfg.d_tau)
        except NonFiniteError:  # a runaway trajectory must run away alike
            with pytest.raises(NonFiniteError):
                trotter_propagate(st, ctx, MASSES, cfg)
            return
        out = trotter_propagate(st, ctx, MASSES, cfg)
        for name in ("u", "p", "theta", "pi"):
            np.testing.assert_array_equal(getattr(out, name), getattr(ref, name))

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_carried_force_in_exit_force_and_potential_out(self, layout):
        # what the sampler carries from one iteration to the next: the
        # force goes in from another workspace, and the end's force and
        # potential come out of the trajectory's own
        _, ctx = make_problem(layout.n, layout.j, layout.T, seed=5)
        held = ctx.problem.context()
        st = random_state(layout, np.random.default_rng(7), u_scale=0.3)
        cfg = IntegratorConfig(d_tau=0.25, P=3)
        start = grad_hprime(st, held)
        force = (held.rows.g_u, *start.g_theta.tolist())
        kept = held.rows.g_u.tobytes()
        loaded = _load(st, ctx)
        assert loaded == [*st.theta.tolist(), *st.pi.tolist()]
        bank = OscillatorBank.build(layout, MASSES, cfg.d_tau)
        end, g_theta, (h_n, h_1) = _saturating(_trajectory)(ctx, bank, cfg.P, loaded, force)
        assert all(type(v) is float for v in (*end, *g_theta, h_n, h_1))
        assert held.rows.g_u.tobytes() == kept  # the carried force is read, never written
        out, end_force = _proposal(ctx, end), ctx.rows.g_u.copy()
        fresh = trotter_propagate(st, ctx.problem.context(), MASSES, cfg)
        for name in ("u", "p", "theta", "pi"):
            np.testing.assert_array_equal(getattr(out, name), getattr(fresh, name))
        want = grad_hprime(out, held)
        np.testing.assert_array_equal(end_force, want.g_u)
        assert g_theta == tuple(want.g_theta.tolist())
        # at zero momenta, h_total's h_n and h_1 are the position parts alone
        rest = PolymerState(out.u, out.theta, np.zeros_like(out.p), np.zeros(2))
        assert (h_n, h_1) == h_total(rest, held, MASSES)[1:3]
        assert not np.shares_memory(out.u, ctx.phase[0])

    def test_trajectory_takes_masses_and_step_from_its_bank(self):
        # the bank is the step: a bank of other masses and another d_tau
        # than the module's runs the trajectory of those settings
        layout, ctx = make_problem(2, 5, 60.0)
        held = ctx.problem.context()
        st = random_state(layout, np.random.default_rng(17), u_scale=0.3)
        other = MassConfig(M=360.0, m_prime=65.0, m_alpha=(15.0, 90.0))
        cfg = IntegratorConfig(d_tau=0.3, P=3)
        bank = OscillatorBank.build(layout, other, cfg.d_tau)
        start = grad_hprime(st, held)
        force = (held.rows.g_u, *start.g_theta.tolist())
        end = _saturating(_trajectory)(ctx, bank, cfg.P, _load(st, ctx), force)[0]
        out = _proposal(ctx, end)
        want = trotter_propagate(st, ctx.problem.context(), other, cfg)
        for name in ("u", "p", "theta", "pi"):
            np.testing.assert_array_equal(getattr(out, name), getattr(want, name))
        module = trotter_propagate(st, ctx.problem.context(), MASSES, cfg)
        assert not np.array_equal(out.theta, module.theta)

    def test_state_size_checked_once_up_front(self):
        layout, ctx = make_problem(2, 5, 60.0)
        st = random_state(LatticeLayout(2, 4, 60.0), np.random.default_rng(9))
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

