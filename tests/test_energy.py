import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from staghmc import (
    DomainError,
    InputSignal,
    NonFiniteError,
    ObservationModel,
    TimeSeriesData,
    ValidationError,
)
from staghmc.energy import (
    EXP_CLAMP,
    Gradient,
    InferenceProblem,
    grad_hprime,
    h_N,
    h_total,
)
from staghmc.lattice import (
    LatticeLayout,
    MassConfig,
    PolymerState,
    staging_adjoint,
    staging_inverse,
)

from test_integrator import LAYOUTS

SIGNAL = InputSignal.sinusoid(1.0, 0.01, 0.1)
MASSES = MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))


def make_problem(n=3, j=10, T=83.0, seed=0):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, T, n + 1)
    y = SIGNAL.value(times) * np.exp(rng.normal(0, 0.5, n + 1))
    data = TimeSeriesData(times=times, values=y)
    ctx = InferenceProblem(data, SIGNAL, ObservationModel(sigma=0.1), j).context()
    return ctx.layout, data, ctx


def random_state(layout, rng, u_scale=0.5):
    return PolymerState(
        u=rng.normal(0, u_scale, layout.N),
        theta=np.array([rng.uniform(1.0, 2.2), rng.uniform(0.15, 0.9)]),
        p=rng.normal(0, 3.0, layout.N),
        pi=rng.normal(0, 3.0, 2),
    )


def at_rest(state):
    """A copy of ``state`` with every momentum 0. Its `h_total` pieces are
    the position parts bit for bit (0.0 + x = x): h_N the harmonic sum, and
    h_n and h_1 the pair of the kernel pass."""
    return PolymerState(state.u.copy(), state.theta.copy(), np.zeros_like(state.p), np.zeros(2))


def workspace_arrays(ctx):
    """Every array a context holds: its slots, the slots of its kernel rows,
    and the arrays inside tuples among them."""
    held = [getattr(ctx, name, None) for name in type(ctx).__slots__]
    arrays = []
    while held:
        item = held.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, tuple):
            held.extend(item)
        elif hasattr(type(item), "__slots__"):
            held.extend(getattr(item, name, None) for name in type(item).__slots__)
    return arrays


def hprime(state, ctx, masses=MASSES):
    e = h_total(state, ctx, masses)
    return e.h_n + e.h_1


def total_literal(state, ctx, masses):
    """Single-formula transcription of the discretized Hamiltonian in bead
    coordinates q, with no staging split; the production code must agree."""
    lay = ctx.layout
    beta, gamma = state.theta
    q = staging_inverse(state.u, lay)
    t = lay.times
    r = ctx.problem.signal.value(t)
    dt, T = lay.dt, lay.T
    rho = np.zeros(lay.N)
    rho[1:] = T * np.log(r[1:] / r[:-1]) / (beta * dt) + (2 + gamma) * beta / (2 * gamma)
    rhodot = np.zeros(lay.N)
    rhodot[2:] = (rho[2:] - rho[1:-1]) / dt
    E = np.exp(-beta * q)
    bmask = np.zeros(lay.N, dtype=bool)
    bmask[:: lay.j] = True
    kin = (
        np.sum(state.p[bmask] ** 2) / (2 * masses.M)
        + np.sum(state.p[~bmask] ** 2) / (2 * masses.m_prime / dt)
        + np.sum(state.pi**2 / (2 * np.asarray(masses.m_alpha)))
    )
    harm = (T / (2 * dt)) * np.sum(np.diff(q) ** 2)
    body = (dt / T) * np.sum(
        0.5 * (rho[1:] - (beta / gamma) * E[1:]) ** 2
        - (beta**2 / (2 * gamma)) * E[1:]
        - T * q[1:] * rhodot[1:]
    )
    edge = (1 / gamma) * E[-1] + q[-1] * rho[-1] - (1 / gamma) * E[0] - q[0] * rho[1]
    lnyr = np.log(ctx.problem.data.values / r[:: lay.j])
    meas = np.sum((lnyr - beta * q[bmask]) ** 2) / (2 * ctx.problem.obs.sigma**2)
    return kin + harm + body + edge + meas


class TestPieces:
    def test_h_N_hand_values(self):
        # layout (n=1, j=2, T=2): dt = 1, single staging bead with k = 2,
        # spring constant T k/(dt (k-1)) = 4
        layout = LatticeLayout(1, 2, 2.0)
        masses = MassConfig(M=1.0, m_prime=1.0, m_alpha=(1.0, 1.0))
        st = PolymerState(
            u=np.array([0.0, 1.0, 0.0]), theta=np.array([1.0, 1.0]),
            p=np.zeros(3), pi=np.zeros(2),
        )
        assert h_N(st, masses, layout) == pytest.approx(2.0, rel=1e-15)
        st.u[1] = 0.0
        st.p[1] = 3.0  # kinetic dt p^2/(2 m') = 4.5
        assert h_N(st, masses, layout) == pytest.approx(4.5, rel=1e-15)

    def test_h_N_printed_form(self):
        layout, _, _ = make_problem()
        rng = np.random.default_rng(1)
        st = random_state(layout, rng)
        mask = np.arange(layout.N) % layout.j != 0  # the staging beads
        k = np.tile(np.arange(2.0, layout.j + 1), layout.n)  # their orders
        want = 0.5 * np.sum(
            layout.dt * st.p[mask] ** 2 / MASSES.m_prime
            + layout.T * k * st.u[mask] ** 2 / (layout.dt * (k - 1))
        )
        assert h_N(st, MASSES, layout) == pytest.approx(want, rel=1e-14)

    def test_h_N_zero_when_no_staging(self):
        layout = LatticeLayout(4, 1, 8.0)
        st = PolymerState(
            u=np.ones(5), theta=np.array([1.0, 1.0]), p=np.ones(5), pi=np.zeros(2)
        )
        assert h_N(st, MASSES, layout) == 0.0

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: f"n{lay.n}j{lay.j}")
    def test_h_total_h_N_is_the_h_N_oracle(self, layout):
        # one meaning of h_N: the scorer's staged energy, kinetic plus
        # harmonic, is the oracle's bit for bit
        ctx = make_problem(layout.n, layout.j, layout.T)[2]
        rng = np.random.default_rng(layout.N)
        for _ in range(20):
            st = random_state(layout, rng, u_scale=rng.uniform(0.1, 3.0))
            assert h_total(st, ctx, MASSES).h_N == h_N(st, MASSES, layout)

    def test_h_n_unit_residual(self):
        # constant input r = 1, u = 0: the residual is ln(y_s); choosing
        # y = (e^sigma, 1, 1, 1) leaves a single sigma-sized log residual,
        # contributing exactly 1/2
        layout = LatticeLayout(3, 4, 6.0)
        sig = InputSignal.sinusoid(0.0, 0.0, 1.0)
        sigma = 0.1
        y = np.ones(4)
        y[0] = np.exp(sigma)
        data = TimeSeriesData(times=np.linspace(0, 6.0, 4), values=y)
        ctx = InferenceProblem(data, sig, ObservationModel(sigma), layout.j).context()
        st = PolymerState(
            u=np.zeros(layout.N), theta=np.array([1.3, 0.7]),
            p=np.zeros(layout.N), pi=np.zeros(2),
        )
        assert h_total(st, ctx, MASSES).h_n == pytest.approx(0.5, rel=1e-12)

    def test_h_1_parameter_kinetic(self):
        layout, _, ctx = make_problem()
        masses = MassConfig(M=1.0, m_prime=1.0, m_alpha=(1.0, 1.0))
        rng = np.random.default_rng(2)
        st = random_state(layout, rng)
        st.pi = np.array([1.0, 2.0])
        still = copy.deepcopy(st)
        still.pi = np.zeros(2)
        assert h_total(st, ctx, masses).h_1 - h_total(still, ctx, masses).h_1 == pytest.approx(
            2.5, rel=1e-12
        )

    def test_total_is_sum(self):
        layout, _, ctx = make_problem()
        st = random_state(layout, np.random.default_rng(3))
        e = h_total(st, ctx, MASSES)
        assert e.total == e.h_N + e.h_n + e.h_1

    # h_total is also the sampler's scorer of both trajectory ends, so this
    # single-formula literal is the independent check of the energies the
    # Metropolis test reads
    def test_total_matches_unsplit_hamiltonian(self):
        for layout in LAYOUTS:
            for seed in range(5):
                _, _, ctx = make_problem(layout.n, layout.j, layout.T, seed=seed)
                st = random_state(layout, np.random.default_rng(100 + seed))
                ours = h_total(st, ctx, MASSES).total
                ref = total_literal(st, ctx, MASSES)
                assert ours == pytest.approx(ref, rel=1e-12)

    def test_total_matches_unsplit_on_reference_lattice(self):
        # LAYOUTS holds the reference lattice n = 10, j = 30, T = 833
        for layout in LAYOUTS:
            n, T = layout.n, layout.T
            rng = np.random.default_rng(42)
            times = np.linspace(0, T, n + 1)
            values = SIGNAL.value(times) * np.exp(rng.normal(0, 0.3, n + 1))
            data = TimeSeriesData(times=times, values=values)
            ctx = InferenceProblem(data, SIGNAL, ObservationModel(0.1), layout.j).context()
            st = random_state(layout, rng, u_scale=0.3)
            assert h_total(st, ctx, MASSES).total == pytest.approx(
                total_literal(st, ctx, MASSES), rel=1e-12
            )


class TestFlatTerms:
    """The flat products against the (n, j-1) view formulas they replace."""

    @pytest.mark.parametrize("n, j", [(1, 1), (2, 2), (3, 10), (10, 30)])
    def test_staging_terms_match_view_formulas(self, n, j):
        layout, _, ctx = make_problem(n, j, 83.0)
        for seed in range(5):
            st = random_state(layout, np.random.default_rng(seed), u_scale=2.0)
            us, ps = layout.staging(st.u), layout.staging(st.p)
            harmonic = 0.5 * float((layout.stiffness * (us * us)).sum())
            kinetic = (0.5 * layout.dt / MASSES.m_prime) * float((ps * ps).sum())
            assert h_total(at_rest(st), ctx, MASSES).h_N == pytest.approx(
                harmonic, rel=1e-14, abs=0.0
            )
            # at u = 0 the harmonic part is 0, so h_N is the kinetic term
            # alone; subtracting the harmonic part instead would lose digits
            still = copy.deepcopy(st)
            still.u[...] = 0.0
            assert h_N(still, MASSES, layout) == pytest.approx(kinetic, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n, j", [(1, 1), (2, 5), (10, 30)])
    def test_spring_laplacian_matches_pairwise_form(self, n, j):
        # the boundary stage's spring stencil d_{s-1} - d_s, built by an
        # energy call; the springs pull with coup times it
        layout, _, ctx = make_problem(n, j, 83.0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ub = rng.normal(0, 2, n + 1)
            d = ub[1:] - ub[:-1]
            want = np.zeros(n + 1)
            want[:-1] -= d
            want[1:] += d
            st = random_state(layout, rng)
            st.u[:: layout.j] = ub
            h_total(st, ctx, MASSES)
            np.testing.assert_array_equal(ctx.lap, want)

    def test_flat_tables_are_read_only(self):
        layout, _, ctx = make_problem()
        for table in (layout.flat_stiffness, layout.bead_classes):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_gradient_unpacks(self):
        layout, _, ctx = make_problem()
        g = grad_hprime(random_state(layout, np.random.default_rng(7)), ctx)
        g_u, g_theta = g
        assert g_u is g.g_u and g_theta is g.g_theta


class TestDecoupling:
    def test_h_N_ignores_boundary_and_theta(self):
        layout, _, _ = make_problem()
        rng = np.random.default_rng(4)
        st = random_state(layout, rng)
        base = h_N(st, MASSES, layout)
        st.u[:: layout.j] += rng.normal(0, 5, layout.n + 1)
        st.p[:: layout.j] += rng.normal(0, 5, layout.n + 1)
        st.theta = np.array([0.3, 2.5])
        st.pi += 1.0
        assert h_N(st, MASSES, layout) == base

    def test_h_n_ignores_staging_and_gamma(self):
        layout, _, ctx = make_problem()
        rng = np.random.default_rng(5)
        st = random_state(layout, rng)
        base = h_total(st, ctx, MASSES).h_n
        us, ps = layout.staging(st.u), layout.staging(st.p)
        us += rng.normal(0, 5, us.shape)
        ps += rng.normal(0, 5, ps.shape)
        st.theta[1] = 2.2
        st.pi += 1.0
        assert h_total(st, ctx, MASSES).h_n == base

    def test_h_1_ignores_bead_momenta(self):
        layout, _, ctx = make_problem()
        rng = np.random.default_rng(6)
        st = random_state(layout, rng)
        base = h_total(st, ctx, MASSES).h_1
        st.p += rng.normal(0, 5, layout.N)
        assert h_total(st, ctx, MASSES).h_1 == base


class TestGradient:
    @pytest.mark.parametrize(
        "n,j,T",
        [
            (3, 10, 83.0),
            (2, 5, 21.0),
            (1, 2, 3.0),
            (4, 1, 9.0),
            (5, 2, 17.0),
            (1, 1, 3.0),
            (1, 30, 60.0),
        ],
    )
    def test_matches_central_differences(self, n, j, T):
        layout, _, ctx = make_problem(n=n, j=j, T=T, seed=j)
        rng = np.random.default_rng(1000 + j)
        h = 1e-5
        for _ in range(20 if layout.N < 50 else 5):
            st = random_state(layout, rng)
            g = grad_hprime(st, ctx)
            fd_u = np.empty(layout.N)
            for i in range(layout.N):
                up, dn = copy.deepcopy(st), copy.deepcopy(st)
                up.u[i] += h
                dn.u[i] -= h
                fd_u[i] = (hprime(up, ctx) - hprime(dn, ctx)) / (2 * h)
            np.testing.assert_allclose(g.g_u, fd_u, rtol=1e-6, atol=1e-8)
            fd_t = np.empty(2)
            for a in range(2):
                up, dn = copy.deepcopy(st), copy.deepcopy(st)
                up.theta[a] += h
                dn.theta[a] -= h
                fd_t[a] = (hprime(up, ctx) - hprime(dn, ctx)) / (2 * h)
            np.testing.assert_allclose(g.g_theta, fd_t, rtol=1e-6, atol=1e-8)

    def test_gradient_shape(self):
        layout, _, ctx = make_problem()
        g = grad_hprime(random_state(layout, np.random.default_rng(7)), ctx)
        assert isinstance(g, Gradient)
        assert g.g_u.shape == (layout.N,)
        assert g.g_theta.shape == (2,)


class TestScratch:
    """The kernel reuses one workspace per context, so what it returns must
    not alias it, and no call may see what an earlier call left there."""

    def states(self, layout):
        return [random_state(layout, np.random.default_rng(s)) for s in (21, 22)]

    def test_gradient_survives_a_second_call(self):
        layout, _, ctx = make_problem()
        a, b = self.states(layout)
        first = grad_hprime(a, ctx)
        kept = first.g_u.copy(), first.g_theta.copy()
        second = grad_hprime(b, ctx)
        h_total(b, ctx, MASSES)
        np.testing.assert_array_equal(first.g_u, kept[0])
        np.testing.assert_array_equal(first.g_theta, kept[1])
        assert not np.shares_memory(first.g_u, second.g_u)
        assert not np.shares_memory(first.g_theta, second.g_theta)
        again = grad_hprime(a, make_problem()[2])  # a fresh context
        np.testing.assert_array_equal(again.g_u, kept[0])
        np.testing.assert_array_equal(again.g_theta, kept[1])

    def test_energy_survives_a_second_call(self):
        layout, _, ctx = make_problem()
        a, b = self.states(layout)
        first, rest = h_total(a, ctx, MASSES), h_total(at_rest(a), ctx, MASSES)
        kept = (*first, *rest)
        grad_hprime(b, ctx)
        h_total(b, ctx, MASSES)
        assert (*first, *rest) == kept
        assert all(type(x) is float for x in kept)
        assert h_total(a, make_problem()[2], MASSES) == first

    def test_unpickled_context_gets_its_own_workspace(self):
        layout, _, ctx = make_problem()
        back = pickle.loads(pickle.dumps(ctx))
        assert back is not ctx and back != ctx and back.problem == ctx.problem
        assert not np.shares_memory(back.phase[0], ctx.phase[0])
        assert np.shares_memory(back.E_tail, back.E)
        for st in self.states(layout):
            want, got = grad_hprime(st, ctx), grad_hprime(st, back)
            np.testing.assert_array_equal(got.g_u, want.g_u)
            np.testing.assert_array_equal(got.g_theta, want.g_theta)
            assert h_total(st, back, MASSES) == h_total(st, ctx, MASSES)

    def test_contexts_share_the_tables_and_no_workspace_row(self):
        from staghmc.integrator import IntegratorConfig, trotter_propagate

        layout, _, first = make_problem()
        problem = first.problem
        second = problem.context()
        assert first.lnyr is problem.lnyr and second.lnyr is problem.lnyr
        assert first.layout is second.layout is problem.layout
        assert first == first and first != second
        st = self.states(layout)[0]
        for ctx in (first, second):  # fill every row, the flow memo included
            h_total(st, ctx, MASSES)
            trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.25, P=3))
        rows = workspace_arrays(first), workspace_arrays(second)
        assert sum(a.flags.writeable for a in rows[0]) > 40
        for a in rows[0]:
            for b in rows[1]:
                if np.shares_memory(a, b):  # only the problem's tables
                    assert not (a.flags.writeable or b.flags.writeable)

    def test_pickled_problem_rebuilds_read_only_tables(self):
        layout, _, ctx = make_problem()
        problem = ctx.problem
        assert problem.__reduce__()[1] == (problem.data, problem.signal, problem.obs, problem.j)
        back = pickle.loads(pickle.dumps(problem))
        assert back == problem and hash(back) == hash(problem)
        for name in ("L", "Ldot", "lnyr"):
            table = getattr(back, name)
            assert not table.flags.writeable
            assert table.tobytes() == getattr(problem, name).tobytes()
        fresh = back.context()
        for st in self.states(layout):
            want, got = grad_hprime(st, ctx), grad_hprime(st, fresh)
            assert got.g_u.tobytes() == want.g_u.tobytes()
            assert got.g_theta.tobytes() == want.g_theta.tobytes()
            assert h_total(st, fresh, MASSES) == h_total(st, ctx, MASSES)


class TestBoundaryStageCache:
    """The kernel builds its boundary stage (the terms of theta and u[::j]
    alone) on every pass and keeps none between passes. Calls through the
    trajectory's entry and the public functions, interleaved on one
    context, must give what a fresh context gives, for states that share
    their stage terms or differ in them by one ulp or the sign of a zero."""

    def pair(self, layout, case):
        rng = np.random.default_rng(31)
        a = random_state(layout, rng)
        b = copy.deepcopy(a)
        bead = layout.j  # an inner measurement bead
        if case == "hit":
            layout.staging(b.u)[...] = rng.normal(0, 0.5, (layout.n, layout.j - 1))
        elif case == "bead-ulp":
            b.u[bead] = np.nextafter(a.u[bead], np.inf)
        elif case == "beta-ulp":
            b.theta[0] = np.nextafter(a.theta[0], np.inf)
        else:  # signed zero
            a.u[bead], b.u[bead] = 0.0, -0.0
        return a, b

    @pytest.mark.parametrize("case", ["hit", "bead-ulp", "beta-ulp", "signed-zero"])
    def test_interleaved_calls_match_a_fresh_context(self, case):
        import staghmc.energy as energy

        layout, _, ctx = make_problem()
        a, b = self.pair(layout, case)

        @energy._saturating
        def trajectory_gradient(st):
            np.copyto(ctx.rows.u, st.u)
            _, _, g_u, g_beta, g_gamma = energy._hprime(*st.theta.tolist(), ctx, True)
            return g_u.copy(), np.array([g_beta, g_gamma])

        def check_gradient(got, st):
            want = grad_hprime(st, make_problem()[2])
            np.testing.assert_array_equal(got[0], want.g_u)
            np.testing.assert_array_equal(got[1], want.g_theta)

        def check_energy(st):
            # at rest, the pieces are the position parts alone
            for scored in (st, at_rest(st)):
                got = h_total(scored, ctx, MASSES)
                want = h_total(scored, make_problem()[2], MASSES)
                assert got == want

        # the states alternate, so that every call meets the other's stage
        check_gradient(trajectory_gradient(a), a)
        check_gradient(grad_hprime(b, ctx), b)
        check_energy(a)
        check_gradient(trajectory_gradient(b), b)
        check_gradient(grad_hprime(a, ctx), a)
        check_energy(b)

    def test_public_gradient_shares_no_memory_with_the_workspace(self):
        from staghmc.integrator import IntegratorConfig, trotter_propagate

        layout, _, ctx = make_problem()
        st = random_state(layout, np.random.default_rng(5))
        g = grad_hprime(st, ctx)
        moved = trotter_propagate(st, ctx, MASSES, IntegratorConfig(d_tau=0.25, P=3))
        rows = workspace_arrays(ctx)
        assert any(row is ctx.rows.g_u for row in rows)
        assert any(row is ctx.rows.u for row in rows)
        returned = [g.g_u, g.g_theta, moved.u, moved.p, moved.theta, moved.pi]
        for row in rows:
            for out in returned:
                assert not np.shares_memory(out, row)


class TestResidualsFromExponentRow:
    """The kernel reads the data residuals off its exponent row -beta q at
    the measurement beads, which holds only if the staging inverse leaves
    those beads exactly as they are."""

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: f"n{lay.n}j{lay.j}")
    def test_inverse_keeps_measurement_beads_bit_for_bit(self, layout):
        from staghmc.lattice import _StagingRows

        rows = _StagingRows(layout)
        rng = np.random.default_rng(layout.N)
        for scale in (1e-300, 0.5, 1e3, 1e300):
            rows.u[...] = rng.normal(0.0, scale, layout.N)
            rows.inverse()
            assert rows.q[:: layout.j].tobytes() == rows.u[:: layout.j].tobytes()

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: f"n{lay.n}j{lay.j}")
    def test_resid_row_matches_the_direct_formula(self, layout):
        import staghmc.energy as energy

        _, _, ctx = make_problem(layout.n, layout.j, layout.T)
        kernel = energy._saturating(energy._hprime)
        rng = np.random.default_rng(layout.N + 1)
        for gradient in (False, True):
            for _ in range(5):
                st = random_state(layout, rng)
                beta, gamma = st.theta.tolist()
                ctx.rows.u[...] = st.u
                kernel(beta, gamma, ctx, gradient)
                want = np.subtract(ctx.lnyr, np.multiply(st.u[:: layout.j], beta))
                assert ctx.resid.tobytes() == want.tobytes()


class TestPlanSize:
    def test_no_array_of_the_context_outgrows_the_path(self):
        # n = 2000 measurement beads: an (n+1, n+1) table would hold 4 M
        # entries, against the 3 N = 12 003 allowed here
        n, j = 2000, 2
        layout, _, ctx = make_problem(n, j, 4000.0)
        grad_hprime(random_state(layout, np.random.default_rng(17)), ctx)
        h_total(random_state(layout, np.random.default_rng(18)), ctx, MASSES)
        problem = ctx.problem
        held = [getattr(problem, f.name) for f in dataclasses.fields(problem)]
        held += [getattr(layout, f.name) for f in dataclasses.fields(layout)]
        arrays = [item for item in held if isinstance(item, np.ndarray)]
        arrays += workspace_arrays(ctx)
        assert len(arrays) > 40
        assert max(a.size for a in arrays) <= 3 * layout.N


class TestKernelRow:
    """The kernel reads its one row u, loaded from each state by copy.
    Every result on one context must match a fresh context's, as the
    caller's array is written in place, swapped for a copy, swapped back,
    or passed non-contiguous."""

    def check(self, ctx, u, theta):
        """Compare the trajectory's entry (load the row, call the kernel)
        and the public wrappers on ``ctx`` with a fresh context."""
        import staghmc.energy as energy

        st = PolymerState(u=u, theta=theta, p=np.ones(u.size), pi=np.ones(2))
        fresh = make_problem()[2]
        want = grad_hprime(st, fresh)
        np.copyto(ctx.rows.u, st.u)
        kernel_gradient = energy._saturating(energy._hprime)
        _, _, g_u, g_beta, g_gamma = kernel_gradient(*st.theta.tolist(), ctx, True)
        np.testing.assert_array_equal(g_u, want.g_u)
        np.testing.assert_array_equal([g_beta, g_gamma], want.g_theta)
        got = grad_hprime(st, ctx)
        np.testing.assert_array_equal(got.g_u, want.g_u)
        np.testing.assert_array_equal(got.g_theta, want.g_theta)
        assert h_total(st, ctx, MASSES) == h_total(st, fresh, MASSES)

    @pytest.mark.parametrize("n, j", [(1, 1), (2, 5), (10, 30)])
    def test_gradient_pass_gives_the_potential_of_h_total(self, n, j):
        # the trajectory takes the proposal's potential from its last
        # gradient pass; the sampler compares it with carried h_total values
        import staghmc.energy as energy

        layout, _, ctx = make_problem(n, j, 83.0)
        kernel = energy._saturating(energy._hprime)
        for seed in range(5):
            st = random_state(layout, np.random.default_rng(seed), u_scale=1.0)
            want = h_total(at_rest(st), make_problem(n, j, 83.0)[2], MASSES)
            np.copyto(ctx.rows.u, st.u)
            h_n, h_1, *_ = kernel(*st.theta.tolist(), ctx, True)
            assert (h_n, h_1) == (want.h_n, want.h_1)
            assert type(h_n) is float and type(h_1) is float

    @pytest.mark.parametrize("n, j", [(1, 1), (2, 5), (10, 30)])
    def test_gradient_only_pass_gives_the_gradient_of_a_full_pass(self, n, j):
        # the trajectory's first P - 1 passes skip the potential
        import staghmc.energy as energy

        layout, _, ctx = make_problem(n, j, 83.0)
        kernel = energy._saturating(energy._hprime)
        for seed in range(5):
            st = random_state(layout, np.random.default_rng(seed), u_scale=1.0)
            np.copyto(ctx.rows.u, st.u)
            h_n, h_1, g_u, g_beta, g_gamma = kernel(*st.theta.tolist(), ctx, True, True)
            assert type(h_n) is float and type(h_1) is float
            full = g_u.copy(), g_beta, g_gamma  # g_u is the workspace row
            h_n, h_1, g_u, g_beta, g_gamma = kernel(*st.theta.tolist(), ctx, True, False)
            assert h_n is None and h_1 is None
            np.testing.assert_array_equal(g_u, full[0])
            assert (g_beta, g_gamma) == full[1:]
            assert type(g_beta) is float and type(g_gamma) is float

    def test_in_place_writes_and_swapped_arrays(self):
        layout, _, ctx = make_problem()
        theta = np.array([1.4, 0.6])
        first = np.random.default_rng(41).normal(0, 0.5, layout.N)
        self.check(ctx, first, theta)
        first[1] += 0.25  # a staging bead
        self.check(ctx, first, theta)
        first[layout.j] -= 0.5  # a measurement bead
        self.check(ctx, first, theta)
        second = first.copy()  # equal values, another array
        self.check(ctx, second, theta)
        # a row left holding the first array's values would miss these writes
        first[2] += 1.0
        second[layout.j] += 0.125
        self.check(ctx, second, theta)
        self.check(ctx, first, theta)

    def test_non_contiguous_u(self):
        layout, _, ctx = make_problem()
        wide = np.random.default_rng(43).normal(0, 0.5, (layout.N, 2))
        u = wide[:, 0]
        assert not u.flags.c_contiguous
        theta = np.array([1.1, 0.4])
        self.check(ctx, u, theta)
        u[layout.j + 1] += 0.5  # written in place, seen through a fresh copy
        self.check(ctx, u, theta)
        np.testing.assert_array_equal(
            staging_inverse(u, layout), staging_inverse(u.copy(), layout)
        )
        np.testing.assert_array_equal(
            staging_adjoint(u, layout), staging_adjoint(u.copy(), layout)
        )


class TestGuards:
    @pytest.mark.parametrize(
        "theta,non_finite",
        [((1.0, 1e-200), True), ((1e-170, 1e-170), True), ((1.0, 1e160), False)],
    )
    def test_extreme_theta_saturates_without_python_float_errors(self, theta, non_finite):
        # gamma^2 underflows to 0 at the first two and overflows at the last;
        # as a Python float power it would raise ZeroDivisionError or
        # OverflowError instead of saturating
        layout, _, ctx = make_problem()
        st = random_state(layout, np.random.default_rng(12))
        st.theta[:] = theta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h_total(st, ctx, MASSES)
            if non_finite:
                with pytest.raises(NonFiniteError):
                    grad_hprime(st, ctx)
            else:
                assert np.all(np.isfinite(grad_hprime(st, ctx).g_theta))

    def test_domain_error_on_zero_theta(self):
        layout, _, ctx = make_problem()
        st = random_state(layout, np.random.default_rng(8))
        st.theta[1] = 0.0
        with pytest.raises(DomainError):
            h_total(st, ctx, MASSES)
        with pytest.raises(DomainError):
            grad_hprime(st, ctx)

    def test_exp_clamp_keeps_energy_rejectable(self):
        layout, _, ctx = make_problem()
        st = random_state(layout, np.random.default_rng(9))
        st.u -= 1e6  # exp(-beta q) would overflow without the clamp
        val = h_total(st, ctx, MASSES).h_1
        assert not np.isnan(val)
        assert val > 1e100  # huge (possibly inf), hence rejectable, never a crash

    def test_non_finite_gradient_reported(self):
        layout, _, ctx = make_problem()
        st = random_state(layout, np.random.default_rng(10))
        st.u[3] = np.nan
        with pytest.raises(NonFiniteError):
            grad_hprime(st, ctx)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_measurement_bead_stays_local(self, bad):
        # the springs join each measurement bead to its two neighbours only,
        # so a non-finite bead 5 reaches the segments on either side of it
        # and the measurement beads 4..6, never the rest of the path
        n, j = 10, 30
        layout, _, ctx = make_problem(n, j, 833.0)
        st = random_state(layout, np.random.default_rng(16))
        st.u[5 * j] = bad
        with pytest.raises(NonFiniteError) as raised:
            grad_hprime(st, ctx)
        bad_beads = np.asarray(raised.value.indices)
        assert bad_beads.size
        assert bad_beads.min() >= 4 * j and bad_beads.max() <= 6 * j
        assert set(bad_beads[bad_beads % j == 0].tolist()) == {4 * j, 5 * j, 6 * j}

    def test_non_finite_error_is_short_and_pickles(self):
        indices = np.arange(301)
        err = NonFiniteError("gradient w.r.t. u", indices=indices)
        assert str(err) == "non-finite gradient w.r.t. u at 301 indices [0, 1, 2, 3, 4, ...]"
        back = pickle.loads(pickle.dumps(err))
        assert str(back) == str(err)
        assert back.what == err.what
        np.testing.assert_array_equal(back.indices, indices)
        for idx in (7, np.array([3, 7])):
            err = NonFiniteError("simulated path", indices=idx)
            back = pickle.loads(pickle.dumps(err))
            assert str(back) == str(err) and back.what == "simulated path"
            np.testing.assert_array_equal(back.indices, idx)

    def test_state_layout_mismatch(self):
        layout, _, ctx = make_problem()
        st = PolymerState(
            u=np.zeros(7), theta=np.array([1.0, 1.0]), p=np.zeros(7), pi=np.zeros(2)
        )
        with pytest.raises(ValidationError):
            h_total(st, ctx, MASSES)
        with pytest.raises(ValidationError):
            h_N(st, MASSES, layout)


class TestSaturationPolicy:
    """`energy._saturating` decorates the five entry points and the chain's
    construction: at a saturating state none of them warns, and each hands
    the caller's floating-point error state back unchanged, nested or after
    a raise. A chain cannot start at such a state, whose force is not
    finite, so the iteration starts from a finite state and saturates on a
    long step."""

    def saturating(self, layout):
        st = random_state(layout, np.random.default_rng(14))
        st.theta[:] = (1e-170, 1e-170)  # gamma^2 underflows to a 0 divisor
        st.p[layout.j] = np.inf  # a boundary momentum: inf * 0 = NaN in the rotation
        return st

    def entry_points(self, layout, ctx):
        from staghmc.integrator import IntegratorConfig, trotter_propagate
        from staghmc.sampler import Chain, HmcConfig, hmc_iteration

        step = IntegratorConfig(d_tau=0.25, P=3)
        config = HmcConfig(n_mc=1, theta0=(1.0, 1.0), masses=MASSES, integrator=step)
        st = self.saturating(layout)
        rng = np.random.default_rng(15)

        def iteration(potential=None):
            # the chain's construction takes its start's potential and
            # force in one kernel pass, also under the same warning filter
            # and error state
            chain = self.long_step_chain(layout, ctx)
            if potential is not None:
                chain.potential = potential
            return hmc_iteration(chain, rng)

        # a carried (h_n, h_1) of NumPy scalars: the refreshed energy sums
        # inf and -inf in hmc_iteration itself
        carried = (np.float64(np.inf), np.float64(-np.inf))
        return {
            "h_N": lambda: h_N(st, MASSES, layout),
            "h_total": lambda: h_total(st, ctx, MASSES),
            "grad_hprime": lambda: grad_hprime(st, ctx),
            "trotter_propagate": lambda: trotter_propagate(st, ctx, MASSES, step),
            "hmc_iteration": iteration,
            "hmc_iteration-carried": lambda: iteration(carried),
            "Chain": lambda: Chain(ctx.problem, config, st),
        }

    def long_step_chain(self, layout, ctx):
        """A chain at a finite start whose first trajectory, at d_tau = 6.0
        (as in `TestRunChain::test_meta_counts_pathologies`), overflows."""
        from staghmc.integrator import IntegratorConfig
        from staghmc.sampler import Chain, HmcConfig

        step = IntegratorConfig(d_tau=6.0, P=3)
        config = HmcConfig(n_mc=1, theta0=(1.0, 1.0), masses=MASSES, integrator=step)
        return Chain(ctx.problem, config, random_state(layout, np.random.default_rng(15)))

    def test_long_step_iteration_saturates(self):
        # the control: without the decorator, the iteration of the cases
        # below meets a floating-point event that would warn
        from staghmc.sampler import hmc_iteration

        layout, _, ctx = make_problem()
        chain = self.long_step_chain(layout, ctx)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            hmc_iteration.__wrapped__(chain, np.random.default_rng(15))

    @pytest.mark.parametrize(
        "name",
        [
            "h_N", "h_total", "grad_hprime", "trotter_propagate", "hmc_iteration",
            "hmc_iteration-carried", "Chain",
        ],
    )
    def test_entry_point_at_a_saturating_state_never_warns(self, name):
        layout, _, ctx = make_problem()
        call = self.entry_points(layout, ctx)[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
            except NonFiniteError:  # a rejectable gradient, not a warning
                assert name in ("grad_hprime", "trotter_propagate", "Chain")

    def test_caller_error_state_survives_nested_calls_and_raises(self):
        layout, _, ctx = make_problem()
        calls = self.entry_points(layout, ctx)
        with np.errstate(all="raise"):
            caller = np.geterr()
            # the chain's construction nests the kernel, and hmc_iteration the
            # trajectory and the kernel; under the caller's state they would
            # raise FloatingPointError
            _, stats = calls["hmc_iteration"]()
            assert stats.pathology == "NonFiniteError" and not stats.accepted
            assert np.geterr() == caller
            for name in ("grad_hprime", "Chain"):
                with pytest.raises(NonFiniteError):
                    calls[name]()
                assert np.geterr() == caller
            with pytest.raises(FloatingPointError):
                np.divide(np.ones(1), 0.0)
