import numpy as np
import pytest

from staghmc import DimensionlessParams, InputSignal, TimeSeriesData, ValidationError
from staghmc.lattice import (
    LatticeLayout,
    MassConfig,
    PolymerState,
    initial_state,
    staging_adjoint,
    staging_forward,
    staging_inverse,
)

# layouts covering N = 2, 11, 101, 301 plus the edge cases j = 1 (no
# staging beads) and j = 2 (one staging bead per segment)
LAYOUTS = [
    LatticeLayout(1, 1, 5.0),
    LatticeLayout(2, 5, 833.0),
    LatticeLayout(10, 10, 120.0),
    LatticeLayout(10, 30, 833.0),
    LatticeLayout(5, 1, 7.0),
    LatticeLayout(4, 2, 13.0),
]


def _forward_literal(q, layout):
    """Direct transcription of the staging definition, one bead at a time."""
    u = q.copy()
    for s in range(layout.n):
        for k in range(2, layout.j + 1):  # 1-based staging order
            g = s * layout.j + k - 1
            qstar = ((k - 1) * q[g + 1] + q[s * layout.j]) / k
            u[g] = q[g] - qstar
    return u


def _inverse_literal(u, layout):
    """Explicit summation solution of the backward recursion."""
    q = u.copy()
    j = layout.j
    for s in range(layout.n):
        for k in range(2, j + 1):
            g = s * layout.j + k - 1
            acc = 0.0
            for l in range(k, j + 2):
                acc += ((k - 1) / (l - 1)) * u[s * j + l - 1]
            q[g] = acc + ((j - k + 1) / j) * u[s * j]
    return q


class TestLayout:
    def test_reference_layout(self):
        lay = LatticeLayout(10, 30, 833.0)
        assert lay.N == 301
        assert lay.dt == pytest.approx(833.0 / 300.0, rel=1e-15)
        beads = np.arange(1, lay.N + 1)  # 1-based bead indices
        meas = beads[:: lay.j]
        assert meas[0] == 1
        assert meas[1] == 31
        assert meas[10] == 301
        np.testing.assert_array_equal(meas - 1, np.arange(11) * 30)
        assert lay.staging(beads).size == 301 - 11
        # in the first segment a staging bead's order k is its 1-based index
        np.testing.assert_array_equal(lay.staging(beads)[0], np.arange(2, 31))

    def test_staging_view_shapes(self):
        x = np.arange(9.0)
        np.testing.assert_array_equal(LatticeLayout(4, 2, 8.0).staging(x), [[1], [3], [5], [7]])
        assert LatticeLayout(8, 1, 8.0).staging(x).shape == (8, 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            LatticeLayout(0, 30, 833.0)
        with pytest.raises(ValidationError):
            LatticeLayout(10, -1, 833.0)
        with pytest.raises(ValidationError):
            LatticeLayout(10, 30, 0.0)

    @pytest.mark.parametrize(
        "n, j",
        [(True, 3), (2.0, 3), (2, 3.0), (2, True), ("2", 3), (np.float64(2.0), 3)],
        ids=["n-bool", "n-float", "j-float", "j-bool", "n-text", "n-numpy-float"],
    )
    def test_counts_must_be_integers(self, n, j):
        with pytest.raises(ValidationError, match="must be an integer"):
            LatticeLayout(n, j, 10.0)

    def test_numpy_integer_counts_become_python_ints(self):
        lay = LatticeLayout(np.int64(2), np.int32(3), 10.0)
        assert type(lay.n) is int and type(lay.j) is int
        assert lay == LatticeLayout(2, 3, 10.0)


class TestStagingTransform:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_round_trip(self, layout):
        rng = np.random.default_rng(layout.N)
        for _ in range(5):
            q = rng.normal(0, 3, layout.N)
            u = staging_forward(q, layout)
            np.testing.assert_allclose(staging_inverse(u, layout), q, rtol=0, atol=1e-12)
            v = rng.normal(0, 3, layout.N)
            np.testing.assert_allclose(
                staging_forward(staging_inverse(v, layout), layout), v, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_matches_literal_formulas(self, layout):
        rng = np.random.default_rng(layout.N + 1)
        q = rng.normal(0, 2, layout.N)
        np.testing.assert_allclose(
            staging_forward(q, layout), _forward_literal(q, layout), rtol=0, atol=1e-12
        )
        u = rng.normal(0, 2, layout.N)
        np.testing.assert_allclose(
            staging_inverse(u, layout), _inverse_literal(u, layout), rtol=0, atol=1e-12
        )

    def test_boundaries_untouched(self):
        layout = LatticeLayout(3, 7, 10.0)
        rng = np.random.default_rng(0)
        q = rng.normal(size=layout.N)
        u = staging_forward(q, layout)
        b = np.arange(layout.n + 1) * layout.j
        np.testing.assert_array_equal(u[b], q[b])
        np.testing.assert_array_equal(staging_inverse(u, layout)[b], u[b])

    def test_linear_path_has_zero_staging(self):
        layout = LatticeLayout(4, 6, 20.0)
        # piecewise-linear in bead index between arbitrary boundary values
        rng = np.random.default_rng(5)
        vals = rng.normal(0, 2, layout.n + 1)
        q = np.interp(np.arange(layout.N), np.arange(layout.n + 1) * layout.j, vals)
        u = staging_forward(q, layout)
        np.testing.assert_allclose(layout.staging(u), 0.0, atol=1e-13)

    def test_harmonic_energy_identity(self):
        # the staging map must diagonalize the nearest-neighbour spring term
        for layout in LAYOUTS:
            rng = np.random.default_rng(layout.N + 2)
            q = rng.normal(0, 2, layout.N)
            u = staging_forward(q, layout)
            T, dt, j = layout.T, layout.dt, layout.j
            lhs = (T / (2 * dt)) * np.sum(np.diff(q) ** 2)
            ub = u[::j]
            rhs = (T / 2) * np.sum(np.diff(ub) ** 2) / (j * dt)
            k = np.tile(np.arange(2.0, j + 1), layout.n)
            if k.size:
                rhs += (T / 2) * np.sum(k / ((k - 1) * dt) * layout.staging(u).ravel() ** 2)
            assert rhs == pytest.approx(lhs, rel=1e-10)


class TestStagingAdjoint:
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_matches_dense_transpose(self, layout):
        dense = np.zeros((layout.N, layout.N))
        for i in range(layout.N):
            e = np.zeros(layout.N)
            e[i] = 1.0
            dense[:, i] = staging_inverse(e, layout)
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.normal(size=layout.N)
            np.testing.assert_allclose(
                staging_adjoint(g, layout), dense.T @ g, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_bilinear_identity(self, layout):
        rng = np.random.default_rng(layout.N + 3)
        for _ in range(5):
            u = rng.normal(size=layout.N)
            g = rng.normal(size=layout.N)
            lhs = float(g @ staging_inverse(u, layout))
            rhs = float(staging_adjoint(g, layout) @ u)
            assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)

    def test_chain_rule_against_fd(self):
        # scalar phi(q) = sum sin(q); d phi/du must match finite differences
        layout = LatticeLayout(3, 4, 9.0)
        rng = np.random.default_rng(8)
        u = rng.normal(size=layout.N)
        direction = rng.normal(size=layout.N)
        direction /= np.linalg.norm(direction)
        g_u = staging_adjoint(np.cos(staging_inverse(u, layout)), layout)
        h = 1e-6
        fd = (
            np.sum(np.sin(staging_inverse(u + h * direction, layout)))
            - np.sum(np.sin(staging_inverse(u - h * direction, layout)))
        ) / (2 * h)
        assert float(g_u @ direction) == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBlockStagingMaps:
    @pytest.mark.parametrize("fn", [staging_inverse, staging_adjoint])
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_strided_input_matches_contiguous_copy(self, layout, fn):
        x = np.random.default_rng(layout.N + 4).normal(size=2 * layout.N)[::2]
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(fn(x, layout), fn(x.copy(), layout))

    @pytest.mark.parametrize("fn", [staging_inverse, staging_adjoint])
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_input_not_mutated(self, layout, fn):
        x = np.random.default_rng(layout.N + 5).normal(size=layout.N)
        before = x.copy()
        out = fn(x, layout)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: f"n{l.n}j{l.j}")
    def test_block_entries(self, layout):
        j = layout.j
        B = layout.staging_block
        assert B.shape == (j + 1, j)
        for m in range(j):
            assert B[0, m] == pytest.approx((j - m) / j, rel=1e-15)
            for l in range(1, j + 1):
                assert B[l, m] == pytest.approx(m / l if m <= l else 0.0, rel=1e-15)


class TestFrozenTables:
    def test_layout_tables_are_read_only(self):
        layout = LatticeLayout(3, 4, 9.0)
        for table in (layout.stiffness, layout.flat_stiffness, layout.bead_classes):
            with pytest.raises(ValueError):
                table[0] = table[1]

    def test_staging_block_is_read_only(self):
        block = LatticeLayout(3, 4, 9.0).staging_block
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[1, 1] = 0.0

    def test_plan_tables_are_read_only(self):
        from staghmc.energy import InferenceProblem
        from staghmc.model import ObservationModel

        data = TimeSeriesData(times=np.linspace(0, 6.0, 3), values=np.ones(3))
        signal = InputSignal.sinusoid(0.0, 0.0, 1.0)
        problem = InferenceProblem(data, signal, ObservationModel(0.1), 3)
        for table in (problem.L, problem.Ldot, problem.lnyr):
            with pytest.raises(ValueError):
                table[0] = 1.0


class TestState:
    def test_mass_validation(self):
        with pytest.raises(ValidationError):
            MassConfig(M=0.0, m_prime=130, m_alpha=(150, 150))
        with pytest.raises(ValidationError):
            MassConfig(M=720, m_prime=130, m_alpha=(150,))
        cfg = MassConfig(M=720, m_prime=130, m_alpha=(150, 150))
        assert cfg.m_alpha == (150.0, 150.0)

    @pytest.mark.parametrize("name", ["M", "m_prime", "m_alpha"])
    def test_infinite_mass_rejected(self, name):
        masses = dict(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
        masses[name] = (150.0, np.inf) if name == "m_alpha" else np.inf
        with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
            MassConfig(**masses)

    @pytest.mark.parametrize(
        "name, value",
        [("M", "1"), ("m_prime", True), ("M", None), ("m_alpha", 5.0), ("m_alpha", "ab"),
         ("m_alpha", ("150", 150.0)), ("m_alpha", (150.0, False)), ("m_alpha", (1.0, 2.0, 3.0))],
    )
    def test_non_number_mass_rejected(self, name, value):
        # a string or a bool is not converted, and m_alpha must be a pair
        masses = dict(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0))
        masses[name] = value
        with pytest.raises(ValidationError, match=name):
            MassConfig(**masses)

    def test_mass_pair_may_be_a_list_or_an_array(self):
        for pair in ([150, 75.0], np.array([150.0, 75.0])):
            cfg = MassConfig(M=720.0, m_prime=130.0, m_alpha=pair)
            assert cfg.m_alpha == (150.0, 75.0)
            assert all(type(m) is float for m in cfg.m_alpha)

    def test_state_validation(self):
        with pytest.raises(ValidationError):
            PolymerState(u=np.zeros(5), theta=np.zeros(2), p=np.zeros(4), pi=np.zeros(2))
        with pytest.raises(ValidationError):
            PolymerState(u=np.zeros(5), theta=np.zeros(3), p=np.zeros(5), pi=np.zeros(2))

    def test_initial_state(self):
        layout = LatticeLayout(10, 30, 833.0)
        signal = InputSignal.sinusoid(1.0, 0.01, 0.1)
        times = np.linspace(0, 833, 11)
        rng = np.random.default_rng(2)
        data = TimeSeriesData(times=times, values=rng.uniform(0.2, 3.0, 11))
        theta0 = DimensionlessParams(beta=1.4430869689661812, gamma=0.5)
        state = initial_state(data, signal, theta0, layout)
        want = np.log(data.values / signal.value(times)) / theta0.beta
        np.testing.assert_allclose(state.u[:: layout.j], want, rtol=1e-14)
        assert np.all(layout.staging(state.u) == 0.0)
        assert np.all(state.p == 0.0) and np.all(state.pi == 0.0)
        beta, gamma = state.theta
        assert beta == theta0.beta and gamma == 0.5

    @pytest.mark.parametrize(
        "signal, message",
        [
            (
                InputSignal.tabulated([0.0, 10.0], [1.0, 2.0]),
                r"does not cover the data: time outside tabulated range \[0\.0, 10\.0\]$",
            ),
            (
                InputSignal.tabulated([0.0, 6.000000000000001, 12.0], [10.0, 1e-300, 1.0]),
                r"must be positive wherever it is read: r\(6\.0\) = 0\.0$",
            ),
        ],
        ids=["short", "zero"],
    )
    def test_initial_state_refuses_a_signal_the_plan_refuses(self, signal, message):
        # the plan's one check of a read: a table that stops short of the
        # data, or one that interpolates to 0 at t = 6
        data = TimeSeriesData(times=[0.0, 6.0, 12.0], values=[1.0, 1.0, 1.0])
        with pytest.raises(ValidationError, match=f"^input signal {message}"):
            initial_state(data, signal, DimensionlessParams(1.0, 1.0), LatticeLayout(2, 3, 12.0))

    def test_initial_state_rejects_mismatch(self):
        layout = LatticeLayout(9, 30, 833.0)
        signal = InputSignal.sinusoid(0.0, 0.0, 1.0)
        data = TimeSeriesData(times=np.linspace(0, 833, 11), values=np.ones(11))
        with pytest.raises(ValidationError):
            initial_state(data, signal, DimensionlessParams(1.0, 1.0), layout)
        # the data's ten segments, over T = 800 instead of the data's 833
        message = r"^data horizon 833\.0 != lattice horizon 800\.0$"
        with pytest.raises(ValidationError, match=message):
            initial_state(
                data, signal, DimensionlessParams(1.0, 1.0), LatticeLayout(10, 30, 800.0)
            )
