import io
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from staghmc import (
    DimensionlessParams,
    NonFiniteError,
    InputSignal,
    ObservationModel,
    PhysicalParams,
    TimeSeriesData,
    TruthPath,
    ValidationError,
    fine_grid,
    generate_observations,
    simulate_truth,
    to_dimensionless,
)
from staghmc.diagnostics import write_density_csv
from staghmc.energy import InferenceProblem
from staghmc.model import CSV_BLOCK_ROWS, _read_csv
from staghmc.sampler import CHAIN_COLUMNS, CHAIN_CSV_HEADER, ChainRecord

SEC4_INPUT = InputSignal.sinusoid(1.0, 0.01, 0.1)


class TestParameterMaps:
    def test_beta_frozen_values(self):
        # high-precision decimal square roots, frozen
        d = to_dimensionless(PhysicalParams(K=50, gamma=0.2, T=833))
        assert d.beta == pytest.approx(1.8253766734567416, rel=1e-14)
        d = to_dimensionless(PhysicalParams(K=200, gamma=0.5, T=833))
        assert d.beta == pytest.approx(1.4430869689661812, rel=1e-14)

    def test_positivity_validation(self):
        with pytest.raises(ValidationError):
            PhysicalParams(K=-1, gamma=0.2, T=833)
        with pytest.raises(ValidationError):
            PhysicalParams(K=50, gamma=0.0, T=833)
        with pytest.raises(ValidationError):
            DimensionlessParams(beta=1.0, gamma=-0.5)

    @pytest.mark.parametrize(
        "K, gamma, T",
        [(1e300, 1e-300, 833.0), (1e-300, 1e300, 1e300)],
        ids=["beta-underflows", "beta-overflows"],
    )
    def test_beta_out_of_range_rejected(self, K, gamma, T):
        with pytest.raises(ValidationError, match=r"beta = sqrt\(T gamma / K\)"):
            PhysicalParams(K=K, gamma=gamma, T=T)

    @pytest.mark.parametrize(
        "K, gamma, T, given",
        [(50.0, 1e300, 833.0, "K=50.0, gamma=1e+300, T=833.0"),
         (50.0, 0.2, 1e300, "K=50.0, gamma=0.2, T=1e+300")],
        ids=["gamma-huge", "T-huge"],
    )
    def test_drift_constant_out_of_range_rejected(self, K, gamma, T, given):
        # beta is finite, but (2 + gamma) beta / (2 gamma) overflows, or its
        # product with T does: no step of the drift -h rho / T is finite
        message = f"T (2 + gamma) beta / (2 gamma) must be finite, got inf from {given}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PhysicalParams(K=K, gamma=gamma, T=T)
        # large, but with a finite drift: beta = 4.1e100 and T c = 1.7e103
        PhysicalParams(K=50.0, gamma=1e200, T=833.0)


class TestPathTransform:
    def test_scale_is_K(self):
        # S = (T gamma / beta^2) r e^{beta q}, and T gamma / beta^2 reduces to K
        p = PhysicalParams(K=50, gamma=0.2, T=833)
        path = simulate_truth(p, SEC4_INPUT, np.linspace(0.0, 833.0, 10 * 3 * 2 + 1), seed=4)
        beta = to_dimensionless(p).beta
        want = p.K * SEC4_INPUT.value(path.times) * np.exp(beta * path.q)
        np.testing.assert_allclose(path.S, want, rtol=1e-13)


def drift_plan(grid, signal):
    """The problem of a one-segment lattice on ``grid``, which holds the
    drift tables L and Ldot (rho = L / beta + c, rhodot = Ldot / beta)."""
    T = grid[-1] - grid[0]
    data = TimeSeriesData(times=np.array([0.0, T]), values=np.ones(2))
    return InferenceProblem(data, signal, ObservationModel(1.0), grid.size - 1)


def drift_tables(problem, theta):
    c = (2.0 + theta.gamma) * theta.beta / (2.0 * theta.gamma)
    return problem.L / theta.beta + c, problem.Ldot / theta.beta


class TestRhoDiscrete:
    def test_constant_input_frozen_values(self):
        grid = np.linspace(0, 10, 11)
        problem = drift_plan(grid, InputSignal.sinusoid(0.0, 0.0, 0.7))
        rho, rhodot = drift_tables(problem, DimensionlessParams(beta=1.0, gamma=2.0))
        np.testing.assert_allclose(rho[1:], 1.0, rtol=1e-14)
        np.testing.assert_allclose(rhodot, 0.0, atol=0)
        rho, _ = drift_tables(problem, DimensionlessParams(beta=2.0, gamma=0.2))
        np.testing.assert_allclose(rho[1:], 11.0, rtol=1e-14)

    def test_matches_direct_formula(self):
        grid = np.linspace(0, 833, 301)
        theta = DimensionlessParams(beta=1.5, gamma=0.4)
        problem = drift_plan(grid, SEC4_INPUT)
        rho, rhodot = drift_tables(problem, theta)
        dt = grid[1] - grid[0]
        r = SEC4_INPUT.value(grid)
        for i in [1, 2, 150, 299, 300]:
            want = 833.0 * math.log(r[i] / r[i - 1]) / (theta.beta * dt) + (
                2 + theta.gamma
            ) * theta.beta / (2 * theta.gamma)
            assert rho[i] == pytest.approx(want, rel=1e-12)
        for i in [2, 3, 157, 300]:
            assert rhodot[i] == pytest.approx((rho[i] - rho[i - 1]) / dt, rel=1e-12)
        # slot 0 is padding; the i = 2 term carries no rate of change
        assert problem.L[0] == 0.0 and problem.Ldot[0] == 0.0 and problem.Ldot[1] == 0.0


# data at t = 0, 83.3, ..., 833 and j = 3: the lattice, and a simulation
# grid on the same times, read r at t = 0, 27.77..., ..., 833
SEC4_DATA = TimeSeriesData(times=np.linspace(0.0, 833.0, 11), values=np.ones(11))
SEC4_GRID = np.linspace(0.0, 833.0, 10 * 3 + 1)


def refused_where_read(signal, data, grid, message):
    """Assert that the plan on ``data`` (j = 3) and a simulation on ``grid``
    both refuse ``signal`` with ``message``, the simulation before it draws
    any noise."""
    with pytest.raises(ValidationError, match=message):
        InferenceProblem(data, signal, ObservationModel(0.1), 3)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    params = PhysicalParams(K=50.0, gamma=0.2, T=data.horizon)
    with pytest.raises(ValidationError, match=message):
        simulate_truth(params, signal, grid, seed=rng)
    assert rng.bit_generator.state == state  # no noise was drawn


class TestInputSignal:
    def test_sinusoid_positivity_guard(self):
        # a sinusoid is checked where it is read, as a table is: one that
        # reaches 0 or dips below it there is refused by the read
        at_zero = InputSignal.sinusoid(1.0, 0.01, 0.0)
        refused_where_read(at_zero, SEC4_DATA, SEC4_GRID, r"r\(0\.0\) = 0\.0 from a=1\.0,")
        dips = InputSignal.sinusoid(-0.5, 0.01, 0.3)  # below 0 where sin^2 > 0.6
        where = r"r\(111\.06[0-9]*\) = -0\.10[0-9]* from a=-0\.5,"
        refused_where_read(dips, SEC4_DATA, SEC4_GRID, where)
        fine = InputSignal.sinusoid(-0.2, 0.01, 0.3)  # min 0.1 > 0
        InferenceProblem(SEC4_DATA, fine, ObservationModel(0.1), 3)
        # 1 - 2 sin^2(0.0005 t) would reach -1, but stays >= 0.67 on [0, 833]
        dips_unread = InputSignal.sinusoid(-2.0, 0.0005, 1.0)
        InferenceProblem(SEC4_DATA, dips_unread, ObservationModel(0.1), 3)
        simulate_truth(PhysicalParams(K=50.0, gamma=0.2, T=833.0), dips_unread, SEC4_GRID, seed=1)

    @pytest.mark.parametrize(
        "a, omega, b", [(np.inf, 0.01, 0.1), (1.0, np.inf, 0.1), (1.0, -np.inf, 0.1),
                        (1.0, 0.01, np.inf), (1e308, 0.01, 1e308)]  # r overflows where read
    )
    def test_sinusoid_must_be_finite(self, a, omega, b):
        # it constructs; the read refuses it, naming a, omega and b. An
        # infinite a or omega makes r(0) NaN (inf * 0); an infinite b makes
        # it inf, and a = b = 1e308 first overflows at t = 111.06..., where
        # sin^2(omega t) = 0.80 > 0.797
        signal = InputSignal.sinusoid(a, omega, b)
        where = r"0\.0" if math.isinf(b) or math.isinf(a * omega) else r"111\.06[0-9]*"
        value = "nan" if math.isinf(a * omega) else "inf"
        message = (
            rf"^input signal must be positive and finite wherever it is read: r\({where}\) ="
            rf" {value} from {re.escape(f'a={a}, omega={omega}, b={b}')}$"
        )
        refused_where_read(signal, SEC4_DATA, SEC4_GRID, message)

    @pytest.mark.parametrize(
        "times, values", [([0.0, 1.0, np.inf], [1.0, 2.0, 1.0]), ([0.0, 1.0], [1.0, np.inf])]
    )
    def test_tabulated_nodes_must_be_finite(self, times, values):
        with pytest.raises(ValidationError, match="finite"):
            InputSignal.tabulated(times, values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="^unknown input kind 'square'$"):
            InputSignal(kind="square")

    def test_rate_matches_fd(self):
        t = np.linspace(1, 800, 57)
        h = 1e-6
        fd = (SEC4_INPUT.value(t + h) - SEC4_INPUT.value(t - h)) / (2 * h)
        np.testing.assert_allclose(SEC4_INPUT.rate(t), fd, rtol=1e-7, atol=1e-9)

    def test_tabulated_rate_is_the_next_segment_slope(self):
        sig = InputSignal.tabulated([0.0, 1.0, 3.0, 4.0], [1.0, 2.0, 1.0, 4.0])
        # at an interior node, the segment that starts there; at and after
        # the last node (within the range's 1e-12), the last segment's
        at = [0.0, 0.5, 1.0, 2.0, 3.0]
        np.testing.assert_array_equal(sig.rate(at), [1.0, 1.0, -0.5, -0.5, 3.0])
        np.testing.assert_array_equal(sig.rate([3.5, 4.0, 4.0 + 1e-13]), [3.0, 3.0, 3.0])
        with pytest.raises(ValidationError, match="^input signal does not cover the data: "):
            sig.rate(4.5)

    def test_tabulated_interp_and_range(self):
        sig = InputSignal.tabulated([0.0, 1.0, 3.0], [1.0, 2.0, 1.0])
        assert sig.value(0.5) == pytest.approx(1.5)
        assert sig.value(2.0) == pytest.approx(1.5)
        assert sig.rate(0.5) == 1.0
        message = "input signal does not cover the data: time outside tabulated range [0.0, 3.0]"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sig.value(3.5)
        with pytest.raises(ValidationError):
            InputSignal.tabulated([0.0, 1.0], [1.0, -1.0])

    def test_tabulated_value_equality_and_hash(self):
        sig = InputSignal.tabulated([0.0, 2.0, 5.0], [0.4, 0.9, 0.6])
        twin = InputSignal.tabulated(np.array([0.0, 2.0, 5.0]), np.array([0.4, 0.9, 0.6]))
        assert sig == twin and hash(sig) == hash(twin)
        assert sig != InputSignal.tabulated([0.0, 2.0, 5.0], [0.4, np.nextafter(0.9, 1.0), 0.6])
        assert sig != InputSignal.tabulated([0.0, 2.5, 5.0], [0.4, 0.9, 0.6])
        assert sig != SEC4_INPUT and SEC4_INPUT != sig
        assert SEC4_INPUT == InputSignal.sinusoid(1.0, 0.01, 0.1)
        assert hash(SEC4_INPUT) == hash(InputSignal.sinusoid(1.0, 0.01, 0.1))

    def test_csv_round_trip(self, tmp_path):
        sig = InputSignal.tabulated([0.0, 2.0, 5.0], [0.4, 0.9, 0.6])
        f = tmp_path / "input.csv"
        f.write_text("t,r\n0,0.4\n2,0.9\n5,0.6\n")
        back = InputSignal.from_csv(f)
        np.testing.assert_array_equal(back.times, sig.times)
        np.testing.assert_array_equal(back.values, sig.values)
        assert back == sig


# a table whose middle node, a hair after t = 6, holds 1e-300: read at
# t = 6 it interpolates to exactly 0.0
ZERO_TABLE = InputSignal.tabulated([0.0, 6.000000000000001, 12.0], [10.0, 1e-300, 1.0])


class TestSignalOver:
    """The plan and the simulation read a signal through one check
    (`model._signal_over`): r must be positive and finite wherever it is
    read."""

    @pytest.mark.parametrize(
        "signal, where",
        [
            (ZERO_TABLE, r"r\(6\.0\) = 0\.0"),
            (
                InputSignal.sinusoid(1.0, 1e308, 0.1),
                r"r\(2\.0\) = nan from a=1\.0, omega=1e\+308, b=0\.1",
            ),
        ],
        ids=["zero", "nan"],
    )
    def test_plan_and_simulation_refuse_a_signal_not_positive_where_read(self, signal, where):
        # data at t = 0, 6, 12 and j = 3: the lattice, and a simulation
        # grid on the same times, read r at t = 0, 2, ..., 12
        message = f"^input signal must be positive and finite wherever it is read: {where}$"
        data = TimeSeriesData(times=[0.0, 6.0, 12.0], values=[1.0, 1.0, 1.0])
        refused_where_read(signal, data, np.linspace(0.0, 12.0, 2 * 3 + 1), message)


class TestObservationModel:
    @pytest.mark.parametrize("sigma", [1e-300, 1e-160])
    def test_rejects_sigma_whose_inverse_square_overflows(self, sigma):
        # positive and finite, but the data term's weight 1/sigma^2 is inf
        message = f"^sigma = {sigma!r} is too small for the likelihood: 1/sigma\\^2 overflows$"
        with pytest.raises(ValidationError, match=message):
            ObservationModel(sigma)

    def test_weight_is_the_inverse_square(self):
        obs = ObservationModel(1e-150)
        assert obs.inv_sigma2 == 1.0 / 1e-150 / 1e-150
        assert obs == ObservationModel(1e-150) and "inv_sigma2" not in repr(obs)


class TestTimeSeriesData:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeSeriesData(times=[1.0, 2.0], values=[1.0, 1.0])  # t must start at 0
        with pytest.raises(ValidationError):
            TimeSeriesData(times=[0.0, 1.0, 2.5], values=[1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            TimeSeriesData(times=[0.0, 1.0], values=[1.0, -0.1])
        # a non-finite entry is named as such, not as a spacing or sign fault
        for bad in (np.nan, np.inf, -np.inf):
            for times, values in (
                ([0.0, bad, 2.0], [1.0, 1.0, 1.0]),
                ([0.0, 1.0, bad], [1.0, 1.0, 1.0]),
                ([0.0, 1.0, 2.0], [1.0, bad, 1.0]),
            ):
                with pytest.raises(ValidationError, match="finite"):
                    TimeSeriesData(times=times, values=values)

    def test_csv_round_trip_and_digest(self, tmp_path):
        data = TimeSeriesData(times=np.linspace(0, 833, 11), values=np.full(11, 0.37))
        f = tmp_path / "obs.csv"
        data.to_csv(f)
        assert f.read_text().splitlines()[0] == "t,y"
        back = TimeSeriesData.from_csv(f)
        np.testing.assert_array_equal(back.times, data.times)
        np.testing.assert_array_equal(back.values, data.values)
        assert back.digest() == data.digest()

    def test_value_equality_and_hash(self):
        t, y = np.linspace(0, 833, 11), np.linspace(0.3, 1.3, 11)
        data = TimeSeriesData(times=t, values=y)
        twin = TimeSeriesData(times=t.copy(), values=y.copy())
        assert data == twin and hash(data) == hash(twin)
        assert len({data, twin}) == 1
        # a signed-zero first time is the same series
        signed = t.copy()
        signed[0] = -0.0
        assert TimeSeriesData(times=signed, values=y) == data
        assert hash(TimeSeriesData(times=signed, values=y)) == hash(data)
        assert data != (t, y)

    @pytest.mark.parametrize("field, index", [("values", 4), ("values", 0), ("times", 10)])
    def test_one_ulp_apart_compares_unequal(self, field, index):
        arrays = {"times": np.linspace(0, 833, 11), "values": np.linspace(0.3, 1.3, 11)}
        data = TimeSeriesData(**arrays)
        arrays[field] = arrays[field].copy()
        arrays[field][index] = np.nextafter(arrays[field][index], np.inf)
        assert data != TimeSeriesData(**arrays)

    @pytest.mark.parametrize("t0", [-5e-10, 5e-10, -0.0])
    def test_first_time_near_zero_is_stored_as_zero(self, t0):
        t, y = np.linspace(0, 833, 201), np.full(201, 0.5)
        near = t.copy()
        near[0] = t0
        data = TimeSeriesData(times=near, values=y)
        assert data.times[0] == 0.0
        # a time off 0 becomes 0.0, and a signed zero keeps its bytes
        np.testing.assert_array_equal(data.times[1:], t[1:])
        start = np.array([0.0 if t0 else t0])
        assert data.times[:1].tobytes() == start.tobytes()
        # a signal tabulated from 0 can be read at every data time
        InputSignal.tabulated([0.0, 833.0], [0.5, 0.7]).value(data.times)

    def test_second_time_must_follow_zero(self):
        with pytest.raises(ValidationError, match="first observation time must be 0"):
            TimeSeriesData(times=[-1e-13, -5e-14], values=[1.0, 1.0])

    def test_properties(self):
        data = TimeSeriesData(times=np.linspace(0, 833, 11), values=np.ones(11))
        assert data.n_segments == 10
        assert data.horizon == 833.0


class TestSimulateTruth:
    P = PhysicalParams(K=50, gamma=0.2, T=833)

    @pytest.mark.parametrize(
        "n, j",
        [(True, 30), (10.0, 30), (10, 30.0), (10, "30")],
        ids=["n-bool", "n-float", "j-float", "j-text"],
    )
    def test_grid_counts_must_be_integers(self, n, j):
        with pytest.raises(ValidationError, match="must be an integer"):
            fine_grid(833.0, n, j)

    @pytest.mark.parametrize("T", [-1.0, 0.0, np.nan, np.inf])
    def test_grid_horizon_must_be_positive_and_finite(self, T):
        # not a decreasing or NaN grid, refused later without naming T
        with pytest.raises(ValidationError, match=f"^T must be positive and finite, got {T}$"):
            fine_grid(T, 10, 30)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed must fit in an unsigned 64-bit integer"),
            (2**64, "seed must fit in an unsigned 64-bit integer"),
            (1.5, "seed must be an integer, got 1.5"),
            (True, "seed must be an integer, got True"),
        ],
        ids=["negative", "too-large", "float", "bool"],
    )
    def test_integer_seed_follows_the_seed_rule(self, seed, message):
        grid = fine_grid(833, 1, 1)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            simulate_truth(self.P, SEC4_INPUT, grid, seed=seed)
        path = simulate_truth(self.P, SEC4_INPUT, grid, seed=0)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            generate_observations(path, [0.0, 833.0], self.P, ObservationModel(0.1), seed=seed)

    @pytest.mark.parametrize(
        "seed",
        [np.uint64, np.random.default_rng, np.random.SeedSequence, np.random.PCG64, lambda s: [s]],
        ids=["numpy-int", "generator", "seed-sequence", "bit-generator", "int-list"],
    )
    def test_seed_sources_pass_as_numpy_takes_them(self, seed):
        grid = fine_grid(833, 1, 1)
        expected = simulate_truth(self.P, SEC4_INPUT, grid, seed=3)
        assert simulate_truth(self.P, SEC4_INPUT, grid, seed=seed(3)) == expected
        assert simulate_truth(self.P, SEC4_INPUT, grid, seed=None).q.shape == expected.q.shape

    @pytest.mark.parametrize(
        "grid", [[0.0, 2.0, 2.0], [0.0, 3.0, 1.0], [0.0], [[0.0, 1.0]], [0.0, 1.0, np.inf]],
        ids=["flat", "falling", "one-point", "2-d", "inf"],
    )
    def test_grid_must_increase(self, grid):
        message = "^simulation grid must be 1-d, finite and strictly increasing$"
        with pytest.raises(ValidationError, match=message):
            simulate_truth(self.P, SEC4_INPUT, grid, seed=0)

    def test_drift_beyond_the_double_range_refused_before_noise(self):
        # r(t) = sin^2(omega t) + 0.1 reads fine, but the drift term
        # (T / beta) r'/r, with r' = omega sin(2 omega t), overflows; no
        # warning escapes
        signal = InputSignal.sinusoid(1.0, 1.5e305, 0.1)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        message = (
            r"^input signal must give a finite drift wherever it is read:"
            r" \(T/beta\) r'/r = inf at t = 3\.332$"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                simulate_truth(self.P, signal, fine_grid(833.0, 10, 30), seed=rng)
        assert rng.bit_generator.state == state  # no noise was drawn

    def test_reproducible(self):
        grid = fine_grid(833, 10, 30)
        a = simulate_truth(self.P, SEC4_INPUT, grid, seed=3)
        b = simulate_truth(self.P, SEC4_INPUT, grid, seed=3)
        np.testing.assert_array_equal(a.S, b.S)
        c = simulate_truth(self.P, SEC4_INPUT, grid, seed=4)
        assert not np.array_equal(a.S, c.S)

    def test_value_equality_and_hash(self):
        grid = np.linspace(0.0, 833.0, 2 * 3 * 2 + 1)
        a = simulate_truth(self.P, SEC4_INPUT, grid, seed=3)
        b = simulate_truth(self.P, SEC4_INPUT, grid, seed=3)
        assert a == b and hash(a) == hash(b)
        q = a.q.copy()
        q[-1] = np.nextafter(q[-1], np.inf)
        assert a != TruthPath(times=a.times, S=a.S, q=q)

    def test_reads_the_grid_once(self, monkeypatch):
        # the check's array read gives r, rho and S, and the start q = 0 needs
        # no read of its own
        reads = []
        value = InputSignal.value
        monkeypatch.setattr(
            InputSignal, "value", lambda self, t: reads.append(np.shape(t)) or value(self, t)
        )
        grid = fine_grid(833, 10, 30)
        simulate_truth(self.P, SEC4_INPUT, grid, seed=0)
        assert grid.size == 6001 and reads == [(6001,)]

    def test_default_start(self):
        grid = fine_grid(833, 10, 30)
        path = simulate_truth(self.P, SEC4_INPUT, grid, seed=0)
        assert path.S[0] == pytest.approx(self.P.K * SEC4_INPUT.value(0.0), rel=1e-12)
        assert path.q[0] == 0.0

    def test_small_noise_limit_matches_linear_reservoir(self):
        # gamma -> 0 removes both the noise and the gamma/2 drift correction,
        # leaving dS/dt = r(t) - S/K; oracle via integrating factor + trapezoid
        p = PhysicalParams(K=50, gamma=1e-8, T=833)
        grid = np.linspace(0.0, 833.0, 10 * 30 * 40 + 1)
        path = simulate_truth(p, SEC4_INPUT, grid, seed=5)
        r = SEC4_INPUT.value(grid)
        growth = np.exp(grid / p.K)
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * np.diff(grid) * (growth[1:] * r[1:] + growth[:-1] * r[:-1]))]
        )
        s_det = (path.S[0] + integral) / growth
        np.testing.assert_allclose(path.S, s_det, rtol=1e-2)

    def test_equilibrium_distribution_desk_scale(self):
        # constant input: S must relax to the inverse-gamma stationary law
        sig = InputSignal.sinusoid(0.0, 0.0, 0.6)
        h, t_total = 0.5, 8e4
        grid = np.arange(0.0, t_total + h / 2, h)
        path = simulate_truth(self.P, sig, grid, seed=12)
        samples = path.S[grid > 2000][::4]
        ks = stats.kstest(samples, stats.invgamma(a=11.0, scale=300.0).cdf).statistic
        assert ks < 0.1
        assert np.mean(samples) == pytest.approx(30.0, rel=0.05)

    def test_truth_csv_round_trip(self, tmp_path):
        grid = np.linspace(0.0, 833.0, 2 * 3 * 2 + 1)
        path = simulate_truth(self.P, SEC4_INPUT, grid, seed=1)
        f = tmp_path / "truth.csv"
        path.to_csv(f)
        assert f.read_text().splitlines()[0] == "t,S,q"
        back = np.loadtxt(f, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back, np.column_stack([path.times, path.S, path.q]))


def reference_truth(params, signal, t, seed, exp=math.exp):
    """`simulate_truth` from S(0) = K r(0) as a plain step loop over NumPy
    scalars, with no check of the path. For a sinusoid ``signal`` it writes
    r and dr/dt out from the signal's constants; a table it reads through
    its `value` and `rate`."""
    theta = to_dimensionless(params)
    beta, gamma, T = theta.beta, params.gamma, params.T
    if signal.kind == "sinusoid":
        a, omega = signal.a, signal.omega
        r = a * np.sin(omega * t) ** 2 + signal.b
        dr = a * omega * np.sin(2.0 * omega * t[:-1])
    else:
        r, dr = signal.value(t), signal.rate(t[:-1])
    rng = np.random.default_rng(seed)
    h = np.diff(t)
    dlog_r = dr / r[:-1]
    rho = (T / beta) * dlog_r + (2.0 + gamma) * beta / (2.0 * gamma)
    drift0 = -h * rho / T
    noise = np.sqrt(h / T) * rng.standard_normal(h.size)
    coef = beta / (T * gamma)
    q = np.empty_like(t)
    q[0] = qk = 0.0
    for k in range(h.size):
        qk = qk + h[k] * coef * exp(-beta * qk) + drift0[k] + noise[k]
        q[k + 1] = qk
    return q, (T * gamma / beta**2) * r * np.exp(beta * q)


SIM_GRID = fine_grid(833, 10, 30)
# strictly increasing, with a different h at every step
UNEVEN_GRID = np.concatenate(
    [[0.0], np.sort(np.random.default_rng(5).uniform(0.0, 833.0, 2999)), [833.0]]
)
# the preset's sinusoid as a t,r table over [0, 833], as in README
TABLE_TIMES = np.linspace(0.0, 833.0, 8331)
SEC4_TABLE = InputSignal.tabulated(TABLE_TIMES, SEC4_INPUT.value(TABLE_TIMES))


class TestSimulateTruthSteps:
    @pytest.mark.parametrize(
        "K,gamma,signal,grid",
        [
            pytest.param(K, gamma, SEC4_INPUT, SIM_GRID, id=f"{K}-{gamma}")
            for K, gamma in [(50, 0.2), (5, 0.05), (200, 1.5), (30, 3.0), (1, 0.5)]
        ]
        + [
            pytest.param(50, 0.2, SEC4_INPUT, UNEVEN_GRID, id="uneven-grid"),
            pytest.param(50, 0.2, SEC4_TABLE, SIM_GRID, id="table"),
        ],
    )
    def test_matches_reference_loop_bit_for_bit(self, K, gamma, signal, grid):
        params = PhysicalParams(K=K, gamma=gamma, T=833)
        for seed in (0, 7):
            path = simulate_truth(params, signal, grid, seed=seed)
            q, S = reference_truth(params, signal, grid, seed)
            np.testing.assert_array_equal(path.q, q)
            np.testing.assert_array_equal(path.S, S)

    @pytest.mark.parametrize(
        "K,gamma,what",
        [(0.01, 500, "simulated path"), (1, 50, "simulated S")],
        ids=["q-overflow", "S-overflow"],
    )
    def test_leaving_the_double_range_names_the_first_bad_step(self, K, gamma, what):
        params = PhysicalParams(K=K, gamma=gamma, T=833)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as info:
                simulate_truth(params, SEC4_INPUT, SIM_GRID, seed=1)
        assert info.value.what == what
        # the reference saturates to inf where math.exp raises
        with np.errstate(over="ignore", invalid="ignore"):
            q, S = reference_truth(params, SEC4_INPUT, SIM_GRID, 1, exp=np.exp)
        bad = q if what == "simulated path" else S
        assert info.value.indices == np.flatnonzero(~np.isfinite(bad))[0]


class TestGenerateObservations:
    P = PhysicalParams(K=50, gamma=0.2, T=833)

    def _path(self):
        return simulate_truth(self.P, SEC4_INPUT, fine_grid(833, 10, 30), seed=9)

    def test_vanishing_noise_reads_path_exactly(self):
        path = self._path()
        obs_t = np.linspace(0, 833, 11)
        data = generate_observations(
            path, obs_t, self.P, ObservationModel(sigma=1e-150), seed=0
        )
        idx = np.arange(0, 6001, 600)
        np.testing.assert_array_equal(data.values, path.S[idx] / self.P.K)

    def test_log_residual_statistics(self):
        path = self._path()
        obs_t = np.linspace(0, 833, 11)
        sigma = 0.1
        rng = np.random.default_rng(77)
        n_rep = 10_000
        res = np.empty((n_rep, 11))
        idx = np.arange(0, 6001, 600)
        log_true = np.log(path.S[idx] / self.P.K)
        for k in range(n_rep):
            data = generate_observations(path, obs_t, self.P, ObservationModel(sigma), seed=rng)
            res[k] = np.log(data.values) - log_true
        assert abs(res.mean()) < 3 * sigma / math.sqrt(res.size)
        assert res.std() == pytest.approx(sigma, rel=0.05)

    @pytest.mark.parametrize("k", [1, 600, 6000])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_time_within_tolerance_reads_its_grid_point(self, k, side):
        # half the tolerance (1e-9 of the horizon) off grid point k, the
        # last one included, reads that point's S
        path = self._path()
        obs_t = [0.0, path.times[k] + side * 0.5e-9 * 833]
        data = generate_observations(
            path, obs_t, self.P, ObservationModel(sigma=1e-150), seed=0
        )
        np.testing.assert_array_equal(data.values, path.S[[0, k]] / self.P.K)

    def test_reading_beyond_the_double_range_names_its_indices(self):
        # S / K overflows at the last two times: no reading there
        path = TruthPath(times=[0.0, 1.0, 2.0], S=[1.0, 1e308, 1e308], q=[0.0, 0.0, 0.0])
        params = PhysicalParams(K=1e-3, gamma=0.2, T=2.0)
        with pytest.raises(
            NonFiniteError, match=r"^non-finite simulated observations at 2 indices \[1, 2\]$"
        ) as raised:
            generate_observations(path, path.times, params, ObservationModel(sigma=0.1), seed=0)
        np.testing.assert_array_equal(raised.value.indices, [1, 2])

    def test_times_must_be_1d(self):
        # not NumPy's broadcast error
        message = r"^observation times must be 1-d, got shape \(2, 2\)$"
        with pytest.raises(ValidationError, match=message):
            generate_observations(
                self._path(), [[0.0, 83.3], [166.6, 249.9]], self.P, ObservationModel(0.1), seed=0
            )

    def test_off_grid_time_rejected(self):
        path = self._path()
        with pytest.raises(ValidationError):
            generate_observations(
                path, [0.0, 83.31], self.P, ObservationModel(sigma=0.1), seed=0
            )


# entries whose %.17g text is easy to get wrong: a signed zero, the
# infinities, NaN, the smallest subnormal and the largest double
SPECIAL = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308])
# positive finite values, the only ones an observation or an input may hold
SPECIAL_POSITIVE = np.array([5e-324, 1.0, 1.7976931348623157e308])


def _table(rng, n_rows, n_cols, special):
    """An (n_rows, n_cols) table of random values with ``special`` planted,
    cyclically, in its first, last and block-boundary rows."""
    table = rng.standard_normal((n_rows, n_cols)) * 1e3
    for row in {0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, n_rows - 1}:
        if row < n_rows:
            table[row] = np.resize(np.roll(special, -row * n_cols), n_cols)
    return table


# row counts on both sides of the writer's block of CSV_BLOCK_ROWS rows, and
# one past two blocks that is not a multiple of the block
_CSV_ROWS = [2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 203]


class TestCsvFormat:
    """Every container's CSV is the bytes np.savetxt would write, across the
    writer's row blocks (`_CSV_ROWS`)."""

    @staticmethod
    def savetxt_bytes(tmp_path, header, *columns):
        ref = tmp_path / "ref.csv"
        np.savetxt(
            ref, np.column_stack(columns), delimiter=",", header=header, comments="",
            fmt="%.17g",
        )
        return ref.read_bytes()

    @pytest.mark.parametrize("n_rows", _CSV_ROWS)
    def test_truth_path(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        cols = _table(rng, n_rows, 3, SPECIAL).T
        path = tmp_path / "truth.csv"
        TruthPath(*cols).to_csv(path)
        assert path.read_bytes() == self.savetxt_bytes(tmp_path, "t,S,q", *cols)

    @pytest.mark.parametrize("n_rows", _CSV_ROWS)
    def test_observations(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        times = np.arange(n_rows) * 0.5
        times[0] = -0.0
        values = np.abs(_table(rng, n_rows, 1, SPECIAL_POSITIVE)[:, 0])
        path = tmp_path / "obs.csv"
        TimeSeriesData(times, values).to_csv(path)
        assert path.read_bytes() == self.savetxt_bytes(tmp_path, "t,y", times, values)

    @pytest.mark.parametrize("n_rows", _CSV_ROWS)
    def test_density(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        grid, density = _table(rng, n_rows, 2, SPECIAL).T
        path = tmp_path / "density.csv"
        write_density_csv(path, grid, density)
        assert path.read_bytes() == self.savetxt_bytes(tmp_path, "x,density", grid, density)

    def test_header_without_rows_is_named(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"no data rows in {path}"):
                TimeSeriesData.from_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,y\n0,1\n\n# gap\n1,x\n", "line 5: 'x' is not a number"),
            ("t,y\n0,1\n1\n", "line 3: want 2 columns, got 1"),
            ("t,y\n0,1,2\n", "line 2: want 2 columns, got 3"),
            ("t,y\n0,1\n1_0,1\n", "line 3: '1_0' is not a number"),
            # float reads an Arabic-Indic one, loadtxt does not; both strip
            # the no-break space around the 1 of line 2
            ("t,y\n0,\u00a01\n6,\u0661\n", "line 3: '\u0661' is not a number"),
            ("t,y\n# only\n#notes\n", "no data rows in"),
        ],
        ids=["non-numeric", "short", "long", "digit-separator", "non-ascii-digit", "comments-only"],
    )
    def test_malformed_rows_are_named_by_file_line(self, tmp_path, text, message):
        path = tmp_path / "obs.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as raised:
                TimeSeriesData.from_csv(path)
        assert message in str(raised.value) and str(path) in str(raised.value)

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,y\n\n# first\n0,1.5 # start\n\n2,0.5\n")
        back = TimeSeriesData.from_csv(path)
        np.testing.assert_array_equal(back.times, [0.0, 2.0])
        np.testing.assert_array_equal(back.values, [1.5, 0.5])

    @pytest.mark.parametrize("kind", ["observations", "chain"])
    def test_byte_order_mark_reads_as_without(self, tmp_path, kind):
        # as Excel's "CSV UTF-8" and PowerShell 5's utf8 write it
        rng = np.random.default_rng(30)
        n = 12
        if kind == "observations":
            cls, names = TimeSeriesData, ("times", "values")
            obj = TimeSeriesData(np.arange(n) * 10.0, rng.random(n) + 0.5)
        else:
            cls, names = ChainRecord, [name for name, _ in CHAIN_COLUMNS]
            obj = ChainRecord(
                beta=rng.random(n) + 0.5, gamma=rng.random(n) + 0.1, K=rng.random(n) + 1.0,
                accepted=rng.random(n) < 0.5, h_before=rng.standard_normal(n),
                h_after=rng.standard_normal(n), dh=rng.standard_normal(n), meta={},
            )
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        obj.to_csv(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = cls.from_csv(plain), cls.from_csv(marked)
        for name in names:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype


# edge-case bodies under the header "t,y", each with the file lines of its
# rows where it reads, else its error ({path} is the file's)
EDGE_BODIES = {
    "whitespace-only": ("   \n", "{path}, line 2: want 2 columns, got 1"),
    "whitespace-line": ("0,1\n   \n1,2\n", "{path}, line 3: want 2 columns, got 1"),
    "tab-line": ("0,1\n\t\n1,2\n", "{path}, line 3: want 2 columns, got 1"),
    "form-feed-line": ("0,1\n\f\n1,2\n", "{path}, line 3: want 2 columns, got 1"),
    "comment-only": ("# a\n#b\n", "no data rows in {path}"),
    "trailing-comments": ("0,1 # start\n1,2# end\n", [2, 3]),
    "spaced-cells": (" 0 , 1 \n\t1,\t2\n", [2, 3]),
    "empty-cell": ("0,1\n1,\n", "{path}, line 3: '' is not a number"),
    "digit-separator": ("0,1\n1_0,1\n", "{path}, line 3: '1_0' is not a number"),
    "hex": ("0,1\n0x1,2\n", "{path}, line 3: '0x1' is not a number"),
    "quotes": ('0,1\n"1",2\n', "{path}, line 3: '\"1\"' is not a number"),
    "nan-inf": ("0,nan\ninf,-inf\n", [2, 3]),
    "too-many-columns": ("0,1,2\n1,2,3\n", "{path}, line 2: want 2 columns, got 3"),
    "too-few-columns": ("0,1\n1\n", "{path}, line 3: want 2 columns, got 1"),
    "no-final-newline": ("\n# note\n0,1\n\n1,2", [4, 6]),
}


class TestReadCsv:
    """`_read_csv` finds the rows in one scan and parses just them: it
    reads what np.loadtxt reads of the whole body after the header, and
    returns each row's 1-based file line."""

    @staticmethod
    def loadtxt_body(path):
        body = path.read_text(encoding="utf-8").split("\n", 1)[1]
        return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)

    @pytest.mark.parametrize("name", EDGE_BODIES)
    def test_edge_bodies(self, tmp_path, name):
        body, want = EDGE_BODIES[name]
        path = tmp_path / "obs.csv"
        path.write_text("t,y\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, str):
                with pytest.raises(ValidationError) as raised:
                    _read_csv(path, "t,y")
                assert str(raised.value) == want.format(path=path)
                return
            rows, lines = _read_csv(path, "t,y")
        np.testing.assert_array_equal(rows, self.loadtxt_body(path))
        assert lines == want

    def test_chain_body_with_comment_blank_and_crlf_lines(self, tmp_path):
        rng = np.random.default_rng(29)
        n = 60
        rec = ChainRecord(
            beta=rng.random(n) + 0.5, gamma=rng.random(n) + 0.1, K=100.0 * rng.random(n) + 1.0,
            accepted=rng.random(n) < 0.5, h_before=1e5 * rng.standard_normal(n),
            h_after=rng.standard_normal(n), dh=rng.standard_normal(n), meta={},
        )
        rec.h_after[7], rec.dh[7] = np.inf, np.nan  # a rejected runaway proposal
        clean = tmp_path / "clean.csv"
        rec.to_csv(clean)
        header, *body = clean.read_text().splitlines()
        lines, want = [header], []
        for i, row in enumerate(body):
            if i % 7 == 3:
                lines.append("# resumed")
            if i % 11 == 5:
                lines.append("")
            lines.append(row + (" # note" if i % 13 == 0 else ""))
            want.append(len(lines))
        path = tmp_path / "mixed.csv"
        path.write_bytes("".join(
            line + ("\r\n" if k % 3 else "\n") for k, line in enumerate(lines)
        ).encode())
        rows, got = _read_csv(path, CHAIN_CSV_HEADER)
        np.testing.assert_array_equal(rows, self.loadtxt_body(path))
        np.testing.assert_array_equal(rows, np.loadtxt(clean, delimiter=",", skiprows=1))
        assert got == want
