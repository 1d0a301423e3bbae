"""Tests for posterior summaries, effective sample size, and density estimation."""

import json
import math
import os
import re
import reprlib
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.signal import lfilter

import staghmc
from staghmc.diagnostics import (
    EXP_ZERO,
    KDE_BLOCK_DOUBLES,
    QUANTILE_LEVELS,
    _fft_length,
    _percentiles,
    discard_start,
    ess,
    kde,
    silverman_bandwidth,
    summarize,
    write_density_csv,
)
from staghmc.errors import DomainError, ValidationError
from staghmc.sampler import ChainRecord


def make_record(beta, gamma=None, K=None, accepted=None):
    beta = np.asarray(beta, dtype=float)
    n = beta.size
    gamma = np.asarray(gamma, dtype=float) if gamma is not None else np.full(n, 0.5)
    K = np.asarray(K, dtype=float) if K is not None else 2.0 * gamma + 1.0
    acc = np.asarray(accepted, dtype=bool) if accepted is not None else np.ones(n, bool)
    z = np.zeros(n)
    return ChainRecord(
        beta=beta, gamma=gamma, K=K, accepted=acc,
        h_before=z, h_after=z, dh=z, meta={},
    )


# constant series of values that a sum does not keep exact: at many of these
# lengths the rounded mean leaves a standard deviation of 1e-17 to 1e-15
NEVER_MOVED_VALUES = (
    math.sqrt(833 * 0.5 / 200), 0.1, 1 / 3, math.pi, math.e, 0.3, 0.7, 2 / 3,
)
NEVER_MOVED_LENGTHS = (10, 11, 100, 200, 1001, 3200, 8001)


class TestEss:
    def test_short_series_has_no_ess(self):
        assert ess(np.arange(9.0)) is None
        assert ess(np.array([])) is None

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError, match="1-d"):
            ess(np.zeros((5, 5)))
        with pytest.raises(ValidationError, match="1-d"):
            ess(3.0)

    def test_constant_series_has_no_ess(self):
        assert ess(np.full(50, 3.14)) is None
        assert ess(np.full(50, 1.5)) is None
        assert ess(np.zeros(50)) is None

    def test_underflowing_variance_has_no_ess(self):
        # it moved, by the least subnormal, but every centred square is 0
        x = np.zeros(20)
        x[::2] = 5e-324
        assert ess(x) is None

    @pytest.mark.parametrize(
        "series",
        [np.tile([1.0, 1e200], 20), np.linspace(1.0, 2.0, 10_000) * 1e152],
        ids=["variance-overflows", "autocovariance-overflows"],
    )
    def test_overflowing_spread_has_no_ess(self, series):
        # finite draws whose centred variance, or whose autocovariance
        # alone (a perfectly correlated ramp), leaves the double range
        assert np.isfinite(series).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ess(series) is None

    def test_non_finite_series_has_no_ess(self):
        # a nan or inf draw gives the series no ESS, quietly, and the
        # summary of a record with one nan draw reads null beside its nan mean
        beta = np.linspace(1.0, 2.0, 20)
        beta[3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ess([np.nan] * 5 + list(range(10))) is None
            assert ess([0.0] * 5 + [np.inf] + list(range(10))) is None
            summary = summarize(make_record(beta)).parameters["beta"]
        assert math.isnan(summary.mean)
        assert summary.ess is None

    def test_iid_close_to_length(self):
        L = 5000
        for seed in range(4):
            x = np.random.default_rng(seed).standard_normal(L)
            e = ess(x)
            assert 0.8 * L <= e <= L

    def test_alternating_clipped_to_length(self):
        x = np.empty(1000)
        x[0::2] = 1.0
        x[1::2] = -1.0
        assert ess(x) == 1000.0

    def test_ar1_matches_theory(self):
        # tau for AR(1) is (1+rho)/(1-rho) = 19 at rho = 0.9
        L = 20000
        target = L / 19.0
        for seed in (100, 101, 103, 105):
            e = np.random.default_rng(seed).standard_normal(L)
            x = lfilter([1.0], [1.0, -0.9], e)
            assert abs(ess(x) - target) < 0.25 * target


def _power_of_two_ess(x):
    """`ess` as it was with the transform at the next power of two >= 2L - 1
    and the spectrum formed out of place: the reference for the 5-smooth
    length, on series with an ESS."""
    L = x.size
    x = x - x.mean()
    nfft = 1 << (2 * L - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:L] / L
    rho = acov / acov[0]
    positive = 0.0
    for g in rho[0:-1:2] + rho[1::2]:
        if g <= 0:
            break
        positive += g
    return float(min(L, L / max(2.0 * positive - 1.0, 1e-12)))


class TestEssTransform:
    def test_fft_length_is_the_smallest_5_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        def brute_force(n):
            m = n
            while not smooth(m):
                m += 1
            return m

        for n in range(1, 4_097):
            assert _fft_length(n) == brute_force(n), n
        # the transform lengths of a chains-16 pool and of a paper-sec4 chain
        assert (_fft_length(2 * 10_240 - 1), _fft_length(2 * 200 - 1)) == (20_480, 400)

    @pytest.mark.parametrize("L", [10, 11, 199, 7_919, 10_240])
    @pytest.mark.parametrize("phi", [0.5, 0.95])
    def test_matches_the_power_of_two_transform(self, phi, L):
        x = lfilter([1.0], [1.0, -phi], np.random.default_rng(L).standard_normal(L))
        assert ess(x) == pytest.approx(_power_of_two_ess(x), rel=1e-12, abs=0)

    def test_peak_memory_of_a_pooled_series(self):
        # two 20 480-point arrays at once, about 330 KB; the power-of-two
        # transform with its out-of-place spectrum peaked near 870 KB
        x = lfilter([1.0], [1.0, -0.9], np.random.default_rng(29).standard_normal(10_240))
        tracemalloc.start()
        try:
            ess(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400_000


class TestSummarize:
    @pytest.mark.parametrize(
        "K", [1.5e308 + 1e305 * np.arange(40), np.tile([1.0, 1e200], 20)],
        ids=["mean-overflows", "sd-overflows"],
    )
    def test_draws_whose_moments_overflow_rejected(self, K):
        record = make_record(np.linspace(1.0, 2.0, 40), K=K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^the draws of K overflow: mean "):
                summarize(record, discard=0.2)

    def test_moments_and_quantiles(self):
        rng = np.random.default_rng(42)
        beta = rng.normal(1.2, 0.1, 4000)
        gamma = rng.normal(0.3, 0.05, 4000)
        rec = make_record(beta, gamma)
        s = summarize(rec)
        pb = s.parameters["beta"]
        assert abs(pb.mean - beta.mean()) < 1e-12
        assert abs(pb.sd - beta.std()) < 1e-12
        qs = [pb.quantiles[k] for k in ("2.5%", "25%", "50%", "75%", "97.5%")]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert pb.ci95 == (pb.quantiles["2.5%"], pb.quantiles["97.5%"])
        assert 0 < pb.ess <= 4000
        assert s.n_total == s.n_retained == 4000

    def test_k_column_is_summarized(self):
        rec = make_record(np.linspace(1.0, 2.0, 100), K=np.full(100, 47.0))
        s = summarize(rec)
        assert s.parameters["K"].mean == 47.0
        assert s.parameters["K"].sd == 0.0

    def test_constant_chain(self):
        rec = make_record(np.full(200, 1.5))
        p = summarize(rec).parameters["beta"]
        assert p.mean == 1.5
        assert p.sd == 0.0
        assert all(v == 1.5 for v in p.quantiles.values())
        # a series that never moved has no estimable ESS
        assert p.ess is None

    @pytest.mark.parametrize("n", NEVER_MOVED_LENGTHS)
    @pytest.mark.parametrize("value", NEVER_MOVED_VALUES)
    def test_series_that_never_moved_has_no_ess(self, value, n):
        # for 37 of these 56 series np.full(n, value).std() is not 0
        x = np.full(n, value)
        p = summarize(make_record(x, x, x)).parameters
        assert [p[name].ess for name in ("beta", "gamma", "K")] == [None, None, None]
        assert p["beta"].quantiles["50%"] == value

    def test_short_series_has_no_ess(self):
        s = summarize(make_record(np.arange(1.0, 8.0)))
        assert s.parameters["beta"].ess is None
        assert s.parameters["beta"].mean == 4.0

    def test_discard_drops_front(self):
        beta = np.concatenate([np.zeros(30), np.ones(70)])
        acc = np.concatenate([np.zeros(30, bool), np.ones(70, bool)])
        s = summarize(make_record(beta, accepted=acc), discard=0.3)
        assert s.n_retained == 70
        assert s.parameters["beta"].mean == 1.0
        assert s.acceptance_rate == 1.0
        assert s.discard == 0.3

    def test_discard_fraction_validated(self):
        rec = make_record(np.ones(10))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError):
                summarize(rec, discard=bad)

    @pytest.mark.parametrize(
        "bad", ["0.2", None, False, [0.2]], ids=["str", "None", "bool", "list"]
    )
    def test_discard_that_is_not_a_number_is_refused(self, bad):
        # by the fraction's own wording, not a raw TypeError from the comparison
        rec = make_record(np.linspace(1.0, 2.0, 10))
        message = f"discard fraction must be in [0, 1), got {bad!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            summarize(rec, discard=bad)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            discard_start(bad, 10)

    def test_discard_leaving_nothing_is_an_error(self):
        rec = make_record(np.ones(1))
        with pytest.raises(ValidationError, match="leaves no rows"):
            summarize(rec, discard=0.9)

    def test_order_invariance_of_moments(self):
        rng = np.random.default_rng(3)
        beta = rng.gamma(2.0, 1.0, 500)
        rec = make_record(beta)
        shuffled = make_record(rng.permutation(beta))
        a = summarize(rec).parameters["beta"]
        b = summarize(shuffled).parameters["beta"]
        assert a.mean == b.mean
        assert a.sd == b.sd
        assert a.quantiles == b.quantiles

    def test_as_dict_is_json_ready(self):
        rec = make_record(np.linspace(0.5, 1.5, 64))
        blob = json.dumps(asdict(summarize(rec, discard=0.25)))
        back = json.loads(blob)
        assert set(back["parameters"]) == {"beta", "gamma", "K"}
        assert back["n_retained"] == 48
        assert "2.5%" in back["parameters"]["gamma"]["quantiles"]
        assert back["chains"] == 1 and back["n_total"] == 64

    def test_chains_summarize_their_joined_kept_rows(self):
        rng = np.random.default_rng(17)
        a = make_record(rng.gamma(4.0, 0.3, 90), rng.gamma(2.0, 0.2, 90),
                        accepted=rng.random(90) < 0.7)
        b = make_record(rng.gamma(4.0, 0.3, 57), rng.gamma(2.0, 0.2, 57),
                        accepted=rng.random(57) < 0.4)
        d = 0.3
        ka, kb = 27, 17  # round(90 * 0.3), round(57 * 0.3)
        joined = make_record(
            np.concatenate([a.beta[ka:], b.beta[kb:]]),
            np.concatenate([a.gamma[ka:], b.gamma[kb:]]),
            np.concatenate([a.K[ka:], b.K[kb:]]),
            np.concatenate([a.accepted[ka:], b.accepted[kb:]]),
        )
        got = summarize(a, b, discard=d)
        one = summarize(joined)
        assert got.parameters == one.parameters
        assert got.parameters["gamma"].mean == float(joined.gamma.mean())
        assert got.parameters["K"].ess == ess(joined.K)
        assert got.acceptance_rate == one.acceptance_rate
        assert got.n_retained == one.n_retained == 103
        assert (got.chains, got.n_total, got.discard) == (2, 147, d)
        # the pooled quantiles do not depend on the chain order
        assert summarize(b, a, discard=d).parameters["K"].quantiles == got.parameters["K"].quantiles

    def test_discard_leaving_a_chain_nothing_is_an_error(self):
        long, short = make_record(np.linspace(1.0, 2.0, 100)), make_record(np.ones(1))
        assert summarize(long, discard=0.9).n_retained == 10
        with pytest.raises(ValidationError, match="leaves no rows of the 1-row chain"):
            summarize(long, short, discard=0.9)

    def test_no_chain_is_an_error(self):
        with pytest.raises(ValidationError, match="at least one chain"):
            summarize()


class TestKde:
    def test_integrates_to_one(self):
        x = np.random.default_rng(7).standard_normal(2000)
        grid = np.linspace(-6, 6, 801)
        d = kde(x, grid)
        assert abs(np.trapezoid(d, grid) - 1.0) < 1e-3
        assert d.min() >= 0.0

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(300)
        grid = np.linspace(-4, 4, 64)
        h = silverman_bandwidth(x)
        z = (grid[:, None] - x[None, :]) / h
        ref = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * math.sqrt(2 * math.pi))
        assert np.allclose(kde(x, grid), ref, rtol=1e-13, atol=0)

    def test_two_point_closed_form(self):
        x = np.array([0.0, 1.0])
        h = 0.05
        got = kde(x, np.array([0.0]), bandwidth=h)[0]
        expect = (1.0 + math.exp(-0.5 / h**2)) / (2 * h * math.sqrt(2 * math.pi))
        assert got == pytest.approx(expect, rel=1e-14)

    def test_symmetric_input_gives_symmetric_density(self):
        rng = np.random.default_rng(5)
        half = rng.normal(3.0, 0.5, 500)
        x = np.concatenate([half, -half])
        grid = np.linspace(-6, 6, 241)
        d = kde(x, grid)
        assert np.allclose(d, d[::-1], atol=1e-14)
        # bimodal: the midpoint sits well below the mode
        assert d[120] < 0.25 * d.max()

    def test_bandwidth_iqr_is_the_summarys(self):
        # 16 chains of 800 draws, 640 kept from each: the 10 240 pooled draws
        # of a chains-16 summary, heavy-tailed so that the iqr sets the bandwidth
        rng = np.random.default_rng(16)
        records = [make_record(np.ones(800), K=rng.standard_t(3, 800)) for _ in range(16)]
        series = np.concatenate([rec.K[160:] for rec in records])
        quantiles = summarize(*records, discard=0.2).parameters["K"].quantiles
        iqr = quantiles["75%"] - quantiles["25%"]
        assert series.size == 10_240 and iqr / 1.34 < series.std(ddof=1)
        assert silverman_bandwidth(series) == 0.9 * (iqr / 1.34) * series.size ** (-0.2)

    def test_zero_variance_suggests_histogram(self):
        with pytest.raises(DomainError, match="histogram"):
            kde(np.full(100, 2.0), np.linspace(0, 4, 11))

    @pytest.mark.parametrize("n", NEVER_MOVED_LENGTHS)
    @pytest.mark.parametrize("value", NEVER_MOVED_VALUES)
    def test_series_that_never_moved_has_no_density(self, value, n):
        with pytest.raises(DomainError, match="histogram"):
            kde(np.full(n, value), np.linspace(value - 1.0, value + 1.0, 11))

    def test_rejects_bad_inputs(self):
        grid = np.linspace(-1, 1, 5)
        # a series without spread has no density: a DomainError, as for silverman
        with pytest.raises(DomainError, match="use a histogram$"):
            kde(np.array([1.0]), grid)
        with pytest.raises(DomainError, match="use a histogram$"):
            kde(np.array([0.0, np.nan, 1.0]), grid)
        for bad in (0.0, -1.0, np.inf):
            with pytest.raises(ValidationError):
                kde(np.array([0.0, 1.0]), grid, bandwidth=bad)

    @pytest.mark.parametrize(
        "bad", ["0.5", True, "abc", [0.5]], ids=["str", "bool", "text", "list"]
    )
    def test_bandwidth_must_be_a_number(self, bad):
        # checked as every positive setting is, not converted by float()
        message = f"^bandwidth must be a number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValidationError, match=message):
            kde(np.array([0.0, 1.0, 3.0]), np.linspace(-1.0, 4.0, 5), bandwidth=bad)

    @pytest.mark.parametrize(
        "grid, message",
        [
            (np.zeros((2, 3)), r"^kde grid must be 1-d, got shape \(2, 3\)$"),
            (0.0, r"^kde grid must be 1-d, got shape \(\)$"),
            (np.array([0.0, np.nan, 1.0]), "^kde grid must not hold NaN$"),
        ],
        ids=["2-d", "0-d", "nan"],
    )
    def test_rejects_a_grid_as_it_does_a_series(self, grid, message):
        # not NumPy's broadcast error, nor a silent NaN density
        with pytest.raises(ValidationError, match=message):
            kde(np.array([0.0, 1.0, 3.0]), grid)

    def test_silverman_falls_back_to_sd_when_iqr_vanishes(self):
        x = np.zeros(21)
        x[0] = 5.0
        got = silverman_bandwidth(x)
        assert got == pytest.approx(0.9 * x.std(ddof=1) * 21 ** (-0.2), rel=1e-14)

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.tile([5e-324, 1e-323], 20), "no spread"),
            (np.full(40, 10.0), "zero variance"),
            (np.r_[-1e-150, np.zeros(19), np.full(19, 5e-324), 1e-150], "bandwidth of 0.0"),
        ],
        ids=["underflow", "never-moved", "bandwidth-underflows"],
    )
    def test_silverman_refuses_a_series_without_spread(self, x, message):
        # a series that moved, but whose standard deviation rounds to 0, has
        # no spread, as one that never moved has none; one with a spread but
        # an iqr of one subnormal step has a bandwidth that rounds to 0. Each
        # is a DomainError, not a 0 that kde then refuses as a bad argument
        with pytest.raises(DomainError, match=message):
            silverman_bandwidth(x)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_silverman_refuses_a_non_finite_series_as_kde_does(self, bad):
        # not a nan bandwidth behind two RuntimeWarnings
        x = np.array([1.0, bad, 2.0])
        with pytest.raises(DomainError, match="not finite") as refused:
            silverman_bandwidth(x)
        with pytest.raises(DomainError) as kde_refused:
            kde(x, np.linspace(0.0, 3.0, 5))
        assert str(refused.value) == str(kde_refused.value)

    def test_blocked_evaluation_matches_single_block(self):
        # series large enough that the grid is processed in several blocks
        rng = np.random.default_rng(13)
        x = rng.standard_normal(60000)
        grid = np.linspace(-5, 5, 150)
        h = silverman_bandwidth(x)
        d = kde(x, grid)
        probe = [10, 75, 149]
        for i in probe:
            ref = np.exp(-0.5 * ((grid[i] - x) / h) ** 2).sum()
            ref /= x.size * h * math.sqrt(2 * math.pi)
            assert d[i] == pytest.approx(ref, rel=1e-12)


_DRAWS_RNG = np.random.default_rng(2718)
# one row per kind of series: what it is, and its outcome under the one rule
DRAW_SERIES = [
    ("0-d", np.array(3.0), "not 1-d"),
    ("2-d", _DRAWS_RNG.normal(size=(3, 50)), "not 1-d"),
    ("empty", np.array([]), "no spread"),
    ("one-draw", np.array([1.0]), "no spread"),
    ("nan", np.r_[np.linspace(0.0, 1.0, 20), np.nan], "no spread"),
    ("inf", np.r_[np.linspace(0.0, 1.0, 20), np.inf], "no spread"),
    ("-inf", np.r_[-np.inf, np.linspace(0.0, 1.0, 20)], "no spread"),
    ("never-moved", np.full(40, 0.3), "no spread"),
    ("squares-overflow", np.tile([1e200, -1e200, 0.0, 5.0], 5), "no spread"),
    ("mean-overflows", np.tile([1e308, 1e308, -1e308, 5.0], 5), "no spread"),
    ("variance-underflows", np.tile([5e-324, 1e-323], 20), "no spread"),
    ("ordinary", _DRAWS_RNG.normal(size=200), "ordinary"),
    ("string", "abc", "not real"),
    ("past-double", [0.0, 1.0, 2**1100], "not real"),
]
_DRAWS_GRID = np.linspace(-3.0, 3.0, 7)
DRAW_READERS = {
    "ess": ess,
    "silverman": silverman_bandwidth,
    "kde": lambda x: kde(x, _DRAWS_GRID),
    "kde-bandwidth": lambda x: kde(x, _DRAWS_GRID, bandwidth=0.5),
}


class TestDrawSeriesRule:
    @pytest.mark.parametrize("reader", DRAW_READERS)
    @pytest.mark.parametrize(
        "series, outcome", [row[1:] for row in DRAW_SERIES], ids=[row[0] for row in DRAW_SERIES]
    )
    def test_every_reader_of_a_series_follows_one_rule(self, series, outcome, reader):
        # pyproject's error::RuntimeWarning fails a cell that leaks a warning
        read = DRAW_READERS[reader]
        if outcome == "not 1-d":
            with pytest.raises(ValidationError, match="^a series of draws must be 1-d, got shape"):
                read(series)
        elif outcome == "not real":
            message = f"a series of draws must be real numbers, got {reprlib.repr(series)}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                read(series)
        elif outcome == "no spread" and reader == "ess":
            assert read(series) is None
        elif outcome == "no spread":
            with pytest.raises(DomainError, match="^the series has no spread .*use a histogram$"):
                read(series)
        else:
            got = np.asarray(read(series))
            assert np.isfinite(got).all() and (got > 0).all()


def _one_matrix_kde(x, grid, h=None):
    h = silverman_bandwidth(x) if h is None else h
    z = (grid[:, None] - x[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * math.sqrt(2 * math.pi))


# sample counts on both sides of the block budget KDE_BLOCK_DOUBLES, grid
# sizes that are not multiples of the block height; pairs whose reference
# matrix would exceed 2 M doubles are left out to keep the test's memory small
_KDE_SHAPES = [
    (n, g)
    for n in (2, 1_000, KDE_BLOCK_DOUBLES - 1, KDE_BLOCK_DOUBLES, KDE_BLOCK_DOUBLES + 1, 150_000)
    for g in (1, 7, 256, 1_001)
    if n * g <= 2_000_000
]


class TestKdeBlocking:
    @pytest.mark.parametrize("n,g", _KDE_SHAPES)
    def test_bit_identical_to_one_matrix_formula(self, n, g):
        rng = np.random.default_rng(n + g)
        x = rng.standard_normal(n)
        grid = np.linspace(-4.5, 4.5, g)
        np.testing.assert_array_equal(kde(x, grid), _one_matrix_kde(x, grid))

    def test_bit_identical_with_given_bandwidth(self):
        x = np.random.default_rng(3).gamma(2.0, size=10_240)
        grid = np.linspace(-1.0, 15.0, 256)
        h = silverman_bandwidth(x)
        np.testing.assert_array_equal(kde(x, grid, bandwidth=h), kde(x, grid))

    def test_peak_memory_bounded(self):
        x = np.random.default_rng(17).standard_normal(10_240)
        grid = np.linspace(-4.0, 4.0, 256)
        tracemalloc.start()
        try:
            kde(x, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000

    def test_empty_grid(self):
        assert kde(np.array([0.0, 1.0]), np.array([])).shape == (0,)


class TestKdeFarTails:
    # exp(t) is exactly +0.0 below EXP_ZERO and subnormal down to about -745.14
    SUBNORMAL = (-745.2, -708.4)

    def test_bit_identical_where_kernels_underflow(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(2_000)
        grid = np.linspace(-10.0, 10.0, 301)
        h = 0.05
        t = -0.5 * ((grid[:, None] - x) / h) ** 2
        assert (t < EXP_ZERO).mean() > 0.5
        assert ((t >= self.SUBNORMAL[0]) & (t <= self.SUBNORMAL[1])).any()
        np.testing.assert_array_equal(kde(x, grid, bandwidth=h), _one_matrix_kde(x, grid, h))

    def test_row_of_subnormal_kernels_is_kept(self):
        # every kernel of the first three rows is subnormal, of the last exactly 0
        x = np.array([0.0, 0.01])
        grid = np.array([37.8, 38.0, 38.5, 39.0])
        t = -0.5 * (grid[:, None] - x) ** 2
        assert ((t[:3] >= self.SUBNORMAL[0]) & (t[:3] <= self.SUBNORMAL[1])).all()
        assert (t[3] < EXP_ZERO).all()
        d = kde(x, grid, bandwidth=1.0)
        np.testing.assert_array_equal(d, _one_matrix_kde(x, grid, 1.0))
        assert (d[:3] > 0.0).all()
        assert d[3] == 0.0


def _percentile_series(kind, n):
    rng = np.random.default_rng(n)
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "ties":
        return rng.integers(0, 4, n).astype(float)
    return np.full(n, 0.7)


PERCENTILE_SIZES = (1, 2, 3, 4, 9, 10, 101, 1_000, 1_001, 19_999, 20_000)


class TestPercentiles:
    # (0.0, 100.0) puts every size's index past both ends of the sort
    @pytest.mark.parametrize("levels", [QUANTILE_LEVELS, (75.0, 25.0), (50.0,), (0.0, 100.0)])
    @pytest.mark.parametrize("kind", ["normal", "ties", "constant"])
    @pytest.mark.parametrize("n", PERCENTILE_SIZES)
    def test_bit_identical_to_numpy(self, n, kind, levels):
        x = _percentile_series(kind, n)
        before = x.copy()
        got = _percentiles(x, levels)
        want = np.percentile(x, levels, method="averaged_inverted_cdf")
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("levels", [QUANTILE_LEVELS, (0.0, 100.0)])
    @pytest.mark.parametrize("n", (1, 2, 9, 10, 1_000))
    def test_series_with_a_nan_is_nan_at_every_level(self, n, levels):
        x = _percentile_series("normal", n)
        x[n // 2] = np.nan
        got = _percentiles(x, levels)
        assert np.isnan(got).all()
        want = np.percentile(x, levels, method="averaged_inverted_cdf")
        assert got.tobytes() == want.tobytes()


# one run of the library path in a fresh interpreter: a pool of chains,
# their summary, a bandwidth and a density; it prints the numpy.ma modules
# loaded at the end
_LIBRARY_RUN = """
import sys
import numpy as np
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from staghmc import HmcConfig, InferenceProblem, InputSignal, ObservationModel, TimeSeriesData
from staghmc import run_parallel_chains
from staghmc.diagnostics import kde, silverman_bandwidth, summarize
from staghmc.integrator import IntegratorConfig
from staghmc.lattice import MassConfig

signal = InputSignal.sinusoid(1.0, 0.01, 0.1)
times = np.linspace(0.0, 40.0, 5)
values = signal.value(times) * np.exp(np.random.default_rng(0).normal(0.0, 0.3, 5))
problem = InferenceProblem(
    data=TimeSeriesData(times=times, values=values), signal=signal,
    obs=ObservationModel(0.1), j=5,
)
config = HmcConfig(
    n_mc=12, chains=2, theta0=(1.0, 0.5), seed=1,
    masses=MassConfig(M=720.0, m_prime=130.0, m_alpha=(150.0, 150.0)),
    integrator=IntegratorConfig(d_tau=0.25, P=3),
)
summarize(*run_parallel_chains(problem, config), discard=0.25)
x = np.random.default_rng(1).standard_normal(500)
kde(x, np.linspace(-40.0, 40.0, 64), bandwidth=silverman_bandwidth(x))
kde(x, np.linspace(-4.0, 4.0, 64))
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_no_process_of_a_library_run_imports_numpy_ma():
    # -X importtime logs every import of this interpreter and of its forked
    # pool workers to the one stderr
    src = os.path.dirname(os.path.dirname(staghmc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-W", "error::RuntimeWarning", "-c", _LIBRARY_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "preloaded":
        pytest.skip("import numpy alone loads numpy.ma in this environment")
    assert proc.stdout.strip() == "[]"
    imported = [
        line for line in proc.stderr.splitlines()
        if line.startswith("import time:") and line.split("|")[-1].strip().split(".")[:2] == ["numpy", "ma"]
    ]
    assert imported == []


class TestDensityCsv:
    def test_round_trip(self, tmp_path):
        grid = np.linspace(0, 1, 17)
        dens = np.exp(-grid)
        path = tmp_path / "density.csv"
        write_density_csv(path, grid, dens)
        first = path.read_text().splitlines()[0]
        assert first == "x,density"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], grid)
        assert np.array_equal(back[:, 1], dens)

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_density_csv(tmp_path / "d.csv", np.zeros(3), np.zeros(4))
