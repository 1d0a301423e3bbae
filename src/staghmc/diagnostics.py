"""Posterior summaries and sampler health metrics from chain records.

Everything here is a pure function of the chain arrays: moment and quantile
summaries with effective sample sizes over the kept rows of one or more
chains, and a Gaussian kernel density estimator for plotting marginals.

One rule decides whether a series of draws has either: `_draws` reads it
as a 1-d float array, and any other shape is a ValidationError; `_spread`
gives its standard deviation, or None where it has no spread: fewer than 2
draws, a draw that is not finite, every draw equal to the first, or a
standard deviation that is 0 or leaves the double range. The test of
equal draws is exact, since a constant series can read an sd of 1e-16. For
a series without spread `ess` returns None, so a stalled parameter's
summary reads ``"ess": null``, and `silverman_bandwidth` and `kde` raise a
DomainError.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, ValidationError, _frozen, _positive
from .model import _write_csv

__all__ = [
    "ParameterSummary",
    "PosteriorSummary",
    "discard_start",
    "ess",
    "kde",
    "silverman_bandwidth",
    "summarize",
    "write_density_csv",
]

QUANTILE_LEVELS = (2.5, 25.0, 50.0, 75.0, 97.5)
# kernel values held per block by ``kde``: 32 Ki doubles, 256 KB a buffer
KDE_BLOCK_DOUBLES = 1 << 15
# np.exp is exactly +0.0 below about -745.14; ``kde`` skips arguments below this
EXP_ZERO = -746.0
_NO_SPREAD = (
    "the series has no spread (fewer than 2 draws, a draw that is not finite, zero variance "
    "or a variance past the double range), so a kernel density is degenerate: use a histogram"
)


@_frozen
class ParameterSummary:
    mean: float
    sd: float
    quantiles: dict
    ci95: tuple
    ess: float | None


@_frozen
class PosteriorSummary:
    parameters: dict
    acceptance_rate: float
    n_total: int
    n_retained: int
    discard: float
    chains: int


def _draws(series) -> np.ndarray:
    """``series`` as a 1-d float array, the one read of a series of draws;
    any other shape, a 0-d or a 2-d array among them, is a ValidationError."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"a series of draws must be 1-d, got shape {x.shape}")
    return x


def _spread(x: np.ndarray, ddof: int) -> float | None:
    """``x.std(ddof=ddof)`` of the draws ``x`` (`_draws`), or None where the
    series has no spread: fewer than 2 draws, a draw that is not finite,
    every draw equal to the first, or a standard deviation that is 0 (its
    squares underflow) or not finite (its squares or its mean overflow).
    Equal draws are found by exact comparison, as a constant series whose
    rounded mean leaves an sd of 1e-16 would pass a test on the sd alone.
    This is the one rule of `ess`, `silverman_bandwidth` and `kde`."""
    if x.size < 2 or not np.isfinite(x).all() or np.all(x == x[0]):
        return None
    # a spread past the double range saturates to inf or nan, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(x.std(ddof=ddof))
    return sd if 0.0 < sd < math.inf else None


def _percentiles(x: np.ndarray, levels) -> np.ndarray:
    """The percentiles ``levels`` of the non-empty 1-d ``x`` by NumPy's
    ``'averaged_inverted_cdf'``, the inverse of the ECDF, operation for
    operation, so they equal np.percentile's. This is the package's one
    order statistic: the summary's quantiles, the interquartile range of
    `silverman_bandwidth` and a chain's ``median_abs_dh`` (its 50th level,
    np.median's value wherever the two middle values lie within a factor
    2 of each other; otherwise it may differ in the last bit).

    It reads them from one sort. np.percentile partitions instead, and
    through np.unique imports numpy.ma, 10-24 ms and about 1 MB in each
    process. A series that holds a nan gives nan at every level, as there.
    Only a zero's sign can differ, where a series holds both -0.0 and +0.0:
    the two compare equal, and a sort and a partition may order them apart.
    """
    s = np.sort(x)
    n = s.size
    virtual = n * np.true_divide(levels, 100) - 1
    lo = np.floor(virtual)
    hi = lo + 1
    # an index past either end reads that end's value
    for edge, end in ((virtual >= n - 1, -1), (virtual < 0, 0)):
        lo[edge] = hi[edge] = end
    # a whole index averages its two neighbours, any other takes the upper one
    gamma = np.where(virtual - lo == 0, 0.5, 1.0)
    a, b = s[lo.astype(np.intp)], s[hi.astype(np.intp)]
    # np.percentile's two-sided interpolation takes its upper form at
    # gamma >= 0.5, and gamma is 0.5 or 1
    out = b - (b - a) * (1 - gamma)
    if np.isnan(s[-1]):  # a sort puts any nan last
        out[:] = s[-1]
    return out


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= ``n`` (n >= 1), a length that NumPy's
    pocketfft transforms in radix-2, -3 and -5 passes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that takes p35 to n or past it
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def ess(series) -> float | None:
    """Effective sample size via the initial-positive-sequence rule, or None
    where a series has none: fewer than 10 draws, no spread (`_spread`: a
    draw that is not finite, a series that never moved, or a standard
    deviation that is 0 or leaves the double range), or an autocovariance
    that leaves the double range. Only a series that is not 1-d is an error
    (ValidationError).

    The autocovariance of the L draws comes from one zero-padded FFT at
    the smallest 5-smooth length >= 2L - 1 (`_fft_length`; from 2L - 1 on
    no circular lag wraps onto the L kept ones): 20 480 points for 10 240
    draws, against 32 768 at the next power of two. The power spectrum is
    squared in place, and the centred series and the spectrum are released
    before the L lags are sliced from the inverse transform, so the call
    holds about two transform-sized arrays at once.

    Autocorrelations are summed over consecutive pairs while the pair sums
    stay positive; the result is clipped to the series length (an antithetic
    chain is reported as fully efficient, not super-efficient).
    """
    x = _draws(series)
    L = x.size
    if L < 10 or _spread(x, 0) is None:
        return None
    nfft = _fft_length(2 * L - 1)
    # an autocovariance past the double range saturates to inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        x = x - x.mean()
        f = np.fft.rfft(x, nfft)
        del x
        f *= f.conj()
        acov = np.fft.irfft(f, nfft)
        del f
        acov = acov[:L] / L
    if not np.isfinite(acov).all():
        return None
    rho = acov / acov[0]
    pair_sums = rho[0:-1:2] + rho[1::2]
    positive = 0.0
    for g in pair_sums:
        if g <= 0:
            break
        positive += g
    tau = max(2.0 * positive - 1.0, 1e-12)
    return float(min(L, L / tau))


def _parameter_summary(name: str, x: np.ndarray) -> ParameterSummary:
    """The summary of the draws ``x`` of the parameter ``name``; draws whose
    mean or sd overflows to inf are a ValidationError naming it (a nan draw
    reads a nan mean)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = float(x.mean()), float(x.std(ddof=0))
    if math.isinf(mean) or math.isinf(sd):
        raise ValidationError(f"the draws of {name} overflow: mean {mean}, sd {sd}")
    # ECDF-based quantiles: pooling identical chains leaves them unchanged
    qs = _percentiles(x, QUANTILE_LEVELS)
    return ParameterSummary(
        mean=mean,
        sd=sd,
        quantiles={f"{q:g}%": float(v) for q, v in zip(QUANTILE_LEVELS, qs)},
        ci95=(float(qs[0]), float(qs[-1])),
        ess=ess(x),
    )


def discard_start(discard: float, n_rows: int) -> int:
    """First kept row of an ``n_rows``-row chain after the burn-in fraction
    ``discard``; a fraction outside [0, 1), anything that is not a number
    (a string, None or a bool), or a fraction that keeps no row, is a
    ValidationError."""
    number = isinstance(discard, numbers.Real) and not isinstance(discard, bool)
    if not (number and 0.0 <= discard < 1.0):
        raise ValidationError(f"discard fraction must be in [0, 1), got {discard!r}")
    start = int(round(n_rows * discard))
    if start >= n_rows:
        raise ValidationError(f"discard={discard} leaves no rows of the {n_rows}-row chain")
    return start


def _kept_rows(records, discard: float) -> dict:
    """beta, gamma, K and accepted of every chain after its burn-in fraction
    ``discard`` (`discard_start`), joined in chain order."""
    starts = [discard_start(discard, rec.n_rows) for rec in records]
    return {
        name: np.concatenate([getattr(rec, name)[start:] for rec, start in zip(records, starts)])
        for name in ("beta", "gamma", "K", "accepted")
    }


def summarize(*records, discard: float = 0.0) -> PosteriorSummary:
    """Summaries of beta, gamma, K over the kept rows of one or more chain
    records (`sampler.ChainRecord`).

    ``discard`` is the burn-in fraction dropped from the front of each
    chain; each chain must keep a row. The kept rows are pooled in chain
    order, so quantiles are those of the pooled draws, by the ECDF rule of
    `_percentiles`. Draws whose mean or sd overflows are a ValidationError.
    """
    if not records:
        raise ValidationError("summarize needs at least one chain record")
    return _pooled_summary(records, _kept_rows(records, discard), discard)


def _pooled_summary(records, kept: dict, discard: float) -> PosteriorSummary:
    """The `summarize` of ``records`` from their rows ``kept`` at the
    fraction ``discard`` (`_kept_rows`), for a caller that reads the kept
    rows itself: the rows of a summary are joined once."""
    return PosteriorSummary(
        parameters={name: _parameter_summary(name, kept[name]) for name in ("beta", "gamma", "K")},
        acceptance_rate=float(np.mean(kept["accepted"])),
        n_total=sum(rec.n_rows for rec in records),
        n_retained=kept["accepted"].size,
        discard=float(discard),
        chains=len(records),
    )


def silverman_bandwidth(series) -> float:
    """0.9 min(sd, iqr/1.34) n^(-1/5); falls back to sd when the iqr is 0.
    The iqr is the 75th less the 25th percentile by `_percentiles`, so the
    bandwidth of a pooled series reads exactly its summary's ``75%`` less
    its ``25%``. A series that is not 1-d is a ValidationError. A series
    without spread (`_spread`: fewer than 2 draws, a draw that is not
    finite, one that never moved, or a standard deviation that is 0 or
    leaves the double range) is a DomainError, as it is for `kde`. So is a
    bandwidth that is not positive and finite, such as one whose small iqr
    rounds to 0 in the product."""
    x = _draws(series)
    sd = _spread(x, 1)
    if sd is None:
        raise DomainError(_NO_SPREAD)
    q75, q25 = _percentiles(x, (75.0, 25.0))
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    h = 0.9 * spread * x.size ** (-0.2)
    if not 0.0 < h < math.inf:
        raise DomainError(f"the series' spread gives a bandwidth of {h!r}, use a histogram")
    return h


def kde(series, grid, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian kernel density of ``series`` evaluated on ``grid``.

    Uses the Silverman bandwidth (`silverman_bandwidth`, whose iqr is the
    summary's) unless one is given. A series without spread (`_spread`:
    fewer than 2 draws, a draw that is not finite, one that never moved,
    or a standard deviation that is 0 or leaves the double range) has no
    meaningful density, whether or not a bandwidth is given; that is a
    DomainError (use a histogram instead). A series or a grid that is not
    1-d, a grid point that is NaN, and a given bandwidth that is not a
    positive finite number (`errors._positive`: a string or a bool is
    refused, not converted) are each a ValidationError.

    The grid is evaluated in row blocks of about ``KDE_BLOCK_DOUBLES``
    kernel values, in two buffers of doubles and one of bools allocated once
    per call, so the memory beyond the inputs is
    O(max(samples, KDE_BLOCK_DOUBLES)) doubles whatever the grid size. Each
    step keeps the operation order of the one-matrix formula
    ``exp(-0.5 * z * z).sum(axis=1) / norm`` with
    ``z = (grid[:, None] - series[None, :]) / h``, and a row sum does not
    depend on how many rows its block holds, so the result is bit-identical
    to that formula.

    Arguments t = -z*z/2 below ``EXP_ZERO`` are set to 0 before ``np.exp``
    and their kernel values to 0 after: exp(t) is exactly +0.0 there, but
    NumPy reaches it through a special-value path at 5-15 times the cost of
    an argument in range, and far tails make up most of a density's
    arguments. Every argument from ``EXP_ZERO`` up is still exponentiated,
    the subnormal band [-745.14, -708.4] among them: its values are not 0,
    and a row whose every term is tiny sums them.
    """
    x = _draws(series)
    if _spread(x, 1) is None:
        raise DomainError(_NO_SPREAD)
    h = silverman_bandwidth(x) if bandwidth is None else _positive("bandwidth", bandwidth)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValidationError(f"kde needs a 1-d grid, got shape {grid.shape}")
    if np.isnan(grid).any():
        raise ValidationError("kde grid must not hold NaN")
    out = np.empty(grid.size)
    norm = x.size * h * math.sqrt(2.0 * math.pi)
    rows = max(1, min(grid.size, KDE_BLOCK_DOUBLES // x.size))
    z_buf = np.empty((rows, x.size))
    t_buf = np.empty((rows, x.size))
    zero_buf = np.empty((rows, x.size), dtype=bool)
    for a in range(0, grid.size, rows):
        b = min(a + rows, grid.size)
        # leading-row views of C-contiguous buffers stay C-contiguous
        z = z_buf[: b - a]
        t = t_buf[: b - a]
        zero = zero_buf[: b - a]
        np.subtract(grid[a:b, None], x, out=z)
        np.divide(z, h, out=z)
        np.multiply(z, -0.5, out=t)
        np.multiply(t, z, out=t)
        np.less(t, EXP_ZERO, out=zero)
        np.copyto(t, 0.0, where=zero)
        np.exp(t, out=t)
        np.copyto(t, 0.0, where=zero)
        np.add.reduce(t, axis=1, out=out[a:b])
    np.divide(out, norm, out=out)
    return out


def write_density_csv(path, grid, density) -> None:
    """Density curve as two columns ``x,density`` for external plotting."""
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    if grid.shape != density.shape:
        raise ValidationError("grid and density must have matching shapes")
    _write_csv(path, "x,density", np.column_stack([grid, density]))
