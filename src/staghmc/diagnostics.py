"""Posterior summaries and sampler health metrics from chain records.

Everything here is a pure function of the chain arrays: moment and quantile
summaries with effective sample sizes over the kept rows of one or more
chains, and a Gaussian kernel density estimator for plotting marginals.

A series that never moved, every draw equal to the first by exact
comparison, has neither: `ess` returns None for it (as for fewer than 10
draws or a non-finite draw), so a stalled parameter's summary reads
``"ess": null``, and `kde` refuses it with a DomainError. A test on the
rounded standard deviation would not do, since a constant series can read
an sd of 1e-16.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ValidationError, _frozen, _positive
from .model import _write_csv
from .sampler import ChainRecord

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
# kernel values held per block by ``kde``: 64 Ki doubles, 512 KB a buffer
KDE_BLOCK_DOUBLES = 1 << 16


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


def _never_moved(x: np.ndarray) -> bool:
    """Every draw of the non-empty series ``x`` equals the first. The test is
    exact, with no mean whose rounding could make a constant series look
    spread, so it is the one rule of `ess` and `kde`."""
    return bool(np.all(x == x[0]))


def ess(series) -> float | None:
    """Effective sample size via the initial-positive-sequence rule, or None
    where a series has none: fewer than 10 draws, a draw that is not finite
    (nan or inf), a series that never moved, or one whose variance
    underflows to 0. Only a series that is not 1-d is an error
    (ValidationError).

    Autocorrelations are summed over consecutive pairs while the pair sums
    stay positive; the result is clipped to the series length (an antithetic
    chain is reported as fully efficient, not super-efficient).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("ess needs a 1-d series")
    L = x.size
    if L < 10 or not np.isfinite(x).all() or _never_moved(x):
        return None
    x = x - x.mean()
    if np.dot(x, x) / L == 0.0:  # the variance underflows
        return None
    nfft = 1 << (2 * L - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:L] / L
    rho = acov / acov[0]
    pair_sums = rho[0:-1:2] + rho[1::2]
    positive = 0.0
    for g in pair_sums:
        if g <= 0:
            break
        positive += g
    tau = max(2.0 * positive - 1.0, 1e-12)
    return float(min(L, L / tau))


def _parameter_summary(x: np.ndarray) -> ParameterSummary:
    # ECDF-based quantiles: pooling identical chains leaves them unchanged
    qs = np.percentile(x, QUANTILE_LEVELS, method="averaged_inverted_cdf")
    return ParameterSummary(
        mean=float(x.mean()),
        sd=float(x.std(ddof=0)),
        quantiles={f"{q:g}%": float(v) for q, v in zip(QUANTILE_LEVELS, qs)},
        ci95=(float(qs[0]), float(qs[-1])),
        ess=ess(x),
    )


def discard_start(discard: float, n_rows: int) -> int:
    """First kept row of an ``n_rows``-row chain after the burn-in fraction
    ``discard``; a fraction outside [0, 1), or one that keeps no row, is a
    ValidationError."""
    if not (0.0 <= discard < 1.0):
        raise ValidationError(f"discard fraction must be in [0, 1), got {discard}")
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


def summarize(*records: ChainRecord, discard: float = 0.0) -> PosteriorSummary:
    """Summaries of beta, gamma, K over the kept rows of one or more chains.

    ``discard`` is the burn-in fraction dropped from the front of each
    chain; each chain must keep a row. The kept rows are pooled in chain
    order, so quantiles are those of the pooled draws.
    """
    if not records:
        raise ValidationError("summarize needs at least one chain record")
    kept = _kept_rows(records, discard)
    return PosteriorSummary(
        parameters={name: _parameter_summary(kept[name]) for name in ("beta", "gamma", "K")},
        acceptance_rate=float(np.mean(kept["accepted"])),
        n_total=sum(rec.n_rows for rec in records),
        n_retained=kept["accepted"].size,
        discard=float(discard),
        chains=len(records),
    )


def _check_finite_series(x: np.ndarray):
    """Refuse a series with a nan or infinite draw, for `kde` and
    `silverman_bandwidth` alike."""
    if not np.isfinite(x).all():
        raise ValidationError("kde series must be finite")


def silverman_bandwidth(series) -> float:
    """0.9 min(sd, iqr/1.34) n^(-1/5); falls back to sd when the iqr is 0.
    Fewer than two samples have no spread: that is a DomainError, as a zero
    variance is for `kde`. A nan or infinite draw is a ValidationError, as
    it is for `kde`."""
    x = np.asarray(series, dtype=float)
    if x.size < 2:
        raise DomainError(f"a bandwidth needs at least 2 samples, got {x.size}")
    _check_finite_series(x)
    sd = float(x.std(ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * x.size ** (-0.2)


def kde(series, grid, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian kernel density of ``series`` evaluated on ``grid``.

    Uses the Silverman bandwidth unless one is given. A series that never
    moved has no meaningful bandwidth; that is a DomainError (use a
    histogram instead).

    The grid is evaluated in row blocks of about ``KDE_BLOCK_DOUBLES``
    kernel values, in two buffers allocated once per call, so the memory
    beyond the inputs is O(max(samples, KDE_BLOCK_DOUBLES)) doubles whatever
    the grid size. Each step keeps the operation order of the one-matrix
    formula ``exp(-0.5 * z * z).sum(axis=1) / norm`` with
    ``z = (grid[:, None] - series[None, :]) / h``, and a row sum does not
    depend on how many rows its block holds, so the result is bit-identical
    to that formula.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("kde needs a 1-d series of at least 2 samples")
    _check_finite_series(x)
    if _never_moved(x):
        raise DomainError(
            "series has zero variance; a kernel density is degenerate, use a histogram"
        )
    h = silverman_bandwidth(x) if bandwidth is None else float(bandwidth)
    _positive("bandwidth", h)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    out = np.empty(grid.size)
    norm = x.size * h * math.sqrt(2.0 * math.pi)
    rows = max(1, min(grid.size, KDE_BLOCK_DOUBLES // x.size))
    z_buf = np.empty((rows, x.size))
    t_buf = np.empty((rows, x.size))
    for a in range(0, grid.size, rows):
        b = min(a + rows, grid.size)
        # leading-row views of C-contiguous buffers stay C-contiguous
        z = z_buf[: b - a]
        t = t_buf[: b - a]
        np.subtract(grid[a:b, None], x, out=z)
        np.divide(z, h, out=z)
        np.multiply(z, -0.5, out=t)
        np.multiply(t, z, out=t)
        np.exp(t, out=t)
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
