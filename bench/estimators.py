"""Fixed statistical yardsticks of the benchmark: a host-speed probe and a
multi-chain effective sample size.

Both live here, outside the package, so that no change to ``staghmc`` can
redefine what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

# ---------------------------------------------------------------------------
# host probe


def _probe_round(x: np.ndarray, idx: np.ndarray, mask: np.ndarray, steps: int) -> float:
    # the same mix of NumPy calls an HMC iteration spends its time in:
    # elementwise ufuncs, reductions, cumulative sums, fancy indexing and
    # masked gather/scatter
    acc = 0.0
    for _ in range(steps):
        e = np.exp(np.minimum(-0.3 * x, 700.0))
        a = x - 0.5 * e
        c = np.cumsum(a[::-1])[::-1]
        d = np.zeros(x.size)
        d[1:] = np.diff(c)
        d[idx] += a[idx]
        y = x.copy()
        y[mask] = y[mask] * 0.99 + d[mask] * 0.01
        acc += float(np.sum(a * d)) + float(np.dot(y, e))
    return acc


def host_probe_us(size: int, steps: int, repeats: int) -> float:
    """Median wall time, in microseconds, of a fixed NumPy-only probe round
    of ``steps`` steps on arrays of ``size`` elements, over ``repeats``
    rounds. It never calls ``staghmc``, so it tracks only the speed of the
    host."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(size)
    idx = np.arange(0, size, 30)
    mask = np.ones(size, dtype=bool)
    mask[idx] = False
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _probe_round(x, idx, mask, steps)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


# ---------------------------------------------------------------------------
# multi-chain bulk ESS (Vehtari, Gelman, Simpson, Carpenter and Buerkner,
# "Rank-normalization, folding, and localization: an improved R-hat",
# Bayesian Analysis 16(2), 2021)

_STD_NORMAL = statistics.NormalDist()


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..S of the flattened draws, ties sharing their mean rank
    (rejected proposals repeat a value, so ties are common)."""
    _, inverse, counts = np.unique(x.ravel(), return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    mean_rank = ends - (counts - 1) / 2.0
    return mean_rank[inverse].reshape(x.shape)


def _rank_normalise(x: np.ndarray) -> np.ndarray:
    s = x.size
    r = _average_ranks(x)
    p = (r - 0.375) / (s + 0.25)
    uniq, inverse = np.unique(p, return_inverse=True)
    z = np.array([_STD_NORMAL.inv_cdf(float(v)) for v in uniq])
    return z[inverse].reshape(x.shape)


def _split(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half :]], axis=0)


def _ess_of_chains(x: np.ndarray) -> float:
    """ESS of an (m, n) array of chains from the combined autocorrelation and
    Geyer's initial monotone sequence."""
    m, n = x.shape
    centred = x - x.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, nfft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :n] / n
    chain_var = acov[:, 0] * n / (n - 1.0)
    mean_var = float(np.mean(chain_var))
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(np.var(x.mean(axis=1), ddof=1))
    if not var_plus > 0:
        return float(m * n)
    mean_acov = acov.mean(axis=0)
    rho = 1.0 - (mean_var - mean_acov) / var_plus
    rho[0] = 1.0

    # initial positive sequence: pairs (t, t+1) while their sum stays > 0
    rho_hat = np.zeros(n)
    rho_hat[0] = 1.0
    rho_hat[1] = rho[1]
    t = 1
    even, odd = 1.0, rho[1]
    while t < n - 3 and even + odd > 0:
        even, odd = rho[t + 1], rho[t + 2]
        if even + odd >= 0:
            rho_hat[t + 1] = even
            rho_hat[t + 2] = odd
        t += 2
    max_t = t - 2
    # improved estimate: keep the last even autocorrelation if positive
    if even > 0:
        rho_hat[max_t + 1] = even
    # initial monotone sequence
    t = 1
    while t <= max_t - 2:
        prev = rho_hat[t - 1] + rho_hat[t]
        if rho_hat[t + 1] + rho_hat[t + 2] > prev:
            rho_hat[t + 1] = prev / 2.0
            rho_hat[t + 2] = prev / 2.0
        t += 2
    tau = -1.0 + 2.0 * float(np.sum(rho_hat[: max_t + 1])) + float(
        np.sum(rho_hat[max_t + 1 : max_t + 2])
    )
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def bulk_ess(chains) -> float:
    """Rank-normalised split-chain bulk ESS of an (m chains, n draws) array."""
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2 or x.shape[1] < 8:
        raise ValueError("bulk_ess needs an (m, n) array with n >= 8")
    return _ess_of_chains(_rank_normalise(_split(x)))


def chain_digest(beta: np.ndarray, gamma: np.ndarray) -> str:
    """sha256 of a chain's (beta, gamma) draws as little-endian float64."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(beta, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(gamma, dtype="<f8").tobytes())
    return h.hexdigest()
