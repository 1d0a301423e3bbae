"""Physical model of a randomly driven nonlinear reservoir.

The observable S(t) obeys the scalar stochastic differential equation
(Stratonovich convention)

    dS/dt = r(t) - (1/K) (1 + gamma/2) S + sqrt(gamma/K) S eta(t),

with input r(t) > 0, retention parameter K > 0, relative noise strength
gamma > 0, and unit white noise eta. Substituting

    beta = sqrt(T gamma / K),      S(t) = (T gamma r(t) / beta^2) e^{beta q(t)}

turns it into an additive-noise equation for q(t) on the horizon [0, T],

    dq/dt = (beta / (T gamma)) e^{-beta q} - rho(t)/T + eta(t)/sqrt(T),
    rho(t) = (T/beta) d/dt ln r(t) + (2 + gamma) beta / (2 gamma),

which is the form every discretized quantity in this package is built on.
Observations are noisy logarithmic readings y_s with
ln y_s = ln(S(t_s)/K) + sigma eps_s, eps_s ~ N(0, 1), on equidistant times
from t_1 = 0. A first time given within 1e-12 T of 0 is stored as exactly
0, the time the lattice starts at, so an input tabulated from 0 covers it.

This module holds the parameter containers, input-signal abstraction, the
forward (Euler-Maruyama) simulator, and synthetic-observation generation.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import field

import numpy as np

from .errors import NonFiniteError, ValidationError
from .errors import _count, _frozen, _naming, _positive, _real, _reals, _rule, _seed, _set
from .errors import _sized, _vector

__all__ = [
    "PhysicalParams",
    "DimensionlessParams",
    "InputSignal",
    "ObservationModel",
    "TimeSeriesData",
    "TruthPath",
    "to_dimensionless",
    "simulate_truth",
    "generate_observations",
]


# --------------------------------------------------------------------------
# parameter containers


@_frozen
class PhysicalParams:
    """Reservoir parameters in physical units: retention K, noise gamma,
    and the time horizon T of the observation window.

    Each must be positive and finite, and together they must give a
    positive finite beta = sqrt(T gamma / K) and a finite T c, where c =
    (2 + gamma) beta / (2 gamma) is the constant part of rho: the drift
    of a step h <= T, -h rho / T, is then finite, so neither a simulation
    nor a chain's start overflows on (K, gamma, T) alone. c is formed in
    the operation order of `simulate_truth` and `energy._hprime`."""

    K: float = _rule(_positive)
    gamma: float = _rule(_positive)
    T: float = _rule(_positive)

    def __post_init__(self):
        given = f" from K={self.K}, gamma={self.gamma}, T={self.T}"
        beta = math.sqrt(self.T * self.gamma / self.K)
        if not (beta > 0 and math.isfinite(beta)):
            raise ValidationError(
                f"beta = sqrt(T gamma / K) must be positive and finite, got {beta}{given}"
            )
        Tc = self.T * ((2.0 + self.gamma) * beta / (2.0 * self.gamma))
        if not math.isfinite(Tc):
            raise ValidationError(
                f"T (2 + gamma) beta / (2 gamma) must be finite, got {Tc}{given}"
            )


@_frozen
class DimensionlessParams:
    """Sampler-facing parameters theta = (beta, gamma)."""

    beta: float = _rule(_positive)
    gamma: float = _rule(_positive)


def to_dimensionless(params: PhysicalParams) -> DimensionlessParams:
    """Map (K, gamma, T) to theta = (beta, gamma) with beta = sqrt(T gamma / K)."""
    return DimensionlessParams(
        beta=math.sqrt(params.T * params.gamma / params.K), gamma=params.gamma
    )


# --------------------------------------------------------------------------
# input signal


def _series(what: str, times, values) -> tuple[np.ndarray, np.ndarray]:
    """``times`` and ``values`` as float arrays, if they are a sampled
    series: matching 1-d arrays (`errors._vector`) of at least 2 finite
    points, the times strictly increasing and the values positive. Anything
    else is a ValidationError whose message starts with ``what``. The
    arrays are copies, so a container that freezes them (`_set`) owns them."""
    t, v = _vector(f"{what} times", times), _vector(f"{what} values", values)
    if t.shape != v.shape or t.size < 2:
        raise ValidationError(f"{what} needs matching 1-d time/value arrays with >= 2 points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValidationError(f"{what} times and values must be finite")
    if not np.all(np.diff(t) > 0):
        raise ValidationError(f"{what} times must be strictly increasing")
    if not np.all(v > 0):
        raise ValidationError(f"{what} values must be strictly positive")
    return t.copy(), v.copy()


@_frozen
class InputSignal:
    """Deterministic input r(t), positive and finite wherever it is read.

    Two kinds are supported:

    * ``sinusoid``: r(t) = a sin^2(omega t) + b, evaluated analytically; a
      constant input r is ``sinusoid(0.0, 0.0, r)``.
    * ``tabulated``: piecewise-linear interpolation of sampled (t, r) pairs,
      held as read-only copies; evaluation outside the tabulated range is
      a ValidationError: the input signal does not cover the data.

    `value` gives r(t) and `rate` dr/dt. The package reads r only through
    `_signal_over`, which checks it where it is read: a sinusoid, as a
    table, needs r > 0 and finite only there, so its a, omega and b are
    checked by that read, not here.
    """

    kind: str
    a: float = 0.0
    omega: float = 0.0
    b: float = 0.0
    times: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "tabulated":
            t, v = _series("tabulated input", self.times, self.values)
            _set(self, times=t, values=v)
        elif self.kind != "sinusoid":
            raise ValidationError(f"unknown input kind {self.kind!r}")

    @classmethod
    def sinusoid(cls, a: float, omega: float, b: float) -> "InputSignal":
        return cls(kind="sinusoid", a=a, omega=omega, b=b)

    @classmethod
    def tabulated(cls, times, values) -> "InputSignal":
        return cls(kind="tabulated", times=times, values=values)

    def value(self, t):
        """r(t); vectorized over t, a time or an array of times of any shape
        (`errors._reals`)."""
        t = _reals("input signal times", t)
        if self.kind == "sinusoid":
            return self.a * np.sin(self.omega * t) ** 2 + self.b
        self._check_range(t)
        return np.interp(t, self.times, self.values)

    def rate(self, t):
        """dr/dt; for a tabulated input, the slope of the segment that starts
        at or before t (the last segment's from its last node on)."""
        t = _reals("input signal times", t)
        if self.kind == "sinusoid":
            return self.a * self.omega * np.sin(2.0 * self.omega * t)
        self._check_range(t)
        slopes = np.diff(self.values) / np.diff(self.times)
        seg = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, slopes.size - 1)
        return slopes[seg]

    def _check_range(self, t):
        if np.any(t < self.times[0] - 1e-12) or np.any(t > self.times[-1] + 1e-12):
            raise ValidationError(
                "input signal does not cover the data: time outside tabulated range"
                f" [{self.times[0]}, {self.times[-1]}]"
            )

    @classmethod
    def from_csv(cls, path) -> "InputSignal":
        data, _ = _read_csv(path, "t,r")
        with _naming(str(path)):
            return cls.tabulated(data[:, 0], data[:, 1])


def _signal_over(signal: InputSignal, times) -> np.ndarray:
    """r(times) as floats, if the signal can be read at ``times``: the one
    rule for both kinds of signal, whether a plan, a simulation or a
    chain's start asks, and the package's one read of r. A tabulated
    input that stops short of ``times`` (refused by `InputSignal.value`
    itself), or a value that is not positive and finite (a table can
    interpolate to 0; a sinusoid can dip to 0, peak past the double range
    or read NaN from a non-finite a, omega or b), is a ValidationError. A
    sinusoid's refusal names its a, omega and b; a table's is named by its
    file (`_naming`). Before r is evaluated, a sinusoid's a, omega and b
    must each be a real number of the double range (`errors._real`): a
    complex one, which NumPy would cut to its real part, a string, a list
    or an integer past the double range is refused, naming the field."""
    if signal.kind == "sinusoid":
        for name in ("a", "omega", "b"):
            _real(f"input signal {name}", getattr(signal, name))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        r = np.asarray(signal.value(times), dtype=float)
    bad = np.flatnonzero(~((r > 0) & (r < np.inf)))
    if bad.size:
        t, value = np.ravel(times)[bad[0]], np.ravel(r)[bad[0]]
        given = ""
        if signal.kind == "sinusoid":
            given = f" from a={signal.a}, omega={signal.omega}, b={signal.b}"
        raise ValidationError(
            f"input signal must be positive and finite wherever it is read:"
            f" r({t}) = {value}{given}"
        )
    return r


# --------------------------------------------------------------------------
# observations


@_frozen
class ObservationModel:
    """Multiplicative log-normal measurement noise of width sigma, and the
    weight ``inv_sigma2`` = 1 / sigma^2 of the data term (ln(y/r) -
    beta u)^2 / (2 sigma^2) that holds each measurement bead. A sigma so
    small that this weight overflows, which would make every likelihood and
    force infinite, is a ValidationError, for a simulation as for an
    inference."""

    sigma: float = _rule(_positive)
    inv_sigma2: float = field(init=False, repr=False)

    def __post_init__(self):
        inv_sigma2 = 1.0 / self.sigma / self.sigma
        if math.isinf(inv_sigma2):
            raise ValidationError(
                f"sigma = {self.sigma!r} is too small for the likelihood: 1/sigma^2 overflows"
            )
        _set(self, inv_sigma2=inv_sigma2)


@_frozen
class TimeSeriesData:
    """Observed series y_s > 0 on equidistant times t_1 = 0, ..., t_{n+1} = T;
    it holds read-only copies of the arrays it is given. A first time within
    1e-12 T of 0 is stored as exactly 0.0, the time the lattice's first bead
    and every signal read at ``times`` start from."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = _series("observation", self.times, self.values)
        # the second time must follow 0 too, to stay after t[0] once it is 0
        if abs(t[0]) > 1e-12 * max(1.0, abs(t[-1])) or t[1] <= 0.0:
            raise ValidationError(f"first observation time must be 0, got {t[0]}")
        dt = np.diff(t)
        if np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
            raise ValidationError("observation times must be equidistant (1e-9 relative)")
        if t[0] != 0.0:  # a signed zero keeps its bytes
            t[0] = 0.0
        _set(self, times=t, values=v)

    @property
    def n_segments(self) -> int:
        """Number of inter-observation segments n (so the series has n+1 points)."""
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.times.tobytes())
        h.update(self.values.tobytes())
        return h.hexdigest()

    def to_csv(self, path):
        _write_csv(path, "t,y", np.column_stack([self.times, self.values]))

    @classmethod
    def from_csv(cls, path) -> "TimeSeriesData":
        data, _ = _read_csv(path, "t,y")
        with _naming(str(path)):
            return cls(times=data[:, 0], values=data[:, 1])


# --------------------------------------------------------------------------
# forward simulation


@_frozen
class TruthPath:
    """A simulated ground-truth path sampled on ``times``; it holds
    read-only copies of the arrays it is given, which must be 1-d
    (`errors._vector`) and of one length."""

    times: np.ndarray
    S: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        cols = {name: _vector(f"truth path {name}", getattr(self, name))
                for name in ("times", "S", "q")}
        if len({a.size for a in cols.values()}) > 1:
            sizes = ", ".join(f"{name} {a.size}" for name, a in cols.items())
            raise ValidationError(f"truth path times, S and q must have one length, got {sizes}")
        _set(self, **{name: a.copy() for name, a in cols.items()})

    def to_csv(self, path):
        _write_csv(path, "t,S,q", np.column_stack([self.times, self.S, self.q]))


# steps of the simulation grid per lattice step
GRID_FACTOR = 20


def fine_grid(T: float, n: int, j: int) -> np.ndarray:
    """Simulation grid refining the n*j inference lattice by `GRID_FACTOR`
    over [0, T]; T must be positive and finite, n and j counts, and the
    grid one that NumPy can allocate (`errors._sized`)."""
    T, n, j = _positive("T", T), _count("n", n), _count("j", j)
    with _sized(n=n, j=j):
        return np.linspace(0.0, T, n * j * GRID_FACTOR + 1)


def _generator(seed) -> np.random.Generator:
    """The noise generator for ``seed``, by ``np.random.default_rng``. A
    number is a run's seed, checked by `errors._seed` (an integer that fits
    in an unsigned 64-bit word), as the CLI's and `HmcConfig`'s are; any
    other seed (None, a Generator, a SeedSequence, a list of ints) goes to
    NumPy as it is."""
    if isinstance(seed, numbers.Number):
        seed = _seed("seed", seed)
    return np.random.default_rng(seed)


def simulate_truth(
    params: PhysicalParams, signal: InputSignal, times, seed=None
) -> TruthPath:
    """Integrate the q-form SDE with Euler-Maruyama on the given grid.

    The path starts at q = 0, that is at S(0) = K r(0), the equilibrium
    scale. A grid that is not finite or does not increase, a signal that
    cannot be read on the whole grid (`_signal_over`) and a signal whose
    drift term (T / beta) r'/r is not finite there are each a
    ValidationError, raised before any noise is drawn, so a zero of r never
    reaches d ln r / dt. That check's array is the simulation's one read of
    r: the drift takes rho = (T / beta) r'/r + ... from it and
    `InputSignal.rate`, and S = (T gamma / beta^2) r e^{beta q}, with
    T gamma / beta^2 = K. Noise increments use a dedicated generator seeded
    by ``seed`` (`_generator`); ``seed`` may also be an existing numpy
    Generator. A path that leaves the double range, in q or in S, raises
    NonFiniteError at its first bad step.

    Each step's coefficient h beta / (T gamma), drift and noise are formed
    once, as arrays. ``np.fromiter`` drains `_euler_maruyama`, whose steps
    run on Python floats read through memoryviews of those arrays: the same
    IEEE operations, in the same order, as on NumPy scalars, at a fraction
    of their cost.
    """
    t = _vector("simulation grid", times)
    if t.size < 2 or not np.isfinite(t).all() or not np.all((h := np.diff(t)) > 0):
        raise ValidationError("simulation grid must be 1-d, finite and strictly increasing")
    theta = to_dimensionless(params)
    T = params.T
    r = _signal_over(signal, t)
    rng = _generator(seed)

    # rho(t) in continuous form, evaluated once on the whole grid. The
    # signal's term (T / beta) r'/r must be finite (sin of an overflowed
    # phase is NaN): refused before any noise is drawn. A step beyond the
    # double range leaves a non-finite path, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        drift = (T / theta.beta) * (signal.rate(t[:-1]) / r[:-1])
        bad = np.flatnonzero(~np.isfinite(drift))
        if bad.size:
            raise ValidationError(
                "input signal must give a finite drift wherever it is read:"
                f" (T/beta) r'/r = {drift[bad[0]]} at t = {t[bad[0]]}"
            )
        rho = drift + (2.0 + params.gamma) * theta.beta / (2.0 * params.gamma)
        drift0 = -h * rho / T
    noise = np.sqrt(h / T) * rng.standard_normal(h.size)
    # h is read: its buffer takes each step's coefficient h beta / (T gamma)
    h *= theta.beta / (T * params.gamma)
    q = np.fromiter(_euler_maruyama(h, drift0, noise, -theta.beta), dtype=float, count=t.size)
    # a non-finite q stays non-finite, so the first one is the bad step
    _check_finite(q, "simulated path")
    with np.errstate(over="ignore"):
        S = (T * params.gamma / theta.beta**2) * r * np.exp(theta.beta * q)
    _check_finite(S, "simulated S")
    return TruthPath(times=t, S=S, q=q)


def _euler_maruyama(coef, drift, noise, minus_beta):
    """q = 0, then q after each Euler-Maruyama step
    q + coef e^{-beta q} + drift + noise, one step per entry of the three
    step arrays. From the step where e^{-beta q} leaves the double range
    (``math.exp`` raises), every q is +inf."""
    exp = math.exp
    q = 0.0
    yield q
    steps = zip(memoryview(coef), memoryview(drift), memoryview(noise))
    try:
        for a, d, n in steps:
            q = q + a * exp(minus_beta * q) + d + n
            yield q
    except OverflowError:
        yield math.inf
        for _ in steps:
            yield math.inf


def _check_finite(x: np.ndarray, what: str):
    if not np.isfinite(x).all():
        raise NonFiniteError(what, indices=int(np.flatnonzero(~np.isfinite(x))[0]))


def generate_observations(
    path: TruthPath,
    obs_times,
    params: PhysicalParams,
    obs: ObservationModel,
    seed=None,
) -> TimeSeriesData:
    """Read the path at obs_times and apply log-normal noise:
    y_s = (S(t_s)/K) exp(sigma eps_s).

    The times must be a 1-d array (`errors._vector`), and each must lie on
    the path grid (1e-9 relative of the horizon); anything else is an error
    rather than an interpolation. ``seed`` is taken as by `simulate_truth`.
    """
    obs_times = _vector("observation times", obs_times)
    tol = 1e-9 * max(1.0, abs(path.times[-1]))
    # the first grid point at or after t - tol: t's own, where it has one
    idx = np.minimum(np.searchsorted(path.times, obs_times - tol), path.times.size - 1)
    off = np.abs(path.times[idx] - obs_times) > tol
    if off.any():
        raise ValidationError(f"observation times not on the simulation grid: {obs_times[off]}")
    rng = _generator(seed)
    eps = rng.standard_normal(obs_times.size)
    with np.errstate(over="ignore"):
        y = (path.S[idx] / params.K) * np.exp(obs.sigma * eps)
    # a reading beyond the double range, 0 or inf, is no observation
    out_of_range = ~(np.isfinite(y) & (y > 0))
    if out_of_range.any():
        raise NonFiniteError("simulated observations", indices=np.flatnonzero(out_of_range))
    return TimeSeriesData(times=obs_times, values=y)


# --------------------------------------------------------------------------
# CSV helpers shared by the container types

CSV_BLOCK_ROWS = 512


def _write_csv(path, header: str, rows: np.ndarray):
    """Write ``rows`` under the line ``header``, each entry ``%.17g`` (whole
    numbers print as integers), comma separated, by one ``%`` of a repeated
    row template per ``CSV_BLOCK_ROWS`` rows (about 250 KB of temporaries at
    the 8 columns of a chain)."""
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for a in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[a : a + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _read_csv(path, expected_header: str) -> tuple[np.ndarray, list[int]]:
    """The rows under the line ``expected_header`` as a 2-d float array, one
    column per header field, and the 1-based file line of each row. Empty
    and ``#`` comment lines are skipped, and so is the text after a ``#``:
    the rows are those of `_rows`, found in one scan of the file and parsed
    by one ``np.loadtxt``. No rows, or a row that is not one number per
    field, is a ValidationError that names the file and, for a bad row, its
    line."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # with or without a BOM
        header = fh.readline().strip()
        if header != expected_header:
            raise ValidationError(
                f"unexpected CSV header {header!r} in {path}; want {expected_header!r}"
            )
        rows = list(_rows(fh.read()))
    if not rows:
        raise ValidationError(f"no data rows in {path}")
    width = expected_header.count(",") + 1
    try:
        data = np.loadtxt([text for _, text in rows], delimiter=",", ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != width:
        raise next(_bad_rows(path, rows, width))
    return data, [number for number, _ in rows]


def _rows(body: str):
    """(1-based file line, text before any "#") of each line of ``body``,
    the lines after the header, that `_read_csv` reads as a row."""
    for number, line in enumerate(body.split("\n"), 2):
        text = line.split("#", 1)[0]
        if text:
            yield number, text


def _bad_rows(path, rows, width: int):
    """The errors, in file order, of the ``rows`` (the (file line, text)
    pairs of `_rows`) that are not ``width`` numbers; `_read_csv` raises
    the first, so only a failed read pays for this scan. Every read that
    ``np.loadtxt`` refuses has one: with no quote character and the
    comments gone, loadtxt splits a row at each "," as the scan does, and
    reads a cell by the rule of the scan's check."""
    for number, text in rows:
        cells = text.split(",")
        if len(cells) != width:
            yield ValidationError(f"{path}, line {number}: want {width} columns, got {len(cells)}")
        for cell in cells:
            try:  # loadtxt, unlike float, takes no "_" and no non-ASCII digit
                float(cell.strip().replace("_", "!").encode("ascii"))
            except ValueError:
                yield ValidationError(f"{path}, line {number}: {cell.strip()!r} is not a number")
