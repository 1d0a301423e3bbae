"""Hamiltonian of the discretized inference problem, split by time scale.

The total energy over state (u, theta, p, pi) decomposes as

    h_total = h_N + h_n + h_1

* ``h_N``: the fast part, one independent harmonic oscillator per staging
  bead: 0.5 [dt p^2 / m' + T k u^2 / (dt (k-1))] for staging order k = 2..j.
  Solved exactly by the integrator's rotation step.
* ``h_n``: the measurement-bead part: their kinetic energy, the data
  likelihood sum (ln(y_s / r_s) - beta u_s)^2 / (2 sigma^2), and the
  boundary-to-boundary spring (T / (2 j dt)) (u_s - u_{s+1})^2.
* ``h_1``: the slow part: parameter kinetic energy pi^2 / (2 m_alpha) plus the
  discretized path action

      (dt/T) sum_{i=2..N} [ 0.5 (rho_i - (beta/gamma) e^{-beta q_i})^2
                            - (beta^2 / (2 gamma)) e^{-beta q_i}
                            - T q_i rhodot_i ]
      + (1/gamma) e^{-beta q_N} + q_N rho_N
      - (1/gamma) e^{-beta q_1} - q_1 rho_2

  (1-based bead indices in the formula; q_1 pairs with rho_2 because rho
  starts at i = 2, and the i = 2 sum term carries rhodot = 0).

Masses follow one convention everywhere: a bead or parameter with effective
mass m has kinetic energy p^2 / (2m), is refreshed from N(0, m), and drifts
as du = dtau p / m. Measurement beads use M as the effective mass directly
(matching the drift form of the slow update), staging beads use m'/dt
(matching the printed oscillator form above), parameters use m_alpha.

Everything that does not depend on the state is frozen once: the lattice
tables on `LatticeLayout`, and on `PathContext` (the plan of one inference
problem) the log-input increments L and their difference Ldot, with
rho = L / beta + c, c = (2 + gamma) beta / (2 gamma), and rhodot = Ldot / beta,
plus the plan columns [L, Ldot, 1] over beads i = 2..N and the boundary
springs as one coupling Laplacian. The staging terms of h_N are each one
product of the contiguous squares of ``x[:-1]`` with a flat layout table
that is zero at the measurement beads. One private kernel,
`_hprime`, then makes the single pass over the path: q = staging_inverse(u),
E = exp(-beta q) and the residual A = rho - (beta/gamma) E, formed in place
as L / beta + c - w with w = (beta/gamma) E. It never builds rho, rhodot or
their derivatives as arrays, only the sums they enter, folded by linearity:
A . drho/dbeta = (c sum A - A . L / beta) / beta and qs . (T rhodot) =
(T / beta) qs . Ldot, with rho itself needed only at the two end beads.
Every sum of a per-call row with a static vector comes out of one matrix
product, the rows [A, w, Z] times the plan columns [L, Ldot, 1]. From these
the kernel forms either the potential of H' = h_n + h_1 (for `h_total`) or
its exact analytic gradient w.r.t. u and theta, with dH'/dq chained through
the staging transpose and the boundary springs' force as the product of
the Laplacian with the measurement beads (for `grad_hprime`). A state's
position-only energy
(`Potential`) is fixed by a momentum refresh, so the sampler carries it from
one iteration to the next and adds the new kinetic terms with `h_refreshed`.

Exponentials are evaluated with their argument clamped at +700 so the
exponential itself cannot overflow; a runaway proposal yields a huge
(possibly +inf once squared, never NaN) energy that the sampler rejects
instead of crashing. Inside the clamped region the analytic gradient no
longer tracks the (flat) clamped energy; such states are rejected anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteError, ValidationError
from .lattice import LatticeLayout, MassConfig, PolymerState, staging_adjoint, staging_inverse
from .model import InputSignal, ObservationModel, TimeSeriesData

__all__ = [
    "PathContext",
    "Potential",
    "EnergyBreakdown",
    "Gradient",
    "h_N",
    "h_total",
    "h_refreshed",
    "grad_hprime",
]

EXP_CLAMP = 700.0


@dataclass(frozen=True)
class PathContext:
    """The frozen plan of one inference problem (lattice, input, data).

    Holds, as read-only length-N arrays, the log-input increments
    L_i = T ln(r_i / r_{i-1}) / dt (slot 0 is padding) and their difference
    Ldot_i = (L_i - L_{i-1}) / dt (slots 0 and 1 are padding: the i = 2 term
    carries no rate of change), so rho_i = L_i / beta + (2 + gamma) beta /
    (2 gamma) and rhodot_i = Ldot_i / beta, with ``Ls`` and ``Ldots`` their
    views over beads i = 2..N; the log data residuals ln(y_s / r_s);
    ``sum_cols``, the (N-1, 3) columns [L, Ldot, 1] over beads i = 2..N,
    against which one matrix product takes every sum of a per-call row with
    a static vector; and ``coup_lap``, the (n+1, n+1) Laplacian of the
    boundary-to-boundary springs times their stiffness T / (j dt), so that
    their force on the measurement beads u_b is ``coup_lap @ u_b``.
    """

    layout: LatticeLayout
    signal: InputSignal
    data: TimeSeriesData
    obs: ObservationModel
    L: np.ndarray = field(init=False, repr=False)
    Ldot: np.ndarray = field(init=False, repr=False)
    lnyr: np.ndarray = field(init=False, repr=False)
    sum_cols: np.ndarray = field(init=False, repr=False)
    Ls: np.ndarray = field(init=False, repr=False)
    Ldots: np.ndarray = field(init=False, repr=False)
    coup_lap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lay = self.layout
        if self.data.n_segments != lay.n:
            raise ValidationError(
                f"data has {self.data.n_segments} segments, layout expects {lay.n}"
            )
        if abs(self.data.horizon - lay.T) > 1e-9 * lay.T:
            raise ValidationError(
                f"data horizon {self.data.horizon} != lattice horizon {lay.T}"
            )
        r = np.asarray(self.signal.value(lay.times), dtype=float)
        if np.any(r <= 0):
            raise DomainError("input signal must be strictly positive on the lattice")
        L = np.zeros(lay.N)
        L[1:] = (lay.T / lay.dt) * np.diff(np.log(r))
        Ldot = np.zeros(lay.N)
        Ldot[2:] = (L[2:] - L[1:-1]) / lay.dt
        lnyr = np.log(self.data.values / r[:: lay.j])
        sum_cols = np.ones((lay.N - 1, 3))
        sum_cols[:, 0] = L[1:]
        sum_cols[:, 1] = Ldot[1:]
        lap = np.zeros((lay.n + 1, lay.n + 1))
        ends = np.arange(lay.n)
        lap[ends, ends + 1] = lap[ends + 1, ends] = -1.0
        lap[ends, ends] += 1.0
        lap[ends + 1, ends + 1] += 1.0
        tables = (
            ("L", L), ("Ldot", Ldot), ("lnyr", lnyr), ("sum_cols", sum_cols),
            ("coup_lap", (lay.T / (lay.j * lay.dt)) * lap),
        )
        for name, value in tables:
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "Ls", L[1:])
        object.__setattr__(self, "Ldots", Ldot[1:])


class Potential(NamedTuple):
    """The position-only parts of h_N, h_n and h_1: what a momentum refresh
    leaves unchanged."""

    h_N: float
    h_n: float
    h_1: float


@dataclass(frozen=True)
class EnergyBreakdown:
    h_N: float
    h_n: float
    h_1: float
    total: float
    potential: Potential


class Gradient(NamedTuple):
    """Gradient of H' = h_n + h_1: g_u over all beads, g_theta = (d/dbeta, d/dgamma).

    Both arrays are fresh on every call; callers may scale them in place."""

    g_u: np.ndarray
    g_theta: np.ndarray


def _check_size(state: PolymerState, layout: LatticeLayout):
    if state.u.size != layout.N:
        raise ValidationError(f"state has {state.u.size} beads, layout expects {layout.N}")


def _harmonic(state: PolymerState, layout: LatticeLayout) -> float:
    """Position part of h_N: 0.5 sum T k u^2 / (dt (k-1)) over staging beads."""
    return 0.5 * float(np.square(state.u[:-1]) @ layout.flat_stiffness)


def _staging_kinetic(state: PolymerState, masses: MassConfig, layout: LatticeLayout) -> float:
    """Momentum part of h_N: sum dt p^2 / (2 m') over staging beads."""
    return (0.5 * layout.dt / masses.m_prime) * float(
        np.square(state.p[:-1]) @ layout.flat_staging
    )


def h_N(state: PolymerState, masses: MassConfig, layout: LatticeLayout) -> float:
    """Fast harmonic energy, staging beads only (zero when j = 1)."""
    _check_size(state, layout)
    # a non-finite measurement bead meets its 0 weight as inf * 0 = NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return _staging_kinetic(state, masses, layout) + _harmonic(state, layout)


def h_refreshed(
    potential: Potential, state: PolymerState, masses: MassConfig, layout: LatticeLayout
) -> EnergyBreakdown:
    """All three pieces and their sum, from the state's known ``potential``
    plus the kinetic terms of its momenta.

    Bit-identical to ``h_total(state, ...)`` when ``potential`` is the
    ``.potential`` of an ``h_total`` of the same positions and parameters.
    """
    pb = state.p[:: layout.j]
    pa, pg = state.pi
    ma, mg = masses.m_alpha
    with np.errstate(over="ignore", invalid="ignore"):
        h_fast = _staging_kinetic(state, masses, layout) + potential.h_N
        h_bound = float(pb @ pb) / (2.0 * masses.M) + potential.h_n
        h_slow = float(pa * pa / (2.0 * ma) + pg * pg / (2.0 * mg)) + potential.h_1
    return EnergyBreakdown(
        h_N=h_fast, h_n=h_bound, h_1=h_slow, total=h_fast + h_bound + h_slow,
        potential=potential,
    )


def h_total(state: PolymerState, ctx: PathContext, masses: MassConfig) -> EnergyBreakdown:
    """All three pieces and their sum."""
    return h_refreshed(_hprime(state, ctx, gradient=False), state, masses, ctx.layout)


def grad_hprime(state: PolymerState, ctx: PathContext) -> Gradient:
    """Analytic gradient of H' = h_n + h_1 w.r.t. (u, theta).

    The path-action part is differentiated per bead position q and mapped to
    staging coordinates through the transpose of the linear staging inverse;
    the theta derivatives include the beta- and gamma-dependence of rho.
    Raises NonFiniteError if any component is NaN or infinite.
    """
    return _hprime(state, ctx, gradient=True)


# runaway states saturate to +-inf or NaN (never a silently wrong finite
# value): the energy is rejected by the Metropolis test, the gradient raises
# NonFiniteError; as a decorator, errstate costs half of a with-block per call
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _hprime(state: PolymerState, ctx: PathContext, gradient: bool):
    """The one pass over the path behind `h_total` and `grad_hprime`.

    Returns the state's `Potential`, or with ``gradient`` the `Gradient` of
    H'. Rows of the workspace run over beads i = 2..N (slots 1..N-1); rho,
    rhodot and their derivatives are never built as arrays, only the sums
    they enter (see the module docstring).
    """
    lay = ctx.layout
    _check_size(state, lay)
    # numpy scalars on purpose: Python floats would raise on overflow or a
    # zero division instead of saturating like the arrays do
    beta, gamma = state.theta
    if beta == 0.0 or gamma == 0.0:
        raise DomainError("beta = 0 or gamma = 0 is outside the model domain")
    dt, T, j = lay.dt, lay.T, lay.j
    sigma2 = ctx.obs.sigma**2
    Ls, Ldots = ctx.Ls, ctx.Ldots
    q = staging_inverse(state.u, lay)
    E = np.multiply(q, -beta)
    np.minimum(E, EXP_CLAMP, out=E)
    np.exp(E, out=E)
    q0, qN, E0, EN = q[0], q[-1], E[0], E[-1]
    qs = q[1:]
    bg = beta / gamma
    c = (2.0 + gamma) * beta / (2.0 * gamma)
    rho0 = Ls[0] / beta + c  # rho at beads 2 and N
    rhoN = Ls[-1] / beta + c
    work = np.empty((3, lay.N - 1))
    A, w, Z = work
    np.multiply(E[1:], bg, out=w)
    np.divide(Ls, beta, out=A)
    A += c
    A -= w
    q_Ldot = qs @ Ldots  # qs . (T rhodot) = (T / beta) q_Ldot
    ub = state.u[::j]
    resid = ctx.lnyr - beta * ub
    if not gradient:
        d = ub[1:] - ub[:-1]
        body = 0.5 * (A @ A) - (0.5 * beta) * np.add.reduce(w) - (T / beta) * q_Ldot
        edge = (EN - E0) / gamma + qN * rhoN - q0 * rho0
        h_bound = (resid @ resid) / (2.0 * sigma2) + 0.5 * (T / (j * dt)) * (d @ d)
        return Potential(
            _harmonic(state, lay), float(h_bound), float((dt / T) * body + edge)
        )

    # d/dq of the path action, then chained through the staging transpose
    np.add(A, 0.5 * beta, out=Z)
    Z *= w
    sums = work @ ctx.sum_cols
    A_L, A_sum, w_sum, Z_sum = sums[0, 0], sums[0, 2], sums[1, 2], sums[2, 2]
    Z_q = Z @ qs
    g_q = np.empty(lay.N)
    np.multiply(Z, beta * (dt / T), out=g_q[1:])
    g_q[1:] -= Ldots * (dt / beta)
    g_q[0] = bg * E0 - rho0
    g_q[-1] += rhoN - bg * EN
    g_u = staging_adjoint(g_q, lay)
    # direct boundary terms of h_n: the data residuals and the springs
    gb = g_u[::j]
    gb -= (beta / sigma2) * resid
    gb += ctx.coup_lap @ ub

    # theta gradient; d rho / d beta = (c - L / beta) / beta, so
    # A . drho = (c sum A - A . L / beta) / beta; d rho / d gamma
    # = -beta / gamma^2; d(T rhodot) / d beta = -T rhodot / beta
    g_beta = (dt / T) * (
        (c * A_sum - A_L / beta) / beta
        + Z_q
        - Z_sum / beta
        - 0.5 * w_sum
        + (T / beta) * q_Ldot / beta
    )
    g_beta += (
        (q0 * E0 - qN * EN) / gamma
        + qN * ((2.0 * c - rhoN) / beta)
        - q0 * ((2.0 * c - rho0) / beta)
    )
    g_beta -= (resid @ ub) / sigma2
    g_gamma = (dt / T) * (Z_sum / gamma - (beta / gamma**2) * A_sum)
    g_gamma += (E0 - EN + beta * (q0 - qN)) / gamma**2
    # one reduction proves g_u finite; only a failure pays for the scan
    if not math.isfinite(np.add.reduce(g_u)):
        bad = np.flatnonzero(~np.isfinite(g_u))
        if bad.size:
            raise NonFiniteError("gradient w.r.t. u", indices=bad)
    g_theta = np.array([g_beta, g_gamma])
    if not (math.isfinite(g_beta) and math.isfinite(g_gamma)):
        raise NonFiniteError(
            "gradient w.r.t. theta", indices=np.flatnonzero(~np.isfinite(g_theta))
        )
    return Gradient(g_u, g_theta)
