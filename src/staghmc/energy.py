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
rho = L / beta + c, c = (2 + gamma) beta / (2 gamma), and rhodot = Ldot / beta.
No table of the plan or of the kernel's workspace is larger than O(N).
The staging terms of h_N are each one product of the contiguous squares of
``x[:-1]`` with a flat layout table that is zero at the measurement beads.
One private kernel, `_hprime`, then makes the single pass over the path:
q from u by the staging inverse, E = exp(-beta q) and the residual
A = rho - (beta/gamma) E, formed in place as L / beta + c - w with
w = (beta/gamma) E. It never builds rho, rhodot or their derivatives as
arrays, only the sums they enter, folded by linearity:
A . drho/dbeta = (c sum A - A . L / beta) / beta and qs . (T rhodot) =
(T / beta) qs . Ldot, with rho itself needed only at the two end beads.
The plain sums of the rows [A, w, Z] come out of one reduction, and A . L
and qs . Ldot out of one dot product each. From these the kernel forms
the potential of H' = h_n + h_1 (for `h_total`), and on a gradient pass
also its exact analytic gradient w.r.t. u and theta, with dH'/dq chained
through the staging transpose and the force of the boundary springs, one
per segment, as a stencil on the difference row d = u_b[1:] - u_b[:-1] of
the measurement beads (for `grad_hprime` and the trajectory). Both depend
on positions alone: a momentum refresh fixes the state's position-only
energy (`Potential`) and its force, so the sampler carries both from one
iteration to the next, adds the new kinetic terms with `_refreshed`, and
takes the proposal's potential and force from the trajectory's last
gradient pass.

At the benchmark size (N = 301) most of a kernel call is dispatch, not
arithmetic, so the kernel keeps both small:

* One set of kernel rows. Each context allocates one workspace
  (`_Scratch`) once, and every array operation of `_hprime` writes into
  it with ``out=``, the staging maps included. Its rows u, q, g_q and g_u
  are one `lattice._StagingRows`, which builds once every view the two
  staging products take of them. The kernel reads its beads from the row
  u: `h_total` and `grad_hprime` copy a state's beads in, and the
  trajectory copies them in once and moves them there for all its P
  gradients. The views u_b = ``u[::j]``, ``u_b[1:]`` and ``u_b[:-1]`` are
  built once too; in-place writes to a row show through its views, so
  nothing is ever rebuilt or invalidated. A context is therefore not safe
  to share between threads; parallel chains run in processes.
* One boundary stage per pass. `_boundary_stage` fills the rows that
  depend on theta and the measurement beads u_b = u[::j] alone: L / beta
  + c and Ldot dt / beta, the data residuals and their force, the
  difference row d and the spring force coup (d_{s-1} - d_s) made from it,
  with one neighbour at each end and coup = T / (j dt); it returns the
  position part of h_n. It keeps nothing between passes: every gradient
  of a trajectory follows a drift of theta and u_b, so a stage kept for
  the next pass would never be reused.
* Rows a call overwrites. Every kernel call rewrites q, E, the boundary
  rows, the rows [A, w, Z] and the sums; a gradient call also rewrites
  g_q, the adjoint's window product and ``g_u``. The trajectory
  (`integrator`) calls the kernel directly: it gets g_u as the workspace
  row itself, valid until the next call, and g_theta as two Python floats.
  `grad_hprime` and `h_total` are thin wrappers over the same kernel that
  check the state's size, load its beads, and return fresh arrays and
  floats.
* Python-float scalars. beta, gamma, the end values of q and E and the
  row of sums each leave NumPy in one ``tolist()``, and the scalar
  algebra runs on Python floats, a tenth of the cost of a NumPy scalar or
  two-entry array operation and the same IEEE double arithmetic, so the
  results are bit-identical. Python floats raise where NumPy saturates,
  though: ZeroDivisionError on a zero divisor and OverflowError from
  ``**``. So every divisor is beta, gamma or 2 gamma (non-zero after the
  domain check) or a NumPy scalar: sigma^2, and gamma^2, which stays a
  NumPy scalar power. As ``gamma * gamma`` it would differ from the libm
  ``pow`` in the last bit for some gamma; as a Python-float power it
  underflows to a 0.0 divisor (at theta = (1, 1e-200)) or raises
  OverflowError (for gamma above about 1.3e154).
* One saturation policy. `_saturating` is one module-level
  ``np.errstate`` that lets overflow, invalid operations and division by
  zero saturate to inf and NaN, and underflow round to 0, silently. It
  decorates the five public entry points, `h_N`, `h_total`,
  `grad_hprime`, `integrator.trotter_propagate` and
  `sampler.hmc_iteration`, so the kernel and every helper they call run
  under it; the caller's state comes back on return, also after a raise.
  NumPy (>= 2.0) keeps each decorated call's token apart, so the calls
  may nest and run in threads.

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

from .errors import DomainError, NonFiniteError
from .lattice import (  # noqa: F401 -- the public maps stay bound here for tracers
    LatticeLayout,
    MassConfig,
    PolymerState,
    _check_data,
    _check_size,
    _StagingRows,
    staging_adjoint,
    staging_inverse,
)
from .model import InputSignal, ObservationModel, TimeSeriesData

__all__ = [
    "PathContext",
    "Potential",
    "EnergyBreakdown",
    "Gradient",
    "h_N",
    "h_total",
    "grad_hprime",
]

EXP_CLAMP = 700.0

# the one saturation policy, a decorator of the public entry points; it
# sets underflow too, so a caller's np.errstate(all="raise") cannot turn an
# exp(-beta q) that rounds to 0 into a FloatingPointError
_saturating = np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")


@dataclass(frozen=True)
class PathContext:
    """The frozen plan of one inference problem (lattice, input, data).

    Holds, as read-only length-N arrays, the log-input increments
    L_i = T ln(r_i / r_{i-1}) / dt (slot 0 is padding) and their difference
    Ldot_i = (L_i - L_{i-1}) / dt (slots 0 and 1 are padding: the i = 2 term
    carries no rate of change), so rho_i = L_i / beta + (2 + gamma) beta /
    (2 gamma) and rhodot_i = Ldot_i / beta, with ``Ls`` and ``Ldots`` their
    views over beads i = 2..N; and the log data residuals ln(y_s / r_s).
    The boundary-to-boundary springs need no table: the kernel applies
    them as a stencil on the measurement beads.

    The context also owns the private, mutable workspace of the kernel
    (`_Scratch`), allocated once, so a context must not be shared by
    threads that evaluate energies or gradients concurrently; parallel
    chains run in separate processes, each with its own context.
    """

    layout: LatticeLayout
    signal: InputSignal
    data: TimeSeriesData
    obs: ObservationModel
    L: np.ndarray = field(init=False, repr=False)
    Ldot: np.ndarray = field(init=False, repr=False)
    lnyr: np.ndarray = field(init=False, repr=False)
    Ls: np.ndarray = field(init=False, repr=False)
    Ldots: np.ndarray = field(init=False, repr=False)
    _scratch: "_Scratch" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lay = self.layout
        _check_data(self.data, lay)
        r = np.asarray(self.signal.value(lay.times), dtype=float)
        if np.any(r <= 0):
            raise DomainError("input signal must be strictly positive on the lattice")
        L = np.zeros(lay.N)
        L[1:] = (lay.T / lay.dt) * np.diff(np.log(r))
        Ldot = np.zeros(lay.N)
        Ldot[2:] = (L[2:] - L[1:-1]) / lay.dt
        lnyr = np.log(self.data.values / r[:: lay.j])
        for name, value in (("L", L), ("Ldot", Ldot), ("lnyr", lnyr)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "Ls", L[1:])
        object.__setattr__(self, "Ldots", Ldot[1:])
        object.__setattr__(
            self, "_scratch", _Scratch(lay, float(L[1]), float(L[-1]), self.obs.sigma)
        )

    def __reduce__(self):
        # rebuilt from its inputs: pickled views of the workspace would come
        # back as copies, not views of its rows
        return PathContext, (self.layout, self.signal, self.data, self.obs)


class _Scratch:
    """The workspace of `_hprime` for one `PathContext`, allocated once.

    The kernel rows ``rows`` (a `lattice._StagingRows`): u, which a caller
    loads with a state's beads or a trajectory moves in place, and q, g_q
    and g_u, with every view the staging maps take of them. Views of these
    rows built once: ``q_ends``, ``q_tail``, ``gq_tail``, ``g_ub``, the
    measurement beads ``u_b`` = u[::j] and their shifted views ``ub_next``
    = u_b[1:] and ``ub_prev`` = u_b[:-1]. Per-call rows: ``E`` (with
    ``E_tail`` and ``E_ends``), the (3, N-1) rows ``work`` = [A, w, Z],
    and their length-3 row of ``sums``.

    The boundary rows, which `_boundary_stage` fills on every pass: ``Lc``
    = Ls / beta + c and ``Ld`` = Ldots dt / beta over beads i = 2..N, the
    rows ``resid`` (the data residuals), ``data_force`` and ``spring`` over
    the measurement beads, and the length-n difference row ``d_b`` =
    u_b[1:] - u_b[:-1]. The spring force is coup (d_{s-1} - d_s) with the
    stiffness ``coup`` = T / (j dt): a length-(n+2) row holds coup d in its
    view ``pad_mid``, between two zeros that are never written, and
    ``spring`` is its left view ``pad_prev`` minus its right view
    ``pad_next``, so the end beads feel one neighbour each.

    Constants of the plan as Python floats, and sigma^2 as a NumPy scalar,
    so that a division by an underflowed sigma^2 saturates instead of
    raising.
    """

    __slots__ = (
        "T", "dt", "dt_T", "coup", "L0", "LN", "sigma2",
        "rows", "q_ends", "q_tail", "gq_tail", "g_ub", "u_b", "ub_next", "ub_prev",
        "E", "E_tail", "E_ends", "work", "A", "w", "Z", "sums",
        "Lc", "Ld", "resid", "data_force", "d_b", "pad_mid", "pad_prev", "pad_next",
        "spring",
    )

    def __init__(self, lay: LatticeLayout, L0: float, LN: float, sigma: float):
        self.T, self.dt = lay.T, lay.dt
        self.dt_T = lay.dt / lay.T
        self.coup = lay.T / (lay.j * lay.dt)
        self.L0, self.LN = L0, LN
        self.sigma2 = np.float64(sigma**2)
        rows = self.rows = _StagingRows(lay)
        self.q_ends, self.q_tail = rows.q[:: lay.N - 1], rows.q[1:]
        self.gq_tail = rows.g_q[1:]
        self.g_ub = rows.g_u[:: lay.j]
        ub = self.u_b = rows.u[:: lay.j]
        self.ub_next, self.ub_prev = ub[1:], ub[:-1]
        self.E = np.empty(lay.N)
        self.E_tail, self.E_ends = self.E[1:], self.E[:: lay.N - 1]
        self.work = np.empty((3, lay.N - 1))
        self.A, self.w, self.Z = self.work
        self.sums = np.empty(3)
        self.Lc = np.empty(lay.N - 1)
        self.Ld = np.empty(lay.N - 1)
        self.resid = np.empty(lay.n + 1)
        self.data_force = np.empty(lay.n + 1)
        self.d_b = np.empty(lay.n)
        pad = np.zeros(lay.n + 2)
        self.pad_mid, self.pad_prev, self.pad_next = pad[1:-1], pad[:-1], pad[1:]
        self.spring = np.empty(lay.n + 1)


class Potential(NamedTuple):
    """The position-only parts of h_N, h_n and h_1: what a momentum refresh
    leaves unchanged."""

    h_N: float
    h_n: float
    h_1: float


class EnergyBreakdown(NamedTuple):
    """The three pieces of the total energy, their sum, and the state's
    `Potential`."""

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


def _harmonic(state: PolymerState, layout: LatticeLayout) -> float:
    """Position part of h_N: 0.5 sum T k u^2 / (dt (k-1)) over staging beads."""
    return 0.5 * float(np.square(state.u[:-1]).dot(layout.flat_stiffness))


def _staging_kinetic(state: PolymerState, masses: MassConfig, layout: LatticeLayout) -> float:
    """Momentum part of h_N: sum dt p^2 / (2 m') over staging beads."""
    return (0.5 * layout.dt / masses.m_prime) * float(
        np.square(state.p[:-1]).dot(layout.flat_staging)
    )


@_saturating  # a non-finite measurement bead meets its 0 weight as inf * 0 = NaN
def h_N(state: PolymerState, masses: MassConfig, layout: LatticeLayout) -> float:
    """Fast harmonic energy, staging beads only (zero when j = 1)."""
    _check_size(state.u, layout, "u")
    return _staging_kinetic(state, masses, layout) + _harmonic(state, layout)


def _refreshed(
    potential: Potential, state: PolymerState, masses: MassConfig, layout: LatticeLayout
) -> EnergyBreakdown:
    """All three pieces and their sum, from the state's known ``potential``
    plus the kinetic terms of its momenta. Runs under a caller's
    `_saturating`.

    Bit-identical to ``h_total(state, ...)`` when ``potential`` is the
    ``.potential`` of an ``h_total`` of the same positions and parameters.
    """
    pb = state.p[:: layout.j]
    pa, pg = state.pi.tolist()
    ma, mg = masses.m_alpha
    h_fast = _staging_kinetic(state, masses, layout) + potential.h_N
    h_bound = float(pb.dot(pb)) / (2.0 * masses.M) + potential.h_n
    h_slow = (pa * pa / (2.0 * ma) + pg * pg / (2.0 * mg)) + potential.h_1
    return EnergyBreakdown(
        h_N=h_fast, h_n=h_bound, h_1=h_slow, total=h_fast + h_bound + h_slow,
        potential=potential,
    )


def _load(state: PolymerState, ctx: PathContext) -> list:
    """Check the state's size, copy its beads into the kernel's row u, and
    return [beta, gamma] as Python floats."""
    _check_size(state.u, ctx.layout, "u")
    np.copyto(ctx._scratch.rows.u, state.u)
    return state.theta.tolist()


@_saturating
def h_total(state: PolymerState, ctx: PathContext, masses: MassConfig) -> EnergyBreakdown:
    """All three pieces and their sum."""
    h_n, h_1 = _hprime(*_load(state, ctx), ctx, False)
    potential = Potential(_harmonic(state, ctx.layout), h_n, h_1)
    return _refreshed(potential, state, masses, ctx.layout)


@_saturating
def grad_hprime(state: PolymerState, ctx: PathContext) -> Gradient:
    """Analytic gradient of H' = h_n + h_1 w.r.t. (u, theta).

    The path-action part is differentiated per bead position q and mapped to
    staging coordinates through the transpose of the linear staging inverse;
    the theta derivatives include the beta- and gamma-dependence of rho.
    Raises NonFiniteError if any component is NaN or infinite.
    """
    _, _, g_u, g_beta, g_gamma = _hprime(*_load(state, ctx), ctx, True)
    return Gradient(g_u.copy(), np.array([g_beta, g_gamma]))


def _boundary_stage(s: _Scratch, ctx: PathContext, beta: float, c: float) -> float:
    """Fill the boundary rows of ``s`` (see `_Scratch`): every row of the
    kernel that depends on theta and the measurement beads ``s.u_b`` of the
    row u alone. Returns the position part of h_n: the data term plus the
    springs."""
    np.divide(ctx.Ls, beta, out=s.Lc)
    s.Lc += c
    np.multiply(ctx.Ldots, s.dt / beta, out=s.Ld)
    ub, resid, d = s.u_b, s.resid, s.d_b
    np.multiply(ub, beta, out=resid)
    np.subtract(ctx.lnyr, resid, out=resid)
    np.multiply(resid, beta / s.sigma2, out=s.data_force)
    # the springs: coup (d_{s-1} - d_s), with the zero ends of the pad
    np.subtract(s.ub_next, s.ub_prev, out=d)
    np.multiply(d, s.coup, out=s.pad_mid)
    np.subtract(s.pad_prev, s.pad_next, out=s.spring)
    return float(
        float(resid.dot(resid)) / (2.0 * s.sigma2) + 0.5 * s.coup * float(d.dot(d))
    )


def _hprime(beta: float, gamma: float, ctx: PathContext, gradient: bool):
    """The one pass over the path behind `h_total`, `grad_hprime` and the
    trajectory.

    The N beads are the workspace row ``rows.u``, loaded by the caller;
    beta and gamma are Python floats. Returns the position parts (h_n, h_1)
    of the state's `Potential`, and with ``gradient`` also the gradient of
    H', as the 5-tuple (h_n, h_1, g_u, g_beta, g_gamma): g_u is the
    workspace row ``g_u``, valid until the next call on the context, and the
    theta components are Python floats. Both modes compute (h_n, h_1) by the
    same operations, so a gradient pass gives the potential of `h_total`
    bit for bit. Rows of the workspace run over beads i = 2..N (slots
    1..N-1); rho, rhodot and their derivatives are never built as arrays,
    only the sums they enter (see the module docstring). Every array
    operation writes into the context's scratch. Runs under a caller's
    `_saturating`.
    """
    s = ctx._scratch
    # Python floats: every division below is by beta, gamma, 2 gamma or a
    # NumPy scalar (sigma^2, gamma^2), so none can raise ZeroDivisionError
    if beta == 0.0 or gamma == 0.0:
        raise DomainError("beta = 0 or gamma = 0 is outside the model domain")
    bg = beta / gamma
    c = (2.0 + gamma) * beta / (2.0 * gamma)
    rho0 = s.L0 / beta + c  # rho at beads 2 and N
    rhoN = s.LN / beta + c
    h_n = _boundary_stage(s, ctx, beta, c)
    A, w, Z, E, rows = s.A, s.w, s.Z, s.E, s.rows
    rows.inverse()
    np.multiply(rows.q, -beta, out=E)
    np.minimum(E, EXP_CLAMP, out=E)
    np.exp(E, out=E)
    q0, qN = s.q_ends.tolist()
    E0, EN = s.E_ends.tolist()
    qs = s.q_tail
    np.multiply(s.E_tail, bg, out=w)
    np.subtract(s.Lc, w, out=A)
    q_Ldot = float(qs.dot(ctx.Ldots))  # qs . (T rhodot) = (T / beta) q_Ldot
    T = s.T
    if gradient:
        # d/dq of the path action; the row sums of [A, w, Z] equal the
        # reductions of each row alone, so w_sum is that of the potential
        np.add(A, 0.5 * beta, out=Z)
        Z *= w
        A_sum, w_sum, Z_sum = np.add.reduce(s.work, axis=1, out=s.sums).tolist()
    else:
        w_sum = float(np.add.reduce(w))
    body = 0.5 * float(A.dot(A)) - (0.5 * beta) * w_sum - (T / beta) * q_Ldot
    edge = (EN - E0) / gamma + qN * rhoN - q0 * rho0
    h_1 = s.dt_T * body + edge
    if not gradient:
        return h_n, h_1

    # chained through the staging transpose
    A_L = float(A.dot(ctx.Ls))
    Z_q = float(Z.dot(qs))
    g_q = rows.g_q
    np.multiply(Z, beta * s.dt_T, out=s.gq_tail)
    s.gq_tail -= s.Ld
    g_q[0] = bg * E0 - rho0
    g_q[-1] += rhoN - bg * EN
    g_u = rows.adjoint()
    # direct boundary terms of h_n: the data residuals and the springs
    gb = s.g_ub
    gb -= s.data_force
    gb += s.spring

    # theta gradient; d rho / d beta = (c - L / beta) / beta, so
    # A . drho = (c sum A - A . L / beta) / beta; d rho / d gamma
    # = -beta / gamma^2; d(T rhodot) / d beta = -T rhodot / beta
    g_beta = s.dt_T * (
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
    g_beta -= float(float(s.resid.dot(s.u_b)) / s.sigma2)
    # a NumPy scalar power: libm pow (gamma * gamma differs in the last bit
    # for some gamma), saturating where a Python float power would raise
    # OverflowError or underflow to a 0.0 divisor
    gamma2 = np.float64(gamma) ** 2
    g_gamma = s.dt_T * (Z_sum / gamma - float(beta / gamma2) * A_sum)
    g_gamma = float(g_gamma + (E0 - EN + beta * (q0 - qN)) / gamma2)
    # one dot product proves g_u finite; only a failure (a non-finite entry,
    # or an overflow of finite ones) pays for the scan
    if not math.isfinite(g_u.dot(g_u)):
        bad = np.flatnonzero(~np.isfinite(g_u))
        if bad.size:
            raise NonFiniteError("gradient w.r.t. u", indices=bad)
    if not (math.isfinite(g_beta) and math.isfinite(g_gamma)):
        g_theta = np.array([g_beta, g_gamma])
        raise NonFiniteError(
            "gradient w.r.t. theta", indices=np.flatnonzero(~np.isfinite(g_theta))
        )
    return h_n, h_1, g_u, g_beta, g_gamma
