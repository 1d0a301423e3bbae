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

Everything that does not depend on the state is built once: the lattice
tables on `LatticeLayout`, and the input tables of one problem on
`InferenceProblem`. One private kernel, `_hprime`, makes the single pass
over the path behind `h_total`, `grad_hprime` and the trajectory, in a
workspace (`PathContext`). `_load` copies a state in, `_end_energy`, the
one scorer, adds up its energy there from the (h_n, h_1) of a kernel pass,
for `h_total` and both ends of an iteration alike, and `_proposal` copies a
state out for `trotter_propagate`. Those two parts of the potential and
the force depend on positions alone, so the sampler keeps them with the
chain's beads: a chain (`sampler.Chain`) lives in two workspaces, and its
iterations copy nothing out of them.

The kernel is also the package's one rule on theta's domain: the model is
defined only for beta > 0 and gamma > 0, and a pass anywhere else raises
DomainError, so `h_total`, `grad_hprime`, every step of a trajectory and a
chain's start refuse such a theta alike, and the sampler rejects a
trajectory that visits one. A NaN beta or gamma passes the rule and fails
the gradient's finiteness check instead (NonFiniteError).

Exponentials are evaluated with their argument clamped at +700 so the
exponential itself cannot overflow; a runaway proposal yields a huge
(possibly +inf once squared, never NaN) energy that the sampler rejects
instead of crashing. Inside the clamped region the analytic gradient no
longer tracks the (flat) clamped energy; such states are rejected anyway.
The plan's build and the entry points `h_N`, `h_total` and `grad_hprime`
run under the package's one floating-point error state,
`errors._saturating`, and the kernel and the helpers under their caller's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteError, _frozen, _saturating, _set
from .lattice import (  # noqa: F401 -- the public maps stay bound here for tracers
    LatticeLayout,
    MassConfig,
    PolymerState,
    _check_size,
    _StagingRows,
    staging_adjoint,
    staging_inverse,
)
from .model import InputSignal, ObservationModel, TimeSeriesData, _log_data_over, _signal_over

__all__ = [
    "InferenceProblem",
    "PathContext",
    "EnergyBreakdown",
    "Gradient",
    "h_N",
    "h_total",
    "grad_hprime",
]

EXP_CLAMP = 700.0

# the nine per-pass coefficients of `_hprime` (see `PathContext`), packed as
# native doubles straight into the workspace's ``coef_bytes``: the
# values of an assignment from a list, at a fifth of its cost
_pack_coef = struct.Struct("9d").pack_into


@_frozen
class InferenceProblem:
    """The plan of one inference, shared by every chain: the observations,
    the input signal they respond to, the noise model and the lattice
    refinement j (beads per data segment). These four alone decide equality
    and hash, and a problem pickles as them. Each rule on them is checked
    by the object that holds the value: the noise model's weight by
    `ObservationModel`, j by the `LatticeLayout`, the signal at the
    lattice's times by `model._signal_over`, and ln(y / r) by
    `model._log_data_over`, so a table that stops short of the data, an r
    that is not positive and finite at a bead, or a ratio y / r outside the
    double range is a ValidationError.

    Built from them once: the `layout` and, read-only and of length N, the
    log-input increments L_i = T ln(r_i / r_{i-1}) / dt (slot 0 is padding),
    their difference Ldot_i = (L_i - L_{i-1}) / dt (slots 0 and 1 are
    padding: the i = 2 term carries no rate of change), so that rho_i =
    L_i / beta + (2 + gamma) beta / (2 gamma) and rhodot_i = Ldot_i / beta,
    and the log data residuals ``lnyr`` = ln(y_s / r_s).
    """

    data: TimeSeriesData
    signal: InputSignal
    obs: ObservationModel
    j: int
    # derived from the four inputs; every context of the problem shares them
    layout: LatticeLayout = field(init=False, repr=False)
    L: np.ndarray = field(init=False, repr=False)
    Ldot: np.ndarray = field(init=False, repr=False)
    lnyr: np.ndarray = field(init=False, repr=False)

    @_saturating
    def __post_init__(self):
        lay = LatticeLayout(self.data.n_segments, self.j, self.data.horizon)
        r = _signal_over(self.signal, lay.times)
        L = np.zeros(lay.N)
        L[1:] = (lay.T / lay.dt) * np.diff(np.log(r))
        Ldot = np.zeros(lay.N)
        Ldot[2:] = (L[2:] - L[1:-1]) / lay.dt
        lnyr = _log_data_over(self.data, r[:: lay.j])
        _set(self, j=lay.j, layout=lay, L=L, Ldot=Ldot, lnyr=lnyr)

    def context(self) -> PathContext:
        return PathContext(self)


class PathContext:
    """A workspace over an `InferenceProblem`, allocated once: the mutable
    rows of the kernel `_hprime`, beside the problem's ``layout`` and its
    table ``lnyr``. A chain (`sampler.Chain`) holds two. A context equals
    only itself and pickles as its problem, so it comes back with a fresh
    workspace. Threads that evaluate concurrently must not share one;
    parallel chains run in separate processes, each with its own contexts.

    At the benchmark size (N = 301) a NumPy call costs about a microsecond
    whatever its length, so the kernel keeps its calls few: each writes
    into these rows with ``out=``, and each scaled sum of path rows is one
    product with a stack below, called as the method ``ndarray.dot``: the
    same C product as ``np.dot``, without the 0.2 us of its Python-level
    dispatch. No row is larger than O(N), but the
    layout's (j+1, j) staging block and the C-ordered copy of its
    transpose in ``rows``, O(j^2) each. The springs need no table.

    ``phase``, the phase-space array x = [u; p] that `_load` fills and a
    (2, N) scratch pair ``cross``, with their rows (see
    `integrator._free_flow`). x heads one buffer [u; p; pi], so that after
    u the momenta are one contiguous length-(N+2) row ``momenta`` = [p; pi],
    with ``pi_slots`` its last two entries: `sampler.sample_momenta` draws
    a refresh straight into it, and the sampler then copies in u alone.
    Each use of ``cross`` writes it before it reads it: the free flow's
    cross terms, each kick's scaled force in ``cross_p``, and the squares
    x^2 that `_end_energy` scores a state from (``u_sq_head`` is the view
    of u^2 over the first N-1 beads, which the harmonic sum reads). The kernel
    rows ``rows`` (a `lattice._StagingRows`): u = x[0], and q, g_q and g_u,
    with every view the staging maps take of them. Views of these rows
    built once: ``q_ends``, ``gq_tail``, ``g_ub``, the measurement beads
    ``u_b`` = u[::j] and their shifted views ``ub_next`` = u_b[1:] and
    ``ub_prev`` = u_b[:-1].

    The row stacks, over beads i = 2..N: ``q_cols``, the (N-1, 3) columns
    [q, 1, L] (q's tail leads them, so that q is one contiguous length-N
    row); ``E_rows`` = [E, 1, L], likewise led by the tail of the row
    ``E`` (with ``E_tail``, ``E_ends`` and ``E_b`` = E[::j], which holds
    -beta q at the measurement beads, where q = u, until the clamp);
    ``work`` = [A, Z, Ldot], whose last two rows are ``grad_rows``; their
    (3, 3) product ``sums`` with the columns, and its flat view
    ``sum_list``: every sum the potential and the theta gradient read, but
    A . A. The nine per-pass coefficients, which `_pack_coef` writes through
    ``coef_bytes``, the byte view of their one buffer: those of A =
    ``coef_A`` . E_rows, g_q = ``coef_g`` . grad_rows, with Z = (A +
    beta/2) E, and the boundary force ``coef_b`` . bound, and the 0-d
    operands ``minus_beta`` and ``half_beta`` of the elementwise calls,
    with the constant ``clamp`` = EXP_CLAMP (a NumPy call takes a 0-d array
    operand for about half the cost of a Python float, which is why the
    integrator's kick steps are 0-d too).

    The boundary rows, which every pass fills afresh, over the measurement
    beads: ``bound`` = [lap, resid] (the spring stencil lap = d_{s-1} - d_s
    and the data residuals resid = ln(y_s / r_s) - beta u_b, formed in one
    call as lnyr + E_b: column 0 of the staging block is (1, 0, ..., 0) and
    q[-1] is copied from u[-1], so q = u bit for bit at these beads, and
    a - u beta == a + u (-beta) in IEEE arithmetic) and the force
    ``force_b`` made from it. The length-n difference row ``d_b`` = u_b[1:]
    - u_b[:-1] is the middle of a length-(n+2) row that holds it between
    two zeros that are never written, and ``lap`` is its left view
    ``pad_prev`` minus its right view ``pad_next``, so the end beads feel
    one neighbour each.

    Constants of the plan as Python floats: the number ``n_tail`` = N - 1
    of beads i = 2..N, ``L_sum``, the sum of L over them, and
    ``inv_sigma2`` = 1 / sigma^2, read once from the problem's
    `ObservationModel`. A workspace holds no setting of a chain.
    """

    __slots__ = (
        "problem", "layout", "lnyr",
        "T", "dt", "dt_T", "coup", "L0", "LN", "n_tail", "L_sum", "inv_sigma2",
        "phase", "momenta", "pi_slots", "u_sq_head",
        "rows", "q_ends", "q_cols", "gq_tail", "g_ub", "u_b", "ub_next", "ub_prev",
        "E", "E_tail", "E_ends", "E_b", "E_rows", "work", "A", "Z", "grad_rows",
        "sums", "sum_list", "coef_bytes", "coef_A", "coef_g", "coef_b", "minus_beta",
        "half_beta", "clamp",
        "bound", "lap", "resid", "force_b", "d_b", "pad_prev", "pad_next",
    )

    def __init__(self, problem: InferenceProblem):
        lay, L = problem.layout, problem.L
        self.problem, self.layout, self.lnyr = problem, lay, problem.lnyr
        N, tail = lay.N, lay.N - 1
        self.T, self.dt = lay.T, lay.dt
        self.dt_T = lay.dt / lay.T
        self.coup = lay.T / (lay.j * lay.dt)
        self.L0, self.LN = float(L[1]), float(L[-1])
        self.n_tail, self.L_sum = float(tail), float(L[1:].sum())
        self.inv_sigma2 = problem.obs.inv_sigma2
        # [u; p; pi]: x = [u; p], and after u the momentum row [p; pi]
        upi = np.empty(2 * N + 2)
        x, cross = upi[: 2 * N].reshape(2, N), np.empty((2, N))
        self.phase = (x, *x, cross, *cross)
        self.momenta, self.pi_slots = upi[N:], upi[2 * N :]
        self.u_sq_head = cross[0, :-1]
        # q and E each head a stack [row tail, 1, L]: bead 1, then the rows
        q_stack, E_stack = np.empty(3 * tail + 1), np.empty(3 * tail + 1)
        for stack in (q_stack, E_stack):
            _, ones, L_tail = stack[1:].reshape(3, tail)
            ones[:] = 1.0
            L_tail[:] = L[1:]
        rows = self.rows = _StagingRows(lay, u=x[0], q=q_stack[:N])
        self.q_ends = rows.q[:: N - 1]
        self.q_cols = q_stack[1:].reshape(3, tail).T
        self.gq_tail = rows.g_q[1:]
        self.g_ub = rows.g_u[:: lay.j]
        ub = self.u_b = rows.u[:: lay.j]
        self.ub_next, self.ub_prev = ub[1:], ub[:-1]
        self.E = E_stack[:N]
        self.E_tail, self.E_ends, self.E_b = self.E[1:], self.E[:: N - 1], self.E[:: lay.j]
        self.E_rows = E_stack[1:].reshape(3, tail)
        self.work = np.empty((3, tail))
        self.A, self.Z, Ldot_tail = self.work
        Ldot_tail[:] = problem.Ldot[1:]
        self.grad_rows = self.work[1:]
        self.sums = np.empty((3, 3))
        self.sum_list = self.sums.reshape(9)
        coef = np.empty(9)
        self.coef_bytes = memoryview(coef).cast("B")
        self.coef_A, self.coef_g, self.coef_b = coef[:3], coef[3:5], coef[5:7]
        self.minus_beta = coef[7:8].reshape(())
        self.half_beta = coef[8:9].reshape(())
        self.clamp = np.array(EXP_CLAMP)
        self.bound = np.empty((2, lay.n + 1))
        self.lap, self.resid = self.bound
        self.force_b = np.empty(lay.n + 1)
        pad = np.zeros(lay.n + 2)
        self.d_b, self.pad_prev, self.pad_next = pad[1:-1], pad[:-1], pad[1:]

    def __reduce__(self):
        # a fresh workspace: pickled views of its rows would come back as copies
        return PathContext, (self.problem,)


def _proposal(ctx: PathContext, end: tuple) -> PolymerState:
    """The state in the workspace's phase array x = [u; p], with ``end`` =
    (beta, gamma, pi_beta, pi_gamma), as a new state that shares no array
    with the workspace."""
    out = ctx.phase[0].copy()
    beta, gamma, pa, pg = end
    return PolymerState(out[0], np.array([beta, gamma]), out[1], np.array([pa, pg]))


class EnergyBreakdown(NamedTuple):
    """The three pieces of the total energy and their sum. h_N is the
    staged energy of `h_N` (kinetic plus harmonic); h_n and h_1 are each a
    kinetic energy plus the position part of the kernel pass."""

    h_N: float
    h_n: float
    h_1: float
    total: float


class Gradient(NamedTuple):
    """Gradient of H' = h_n + h_1: g_u over all beads, g_theta = (d/dbeta, d/dgamma).

    Both arrays are fresh on every call; callers may scale them in place."""

    g_u: np.ndarray
    g_theta: np.ndarray


@_saturating  # a non-finite measurement bead meets its 0 weight as inf * 0 = NaN
def h_N(state: PolymerState, masses: MassConfig, layout: LatticeLayout) -> float:
    """Fast harmonic energy, staging beads only (zero when j = 1), from the
    state's own arrays: the reference for the workspace's scorer."""
    _check_size(state.u, layout, "u")
    staging = layout.bead_classes.dot(np.square(state.p)).tolist()[0]
    kinetic = (0.5 * layout.dt / masses.m_prime) * staging
    return kinetic + 0.5 * float(np.square(state.u[:-1]).dot(layout.flat_stiffness))


def _load(state: PolymerState, ctx: PathContext) -> list:
    """Check the state's size, copy its beads and momenta into the
    workspace's phase array x = [u; p], whose first row is the kernel row
    u, and return [beta, gamma, pi_beta, pi_gamma] as Python floats."""
    _check_size(state.u, ctx.layout, "u")
    _, u, p, _, _, _ = ctx.phase
    u[...] = state.u
    p[...] = state.p
    return state.theta.tolist() + state.pi.tolist()


def _end_energy(
    h_n: float, h_1: float, ctx: PathContext, masses: MassConfig, pa: float, pg: float
) -> tuple:
    """The energy of the state in the workspace's phase array x = [u; p]
    with parameter momenta (pa, pg), given the position parts (h_n, h_1) of
    its kernel pass: (h_N, h_n, h_1, total), the fields of
    `EnergyBreakdown`, as Python floats. One square of x, then the harmonic
    product over u^2 and the kinetic product over p^2 (the module
    docstring): h_N is the staged energy, kinetic plus harmonic, and h_n
    and h_1 each add a kinetic energy to their position part. They are
    added in the one order that every energy of a state is added: the
    package's one scorer, for `h_total` and both ends of an iteration.
    Runs under a caller's `_saturating`."""
    x, _, _, sq, _, p_sq = ctx.phase
    lay = ctx.layout
    np.square(x, out=sq)
    harmonic = 0.5 * float(ctx.u_sq_head.dot(lay.flat_stiffness))
    staging, measured = lay.bead_classes.dot(p_sq).tolist()
    ma, mg = masses.m_alpha
    h_N = (0.5 * lay.dt / masses.m_prime) * staging + harmonic
    h_n = measured / (2.0 * masses.M) + h_n
    h_1 = (pa * pa / (2.0 * ma) + pg * pg / (2.0 * mg)) + h_1
    return h_N, h_n, h_1, h_N + h_n + h_1


@_saturating
def h_total(state: PolymerState, ctx: PathContext, masses: MassConfig) -> EnergyBreakdown:
    """All three pieces and their sum, scored in the context's workspace as
    the sampler scores both ends of a trajectory."""
    beta, gamma, pa, pg = _load(state, ctx)
    h_n, h_1 = _hprime(beta, gamma, ctx, False)
    return EnergyBreakdown(*_end_energy(h_n, h_1, ctx, masses, pa, pg))


@_saturating
def grad_hprime(state: PolymerState, ctx: PathContext) -> Gradient:
    """Analytic gradient of H' = h_n + h_1 w.r.t. (u, theta).

    The path-action part is differentiated per bead position q and mapped to
    staging coordinates through the transpose of the linear staging inverse;
    the theta derivatives include the beta- and gamma-dependence of rho.
    Raises NonFiniteError if any component is NaN or infinite.
    """
    _, _, g_u, g_beta, g_gamma = _hprime(*_load(state, ctx)[:2], ctx, True, False)
    return Gradient(g_u.copy(), np.array([g_beta, g_gamma]))


def _hprime(beta: float, gamma: float, ctx: PathContext, gradient: bool, potential: bool = True):
    """The one pass over the path behind `h_total`, `grad_hprime`, the
    trajectory and the start force of a chain (`sampler.Chain`).

    The N beads are the workspace row ``rows.u``, loaded by the caller. A
    beta or gamma of 0 or below is a DomainError, the package's one
    theta-domain rule. Returns the potential: the position parts (h_n, h_1) of h_n and h_1,
    which a momentum refresh leaves unchanged. With ``gradient`` it also
    returns the gradient of H', as the 5-tuple (h_n, h_1, g_u, g_beta,
    g_gamma): g_u is the workspace row ``g_u``, valid until the next call
    on the context, and the theta components are Python floats. A gradient
    pass without ``potential`` skips the terms only the potential reads and
    returns None for h_n and h_1; its gradient is bit for bit that of a
    pass that also forms the potential, and a gradient pass gives the pair
    of `h_total`'s pass bit for bit. Rows of the workspace run over beads
    i = 2..N (slots 1..N-1); rho, rhodot and their derivatives are never built as
    arrays, only the sums they enter, folded by linearity (the comments
    below), with rho itself needed only at the two end beads. Every array
    operation writes into the context's scratch, and no call reads a row
    an earlier one left but u and the constant rows.

    The scalar algebra runs on Python floats (the arguments beta and gamma,
    and the end values of q and E and the (3, 3) sums, each out of NumPy
    in one ``tolist()``): the same IEEE double arithmetic as NumPy scalars, so
    bit-identical, at a tenth of the cost. Python floats raise where NumPy
    saturates, ZeroDivisionError on a zero divisor and OverflowError from
    ``**``, so the algebra has neither (the comments below); their sums
    and products saturate to inf and NaN as NumPy's do. Runs under a
    caller's `_saturating`.
    """
    # Python floats: past the domain rule, every division below is by beta,
    # gamma or 2 gamma, so none can raise ZeroDivisionError
    if beta <= 0.0 or gamma <= 0.0:
        raise DomainError(f"beta and gamma must be positive, got {beta!r}, {gamma!r}")
    bg = beta / gamma
    c = (2.0 + gamma) * beta / (2.0 * gamma)
    rho0 = ctx.L0 / beta + c  # rho at beads 2 and N
    rhoN = ctx.LN / beta + c
    dt_T, T = ctx.dt_T, ctx.T
    # the coefficients of A, of g_q and of the boundary force, then the 0-d
    # operands -beta and beta/2
    _pack_coef(
        ctx.coef_bytes, 0,
        -bg, c, 1.0 / beta, beta * dt_T * bg, -ctx.dt / beta, ctx.coup, -beta * ctx.inv_sigma2,
        -beta, 0.5 * beta,
    )
    A, E, rows = ctx.A, ctx.E, ctx.rows
    rows.inverse()
    np.multiply(rows.q, ctx.minus_beta, out=E)
    # the boundary rows: q = u at the measurement beads, so the residuals
    # ln(y_s / r_s) - beta u_b are read off -beta q before the clamp; then
    # the spring differences d_b and their stencil lap
    np.add(ctx.lnyr, ctx.E_b, out=ctx.resid)
    np.subtract(ctx.ub_next, ctx.ub_prev, out=ctx.d_b)
    np.subtract(ctx.pad_prev, ctx.pad_next, out=ctx.lap)
    np.minimum(E, ctx.clamp, out=E)
    np.exp(E, out=E)
    q0, qN = ctx.q_ends.tolist()
    E0, EN = ctx.E_ends.tolist()
    ctx.coef_A.dot(ctx.E_rows, out=A)
    np.add(A, ctx.half_beta, out=ctx.Z)
    ctx.Z *= ctx.E_tail
    # [A, Z, Ldot] times [q, 1, L]; A . q, Z . L, sum Ldot and Ldot . L go
    # unread
    ctx.work.dot(ctx.q_cols, out=ctx.sums)
    _, A_sum, A_L, Z_q, Z_sum, _, q_Ldot, _, _ = ctx.sum_list.tolist()
    w_sum = c * ctx.n_tail + ctx.L_sum / beta - A_sum  # (beta/gamma) sum E
    h_n = h_1 = None
    if potential:
        resid, d = ctx.resid, ctx.d_b
        h_n = 0.5 * (ctx.inv_sigma2 * float(resid.dot(resid)) + ctx.coup * float(d.dot(d)))
        # qs . (T rhodot) = (T / beta) q_Ldot
        body = 0.5 * float(A.dot(A)) - (0.5 * beta) * w_sum - (T / beta) * q_Ldot
        h_1 = dt_T * body + (EN - E0) / gamma + qN * rhoN - q0 * rho0
    if not gradient:
        return h_n, h_1

    # d/dq of the path action, chained through the staging transpose
    g_q = rows.g_q
    ctx.coef_g.dot(ctx.grad_rows, out=ctx.gq_tail)
    g_q[0] = bg * E0 - rho0
    g_q[-1] += rhoN - bg * EN
    g_u = rows.adjoint()
    # direct boundary terms of h_n: the springs and the data residuals
    ctx.coef_b.dot(ctx.bound, out=ctx.force_b)
    ctx.g_ub += ctx.force_b

    # theta gradient; d rho / d beta = (c - L / beta) / beta, so
    # A . drho = (c sum A - A . L / beta) / beta; d rho / d gamma
    # = -beta / gamma^2; d(T rhodot) / d beta = -T rhodot / beta
    g_beta = dt_T * (
        (c * A_sum - A_L / beta) / beta
        + bg * Z_q
        - Z_sum / gamma
        - 0.5 * w_sum
        + (T / beta) * q_Ldot / beta
    )
    g_beta += (
        (q0 * E0 - qN * EN) / gamma
        + qN * ((2.0 * c - rhoN) / beta)
        - q0 * ((2.0 * c - rho0) / beta)
    )
    g_beta -= ctx.inv_sigma2 * float(ctx.resid.dot(ctx.u_b))
    # beta / gamma^2 as bg / gamma: no Python-float power, which would
    # raise OverflowError where a product saturates to inf
    g_gamma = dt_T * (bg / gamma) * (Z_sum - A_sum)
    g_gamma += (E0 - EN + beta * (q0 - qN)) / gamma / gamma
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
