"""Reversible multi-timescale propagator for the staged polymer.

One trajectory applies the impulse (r-RESPA) split

    K(dtau/2) [F(dtau) K(dtau)]^(P-1) F(dtau) K(dtau/2)

of the kick-outermost form (Tuckerman, Berne & Martyna, J. Chem. Phys. 97,
1992; Split HMC, Shahbaba et al., Stat. Comput. 24, 2014). F is the exact
free flow of the kinetic terms plus the fast harmonic part h_N: it rotates
each staging bead in its (u, p) plane and drifts the measurement beads
and the parameters. K kicks every momentum by the force -grad H' of the
slow part H' = h_n + h_1. Only H' is integrated numerically, with one
gradient per step: P kernel passes per trajectory.

The free flow is per bead, so it runs over all beads at once from the
`OscillatorBank` tables: the rotation entries at the staging beads and the
free-particle entries (cos = 1, sin / (m omega) = step / M,
m omega sin = 0) at the measurement beads, where x * 1 + y * step / M is
the drift and y * 1 - x * 0 = y leaves a finite momentum exactly
unchanged. Positions and momenta are the two rows of one (2, N)
phase-space array x = [u; p], so the flow is four calls and no
temporaries (`_free_flow`): the cross terms p sin / (m omega) and
-u m omega sin into the two rows of a workspace pair, then x *= cos and
x += cross over both rows at once, against a (2, N) table of cos. Every
operand is contiguous, so NumPy runs each call as one flat loop; a
reversed view x[::-1] would save a call but costs more than one, and so
does broadcasting one cos row over two. The flow is bit for bit the
rotation of separate rows, u cos + p sin / (m omega) and
p cos - u m omega sin: adding a negated product rounds as subtracting it
does, signed zeros and NaN included. A non-finite position instead turns
into inf * 0 = NaN at a measurement bead; `trotter_propagate` is
therefore one of the five entry points decorated with
`energy._saturating` (with `h_N`, `h_total`, `grad_hprime` and
`sampler.hmc_iteration`), the one ``np.errstate`` that ignores overflow,
invalid operations and division by zero, and the next gradient raises
NonFiniteError, so the proposal is rejected.

The trajectory checks the state's size once, copies its beads and bead
momenta into the phase-space array of the context's workspace, whose
first row is the kernel row u, and runs there: the free flows move the
array in place, and the kicks take the forces straight from the kernel
`energy._hprime`, which reads the row u, not through the public
`grad_hprime`. Only the last of the P kernel passes forms the potential
too; the others ask for the gradient alone. The kernel writes g_u into a
row of the workspace, and the kick scales that row in place, so the row
is spent by the next kernel call. The force depends on positions alone,
so a caller may hand in the force at the start (the sampler carries it
from the last iteration) and gets back the force at the end, with the
proposal's position parts (h_n, h_1) from the same pass. The returned
state's beads and momenta (the two rows of one copy of the array) and
its force are copied out of the workspace, so no array they hold aliases
it. The free-flow tables are looked up once per chain: the workspace
remembers them for its last (masses, d_tau), with the kick steps as 0-d
arrays.

Beta, gamma, pi_beta and pi_gamma stay Python floats for all P steps, as
the kernel returns g_theta: the same IEEE operations as on length-2
arrays, so bit-identical, at a tenth of the dispatch cost.

Every sub-step is volume preserving and reversible under momentum flip, so
the composite is a valid HMC proposal map regardless of step size; dtau
only controls how well the total energy is conserved (error ~ dtau^2 at
fixed trajectory length P dtau).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .energy import (  # noqa: F401 -- grad_hprime stays bound here for tracers
    Gradient,
    PathContext,
    _hprime,
    _saturating,
    grad_hprime,
)
from .errors import ValidationError, _integer, _positive
from .lattice import LatticeLayout, MassConfig, PolymerState, _check_size

__all__ = [
    "IntegratorConfig",
    "OscillatorBank",
    "trotter_propagate",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Inner step size dtau and the number P of inner steps per trajectory."""

    d_tau: float
    P: int

    def __post_init__(self):
        _positive("d_tau", self.d_tau)
        object.__setattr__(self, "P", _integer("P", self.P))
        if self.P < 1:
            raise ValidationError(f"P must be >= 1, got {self.P}")


@dataclass(frozen=True)
class OscillatorBank:
    """Per-bead data of the exact free flow, a function of (layout, masses,
    d_tau) alone; `build` returns one shared bank per key.

    Effective mass m = m'/dt is shared; the frequency per staging order k,
    omega_k = sqrt(T k / ((k-1) dt m)), decreases with k (``omega`` lists it
    per staging bead, in lattice order). The tables for the half step
    dtau/2 and for the full step dtau are precomputed as ``half`` and
    ``full``, each the triple (cos, sin / (m omega), m omega sin) of its
    angle as flat length-N arrays over all beads: the measurement beads
    ``s*j`` hold the free-particle entries (1, step / M, 0) of their drift.
    ``half_flow`` and ``full_flow`` hold the same tables as the triple
    ([cos; cos], sin / (m omega), -m omega sin) that `_free_flow` takes,
    the first a (2, N) array. ``omega`` and every table are read-only.
    The frequencies satisfy m omega_k^2 = T k / (dt (k-1)) exactly, so the
    rotation conserves h_N to round-off.
    """

    layout: LatticeLayout
    masses: MassConfig
    d_tau: float
    m: float = field(init=False)
    omega: np.ndarray = field(init=False, repr=False, compare=False)
    half: tuple = field(init=False, repr=False, compare=False)
    full: tuple = field(init=False, repr=False, compare=False)
    half_flow: tuple = field(init=False, repr=False, compare=False)
    full_flow: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lay = self.layout
        n, j = lay.n, lay.j
        m = self.masses.m_prime / lay.dt
        omega = np.tile(np.sqrt(lay.stiffness / m), n)
        omega.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "omega", omega)
        omega = omega.reshape(n, j - 1)
        m_omega = m * omega
        for name, step in (("half", self.d_tau / 2.0), ("full", self.d_tau)):
            angle = omega * step
            sin = np.sin(angle)
            # rows cos, cos, sin / (m omega), -m omega sin and m omega sin
            tables = np.empty((5, lay.N))
            tables[0], tables[2], tables[4] = 1.0, step / self.masses.M, 0.0
            lay.staging(tables[0])[...] = np.cos(angle)
            lay.staging(tables[2])[...] = sin / m_omega
            lay.staging(tables[4])[...] = m_omega * sin
            tables[1] = tables[0]
            np.negative(tables[4], out=tables[3])
            tables.setflags(write=False)  # before the views, which inherit it
            cos, _, sin_over_m_omega, minus_m_omega_sin, m_omega_sin = tables
            object.__setattr__(self, name, (cos, sin_over_m_omega, m_omega_sin))
            object.__setattr__(
                self, name + "_flow", (tables[:2], sin_over_m_omega, minus_m_omega_sin)
            )

    @classmethod
    @functools.lru_cache(maxsize=16)
    def build(
        cls, layout: LatticeLayout, masses: MassConfig, d_tau: float
    ) -> "OscillatorBank":
        return cls(layout, masses, d_tau)


def _flow_tables(ctx: PathContext, masses: MassConfig, d_tau: float) -> tuple:
    """``(flow, kick_half, kick_full)``: the full-step ``full_flow`` tables
    of the shared `OscillatorBank` of (ctx.layout, masses, d_tau), and the
    kick steps dtau/2 and dtau as 0-d arrays (a NumPy call takes a 0-d
    array operand for about half the cost of a Python float). The context's
    workspace remembers them for the last masses (by identity; a
    `MassConfig` is frozen) and d_tau, so that a chain looks them up once.
    """
    s = ctx._scratch
    key = s.flow_key
    if key[0] is not masses or key[1] != d_tau:
        bank = OscillatorBank.build(ctx.layout, masses, d_tau)
        s.flow = (bank.full_flow, np.array(0.5 * d_tau), np.array(d_tau))
        s.flow_key = (masses, d_tau)
    return s.flow


def _free_flow(phase: tuple, flow: tuple):
    """Exact free flow, in place, of the phase-space array x = [u; p] by the
    step of ``flow`` = ([cos; cos], sin / (m omega), -m omega sin).
    ``phase`` = (x, u, p, cross, cross_u, cross_p) holds x and a (2, N)
    pair for the cross terms, each with its rows: cross = [p sin / (m omega);
    -u m omega sin], then x = x cos + cross. Every staging oscillator
    rotates, conserving h_N oscillator by oscillator, and every measurement
    bead drifts by step p / M with its finite momentum exactly unchanged.
    Bit for bit the rotation u' = u cos + p sin / (m omega),
    p' = p cos - u m omega sin: y + x (-z) and y - x z round alike, signed
    zeros and inf * 0 = NaN included. The parameters drift in the caller.
    """
    x, u, p, cross, cross_u, cross_p = phase
    cos, sin_over_m_omega, minus_m_omega_sin = flow
    np.multiply(p, sin_over_m_omega, out=cross_u)
    np.multiply(u, minus_m_omega_sin, out=cross_p)
    x *= cos
    x += cross


def _rotate_inplace(u: np.ndarray, p: np.ndarray, bank: OscillatorBank, full: bool = False):
    """`_free_flow` by dtau/2 (by dtau with ``full``) of separate rows ``u``
    and ``p``, in place, through a stacked copy."""
    x, cross = np.stack((u, p)), np.empty((2, u.size))
    _free_flow((x, *x, cross, *cross), bank.full_flow if full else bank.half_flow)
    u[...], p[...] = x


def _trajectory(
    state: PolymerState,
    ctx: PathContext,
    masses: MassConfig,
    config: IntegratorConfig,
    force: Gradient | None,
) -> tuple:
    """Run K(dtau/2) [F(dtau) K(dtau)]^(P-1) F(dtau) K(dtau/2) from ``state``,
    whose force is ``force`` (the `Gradient` of H' at its positions, or None
    to compute it here).

    Returns ``(proposal, force, (h_n, h_1))``: the new state, which shares
    no array with the input or the workspace (the input is not modified);
    the fresh `Gradient` of H' at its positions, bit for bit that of
    `grad_hprime`; and the position parts of its `Potential` from the same
    kernel pass, the only one that forms the potential. The carried
    ``force`` is read, never written. The state size is checked once, up
    front; a non-finite force raises NonFiniteError, also at the start.
    Runs under a caller's `_saturating`.
    """
    d_tau = config.d_tau
    flow, kick_half, kick_full = _flow_tables(ctx, masses, d_tau)
    _check_size(state.u, ctx.layout, "u")
    s = ctx._scratch
    phase, kick = s.phase, s.rows.g_u
    x, u, p = phase[:3]
    np.copyto(u, state.u)
    np.copyto(p, state.p)
    beta, gamma = state.theta.tolist()
    pa, pg = state.pi.tolist()
    ma, mg = masses.m_alpha
    half = 0.5 * d_tau
    if force is None:
        _, _, g_u, g_beta, g_gamma = _hprime(beta, gamma, ctx, True, False)
    else:
        g_u = force.g_u
        g_beta, g_gamma = force.g_theta.tolist()
    # the kick row is the kernel's g_u row: spent by the next pass anyway
    p -= np.multiply(g_u, kick_half, out=kick)
    pa -= g_beta * half
    pg -= g_gamma * half
    step, kick_step = d_tau, kick_full
    last = config.P - 1
    for i in range(config.P):
        _free_flow(phase, flow)
        beta += d_tau * pa / ma
        gamma += d_tau * pg / mg
        h_n, h_1, g_u, g_beta, g_gamma = _hprime(beta, gamma, ctx, True, i == last)
        if i == last:  # the closing half kick, from the force kept
            force = Gradient(g_u.copy(), np.array([g_beta, g_gamma]))
            step, kick_step = half, kick_half
        g_u *= kick_step
        p -= g_u
        pa -= g_beta * step
        pg -= g_gamma * step
    out = x.copy()
    proposal = PolymerState._trusted(out[0], np.array([beta, gamma]), out[1], np.array([pa, pg]))
    return proposal, force, (h_n, h_1)


@_saturating
def trotter_propagate(
    state: PolymerState,
    ctx: PathContext,
    masses: MassConfig,
    config: IntegratorConfig,
) -> PolymerState:
    """Run the full trajectory K(dtau/2) [F(dtau) K(dtau)]^(P-1) F(dtau)
    K(dtau/2) and return the new state, which shares no array with the
    input or the workspace; the input is not modified. The force at the
    start costs one more kernel pass here; the sampler carries it instead.
    The free-flow tables are the shared `OscillatorBank` of (ctx.layout,
    masses, config.d_tau), which the context remembers from its last call.

    Decorated with `energy._saturating`, the saturation policy of the five
    entry points (with `h_N`, `h_total`, `grad_hprime` and
    `sampler.hmc_iteration`): overflow, invalid operations and division by
    zero saturate to inf and NaN silently. The state size is checked once,
    up front; non-finite forces then raise NonFiniteError (the sampler
    counts that as a rejected proposal).
    """
    return _trajectory(state, ctx, masses, config, None)[0]
