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

The free flow is per bead, so it runs over all beads at once
(`_free_flow`) from the flow tables of the step's `OscillatorBank`, and
the kicks scale the force by the bank's 0-d kick steps; both act on the
phase-space array x = [u; p] of the context's workspace, whose first row
is the kernel row u. This module holds the dynamics only: the trajectory
(`_trajectory`) runs P steps of one bank, which alone fixes the step,
its d_tau and the masses included, in a workspace whose beads and momenta
are loaded, and leaves its end there. `trotter_propagate` looks its bank
up, loads a state with `energy._load` and copies the end out with
`energy._proposal`; the sampler's `Chain` holds its bank and P, keeps the
end in the workspace and swaps workspaces on acceptance instead. The free
flows move the array in place, and the kicks take the forces straight
from the kernel `energy._hprime`, not through the public `grad_hprime`.
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
from dataclasses import field

import numpy as np

from .energy import (  # noqa: F401 -- grad_hprime stays bound here for tracers
    PathContext,
    _hprime,
    _load,
    _proposal,
    _saturating,
    grad_hprime,
)
from .errors import _count, _frozen, _positive, _rule, _set
from .lattice import LatticeLayout, MassConfig, PolymerState

__all__ = [
    "IntegratorConfig",
    "OscillatorBank",
    "trotter_propagate",
]


@_frozen
class IntegratorConfig:
    """Inner step size dtau and the number P of inner steps per trajectory."""

    d_tau: float = _rule(_positive)
    P: int = _rule(_count)


@_frozen
class OscillatorBank:
    """Per-bead data of the exact free flow by one step d_tau, a function of
    (layout, masses, d_tau) alone, d_tau a positive finite number stored as
    a Python float (`errors._positive`); `build` returns one shared bank
    per key.

    Effective mass m = m'/dt is shared; the frequency per staging order k,
    omega_k = sqrt(T k / ((k-1) dt m)), decreases with k, and each segment's
    staging beads share the j - 1 frequencies. ``scale`` holds the N + 2
    standard deviations of the momenta (p, pi) that `sample_momenta` draws
    by: sqrt(m) at staging beads, sqrt(M) at measurement beads, then
    sqrt(m_alpha). ``flow`` is the triple ([cos; cos], sin / (m omega),
    -m omega sin) of the angle omega d_tau that `_free_flow` takes, the
    first a (2, N) array, the others flat length-N arrays over all beads:
    the measurement beads ``s*j`` hold the free-particle entries
    (1, d_tau / M, -0.0) of their drift. A half step is the flow of the
    bank built at d_tau / 2. ``kick_half`` and ``kick_full`` are the kick
    steps d_tau / 2 and d_tau as 0-d arrays, the operands of the
    trajectory's kicks. ``scale`` and every table are read-only.
    The frequencies satisfy m omega_k^2 = T k / (dt (k-1)) exactly, so the
    rotation conserves h_N to round-off.
    """

    layout: LatticeLayout
    masses: MassConfig
    d_tau: float = _rule(_positive)
    scale: np.ndarray = field(init=False, repr=False)
    flow: tuple = field(init=False, repr=False)
    kick_half: np.ndarray = field(init=False, repr=False)
    kick_full: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lay = self.layout
        m = self.masses.m_prime / lay.dt
        scale = np.empty(lay.N + 2)
        scale[: lay.N] = np.sqrt(m)
        scale[: lay.N : lay.j] = np.sqrt(self.masses.M)
        scale[lay.N :] = np.sqrt(self.masses.m_alpha)
        # one frequency per staging order, broadcast over the segments
        omega = np.sqrt(lay.stiffness / m)
        m_omega = m * omega
        angle = omega * self.d_tau
        sin = np.sin(angle)
        # rows cos, cos, sin / (m omega) and m omega sin, negated in place so
        # that the measurement beads hold -0.0: p + u (-0.0) keeps the sign
        # of a zero momentum as p - u 0.0 does
        tables = np.empty((4, lay.N))
        tables[0], tables[2], tables[3] = 1.0, self.d_tau / self.masses.M, 0.0
        lay.staging(tables[0])[...] = np.cos(angle)
        lay.staging(tables[2])[...] = sin / m_omega
        lay.staging(tables[3])[...] = m_omega * sin
        tables[1] = tables[0]
        np.negative(tables[3], out=tables[3])
        _set(
            self, scale=scale, flow=(tables[:2], tables[2], tables[3]),
            kick_half=np.array(0.5 * self.d_tau), kick_full=np.array(self.d_tau),
        )

    @classmethod
    @functools.lru_cache(maxsize=16)
    def build(
        cls, layout: LatticeLayout, masses: MassConfig, d_tau: float
    ) -> "OscillatorBank":
        return cls(layout, masses, d_tau)


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
    zeros and inf * 0 = NaN included; such a NaN, from a non-finite
    position at a measurement bead, stays silent under `energy._saturating`
    and the next gradient raises NonFiniteError, so the proposal is
    rejected. The parameters drift in the caller.

    Every operand is contiguous, so NumPy runs each call as one flat loop;
    a reversed view x[::-1] would save a call but costs more than one, and
    so does broadcasting one cos row over two.
    """
    x, u, p, cross, cross_u, cross_p = phase
    cos, sin_over_m_omega, minus_m_omega_sin = flow
    np.multiply(p, sin_over_m_omega, out=cross_u)
    np.multiply(u, minus_m_omega_sin, out=cross_p)
    x *= cos
    x += cross


def _trajectory(
    ctx: PathContext, bank: OscillatorBank, P: int, start: tuple, force: tuple
) -> tuple:
    """The trajectory of `trotter_propagate`, P steps of ``bank``, run in
    the workspace ``ctx`` from the beads and momenta loaded there, with
    ``start`` = (beta, gamma, pi_beta, pi_gamma) as Python floats. The
    `OscillatorBank` is the step: its flow tables, its kick steps, its
    ``d_tau`` and the parameter masses ``bank.masses.m_alpha`` that the
    drifts divide by. ``force`` is the force at the start, (g_u, g_beta,
    g_gamma) with g_u a kernel row g_u and the rest Python floats: the
    sampler's chain carries it in its other workspace, and
    `trotter_propagate` forms it in ``ctx``, whose row the opening kick
    reads before the first pass writes it. ``force`` is read, never
    written. Runs under a caller's `_saturating`.

    Returns ``(end, g_theta, (h_n, h_1))``, all Python floats: the end's
    (beta, gamma, pi_beta, pi_gamma), the theta part of the force at the
    end, and the parts (h_n, h_1) of the end's potential from the same
    kernel pass, the only one of the P that forms the potential: the pair
    that `energy._end_energy` completes and that a chain carries. The end's
    beads and momenta stay in the phase array, and the u part of its force
    in the kernel row g_u, until the next call on the context: every kick
    scales the force into the scratch row ``cross_p``, which is free
    between two free flows, so the kernel rows are never scaled. They are
    bit for bit what `trotter_propagate` and `grad_hprime` return, and
    `energy._end_energy` scores them.
    """
    d_tau = bank.d_tau
    flow, kick_half, kick_full = bank.flow, bank.kick_half, bank.kick_full
    phase = ctx.phase
    p, kick = phase[2], phase[5]
    beta, gamma, pa, pg = start
    ma, mg = bank.masses.m_alpha
    half = 0.5 * d_tau
    g_u, g_beta, g_gamma = force
    p -= np.multiply(g_u, kick_half, out=kick)
    pa -= g_beta * half
    pg -= g_gamma * half
    step, kick_step = d_tau, kick_full
    last = P - 1
    for i in range(P):
        _free_flow(phase, flow)
        beta += d_tau * pa / ma
        gamma += d_tau * pg / mg
        h_n, h_1, g_u, g_beta, g_gamma = _hprime(beta, gamma, ctx, True, i == last)
        if i == last:  # the closing half kick
            step, kick_step = half, kick_half
        p -= np.multiply(g_u, kick_step, out=kick)
        pa -= g_beta * step
        pg -= g_gamma * step
    return (beta, gamma, pa, pg), (g_beta, g_gamma), (h_n, h_1)


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
    start costs one more kernel pass here; the sampler's chain carries it
    from its construction and each accepted proposal instead.

    Decorated with `energy._saturating`: overflow, invalid operations and
    division by zero saturate to inf and NaN silently. The state size is
    checked once, up front; non-finite forces then raise NonFiniteError
    (the sampler counts that as a rejected proposal).
    """
    start = _load(state, ctx)
    force = _hprime(*start[:2], ctx, True, False)[2:]
    bank = OscillatorBank.build(ctx.layout, masses, config.d_tau)
    return _proposal(ctx, _trajectory(ctx, bank, config.P, start, force)[0])
