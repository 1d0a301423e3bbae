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

The free flow is per bead, so it runs over the whole rows u and p at once
from the `OscillatorBank` tables: the rotation entries at the staging beads
and the free-particle entries (cos = 1, sin / (m omega) = step / M,
m omega sin = 0) at the measurement beads, where x * 1 + y * step / M is
the drift and y * 1 - x * 0 = y leaves a finite momentum exactly
unchanged. A non-finite position instead turns into inf * 0 = NaN there;
`trotter_propagate` is therefore one of the five entry points decorated
with `energy._saturating` (with `h_N`, `h_total`, `grad_hprime` and
`sampler.hmc_iteration`), the one ``np.errstate`` that ignores overflow,
invalid operations and division by zero, and the next gradient raises
NonFiniteError, so the proposal is rejected.

The trajectory checks the state's size once, copies its beads into the
kernel row u of the context's workspace and its bead momenta into a fresh
array, and runs there: the free flows move the row in place, and the kicks
take the forces straight from the kernel `energy._hprime`, which reads
that row, not through the public `grad_hprime`. The kernel writes g_u into
a row of the workspace, and the kick scales that row in place, so the row
is spent by the next kernel call. The force depends on positions alone, so
a caller may hand in the force at the start (the sampler carries it from
the last iteration) and gets back the force at the end, with the
proposal's position parts (h_n, h_1) from the same pass. The returned
state's beads and force are copied out of the workspace, so no array they
hold aliases it.

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
    ``omega`` and every table are read-only. The frequencies satisfy
    m omega_k^2 = T k / (dt (k-1)) exactly, so the rotation conserves h_N to
    round-off.
    """

    layout: LatticeLayout
    masses: MassConfig
    d_tau: float
    m: float = field(init=False)
    omega: np.ndarray = field(init=False, repr=False, compare=False)
    half: tuple = field(init=False, repr=False, compare=False)
    full: tuple = field(init=False, repr=False, compare=False)

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
            cos, sin_over_m_omega, m_omega_sin = tables = np.empty((3, lay.N))
            cos[:] = 1.0
            sin_over_m_omega[:] = step / self.masses.M
            m_omega_sin[:] = 0.0
            lay.staging(cos)[...] = np.cos(angle)
            lay.staging(sin_over_m_omega)[...] = sin / m_omega
            lay.staging(m_omega_sin)[...] = m_omega * sin
            tables.setflags(write=False)
            object.__setattr__(self, name, tuple(tables))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def build(
        cls, layout: LatticeLayout, masses: MassConfig, d_tau: float
    ) -> "OscillatorBank":
        return cls(layout, masses, d_tau)


def _rotate_inplace(u: np.ndarray, p: np.ndarray, bank: OscillatorBank, full: bool = False):
    """Exact free flow of the beads by dtau/2 (by dtau with ``full``), in
    place, as flat operations on the whole rows ``u`` and ``p``: every
    staging oscillator rotates, conserving h_N oscillator by oscillator, and
    every measurement bead drifts by step p / M with its finite momentum
    exactly unchanged. The parameters drift in the caller.
    """
    cos, sin_over_m_omega, m_omega_sin = bank.full if full else bank.half
    kick = u * m_omega_sin
    u *= cos
    u += p * sin_over_m_omega
    p *= cos
    p -= kick


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
    kernel pass. The carried ``force`` is read, never written. The state
    size is checked once, up front; a non-finite force raises
    NonFiniteError, also at the start. Runs under a caller's `_saturating`.
    """
    bank = OscillatorBank.build(ctx.layout, masses, config.d_tau)
    _check_size(state.u, ctx.layout, "u")
    rows = ctx._scratch.rows
    u, kick = rows.u, rows.g_u
    np.copyto(u, state.u)
    p = state.p.copy()
    beta, gamma = state.theta.tolist()
    pa, pg = state.pi.tolist()
    ma, mg = masses.m_alpha
    d_tau = config.d_tau
    half = 0.5 * d_tau
    if force is None:
        _, _, g_u, g_beta, g_gamma = _hprime(beta, gamma, ctx, True)
    else:
        g_u = force.g_u
        g_beta, g_gamma = force.g_theta.tolist()
    # the kick row is the kernel's g_u row: spent by the next pass anyway
    p -= np.multiply(g_u, half, out=kick)
    pa -= g_beta * half
    pg -= g_gamma * half
    step = d_tau
    for i in range(config.P):
        _rotate_inplace(u, p, bank, full=True)
        beta += d_tau * pa / ma
        gamma += d_tau * pg / mg
        h_n, h_1, g_u, g_beta, g_gamma = _hprime(beta, gamma, ctx, True)
        if i == config.P - 1:  # the closing half kick, from the force kept
            force = Gradient(g_u.copy(), np.array([g_beta, g_gamma]))
            step = half
        g_u *= step
        p -= g_u
        pa -= g_beta * step
        pg -= g_gamma * step
    proposal = PolymerState._trusted(u.copy(), np.array([beta, gamma]), p, np.array([pa, pg]))
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
    masses, config.d_tau), looked up on each call.

    Decorated with `energy._saturating`, the saturation policy of the five
    entry points (with `h_N`, `h_total`, `grad_hprime` and
    `sampler.hmc_iteration`): overflow, invalid operations and division by
    zero saturate to inf and NaN silently. The state size is checked once,
    up front; non-finite forces then raise NonFiniteError (the sampler
    counts that as a rejected proposal).
    """
    return _trajectory(state, ctx, masses, config, None)[0]
