"""Reversible multi-timescale propagator for the staged polymer.

One trajectory applies P times the symmetric split

    exp(i L_N dtau/2)  exp(i L' dtau)  exp(i L_N dtau/2)

where L_N is the fast harmonic motion of the staging beads, solved exactly
as a rotation in each (u, p) plane, and L' = L_n + L_1 advances the
measurement beads and the parameters by one velocity-Verlet step of size
dtau under H' = h_n + h_1. Staging bead positions are frozen during the
inner step; their momenta still receive the H' force kicks. Two half
rotations that meet between consecutive Verlet steps are one exact rotation
by dtau, so the trajectory runs P + 1 rotations: a half step, P - 1 full
steps between the Verlet steps, and a closing half step.

The rotation is per bead, so it runs over the contiguous first N-1 beads
``x[:-1]`` at once, with identity entries (cos = 1, sin = 0) at the
measurement beads. On finite input x * 1 + y * 0 = x, so those beads come
out exactly unchanged. A non-finite boundary momentum instead turns into
inf * 0 = NaN there; `trotter_propagate` is therefore one of the five
entry points decorated with `energy._saturating` (with `h_N`, `h_total`,
`grad_hprime` and `sampler.hmc_iteration`), the one ``np.errstate`` that
ignores overflow, invalid operations and division by zero, and the next
gradient raises NonFiniteError, so the proposal is rejected.

The trajectory checks the state's size once, copies its beads into the
kernel row u of the context's workspace and its bead momenta into a fresh
array, and runs there: the rotations and drifts move the row in place,
and the Verlet steps take the forces straight from the kernel
`energy._hprime`, which reads that row, not through the public
`grad_hprime`. The kernel writes q, the staging adjoint's window product
and g_u into rows of the workspace, and the step scales that g_u row in
place for the kick, so the row is spent by the next kernel call. The
kernel keeps its boundary stage for the exact key (beta, gamma, u[::j] as
bytes); only the drifts move theta and the measurement beads, so of the 2P
gradients the first of each step after the first reuses the stage of the
step before. The measurement beads drift through the workspace row
``drift``. The returned state's beads are copied out of the row, so no
array it holds aliases the workspace.

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
    """Per-staging-bead oscillator data for the exact rotation, a function of
    (layout, masses, d_tau) alone; `build` returns one shared bank per key.

    Effective mass m = m'/dt is shared; the frequency per staging order k,
    omega_k = sqrt(T k / ((k-1) dt m)), decreases with k (``omega`` lists it
    per staging bead, in lattice order). The rotation tables for the half
    step dtau/2 and for the full step dtau are precomputed as ``half`` and
    ``full``, each the triple (cos, sin / (m omega), m omega sin) of its
    angle as flat length-(N-1) arrays over ``x[:-1]``: the measurement beads
    ``s*j`` hold the identity entries (1, 0, 0). ``omega`` and every table
    are read-only. The frequencies satisfy m omega_k^2 = T k / (dt (k-1))
    exactly, so the rotation conserves h_N to round-off.
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
            tables = np.zeros((3, n, j))
            tables[0, :, 0] = 1.0
            tables[0, :, 1:] = np.cos(angle)
            tables[1, :, 1:] = sin / m_omega
            tables[2, :, 1:] = m_omega * sin
            tables = tables.reshape(3, n * j)
            tables.setflags(write=False)
            object.__setattr__(self, name, tuple(tables))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def build(
        cls, layout: LatticeLayout, masses: MassConfig, d_tau: float
    ) -> "OscillatorBank":
        return cls(layout, masses, d_tau)


def _rotate_inplace(u: np.ndarray, p: np.ndarray, bank: OscillatorBank, full: bool = False):
    """Exact rotation of every staging oscillator by dtau/2 (by dtau with
    ``full``), in place, as flat operations on ``u[:-1]`` and ``p[:-1]``.

    Finite boundary beads come out exactly unchanged (identity table
    entries); h_N is conserved oscillator by oscillator.
    """
    if bank.omega.size == 0:
        return
    cos, sin_over_m_omega, m_omega_sin = bank.full if full else bank.half
    us = u[:-1]
    ps = p[:-1]
    kick = us * m_omega_sin
    us *= cos
    us += ps * sin_over_m_omega
    ps *= cos
    ps -= kick


def _verlet_inplace(
    p: np.ndarray, ctx: PathContext, masses: MassConfig, d_tau: float,
    beta: float, gamma: float, pa: float, pg: float,
) -> tuple:
    """One velocity-Verlet step of H' = h_n + h_1 on the kernel row u of
    ``ctx``, the bead momenta ``p`` (both mutated) and the Python floats
    beta, gamma, pi_beta and pi_gamma, returned as the tuple
    (beta, gamma, pa, pg) of the new values.

    Positions of measurement beads and parameters drift; staging positions
    stay put but all momenta receive the force kicks (force = -dH'/d(u, theta)).
    The forces come straight from the kernel `_hprime`: g_u is its workspace
    row, scaled in place by the kick, and the theta components are Python
    floats, bit-identical to the same operations on length-2 arrays. The
    step runs under `trotter_propagate`'s `_saturating`.
    """
    half = 0.5 * d_tau
    s = ctx._scratch
    ma, mg = masses.m_alpha
    g_u, g_beta, g_gamma = _hprime(beta, gamma, ctx, True)
    g_u *= half
    p -= g_u
    pa -= g_beta * half
    pg -= g_gamma * half
    s.u_b += np.multiply(p[:: ctx.layout.j], d_tau / masses.M, out=s.drift)
    beta += d_tau * pa / ma
    gamma += d_tau * pg / mg
    g_u, g_beta, g_gamma = _hprime(beta, gamma, ctx, True)
    g_u *= half
    p -= g_u
    return beta, gamma, pa - g_beta * half, pg - g_gamma * half


@_saturating
def trotter_propagate(
    state: PolymerState,
    ctx: PathContext,
    masses: MassConfig,
    config: IntegratorConfig,
) -> PolymerState:
    """Run the full trajectory: P repetitions of (half rotation, Verlet,
    half rotation), with the two half rotations between consecutive Verlet
    steps merged into one full rotation. Returns a new state that shares no
    array with the input or the workspace; the input is not modified. The
    rotation tables are the shared `OscillatorBank` of (ctx.layout, masses,
    config.d_tau), looked up on each call.

    Decorated with `energy._saturating`, the saturation policy of the five
    entry points (with `h_N`, `h_total`, `grad_hprime` and
    `sampler.hmc_iteration`): overflow, invalid operations and division by
    zero saturate to inf and NaN silently. The state size is checked once,
    up front; non-finite forces then raise NonFiniteError (the sampler
    counts that as a rejected proposal).
    """
    bank = OscillatorBank.build(ctx.layout, masses, config.d_tau)
    _check_size(state.u, ctx.layout, "u")
    u = ctx._scratch.rows.u
    np.copyto(u, state.u)
    p = state.p.copy()
    beta, gamma = state.theta.tolist()
    pa, pg = state.pi.tolist()
    _rotate_inplace(u, p, bank)
    for step in range(1, config.P + 1):
        beta, gamma, pa, pg = _verlet_inplace(p, ctx, masses, config.d_tau, beta, gamma, pa, pg)
        _rotate_inplace(u, p, bank, full=step < config.P)
    return PolymerState._trusted(u.copy(), np.array([beta, gamma]), p, np.array([pa, pg]))
