"""Path lattice, staging coordinates, and polymer state.

The inference discretizes the path q(t) on N = n*j + 1 equidistant beads:
n+1 heavy measurement beads at the observation times and j-1 light beads
inside each of the n segments. Within segment s (0-based, beads s*j .. (s+1)*j)
the intermediate beads are replaced by staging coordinates

    u[s*j + m] = q[s*j + m] - (m q[s*j + m + 1] + q[s*j]) / (m + 1),   m = 1..j-1,

while boundary beads keep u = q. The map is linear, invertible segment by
segment through the backward recursion

    q[s*j + m] = u[s*j + m] + (m/(m+1)) q[s*j + m + 1] + (1/(m+1)) u[s*j],

evaluated for m = j-1 down to 1. Unrolled, each segment's beads are one
fixed linear combination of the j+1 coordinates u[s*j .. s*j + j] it spans,
both boundaries included. So the inverse map and its transpose are each one
block product per call: the (n, j+1) overlapping window view of u times a
frozen (j+1, j) block. That is O(N j) work, but in a single NumPy call
instead of a scan of small ones. The map diagonalizes the nearest-neighbour
harmonic coupling of the discretized action: the identity

    sum_i (T / 2 dt) (q_i - q_{i-1})^2
      = (T/2) sum_s [ (q_left(s) - q_right(s))^2 / (j dt)
                      + sum_{k=2..j} (k / ((k-1) dt)) u_k^2 ]

is exercised by the tests. The adjoint (transpose) of the u -> q map is
what gradient evaluation chains through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _count, _frozen, _positive, _positive_pair, _rule, _set
from .model import DimensionlessParams, InputSignal, TimeSeriesData, _signal_over

__all__ = [
    "LatticeLayout",
    "MassConfig",
    "PolymerState",
    "staging_forward",
    "staging_inverse",
    "staging_adjoint",
    "initial_state",
]


@_frozen
class LatticeLayout:
    """Geometry of the path lattice: n segments of j steps over [0, T].

    Construction freezes the lattice's constant tables once, as read-only
    arrays: the staging stiffness per order, and the constants of the
    staging map. No bead needs an index table: on a length-N array x the
    measurement beads, 0-based indices s*j for s = 0..n, are the strided
    view ``x[::j]``, and the staging beads the (n, j-1) view `staging` (x),
    so kernels read and write them without index gathers.

    ``staging_block`` is the (j+1, j) matrix B of the staging inverse on one
    segment: q[s*j + m] = sum_l u[s*j + l] B[l, m], with B[0, m] = (j-m)/j
    and B[l, m] = m/l for 1 <= m <= l <= j (zero above the diagonal).
    ``staging_block_t`` is its C-ordered transpose, which the adjoint's
    product takes at half the cost of the transposed view.

    ``flat_stiffness`` runs over the contiguous first N-1 beads ``x[:-1]``
    (the last bead is always a measurement bead): the staging stiffness at
    the staging beads and 0 at the measurement beads ``s*j``. The (2, N)
    ``bead_classes`` holds 1.0 at the staging beads in row 0 and at the
    measurement beads in row 1, and 0 elsewhere. A sum over the staging
    beads, or one over each class at once, is then one product with a
    contiguous table instead of work on the strided views.
    """

    n: int = _rule(_count)
    j: int = _rule(_count)
    T: float = _rule(_positive)
    N: int = field(init=False)
    dt: float = field(init=False)
    stiffness: np.ndarray = field(init=False, repr=False)
    staging_block: np.ndarray = field(init=False, repr=False)
    staging_block_t: np.ndarray = field(init=False, repr=False)
    flat_stiffness: np.ndarray = field(init=False, repr=False)
    bead_classes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, j = self.n, self.j
        dt = self.T / (n * j)
        k = np.arange(2, j + 1, dtype=float)
        cols = np.arange(j, dtype=float)
        block = np.tril(cols / np.maximum(np.arange(j + 1.0), 1.0)[:, None])
        block[0] = (j - cols) / j
        stiffness = self.T * k / (dt * (k - 1.0))
        flat_stiffness = np.zeros((n, j))
        flat_stiffness[:, 1:] = stiffness
        bead_classes = np.zeros((2, n * j + 1))
        bead_classes[0, :-1].reshape(n, j)[:, 1:] = 1.0
        bead_classes[1, ::j] = 1.0
        _set(
            self, N=n * j + 1, dt=dt, stiffness=stiffness, staging_block=block,
            staging_block_t=np.ascontiguousarray(block.T),
            flat_stiffness=flat_stiffness.reshape(-1), bead_classes=bead_classes,
        )

    @property
    def times(self) -> np.ndarray:
        """Bead times t_i = (i-1) dt, i = 1..N (returned 0-based)."""
        return np.linspace(0.0, self.T, self.N)

    def staging(self, x: np.ndarray) -> np.ndarray:
        """The staging beads of a length-N array as an (n, j-1) view, one row
        per segment; ``stiffness`` (staging order k = 2..j) broadcasts over it."""
        return x[:-1].reshape(self.n, self.j)[:, 1:]


@_frozen
class MassConfig:
    """Effective masses: M for measurement beads, m_prime for staging beads
    (the staging kinetic term is dt p^2 / (2 m_prime), i.e. oscillator mass
    m_prime/dt), and m_alpha for the two parameters (beta, gamma)."""

    M: float = _rule(_positive)
    m_prime: float = _rule(_positive)
    m_alpha: tuple[float, float] = _rule(_positive_pair)


@dataclass
class PolymerState:
    """Positions and momenta of the extended system.

    u: staged path coordinates (length N); theta = (beta, gamma);
    p: bead momenta (length N); pi: parameter momenta (length 2).
    """

    u: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.u.shape != self.p.shape or self.u.ndim != 1:
            raise ValidationError("u and p must be 1-d arrays of equal length")
        if self.theta.shape != (2,) or self.pi.shape != (2,):
            raise ValidationError("theta and pi must have shape (2,)")


def _check_size(x: np.ndarray, layout: LatticeLayout, name: str):
    if x.ndim != 1 or x.size != layout.N:
        raise ValidationError(f"{name} must be 1-d of length N={layout.N}, got shape {x.shape}")


def staging_forward(q: np.ndarray, layout: LatticeLayout) -> np.ndarray:
    """Map bead positions q to staging coordinates u (boundaries unchanged)."""
    q = np.asarray(q, dtype=float)
    _check_size(q, layout, "q")
    u = q.copy()
    qs = q[:-1].reshape(layout.n, layout.j)  # qs[s, m] = q[s*j + m]
    qn = q[1:].reshape(layout.n, layout.j)   # qn[s, m] = q[s*j + m + 1]
    m = np.arange(1.0, layout.j)
    layout.staging(u)[...] = qs[:, 1:] - (m * qn[:, 1:] + qs[:, :1]) / (m + 1.0)
    return u


def staging_inverse(u: np.ndarray, layout: LatticeLayout) -> np.ndarray:
    """Map staging coordinates u back to bead positions q: per segment the
    backward recursion of the module docstring, unrolled into the block
    product ``windows @ staging_block`` (see `LatticeLayout`)."""
    u = np.asarray(u, dtype=float)
    _check_size(u, layout, "u")
    rows = _StagingRows(layout)
    np.copyto(rows.u, u)
    rows.inverse()
    return rows.q


def staging_adjoint(g_q: np.ndarray, layout: LatticeLayout) -> np.ndarray:
    """Apply the transpose of the u -> q map to a gradient w.r.t. q.

    If q = A u with A the (linear) staging inverse, this returns A^T g_q,
    the chain-rule factor taking dH/dq to dH/du: per segment
    ``g_q[s*j : s*j + j] @ staging_block.T``, whose last entry belongs to the
    right boundary bead that the next segment starts with.
    """
    g_q = np.asarray(g_q, dtype=float)
    _check_size(g_q, layout, "g_q")
    rows = _StagingRows(layout)
    np.copyto(rows.g_q, g_q)
    return rows.adjoint()


class _StagingRows:
    """The length-N rows ``u``, ``q``, ``g_q`` and ``g_u`` of the staging
    maps, with every view their block products take of them, built once.

    The caller may hand in the rows ``u`` and ``q`` (any contiguous length-N
    arrays, such as rows of a larger stack); the others are allocated here.
    ``inverse`` writes q from u through the (n, j+1) window view of u, whose
    row s is u[s*j .. s*j + j] (neighbouring rows share their boundary
    bead), and the (n, j) blocks ``q[:-1].reshape(n, j)``. ``adjoint``
    writes g_u from g_q through the (n, j) blocks of g_q and g_u, the
    (n, j+1) window product ``g_win`` with its left (n, j) part and right
    column, and the view ``g_u[j::j]`` of the beads that end a segment.
    In-place writes to a row show through its views, so a caller loads a
    row and calls a map, as often as it likes.
    """

    __slots__ = (
        "u", "q", "g_q", "g_u", "block", "block_t", "windows", "q_blocks",
        "gq_blocks", "g_win", "win_left", "win_right", "gu_blocks", "gu_ends",
    )

    def __init__(
        self, layout: LatticeLayout, u: np.ndarray | None = None, q: np.ndarray | None = None
    ):
        n, j, N = layout.n, layout.j, layout.N
        self.u = np.empty(N) if u is None else u
        self.q = np.empty(N) if q is None else q
        self.g_q, self.g_u = np.empty(N), np.empty(N)
        self.block, self.block_t = layout.staging_block, layout.staging_block_t
        step = self.u.itemsize
        self.windows = np.ndarray((n, j + 1), buffer=self.u, strides=(j * step, step))
        self.q_blocks = self.q[:-1].reshape(n, j)
        self.gq_blocks = self.g_q[:-1].reshape(n, j)
        self.g_win = np.empty((n, j + 1))
        self.win_left, self.win_right = self.g_win[:, :j], self.g_win[:, j]
        self.gu_blocks = self.g_u[:-1].reshape(n, j)
        self.gu_ends = self.g_u[j::j]

    def inverse(self) -> None:
        """Write q from u."""
        self.windows.dot(self.block, out=self.q_blocks)
        self.q[-1] = self.u[-1]

    def adjoint(self) -> np.ndarray:
        """Write g_u from g_q, and return it."""
        self.gq_blocks.dot(self.block_t, out=self.g_win)
        self.gu_blocks[...] = self.win_left
        self.g_u[-1] = self.g_q[-1]
        self.gu_ends += self.win_right
        return self.g_u


def _check_data(data: TimeSeriesData, layout: LatticeLayout):
    """Raise ValidationError unless ``data`` spans the layout's n segments
    and its horizon T (to a relative 1e-9)."""
    if data.n_segments != layout.n:
        raise ValidationError(f"data has {data.n_segments} segments, layout expects {layout.n}")
    if abs(data.horizon - layout.T) > 1e-9 * layout.T:
        raise ValidationError(f"data horizon {data.horizon} != lattice horizon {layout.T}")


def initial_state(
    data: TimeSeriesData,
    signal: InputSignal,
    theta0: DimensionlessParams,
    layout: LatticeLayout,
) -> PolymerState:
    """Starting state: boundary beads pinned to the noise-free reading of the
    data, q_s = ln(y_s / r(t_s)) / beta, intermediate beads on the straight
    line between them (staging coordinates exactly zero), momenta zeroed.
    r is read at the data times through `model._signal_over`, so a signal
    that cannot be read there is the plan's ValidationError."""
    _check_data(data, layout)
    r_meas = _signal_over(signal, data.times)
    q_bound = np.log(data.values / r_meas) / theta0.beta
    u = np.zeros(layout.N)
    u[:: layout.j] = q_bound
    return PolymerState(
        u=u,
        theta=np.array([theta0.beta, theta0.gamma]),
        p=np.zeros(layout.N),
        pi=np.zeros(2),
    )
