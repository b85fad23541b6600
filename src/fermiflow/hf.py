"""Mean-field (Hartree-Fock) dynamics in three equivalent formulations.

All three flows share one mean-field potential

    V(A) = diag(wmat @ diag A) - wmat ⊙ A,

whose two pieces are the direct (convolution with the occupation density)
and exchange (elementwise convolution kernel) terms; here wmat is the
Toeplitz kernel w(|i - j|) and the convolutions are zero padded, never
periodic. The orbital flow moves a frame of columns, the density flow moves
the one-particle density matrix gamma, and the factorized flow moves a root
kappa with gamma = kappa kappa†; the normalized orbital frame is such a
root, so its flow is the kappa flow. Each tested right-hand side is the
free term plus a mean-field part, and each flow runs that part, on the
system's flow kernel (w(0) zeroed, which V never sees), through one
interaction-picture stream, so the stiff free rotation is exact and a zero
potential propagates exactly: Gauss-Legendre collocation solved by Picard
sweeps (Dutt, Greengard and Rokhlin, BIT 40, 2000), whose windows take
their frames from one call of :meth:`ModeSystem.sector_frame` each, at
m = 1 here and on every level for the hierarchy of :mod:`fermiflow.graded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial, isclose

import numpy as np

from .errors import (CapacityError, DivergenceError, RangeError, ShapeError,
                     ValidationError)
from .modes import ModeSystem
from .sector import (PSectorOperator, compound_matrix, gram, marginal, slater,
                     trace_norm)

_GRAM_TOL = 1e-6


@dataclass
class HFConfig:
    """Integrator settings: ``dt`` sets no step but the allowance, dt⁴ per
    unit time as for RK4 at step dt, that each window's error is held to."""

    dt: float = 1e-3

    def __post_init__(self):
        if not 0 < self.dt <= 0.5:
            raise RangeError(f"dt={self.dt} outside (0, 0.5]")


def _check_fits(d: int, n: int):
    if n > d:
        raise RangeError(f"cannot hold {n} fermions in {d} modes")


@dataclass
class OrbitalSet:
    """An orthonormal frame of orbital columns (any other is refused); the
    columns over sqrt(N) sum, as rank-one projectors, to the trace-one
    density matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2:
            raise ShapeError("orbitals must form a (d, N) matrix")
        d, n = self.matrix.shape
        if n < 1:
            raise RangeError("an orbital set needs at least one column")
        _check_fits(d, n)
        deviation = np.max(np.abs(gram(self.matrix) - np.eye(n)))
        if deviation > _GRAM_TOL:
            raise ValidationError(f"columns are not orthonormal "
                                  f"(Gram deviation {deviation:.2e})")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def as_normalized(self) -> np.ndarray:
        """The columns divided by sqrt(N)."""
        return self.matrix / np.sqrt(self.n)

    def density(self) -> np.ndarray:
        """Trace-one one-particle density matrix of the frame."""
        psi = self.as_normalized()
        return psi @ psi.conj().T

    @classmethod
    def random(cls, rng: np.random.Generator, d: int, n: int) -> "OrbitalSet":
        """Haar-ish frame: QR of a complex Gaussian matrix."""
        _check_fits(d, n)
        raw = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
        q, _ = np.linalg.qr(raw)
        return cls(q)

    @classmethod
    def ground_state(cls, system: ModeSystem, n: int) -> "OrbitalSet":
        """The n lowest one-body eigenvectors (deterministic reference frame)."""
        _check_fits(system.d, n)
        _, vecs, _ = system._sector_rotation(1)
        return cls(vecs[:, :n])


def density_root(gamma: np.ndarray) -> np.ndarray:
    """The Hermitian root kappa of a density matrix, gamma = kappa kappa†,
    with negative eigenvalues of gamma clipped to zero."""
    vals, vecs = np.linalg.eigh(np.asarray(gamma))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def mean_field_potential(a: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """Direct-minus-exchange potential V(A); A need not be Hermitian, and a
    stack of matrices along leading axes gives the stack of potentials."""
    out = -(wmat * a)
    diagonal = np.einsum("...ii->...i", out)[..., None]    # a writeable view
    diagonal += wmat @ a.diagonal(0, -2, -1)[..., None]
    return out


def _mean_field_density(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The mean-field part -i[V(g), g] of :func:`hf_rhs_density`, with V on
    the pair kernel ``kernel``: what the density flow runs."""
    v = mean_field_potential(g, kernel)
    return -1j * (v @ g - g @ v)


def _mean_field_kappa(kappa: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The mean-field part -i V(kappa kappa†) kappa of :func:`hf_rhs_kappa`,
    with V on ``kernel``: what the orbital and factor flows run."""
    return -1j * mean_field_potential(
        kappa @ kappa.conj().swapaxes(-1, -2), kernel) @ kappa


def hf_rhs_density(gamma: np.ndarray, system: ModeSystem) -> np.ndarray:
    """Right-hand side of i dgamma/dt = [h + V(gamma), gamma]."""
    g = np.asarray(gamma)
    return (-1j * (system.h.dot(g) - g.dot(system.h))
            + _mean_field_density(g, system.wmat))


def hf_rhs_kappa(kappa: np.ndarray, system: ModeSystem) -> np.ndarray:
    """Right-hand side of i dkappa/dt = (h + V(kappa kappa†)) kappa."""
    return -1j * system.h.dot(kappa) + _mean_field_kappa(kappa, system.wmat)


def energy_functional(gamma: np.ndarray, system: ModeSystem) -> float:
    """Mean-field energy of a density: one-body part plus half (direct -
    exchange), the conserved quantity of all three flows; the i = j
    self-pairs cancel between direct and exchange."""
    g = np.asarray(gamma)
    dens = np.real(np.diag(g))
    one_body = np.real(np.trace(system.h @ g))
    direct = dens @ system.wmat @ dens
    exch = np.sum(system.wmat * np.abs(g) ** 2)
    return float(one_body + 0.5 * (direct - exch))


def quasi_free_marginal(gamma: np.ndarray, p: int) -> PSectorOperator:
    """Quasi-free p-particle reduced density: p! times the p-minors of gamma.

    This is the sector form of gamma^{⊗p} followed by the scaled
    antisymmetrizer; its trace is the sum of products of p distinct
    eigenvalues, hence at most one when tr gamma = 1.
    """
    g = np.asarray(gamma)
    d = g.shape[0]
    if not 1 <= p <= d:
        raise RangeError(f"marginal order p={p} outside [1, {d}]")
    return PSectorOperator(d, p, factorial(p) * compound_matrix(g, p))


@dataclass
class MarginalRelationReport:
    """Trace-norm gaps between quasi-free and contraction marginals."""

    n: int
    p: int
    prefactor: float
    exact_relation_gap: float   # ||gamma^(p) - prefactor * Gamma^(p)||_1
    plain_gap: float            # ||gamma^(p) - Gamma^(p)||_1
    bound: float                # p**2 / N


def marginal_relation_check(orbitals: OrbitalSet, p: int) -> MarginalRelationReport:
    """Compare the quasi-free marginal of gamma with the Slater contraction."""
    n = orbitals.n
    contraction = marginal(slater(orbitals.matrix), p)
    quasi = quasi_free_marginal(orbitals.density(), p)
    prefactor = factorial(p) * comb(n, p) / float(n) ** p
    return MarginalRelationReport(
        n=n, p=p, prefactor=prefactor,
        exact_relation_gap=trace_norm(quasi.mat - prefactor * contraction.mat),
        plain_gap=trace_norm(quasi.mat - contraction.mat),
        bound=p ** 2 / n,
    )


# ---------------------------------------------------------------------------
# Interaction-picture collocation driver and trajectories
# ---------------------------------------------------------------------------

_NODES = 6          # Gauss-Legendre nodes of a window
_WINDOW = 0.125     # longest window
_MAX_WINDOWS = 1 << 16   # most windows in one interval of the time grid
_MAX_HALVINGS = 7   # halvings of a window before the flow counts as divergent
_ROUNDOFF = 64 * np.finfo(float).eps   # relative update and error floor


@cache
def _collocation():
    """On a unit window: node times s_j and the end; rows integrating the
    nodes' Lagrange basis to each s_j and to 1 (the Gauss weights); the
    last two Legendre coefficients, exact by quadrature, times the largest
    |∫_0^{s_j} P_n(2s - 1) ds|; and rows extrapolating values at 0 and s_j
    to 1 + s_j and 2. Built on first use; numpy.polynomial.legendre is
    already loaded then, as :mod:`fermiflow.tree` imports it."""
    from numpy.polynomial.legendre import leggauss, legint, legval, legvander
    x, w = leggauss(_NODES)
    to_legendre = legvander(x, _NODES - 1).T * w * (np.arange(_NODES)[:, None] + .5)
    p = legval(x, legint(np.eye(_NODES + 1), lbnd=-1)).T / 2
    src, dst = np.r_[-1.0, x], np.r_[x + 2, 3.0]   # no LAPACK solve: +0.3 MB RSS
    ahead = (np.prod(dst[:, None] - src, 1)[:, None] / (dst[:, None] - src)
             / np.prod(src[:, None] - src + np.eye(_NODES + 1), 1))
    return (np.append((1 + x) / 2, 1.0)[:, None, None],
            np.vstack([p[:, :_NODES] @ to_legendre, w / 2]),
            to_legendre[-2:] * np.max(np.abs(p[:, _NODES])), ahead)


def _turn(f, x, both_sides: bool):
    return f @ x @ f.conj().swapaxes(-1, -2) if both_sides else f @ x


def _window(y0, u, rhs, span: float, both_sides: bool, allowance, start=None):
    """The blocks y at the nodes and end of a window, by Picard sweeps from
    ``start`` (y_0 if None) to round-off on y_j = y_0 + span Σ_k S_jk G_k,
    G = u† rhs(u y (u†)) (u), rhs taking the node stacks, and the node error
    estimate: G's first neglected Legendre coefficient, extrapolated from the
    last two, integrated. None if the sweeps stop contracting or the estimate
    exceeds allowance·span and round-off."""
    _, integrate, tail, _ = _collocation()
    roundoff = _ROUNDOFF * max(np.max(np.abs(b)) for b in y0)
    ys, prev = start or [np.stack([b] * (_NODES + 1)) for b in y0], np.inf
    while prev > roundoff:
        xs = [_turn(f[:_NODES], y[:_NODES], both_sides) for f, y in zip(u, ys)]
        gs = [_turn(f[:_NODES].conj().swapaxes(1, 2), g,
                    both_sides).reshape(_NODES, -1) for f, g in zip(u, rhs(xs))]
        new = [b + span * (integrate @ g).reshape(y.shape)
               for b, g, y in zip(y0, gs, ys)]
        delta = max(np.max(np.abs(a - b)) for a, b in zip(new, ys))
        if not (delta <= roundoff or delta <= prev / 2):   # growing, stalled
            return None                                    # or non-finite
        ys, prev = new, delta
    estimate = max(span * last * (min(1.0, last / before) if before else 1.0)
                   for before, last in (np.abs(tail @ g).max(1) for g in gs))
    return (ys, estimate) if estimate <= max(allowance * span, roundoff) else None


def _interaction_stream(x0: list, frames, t_grid, rhs, allowance: float,
                        both_sides: bool = False):
    """Lab-frame states (t, x, error) of dx/dt = -i[H0, x] + rhs(x), or of
    dx/dt = -i H0 x + rhs(x) unless ``both_sides``, for x a list of blocks:
    y = u† x (u) moves, so the free rotation is exact, in frames u solving
    du/dt = -i H0 u that ``frames`` gives at a (T, 1, 1) array of times, once
    per window of at most ``_WINDOW``; a refused window is halved, one as
    long as the last accepted starts from its extrapolation. ``error`` is
    the largest estimate so far."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ShapeError("t_grid must be a non-empty 1d array")
    if not np.all(np.isfinite(t_grid)):
        raise RangeError("t_grid must be finite")
    if len(t_grid) > 1 and np.min(np.diff(t_grid)) <= 0:
        raise RangeError("t_grid must be strictly increasing")
    windows = np.ceil(np.diff(t_grid, prepend=t_grid[0]) / _WINDOW
                      * (1 - 1e-12))
    if np.max(windows) > _MAX_WINDOWS:
        raise CapacityError(f"an interval needs over {_MAX_WINDOWS} windows")
    ahead, carried = _collocation()[3], (0.0, None)
    # every recorded state, the first included (a pass with no window), is
    # rotated out of y by its frame, so the frames' rounding is common to all
    u = frames(t_grid[:1, None, None])
    y, worst = [_turn(f[0].conj().T, b, both_sides) for f, b in zip(u, x0)], 0.0
    for t0, t1, count in zip(np.r_[t_grid[0], t_grid[:-1]], t_grid, windows):
        ends = np.linspace(t0, t1, 1 + int(count))
        pending = [(a, b, 0) for a, b in zip(ends[:-1], ends[1:])]
        while pending:
            a, b, depth = pending.pop(0)
            u = frames(a + (b - a) * _collocation()[0])
            step = _window(y, u, rhs, b - a, both_sides, allowance,
                           carried[1] if isclose(carried[0], b - a) else None)
            if step is not None:
                carried = b - a, [np.tensordot(ahead, np.concatenate(
                    [y0[None], v[:_NODES]]), 1) for y0, v in zip(y, step[0])]
                y, worst = [v[-1] for v in step[0]], max(worst, step[1])
            elif depth < _MAX_HALVINGS:
                pending[:0] = [(a, (a + b) / 2, depth + 1),
                               ((a + b) / 2, b, depth + 1)]
            else:
                raise DivergenceError(
                    f"mean-field window at t={a:.6g} fails after {_MAX_HALVINGS}"
                    f" halvings: no contraction, or error over the allowance")
        yield t1, [_turn(f[-1], b, both_sides) for f, b in zip(u, y)], worst


@dataclass
class Trajectory:
    """Recorded times, states and conservation diagnostics of one flow:
    ``gram_drift`` of a frame (NaN for other states), ``spectrum_drift`` of
    the density's spectrum from the start, ``integration_error`` the largest
    window error estimate, ``sweeps`` the Picard sweeps, one rhs call each."""

    times: np.ndarray
    states: list
    energy: np.ndarray
    gram_drift: np.ndarray
    spectrum_drift: np.ndarray
    trace: np.ndarray
    config: HFConfig
    integration_error: float
    sweeps: int

    def final(self):
        return self.states[-1]


def _record(x0, system: ModeSystem, t_grid, mean_field, config,
            density, gram_drift=None, both_sides: bool = False) -> Trajectory:
    """Trajectory of the flow whose right-hand side is the free term plus
    ``mean_field(x, kernel)``, measured through ``density(state)``; the Gram
    drift column is ``gram_drift(t, state)``, NaN without it."""
    if len(x0) != system.d:
        raise ValidationError("start and system mode counts differ")
    config, kernel, sweeps = config or HFConfig(), system._flow_kernel(), []
    times, states, rows, spec0 = [], [], [], None
    for t, (state,), error in _interaction_stream(
            [x0], lambda t: [system.sector_frame(1, t)], t_grid,
            lambda x: sweeps.append(1) or [mean_field(x[0], kernel)],
            config.dt ** 4, both_sides):
        dens = density(state)
        spec = np.linalg.eigvalsh(dens)
        spec0 = spec if spec0 is None else spec0
        times.append(t)
        states.append(state)
        rows.append((energy_functional(dens, system),
                     gram_drift(t, state) if gram_drift else float("nan"),
                     float(np.max(np.abs(spec - spec0))),
                     float(np.real(np.trace(dens)))))
    columns = (np.array(col) for col in zip(*rows))
    return Trajectory(np.array(times), states, *columns, config, error, len(sweeps))


def evolve_hf_orbitals(orbitals: OrbitalSet, system: ModeSystem, t_grid,
                       config: HFConfig | None = None) -> Trajectory:
    """Integrate the orbital flow, recording conservation diagnostics.

    This is the kappa flow (:func:`hf_rhs_kappa`) of the normalized frame,
    recorded as orthonormal frames. The flow preserves the
    Gram matrix; a recorded frame whose Gram matrix has drifted by more
    than the frame tolerance raises :class:`DivergenceError`.
    """
    config = config or HFConfig()
    factor = np.sqrt(orbitals.n)
    g0 = gram(orbitals.matrix)

    def gram_drift(t, psi):
        drift = float(np.max(np.abs(gram(factor * psi) - g0)))
        if drift > _GRAM_TOL:
            raise DivergenceError(
                f"orbital Gram drift {drift:.2e} at t={t} exceeds "
                f"{_GRAM_TOL:.0e}; lower the allowance dt={config.dt}")
        return drift

    traj = _record(orbitals.as_normalized(), system, t_grid, _mean_field_kappa,
                   config, lambda psi: psi @ psi.conj().T, gram_drift)
    traj.states = [OrbitalSet(factor * psi) for psi in traj.states]
    return traj


def evolve_hf_density(gamma0: np.ndarray, system: ModeSystem, t_grid,
                      config: HFConfig | None = None) -> Trajectory:
    """Integrate the density-matrix flow i dgamma/dt = [h + V(gamma), gamma]
    (:func:`hf_rhs_density`)."""
    return _record(np.asarray(gamma0), system, t_grid, _mean_field_density,
                   config, lambda g: g, both_sides=True)


def evolve_kappa(kappa0: np.ndarray, system: ModeSystem, t_grid,
                 config: HFConfig | None = None) -> Trajectory:
    """Integrate the factorized flow i dkappa/dt = (h + V(kappa kappa†)) kappa
    (:func:`hf_rhs_kappa`), from a root such as :func:`density_root` gives."""
    return _record(np.asarray(kappa0), system, t_grid, _mean_field_kappa,
                   config, lambda k: k @ k.conj().T)
