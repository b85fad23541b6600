"""Commutator-tree expansion of many-body Heisenberg dynamics.

The exact Heisenberg evolution of a lifted p-particle observable expands,
order by order in the pair coupling, into operators built by repeatedly
inserting interaction commutators under free evolution. Each insertion
either attaches a fresh particle (raising the particle count by one) or
couples two already-present particles (a closed loop). Pure attachment
chains form the leading series; every loop costs one inverse particle
number when the result is lifted back to the N-particle space.

The loop-free series is evaluated directly on antisymmetric sectors:
attachment steps use the sparse coisometry tables from
:mod:`fermiflow.sector`, and nested Gauss-Legendre nodes over the ordered
time simplex share their prefix evaluations, so one sweep yields every
order at once. The sweep holds its operands in the eigenbasis of the free
sector Hamiltonians, where free evolution is an elementwise phase, every
rotation is a real product with an eigen-minor matrix, and no propagator
is built. Loops enter only through the exact remainder of
:func:`loop_remainder`; the fixed-time recursion over both kinds of
insertion, on dense sector propagators, is the oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

import os
import sys
import warnings as _warnings
from dataclasses import dataclass, field
from math import comb, pi

import numpy as np
from numpy.polynomial.legendre import leggauss  # loaded lazily otherwise

from .errors import NumericError, RangeError, ShapeError, ValidationError
from .exact import heisenberg_observable, second_quantize
from .hf import HFConfig, OrbitalSet, evolve_hf_density, quasi_free_marginal
from .modes import ModeSystem
from .sector import PSectorOperator, project_lift_pair_commutator, slater

MAX_NODES_PER_LEVEL = 256        # Gauss-Legendre nodes of the coarse sweep
MAX_INSERTIONS = 1 << 20         # insertions of a coarse and a fine sweep

_PACKAGE = os.path.dirname(__file__) + os.sep


@dataclass
class QuadratureSpec:
    """Nested Gauss-Legendre settings for ordered-time integrals. A series
    sweeps n = ``nodes_per_level`` and 2n nodes per level, sum_{k <= k_max}
    (n^k + (2n)^k) insertions; more than ``MAX_NODES_PER_LEVEL`` nodes or
    ``MAX_INSERTIONS`` insertions are refused before any node is built."""

    nodes_per_level: int = 6
    k_max: int = 3

    def __post_init__(self):
        n, k_max = self.nodes_per_level, self.k_max
        if n < 2:
            raise RangeError("need at least two quadrature nodes per level")
        if n > MAX_NODES_PER_LEVEL:
            raise RangeError(
                f"more than {MAX_NODES_PER_LEVEL} quadrature nodes per level")
        if k_max < 0:
            raise RangeError("truncation order must be non-negative")
        insertions = 0
        for k in range(1, k_max + 1):    # (2n)^k >= 4^k: a few passes at most
            insertions += n ** k + (2 * n) ** k
            if insertions > MAX_INSERTIONS:
                raise RangeError(f"quadrature of {n} nodes to order {k_max} "
                                 f"needs over {MAX_INSERTIONS} insertions")


def reported_radius(kappa: float) -> float:
    """The reported small-time radius 1/(2^11 pi kappa^2) of a positive
    interaction strength kappa."""
    if not kappa > 0:
        raise RangeError("kappa must be positive")
    # kappa ** 2 raises past 1.3e154; the product overflows to radius 0
    return 1.0 / (2 ** 11 * pi * (kappa * kappa))


def _zero_sector_matrix(d: int, m: int) -> np.ndarray:
    dim = comb(d, m) if 0 <= m <= d else 0
    return np.zeros((dim, dim), dtype=complex)


def sector_propagator(system: ModeSystem, m: int, t: float) -> np.ndarray:
    """Free m-particle sector propagator, the minor matrix of exp(-i t h):
    the sector frame times the adjoint eigen-minor matrix."""
    return system.sector_frame(m, t) @ system._sector_rotation(m)[2]


def free_evolve_op(a: PSectorOperator, system: ModeSystem,
                   t: float) -> PSectorOperator:
    """Free Heisenberg evolution at sector level: F(t)† a F(t)."""
    if a.d != system.d:
        raise ValidationError("observable and system mode counts differ")
    f = sector_propagator(system, a.p, t)
    return PSectorOperator(a.d, a.p, f.conj().T @ a.mat @ f)


def _gl_nodes(n: int):
    xs, ws = leggauss(n)
    return (xs + 1.0) / 2.0, ws / 2.0


def _rotate(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v xᵀ vᵀ for a real square v and a C-contiguous complex x: two real
    products, each one GEMM on the float view of a complex operand, at half
    the multiply-adds of a complex product, with one transpose copy between."""
    vx = v @ x.view(float)
    return np.matmul(v, vx.view(complex).T.copy().view(float),
                     out=vx).view(complex)


def _integrate_orders(a: PSectorOperator, K: int, t: float, nodes: int,
                      system: ModeSystem) -> list:
    """Simplex integrals of the loop-free operators for every order <= K,
    in site basis.

    One nested sweep: the node tree over t >= s_1 >= ... >= s_K shares
    each prefix operator between all orders, and every node adds its
    operator, the quadrature weights of its path folded in, straight into
    the total of its order. The free propagator of time s on the m-sector
    is V_m diag(e_m(s)) V_mᵀ, with the real eigen-minor matrix V_m and the
    phases e_m(s) = exp(-i s λ_m). So operands are held in that eigenbasis,
    x̃ = V_mᵀ x V_m, where free evolution is elementwise: a node at s of
    weight w lifts z = V_{m-1}((e ⊗ ē) ∘ x̃)V_{m-1}ᵀ, with e = e_{m-1}(s),
    and gives i w (ē ⊗ e) ∘ (V_mᵀ lifted V_m), with e = e_m(s). The phases
    of all children of a node come from one call. Each rotation is two real
    products (:func:`_rotate`), which take and give the transpose, so every
    operand is held as x̃ᵀ and the phase factors are transposed to match.
    The base is (ē ⊗ e) ∘ (V_pᵀ A V_p) at time t, and each total returns to
    site basis once, as V_m x̃ V_mᵀ. The oracle is the propagator route in
    ``tests/oracles.py``, which rebuilds every chain at the same nodes
    through dense site-basis propagators, no prefix shared.
    """
    if K < 0:
        raise RangeError("truncation order must be non-negative")
    if a.p + K > system.d:
        raise RangeError(
            f"order {K} would need {a.p + K} particles in {system.d} modes")
    x01, w01 = _gl_nodes(nodes)
    rotations = [system._sector_rotation(a.p + k) for k in range(K + 1)]
    e = np.exp(-1j * t * rotations[0][0])
    totals = [np.multiply.outer(e, e.conj())
              * _rotate(rotations[0][2], np.ascontiguousarray(a.mat))]
    totals += [_zero_sector_matrix(a.d, a.p + k) for k in range(1, K + 1)]

    def descend(level, upper, x_prev):
        m, total = a.p + level, totals[level]
        (lam_small, v_small, _), (lam_big, _, vt_big) = \
            rotations[level - 1:level + 1]
        entries = system._lift(m)
        s = upper * x01
        # the phases of both sectors for every child in one call, split into
        # the row and column factors of ē ⊗ e and of i w e ⊗ ē per child
        phases = np.exp(-1j * np.multiply.outer(
            s, np.concatenate((lam_small, lam_big))))
        small, big = phases[:, :len(lam_small)], phases[:, len(lam_small):]
        small_rows, big_cols = small.conj()[:, :, None], big.conj()
        big_rows = ((1j * upper * w01)[:, None] * big)[:, :, None]
        for j in range(nodes):
            z = small_rows[j] * x_prev
            z *= small[j]
            lifted = project_lift_pair_commutator(
                _rotate(v_small, z), entries, system.d, m)
            y = _rotate(vt_big, lifted)
            y *= big_rows[j]
            y *= big_cols[j]
            total += y
            if level < K:
                descend(level + 1, s[j], y)

    if K > 0 and t != 0.0:
        descend(1, t, totals[0])
    # descend reaches itself through its closure; break that cycle here, or
    # the operands it holds wait for the next cyclic garbage collection
    del descend
    for k, x in enumerate(totals):
        totals[k] = _rotate(rotations[k][1], x)
        if not np.all(np.isfinite(totals[k])):
            raise NumericError(f"non-finite quadrature total at order {k}")
    return totals


def _coarse_and_fine(a: PSectorOperator, K: int, t: float,
                     quad: QuadratureSpec, system: ModeSystem) -> tuple:
    """Plain-kernel sweeps at the configured node count and at twice it;
    results use the fine one, and the gap between them is the quadrature
    error."""
    return tuple(_integrate_orders(a, K, t, nodes, system)
                 for nodes in (quad.nodes_per_level, 2 * quad.nodes_per_level))


def _spectral_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, 2))


def check_time_guard(system: ModeSystem, t: float, override: bool) -> list:
    """Enforce the reported small-time radius unless overridden.

    Returns advisory strings; raises when t exceeds the radius and no
    override was requested. A zero coupling has no radius to enforce.
    """
    if system.kappa == 0.0:
        return []
    radius = reported_radius(system.kappa)
    if t <= radius:
        return []
    if not override:
        raise RangeError(
            f"time {t} exceeds the reported convergence radius "
            f"{radius:.3e}; pass override_time_guard=True to proceed")
    return [f"time {t} beyond reported radius {radius:.3e} (override)"]


@dataclass
class TreeSeries:
    """Per-order pairing values and partial sums for both insertion kernels."""

    p: int
    t: float
    terms: np.ndarray              # plain kernel, orders 0..K
    terms_exchange: np.ndarray     # exchange-corrected kernel
    quad_errors: np.ndarray
    tail_estimate: float
    warnings: list = field(default_factory=list)

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.terms)

    @property
    def partial_sums_exchange(self) -> np.ndarray:
        return np.cumsum(self.terms_exchange)

    @property
    def total(self) -> complex:
        return complex(self.partial_sums[-1])


def _geometric_tail(norms, vanishing: bool) -> tuple:
    """Tail past the per-order ``norms`` and its warnings: zero if those
    orders are ``vanishing``, else the last ratio extrapolated geometrically,
    or inf with a warning when there are too few terms or they do not shrink."""
    if vanishing:
        return 0.0, []
    if len(norms) < 2 or norms[-2] == 0.0:
        return float("inf"), ["too few terms for a tail estimate"]
    ratio = norms[-1] / norms[-2]
    if ratio >= 1.0:
        return float("inf"), [
            f"series terms not decreasing (last ratio {ratio:.3f})"]
    return norms[-1] * ratio / (1.0 - ratio), []


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that attributes a warning raised by the caller of
    this function to the first frame outside the package."""
    frame, level = sys._getframe(1), 1
    while (frame.f_back is not None
           and frame.f_code.co_filename.startswith(_PACKAGE)):
        frame, level = frame.f_back, level + 1
    return level


def _series(a: PSectorOperator, t: float, quad: QuadratureSpec,
            system: ModeSystem, override_time_guard: bool,
            capacity: int, read, size) -> tuple:
    """The loop-free series of ``a`` up to order K = ``quad.k_max``, read
    order by order.

    ``read(m, x)`` turns the order-k operator x on m = p + k particles
    into a value and ``size`` measures a value. Returns the fine sweep's
    values, their sizes, each order's quadrature error (the size of the
    coarse reading minus the fine one), the tail past K and the warnings
    of the time guard and of the tail rule, whose warnings are also raised
    as ``RuntimeWarning`` at the first calling line outside the package.
    The tail vanishes when orders past K would hold more than ``capacity``
    particles, without a coupling, or at t = 0.
    """
    if a.d != system.d:
        raise ValidationError("observable and system mode counts differ")
    K = quad.k_max
    warn = check_time_guard(system, t, override_time_guard)
    coarse, fine = _coarse_and_fine(a, K, t, quad, system)
    values = [read(a.p + k, x) for k, x in enumerate(fine)]
    sizes = [size(v) for v in values]
    errors = [size(read(a.p + k, x) - v)
              for k, (x, v) in enumerate(zip(coarse, values))]
    tail, tail_warn = _geometric_tail(
        sizes, a.p + K >= capacity or system.kappa == 0.0 or t == 0.0)
    for message in tail_warn:
        _warnings.warn(message, RuntimeWarning,
                       stacklevel=_outside_stacklevel())
    return values, sizes, errors, tail, warn + tail_warn


def tree_series(a: PSectorOperator, gamma, t: float, quad: QuadratureSpec,
                system: ModeSystem,
                override_time_guard: bool = False) -> TreeSeries:
    """Pair every integrated loop-free order against powers of gamma.

    Term k is the trace of the order-k operator against the scaled
    antisymmetrized (p+k)-fold power of gamma. The exchange-corrected
    kernel multiplies each insertion by two on the antisymmetric subspace,
    so its order-k term is 2^k times the plain one; both are reported.
    """
    g = np.asarray(gamma)
    if g.shape != (system.d, system.d):
        raise ShapeError(f"density of shape {g.shape} on {system.d} modes")
    terms, _, quad_errors, tail, warn = _series(
        a, t, quad, system, override_time_guard, system.d,
        lambda m, x: complex(np.trace(x @ quasi_free_marginal(g, m).mat)),
        np.abs)
    terms = np.array(terms)
    return TreeSeries(p=a.p, t=t, terms=terms,
                      terms_exchange=terms * (2.0 ** np.arange(terms.size)),
                      quad_errors=np.array(quad_errors), tail_estimate=tail,
                      warnings=warn)


@dataclass
class LoopRemainder:
    """Residual after subtracting the quantized loop-free series."""

    n: int
    p: int
    t: float
    norm: float
    slater_expectation: complex
    term_norms: np.ndarray
    tail_estimate: float
    quad_error: float
    warnings: list = field(default_factory=list)


def lifted_series(a: PSectorOperator, system: ModeSystem, t: float, n: int,
                  quad: QuadratureSpec,
                  override_time_guard: bool = False) -> tuple:
    """The loop-free series of ``a`` on n particles: the sum of its orders,
    each second-quantized at capacity n, their spectral norms, their
    quadrature errors in that norm, the tail past ``quad.k_max`` (0 once
    those orders hold more than n particles) and the warnings."""
    terms, norms, quad_errors, tail, warn = _series(
        a, t, quad, system, override_time_guard, n,
        lambda m, x: second_quantize(PSectorOperator(a.d, m, x), n).mat,
        _spectral_norm)
    return sum(terms), norms, quad_errors, tail, warn


def loop_remainder(a: PSectorOperator, orbitals: OrbitalSet,
                   system: ModeSystem, t: float, quad: QuadratureSpec,
                   override_time_guard: bool = False) -> LoopRemainder:
    """Exact Heisenberg flow minus the lifted loop-free series, on N particles.

    Returns the operator norm of the residual and its expectation in the
    Slater state of the given frame. The tail estimate extrapolates the
    lifted term norms geometrically; if it fails to sit below the residual
    the result carries a diagnostic warning.
    """
    if orbitals.d != system.d:
        raise ValidationError("orbitals and system mode counts differ")
    n = orbitals.n
    series, term_norms, quad_errors, tail, warn = lifted_series(
        a, system, t, n, quad, override_time_guard)
    residual = heisenberg_observable(a, system, n, t).mat - series
    norm = _spectral_norm(residual)
    state = slater(orbitals.matrix)
    expectation = complex(state.coeffs.conj() @ residual @ state.coeffs)
    if np.isfinite(tail) and tail > norm and norm > 0:
        warn.append(
            f"series tail estimate {tail:.3e} not below residual {norm:.3e}")
    return LoopRemainder(n=n, p=a.p, t=t, norm=norm,
                         slater_expectation=expectation,
                         term_norms=np.array(term_norms), tail_estimate=tail,
                         quad_error=sum(quad_errors), warnings=warn)


@dataclass
class GapReport:
    """Mean-field pairing versus the truncated plain-kernel series;
    ``hf_integration_error`` is the largest window error estimate of the
    mean-field flow, ``hf_sweeps`` its number of Picard sweeps."""

    p: int
    t: float
    hf_value: complex
    tree_sum: complex
    gap: float
    tree_sum_exchange: complex
    gap_exchange: float
    quad_error: float
    terms: np.ndarray
    hf_integration_error: float
    hf_sweeps: int


def hf_vs_tree_gap(a: PSectorOperator, gamma, system: ModeSystem, t: float,
                   quad: QuadratureSpec, override_time_guard: bool = False,
                   config: HFConfig | None = None) -> GapReport:
    """Gap between the evolved mean-field pairing and the truncated series.

    The mean-field side pairs the freely evolved observable with the
    antisymmetrized power of the mean-field-evolved density; the series
    side sums the integrated loop-free terms against the initial density.
    ``config`` sets the integrator of the mean-field flow, as for every flow.
    """
    g = np.asarray(gamma)
    series = tree_series(a, g, t, quad, system,
                         override_time_guard=override_time_guard)
    flow = evolve_hf_density(g, system, [0.0, t] if t else [0.0], config)
    gamma_t = flow.final()
    a_t = free_evolve_op(a, system, t)
    hf_value = complex(np.trace(a_t.mat @ quasi_free_marginal(gamma_t,
                                                              a.p).mat))
    tree_sum = series.total
    tree_sum_x = complex(series.partial_sums_exchange[-1])
    return GapReport(p=a.p, t=t, hf_value=hf_value, tree_sum=tree_sum,
                     gap=abs(hf_value - tree_sum),
                     tree_sum_exchange=tree_sum_x,
                     gap_exchange=abs(hf_value - tree_sum_x),
                     quad_error=float(np.sum(series.quad_errors)),
                     terms=series.terms,
                     hf_integration_error=flow.integration_error,
                     hf_sweeps=flow.sweeps)


def count_elementary_terms(p: int, k: int, l: int) -> int:
    """Number of summands in the fully expanded order-(k, l) recursion.

    Each commutator contributes two products; an attachment step offers
    one slot per existing particle, a loop step one per particle pair.
    Only counts: the graph-count experiment sets the count against the
    closed-form bounds of :func:`_term_count_bounds`.
    """
    if p < 1:
        raise RangeError("observable must act on at least one particle")
    if not 0 <= l <= k:
        raise RangeError("loop number must lie in [0, k]")

    def rec(kk: int, ll: int, memo={}) -> int:
        if ll < 0 or ll > kk:
            return 0
        if kk == 0:
            return 1
        key = (p, kk, ll)
        if key not in memo:
            m = p + kk - ll
            memo[key] = (2 * (m - 1) * rec(kk - 1, ll)
                         + 2 * comb(m, 2) * rec(kk - 1, ll - 1))
        return memo[key]

    return rec(k, l)


def _term_count_bounds(p: int, k: int, l: int) -> tuple:
    """The combinatorial bound on the order-(k, l) term count, and the
    coarse bound that holds for the loop-free (l = 0) counts."""
    return (2 ** k * comb(k, l) * comb(2 * p + 3 * k, k) * (p + k - l) ** l,
            4 ** p * 32 ** k)
