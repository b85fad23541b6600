"""Commutator-tree expansion of many-body Heisenberg dynamics.

The exact Heisenberg evolution of a lifted p-particle observable expands,
order by order in the pair coupling, into operators built by repeatedly
inserting interaction commutators under free evolution. Each insertion
either attaches a fresh particle (raising the particle count by one) or
couples two already-present particles (a closed loop). Pure attachment
chains form the leading series; every loop costs one inverse particle
number when the result is lifted back to the N-particle space.

Everything here is evaluated directly on antisymmetric sectors: free
rotations are minor matrices of the one-particle propagator, attachment
steps use the sparse coisometry tables from :mod:`fermiflow.sector`, and
loop steps act through the diagonal pair sum. Nested Gauss-Legendre nodes
over the ordered time simplex share their prefix evaluations, so one sweep
yields every order at once.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field
from math import comb, pi

import numpy as np

from .errors import NumericError, RangeError, ShapeError, ValidationError
from .exact import heisenberg_observable, second_quantize
from .hf import (DensityMatrix, HFConfig, OrbitalSet, evolve_hf_density,
                 quasi_free_marginal)
from .modes import ModeSystem
from .sector import PSectorOperator, project_lift_pair_commutator, slater

KERNEL_PLAIN = "plain"
KERNEL_EXCHANGE = "exchange"

# On the antisymmetric subspace a transposition acts as -1, so the
# exchange-corrected pair kernel w(x-y)(1 - swap) acts there as exactly
# twice the plain kernel; every projected insertion picks up this factor.
_KERNEL_FACTORS = {KERNEL_PLAIN: 1.0, KERNEL_EXCHANGE: 2.0}


@dataclass
class QuadratureSpec:
    """Nested Gauss-Legendre settings for ordered-time integrals."""

    nodes_per_level: int = 6
    k_max: int = 3

    def __post_init__(self):
        if self.nodes_per_level < 2:
            raise RangeError("need at least two quadrature nodes per level")
        if self.k_max < 0:
            raise RangeError("truncation order must be non-negative")


@dataclass
class TheoryConstants:
    """Interaction-strength constant and the reported small-time radius."""

    kappa: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise RangeError("kappa must be positive")

    @property
    def t_report(self) -> float:
        return 1.0 / (2 ** 11 * pi * self.kappa ** 2)

    @classmethod
    def from_system(cls, system: ModeSystem) -> "TheoryConstants":
        return cls(kappa=system.kappa)


@dataclass
class TreeOperator:
    """One expansion operator at fixed insertion times.

    ``times`` holds (t, t_1, ..., t_k) with t >= t_1 >= ... >= t_k >= 0;
    ``matrix`` is the sector matrix on p + k - l particles. Loop numbers
    outside [0, k] give the zero operator.
    """

    d: int
    p: int
    k: int
    l: int
    times: tuple
    matrix: np.ndarray

    @property
    def particles(self) -> int:
        return self.p + self.k - self.l

    def sector_op(self) -> PSectorOperator:
        return PSectorOperator(self.d, self.particles, self.matrix)

    def is_zero(self) -> bool:
        return self.matrix.size == 0 or not np.any(self.matrix)


def _zero_sector_matrix(d: int, m: int) -> np.ndarray:
    dim = comb(d, m) if 0 <= m <= d else 0
    return np.zeros((dim, dim), dtype=complex)


def sector_propagator(system: ModeSystem, m: int, t: float) -> np.ndarray:
    """Free m-particle sector propagator, the minor matrix of exp(-i t h).

    Minor matrices are multiplicative, so the propagator diagonalizes in
    the minor basis of the one-body eigenvectors with subset-sum phases.
    """
    vm, lam = system._sector_rotation(m)
    return (vm * np.exp(-1j * t * lam)[None, :]) @ vm.conj().T


def free_evolve_op(a: PSectorOperator, system: ModeSystem,
                   t: float) -> PSectorOperator:
    """Free Heisenberg evolution at sector level: F(t)† a F(t)."""
    if a.d != system.d:
        raise ValidationError("observable and system mode counts differ")
    f = sector_propagator(system, a.p, t)
    return PSectorOperator(a.d, a.p, f.conj().T @ a.mat @ f)


def _attach_insertion(x: np.ndarray, m: int, system: ModeSystem, s: float,
                      factor: float) -> np.ndarray:
    """i P_- [sum_i K_{i m}(s), X ⊗ 1] P_- for X on the (m-1)-sector.

    The insertion kernel is evaluated in the free Heisenberg picture at
    time s: rotate the operand forward, commute, rotate back.
    """
    f_small = sector_propagator(system, m - 1, s)
    f_big = sector_propagator(system, m, s)
    z = f_small @ x @ f_small.conj().T
    lifted = project_lift_pair_commutator(z, system._pair_weights(m),
                                          system.d, m)
    return (1j * factor) * (f_big.conj().T @ lifted @ f_big)


def _loop_insertion(x: np.ndarray, m: int, system: ModeSystem, s: float,
                    factor: float) -> np.ndarray:
    """i P_- [sum_{i<j} K_{ij}(s), X] P_- for X already on the m-sector."""
    f = sector_propagator(system, m, s)
    z = f @ x @ f.conj().T
    diag = system._pair_diagonal(m)
    comm = diag[:, None] * z - z * diag[None, :]
    return (1j * factor) * (f.conj().T @ comm @ f)


def G_recursive(a: PSectorOperator, k: int, l: int, t: float, times,
                system: ModeSystem, kernel: str = KERNEL_PLAIN) -> TreeOperator:
    """Build the order-(k, l) expansion operator at fixed insertion times.

    Each level j applies, at time times[j-1], the attachment commutator to
    the (j-1, l) operator and the loop commutator to the (j-1, l-1) one;
    the base case is the freely evolved observable at time t.
    """
    try:
        factor = _KERNEL_FACTORS[kernel]
    except KeyError:
        raise ValidationError(f"unknown insertion kernel {kernel!r}") from None
    if k < 0:
        raise RangeError("expansion order must be non-negative")
    times = tuple(float(s) for s in times)
    if len(times) != k:
        raise ShapeError(f"expected {k} insertion times, got {len(times)}")
    bounds = (t,) + times
    if any(lo > hi + 1e-15 for hi, lo in zip(bounds, bounds[1:])) or \
            (k > 0 and times[-1] < -1e-15):
        raise RangeError("insertion times must descend inside [0, t]")

    if l < 0 or l > k:
        return TreeOperator(a.d, a.p, k, l, (t,) + times,
                            _zero_sector_matrix(a.d, a.p + k - l))

    table = {(0, 0): free_evolve_op(a, system, t).mat}
    for j in range(1, k + 1):
        s = times[j - 1]
        for lam in range(0, min(j, l) + 1):
            m = a.p + j - lam
            if m > system.d or m < 1:
                table[(j, lam)] = _zero_sector_matrix(a.d, m)
                continue
            acc = _zero_sector_matrix(a.d, m)
            prev = table.get((j - 1, lam))
            if prev is not None and prev.size:
                acc += _attach_insertion(prev, m, system, s, factor)
            prev_loop = table.get((j - 1, lam - 1))
            if prev_loop is not None and prev_loop.size and m >= 2:
                acc += _loop_insertion(prev_loop, m, system, s, factor)
            table[(j, lam)] = acc
    return TreeOperator(a.d, a.p, k, l, (t,) + times, table[(k, l)])


def _gl_nodes(n: int):
    xs, ws = np.polynomial.legendre.leggauss(n)
    return (xs + 1.0) / 2.0, ws / 2.0


def _integrate_orders(a: PSectorOperator, K: int, t: float, nodes: int,
                      system: ModeSystem) -> list:
    """Simplex integrals of the loop-free operators for every order <= K.

    One nested sweep: the node tree over t >= s_1 >= ... >= s_K shares
    each prefix operator between all orders, and every node adds its
    weighted operator straight into the total of its order.
    """
    if K < 0:
        raise RangeError("truncation order must be non-negative")
    if a.p + K > system.d:
        raise RangeError(
            f"order {K} would need {a.p + K} particles in {system.d} modes")
    x01, w01 = _gl_nodes(nodes)
    base = free_evolve_op(a, system, t).mat
    totals = [base if k == 0 else _zero_sector_matrix(a.d, a.p + k)
              for k in range(K + 1)]
    if K == 0 or t == 0.0:
        return totals

    def descend(level, upper, x_prev, weight):
        for s, w in zip(upper * x01, (upper * weight) * w01):
            y = _attach_insertion(x_prev, a.p + level, system, s, 1.0)
            totals[level] = totals[level] + w * y
            if level < K:
                descend(level + 1, s, y, w)

    descend(1, t, base, 1.0)
    for k, mat in enumerate(totals):
        if not np.all(np.isfinite(mat)):
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


def integrate_tree_term(a: PSectorOperator, k: int, t: float,
                        quad: QuadratureSpec, system: ModeSystem,
                        return_error: bool = False):
    """Ordered-time integral of the order-k loop-free operator.

    The error estimate compares the result against a sweep with twice the
    nodes per level and is reported in operator norm.
    """
    if k > quad.k_max:
        raise RangeError(f"order {k} exceeds the configured maximum {quad.k_max}")
    coarse, fine = _coarse_and_fine(a, k, t, quad, system)
    op = PSectorOperator(a.d, a.p + k, fine[k])
    if not return_error:
        return op
    return op, _spectral_norm(coarse[k] - fine[k])


def check_time_guard(system: ModeSystem, t: float, override: bool) -> list:
    """Enforce the reported small-time radius unless overridden.

    Returns advisory strings; raises when t exceeds the radius and no
    override was requested. A zero coupling has no radius to enforce.
    """
    if system.kappa == 0.0:
        return []
    constants = TheoryConstants.from_system(system)
    if t <= constants.t_report:
        return []
    if not override:
        raise RangeError(
            f"time {t} exceeds the reported convergence radius "
            f"{constants.t_report:.3e}; pass override_time_guard=True to proceed")
    return [f"time {t} beyond reported radius {constants.t_report:.3e} (override)"]


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

    def term_table(self, kernel: str = KERNEL_PLAIN):
        """Rows (k, term_value_re, term_value_im, quad_error_est)."""
        vals = self.terms if kernel == KERNEL_PLAIN else self.terms_exchange
        scale = 1.0 if kernel == KERNEL_PLAIN else 2.0
        return [(k, float(v.real), float(v.imag),
                 float(self.quad_errors[k] * scale ** k))
                for k, v in enumerate(vals)]


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


def _series(a: PSectorOperator, t: float, quad: QuadratureSpec,
            system: ModeSystem, K: int | None, override_time_guard: bool,
            capacity: int, read, size) -> tuple:
    """The loop-free series of ``a`` up to order K, read order by order.

    ``read(m, x)`` turns the order-k operator x on m = p + k particles
    into a value and ``size`` measures a value. Returns the fine sweep's
    values, their sizes, each order's quadrature error (the size of the
    coarse reading minus the fine one), the tail past K and the warnings
    of the time guard and of the tail rule, whose warnings are also raised
    as ``RuntimeWarning``. The tail vanishes when orders past K would hold
    more than ``capacity`` particles, without a coupling, or at t = 0.
    """
    K = quad.k_max if K is None else K
    if K > quad.k_max:
        raise RangeError(f"order {K} exceeds the configured maximum {quad.k_max}")
    warn = check_time_guard(system, t, override_time_guard)
    coarse, fine = _coarse_and_fine(a, K, t, quad, system)
    values = [read(a.p + k, x) for k, x in enumerate(fine)]
    sizes = [size(v) for v in values]
    errors = [size(read(a.p + k, x) - v)
              for k, (x, v) in enumerate(zip(coarse, values))]
    tail, tail_warn = _geometric_tail(
        sizes, a.p + K >= capacity or system.kappa == 0.0 or t == 0.0)
    for message in tail_warn:
        _warnings.warn(message, RuntimeWarning, stacklevel=3)
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
    g = gamma.mat if isinstance(gamma, DensityMatrix) else np.asarray(gamma)
    terms, _, quad_errors, tail, warn = _series(
        a, t, quad, system, None, override_time_guard, system.d,
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


def loop_remainder(a: PSectorOperator, orbitals: OrbitalSet,
                   system: ModeSystem, t: float, quad: QuadratureSpec,
                   K: int | None = None,
                   override_time_guard: bool = False) -> LoopRemainder:
    """Exact Heisenberg flow minus the lifted loop-free series, on N particles.

    Returns the operator norm of the residual and its expectation in the
    Slater state of the given frame. The tail estimate extrapolates the
    lifted term norms geometrically; if it fails to sit below the residual
    the result carries a diagnostic warning.
    """
    n = orbitals.n
    terms, term_norms, quad_errors, tail, warn = _series(
        a, t, quad, system, K, override_time_guard, n,
        lambda m, x: second_quantize(PSectorOperator(a.d, m, x), n).mat,
        _spectral_norm)
    residual = heisenberg_observable(a, system, n, t).mat - sum(terms)
    norm = _spectral_norm(residual)
    state = slater(orbitals.as_orthonormal())
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
    """Mean-field pairing versus the truncated plain-kernel series."""

    p: int
    t: float
    hf_value: complex
    tree_sum: complex
    gap: float
    tree_sum_exchange: complex
    gap_exchange: float
    quad_error: float
    terms: np.ndarray


def hf_vs_tree_gap(a: PSectorOperator, gamma, system: ModeSystem, t: float,
                   quad: QuadratureSpec, override_time_guard: bool = False,
                   hf_dt: float = 1e-3) -> GapReport:
    """Gap between the evolved mean-field pairing and the truncated series.

    The mean-field side pairs the freely evolved observable with the
    antisymmetrized power of the mean-field-evolved density; the series
    side sums the integrated loop-free terms against the initial density.
    """
    g = gamma.mat if isinstance(gamma, DensityMatrix) else np.asarray(gamma)
    series = tree_series(a, g, t, quad, system,
                         override_time_guard=override_time_guard)
    gamma_t = evolve_hf_density(g, system, [0.0, t],
                                HFConfig(dt=hf_dt)).final()
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
                     terms=series.terms)


def count_elementary_terms(p: int, k: int, l: int) -> int:
    """Number of summands in the fully expanded order-(k, l) recursion.

    Each commutator contributes two products; an attachment step offers
    one slot per existing particle, a loop step one per particle pair.
    The count is checked against the closed-form combinatorial bounds.
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

    count = rec(k, l)
    bound, coarse = _term_count_bounds(p, k, l)
    if count > bound:
        raise ValidationError(
            f"term count {count} exceeds the combinatorial bound {bound}")
    if l == 0 and count > coarse:
        raise ValidationError(
            f"loop-free count {count} exceeds the coarse bound {coarse}")
    return count


def _term_count_bounds(p: int, k: int, l: int) -> tuple:
    """The combinatorial bound on the order-(k, l) term count, and the
    coarse bound that holds for the loop-free (l = 0) counts."""
    return (2 ** k * comb(k, l) * comb(2 * p + 3 * k, k) * (p + k - l) ** l,
            4 ** p * 32 ** k)
