"""Exact propagation of the mean-field many-body Hamiltonian on a sector.

The n-particle Hamiltonian is the one-body sum plus the pair interaction
scaled by 1/n, held once per system in the subset basis: the one-body
part as the nonzero second-quantized hops, the pair part as a diagonal
because the potential multiplies by mode differences. States move
by short-iterative Lanczos (Park & Light 1986) on those entries, each
matrix-vector product one ``np.add.at`` scatter of the hops plus the
diagonal, so no dense sector matrix is built to move a state. Each step
stops on the a-posteriori Krylov estimate of Hochbruck & Lubich (1997),
and a time whose step would need more than ``KRYLOV_CAP`` vectors is
split into equal substeps. The dense matrix is built only where an
operator is conjugated, and diagonalised on each call of
:func:`heisenberg_evolve`. A p-particle observable is second-quantized by
the expand map of :mod:`fermiflow.sector`, the adjoint of the contraction
in :func:`~fermiflow.sector.marginal` up to its scale, on the scatter
kernel of the pair-commutator lift.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .errors import CapacityError, NumericError, RangeError, ValidationError
from .modes import ModeSystem
from .sector import (PSectorOperator, SectorState, _expand_entries,
                     _lift_sum, marginal, sector_basis, slater)

KRYLOV_CAP = 30            # Lanczos vectors per substep
MAX_SUBSTEPS = 1024        # equal substeps before a time is refused
LANCZOS_TOL = 1e-15        # stopping estimate per substep, relative to ‖ψ‖


def _check_time(t: float):
    if not np.isfinite(t):
        raise RangeError(f"evolution time t={t} is not finite")


def _sector_entries(system: ModeSystem, n: int):
    if not 1 <= n <= system.d:
        raise RangeError(f"particle number n={n} outside [1, {system.d}]")
    return system._sector_hamiltonian(n)


def build_hamiltonian(system: ModeSystem, n: int) -> PSectorOperator:
    """The dense form of sum_i h_i + (1/n) sum_{i<j} w(x_i - x_j) on the
    n-sector, built on each call from the system's cached sparse entries."""
    rows, cols, values, diagonal = _sector_entries(system, n)
    dim = len(diagonal)
    mat = np.zeros((dim, dim), dtype=complex)
    np.add.at(mat, (rows, cols), values)
    mat.flat[::dim + 1] += diagonal
    if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
        raise ValidationError("assembled Hamiltonian lost hermiticity")
    return PSectorOperator(system.d, n, mat)


def _krylov_step(apply, psi: np.ndarray, tau: float):
    """exp(-i tau H) psi from the Krylov space of psi, with full
    reorthogonalisation, and its stopping estimate
    ‖psi‖ β_m |(exp(-i tau T_m))_{m,1}|; None when ``KRYLOV_CAP`` vectors
    leave the estimate above ``LANCZOS_TOL`` ‖psi‖."""
    norm = np.linalg.norm(psi)
    size = min(KRYLOV_CAP, psi.size)
    basis = np.empty((size, psi.size), dtype=complex)
    basis[0] = psi / norm
    alpha, beta = np.zeros(size), np.zeros(size)
    for m in range(1, size + 1):
        w = apply(basis[m - 1])
        span = basis[:m]
        overlaps = (span @ w.conj()).conj()
        w -= overlaps @ span
        w -= (span @ w.conj()).conj() @ span
        alpha[m - 1], beta[m - 1] = overlaps[m - 1].real, np.linalg.norm(w)
        if not (np.isfinite(alpha[m - 1]) and np.isfinite(beta[m - 1])):
            raise NumericError("non-finite Lanczos coefficient")
        tri = (np.diag(alpha[:m]) + np.diag(beta[:m - 1], 1)
               + np.diag(beta[:m - 1], -1))
        vals, vecs = np.linalg.eigh(tri)
        column = vecs @ (np.exp(-1j * tau * vals) * vecs[0])
        estimate = norm * beta[m - 1] * abs(column[-1])
        if estimate <= LANCZOS_TOL * norm or m == psi.size:
            return norm * (column @ span), estimate
        if m < size:
            basis[m] = w / beta[m - 1]
    return None


def _propagate(apply, psi: np.ndarray, t: float):
    """exp(-i t H) psi in the fewest equal substeps, doubled from one, that
    each stop within ``KRYLOV_CAP`` vectors, and the summed stopping
    estimates relative to ‖psi‖."""
    _check_time(t)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        return np.zeros_like(psi), 0.0
    steps = 1
    while steps <= MAX_SUBSTEPS:
        out, error = psi, 0.0
        for _ in range(steps):
            step = _krylov_step(apply, out, t / steps)
            if step is None:
                break
            out, estimate = step
            error += estimate
        else:
            return out, error / norm
        steps *= 2
    raise CapacityError(f"t={t} needs more than {MAX_SUBSTEPS} Lanczos "
                        f"substeps of {KRYLOV_CAP} vectors")


def evolve_exact(state: SectorState, system: ModeSystem, t: float):
    """Propagate a sector state to time t by Lanczos on the system's sparse
    sector Hamiltonian. Returns the state at t and the summed Lanczos
    stopping estimates relative to the state's norm, the a-posteriori
    estimate of the propagation error."""
    if state.d != system.d:
        raise ValidationError("state and system have different mode counts")
    rows, cols, values, diagonal = _sector_entries(system, state.n)
    dim = len(diagonal)

    def apply(x):
        out = np.zeros(dim, dtype=complex)
        np.add.at(out, rows, values * x[cols])
        out += diagonal * x
        return out
    coeffs, error = _propagate(apply, state.coeffs, t)
    return SectorState(basis=state.basis, coeffs=coeffs), error


def heisenberg_evolve(op: PSectorOperator, hamiltonian: PSectorOperator,
                      t: float) -> PSectorOperator:
    """Heisenberg picture: exp(+i t H) A exp(-i t H), the propagator from an
    ``eigh`` of the Hamiltonian taken on each call."""
    if op.p != hamiltonian.p or op.d != hamiltonian.d:
        raise ValidationError("observable must act on the Hamiltonian's sector")
    _check_time(t)
    vals, vecs = np.linalg.eigh(hamiltonian.mat)
    u = (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T
    return PSectorOperator(op.d, op.p, u.conj().T @ op.mat @ u)


def second_quantize(a: PSectorOperator, n: int) -> PSectorOperator:
    """Mean-field second quantization of a p-particle observable on n particles.

    Returns (p!/n^p) C(n, p) P_- (a ⊗ 1^(n-p)) P_- as a sector operator;
    for n < p the operator is zero by definition. The normalization makes
    Slater expectations match traces against the quasi-free reduced
    densities of the one-particle density matrix.

    Up to its scale it is the adjoint of :func:`~fermiflow.sector.marginal`:
    the expand map of the (p, n-p)-subset pairs, for each (n-p)-subset beta
    adding sign(alpha, beta) sign(alpha', beta) a[alpha, alpha'] into the
    entry (alpha ∪ beta, alpha' ∪ beta), run by the lift's scatter kernel.
    """
    if n < 1:
        raise RangeError("target sector needs at least one particle")
    d, p = a.d, a.p
    dim = sector_basis(d, n).dim
    if n < p:
        return PSectorOperator(d, n, np.zeros((dim, dim), dtype=complex))
    _, small, big, signs = _expand_entries(d, n, p)
    weights = (signs * (factorial(p) / float(n) ** p)).reshape(-1)
    return PSectorOperator(d, n, _lift_sum(a.mat, small, weights, big, dim, 1))


def heisenberg_observable(a: PSectorOperator, system: ModeSystem, n: int,
                          t: float) -> PSectorOperator:
    """Quantize a p-particle observable on n particles, then evolve it."""
    ham = build_hamiltonian(system, n)
    return heisenberg_evolve(second_quantize(a, n), ham, t)


def evolved_marginal(phi: np.ndarray, system: ModeSystem, t: float,
                     p: int):
    """Reduced p-particle density of an exactly propagated Slater state, and
    the propagation's error estimate, as :func:`evolve_exact` gives it."""
    state, error = evolve_exact(slater(phi), system, t)
    return marginal(state, p), error
