"""Exact propagation of the mean-field many-body Hamiltonian on a sector.

The n-particle Hamiltonian is the one-body sum plus the pair interaction
scaled by 1/n, assembled directly in the subset basis: the one-body part via
second-quantized hops, the pair part as a diagonal because the potential
multiplies by mode differences. Propagation uses a cached dense
eigendecomposition, so any evolution time costs one matrix sandwich.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from .errors import RangeError, ValidationError
from .modes import ModeSystem
from .sector import (PSectorOperator, SectorState, marginal, one_body_sector,
                     project_lift, sector_basis, slater)


@dataclass
class ManyBodyHamiltonian:
    """Sector Hamiltonian on n of d modes with a cached eigendecomposition."""

    d: int
    n: int
    mat: np.ndarray
    _eig: tuple | None = field(default=None, repr=False, compare=False)

    def _eigensystem(self):
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.mat)
            self._eig = (vals, vecs)
        return self._eig

    def propagator(self, t: float) -> np.ndarray:
        """Dense sector propagator exp(-i t H)."""
        vals, vecs = self._eigensystem()
        return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def build_hamiltonian(system: ModeSystem, n: int) -> ManyBodyHamiltonian:
    """Assemble sum_i h_i + (1/n) sum_{i<j} w(x_i - x_j) on the n-sector,
    once per system: the result is cached there, with ``mat`` read-only."""
    if not 1 <= n <= system.d:
        raise RangeError(f"particle number n={n} outside [1, {system.d}]")

    def build():
        mat = one_body_sector(system.h, system.d, n)
        mat += np.diag(system._pair_diagonal(n)) / n
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValidationError("assembled Hamiltonian lost hermiticity")
        mat.setflags(write=False)
        return ManyBodyHamiltonian(d=system.d, n=n, mat=mat)
    return system._derive(("hamiltonian", n), build)


def evolve_exact(state: SectorState, hamiltonian: ManyBodyHamiltonian,
                 t: float) -> SectorState:
    """Propagate a sector state to time t."""
    if state.basis.n != hamiltonian.n or state.basis.d != hamiltonian.d:
        raise ValidationError("state and Hamiltonian live on different sectors")
    coeffs = hamiltonian.propagator(t) @ state.coeffs
    return SectorState(basis=state.basis, coeffs=coeffs)


def heisenberg_evolve(op: PSectorOperator, hamiltonian: ManyBodyHamiltonian,
                      t: float) -> PSectorOperator:
    """Heisenberg picture: exp(+i t H) A exp(-i t H)."""
    if op.p != hamiltonian.n:
        raise ValidationError("observable must act on the Hamiltonian's sector")
    u = hamiltonian.propagator(t)
    return PSectorOperator(op.d, op.p, u.conj().T @ op.mat @ u)


def second_quantize(a: PSectorOperator, n: int) -> PSectorOperator:
    """Mean-field second quantization of a p-particle observable on n particles.

    Returns (p!/n^p) C(n, p) P_- (a ⊗ 1^(n-p)) P_- as a sector operator;
    for n < p the operator is zero by definition. The normalization makes
    Slater expectations match traces against the quasi-free reduced
    densities of the one-particle density matrix.
    """
    if n < 1:
        raise RangeError("target sector needs at least one particle")
    d, p = a.d, a.p
    dim = sector_basis(d, n).dim
    if n < p:
        return PSectorOperator(d, n, np.zeros((dim, dim), dtype=complex))
    mat = a.mat
    for m in range(p + 1, n + 1):
        mat = project_lift(mat, d, m)
    prefactor = factorial(p) * comb(n, p) / float(n) ** p
    return PSectorOperator(d, n, prefactor * mat)


def heisenberg_observable(a: PSectorOperator, system: ModeSystem, n: int,
                          t: float) -> PSectorOperator:
    """Quantize a p-particle observable on n particles, then evolve it."""
    ham = build_hamiltonian(system, n)
    return heisenberg_evolve(second_quantize(a, n), ham, t)


def evolved_marginal(phi: np.ndarray, system: ModeSystem, t: float,
                     p: int):
    """Reduced p-particle density of an exactly propagated Slater state."""
    state = slater(phi)
    hamiltonian = build_hamiltonian(system, state.n)
    return marginal(evolve_exact(state, hamiltonian, t), p)
