"""Fock-space quantisation, the deformation relation, and the flow check.

A mode register of d sites carries the 2^d-dimensional Fock space through
the standard string construction: the annihilator on site j acts after a
parity string over the sites below it, which makes the anticommutation
relations exact at the matrix level. Rescaling the fields by 1/sqrt(N)
turns the anticommutator into (1/N) times the identity, so 1/N plays the
role of a deformation parameter.

Quantisation maps each graded block to a normally ordered monomial sum.
Restricted to the N-particle subspace, a gauge-invariant block reproduces
the mean-field lift from :mod:`fermiflow.exact` exactly; this identity is
what connects the graded superflow to sector computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, sqrt

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, NumericError, RangeError, ValidationError
from .exact import (ManyBodyHamiltonian, build_hamiltonian,
                    heisenberg_evolve, second_quantize)
from .graded import GradedObservable, graded_poisson, superflow_observable
from .modes import ModeSystem
from .sector import PSectorOperator, sector_basis
from .tree import QuadratureSpec, check_time_guard

MAX_FOCK_MODES = 14
MAX_DENSE_FOCK = 4096

_ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]])
_PARITY = np.diag([1.0, -1.0])


class FockContext:
    """Mode register with string-constructed ladder matrices and a scale N.

    Site j occupies bit j of the Fock index, so the vacuum is index 0 and
    the occupation of a subset equals its bitmask. The rescaled fields are
    c_j / sqrt(N) with N the deformation parameter.
    """

    def __init__(self, d: int, n: int):
        if d < 1:
            raise RangeError("need at least one mode")
        if d > MAX_FOCK_MODES:
            raise CapacityError(
                f"Fock space for d={d} exceeds the {MAX_FOCK_MODES}-mode cap")
        if n < 1:
            raise RangeError("deformation parameter must be a positive integer")
        self.d = d
        self.n = n
        self.dim = 2 ** d
        self.lower = []
        for j in range(d):
            left = sp.identity(2 ** (d - 1 - j), format="csr")
            string = sp.identity(1, format="csr")
            for _ in range(j):
                string = sp.kron(string, sp.csr_matrix(_PARITY), format="csr")
            op = sp.kron(left, sp.kron(sp.csr_matrix(_ANNIHILATE), string),
                         format="csr")
            self.lower.append(op)
        self.raise_ = [op.conj().T.tocsr() for op in self.lower]
        self._monomials: dict = {}

    def creation_product(self, subset: tuple) -> sp.csr_matrix:
        """c†_{x_p} ... c†_{x_1} for the ascending subset (x_1 < ... < x_p)."""
        key = ("dag", subset)
        if key not in self._monomials:
            op = sp.identity(self.dim, format="csr")
            for x in subset:
                op = self.raise_[x] @ op
            self._monomials[key] = op.tocsr()
        return self._monomials[key]

    def annihilation_product(self, subset: tuple) -> sp.csr_matrix:
        """c_{y_1} ... c_{y_q} for the ascending subset (y_1 < ... < y_q)."""
        key = ("low", subset)
        if key not in self._monomials:
            op = sp.identity(self.dim, format="csr")
            for y in reversed(subset):
                op = self.lower[y] @ op
            self._monomials[key] = op.tocsr()
        return self._monomials[key]

    def sector_isometry(self, n: int) -> sp.csr_matrix:
        """Columns are the Fock vectors of the ascending-subset Slater basis."""
        basis = sector_basis(self.d, n)
        cols, rows, vals = [], [], []
        vacuum = np.zeros(self.dim)
        vacuum[0] = 1.0
        for col in range(basis.dim):
            vec = self.creation_product(tuple(basis.occ[col])) @ vacuum
            idx = np.flatnonzero(vec)
            if len(idx) != 1:
                raise NumericError("sector embedding lost sharpness")
            rows.append(idx[0])
            cols.append(col)
            vals.append(vec[idx[0]])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, basis.dim))

    def restrict(self, op, n: int) -> np.ndarray:
        """Compress a Fock operator to the n-particle Slater basis."""
        iso = self.sector_isometry(n)
        return np.asarray((iso.conj().T @ (op @ iso)).todense())


def quantise(a: GradedObservable, ctx: FockContext) -> sp.csr_matrix:
    """Wick quantisation: each block becomes a normally ordered monomial sum.

    Block (p, q) contributes N^{-(p+q)/2} sqrt(p! q!) times the sum over
    subset pairs of its entries with creation and annihilation strings;
    the square roots convert minor-basis entries back to integral kernels.
    The (0, 0) block is a multiple of the identity.
    """
    if a.d != ctx.d:
        raise ValidationError("observable and register mode counts differ")
    total = sp.csr_matrix((ctx.dim, ctx.dim), dtype=complex)
    for (p, q), mat in a.blocks.items():
        scale = (float(ctx.n) ** (-(p + q) / 2.0)
                 * sqrt(factorial(p) * factorial(q)))
        rows = sector_basis(ctx.d, p) if p > 0 else None
        cols = sector_basis(ctx.d, q) if q > 0 else None
        nz = np.argwhere(np.abs(mat) > 0)
        for i, j in nz:
            left = (ctx.creation_product(tuple(rows.occ[i]))
                    if p > 0 else sp.identity(ctx.dim, format="csr"))
            right = (ctx.annihilation_product(tuple(cols.occ[j]))
                     if q > 0 else sp.identity(ctx.dim, format="csr"))
            total = total + (scale * mat[i, j]) * (left @ right)
    return total.tocsr()


def grassmann_hamiltonian(system: ModeSystem) -> GradedObservable:
    """Energy observable: one-body block plus half the pair kernel.

    Scaled so that N times its quantisation, restricted to the N-particle
    subspace, is exactly the mean-field Hamiltonian of that sector.
    """
    pair = 0.5 * np.diag(system._pair_diagonal(2))
    return GradedObservable(system.d, {(1, 1): system.h.astype(complex),
                                       (2, 2): pair.astype(complex)})


@dataclass
class DeformationReport:
    """Residuals of both bracket candidates against the scaled Poisson term."""

    n: int
    residual_commutator: float
    residual_anticommutator: float
    bracket_scale: float


def deformation_check(a: GradedObservable, b: GradedObservable,
                      ctx: FockContext) -> DeformationReport:
    """Compare [A, B]_± with the 1/(iN)-scaled quantised Poisson bracket.

    Both residuals are reported; which bracket matches the deformation
    scaling depends on the degrees of the inputs.
    """
    if not (a.is_homogeneous() and b.is_homogeneous()):
        raise ValidationError("deformation check needs homogeneous inputs")
    if 2 ** ctx.d > MAX_DENSE_FOCK:
        raise CapacityError("dense Fock norms capped at "
                            f"{MAX_DENSE_FOCK} dimensions")
    ahat = np.asarray(quantise(a, ctx).todense())
    bhat = np.asarray(quantise(b, ctx).todense())
    bracket = np.asarray(quantise(graded_poisson(a, b), ctx).todense())
    target = bracket / (1j * ctx.n)
    comm = ahat @ bhat - bhat @ ahat
    anti = ahat @ bhat + bhat @ ahat
    return DeformationReport(
        n=ctx.n,
        residual_commutator=float(np.linalg.norm(comm - target, 2)),
        residual_anticommutator=float(np.linalg.norm(anti - target, 2)),
        bracket_scale=float(np.linalg.norm(target, 2)))


@dataclass
class EgorovReport:
    """Operator-norm gap between conjugated and flowed quantisations."""

    n: int
    p: int
    t: float
    norm_difference: float
    tree_tail_estimate: float
    quad_error: float
    warnings: list = field(default_factory=list)


def egorov_check(a: PSectorOperator, system: ModeSystem, t: float, n: int,
                 quad: QuadratureSpec,
                 override_time_guard: bool = False) -> EgorovReport:
    """Gap on the n-particle subspace between the two evolution routes.

    The left side conjugates the quantised observable by exp(-i t N H_N)
    built from the quantised energy observable; the right side quantises
    the truncated graded flow. Both land on the same sector, where the
    difference is measured in operator norm.
    """
    if n > system.d:
        raise RangeError(f"cannot hold {n} particles in {system.d} modes")
    # fail before the Fock build; the flow below repeats the guard's note
    check_time_guard(system, t, override_time_guard)
    ctx = FockContext(system.d, n)

    ham_fock = quantise(grassmann_hamiltonian(system), ctx)
    ham_sector = float(n) * ctx.restrict(ham_fock, n)
    reference = build_hamiltonian(system, n).mat
    if np.max(np.abs(ham_sector - reference)) > 1e-10:
        raise NumericError("quantised energy observable does not restrict "
                           "to the sector Hamiltonian")

    lifted = ctx.restrict(quantise(GradedObservable.from_sector_op(a), ctx), n)
    lhs = heisenberg_evolve(PSectorOperator(system.d, n, lifted),
                            ManyBodyHamiltonian(system.d, n, ham_sector), t).mat

    flow = superflow_observable(a, system, t, quad, override_time_guard=True)
    rhs = np.zeros_like(lhs)
    for (p, q), mat in flow.observable.blocks.items():
        rhs += second_quantize(PSectorOperator(a.d, p, mat), n).mat
    return EgorovReport(n=n, p=a.p, t=t,
                        norm_difference=float(np.linalg.norm(lhs - rhs, 2)),
                        tree_tail_estimate=flow.tail_estimate,
                        quad_error=flow.quad_error,
                        warnings=flow.warnings)
