"""Fock-space quantisation, the deformation relation, and the flow check.

A mode register of d sites carries the 2^d-dimensional Fock space on the
occupation bitmasks: site j is bit j. The Jordan-Wigner construction
(Jordan and Wigner 1928) makes the annihilator on site j clear bit j and
multiply by the parity (-1)^{popcount} of the sites below it, which makes
the anticommutation relations exact. Every ladder monomial is therefore
a signed partial permutation of bitmasks, computed here with integer
arithmetic. Rescaling the fields by 1/sqrt(N) turns the anticommutator
into (1/N) times the identity, so 1/N plays the role of a deformation
parameter.

Quantisation maps each graded block to a normally ordered monomial sum.
Restricted to the N-particle subspace, a gauge-invariant block reproduces
the mean-field lift from :mod:`fermiflow.exact` exactly; this identity is
what connects the Fock route to sector computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, sqrt

import numpy as np

from .errors import CapacityError, NumericError, RangeError, ValidationError
from .exact import build_hamiltonian, heisenberg_evolve
from .graded import GradedObservable, graded_poisson
from .modes import ModeSystem
from .sector import PSectorOperator, sector_basis
from .tree import QuadratureSpec, check_time_guard, lifted_series

MAX_FOCK_MODES = 14
MAX_DENSE_FOCK = 4096
MAX_KERNEL_ENTRIES = 1 << 20    # monomials x states held at once by quantise


class FockContext:
    """Mode register of d sites with the deformation parameter N.

    Site j occupies bit j of the Fock index, so the vacuum is index 0 and
    the occupation of a subset equals its bitmask. The rescaled fields are
    c_j / sqrt(N). ``parity[m]`` is (-1)^popcount(m), the Jordan-Wigner
    sign of the occupied sites in the mask m.
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
        parity = np.ones(1, dtype=np.int8)
        for _ in range(d):
            parity = np.concatenate([parity, -parity])
        self.parity = parity


def _ladder(ctx: FockContext, masks, sign, alive, modes, create: bool):
    """Apply c_j (``create=False``) or c†_j site by site, in column order.

    ``masks``, ``sign`` and ``alive`` have one row per monomial and one
    column per state and are updated in place; ``modes`` has one row per
    monomial and one column per ladder step.
    """
    for step in range(modes.shape[1]):
        bit = np.left_shift(1, modes[:, step])[:, None]
        alive &= ((masks & bit) == 0) if create else ((masks & bit) != 0)
        sign *= ctx.parity[masks & (bit - 1)]
        masks ^= bit


def quantise(a: GradedObservable, ctx: FockContext,
             n: int | None = None) -> np.ndarray:
    """Wick quantisation: each block becomes a normally ordered monomial sum.

    Block (p, q) contributes N^{-(p+q)/2} sqrt(p! q!) times the sum over
    subset pairs (S, T) of its entries with c†_{x_p} ... c†_{x_1} c_{y_1}
    ... c_{y_q} for S = {x_1 < ... < x_p} and T = {y_1 < ... < y_q}; the
    square roots convert minor-basis entries back to integral kernels.
    The (0, 0) block is a multiple of the identity.

    With ``n=None`` the result is the dense matrix on all of Fock space;
    otherwise it is the compression onto the n-particle Slater basis
    c†_{x_n} ... c†_{x_1}|0> of :func:`~fermiflow.sector.sector_basis`.
    Every such state carries the same sign (-1)^{n(n-1)/2}, so the
    compression keeps the sector's rows and columns, and blocks with
    p != q leave the sector and drop out.
    """
    if a.d != ctx.d:
        raise ValidationError("observable and register mode counts differ")
    if n is None:
        if ctx.dim > MAX_DENSE_FOCK:
            raise CapacityError("dense Fock matrices capped at "
                                f"{MAX_DENSE_FOCK} dimensions")
        states = np.arange(ctx.dim)
    else:
        states = sector_basis(ctx.d, n).masks
    total = np.zeros((len(states), len(states)), dtype=complex)
    chunk = max(1, MAX_KERNEL_ENTRIES // len(states))
    for (p, q), mat in a.blocks.items():
        if n is not None and p != q:
            continue
        scale = (float(ctx.n) ** (-(p + q) / 2.0)
                 * sqrt(factorial(p) * factorial(q)))
        rows, cols = np.nonzero(np.abs(mat) > 0)
        for lo in range(0, len(rows), chunk):
            i, j = rows[lo:lo + chunk], cols[lo:lo + chunk]
            masks = np.repeat(states[None, :], len(i), axis=0)
            sign = np.ones(masks.shape, dtype=np.int8)
            alive = np.ones(masks.shape, dtype=bool)
            _ladder(ctx, masks, sign, alive,
                    sector_basis(ctx.d, q).occ[j][:, ::-1], create=False)
            _ladder(ctx, masks, sign, alive, sector_basis(ctx.d, p).occ[i],
                    create=True)
            target = masks[alive]
            if n is not None:
                target = np.searchsorted(states, target)
            _, source = np.nonzero(alive)
            np.add.at(total, (target, source),
                      ((scale * mat[i, j])[:, None] * sign)[alive])
    return total


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
    ahat = quantise(a, ctx)
    bhat = quantise(b, ctx)
    bracket = quantise(graded_poisson(a, b), ctx)
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
    built from the quantised energy observable; the right side is the
    truncated series of :func:`~fermiflow.tree.lifted_series`, read on n
    particles as for :func:`~fermiflow.tree.loop_remainder`. The gap, the
    series' tail and its quadrature error are all operator norms there.
    """
    if n > system.d:
        raise RangeError(f"cannot hold {n} particles in {system.d} modes")
    if a.d != system.d:
        raise ValidationError("observable and system mode counts differ")
    # fail before the Fock build; the series below repeats the guard's note
    check_time_guard(system, t, override_time_guard)
    ctx = FockContext(system.d, n)

    ham_sector = float(n) * quantise(grassmann_hamiltonian(system), ctx, n)
    reference = build_hamiltonian(system, n).mat
    if np.max(np.abs(ham_sector - reference)) > 1e-10:
        raise NumericError("quantised energy observable does not restrict "
                           "to the sector Hamiltonian")

    lifted = quantise(GradedObservable.from_sector_op(a), ctx, n)
    lhs = heisenberg_evolve(PSectorOperator(system.d, n, lifted),
                            PSectorOperator(system.d, n, ham_sector), t).mat
    rhs, _, quad_errors, tail, warn = lifted_series(
        a, system, t, n, quad, override_time_guard)
    return EgorovReport(n=n, p=a.p, t=t,
                        norm_difference=float(np.linalg.norm(lhs - rhs, 2)),
                        tree_tail_estimate=tail, quad_error=sum(quad_errors),
                        warnings=warn)
