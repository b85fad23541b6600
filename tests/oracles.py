"""Reference implementations that only the tests use.

Each one rebuilds a package result by a route the package does not take:
permutation sums and sparse isometries on the full d**n tensor-product
space, the dense one-body sector matrix, dense two-mode pair and exchange
operators, and the fixed-time commutator-tree recursion on dense sector
propagators. This is the one module that imports ``scipy``; the package
itself runs on numpy alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from fermiflow.errors import (CapacityError, RangeError, ShapeError,
                              ValidationError)
from fermiflow.modes import ModeSystem
from fermiflow.sector import (MAX_FULL_TENSOR, PSectorOperator, SectorState,
                              one_body_entries, project_lift_pair_commutator,
                              sector_basis)
from fermiflow.tree import (_zero_sector_matrix, free_evolve_op,
                            sector_propagator)

MAX_DENSE_MATRIX_DIM = 4096     # largest d**p for dense full-space matrices
MAX_PERMUTATION_ORDER = 8


# ---------------------------------------------------------------------------
# Full tensor-product space
# ---------------------------------------------------------------------------

def permutation_sign(perm) -> int:
    """Sign of a permutation given as a tuple of images of 0..n-1."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def antisymmetrize(tensor: np.ndarray, scaled: bool = False) -> np.ndarray:
    """Apply the antisymmetrizer to a p-index tensor with equal axis sizes.

    With ``scaled=False`` this is the orthogonal projector P_-; with
    ``scaled=True`` the result is multiplied by p! (the signed sum over
    permutations without the 1/p! average).
    """
    t = np.asarray(tensor, dtype=complex)
    p = t.ndim
    if p == 0:
        raise ShapeError("antisymmetrize needs at least one tensor index")
    if len(set(t.shape)) != 1:
        raise ShapeError(f"all axes must have equal length, got {t.shape}")
    if p > MAX_PERMUTATION_ORDER:
        raise CapacityError(f"refusing to sum over {p}! permutations")
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(p)):
        out += permutation_sign(perm) * np.transpose(t, perm)
    if not scaled:
        out /= factorial(p)
    return out


@lru_cache(maxsize=None)
def embedding_isometry(d: int, n: int):
    """Sparse isometry from the n-particle sector into the d**n full space.

    Column S holds the coefficients of sqrt(n!) P_- e_{i_1} ⊗ ... ⊗ e_{i_n}
    for the ascending subset S = {i_1 < ... < i_n}.
    """
    import scipy.sparse as sp

    if d ** max(n, 1) > MAX_FULL_TENSOR:
        raise CapacityError(f"full tensor space d**n = {d}**{n} too large")
    basis = sector_basis(d, n)
    if n == 0:
        return sp.csr_matrix(np.ones((1, 1)))
    rows, cols, vals = [], [], []
    strides = d ** np.arange(n - 1, -1, -1)
    amp = 1.0 / np.sqrt(factorial(n))
    for col in range(basis.dim):
        occ = basis.occ[col]
        for perm in itertools.permutations(range(n)):
            modes = occ[list(perm)]
            rows.append(int(np.dot(modes, strides)))
            cols.append(col)
            vals.append(permutation_sign(perm) * amp)
    return sp.csr_matrix((vals, (rows, cols)), shape=(d ** n, basis.dim))


def antisym_projector_dense(d: int, p: int) -> np.ndarray:
    """Dense antisymmetrizing projector on the full d**p space."""
    if d ** p > MAX_DENSE_MATRIX_DIM:
        raise CapacityError(f"dense projector for d**p = {d}**{p} too large")
    iso = embedding_isometry(d, p)
    return np.asarray((iso @ iso.conj().T).todense())


def to_full_tensor(state: SectorState) -> np.ndarray:
    """Expand a sector state into the full d**n tensor-product space (flat
    vector)."""
    iso = embedding_isometry(state.d, state.n)
    return np.asarray(iso @ state.coeffs).reshape(-1)


# ---------------------------------------------------------------------------
# Dense sector and two-mode operators
# ---------------------------------------------------------------------------

def one_body_sector(a: np.ndarray, d: int, n: int) -> np.ndarray:
    """Sector matrix of the one-body operator sum_i a_i (n-particle space)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (d, d):
        raise ShapeError(f"one-body kernel must be {d}x{d}")
    dim = sector_basis(d, n).dim
    out = np.zeros((dim, dim), dtype=complex)
    rows, cols, values = one_body_entries(a, d, n)
    np.add.at(out, (rows, cols), values)
    return out


def pair_operator(system: ModeSystem) -> np.ndarray:
    """Dense two-mode pair operator: diagonal with entries w(i - j)."""
    return np.diag(system.wmat.reshape(-1)).astype(complex)


def swap_operator(system: ModeSystem) -> np.ndarray:
    """Exchange operator E on the two-mode space: E(x ⊗ y) = y ⊗ x."""
    d = system.d
    e = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            e[j * d + i, i * d + j] = 1.0
    return e


# ---------------------------------------------------------------------------
# Fixed-time commutator-tree recursion on dense sector propagators
# ---------------------------------------------------------------------------

KERNEL_PLAIN = "plain"
KERNEL_EXCHANGE = "exchange"

# On the antisymmetric subspace a transposition acts as -1, so the
# exchange-corrected pair kernel w(x-y)(1 - swap) acts there as exactly
# twice the plain kernel; every projected insertion picks up this factor.
_KERNEL_FACTORS = {KERNEL_PLAIN: 1.0, KERNEL_EXCHANGE: 2.0}


def _kernel_factor(kernel: str) -> float:
    try:
        return _KERNEL_FACTORS[kernel]
    except KeyError:
        raise ValidationError(f"unknown insertion kernel {kernel!r}") from None


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


def _attach_insertion(x: np.ndarray, m: int, system: ModeSystem, s: float,
                      factor: float) -> np.ndarray:
    """i P_- [sum_i K_{i m}(s), X ⊗ 1] P_- for X on the (m-1)-sector.

    The insertion kernel is evaluated in the free Heisenberg picture at
    time s: rotate the operand forward, commute, rotate back. This is the
    propagator route, in site basis with dense sector propagators; it is
    the independent oracle of the eigenframe sweep in
    :func:`fermiflow.tree._integrate_orders`.
    """
    f_small = sector_propagator(system, m - 1, s)
    f_big = sector_propagator(system, m, s)
    z = f_small @ x @ f_small.conj().T
    lifted = project_lift_pair_commutator(z, system._lift(m), system.d, m)
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
    the base case is the freely evolved observable at time t. It runs the
    propagator route (:func:`_attach_insertion`, :func:`_loop_insertion`),
    so it is the oracle of the integrated sweep at fixed times.
    """
    factor = _kernel_factor(kernel)
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
