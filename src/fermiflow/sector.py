"""Antisymmetric n-particle sectors over a finite mode space.

Basis states of the n-particle sector are labeled by n-element mode subsets,
ordered by ascending bitmask value so integer indices are stable across runs.
The state attached to the subset {i_1 < ... < i_n} is

    sqrt(n!) P_- (e_{i_1} ⊗ ... ⊗ e_{i_n}),

where P_- is the antisymmetrizing projector; these states are orthonormal.
Fermionic signs follow from applying creation operators in ascending mode
order. The module also provides the dense/sparse bridges between sector
coefficients and full tensor-product arrays, reduced density matrices by
contraction, determinant-based compound matrices, and the single-particle
lift/contract maps used by the interaction expansions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, RangeError, ShapeError, ValidationError

MAX_FULL_TENSOR = 4_000_000     # largest d**n expanded densely as a vector
MAX_DENSE_MATRIX_DIM = 4096     # largest d**p for dense full-space matrices
MAX_PERMUTATION_ORDER = 8

_DEGENERATE_FRAME_TOL = 1e-8


def _popcount_below(mask: int, k: int) -> int:
    return bin(mask & ((1 << k) - 1)).count("1")


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


@dataclass
class SectorBasis:
    """Ordered basis of the n-particle sector over d modes."""

    d: int
    n: int
    masks: np.ndarray          # (dim,) ascending bitmasks
    occ: np.ndarray            # (dim, n) occupied modes, ascending within a row
    index: dict                # mask -> row position

    @property
    def dim(self) -> int:
        return len(self.masks)

    def occupation_onehot(self) -> np.ndarray:
        """(dim, d) 0/1 matrix marking occupied modes per basis state."""
        out = np.zeros((self.dim, self.d))
        if self.n:
            out[np.arange(self.dim)[:, None], self.occ] = 1.0
        return out


@lru_cache(maxsize=None)
def sector_basis(d: int, n: int) -> SectorBasis:
    if d < 1:
        raise RangeError(f"need at least one mode, got d={d}")
    if not 0 <= n <= d:
        raise RangeError(f"particle number n={n} outside [0, {d}]")
    masks = []
    occ = []
    for subset in itertools.combinations(range(d), n):
        masks.append(sum(1 << s for s in subset))
        occ.append(subset)
    order = np.argsort(np.array(masks, dtype=np.int64), kind="stable")
    masks = np.array(masks, dtype=np.int64)[order]
    occ = np.array(occ, dtype=np.int64).reshape(len(masks), n)[order]
    index = {int(m): i for i, m in enumerate(masks)}
    return SectorBasis(d=d, n=n, masks=masks, occ=occ, index=index)


@dataclass
class SectorState:
    """A vector in the n-particle sector, stored as subset coefficients."""

    basis: SectorBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.basis.dim,):
            raise ShapeError(
                f"expected {self.basis.dim} coefficients, got {self.coeffs.shape}")

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def n(self) -> int:
        return self.basis.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def to_full_tensor(self) -> np.ndarray:
        """Expand into the full d**n tensor-product space (flat vector)."""
        iso = embedding_isometry(self.d, self.n)
        return np.asarray(iso @ self.coeffs).reshape(-1)


@dataclass
class PSectorOperator:
    """An operator on the p-particle sector (square in the subset basis)."""

    d: int
    p: int
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        dim = sector_basis(self.d, self.p).dim
        if self.mat.shape != (dim, dim):
            raise ShapeError(
                f"sector operator for (d={self.d}, p={self.p}) must be "
                f"{dim}x{dim}, got {self.mat.shape}")

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def dagger(self) -> "PSectorOperator":
        return PSectorOperator(self.d, self.p, self.mat.conj().T)

    def norm(self) -> float:
        """Operator (spectral) norm."""
        return float(np.linalg.norm(self.mat, 2))


def trace_norm(x) -> float:
    """Sum of singular values of a matrix or sector operator."""
    mat = x.mat if isinstance(x, PSectorOperator) else np.asarray(x)
    if mat.ndim != 2:
        raise ShapeError("trace norm is defined for matrices")
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def gram(phi: np.ndarray) -> np.ndarray:
    """Gram matrix of the orbital columns of phi."""
    phi = np.asarray(phi)
    if phi.ndim != 2:
        raise ShapeError("expected a (d, N) matrix of orbital columns")
    return phi.conj().T @ phi


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
def embedding_isometry(d: int, n: int) -> sp.csr_matrix:
    """Sparse isometry from the n-particle sector into the d**n full space.

    Column S holds the coefficients of sqrt(n!) P_- e_{i_1} ⊗ ... ⊗ e_{i_n}
    for the ascending subset S = {i_1 < ... < i_n}.
    """
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
    """Dense antisymmetrizing projector on the full d**p space (tests/oracles)."""
    if d ** p > MAX_DENSE_MATRIX_DIM:
        raise CapacityError(f"dense projector for d**p = {d}**{p} too large")
    iso = embedding_isometry(d, p)
    return np.asarray((iso @ iso.conj().T).todense())


def slater(phi: np.ndarray) -> SectorState:
    """Slater determinant state of the orbital columns of phi.

    The coefficient on the subset {i_1 < ... < i_N} is the determinant of
    the N x N matrix with entries phi[i_j, k]. The result has unit norm
    exactly when the columns are orthonormal.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2:
        raise ShapeError("expected a (d, N) matrix of orbital columns")
    d, n = phi.shape
    if n < 1:
        raise RangeError("a Slater state needs at least one orbital")
    if n > d:
        raise RangeError(f"cannot antisymmetrize {n} orbitals over {d} modes")
    basis = sector_basis(d, n)
    sub = phi[basis.occ, :]                    # (dim, n, n): rows = modes
    coeffs = np.linalg.det(sub)
    state = SectorState(basis=basis, coeffs=coeffs)
    if state.norm() < _DEGENERATE_FRAME_TOL:
        g = gram(phi)
        raise ValidationError(
            "orbital columns are (numerically) linearly dependent: "
            f"Slater norm {state.norm():.3e}, Gram condition number "
            f"{np.linalg.cond(g):.3e}")
    return state


def marginal(state: SectorState, p: int) -> PSectorOperator:
    """Reduced p-particle density matrix by contracting the last n - p slots.

    The state is expanded to its full antisymmetric coefficient tensor on
    d**n, reshaped to a (d**p, d**(n-p)) matrix M, and the reduced operator
    M M† is compressed back to the p-particle sector. Trace is 1.
    """
    d, n = state.d, state.n
    if not 1 <= p <= n:
        raise RangeError(f"marginal order p={p} outside [1, {n}]")
    if d ** n > MAX_FULL_TENSOR:
        raise CapacityError(f"full tensor space d**n = {d}**{n} too large")
    if d ** p > MAX_DENSE_MATRIX_DIM:
        raise CapacityError(f"dense reduced operator of dim d**p = {d}**{p} too large")
    psi = state.to_full_tensor().reshape(d ** p, d ** (n - p))
    reduced = psi @ psi.conj().T
    iso = embedding_isometry(d, p)
    half = np.asarray(iso.conj().T @ reduced)          # U† R
    mat = np.asarray(iso.conj().T @ half.conj().T).conj().T   # (U† R† U)† = U† R U
    return PSectorOperator(d=d, p=p, mat=mat)


def compound_matrix(a: np.ndarray, m: int) -> np.ndarray:
    """m-th compound matrix: minors det(a[X, Y]) over ascending m-subsets.

    For a one-particle operator a this is the sector matrix of the m-fold
    tensor power restricted to the antisymmetric subspace; in particular the
    compound of exp(-i t h) is the free m-particle sector propagator.
    """
    a = np.asarray(a)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ShapeError("compound matrix needs a square input")
    basis = sector_basis(d, m)
    if m == 0:
        return np.ones((1, 1), dtype=complex)
    sub = a[basis.occ[:, None, :, None], basis.occ[None, :, None, :]]
    return np.linalg.det(sub.astype(complex))


# ---------------------------------------------------------------------------
# Second-quantized one-body assembly and pair diagonals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _one_body_tables(d: int, n: int):
    """Index arrays for assembling sum_{k,l} a[k,l] c†_k c_l on a sector."""
    basis = sector_basis(d, n)
    rows, cols, kk, ll, signs = [], [], [], [], []
    for col, mask in enumerate(basis.masks):
        mask = int(mask)
        for l in range(d):
            if not mask & (1 << l):
                continue
            sign_l = -1 if _popcount_below(mask, l) % 2 else 1
            removed = mask ^ (1 << l)
            for k in range(d):
                if removed & (1 << k):
                    continue
                sign_k = -1 if _popcount_below(removed, k) % 2 else 1
                rows.append(basis.index[removed | (1 << k)])
                cols.append(col)
                kk.append(k)
                ll.append(l)
                signs.append(sign_l * sign_k)
    return (np.array(rows), np.array(cols), np.array(kk), np.array(ll),
            np.array(signs, dtype=float))


def one_body_sector(a: np.ndarray, d: int, n: int) -> np.ndarray:
    """Sector matrix of the one-body operator sum_i a_i (n-particle space)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (d, d):
        raise ShapeError(f"one-body kernel must be {d}x{d}")
    basis = sector_basis(d, n)
    rows, cols, kk, ll, signs = _one_body_tables(d, n)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.add.at(out, (rows, cols), signs * a[kk, ll])
    return out


def pair_diagonal_sector(wmat: np.ndarray, d: int, n: int) -> np.ndarray:
    """Diagonal of sum_{i<j} w(x_i - x_j) in the subset basis.

    The pair operator is multiplication by mode differences, so on a Slater
    basis state it acts by the scalar sum of w over occupied pairs.
    """
    basis = sector_basis(d, n)
    onehot = basis.occupation_onehot()
    total = np.einsum("si,ij,sj->s", onehot, wmat, onehot)
    self_part = onehot @ np.diag(wmat)
    return 0.5 * (total - self_part)


# ---------------------------------------------------------------------------
# Lift / contract maps between adjacent sectors
# ---------------------------------------------------------------------------
#
# The bridge space is (m-1 antisymmetric) ⊗ (one mode): interactions that
# couple each of the first m-1 particles to the m-th act on it diagonally,
# with eigenvalue wbar[alpha, i] = sum_{x in alpha} w(x - i). The coisometry
# onto the m-particle sector sends |alpha⟩ ⊗ e_i to
# (1/sqrt(m)) (-1)^(m-1-pos(i)) |alpha ∪ {i}⟩.

class LiftBlock(NamedTuple):
    """The part of the (m-1) ⊗ 1 → m coisometry that adds one mode.

    ``small`` and ``big`` are the ready ``np.ix_`` index pairs of the
    ``alpha`` rows of the (m-1)-sector and the ``target`` rows of the
    m-sector; ``signs`` is the outer product of the coisometry signs.
    """

    alpha: np.ndarray
    target: np.ndarray
    small: tuple
    big: tuple
    signs: np.ndarray


@lru_cache(maxsize=None)
def lift_tables(d: int, m: int):
    """Per-mode blocks of the (m-1) ⊗ 1 → m sector coisometry, in mode order."""
    if m < 1:
        raise RangeError("lift needs a target sector with at least one particle")
    small = sector_basis(d, m - 1)
    big = sector_basis(d, m)
    alpha = [[] for _ in range(d)]
    target = [[] for _ in range(d)]
    sign = [[] for _ in range(d)]
    for row, mask in enumerate(big.masks):
        mask = int(mask)
        occ = big.occ[row]
        for pos in range(m):
            i = int(occ[pos])
            alpha[i].append(small.index[mask ^ (1 << i)])
            target[i].append(row)
            sign[i].append(-1.0 if (m - 1 - pos) % 2 else 1.0)
    blocks = []
    for i in range(d):
        a_idx = np.array(alpha[i], dtype=np.int64)
        s_idx = np.array(target[i], dtype=np.int64)
        sg = np.array(sign[i], dtype=float)
        blocks.append(LiftBlock(a_idx, s_idx, np.ix_(a_idx, a_idx),
                                np.ix_(s_idx, s_idx),
                                sg[:, None] * sg[None, :]))
    return tuple(blocks)


def interaction_weights(wmat: np.ndarray, d: int, m: int) -> np.ndarray:
    """wbar[alpha, i] = sum over occupied x of w(x - i), per (m-1)-subset."""
    onehot = sector_basis(d, m - 1).occupation_onehot()
    return onehot @ wmat


def project_lift(x: np.ndarray, d: int, m: int) -> np.ndarray:
    """Sector matrix of P_- (X ⊗ 1) P_- given X on the (m-1)-sector."""
    big = sector_basis(d, m)
    out = np.zeros((big.dim, big.dim), dtype=complex)
    for block in lift_tables(d, m):
        out[block.big] += block.signs * x[block.small]
    out /= m
    return out


def project_lift_pair_commutator(x: np.ndarray, wbar: np.ndarray,
                                 d: int, m: int) -> np.ndarray:
    """Sector matrix of P_- [sum_i W_{i,m}, X ⊗ 1] P_-.

    X lives on the (m-1)-sector; the pair weights wbar must come from
    :func:`interaction_weights` for the same geometry.
    """
    big = sector_basis(d, m)
    out = np.zeros((big.dim, big.dim), dtype=complex)
    for i, block in enumerate(lift_tables(d, m)):
        wcol = wbar[block.alpha, i]
        diff = wcol[:, None] - wcol[None, :]
        out[block.big] += block.signs * diff * x[block.small]
    out /= m
    return out


def contract_pair_commutator(rho: np.ndarray, wbar: np.ndarray,
                             d: int, m: int) -> np.ndarray:
    """Sector matrix of tr_m [sum_i W_{i,m}, rho] given rho on the m-sector.

    This is the adjoint of :func:`project_lift_pair_commutator`; it is the
    collision term feeding the (m-1)-particle level of a reduced hierarchy.
    """
    small = sector_basis(d, m - 1)
    out = np.zeros((small.dim, small.dim), dtype=complex)
    for i, block in enumerate(lift_tables(d, m)):
        wcol = wbar[block.alpha, i]
        diff = wcol[:, None] - wcol[None, :]
        out[block.small] += block.signs * diff * rho[block.big]
    out /= m
    return out
