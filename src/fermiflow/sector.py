"""Antisymmetric n-particle sectors over a finite mode space.

Basis states of the n-particle sector are labeled by n-element mode subsets,
ordered by ascending bitmask value so integer indices are stable across runs.
The state attached to the subset {i_1 < ... < i_n} is

    sqrt(n!) P_- (e_{i_1} ⊗ ... ⊗ e_{i_n}),

where P_- is the antisymmetrizing projector; these states are orthonormal.
Fermionic signs follow from applying creation operators in ascending mode
order. One cached table of disjoint subset pairs, with one sign convention
and read only here, in one layout (alpha rows, union rows and signs, a row
per (n-p)-subset beta, 24 B per pair) that every reader indexes directly,
serves the reduced density matrices (contracted inside the sector, without
the d**n tensor), the one-body hops, the split coisometries of the graded
algebra, and the adjoint expand map: one builder of flat positions and real
weights, and one ``np.add.at`` scatter kernel, shared by
:func:`fermiflow.exact.second_quantize` and the lifts of the interaction
expansions. Compound matrices come by Laplace recursion. No d**n
tensor-product array is formed; the full-space bridges that check these
maps live with the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import CapacityError, RangeError, ShapeError, ValidationError

MAX_FULL_TENSOR = 4_000_000     # largest dense work array, in entries
MAX_SECTOR_DIM = 1 << 20        # largest C(d, n) enumerated as a basis
MAX_SECTOR_MODES = 63           # modes that fit an int64 bitmask

_DEGENERATE_FRAME_TOL = 1e-8


@dataclass
class SectorBasis:
    """Ordered basis of the n-particle sector over d modes."""

    d: int
    n: int
    masks: np.ndarray          # (dim,) ascending bitmasks
    occ: np.ndarray            # (dim, n) occupied modes, ascending within a row

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
    if d > MAX_SECTOR_MODES or comb(d, n) > MAX_SECTOR_DIM:
        raise CapacityError(f"sector C({d}, {n}) has over {MAX_SECTOR_DIM} "
                            f"states or {MAX_SECTOR_MODES} modes")
    # descending subsets in lex order run down the masks; reversed, they rise
    occ = np.array(list(itertools.combinations(range(d - 1, -1, -1), n)),
                   dtype=np.int64).reshape(comb(d, n), n)[::-1, ::-1]
    return SectorBasis(d=d, n=n, masks=np.sum(1 << occ, axis=1), occ=occ)


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

    def norm(self) -> float:
        """Operator (spectral) norm."""
        return float(np.linalg.norm(self.mat, 2))


def trace_norm(x) -> float:
    """Sum of singular values of a matrix."""
    mat = np.asarray(x)
    if mat.ndim != 2:
        raise ShapeError("trace norm is defined for matrices")
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def gram(phi: np.ndarray) -> np.ndarray:
    """Gram matrix of the orbital columns of phi."""
    phi = np.asarray(phi)
    if phi.ndim != 2:
        raise ShapeError("expected a (d, N) matrix of orbital columns")
    return phi.conj().T @ phi


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


@lru_cache(maxsize=None)
def _marginal_table(d: int, n: int, p: int):
    """Disjoint (p, n-p)-subset pairs (alpha, beta), one row per beta of the
    (n-p)-sector with its C(d-n+p, p) alphas ascending: the rows of alpha in
    the p-sector and of alpha ∪ beta in the n-sector, and the sign
    (-1)^#{(a, b) in alpha x beta : a > b} that sorts the concatenation,
    three (C(d, n-p), C(d-n+p, p)) arrays of 24 B per pair. Grouped by beta
    they give the expand map (:func:`_expand_entries`) and at p = 1 the
    one-body hops (alpha the hopping mode)."""
    small, rest = sector_basis(d, p), sector_basis(d, n - p)
    beta = np.arange(rest.dim)[:, None]
    disjoint = rest.masks[:, None] & small.masks[None, :] == 0
    # a copy, so np.nonzero's (pairs, 2) buffer with its beta column is freed
    alpha = np.nonzero(disjoint)[1].reshape(rest.dim, -1).copy()
    union = np.searchsorted(sector_basis(d, n).masks,
                            small.masks[alpha] | rest.masks[beta])
    below = rest.occupation_onehot() @ np.triu(np.ones((d, d)), 1)
    inversions = (small.occupation_onehot() @ below.T)[alpha, beta]
    return alpha, union, 1.0 - 2.0 * (inversions % 2)


def marginal(state: SectorState, p: int) -> PSectorOperator:
    """Reduced p-particle density matrix by contraction inside the sector.

    With M[alpha, beta] = sign(alpha, beta) psi(alpha ∪ beta) over disjoint
    p-subsets alpha and (n-p)-subsets beta, the reduced density is
    M M† / C(n, p); sign(alpha, beta) is the parity of the pairs a > b in
    alpha x beta. No d**n tensor is formed. Trace is 1 for a unit state.
    """
    d, n = state.d, state.n
    if not 1 <= p <= n:
        raise RangeError(f"marginal order p={p} outside [1, {n}]")
    alpha, union, signs = _marginal_table(d, n, p)
    m = np.zeros((comb(d, p), len(alpha)), dtype=complex)
    m[alpha, np.arange(len(alpha))[:, None]] = signs * state.coeffs[union]
    return PSectorOperator(d=d, p=p, mat=m @ m.conj().T / comb(n, p))


def split_coisometry(d: int, n: int, k: int):
    """The nonzero columns of J = E_n†(E_k ⊗ E_{n-k}), E_m the m-sector's
    isometry into d**m space, one per disjoint pair (alpha, beta) of the
    marginal table, holding sign(alpha, beta) / sqrt(C(n, k)) in the row of
    alpha ∪ beta, and the pairs' alpha and beta rows, beta-major."""
    alpha, union, signs = _marginal_table(d, n, k)
    out = np.zeros((comb(d, n), union.size))
    out[union, np.arange(union.size).reshape(union.shape)] = (
        signs / np.sqrt(comb(n, k)))
    beta = np.repeat(np.arange(len(alpha)), alpha.shape[1])
    return out, alpha.reshape(-1), beta


def compound_matrix(a: np.ndarray, m: int) -> np.ndarray:
    """m-th compound matrix: minors det(a[X, Y]) over ascending m-subsets.

    For a one-particle operator a this is the sector matrix of the m-fold
    tensor power restricted to the antisymmetric subspace; in particular the
    compound of exp(-i t h) is the free m-particle sector propagator.

    Built by Laplace expansion along the first row, from the 1-minors (the
    entries of a) up, with T_0 < ... < T_{j-1} the ascending elements of T:
    C_j[S, T] = sum_k (-1)^k a[min S, T_k] C_{j-1}[S \\ min S, T \\ T_k].
    That is O(j) work per entry where a determinant takes O(j^3). A real
    ``a`` gives a real result.
    """
    a = np.asarray(a)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ShapeError("compound matrix needs a square input")
    sector_basis(d, m)                  # refuses m outside [0, d]
    if m == 0:
        return np.ones((1, 1), dtype=np.result_type(a, 1.0))
    c = a.astype(np.result_type(a, 1.0))
    for j in range(2, m + 1):
        basis = sector_basis(d, j)
        occ = basis.occ
        # drop[S, k]: the row of S \ S_k among the (j-1)-subsets
        drop = np.searchsorted(sector_basis(d, j - 1).masks,
                               basis.masks[:, None] ^ (1 << occ))
        lead, rest = a[occ[:, 0]], c[drop[:, 0]]    # a[min S], C[S \ min S]
        c = lead.take(occ[:, 0], axis=1) * rest.take(drop[:, 0], axis=1)
        for k in range(1, j):
            term = lead.take(occ[:, k], axis=1)
            term *= rest.take(drop[:, k], axis=1)
            if k % 2:
                c -= term
            else:
                c += term
    return c


# ---------------------------------------------------------------------------
# Second-quantized one-body assembly and pair diagonals
# ---------------------------------------------------------------------------

def one_body_entries(a: np.ndarray, d: int, n: int):
    """Entries (rows, cols, values) of sum_{k,l} a[k,l] c†_k c_l on the
    n-sector where a[k, l] != 0, from the (1, n-1) pairs of the marginal
    table: for an (n-1)-subset beta and modes k, l outside it, the hop
    c†_k c_l sends beta ∪ {l} to sign(k, beta) sign(l, beta) (beta ∪ {k})."""
    if n == 0:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0, a.dtype)
    modes, union, signs = _marginal_table(d, n, 1)
    group, i, j = np.nonzero((a != 0)[modes[:, :, None], modes[:, None, :]])
    k, l = (group, i), (group, j)
    return union[k], union[l], signs[k] * signs[l] * a[modes[k], modes[l]]


def pair_diagonal_sector(wmat: np.ndarray, d: int, n: int) -> np.ndarray:
    """Diagonal of sum_{i<j} w(x_i - x_j) in the subset basis.

    The pair operator is multiplication by mode differences, so on a Slater
    basis state it acts by the scalar sum of w over occupied pairs.
    """
    onehot = sector_basis(d, n).occupation_onehot()
    kernel = np.array(wmat)
    np.fill_diagonal(kernel, 0.0)    # no particle pairs with itself
    return 0.5 * np.einsum("si,ij,sj->s", onehot, kernel, onehot)


# ---------------------------------------------------------------------------
# The expand map; lift / contract maps between adjacent sectors
# ---------------------------------------------------------------------------
#
# The bridge space is (m-1 antisymmetric) ⊗ (one mode): interactions that
# couple each of the first m-1 particles to the m-th act on it diagonally,
# with eigenvalue wbar[alpha, i] = sum_{x in alpha} w(x - i). The coisometry
# onto the m-particle sector sends |alpha⟩ ⊗ e_i to
# (1/sqrt(m)) (-1)^(m-1-pos(i)) |alpha ∪ {i}⟩.

def _expand_entries(d: int, n: int, p: int):
    """The expand map from the p- to the n-sector, adjoint to the contraction
    of :func:`marginal`, beta-major: the alpha rows of :func:`_marginal_table`,
    and for every beta and two of its alphas a, b the flat positions
    alpha_a C(d, p) + alpha_b and S_a C(d, n) + S_b, S = alpha ∪ beta, and
    the sign products s_a s_b, s = sign(alpha, beta), grouped by beta."""
    alpha, union, signs = _marginal_table(d, n, p)

    def flat(v, dim):
        return (v[:, :, None] * dim + v[:, None, :]).reshape(-1)
    return (alpha, flat(alpha, comb(d, p)), flat(union, comb(d, n)),
            signs[:, :, None] * signs[:, None, :])


def lift_entries(wmat: np.ndarray, d: int, m: int):
    """Entries (small, big, coefficients) of the pair commutator on both
    sides of the (m-1) ⊗ 1 → m coisometry: the positions of the expand map
    at n - p = 1, beta the added mode i and s = (-1)^(m-1-pos(i)), and the
    coefficients s_a s_b (wbar[alpha_a, i] - wbar[alpha_b, i]), 24 B per
    entry. Uncached: ``ModeSystem._lift`` holds them."""
    if m < 1:
        raise RangeError("lift needs a target sector with at least one particle")
    alpha, small, big, signs = _expand_entries(d, m, m - 1)
    wbar = sector_basis(d, m - 1).occupation_onehot() @ wmat
    w = wbar[alpha, np.arange(d)[:, None]]
    return small, big, (signs * (w[:, :, None] - w[:, None, :])).reshape(-1)


def _lift_sum(x, gather, weights, scatter, dim: int, m: int) -> np.ndarray:
    """The dim x dim matrix, over m, whose flat entry k adds up the entries
    of x at ``gather`` times ``weights`` over the positions whose
    ``scatter`` is k; ``np.add.at`` adds in entry order, so beta by beta
    ascending."""
    values = np.asarray(x, dtype=complex).reshape(-1)[gather]
    values *= weights
    out = np.zeros(dim * dim, dtype=complex)
    np.add.at(out, scatter, values)
    out *= 1.0 / m
    return out.reshape(dim, dim)


def project_lift_pair_commutator(x: np.ndarray, entries, d: int,
                                 m: int) -> np.ndarray:
    """Sector matrix of P_- [sum_i W_{i,m}, X ⊗ 1] P_-.

    X lives on the (m-1)-sector; the entries must come from
    :func:`lift_entries` for the same geometry.
    """
    small, big, coefficients = entries
    return _lift_sum(x, small, coefficients, big, comb(d, m), m)


def contract_pair_commutator(rho: np.ndarray, entries, d: int,
                             m: int) -> np.ndarray:
    """Sector matrix of tr_m [sum_i W_{i,m}, rho] given rho on the m-sector.

    This is the adjoint of :func:`project_lift_pair_commutator`; it is the
    collision term feeding the (m-1)-particle level of a reduced hierarchy.
    """
    small, big, coefficients = entries
    return _lift_sum(rho, big, coefficients, small, comb(d, m - 1), m)
