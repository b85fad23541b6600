"""One-particle mode systems: a finite chain of modes with a hopping-type
one-body operator and an even pair potential acting on mode-index differences.

The pair potential w enters everywhere through the Toeplitz matrix
``wmat[i, j] = w(|i - j|)``: it is simultaneously the diagonal of the
two-mode pair operator and the kernel of the discrete (zero-padded)
convolution used by the mean-field equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ShapeError, ValidationError
from .sector import (compound_matrix, lift_entries, one_body_entries,
                     pair_diagonal_sector, sector_basis)

HERMITICITY_TOL = 1e-12


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def hopping_hamiltonian(d: int) -> np.ndarray:
    """Discrete one-dimensional kinetic operator, rescaled to unit norm.

    The raw matrix is the second-difference stencil (2 on the diagonal,
    -1 on the first off-diagonals, open ends). Rescaling by its spectral
    norm pins the energy scale so that times of order 0.1-1 probe the
    short-time regime.
    """
    if d < 1:
        raise RangeError(f"need at least one mode, got d={d}")
    h = 2.0 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)
    return h / np.linalg.norm(h, 2)


def soft_coulomb(d: int, g: float = 1.0) -> np.ndarray:
    """Soft Coulomb profile g / (|m| + 1) on offsets m = 0 .. d-1."""
    return g / (np.arange(d) + 1.0)


@dataclass(frozen=True)
class ModeSystem:
    """A d-mode one-particle space with one-body operator and pair potential.

    The system is immutable: ``h`` and ``w`` are read-only copies of the
    inputs, so the data derived from them and kept in ``_derived`` (the
    pair kernel ``wmat`` and the flow kernel, the per-sector lift
    entries, pair diagonals and eigensystems, the sparse sector
    Hamiltonians and the dense ones of
    :func:`~fermiflow.exact.build_hamiltonian`) can never go stale.

    Parameters
    ----------
    d : int
        Number of modes.
    h : ndarray, shape (d, d)
        Real symmetric one-body operator, held as float64. Its eigenvectors,
        and the eigen-minor matrices of every sector built from them, are
        then real, so free rotations run as real matrix products; an ``h``
        with a nonzero imaginary part is refused.
    w : ndarray, shape (d,)
        Pair potential sampled on offsets 0 .. d-1; extended to negative
        offsets by evenness.
    """

    d: int
    h: np.ndarray
    w: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if np.any(np.imag(self.h)):
            raise ValidationError("one-body operator must be real")
        for name, value in (("h", np.real(self.h)), ("w", self.w)):
            value = np.array(value, dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.d < 1:
            raise RangeError(f"need at least one mode, got d={self.d}")
        if self.h.shape != (self.d, self.d):
            raise ShapeError(f"h must be {self.d}x{self.d}, got {self.h.shape}")
        if self.w.shape != (self.d,):
            raise ShapeError(f"w must have one value per offset 0..{self.d - 1}")
        if np.max(np.abs(self.h - self.h.T)) > HERMITICITY_TOL:
            raise ValidationError("one-body operator must be symmetric")
        if not np.all(np.isfinite(self.w)) or not np.all(np.isfinite(self.h)):
            raise ValidationError("non-finite entries in system operators")

    @classmethod
    def chain(cls, d: int, coupling: float = 1.0) -> "ModeSystem":
        """Standard test bench: unit-norm hopping plus soft Coulomb."""
        return cls(d=d, h=hopping_hamiltonian(d), w=coupling * soft_coulomb(d))

    @property
    def wmat(self) -> np.ndarray:
        """Toeplitz convolution kernel wmat[i, j] = w(|i - j|), read-only."""
        def build():
            idx = np.abs(np.subtract.outer(np.arange(self.d), np.arange(self.d)))
            return _read_only(self.w[idx])
        return self._derive("wmat", build)

    @property
    def kappa(self) -> float:
        """Operator norm of the two-mode pair operator (max |w|)."""
        return float(np.max(np.abs(self.w)))

    @property
    def kappa_minus(self) -> float:
        """Norm of the pair operator on the antisymmetric two-particle
        sector, max |w(m)| over offsets m >= 1: two fermions never share a
        mode, so w(0) never acts there."""
        return float(np.max(np.abs(self.w[1:]), initial=0.0))

    def _lift(self, m: int):
        """Pair-commutator entries of the (m-1) ⊗ 1 → m lift from
        :func:`~fermiflow.sector.lift_entries`, held only here; the positions
        stay writeable, as take and bincount copy a read-only index array."""
        def build():
            *positions, coefficients = lift_entries(self.wmat, self.d, m)
            return (*positions, _read_only(coefficients))
        return self._derive(("lift", m), build)

    def _pair_diagonal(self, m: int) -> np.ndarray:
        """Read-only diagonal of the pair sum on the m-sector, as
        :func:`~fermiflow.sector.pair_diagonal_sector` gives it."""
        return self._derive(("pair_diagonal", m), lambda: _read_only(
            pair_diagonal_sector(self.wmat, self.d, m)))

    def _sector_hamiltonian(self, n: int):
        """The n-sector Hamiltonian sum_i h_i + (1/n) sum_{i<j} w(x_i - x_j)
        as arrays (rows, cols, values, diagonal): the hops with h[k, l] != 0,
        from :func:`~fermiflow.sector.one_body_entries` and held only here,
        and the pair diagonal over n. All are read-only but ``rows``, the
        scatter index of every Lanczos product, which stays writeable, as
        bincount copies a read-only index array on every call."""
        def build():
            rows, cols, values = one_body_entries(self.h, self.d, n)
            return (rows, _read_only(cols), _read_only(values),
                    _read_only(self._pair_diagonal(n) / n))
        return self._derive(("sector_hamiltonian", n), build)

    def _derive(self, key, build):
        """The cached value of ``build()`` under ``key``, built on first use."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def _flow_kernel(self) -> np.ndarray:
        """The pair kernel of the mean-field flows, read-only: ``wmat`` held
        complex, so that no product of a flow mixes dtypes, with its w(0)
        diagonal zeroed, a term that cancels between direct and exchange."""
        def build():
            kernel = self.wmat.astype(complex)
            np.fill_diagonal(kernel, 0.0)
            return _read_only(kernel)
        return self._derive("flow_kernel", build)

    def _sector_rotation(self, m: int):
        """Eigenvalues of the free m-sector Hamiltonian, its eigenvectors and
        their transpose, read-only and real: ``np.linalg.eigh(h)`` at m = 1,
        and on every other sector the subset sums and the minor matrix of
        those, by :func:`~fermiflow.sector.compound_matrix`."""
        def build():
            if m == 1:
                return _frame(*np.linalg.eigh(self.h))
            vals, vecs, _ = self._sector_rotation(1)
            return _frame(sector_basis(self.d, m).occupation_onehot() @ vals,
                          compound_matrix(vecs, m))
        return self._derive(("sector", m), build)

    def sector_frame(self, m: int, t: float | np.ndarray) -> np.ndarray:
        """Free m-particle sector frame: the eigenvectors of the free m-sector
        Hamiltonian H₀ with column J scaled by exp(-i t λ_J), which is
        exp(-i t H₀) times them. It is unitary and solves df/dt = -i H₀ f,
        one matrix product cheaper than the propagator. ``t`` may be a
        (T, 1, 1) array of times, which gives the T frames stacked."""
        lam, vm, _ = self._sector_rotation(m)
        return vm * np.exp(-1j * t * lam)


def _frame(vals: np.ndarray, vecs: np.ndarray):
    return _read_only(vals), _read_only(vecs), vecs.T
