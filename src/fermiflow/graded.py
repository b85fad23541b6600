"""Graded observable algebra, bracket, state hierarchy, and superflow.

Observables carry finitely many blocks indexed by (p, q): operators from
the antisymmetric q-sector into the p-sector, stored in the compressed
minor basis. Products and brackets stay in that basis: the split
coisometries J(d, n, k) = E_n†(E_k ⊗ E_{n-k}) of the sector module, one
column per disjoint subset pair, carry every sign and normalization of the
antisymmetrizer, so no d**p tensor-space array is formed.

States are the dual family: block sequences paired through plain traces.
A one-particle density generates the quasi-free state whose hierarchy
closes at the density's rank, so its evolution is a finite upper-triangular
linear system driven from the top level down, run as a list of its
sector blocks through the interaction-picture stream of the mean-field
flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import comb

import numpy as np

from .errors import (CapacityError, RangeError, ShapeError,
                     UnsupportedError, ValidationError)
from .hf import HFConfig, _interaction_stream, quasi_free_marginal
from .modes import ModeSystem
from .sector import (MAX_FULL_TENSOR, PSectorOperator,
                     contract_pair_commutator, split_coisometry, trace_norm)
from .tree import QuadratureSpec, _series, _spectral_norm


@dataclass
class _BlockFamily:
    """Complex C(d, p) x C(d, q) blocks keyed by (p, q); absent ones are 0."""

    d: int
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise RangeError("need at least one mode")
        clean = {}
        for (p, q), mat in self.blocks.items():
            if p < 0 or q < 0 or p > self.d or q > self.d:
                raise RangeError(f"block ({p}, {q}) outside [0, {self.d}]")
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != self._shape(p, q):
                raise ShapeError(
                    f"block ({p}, {q}) has shape {mat.shape}, expected "
                    f"{self._shape(p, q)}")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"block ({p}, {q}) has non-finite entries")
            clean[(p, q)] = mat
        self.blocks = clean

    def _shape(self, p: int, q: int) -> tuple:
        return comb(self.d, p), comb(self.d, q)

    def block(self, p: int, q: int) -> np.ndarray:
        got = self.blocks.get((p, q))
        if got is not None:
            return got
        return np.zeros(self._shape(p, q), dtype=complex)

    def is_gauge_invariant(self) -> bool:
        return all(p == q for (p, q), m in self.blocks.items() if np.any(m))


class GradedObservable(_BlockFamily):
    """Finite family of sector blocks a^(p,q) with the summed operator norm."""

    @classmethod
    def from_sector_op(cls, a: PSectorOperator) -> "GradedObservable":
        return cls(a.d, {(a.p, a.p): a.mat})

    @classmethod
    def unit(cls, d: int) -> "GradedObservable":
        return cls(d, {(0, 0): np.array([[1.0 + 0j]])})

    @property
    def norm(self) -> float:
        return float(sum(np.linalg.norm(m, 2) for m in self.blocks.values()))

    def degrees(self) -> set:
        return {p - q for (p, q), m in self.blocks.items() if np.any(m)}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    @property
    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise ValidationError("observable mixes degrees")
        return degs.pop() if degs else 0

    def __add__(self, other: "GradedObservable") -> "GradedObservable":
        if self.d != other.d:
            raise ValidationError("observables live on different mode counts")
        keys = set(self.blocks) | set(other.blocks)
        return GradedObservable(
            self.d, {k: self.block(*k) + other.block(*k) for k in keys})

    def __sub__(self, other: "GradedObservable") -> "GradedObservable":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "GradedObservable":
        return GradedObservable(
            self.d, {k: scalar * m for k, m in self.blocks.items()})


class GradedState(_BlockFamily):
    """Dual block family paired with observables through plain traces."""

    @property
    def norm(self) -> float:
        return max((trace_norm(m) for m in self.blocks.values()), default=0.0)

    def pair(self, a: GradedObservable) -> complex:
        if self.d != a.d:
            raise ValidationError("state and observable mode counts differ")
        total = 0.0 + 0.0j
        for (p, q), rho in self.blocks.items():
            mat = a.blocks.get((q, p))
            if mat is not None:
                total += np.trace(rho @ mat)
        return complex(total)


def state_from_density(gamma) -> GradedState:
    """Quasi-free state of a one-particle density: blocks are its p-minors
    up to its rank, above which they vanish identically."""
    g = np.asarray(gamma, dtype=complex)
    rank = int(np.linalg.matrix_rank(g, tol=1e-12))
    blocks = {(0, 0): np.array([[1.0 + 0j]])}
    for p in range(1, rank + 1):
        blocks[(p, p)] = quasi_free_marginal(g, p).mat
    return GradedState(g.shape[0], blocks)


def _refuse_over_capacity(*sizes: int) -> None:
    """Refuse a block, before allocating, over MAX_FULL_TENSOR entries."""
    if max(sizes) > MAX_FULL_TENSOR:
        raise CapacityError(f"graded block needs {max(sizes)} work entries, "
                            f"over {MAX_FULL_TENSOR}")


def graded_product(a: GradedObservable, b: GradedObservable) -> GradedObservable:
    """Blockwise antisymmetrized tensor product with the grading sign.

    (ab)^(p,q) collects P_- (a^(p1,q1) ⊗ b^(p2,q2)) P_- over all splittings,
    weighted by (-1)^(p2 (p1+q1)). In the minor basis a piece is
    J(d, p, p1) (a ⊗ b) J(d, q, q1)ᵀ, and only the disjoint subset pairs of
    a ⊗ b, the nonzero columns of the split coisometries, are gathered.
    """
    if a.d != b.d:
        raise ValidationError("observables live on different mode counts")
    d, c = a.d, partial(comb, a.d)
    out: dict = {}
    for (p1, q1), ma in a.blocks.items():
        for (p2, q2), mb in b.blocks.items():
            p, q = p1 + p2, q1 + q2
            if p > d or q > d:
                continue
            pairs_p, pairs_q = c(p) * comb(p, p1), c(q) * comb(q, q1)
            _refuse_over_capacity(c(p) * pairs_p, c(q) * pairs_q,
                                  pairs_p * pairs_q)
            left, rp, cp = split_coisometry(d, p, p1)
            right, rq, cq = split_coisometry(d, q, q1)
            sign = -1.0 if (p2 * (p1 + q1)) % 2 else 1.0
            piece = left @ (ma[np.ix_(rp, rq)] * mb[np.ix_(cp, cq)]) @ right.T
            out[(p, q)] = out.get((p, q), 0) + sign * piece
    return GradedObservable(d, out)


def _joined(d: int, x: np.ndarray, px: int, qx: int,
            y: np.ndarray, py: int, qy: int) -> np.ndarray:
    """Sector block of (x ⊗ 1)(1 ⊗ y): the last input leg of the (px, qx)
    block x joined to the first output leg of the (py, qy) block y.

    x J(d, qx, qx-1) and J(d, py, 1)ᵀ y meet over the joined mode; the
    free legs, rows (S1, S2') and columns (T1', T2), are compressed by
    J(d, px+py-1, px) and J(d, qx+qy-1, qx-1). Each J holds only its pairs'
    columns: x J and Jᵀ y are placed, and the joined block read, by their rows.
    """
    c = partial(comb, d)
    pairs_l = c(px + py - 1) * comb(px + py - 1, px)
    pairs_r = c(qx + qy - 1) * comb(qx + qy - 1, qx - 1)
    _refuse_over_capacity(
        c(qx) ** 2 * qx, c(px) * c(qx - 1) * d, c(py) ** 2 * py,
        d * c(py - 1) * c(qy), c(px) * c(qx - 1) * c(py - 1) * c(qy),
        c(px + py - 1) * pairs_l, c(qx + qy - 1) * pairs_r)
    jx, xa, xb = split_coisometry(d, qx, qx - 1)
    xt = np.zeros((c(px), c(qx - 1), d), dtype=complex)
    xt[:, xa, xb] = x @ jx
    jy, ya, yb = split_coisometry(d, py, 1)
    yt = np.zeros((d, c(py - 1), c(qy)), dtype=complex)
    yt[ya, yb] = jy.T @ y
    m = np.tensordot(xt, yt, (2, 0)).transpose(0, 2, 1, 3)
    left, la, lb = split_coisometry(d, px + py - 1, px)
    right, ra, rb = split_coisometry(d, qx + qy - 1, qx - 1)
    return left @ m[la, lb][:, ra, rb] @ right.T


def graded_poisson(a: GradedObservable, b: GradedObservable) -> GradedObservable:
    """Graded Poisson bracket, extended bilinearly over blocks.

    Blocks a^(p1,q1) and b^(p2,q2) give block (p1+p2-1, q1+q2-1): i s q1 p2
    times a's last input leg joined to b's first output leg, with
    s = (-1)^((p2+1)(p1+q1)), minus i s' p1 q2 times the same with a and b
    exchanged, with s' = (-1)^((q1+1)(p2+q2)).
    """
    if a.d != b.d:
        raise ValidationError("observables live on different mode counts")
    d = a.d
    out: dict = {}
    for (p1, q1), ma in a.blocks.items():
        for (p2, q2), mb in b.blocks.items():
            key = (p1 + p2 - 1, q1 + q2 - 1)
            if max(key) > d:
                continue
            if q1 and p2:
                sign = -1.0 if ((p2 + 1) * (p1 + q1)) % 2 else 1.0
                out[key] = out.get(key, 0) + 1j * sign * q1 * p2 * _joined(
                    d, ma, p1, q1, mb, p2, q2)
            if p1 and q2:
                sign = -1.0 if ((q1 + 1) * (p2 + q2)) % 2 else 1.0
                out[key] = out.get(key, 0) - 1j * sign * p1 * q2 * _joined(
                    d, mb, p2, q2, ma, p1, q1)
    return GradedObservable(d, out)


@dataclass
class HierarchyTrajectory:
    """Grid of times and the state blocks recorded at each."""

    times: np.ndarray
    states: list
    config: HFConfig

    def final(self) -> GradedState:
        return self.states[-1]


def hierarchy_collision(sigma: list, system: ModeSystem) -> list:
    """Collision terms -i tr_{p+1}[W, sigma[p+1]] of the levels sigma[0..top];
    zero on level 0, where one particle has no pair, and on the free top.
    A level may be one matrix or a stack of them along leading axes."""
    out = [np.zeros(s.shape, complex) for s in sigma]
    for p in range(1, len(sigma) - 1):
        for node in np.ndindex(sigma[p + 1].shape[:-2]):
            out[p][node] = -1j * contract_pair_commutator(
                sigma[p + 1][node], system._lift(p + 1), system.d, p + 1)
    return out


def hierarchy_evolve(rho: GradedState, system: ModeSystem, t_grid,
                     config: HFConfig | None = None) -> HierarchyTrajectory:
    """Integrate the state hierarchy driven from the top level down.

    Each gauge block obeys a von Neumann equation sourced by the traced
    pair commutator of the block one level above; the top level is free.
    The blocks run as one list through the interaction-picture stream of
    the mean-field flows, each rotated by its own sector frame, and the
    collision term runs once per Picard sweep, on all collocation nodes.
    """
    if not rho.is_gauge_invariant():
        raise UnsupportedError("hierarchy flow needs a gauge-invariant state")
    config = HFConfig() if config is None else config
    if not rho.blocks:
        raise ValidationError("state has no blocks to evolve")
    if rho.d != system.d:
        raise ValidationError("state and system mode counts differ")
    levels = range(max(p for (p, q) in rho.blocks) + 1)
    stream = _interaction_stream(
        [rho.block(p, p) for p in levels],
        lambda t: [system.sector_frame(p, t) for p in levels], t_grid,
        lambda sigma: hierarchy_collision(sigma, system), config.dt ** 4,
        both_sides=True)
    times, states = [], []
    for t, sigma, _ in stream:
        times.append(t)
        states.append(GradedState(system.d, {
            (p, p): block for p, block in enumerate(sigma)}))
    return HierarchyTrajectory(times=np.array(times), states=states,
                               config=config)


@dataclass
class SuperflowReport:
    """Truncated observable flow with its tail and quadrature estimates."""

    observable: GradedObservable
    t: float
    k_max: int
    tail_estimate: float
    quad_error: float
    warnings: list = field(default_factory=list)


def superflow_observable(a: PSectorOperator, system: ModeSystem, t: float,
                         quad: QuadratureSpec,
                         override_time_guard: bool = False) -> SuperflowReport:
    """Push a sector observable through the truncated graded flow.

    Block p + k is the integrated order-k loop-free operator; the output
    stays gauge invariant because every block keeps equal leg counts.
    """
    blocks, _, quad_errors, tail, warn = _series(
        a, t, quad, system, override_time_guard, system.d,
        lambda m, x: x, _spectral_norm)
    return SuperflowReport(
        observable=GradedObservable(
            a.d, {(a.p + k, a.p + k): x for k, x in enumerate(blocks)}),
        t=t, k_max=len(blocks) - 1, tail_estimate=tail,
        quad_error=float(sum(quad_errors)), warnings=warn)
