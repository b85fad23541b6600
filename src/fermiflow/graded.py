"""Graded observable algebra, bracket, state hierarchy, and superflow.

Observables carry finitely many blocks indexed by (p, q): operators from
the antisymmetric q-sector into the p-sector, stored in the compressed
minor basis. Products and brackets are evaluated by embedding blocks into
full tensor spaces, combining them there, and compressing back; this keeps
every sign and normalization tied to the antisymmetrizer itself.

States are the dual family: block sequences paired through plain traces.
A one-particle density generates the quasi-free state whose hierarchy
closes at the density's rank, so its evolution is a finite upper-triangular
linear system driven from the top level down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import (RangeError, ShapeError, UnsupportedError,
                     ValidationError)
from .hf import HFConfig, _rk4_stream, quasi_free_marginal
from .modes import ModeSystem
from .sector import (PSectorOperator, embedding_isometry,
                     contract_pair_commutator, trace_norm)
from .tree import (QuadratureSpec, _series, _spectral_norm,
                   sector_propagator)


def _block_shape(d: int, p: int, q: int) -> tuple:
    return comb(d, p), comb(d, q)


@dataclass
class GradedObservable:
    """Finite family of sector blocks a^(p,q) with the summed operator norm."""

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
            if mat.shape != _block_shape(self.d, p, q):
                raise ShapeError(
                    f"block ({p}, {q}) has shape {mat.shape}, expected "
                    f"{_block_shape(self.d, p, q)}")
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"block ({p}, {q}) has non-finite entries")
            clean[(p, q)] = mat
        self.blocks = clean

    @classmethod
    def from_sector_op(cls, a: PSectorOperator) -> "GradedObservable":
        return cls(a.d, {(a.p, a.p): a.mat})

    @classmethod
    def unit(cls, d: int) -> "GradedObservable":
        return cls(d, {(0, 0): np.array([[1.0 + 0j]])})

    def block(self, p: int, q: int) -> np.ndarray:
        got = self.blocks.get((p, q))
        if got is not None:
            return got
        return np.zeros(_block_shape(self.d, p, q), dtype=complex)

    @property
    def norm(self) -> float:
        return float(sum(np.linalg.norm(m, 2) for m in self.blocks.values()))

    def degrees(self) -> set:
        return {p - q for (p, q), m in self.blocks.items() if np.any(m)}

    def is_gauge_invariant(self) -> bool:
        return self.degrees() <= {0}

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


@dataclass
class GradedState:
    """Dual block family paired with observables through plain traces."""

    d: int
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (p, q), mat in self.blocks.items():
            if p < 0 or q < 0 or p > self.d or q > self.d:
                raise RangeError(f"block ({p}, {q}) outside [0, {self.d}]")
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != _block_shape(self.d, p, q):
                raise ShapeError(
                    f"block ({p}, {q}) has shape {mat.shape}, expected "
                    f"{_block_shape(self.d, p, q)}")
            clean[(p, q)] = mat
        self.blocks = clean

    def block(self, p: int, q: int) -> np.ndarray:
        got = self.blocks.get((p, q))
        if got is not None:
            return got
        return np.zeros(_block_shape(self.d, p, q), dtype=complex)

    @property
    def norm(self) -> float:
        if not self.blocks:
            return 0.0
        return float(max(trace_norm(m) for m in self.blocks.values()))

    def is_gauge_invariant(self) -> bool:
        return all(p == q for (p, q), m in self.blocks.items() if np.any(m))

    def pair(self, a: GradedObservable) -> complex:
        if self.d != a.d:
            raise ValidationError("state and observable mode counts differ")
        total = 0.0 + 0.0j
        for (p, q), rho in self.blocks.items():
            mat = a.blocks.get((q, p))
            if mat is not None:
                total += np.trace(rho @ mat)
        return complex(total)


def state_from_density(gamma, p_max: int | None = None) -> GradedState:
    """Quasi-free state of a one-particle density: blocks are its p-minors.

    Blocks above the density's rank vanish identically, so the sequence is
    finite; p_max only trims it further.
    """
    g = np.asarray(getattr(gamma, "mat", gamma), dtype=complex)
    d = g.shape[0]
    rank = int(np.linalg.matrix_rank(g, tol=1e-12))
    top = rank if p_max is None else min(p_max, d)
    blocks = {(0, 0): np.array([[1.0 + 0j]])}
    for p in range(1, top + 1):
        blocks[(p, p)] = quasi_free_marginal(g, p).mat
    return GradedState(d, blocks)


def _embed_block(mat: np.ndarray, d: int, p: int, q: int) -> np.ndarray:
    left = embedding_isometry(d, p).toarray()
    right = embedding_isometry(d, q).toarray()
    return left @ mat @ right.conj().T


def _compress_block(full: np.ndarray, d: int, p: int, q: int) -> np.ndarray:
    left = embedding_isometry(d, p).toarray()
    right = embedding_isometry(d, q).toarray()
    return left.conj().T @ full @ right


def graded_product(a: GradedObservable, b: GradedObservable) -> GradedObservable:
    """Blockwise antisymmetrized tensor product with the grading sign.

    (ab)^(p,q) collects P_- (a^(p1,q1) ⊗ b^(p2,q2)) P_- over all splittings,
    weighted by (-1)^(p2 (p1+q1)).
    """
    if a.d != b.d:
        raise ValidationError("observables live on different mode counts")
    d = a.d
    out: dict = {}
    for (p1, q1), ma in a.blocks.items():
        fa = _embed_block(ma, d, p1, q1)
        for (p2, q2), mb in b.blocks.items():
            p, q = p1 + p2, q1 + q2
            if p > d or q > d:
                continue
            sign = -1.0 if (p2 * (p1 + q1)) % 2 else 1.0
            full = np.kron(fa, _embed_block(mb, d, p2, q2))
            piece = sign * _compress_block(full, d, p, q)
            out[(p, q)] = out.get((p, q), 0) + piece
    return GradedObservable(d, out)


def _poisson_blocks(d, ma, p1, q1, mb, p2, q2) -> dict:
    """One bracket term pair for a homogeneous block pair."""
    out: dict = {}
    p, q = p1 + p2 - 1, q1 + q2 - 1
    if q1 >= 1 and p2 >= 1 and p <= d and q <= d:
        fa = _embed_block(ma, d, p1, q1)
        fb = _embed_block(mb, d, p2, q2)
        left = np.kron(fa, np.eye(d ** (p2 - 1)))
        right = np.kron(np.eye(d ** (q1 - 1)), fb)
        sign = -1.0 if ((p2 + 1) * (p1 + q1)) % 2 else 1.0
        coeff = 1j * sign * q1 * p2
        out[(p, q)] = coeff * _compress_block(left @ right, d, p, q)
    if p1 >= 1 and q2 >= 1 and p <= d and q <= d:
        fa = _embed_block(ma, d, p1, q1)
        fb = _embed_block(mb, d, p2, q2)
        left = np.kron(fb, np.eye(d ** (p1 - 1)))
        right = np.kron(np.eye(d ** (q2 - 1)), fa)
        sign = -1.0 if ((q1 + 1) * (p2 + q2)) % 2 else 1.0
        coeff = -1j * sign * p1 * q2
        out[(p, q)] = out.get((p, q), 0) + coeff * _compress_block(
            left @ right, d, p, q)
    return out


def graded_poisson(a: GradedObservable, b: GradedObservable) -> GradedObservable:
    """Graded Poisson bracket, extended bilinearly over blocks."""
    if a.d != b.d:
        raise ValidationError("observables live on different mode counts")
    d = a.d
    out: dict = {}
    for (p1, q1), ma in a.blocks.items():
        for (p2, q2), mb in b.blocks.items():
            for key, mat in _poisson_blocks(d, ma, p1, q1, mb, p2, q2).items():
                out[key] = out.get(key, 0) + mat
    return GradedObservable(d, out)


@dataclass
class HierarchyTrajectory:
    """Grid of times and the state blocks recorded at each."""

    times: np.ndarray
    states: list
    config: HFConfig

    def final(self) -> GradedState:
        return self.states[-1]


def hierarchy_evolve(rho: GradedState, system: ModeSystem, t_grid,
                     config: HFConfig | None = None) -> HierarchyTrajectory:
    """Integrate the state hierarchy driven from the top level down.

    Each gauge block obeys a von Neumann equation sourced by the traced
    pair commutator of the block one level above; the top level is free.
    Integration runs in the interaction picture, where the free part is
    removed exactly and the top block is constant.
    """
    if not rho.is_gauge_invariant():
        raise UnsupportedError("hierarchy flow needs a gauge-invariant state")
    config = HFConfig() if config is None else config
    d = system.d
    levels = sorted(p for (p, q) in rho.blocks)
    if not levels:
        raise ValidationError("state has no blocks to evolve")
    top = levels[-1]
    levels = list(range(0, top + 1))
    shapes = [(comb(d, p), comb(d, p)) for p in levels]
    sizes = [s[0] * s[1] for s in shapes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def pack(blocks):
        return np.concatenate([blocks[p].reshape(-1) for p in levels])

    def unpack(y):
        return [y[offsets[p]:offsets[p + 1]].reshape(shapes[p])
                for p in levels]

    def rotations(tau):
        return [sector_propagator(system, p, tau) if p >= 1 else None
                for p in levels]

    def derivative(tau, y):
        sigma = unpack(y)
        f = rotations(tau)
        out = [np.zeros_like(s) for s in sigma]
        for p in levels[:-1]:
            if p + 1 < 2:
                continue  # one particle has no pair to trade with
            src = sigma[p + 1]
            fp1 = f[p + 1]
            rho_lab = fp1 @ src @ fp1.conj().T
            coll = contract_pair_commutator(
                rho_lab, system._pair_weights(p + 1), d, p + 1)
            if p >= 1:
                coll = f[p].conj().T @ coll @ f[p]
            out[p] = -1j * coll
        return pack(out)

    t_grid = np.asarray(t_grid, dtype=float)
    f0 = rotations(t_grid[0])
    start = []
    for p in levels:
        blk = rho.block(p, p)
        start.append(blk if p == 0 else f0[p].conj().T @ blk @ f0[p])

    times, states = [], []
    for tau, y in _rk4_stream(pack(start), t_grid, derivative, config.dt):
        f = rotations(tau)
        blocks = {}
        for p, sigma in zip(levels, unpack(y)):
            blocks[(p, p)] = sigma if p == 0 else f[p] @ sigma @ f[p].conj().T
        times.append(tau)
        states.append(GradedState(d, blocks))
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
                         quad: QuadratureSpec, K: int | None = None,
                         override_time_guard: bool = False) -> SuperflowReport:
    """Push a sector observable through the truncated graded flow.

    Block p + k is the integrated order-k loop-free operator; the output
    stays gauge invariant because every block keeps equal leg counts.
    """
    blocks, _, quad_errors, tail, warn = _series(
        a, t, quad, system, K, override_time_guard, system.d,
        lambda m, x: x, _spectral_norm)
    return SuperflowReport(
        observable=GradedObservable(
            a.d, {(a.p + k, a.p + k): x for k, x in enumerate(blocks)}),
        t=t, k_max=len(blocks) - 1, tail_estimate=tail,
        quad_error=float(sum(quad_errors)), warnings=warn)
