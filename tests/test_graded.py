"""Graded observable algebra, bracket laws, and the state hierarchy."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from math import comb

from fermiflow.errors import (CapacityError, RangeError, ShapeError,
                              UnsupportedError, ValidationError)
from fermiflow import graded
from fermiflow.fock import grassmann_hamiltonian
from fermiflow.graded import (
    GradedObservable,
    GradedState,
    graded_poisson,
    graded_product,
    hierarchy_collision,
    hierarchy_evolve,
    state_from_density,
    superflow_observable,
)
from fermiflow.hf import quasi_free_marginal
from fermiflow.modes import ModeSystem
from fermiflow.sector import (PSectorOperator, lift_entries,
                              project_lift_pair_commutator)
from fermiflow.tree import QuadratureSpec, sector_propagator
from oracles import embedding_isometry, one_body_sector


def random_block(rng, d, p, q):
    shape = (comb(d, p), comb(d, q))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def homogeneous(rng, d, p, q):
    return GradedObservable(d, {(p, q): random_block(rng, d, p, q)})


def two_block(rng, d):
    return GradedObservable(
        d,
        {(1, 1): random_block(rng, d, 1, 1), (2, 1): random_block(rng, d, 2, 1)},
    )


def projected_density(rng, d, rank):
    phi = np.linalg.qr(rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank)))[0]
    return phi @ phi.conj().T


def test_unit_law():
    rng = np.random.default_rng(0)
    a = two_block(rng, 3)
    one = GradedObservable.unit(3)
    for side in (graded_product(one, a), graded_product(a, one)):
        gap = (side - a).norm
        assert gap < 1e-12


def test_product_associative():
    rng = np.random.default_rng(1)
    a, b, c = (two_block(rng, 3) for _ in range(3))
    left = graded_product(graded_product(a, b), c)
    right = graded_product(a, graded_product(b, c))
    assert (left - right).norm < 1e-10 * max(left.norm, 1.0)


@pytest.mark.parametrize(
    "ka,kb",
    [((1, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 0)), ((2, 1), (1, 1))],
)
def test_product_graded_commutative(ka, kb):
    rng = np.random.default_rng(2)
    a = homogeneous(rng, 3, *ka)
    b = homogeneous(rng, 3, *kb)
    sign = (-1.0) ** (a.degree * b.degree)
    gap = (graded_product(a, b) - sign * graded_product(b, a)).norm
    assert gap < 1e-12


def test_norm_submultiplicative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = two_block(rng, 3), two_block(rng, 3)
        assert graded_product(a, b).norm <= a.norm * b.norm + 1e-12


def test_field_bracket_is_overlap():
    """The bracket of an annihilator and a creator is i times the overlap."""
    rng = np.random.default_rng(4)
    d = 4
    f = rng.normal(size=d) + 1j * rng.normal(size=d)
    g = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi_f = GradedObservable(d, {(0, 1): np.conj(f)[None, :]})
    psibar_g = GradedObservable(d, {(1, 0): g[:, None]})
    br = graded_poisson(psi_f, psibar_g)
    assert set(br.blocks) == {(0, 0)}
    assert abs(br.block(0, 0)[0, 0] - 1j * np.vdot(f, g)) < 1e-13


def test_one_body_bracket_is_commutator():
    rng = np.random.default_rng(5)
    d = 4
    a = random_block(rng, d, 1, 1)
    b = random_block(rng, d, 1, 1)
    br = graded_poisson(
        GradedObservable(d, {(1, 1): a}), GradedObservable(d, {(1, 1): b})
    )
    gap = np.linalg.norm(br.block(1, 1) - 1j * (a @ b - b @ a), 2)
    assert gap < 1e-12
    assert br.is_gauge_invariant()


def test_bracket_with_unit_vanishes():
    rng = np.random.default_rng(6)
    a = two_block(rng, 3)
    assert graded_poisson(a, GradedObservable.unit(3)).norm < 1e-14
    assert graded_poisson(GradedObservable.unit(3), a).norm < 1e-14


@pytest.mark.parametrize(
    "ka,kb",
    [((1, 1), (2, 2)), ((1, 0), (0, 1)), ((2, 1), (1, 1)), ((1, 0), (1, 0))],
)
def test_bracket_graded_antisymmetric(ka, kb):
    rng = np.random.default_rng(7)
    a = homogeneous(rng, 3, *ka)
    b = homogeneous(rng, 3, *kb)
    sign = (-1.0) ** (1 + a.degree * b.degree)
    gap = (graded_poisson(a, b) - sign * graded_poisson(b, a)).norm
    assert gap < 1e-10


@pytest.mark.parametrize(
    "ka,kb,kc",
    [((1, 1), (1, 0), (0, 1)), ((2, 1), (1, 1), (1, 0)), ((1, 1), (1, 1), (1, 1))],
)
def test_bracket_graded_jacobi(ka, kb, kc):
    rng = np.random.default_rng(8)
    a = homogeneous(rng, 3, *ka)
    b = homogeneous(rng, 3, *kb)
    c = homogeneous(rng, 3, *kc)
    da, db, dc = a.degree, b.degree, c.degree
    total = (
        ((-1.0) ** (db * (da + dc))) * graded_poisson(a, graded_poisson(b, c))
        + ((-1.0) ** (dc * (db + da))) * graded_poisson(b, graded_poisson(c, a))
        + ((-1.0) ** (da * (dc + db))) * graded_poisson(c, graded_poisson(a, b))
    )
    assert total.norm < 1e-10


@pytest.mark.parametrize(
    "ka,kb,kc",
    [((1, 1), (1, 0), (0, 1)), ((1, 0), (1, 1), (2, 1)), ((1, 1), (1, 1), (1, 1))],
)
def test_bracket_graded_leibniz(ka, kb, kc):
    rng = np.random.default_rng(9)
    a = homogeneous(rng, 3, *ka)
    b = homogeneous(rng, 3, *kb)
    c = homogeneous(rng, 3, *kc)
    lhs = graded_poisson(a, graded_product(b, c))
    rhs = graded_product(graded_poisson(a, b), c) + (
        (-1.0) ** (a.degree * b.degree)
    ) * graded_product(b, graded_poisson(a, c))
    assert (lhs - rhs).norm < 1e-10 * max(lhs.norm, 1.0)


# Dense oracle: embed each block into the d**p tensor space, combine there
# with Kronecker products, and compress back. A d**p x d**q array per block,
# and the identity Kronecker factors of the bracket, make it a d <= 4 check.

def dense_embed(mat, d, p, q):
    left = embedding_isometry(d, p).toarray()
    right = embedding_isometry(d, q).toarray()
    return left @ mat @ right.conj().T


def dense_compress(full, d, p, q):
    left = embedding_isometry(d, p).toarray()
    right = embedding_isometry(d, q).toarray()
    return left.conj().T @ full @ right


def dense_product(a, b):
    d, out = a.d, {}
    for (p1, q1), ma in a.blocks.items():
        for (p2, q2), mb in b.blocks.items():
            p, q = p1 + p2, q1 + q2
            if p > d or q > d:
                continue
            sign = -1.0 if (p2 * (p1 + q1)) % 2 else 1.0
            full = np.kron(dense_embed(ma, d, p1, q1), dense_embed(mb, d, p2, q2))
            out[(p, q)] = out.get((p, q), 0) + sign * dense_compress(full, d, p, q)
    return out


def dense_poisson(a, b):
    d, out = a.d, {}
    for (p1, q1), ma in a.blocks.items():
        for (p2, q2), mb in b.blocks.items():
            p, q = p1 + p2 - 1, q1 + q2 - 1
            fa, fb = dense_embed(ma, d, p1, q1), dense_embed(mb, d, p2, q2)
            if q1 >= 1 and p2 >= 1 and p <= d and q <= d:
                left = np.kron(fa, np.eye(d ** (p2 - 1)))
                right = np.kron(np.eye(d ** (q1 - 1)), fb)
                sign = -1.0 if ((p2 + 1) * (p1 + q1)) % 2 else 1.0
                out[(p, q)] = out.get((p, q), 0) + 1j * sign * q1 * p2 * (
                    dense_compress(left @ right, d, p, q))
            if p1 >= 1 and q2 >= 1 and p <= d and q <= d:
                left = np.kron(fb, np.eye(d ** (p1 - 1)))
                right = np.kron(np.eye(d ** (q2 - 1)), fa)
                sign = -1.0 if ((q1 + 1) * (p2 + q2)) % 2 else 1.0
                out[(p, q)] = out.get((p, q), 0) - 1j * sign * p1 * q2 * (
                    dense_compress(left @ right, d, p, q))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_product_and_bracket_match_the_dense_route(d):
    """Every block pair with p, q <= 3: same block keys, same blocks."""
    rng = np.random.default_rng(25 + d)
    kinds = list(itertools.product(range(min(d, 3) + 1), repeat=2))
    for ka, kb in itertools.product(kinds, repeat=2):
        a, b = homogeneous(rng, d, *ka), homogeneous(rng, d, *kb)
        for minor, dense in ((graded_product, dense_product),
                             (graded_poisson, dense_poisson)):
            got, want = minor(a, b).blocks, dense(a, b)
            assert set(got) == set(want), (ka, kb, minor.__name__)
            for key, ref in want.items():
                scale = max(np.linalg.norm(ref), 1.0)
                assert np.linalg.norm(got[key] - ref) <= 1e-12 * scale


def test_oversized_block_is_refused_before_allocation():
    # the (6, 6) block of a d = 14 (3, 3) x (3, 3) product gathers
    # (C(14, 6) C(6, 3))**2 pairs, far over the cap
    rng = np.random.default_rng(26)
    a = homogeneous(rng, 14, 3, 3)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            graded_product(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


@pytest.mark.parametrize("d", [4, 8])
def test_superflow_is_the_flow_of_the_grassmann_hamiltonian(d):
    """dA/dt = {H, A}: below the top block, the central difference of the
    superflow is the bracket with the Grassmann Hamiltonian."""
    rng = np.random.default_rng(24)
    system = ModeSystem.chain(d)
    raw = random_block(rng, d, 1, 1)
    a = PSectorOperator(d, 1, raw + raw.conj().T)
    quad, t, h = QuadratureSpec(nodes_per_level=6, k_max=3), 0.1, 1e-4
    flow = {s: superflow_observable(a, system, s, quad,
                                    override_time_guard=True).observable
            for s in (t - h, t, t + h)}
    bracket = graded_poisson(grassmann_hamiltonian(system), flow[t])
    top = max(p for p, _ in flow[t].blocks)
    below = sorted(k for k in bracket.blocks if k[0] < top)
    assert below == [(1, 1), (2, 2), (3, 3)]

    def gap(sign):
        return sum(np.linalg.norm(
            (flow[t + h].block(*k) - flow[t - h].block(*k)) / (2 * h)
            - sign * bracket.block(*k), 2) for k in below)
    assert gap(1.0) <= 1e-8 * bracket.norm
    assert gap(-1.0) > 0.5 * bracket.norm


def test_degree_bookkeeping():
    rng = np.random.default_rng(10)
    a = homogeneous(rng, 3, 2, 1)
    assert a.degree == 1
    assert a.is_homogeneous()
    assert not a.is_gauge_invariant()
    mixed = two_block(rng, 3)
    assert mixed.degrees() == {0, 1}
    assert not mixed.is_homogeneous()
    assert homogeneous(rng, 3, 2, 2).is_gauge_invariant()


def test_block_validation():
    for family in (GradedObservable, GradedState):
        with pytest.raises(ShapeError):
            family(3, {(1, 1): np.zeros((2, 3))})
        with pytest.raises(RangeError):
            family(3, {(4, 1): np.zeros((1, 3))})
        with pytest.raises(ValidationError):
            family(3, {(1, 1): np.full((3, 3), np.nan)})
        with pytest.raises(RangeError):
            family(0)


def test_zero_block_access_and_arithmetic():
    rng = np.random.default_rng(11)
    a = homogeneous(rng, 3, 1, 1)
    assert np.array_equal(a.block(2, 2), np.zeros((3, 3)))
    scaled = 2.0 * a - a
    assert (scaled - a).norm < 1e-14


def test_state_norm_matches_trace_norm():
    rng = np.random.default_rng(12)
    gamma = projected_density(rng, 5, 2)
    rho = state_from_density(gamma)
    assert abs(rho.norm - np.abs(np.linalg.eigvalsh(gamma)).sum()) < 1e-12


def test_state_rank_cutoff():
    """A rank-r density populates levels only up to r."""
    rng = np.random.default_rng(13)
    gamma = projected_density(rng, 5, 2)
    rho = state_from_density(gamma)
    assert sorted(p for (p, q) in rho.blocks) == [0, 1, 2]
    assert np.array_equal(rho.block(0, 0), np.ones((1, 1)))
    assert np.linalg.norm(quasi_free_marginal(gamma, 3).mat, 2) < 1e-12


def test_state_pairing_matches_marginal_trace():
    rng = np.random.default_rng(14)
    gamma = projected_density(rng, 4, 3)
    rho = state_from_density(gamma)
    a = PSectorOperator(4, 2, random_block(rng, 4, 2, 2))
    want = np.trace(quasi_free_marginal(gamma, 2).mat @ a.mat)
    got = rho.pair(GradedObservable.from_sector_op(a))
    assert abs(got - want) < 1e-12


def test_hierarchy_rejects_charged_state():
    rng = np.random.default_rng(15)
    blocks = {(0, 0): np.ones((1, 1)), (1, 0): rng.normal(size=(3, 1))}
    rho = GradedState(3, blocks)
    with pytest.raises(UnsupportedError):
        hierarchy_evolve(rho, ModeSystem.chain(3, 0.5), np.linspace(0.0, 0.1, 3))


def test_hierarchy_free_is_quasi_free_conjugation():
    """Without interaction every level rotates with the one-body flow."""
    rng = np.random.default_rng(16)
    d, t = 4, 0.2
    gamma = projected_density(rng, d, 2)
    rho = state_from_density(gamma)
    free = ModeSystem.chain(d, 0.0)
    out = hierarchy_evolve(rho, free, np.linspace(0.0, t, 5)).final()
    u = sla.expm(-1j * t * free.h)
    rotated = u @ gamma @ u.conj().T
    assert np.linalg.norm(out.block(1, 1) - rotated, 2) < 1e-12
    assert np.linalg.norm(out.block(2, 2) - quasi_free_marginal(rotated, 2).mat, 2) < 1e-12


def test_hierarchy_top_level_stays_free():
    rng = np.random.default_rng(17)
    d, t = 4, 0.2
    rho = state_from_density(projected_density(rng, d, 2))
    system = ModeSystem.chain(d, 0.7)
    out = hierarchy_evolve(rho, system, np.linspace(0.0, t, 5)).final()
    lift = sector_propagator(system, 2, t)
    gap = np.linalg.norm(out.block(2, 2) - lift @ rho.block(2, 2) @ lift.conj().T, 2)
    assert gap < 1e-12
    assert out.is_gauge_invariant()


def test_hierarchy_superflow_duality():
    """Pairing the evolved state equals pairing the flowed observable."""
    rng = np.random.default_rng(7)
    d, t = 4, 0.2
    system = ModeSystem.chain(d, 0.7)
    rho = state_from_density(projected_density(rng, d, 2))
    amat = rng.normal(size=(d, d))
    a = PSectorOperator(d, 1, (amat + amat.T).astype(complex))
    lhs = hierarchy_evolve(rho, system, np.linspace(0.0, t, 5)).final().pair(
        GradedObservable.from_sector_op(a)
    )
    rep = superflow_observable(
        a, system, t, QuadratureSpec(nodes_per_level=6, k_max=3),
        override_time_guard=True,
    )
    rhs = rho.pair(rep.observable)
    assert abs(lhs - rhs) < 1e-9
    assert abs(lhs.imag) < 1e-10


def test_hierarchy_trajectory_shape():
    rng = np.random.default_rng(18)
    grid = np.linspace(0.0, 0.1, 4)
    rho = state_from_density(projected_density(rng, 3, 1))
    traj = hierarchy_evolve(rho, ModeSystem.chain(3, 0.5), grid)
    assert len(traj.states) == grid.size
    assert np.allclose(traj.times, grid)
    start_gap = np.linalg.norm(traj.states[0].block(1, 1) - rho.block(1, 1), 2)
    assert start_gap < 1e-14


def test_hierarchy_collision_is_dual_to_the_attached_insertion():
    """d/dt <sigma_t, a> at t = 0 is <sigma, i[h_p, a] + i P_-[W, a ⊗ 1] P_->."""
    rng = np.random.default_rng(21)
    d, top = 5, 3
    system = ModeSystem.chain(d, 0.7)
    sigma = [random_block(rng, d, p, p) for p in range(top + 1)]
    coll = hierarchy_collision(sigma, system)
    assert not np.any(coll[0]) and not np.any(coll[top])
    for p in range(1, top):
        a = random_block(rng, d, p, p)
        a = a + a.conj().T
        h_p = one_body_sector(system.h, d, p)
        lab = -1j * (h_p @ sigma[p] - sigma[p] @ h_p) + coll[p]
        insertion = project_lift_pair_commutator(
            a, lift_entries(system.wmat, d, p + 1), d, p + 1)
        want = (np.trace(sigma[p] @ (1j * (h_p @ a - a @ h_p)))
                + np.trace(sigma[p + 1] @ (1j * insertion)))
        assert abs(np.trace(lab @ a) - want) < 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("d", [4, 8])
def test_hierarchy_collision_takes_a_stack_of_nodes(d):
    # the stream calls the collision term once per sweep, on every level's
    # stack of node values: node by node, it is the 2-d call
    rng = np.random.default_rng(40 + d)
    system, nodes = ModeSystem.chain(d, 0.7), 6
    stacks = [np.array([random_block(rng, d, p, p) for _ in range(nodes)])
              for p in range(4)]
    got = hierarchy_collision(stacks, system)
    assert [g.shape for g in got] == [s.shape for s in stacks]
    for node in range(nodes):
        want = hierarchy_collision([s[node] for s in stacks], system)
        for level, single in zip(got, want):
            assert (np.max(np.abs(level[node] - single))
                    <= 1e-15 * max(np.max(np.abs(single)), 1.0))


def test_hierarchy_runs_its_collision_term(monkeypatch):
    # the flow calls the tested collision term on all levels, and nothing
    # else: with it returning zeros, every level rotates freely
    calls, silent = [], []

    def spy(sigma, system, collision=hierarchy_collision):
        calls.append(len(sigma))
        return ([np.zeros_like(s) for s in sigma] if silent
                else collision(sigma, system))

    monkeypatch.setattr(graded, "hierarchy_collision", spy)
    rng = np.random.default_rng(22)
    rho = state_from_density(projected_density(rng, 4, 2))
    system, t = ModeSystem.chain(4, 0.5), 0.5
    hierarchy_evolve(rho, system, [0.0, 0.25, t])
    assert calls and set(calls) == {3}
    silent.append(True)
    out = hierarchy_evolve(rho, system, [0.0, 0.25, t]).final()
    for p in range(3):
        lift = sector_propagator(system, p, t)
        want = lift @ rho.block(p, p) @ lift.conj().T
        assert np.linalg.norm(out.block(p, p) - want, 2) < 1e-12


def test_hierarchy_bad_time_grid_is_bad_input():
    rho = state_from_density(projected_density(np.random.default_rng(23), 3, 1))
    system = ModeSystem.chain(3, 0.5)
    for grid in ([], [[0.0, 0.1]]):
        with pytest.raises(ShapeError):
            hierarchy_evolve(rho, system, grid)
    with pytest.raises(RangeError):
        hierarchy_evolve(rho, system, [0.1, 0.0])


def test_superflow_zero_time_returns_input():
    rng = np.random.default_rng(19)
    d = 4
    amat = random_block(rng, d, 1, 1)
    a = PSectorOperator(d, 1, amat)
    rep = superflow_observable(
        a, ModeSystem.chain(d, 0.9), 0.0, QuadratureSpec(nodes_per_level=4, k_max=2)
    )
    assert np.linalg.norm(rep.observable.block(1, 1) - amat, 2) < 1e-14
    assert np.linalg.norm(rep.observable.block(2, 2), 2) < 1e-14
    assert rep.tail_estimate == 0.0


def test_superflow_free_system_rotates_only():
    rng = np.random.default_rng(20)
    d, t = 4, 0.3
    amat = random_block(rng, d, 1, 1)
    free = ModeSystem.chain(d, 0.0)
    rep = superflow_observable(
        PSectorOperator(d, 1, amat), free, t,
        QuadratureSpec(nodes_per_level=4, k_max=2),
    )
    u = sla.expm(1j * t * free.h)
    assert np.linalg.norm(rep.observable.block(1, 1) - u @ amat @ u.conj().T, 2) < 1e-12
    assert np.linalg.norm(rep.observable.block(2, 2), 2) < 1e-14
    assert rep.tail_estimate == 0.0


def test_superflow_respects_time_guard():
    a = PSectorOperator(3, 1, np.eye(3, dtype=complex))
    quad = QuadratureSpec(nodes_per_level=4, k_max=1)
    with pytest.raises(RangeError):
        superflow_observable(a, ModeSystem.chain(3, 1.0), 0.5, quad)
