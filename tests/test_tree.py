"""Commutator-tree operators, simplex quadrature, and remainder reports.

The heavy oracles rebuild every expansion operator on the full d**m product
space: dense antisymmetrizers, diagonal pair kernels read off index grids,
literal Kronecker lifts, and nested commutators rotated by explicit
one-body propagators. Sector results are compared after compression
through the embedding isometry. Scaling oracles subtract the quantized
series from the exact Heisenberg flow and pin the leading power of the
coupling and of the inverse particle number.
"""

import dataclasses
import gc
import itertools
import weakref
from functools import reduce
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiflow import tree
from fermiflow.errors import RangeError, ShapeError, ValidationError
from fermiflow.exact import (build_hamiltonian, evolved_marginal,
                             heisenberg_evolve, heisenberg_observable,
                             second_quantize)
from fermiflow.fock import egorov_check
from fermiflow.graded import (hierarchy_evolve, state_from_density,
                              superflow_observable)
from fermiflow.hf import (HFConfig, OrbitalSet, density_root,
                          evolve_hf_density, evolve_hf_orbitals, evolve_kappa)
from fermiflow.modes import ModeSystem, hopping_hamiltonian, soft_coulomb
from fermiflow.sector import (PSectorOperator, lift_entries,
                              pair_diagonal_sector,
                              project_lift_pair_commutator, slater)
from fermiflow.tree import (QuadratureSpec, _coarse_and_fine,
                            _integrate_orders, check_time_guard,
                            count_elementary_terms, free_evolve_op,
                            hf_vs_tree_gap, loop_remainder, reported_radius,
                            sector_propagator, tree_series)
from oracles import (KERNEL_EXCHANGE, KERNEL_PLAIN, G_recursive, TreeOperator,
                     _attach_insertion, antisym_projector_dense,
                     embedding_isometry)


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = (m + m.conj().T) / 2
    return m / np.linalg.norm(m, 2)


def one_body_u(system, t):
    vals, vecs = np.linalg.eigh(system.h)
    return (vecs * np.exp(-1j * t * vals)[None, :]) @ vecs.conj().T


def dense_u(system, m, t):
    u1 = one_body_u(system, t)
    return reduce(np.kron, [u1] * m)


def index_grid(d, m):
    return np.indices((d,) * m).reshape(m, -1)


def dense_swap(d, m, i, j):
    """Permutation matrix exchanging tensor factors i and j."""
    idx = index_grid(d, m)
    swapped = idx.copy()
    swapped[[i, j]] = swapped[[j, i]]
    strides = d ** np.arange(m - 1, -1, -1)
    mat = np.zeros((d ** m, d ** m))
    mat[strides @ swapped, np.arange(d ** m)] = 1.0
    return mat


def dense_kernel(system, m, pairs, exchange):
    """Sum of pair kernels w(x_i, x_j), optionally times (1 - swap)."""
    d = system.d
    idx = index_grid(d, m)
    out = np.zeros((d ** m, d ** m), dtype=complex)
    for i, j in pairs:
        diag = system.wmat[idx[i], idx[j]].astype(float)
        if exchange:
            out += np.diag(diag) @ (np.eye(d ** m) - dense_swap(d, m, i, j))
        else:
            out += np.diag(diag)
    return out


def dense_tree_operator(a_full, p, k, l, t, times, system, exchange=False):
    """Literal recursion on full tensors: the oracle for G_recursive.

    Base case is the freely rotated observable between antisymmetrizers.
    Each level commutes with the rotated kernel sum, attaching the new
    particle in the last slot or closing a loop among existing ones.
    """
    d = system.d
    projs = {}

    def proj(m):
        if m not in projs:
            projs[m] = antisym_projector_dense(d, m)
        return projs[m]

    def rotated_kernel(m, pairs, s):
        u = dense_u(system, m, s)
        return u.conj().T @ dense_kernel(system, m, pairs, exchange) @ u

    u_p = dense_u(system, p, t)
    table = {(0, 0): proj(p) @ (u_p.conj().T @ a_full @ u_p) @ proj(p)}
    for j in range(1, k + 1):
        s = times[j - 1]
        for lam in range(0, min(j, l) + 1):
            m = p + j - lam
            acc = np.zeros((d ** m, d ** m), dtype=complex)
            prev = table.get((j - 1, lam))
            if prev is not None:
                grown = np.kron(prev, np.eye(d))
                ker = rotated_kernel(m, [(i, m - 1) for i in range(m - 1)], s)
                acc += 1j * proj(m) @ (ker @ grown - grown @ ker) @ proj(m)
            prev_loop = table.get((j - 1, lam - 1))
            if prev_loop is not None and m >= 2:
                all_pairs = [(i1, i2) for i1 in range(m)
                             for i2 in range(i1 + 1, m)]
                ker = rotated_kernel(m, all_pairs, s)
                acc += 1j * proj(m) @ (ker @ prev_loop - prev_loop @ ker) @ proj(m)
            table[(j, lam)] = acc
    return table[(k, l)]


def compress(x_full, d, m):
    s = embedding_isometry(d, m).toarray()
    return s.conj().T @ x_full @ s


def embed(x_sector, d, m):
    s = embedding_isometry(d, m).toarray()
    return s @ x_sector @ s.conj().T


def test_sector_propagator_is_compressed_kronecker_power():
    system = ModeSystem.chain(4, coupling=1.0)
    t = 0.37
    got = sector_propagator(system, 2, t)
    want = compress(dense_u(system, 2, t), 4, 2)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_mode_system_is_immutable_and_its_cache_is_fresh():
    system = ModeSystem.chain(5, coupling=1.0)
    cached = [sector_propagator(system, 2, 0.3) for _ in range(2)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.h = np.eye(5)
    with pytest.raises(ValueError):
        system.h[0, 0] = 7.0
    with pytest.raises(ValueError):
        system.w[0] = 7.0
    fresh = ModeSystem(5, system.h, system.w)
    np.testing.assert_array_equal(cached[1], cached[0])
    np.testing.assert_array_equal(sector_propagator(fresh, 2, 0.3), cached[0])
    np.testing.assert_array_equal(fresh.sector_frame(1, 0.3),
                                  system.sector_frame(1, 0.3))


def test_wmat_is_built_once_and_read_only():
    system = ModeSystem.chain(5, coupling=1.0)
    assert system.wmat is system.wmat
    with pytest.raises(ValueError):
        system.wmat[0, 1] = 7.0


@pytest.mark.parametrize("name, definition",
                         [("_lift", lift_entries),
                          ("_pair_diagonal", pair_diagonal_sector)])
def test_pair_tables_are_built_once_and_read_only(name, definition):
    system = ModeSystem.chain(5, coupling=1.0)
    table = getattr(system, name)(3)
    assert getattr(system, name)(3) is table
    want = definition(system.wmat, 5, 3)
    if name == "_lift":
        # only the coefficients are read-only: numpy's take and bincount
        # would copy read-only positions on every call
        for got, ref in zip(table, want):
            np.testing.assert_array_equal(got, ref)
        assert table[0].flags.writeable and table[1].flags.writeable
        table, want = table[2], want[2]
    np.testing.assert_array_equal(table, want)
    with pytest.raises(ValueError):
        table[0] = 7.0


def test_lift_entries_die_with_their_system():
    # the system is their only owner: no module-level cache keeps them
    system = ModeSystem.chain(5, coupling=1.0)
    held = [weakref.ref(array) for array in system._lift(3)]
    del system
    gc.collect()
    assert all(ref() is None for ref in held)


def test_eigensystem_adjoints_are_built_once_and_read_only():
    system = ModeSystem.chain(5, coupling=1.0)
    for frame in (system._sector_rotation(1), system._sector_rotation(2)):
        _, vecs, adjoint = frame
        np.testing.assert_array_equal(adjoint, vecs.conj().T)
        for array in frame:
            with pytest.raises(ValueError):
                array[0] = 7.0
    assert system._sector_rotation(2)[2] is system._sector_rotation(2)[2]


def test_mode_system_refuses_a_complex_one_body_operator():
    # Hermitian, but with an imaginary part: the eigenvectors would be
    # complex, and every free rotation runs as real products
    h = hopping_hamiltonian(4) + 0.1j * (np.eye(4, k=1) - np.eye(4, k=-1))
    with pytest.raises(ValidationError, match="real"):
        ModeSystem(4, h, soft_coulomb(4))
    system = ModeSystem(4, hopping_hamiltonian(4).astype(complex),
                        soft_coulomb(4))
    assert system.h.dtype == np.float64


def test_every_sector_rotation_is_real_and_read_only():
    system = ModeSystem.chain(6)
    for m in range(7):
        vals, vecs, transpose = system._sector_rotation(m)
        for array in (vals, vecs, transpose):
            assert array.dtype == np.float64 and not array.flags.writeable
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(comb(6, m)),
                                   atol=1e-13)


def test_half_filled_sector_rotation_at_twelve_modes_peaks_under_100_mb():
    import tracemalloc

    system = ModeSystem.chain(12)
    tracemalloc.start()
    try:
        _, vecs, _ = system._sector_rotation(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (924, 924)
    assert peak < 100e6


def test_free_evolution_matches_dense_conjugation():
    rng = np.random.default_rng(5)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 2, random_hermitian(rng, 6))
    u = dense_u(system, 2, 0.29)
    want = compress(u.conj().T @ embed(a.mat, 4, 2) @ u, 4, 2)
    got = free_evolve_op(a, system, 0.29)
    np.testing.assert_allclose(got.mat, want, atol=1e-12)


def test_single_attachment_matches_dense_oracle():
    rng = np.random.default_rng(11)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    got = G_recursive(a, 1, 0, 0.31, (0.17,), system)
    want = dense_tree_operator(a.mat, 1, 1, 0, 0.31, (0.17,), system)
    np.testing.assert_allclose(got.matrix, compress(want, 4, 2), atol=1e-12)


def test_double_attachment_matches_dense_oracle():
    rng = np.random.default_rng(12)
    system = ModeSystem.chain(4, coupling=0.8)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    got = G_recursive(a, 2, 0, 0.3, (0.22, 0.09), system)
    want = dense_tree_operator(a.mat, 1, 2, 0, 0.3, (0.22, 0.09), system)
    np.testing.assert_allclose(got.matrix, compress(want, 4, 3), atol=1e-12)


def test_pure_loop_matches_dense_oracle():
    rng = np.random.default_rng(13)
    system = ModeSystem.chain(4, coupling=1.0)
    a_sec = random_hermitian(rng, comb(4, 2))
    a = PSectorOperator(4, 2, a_sec)
    got = G_recursive(a, 1, 1, 0.28, (0.11,), system)
    want = dense_tree_operator(embed(a_sec, 4, 2), 2, 1, 1, 0.28, (0.11,),
                               system)
    np.testing.assert_allclose(got.matrix, compress(want, 4, 2), atol=1e-12)


def test_mixed_attach_then_loop_matches_dense_oracle():
    rng = np.random.default_rng(14)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    got = G_recursive(a, 2, 1, 0.3, (0.19, 0.05), system)
    want = dense_tree_operator(a.mat, 1, 2, 1, 0.3, (0.19, 0.05), system)
    np.testing.assert_allclose(got.matrix, compress(want, 4, 2), atol=1e-12)


def test_third_order_matches_dense_oracle():
    rng = np.random.default_rng(15)
    system = ModeSystem.chain(4, coupling=0.7)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    times = (0.24, 0.16, 0.07)
    got = G_recursive(a, 3, 1, 0.3, times, system)
    want = dense_tree_operator(a.mat, 1, 3, 1, 0.3, times, system)
    np.testing.assert_allclose(got.matrix, compress(want, 4, 3), atol=1e-12)


def test_exchange_kernel_matches_dense_and_doubles_plain():
    # On the antisymmetric subspace the swap acts as -1, so the kernel
    # w (1 - swap) must agree with twice the plain kernel per insertion.
    rng = np.random.default_rng(16)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    times = (0.15, 0.04)
    plain = G_recursive(a, 2, 0, 0.25, times, system, KERNEL_PLAIN)
    exch = G_recursive(a, 2, 0, 0.25, times, system, KERNEL_EXCHANGE)
    dense = dense_tree_operator(a.mat, 1, 2, 0, 0.25, times, system,
                                exchange=True)
    np.testing.assert_allclose(exch.matrix, compress(dense, 4, 3), atol=1e-12)
    np.testing.assert_allclose(exch.matrix, 4.0 * plain.matrix, atol=1e-12)


def test_loop_numbers_outside_range_are_zero():
    rng = np.random.default_rng(17)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    for k, l in [(1, 2), (2, 3), (0, 1), (2, -1)]:
        op = G_recursive(a, k, l, 0.3, (0.2, 0.1)[:k], system)
        assert op.is_zero()


def test_loop_on_single_particle_is_zero():
    # p = 1, k = l = 1 leaves one particle and no pair to couple
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, np.diag([1.0, 0, 0, 0]).astype(complex))
    assert G_recursive(a, 1, 1, 0.3, (0.1,), system).is_zero()


def test_identity_observable_commutes_away():
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, np.eye(4, dtype=complex))
    for k, times in [(1, (0.12,)), (2, (0.2, 0.1))]:
        op = G_recursive(a, k, 0, 0.3, times, system)
        assert np.linalg.norm(op.matrix, 2) < 1e-14


def test_zero_coupling_kills_all_insertions():
    rng = np.random.default_rng(18)
    system = ModeSystem.chain(4, coupling=0.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    assert G_recursive(a, 1, 0, 0.3, (0.1,), system).is_zero()
    _, fine = _coarse_and_fine(a, 2, 0.3, QuadratureSpec(4, 2), system)
    assert np.linalg.norm(fine[2]) == 0.0


def test_time_ordering_is_validated():
    rng = np.random.default_rng(19)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    with pytest.raises(RangeError):
        G_recursive(a, 2, 0, 0.3, (0.1, 0.2), system)
    with pytest.raises(RangeError):
        G_recursive(a, 1, 0, 0.3, (0.4,), system)
    with pytest.raises(RangeError):
        G_recursive(a, 1, 0, 0.3, (-0.05,), system)
    with pytest.raises(ShapeError):
        G_recursive(a, 2, 0, 0.3, (0.2,), system)
    with pytest.raises(ValidationError):
        G_recursive(a, 1, 0, 0.3, (0.1,), system, kernel="bogus")
    with pytest.raises(RangeError):
        G_recursive(a, -1, 0, 0.3, (), system)


def test_tree_operator_bookkeeping():
    mat = np.zeros((6, 6), dtype=complex)
    op = TreeOperator(d=4, p=1, k=2, l=1, times=(0.3, 0.2, 0.1), matrix=mat)
    assert op.particles == 2
    assert op.is_zero()
    sec = op.sector_op()
    assert (sec.d, sec.p) == (4, 2)


def test_integration_matches_naive_nested_loops():
    # same nodes, independent implementation without prefix sharing
    rng = np.random.default_rng(21)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    t, nodes = 0.4, 10
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs, ws = (xs + 1) / 2, ws / 2
    xs, ws = t * xs, t * ws
    brute = np.zeros((comb(4, 3), comb(4, 3)), dtype=complex)
    for i1 in range(nodes):
        inner_x, inner_w = xs * (xs[i1] / t), ws * (xs[i1] / t)
        for i2 in range(nodes):
            g = G_recursive(a, 2, 0, t, (xs[i1], inner_x[i2]), system)
            brute += ws[i1] * inner_w[i2] * g.matrix
    # the fine sweep of a five-node spec runs ten nodes per level
    _, fine = _coarse_and_fine(a, 2, t, QuadratureSpec(5, 2), system)
    np.testing.assert_allclose(fine[2], brute, atol=1e-13)


def propagator_route_orders(a, K, t, nodes, system):
    """Every order <= K of the simplex sweep as a nested loop over the node
    tuples, each chain rebuilt from the freely evolved observable through
    the site-basis propagators of ``_attach_insertion``, no prefix shared."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs, ws = (xs + 1) / 2, ws / 2
    base = free_evolve_op(a, system, t).mat
    out = [base]
    for k in range(1, K + 1):
        total = np.zeros((comb(a.d, a.p + k),) * 2, dtype=complex)
        for idx in itertools.product(range(nodes), repeat=k):
            upper, weight, x = t, 1.0, base
            for level, i in enumerate(idx, start=1):
                s, weight = upper * xs[i], upper * weight * ws[i]
                x = _attach_insertion(x, a.p + level, system, s, 1.0)
                upper = s
            total += weight * x
        out.append(total)
    return out


@st.composite
def sweep_cases(draw):
    d = draw(st.integers(1, 6), label="d")
    p = draw(st.integers(1, d), label="p")
    return (d, p, draw(st.integers(0, min(3, d - p)), label="K"),
            draw(st.integers(1, 4), label="nodes"),
            draw(st.floats(0.0, 0.5, exclude_min=True), label="t"),
            draw(st.booleans(), label="hermitian"),
            draw(st.integers(0, 10_000), label="seed"))


@settings(max_examples=40, deadline=None)
@given(sweep_cases())
def test_eigenframe_sweep_matches_propagator_route(case):
    d, p, K, nodes, t, hermitian, seed = case
    rng = np.random.default_rng(seed)
    dim = comb(d, p)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if hermitian:
        mat = (mat + mat.conj().T) / 2
    system = ModeSystem.chain(d)
    a = PSectorOperator(d, p, mat)
    got = _integrate_orders(a, K, t, nodes, system)
    want = propagator_route_orders(a, K, t, nodes, system)
    assert len(got) == len(want) == K + 1
    for x, ref in zip(got, want):
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(x - ref)) <= 1e-13 * scale


def test_no_dense_propagator_inside_a_time_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense propagator built inside a time loop")

    lifts = []

    def counted(*args):
        lifts.append(args)
        return project_lift_pair_commutator(*args)

    monkeypatch.setattr(tree, "sector_propagator", refuse)
    monkeypatch.setattr(tree, "project_lift_pair_commutator", counted)
    rng = np.random.default_rng(27)
    system = ModeSystem.chain(5)
    a = PSectorOperator(5, 1, random_hermitian(rng, 5))
    quad = QuadratureSpec(2, 2)
    # one coarse and one fine sweep per series, sum_k nodes^k insertions each
    per_series = sum(n ** k for n in (2, 4) for k in (1, 2))
    orbs = OrbitalSet.ground_state(system, 2)
    gamma = orbs.density()
    superflow_observable(a, system, 0.05, quad, override_time_guard=True)
    assert len(lifts) == per_series
    tree_series(a, gamma, 0.05, quad, system, override_time_guard=True)
    assert len(lifts) == 2 * per_series
    config = HFConfig(dt=0.05)
    for evolve, start in ((evolve_hf_orbitals, orbs),
                          (evolve_hf_density, gamma),
                          (evolve_kappa, density_root(gamma))):
        evolve(start, system, [0.0, 0.1], config)
    hierarchy_evolve(state_from_density(gamma), system, [0.0, 0.1], config)


def test_sweep_leaves_no_reference_cycle():
    # the sweep's operands are freed when it returns, not at the next
    # cyclic collection, so repeated runs do not pile them up
    rng = np.random.default_rng(31)
    system = ModeSystem.chain(5)
    a = PSectorOperator(5, 1, random_hermitian(rng, 5))
    gc.collect()
    gc.disable()
    try:
        for K, t in ((2, 0.3), (0, 0.3), (2, 0.0)):
            _integrate_orders(a, K, t, 2, system)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_quadrature_node_doubling_converges():
    rng = np.random.default_rng(22)
    system = ModeSystem.chain(5, coupling=1.0)
    a = PSectorOperator(5, 1, random_hermitian(rng, 5))
    coarse, fine = _coarse_and_fine(a, 3, 0.5, QuadratureSpec(6, 3), system)
    for k in (1, 2, 3):
        assert np.linalg.norm(coarse[k] - fine[k], 2) < 1e-9


def test_integration_at_zero_time_vanishes():
    rng = np.random.default_rng(23)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    _, fine = _coarse_and_fine(a, 1, 0.0, QuadratureSpec(4, 1), system)
    assert np.linalg.norm(fine[1]) == 0.0


def test_integration_order_and_capacity_guards():
    rng = np.random.default_rng(24)
    system = ModeSystem.chain(4, coupling=1.0)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    with pytest.raises(RangeError):
        _integrate_orders(a, -1, 0.3, 4, system)
    with pytest.raises(RangeError):
        _coarse_and_fine(a, 4, 0.3, QuadratureSpec(4, 6), system)
    with pytest.raises(RangeError):
        QuadratureSpec(1, 2)
    with pytest.raises(RangeError):
        QuadratureSpec(4, -1)


def test_quadrature_size_is_bounded_before_any_node_is_built():
    # a coarse sweep of n nodes and a fine one of 2n take
    # sum_{k <= K} (n^k + (2n)^k) insertions between them
    admitted = [(6, 3), (4, 6), (2, 9), (tree.MAX_NODES_PER_LEVEL, 2)]
    for nodes, k_max in admitted:
        QuadratureSpec(nodes, k_max)
    assert sum(4 ** k + 8 ** k for k in range(1, 7)) <= tree.MAX_INSERTIONS
    with pytest.raises(RangeError, match="nodes per level"):
        QuadratureSpec(tree.MAX_NODES_PER_LEVEL + 1, 0)
    with pytest.raises(RangeError, match="nodes per level"):
        QuadratureSpec(10 ** 10, 3)
    for nodes, k_max in [(6, 6), (2, 10), (tree.MAX_NODES_PER_LEVEL, 3),
                         (2, 10 ** 9)]:
        with pytest.raises(RangeError, match="insertions"):
            QuadratureSpec(nodes, k_max)


def test_residual_scales_with_coupling_squared():
    # the loop-free series is complete through first order in the coupling
    rng = np.random.default_rng(3)
    d, n, t = 4, 2, 0.2
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    quad = QuadratureSpec(8, 2)

    def residual(coupling):
        system = ModeSystem.chain(d, coupling=coupling)
        ham = build_hamiltonian(system, n)
        heis = heisenberg_evolve(second_quantize(a, n), ham, t)
        total = np.zeros_like(heis.mat)
        _, fine = _coarse_and_fine(a, 2, t, quad, system)
        for k, term in enumerate(fine):
            total += second_quantize(PSectorOperator(d, 1 + k, term), n).mat
        return np.linalg.norm(heis.mat - total, 2)

    ratio = residual(1.0) / residual(0.5)
    assert 3.8 < ratio < 4.2


def test_loop_corrections_close_the_residual():
    # adding the two-insertion loop terms with their 1/n powers must
    # shrink the residual by a large factor, pinning their coefficients
    rng = np.random.default_rng(3)
    d, n, t = 4, 2, 0.2
    system = ModeSystem.chain(d, coupling=1.0)
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    quad = QuadratureSpec(8, 2)
    ham = build_hamiltonian(system, n)
    heis = heisenberg_evolve(second_quantize(a, n), ham, t)
    total = np.zeros_like(heis.mat)
    _, fine = _coarse_and_fine(a, 2, t, quad, system)
    for k, term in enumerate(fine):
        total += second_quantize(PSectorOperator(d, 1 + k, term), n).mat
    base = np.linalg.norm(heis.mat - total, 2)

    nodes = 10
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs, ws = (xs + 1) / 2, ws / 2
    loop21 = np.zeros((comb(d, 2), comb(d, 2)), dtype=complex)
    loop22 = np.zeros((d, d), dtype=complex)
    for i1 in range(nodes):
        s1, w1 = t * xs[i1], t * ws[i1]
        for i2 in range(nodes):
            s2, w2 = s1 * xs[i2], s1 * ws[i2]
            loop21 += w1 * w2 * G_recursive(a, 2, 1, t, (s1, s2), system).matrix
            loop22 += w1 * w2 * G_recursive(a, 2, 2, t, (s1, s2), system).matrix
    total += second_quantize(PSectorOperator(d, 2, loop21), n).mat / n
    total += second_quantize(PSectorOperator(d, 1, loop22), n).mat / n ** 2
    closed = np.linalg.norm(heis.mat - total, 2)
    assert closed < base / 50


def test_series_total_tracks_exact_expectation():
    d, n, t = 6, 3, 0.2
    system = ModeSystem.chain(d, coupling=1.0)
    _, vecs = np.linalg.eigh(system.h)
    a = PSectorOperator(d, 1, np.outer(vecs[:, 0], vecs[:, 0].conj()))
    orbitals = OrbitalSet.ground_state(system, n)
    series = tree_series(a, orbitals.density(), t, QuadratureSpec(6, 3),
                         system, override_time_guard=True)
    state = slater(orbitals.matrix)
    heis = heisenberg_observable(a, system, n, t)
    exact = complex(state.coeffs.conj() @ heis.mat @ state.coeffs)
    assert abs(series.total - exact) < 1e-4
    # order p + k exceeds the density rank, so its pairing vanishes
    assert abs(series.terms[3]) < 1e-12


def test_series_zero_order_equals_free_expectation():
    d, n, t = 6, 3, 0.2
    system = ModeSystem.chain(d, coupling=1.0)
    free = ModeSystem.chain(d, coupling=0.0)
    rng = np.random.default_rng(25)
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    orbitals = OrbitalSet.ground_state(system, n)
    series = tree_series(a, orbitals.density(), t, QuadratureSpec(6, 2),
                         system, override_time_guard=True)
    state = slater(orbitals.matrix)
    heis = heisenberg_observable(a, free, n, t)
    free_expect = complex(state.coeffs.conj() @ heis.mat @ state.coeffs)
    assert abs(series.terms[0] - free_expect) < 1e-12


def test_series_report_structure():
    d, t = 5, 0.2
    system = ModeSystem.chain(d, coupling=1.0)
    rng = np.random.default_rng(26)
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    gamma = OrbitalSet.ground_state(system, 2).density()
    series = tree_series(a, gamma, t, QuadratureSpec(5, 3), system,
                         override_time_guard=True)
    assert series.terms.shape == (4,)
    np.testing.assert_allclose(series.partial_sums, np.cumsum(series.terms))
    np.testing.assert_allclose(series.terms_exchange,
                               series.terms * 2.0 ** np.arange(4))
    assert series.quad_errors.shape == (4,)
    assert np.all(series.quad_errors < 1e-8)
    assert any("override" in w for w in series.warnings)
    assert series.tail_estimate < abs(series.terms[0])


def test_series_truncation_at_mode_capacity_has_zero_tail():
    system = ModeSystem.chain(4, coupling=1.0)
    rng = np.random.default_rng(27)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    gamma = OrbitalSet.ground_state(system, 2).density()
    series = tree_series(a, gamma, 0.2, QuadratureSpec(4, 3), system,
                         override_time_guard=True)
    assert series.tail_estimate == 0.0


def test_every_truncated_series_has_one_tail_rule_at_order_zero():
    # K = 0 leaves a single per-order norm: too few to extrapolate from
    system = ModeSystem.chain(4, coupling=1.0)
    rng = np.random.default_rng(29)
    a = PSectorOperator(4, 1, random_hermitian(rng, 4))
    orbitals = OrbitalSet.ground_state(system, 2)
    quad = QuadratureSpec(4, 0)
    with pytest.warns(RuntimeWarning, match="too few terms"):
        series = tree_series(a, orbitals.density(), 0.1, quad, system,
                             override_time_guard=True)
    with pytest.warns(RuntimeWarning, match="too few terms"):
        remainder = loop_remainder(a, orbitals, system, 0.1, quad,
                                   override_time_guard=True)
    with pytest.warns(RuntimeWarning, match="too few terms"):
        flow = superflow_observable(a, system, 0.1, quad,
                                    override_time_guard=True)
    for report in (series, remainder, flow):
        assert report.tail_estimate == float("inf")
        assert "too few terms for a tail estimate" in report.warnings



@pytest.mark.parametrize("d, n", [(5, 2), (6, 3)])
def test_one_series_three_readings(d, n):
    # the paired, the quantised and the graded reading of one sweep agree
    system = ModeSystem.chain(d, coupling=1.0)
    a = PSectorOperator(d, 1, random_hermitian(np.random.default_rng(d), d))
    orbitals = OrbitalSet.ground_state(system, n)
    gamma = orbitals.density()
    t, quad = 0.2, QuadratureSpec(4, 3)
    flow = superflow_observable(a, system, t, quad, override_time_guard=True)
    series = tree_series(a, gamma, t, quad, system, override_time_guard=True)
    paired = state_from_density(gamma).pair(flow.observable)
    assert abs(series.total - paired) < 1e-12
    remainder = loop_remainder(a, orbitals, system, t, quad,
                               override_time_guard=True)
    quantised = sum(second_quantize(PSectorOperator(d, p, mat), n).mat
                    for (p, _), mat in flow.observable.blocks.items())
    residual = heisenberg_observable(a, system, n, t).mat - quantised
    assert abs(remainder.norm - np.linalg.norm(residual, 2)) < 1e-12


def test_loop_remainder_report():
    d, n, t = 6, 3, 0.2
    system = ModeSystem.chain(d, coupling=1.0)
    rng = np.random.default_rng(28)
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    orbitals = OrbitalSet.ground_state(system, n)
    report = loop_remainder(a, orbitals, system, t, QuadratureSpec(6, 3),
                            override_time_guard=True)
    assert report.n == n and report.p == 1
    assert report.norm > 0
    # quantized orders beyond n - p carry too many particles
    assert report.term_norms[3] < 1e-14
    assert report.tail_estimate == 0.0
    assert abs(report.slater_expectation) <= report.norm + 1e-12
    assert report.quad_error < 1e-8


def test_loop_remainder_shrinks_with_more_particles():
    d, t = 6, 0.2
    system = ModeSystem.chain(d, coupling=1.0)
    _, vecs = np.linalg.eigh(system.h)
    a = PSectorOperator(d, 1, np.outer(vecs[:, 0], vecs[:, 0].conj()))
    quad = QuadratureSpec(6, 3)
    norms = [loop_remainder(a, OrbitalSet.ground_state(system, n), system, t,
                            quad, override_time_guard=True).norm
             for n in (2, 3)]
    assert norms[1] < norms[0]


def test_self_pair_value_never_enters_any_route():
    # w(0) would pair a particle with itself, which exclusion forbids:
    # raising it from 1 to 1000 moves the time guard's radius, hence the
    # override, but no value of the exact, tree or Fock routes
    rng = np.random.default_rng(31)
    d, n, t, quad = 5, 3, 0.2, QuadratureSpec(3, 2)
    w = soft_coulomb(d)
    systems = [ModeSystem(d, hopping_hamiltonian(d), np.r_[w0, w[1:]])
               for w0 in (1.0, 1000.0)]
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    orbs = OrbitalSet.random(rng, d, n)
    runs = [(evolved_marginal(orbs.matrix, system, t, 2)[0].mat,
             tree_series(a, orbs.density(), t, quad, system,
                         override_time_guard=True).terms,
             loop_remainder(a, orbs, system, t, quad,
                            override_time_guard=True).norm,
             egorov_check(a, system, t, n, quad,
                          override_time_guard=True).norm_difference)
            for system in systems]
    for low, high in zip(*runs):
        assert np.array_equal(low, high)


def test_kappa_minus_ignores_the_self_pair_value():
    # the pair operator's norm on the antisymmetric two-particle sector
    w = soft_coulomb(5)
    for w0 in (1.0, 1000.0):
        system = ModeSystem(5, hopping_hamiltonian(5), np.r_[w0, w[1:]])
        assert system.kappa == w0 and system.kappa_minus == 0.5
    assert ModeSystem.chain(1).kappa_minus == 0.0


def test_gap_report_small_at_short_time():
    d, n, t = 6, 3, 0.1
    system = ModeSystem.chain(d, coupling=1.0)
    rng = np.random.default_rng(29)
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    gamma = OrbitalSet.ground_state(system, n).density()
    report = hf_vs_tree_gap(a, gamma, system, t, QuadratureSpec(6, 2),
                            override_time_guard=True)
    assert report.gap < 1e-3
    assert report.terms.shape == (3,)
    assert np.isfinite(report.gap_exchange)
    assert report.quad_error < 1e-8


def test_gap_vanishes_without_interaction():
    d, n, t = 5, 2, 0.3
    system = ModeSystem.chain(d, coupling=0.0)
    rng = np.random.default_rng(30)
    a = PSectorOperator(d, 1, random_hermitian(rng, d))
    gamma = OrbitalSet.ground_state(system, n).density()
    report = hf_vs_tree_gap(a, gamma, system, t, QuadratureSpec(5, 2))
    assert report.gap < 1e-10
    assert report.gap_exchange < 1e-10


def test_time_guard_radius_and_override():
    assert np.isclose(reported_radius(1.0), 1.0 / (2048 * np.pi))
    for kappa in (0.0, -1.0):
        with pytest.raises(RangeError):
            reported_radius(kappa)
    system = ModeSystem.chain(4, coupling=1.0)
    assert check_time_guard(system, 1e-5, False) == []
    with pytest.raises(RangeError):
        check_time_guard(system, 0.01, False)
    notes = check_time_guard(system, 0.01, True)
    assert len(notes) == 1 and "override" in notes[0]
    free = ModeSystem.chain(4, coupling=0.0)
    assert check_time_guard(free, 10.0, False) == []


def test_term_counts_small_cases():
    assert count_elementary_terms(1, 0, 0) == 1
    assert count_elementary_terms(1, 1, 0) == 2
    assert count_elementary_terms(1, 2, 0) == 8
    assert count_elementary_terms(1, 3, 0) == 48
    assert count_elementary_terms(1, 2, 1) == 4
    assert count_elementary_terms(2, 1, 0) == 4
    assert count_elementary_terms(2, 1, 1) == 2


def test_term_counts_loop_free_closed_form():
    for p in (1, 2, 3):
        for k in range(5):
            want = 2 ** k
            for j in range(k):
                want *= p + j
            assert count_elementary_terms(p, k, 0) == want


def test_term_counts_respect_bounds():
    for p in (1, 2):
        for k in range(5):
            for l in range(k + 1):
                count = count_elementary_terms(p, k, l)
                bound = (2 ** k * comb(k, l) * comb(2 * p + 3 * k, k)
                         * (p + k - l) ** l)
                assert count <= bound


def test_term_counts_reject_bad_arguments():
    with pytest.raises(RangeError):
        count_elementary_terms(1, 2, 3)
    with pytest.raises(RangeError):
        count_elementary_terms(1, 2, -1)
    with pytest.raises(RangeError):
        count_elementary_terms(0, 1, 0)
