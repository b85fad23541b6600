"""Sector bases, Slater states, reduced densities, and the lift maps.

Oracles here are deliberately independent of the library internals: explicit
permutation sums on full d**n tensors, dense partial traces, and dense
Kronecker embeddings.
"""

import itertools
import pathlib
from math import comb, factorial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiflow import sector
from fermiflow.errors import (CapacityError, RangeError, ShapeError,
                             ValidationError)
from fermiflow.modes import ModeSystem
from fermiflow.sector import (MAX_SECTOR_DIM, MAX_SECTOR_MODES,
                              PSectorOperator, SectorState, compound_matrix,
                              contract_pair_commutator, gram, lift_entries,
                              marginal, one_body_entries,
                              pair_diagonal_sector,
                              project_lift_pair_commutator, sector_basis,
                              slater, split_coisometry, trace_norm)
from oracles import (antisym_projector_dense, antisymmetrize,
                     embedding_isometry, one_body_sector, permutation_sign,
                     to_full_tensor)


def dense_antisymmetrizer(d, p):
    """Oracle: sum over permutations as an explicit d**p x d**p matrix."""
    dim = d ** p
    out = np.zeros((dim, dim))
    axes = list(range(p))
    eye = np.eye(dim).reshape((d,) * p + (dim,))
    for perm in itertools.permutations(axes):
        out += permutation_sign(perm) * np.transpose(
            eye, list(perm) + [p]).reshape(dim, dim)
    return out / factorial(p)


def haar_frame(rng, d, n):
    q, _ = np.linalg.qr(rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n)))
    return q


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1


def test_basis_ordering_is_ascending_bitmask():
    basis = sector_basis(4, 2)
    assert basis.masks.tolist() == [3, 5, 6, 9, 10, 12]
    assert basis.occ.tolist() == [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]]
    assert np.searchsorted(basis.masks, 6) == 2


def test_basis_holds_only_its_masks_and_occupations():
    # a basis keeps no mask-to-row map beside its arrays; searchsorted on
    # the ascending masks finds a row. The cache is cleared first so the
    # build is counted whatever tests ran before
    import tracemalloc

    sector_basis.cache_clear()
    tracemalloc.start()
    try:
        basis = sector_basis(16, 8)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert basis.masks.nbytes + basis.occ.nbytes < 1e6
    assert held < 1.5e6


def test_basis_dimensions_and_range_checks():
    assert sector_basis(6, 3).dim == comb(6, 3)
    assert sector_basis(5, 0).dim == 1
    with pytest.raises(RangeError):
        sector_basis(4, 5)
    with pytest.raises(RangeError):
        sector_basis(4, -1)


def test_sectors_beyond_the_capacity_are_refused_before_enumeration(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("a sector basis was enumerated")

    assert comb(22, 11) <= MAX_SECTOR_DIM < comb(24, 12)
    monkeypatch.setattr(itertools, "combinations", refuse)
    with pytest.raises(CapacityError, match=r"C\(40, 20\) has over 1048576"):
        sector_basis(40, 20)


def test_sectors_beyond_the_bitmask_width_are_refused():
    # the masks are int64: mode 63 would wrap and modes >= 64 collide
    pairs = itertools.combinations(range(MAX_SECTOR_MODES), 2)
    want = sorted((1 << i) | (1 << j) for i, j in pairs)
    assert sector_basis(MAX_SECTOR_MODES, 2).masks.tolist() == want
    with pytest.raises(CapacityError, match=r"C\(65, 1\).* 63 modes"):
        sector_basis(65, 1)
    with pytest.raises(CapacityError):
        sector_basis(MAX_SECTOR_MODES + 1, 0)


def test_antisymmetrize_kills_symmetric_tensor():
    d = 3
    e1 = np.zeros(d)
    e1[1] = 1.0
    np.testing.assert_allclose(antisymmetrize(np.multiply.outer(e1, e1)), 0.0)


def test_antisymmetrize_two_basis_vectors():
    d = 3
    e1, e2 = np.eye(d)[1], np.eye(d)[2]
    got = antisymmetrize(np.multiply.outer(e1, e2))
    want = 0.5 * (np.multiply.outer(e1, e2) - np.multiply.outer(e2, e1))
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_antisymmetrize_matches_dense_oracle():
    rng = np.random.default_rng(7)
    d, p = 3, 3
    t = rng.normal(size=(d,) * p) + 1j * rng.normal(size=(d,) * p)
    got = antisymmetrize(t).reshape(-1)
    want = dense_antisymmetrizer(d, p) @ t.reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-13)
    scaled = antisymmetrize(t, scaled=True).reshape(-1)
    np.testing.assert_allclose(scaled, factorial(p) * want, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_antisymmetrize_idempotent(seed):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(3, 3, 3))
    once = antisymmetrize(t)
    twice = antisymmetrize(once)
    np.testing.assert_allclose(once, twice, atol=1e-13)


def test_embedding_isometry_columns_orthonormal():
    for d, n in [(4, 2), (5, 3), (6, 1)]:
        iso = embedding_isometry(d, n)
        g = (iso.conj().T @ iso).todense()
        np.testing.assert_allclose(np.asarray(g), np.eye(comb(d, n)), atol=1e-13)


def test_embedding_matches_explicit_antisymmetrization():
    d, n = 4, 2
    basis = sector_basis(d, n)
    iso = embedding_isometry(d, n)
    for col in range(basis.dim):
        i, j = basis.occ[col]
        raw = np.zeros((d, d))
        raw[i, j] = 1.0
        want = np.sqrt(factorial(n)) * antisymmetrize(raw).reshape(-1)
        got = np.asarray(iso[:, col].todense()).reshape(-1)
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_slater_canonical_orbitals():
    d = 4
    phi = np.eye(d)[:, :2]
    state = slater(phi)
    want = np.zeros(state.basis.dim)
    want[np.searchsorted(state.basis.masks, 0b11)] = 1.0
    np.testing.assert_allclose(state.coeffs, want, atol=1e-15)


def test_slater_unit_norm_for_orthonormal_frame():
    rng = np.random.default_rng(11)
    phi = haar_frame(rng, 6, 3)
    assert abs(slater(phi).norm() - 1.0) < 1e-12


def test_slater_matches_tensor_antisymmetrization_oracle():
    # Oracle: sqrt(N!) P_- (phi_1 ⊗ ... ⊗ phi_N) built on the full tensor grid.
    rng = np.random.default_rng(3)
    d, n = 4, 3
    phi = haar_frame(rng, d, n)
    prod = phi[:, 0]
    for k in range(1, n):
        prod = np.multiply.outer(prod, phi[:, k])
    want = np.sqrt(factorial(n)) * antisymmetrize(prod).reshape(-1)
    got = to_full_tensor(slater(phi))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_slater_determinant_coefficients():
    rng = np.random.default_rng(5)
    d, n = 5, 2
    phi = haar_frame(rng, d, n)
    state = slater(phi)
    basis = state.basis
    for row in range(basis.dim):
        i, j = basis.occ[row]
        det = phi[i, 0] * phi[j, 1] - phi[j, 0] * phi[i, 1]
        np.testing.assert_allclose(state.coeffs[row], det, atol=1e-13)


def test_slater_rejects_dependent_columns():
    phi = np.ones((4, 2), dtype=complex)
    phi[:, 1] = phi[:, 0] * (1 + 1e-12)
    with pytest.raises(ValidationError):
        slater(phi)


def test_gram_and_trace_norm():
    rng = np.random.default_rng(13)
    phi = haar_frame(rng, 5, 3)
    np.testing.assert_allclose(gram(phi), np.eye(3), atol=1e-13)
    m = rng.normal(size=(4, 4))
    assert abs(trace_norm(m) - np.sum(np.linalg.svd(m, compute_uv=False))) < 1e-12
    with pytest.raises(ShapeError):
        trace_norm(np.ones(3))


def dense_partial_trace(psi_full, d, n, p):
    """Oracle: contract the last n-p tensor slots of |psi><psi| directly.

    Row S of the p-sector reads the full tensor at the ascending index tuple
    of S, scaled by sqrt(p!): on an antisymmetric tensor this is what the
    embedding isometry's adjoint sums to, without its p! rounded terms.
    """
    m = psi_full.reshape(d ** p, d ** (n - p))
    rows = sector_basis(d, p).occ @ d ** np.arange(p - 1, -1, -1)
    m = np.sqrt(factorial(p)) * m[rows]
    return m @ m.conj().T


def check_marginal_against_dense_partial_trace(d, n, p, seed):
    rng = np.random.default_rng(seed)
    basis = sector_basis(d, n)
    coeffs = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    state = SectorState(basis, coeffs / np.linalg.norm(coeffs))
    got = marginal(state, p)
    want = dense_partial_trace(to_full_tensor(state), d, n, p)
    np.testing.assert_allclose(got.mat, want, rtol=0, atol=1e-13)
    assert abs(np.trace(got.mat) - 1.0) < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_marginal_matches_dense_partial_trace(data):
    d = data.draw(st.integers(min_value=1, max_value=7), label="d")
    n = data.draw(st.integers(min_value=1, max_value=d), label="n")
    p = data.draw(st.integers(min_value=1, max_value=n), label="p")
    seed = data.draw(st.integers(0, 10_000), label="seed")
    check_marginal_against_dense_partial_trace(d, n, p, seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_marginal_matches_dense_partial_trace_on_the_full_sector(seed):
    # d = n = p = 7: an oracle summing 7! isometry terms per entry drifts
    # past the tolerance here
    check_marginal_against_dense_partial_trace(7, 7, 7, seed)


def test_marginal_of_canonical_slater_is_diagonal():
    d, n, p = 5, 2, 1
    state = slater(np.eye(d)[:, :n])
    got = marginal(state, p)
    want = np.diag([1 / n if k < n else 0.0 for k in range(d)])
    np.testing.assert_allclose(got.mat, want, atol=1e-13)


def test_marginal_range_errors():
    state = slater(np.eye(4)[:, :2])
    with pytest.raises(RangeError):
        marginal(state, 0)
    with pytest.raises(RangeError):
        marginal(state, 3)


def test_mixture_one_particle_marginal_norm_bound():
    # ||tr_{2..n} Gamma|| <= 1/n for mixtures of Slater projectors.
    rng = np.random.default_rng(2)
    d, n = 6, 3
    for _ in range(5):
        weights = rng.dirichlet(np.ones(3))
        mats = [marginal(slater(haar_frame(rng, d, n)), 1).mat for _ in range(3)]
        mixed = sum(w * m for w, m in zip(weights, mats))
        assert np.linalg.norm(mixed, 2) <= 1 / n + 1e-12


def test_compound_matrix_is_sector_tensor_power():
    rng = np.random.default_rng(4)
    d, m = 4, 2
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    iso = embedding_isometry(d, m)
    full = np.kron(a, a)
    want = np.asarray(iso.conj().T @ (iso.T @ full.T).T)
    np.testing.assert_allclose(compound_matrix(a, m), want, atol=1e-12)


def stacked_minors(a, m):
    """Oracle: every m-minor det(a[X, Y]) over ascending m-subsets X and Y,
    as one stacked determinant."""
    occ = sector_basis(a.shape[0], m).occ
    if m == 0:
        return np.ones((1, 1))
    return np.linalg.det(a[occ[:, None, :, None], occ[None, :, None, :]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compound_recursion_matches_stacked_minors(data):
    d = data.draw(st.integers(1, 7), label="d")
    m = data.draw(st.integers(0, d), label="m")
    real = data.draw(st.booleans(), label="real")
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
    a = rng.normal(size=(d, d))
    if not real:
        a = a + 1j * rng.normal(size=(d, d))
    a /= np.linalg.norm(a, 2)    # every minor then has modulus at most 1
    got = compound_matrix(a, m)
    assert got.dtype == (np.float64 if real else np.complex128)
    np.testing.assert_allclose(got, stacked_minors(a, m), rtol=0, atol=1e-13)


def test_compound_of_propagator_is_free_sector_propagator():
    from scipy.linalg import expm

    sys = ModeSystem.chain(5)
    t = 0.37
    f = expm(-1j * t * sys.h)
    for m in (1, 2, 3):
        got = compound_matrix(f, m)
        h0 = one_body_sector(sys.h, sys.d, m)
        want = expm(-1j * t * h0)
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got @ got.conj().T,
                                   np.eye(got.shape[0]), atol=1e-12)


def one_body_tables_loop(d, n):
    """Oracle: the entries of sum a[k,l] c†_k c_l by nested loops over basis
    states, occupied l and free k, with the signs counted bit by bit."""
    basis = sector_basis(d, n)
    rows, cols, kk, ll, signs = [], [], [], [], []
    for col, mask in enumerate(basis.masks.tolist()):
        for l in range(d):
            if not mask >> l & 1:
                continue
            sign_l = (-1) ** bin(mask & ((1 << l) - 1)).count("1")
            removed = mask ^ (1 << l)
            for k in range(d):
                if removed >> k & 1:
                    continue
                sign_k = (-1) ** bin(removed & ((1 << k) - 1)).count("1")
                rows.append(np.searchsorted(basis.masks, removed | (1 << k)))
                cols.append(col)
                kk.append(k)
                ll.append(l)
                signs.append(sign_l * sign_k)
    return (np.array(rows), np.array(cols), np.array(kk), np.array(ll),
            np.array(signs, dtype=float))


def entry_key(entry):
    row, col, value = entry
    return int(row), int(col), float(value.real), float(value.imag)


@pytest.mark.parametrize("d", [1, 2, 4, 6, 7])
def test_one_body_tables_match_nested_loop(d):
    # the same entries exactly, as a multiset: the helper's order differs.
    # A fully nonzero a compares every hop's row, column and sign; a sparse
    # one checks that the hops with a[k, l] == 0 are left out
    rng = np.random.default_rng(d)
    full = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sparse = full * (rng.random((d, d)) < 0.5)
    for a in (full, sparse):
        for n in range(d + 1):
            rows, cols, kk, ll, signs = one_body_tables_loop(d, n)
            hops = a[kk.astype(int), ll.astype(int)]   # empty at n = 0
            keep = hops != 0
            want = zip(rows[keep], cols[keep], (signs * hops)[keep])
            got = list(zip(*one_body_entries(a, d, n)))
            if a is full:
                assert len(got) == comb(d, n) * n * (d - n + 1)
            assert sorted(map(entry_key, got)) == sorted(map(entry_key, want))


def test_one_body_sector_matches_first_quantized_oracle():
    rng = np.random.default_rng(9)
    d, n = 4, 2
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    iso = embedding_isometry(d, n)
    full = np.kron(a, np.eye(d)) + np.kron(np.eye(d), a)
    want = np.asarray(iso.conj().T @ (iso.T @ full.T).T)
    got = one_body_sector(a, d, n)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pair_diagonal_matches_first_quantized_oracle():
    d, n = 5, 3
    sys = ModeSystem.chain(d)
    basis = sector_basis(d, n)
    want = np.array([
        sum(sys.wmat[i, j] for i, j in itertools.combinations(occ, 2))
        for occ in basis.occ])
    np.testing.assert_allclose(pair_diagonal_sector(sys.wmat, d, n), want,
                               atol=1e-13)


def lift_sectors():
    """(d, m) with 1 <= m <= d <= 6 and a dense d**m space of at most 1296."""
    return st.integers(1, 6).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(1, d).filter(lambda m: d ** m <= 1296)))


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def dense_lift_oracle(x, d, m, lifted_full):
    """S_m† P_- L(X_full ⊗ 1) P_- S_m for the full-space (m-1) embedding
    X_full of x, with the dense projector applied before the contraction."""
    iso_small = embedding_isometry(d, m - 1).toarray()
    x_full = iso_small @ x @ iso_small.conj().T
    bridge = antisym_projector_dense(d, m) @ embedding_isometry(d, m).toarray()
    return lifted_full(np.kron(x_full, np.eye(d)), bridge)


def pair_interaction_full(wmat, d, m):
    """Oracle: sum_{i<m} W_{i,m} as a dense d**m matrix (last slot is m)."""
    dim = d ** m
    out = np.zeros((dim, dim))
    grids = np.indices((d,) * m).reshape(m, -1)
    for i in range(m - 1):
        out[np.arange(dim), np.arange(dim)] += wmat[grids[i], grids[m - 1]]
    return out


@settings(max_examples=30, deadline=None)
@given(lift_sectors(), st.integers(0, 10_000))
def test_project_lift_pair_commutator_matches_dense_oracle(sectors, seed):
    d, m = sectors
    sys = ModeSystem.chain(d)
    x = random_complex(np.random.default_rng(seed), comb(d, m - 1))
    w_full = pair_interaction_full(sys.wmat, d, m)
    want = dense_lift_oracle(
        x, d, m, lambda k, b: (b.conj().T @ w_full) @ k @ b
        - b.conj().T @ k @ (w_full @ b))
    got = project_lift_pair_commutator(x, lift_entries(sys.wmat, d, m), d, m)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_contract_is_adjoint_of_lift_commutator():
    rng = np.random.default_rng(29)
    d, m = 5, 3
    sys = ModeSystem.chain(d)
    entries = lift_entries(sys.wmat, d, m)
    small, big = sector_basis(d, m - 1), sector_basis(d, m)
    x = random_complex(rng, small.dim)
    rho = random_complex(rng, big.dim)
    lift = project_lift_pair_commutator(x, entries, d, m)
    contr = contract_pair_commutator(rho, entries, d, m)
    lhs = np.trace(lift.conj().T @ rho)
    rhs = np.trace(x.conj().T @ contr)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def nested_loop_blocks(d, m):
    """Oracle: per added mode i, the (m-1)-sector rows alpha without i, the
    m-sector rows of alpha ∪ {i} and the coisometry signs (-1)^(m-1-pos(i)),
    read off the basis states one occupied mode at a time."""
    small, big = sector_basis(d, m - 1), sector_basis(d, m)
    alpha, target, sign = ([[] for _ in range(d)] for _ in range(3))
    for row, mask in enumerate(big.masks):
        for pos, i in enumerate(big.occ[row]):
            alpha[i].append(np.searchsorted(small.masks, mask ^ (1 << i)))
            target[i].append(row)
            sign[i].append((-1.0) ** (m - 1 - pos))
    return [(np.array(a, dtype=int), np.array(t, dtype=int), np.array(s))
            for a, t, s in zip(alpha, target, sign)]


def interaction_weights(wmat, d, m):
    """wbar[alpha, i] = sum over occupied x of w(x - i), per (m-1)-subset."""
    return sector_basis(d, m - 1).occupation_onehot() @ wmat


def per_mode_loop(d, m, x, weights, adjoint=False):
    """Oracle: the per-mode kernel, one np.ix_ block of the coisometry per
    added mode, with wbar from :func:`interaction_weights` (none for the
    plain lift)."""
    small, big = sector_basis(d, m - 1).dim, sector_basis(d, m).dim
    dim = small if adjoint else big
    out = np.zeros((dim, dim), dtype=complex)
    for i, (a_idx, s_idx, sg) in enumerate(nested_loop_blocks(d, m)):
        signs = sg[:, None] * sg[None, :]
        if weights is not None:
            wcol = weights[a_idx, i]
            signs = signs * (wcol[:, None] - wcol[None, :])
        src, dst = np.ix_(s_idx, s_idx), np.ix_(a_idx, a_idx)
        if not adjoint:
            src, dst = dst, src
        out[dst] += signs * x[src]
    out /= m
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_lift_kernels_match_the_per_mode_loop(d):
    rng = np.random.default_rng(d)
    sys = ModeSystem.chain(d)
    for m in range(1, d + 1):
        small, big = sector_basis(d, m - 1).dim, sector_basis(d, m).dim
        wbar = interaction_weights(sys.wmat, d, m)
        entries = lift_entries(sys.wmat, d, m)
        x, rho = random_complex(rng, small), random_complex(rng, big)
        np.testing.assert_array_equal(
            project_lift_pair_commutator(x, entries, d, m),
            per_mode_loop(d, m, x, wbar))
        np.testing.assert_array_equal(
            contract_pair_commutator(rho, entries, d, m),
            per_mode_loop(d, m, rho, wbar, adjoint=True))


@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_lift_tables_match_nested_loop(d):
    # the entry tables of lift_entries, block by added mode: flat complex
    # positions in both sectors and one real coefficient per entry
    sys = ModeSystem.chain(d, coupling=0.7)
    for m in range(1, d + 1):
        small, big = sector_basis(d, m - 1).dim, sector_basis(d, m).dim
        wbar = interaction_weights(sys.wmat, d, m)
        small_flat, big_flat, coefficients = lift_entries(sys.wmat, d, m)
        for i, (a_idx, s_idx, sg) in enumerate(nested_loop_blocks(d, m)):
            assert len(a_idx) == comb(d - 1, m - 1)
            n = len(a_idx) ** 2
            entries = slice(i * n, (i + 1) * n)
            np.testing.assert_array_equal(
                small_flat[entries], np.add.outer(small * a_idx, a_idx).ravel())
            np.testing.assert_array_equal(
                big_flat[entries], np.add.outer(big * s_idx, s_idx).ravel())
            wcol = wbar[a_idx, i]
            np.testing.assert_array_equal(
                coefficients[entries],
                (np.outer(sg, sg) * np.subtract.outer(wcol, wcol)).ravel())
        assert len(coefficients) == d * comb(d - 1, m - 1) ** 2


def test_lift_tables_cover_each_big_state_m_times():
    # an entry (S_a, S_b) is reached once per shared mode; the diagonal m times
    d, m = 6, 3
    big = sector_basis(d, m)
    scatter = lift_entries(ModeSystem.chain(d).wmat, d, m)[1]
    counts = np.bincount(scatter, minlength=big.dim ** 2)
    shared = big.occupation_onehot() @ big.occupation_onehot().T
    np.testing.assert_array_equal(counts.reshape(big.dim, big.dim), shared)
    np.testing.assert_array_equal(np.diag(shared), m)


def test_lift_entries_take_24_bytes_each():
    # one flat position in each sector and one real coefficient per entry,
    # d C(d-1, m-1)^2 entries per lift
    d = 8
    system = ModeSystem.chain(d)
    for m in range(1, d + 1):
        held = sum(array.nbytes for array in system._lift(m))
        assert held == 24 * d * comb(d - 1, m - 1) ** 2


def test_sector_operator_shape_check():
    with pytest.raises(ShapeError):
        PSectorOperator(4, 2, np.eye(5))


@pytest.mark.parametrize("d", range(1, 6))
def test_split_coisometry_is_the_nonzero_columns_of_the_embedding_oracle(d):
    # J = E_n†(E_k ⊗ E_{n-k}) from the permutation-sum isometries, exact up
    # to the round-off of their n! terms: the columns of the disjoint pairs
    # are those returned, all others are zero
    for n in range(1, d + 1):
        for k in range(n + 1):
            full = (embedding_isometry(d, n).T @ sp.kron(
                embedding_isometry(d, k),
                embedding_isometry(d, n - k))).toarray()
            got, alpha, beta = split_coisometry(d, n, k)
            columns = alpha * comb(d, n - k) + beta
            assert got.shape == (comb(d, n), comb(d, n) * comb(n, k))
            np.testing.assert_allclose(got, full[:, columns], rtol=0,
                                       atol=1e-13)
            assert np.all(np.abs(np.delete(full, columns, axis=1)) < 1e-13)


@pytest.mark.parametrize("d", range(1, 9))
def test_subset_pair_table_is_three_beta_grouped_arrays(d):
    # one layout, a row per (n-p)-subset beta holding its disjoint alphas
    # ascending: alpha rows, union rows and signs, 24 B per pair, none of
    # them a view that keeps a larger buffer alive
    for n in range(d + 1):
        for p in range(n + 1):
            shape = (comb(d, n - p), comb(d - n + p, p))
            table = sector._marginal_table(d, n, p)
            assert [array.shape for array in table] == [shape] * 3
            for array in table:
                assert array.base is None or array.base.nbytes == array.nbytes
            assert sum(array.nbytes for array in table) == 24 * np.prod(shape)
            alpha = table[0]
            assert np.all(np.diff(alpha, axis=1) > 0)
            assert not np.any(sector_basis(d, p).masks[alpha]
                              & sector_basis(d, n - p).masks[:, None])


def test_only_the_sector_module_reads_the_subset_pair_table():
    # the table's layout is known in one module; every other reader goes
    # through the maps that sector builds on it
    package = pathlib.Path(sector.__file__).parent
    readers = [path.name for path in sorted(package.rglob("*.py"))
               if path.name != "sector.py"
               and "_marginal_table" in path.read_text(encoding="utf-8")]
    assert readers == []
