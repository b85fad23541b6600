"""Exact sector propagation against dense first-quantized oracles."""

from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fermiflow import exact, sector
from fermiflow.errors import (CapacityError, NumericError, RangeError,
                             ValidationError)
from fermiflow.exact import (build_hamiltonian, evolve_exact,
                             evolved_marginal, heisenberg_evolve,
                             second_quantize)
from fermiflow.modes import ModeSystem
from fermiflow.sector import (PSectorOperator, SectorState,
                              pair_diagonal_sector, sector_basis, slater)
from oracles import (antisym_projector_dense, embedding_isometry,
                     one_body_sector, to_full_tensor)


def haar_frame(rng, d, n):
    q, _ = np.linalg.qr(rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n)))
    return q


def dense(iso):
    return np.asarray(iso.todense())


def first_quantized_hamiltonian(sys, n):
    """Oracle: sum h_i + (1/n) sum_{i<j} W_ij as a dense d**n matrix."""
    d = sys.d
    dim = d ** n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        ops = [np.eye(d)] * n
        ops[i] = sys.h
        term = ops[0]
        for o in ops[1:]:
            term = np.kron(term, o)
        out += term
    grids = np.indices((d,) * n).reshape(n, -1)
    diag = np.zeros(dim)
    for i in range(n):
        for j in range(i + 1, n):
            diag += sys.wmat[grids[i], grids[j]]
    out += np.diag(diag) / n
    return out


def test_hamiltonian_matches_first_quantized_oracle():
    for d, n in [(4, 2), (5, 3)]:
        sys = ModeSystem.chain(d)
        got = build_hamiltonian(sys, n).mat
        iso = embedding_isometry(d, n)
        want = dense(iso.conj().T) @ first_quantized_hamiltonian(sys, n) @ dense(iso)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_hamiltonian_range_check():
    sys = ModeSystem.chain(4)
    with pytest.raises(RangeError):
        build_hamiltonian(sys, 0)
    with pytest.raises(RangeError):
        build_hamiltonian(sys, 5)


def test_lanczos_scatter_index_is_the_one_writeable_array():
    # np.bincount copies a read-only index array on every call, and each
    # Lanczos product sums over rows twice; the rest of the cache is frozen
    system = ModeSystem.chain(6)
    rows, cols, values, diagonal = system._sector_hamiltonian(3)
    assert system._sector_hamiltonian(3)[0] is rows
    assert rows.flags.writeable
    for array in (cols, values, diagonal):
        assert not array.flags.writeable


def test_half_filled_sector_hamiltonian_at_sixteen_modes_peaks_under_30_mb():
    # only the hops with h[k, l] != 0 are built and held, and no table of
    # every hop is kept beside them. The basis and pair tables are cleared
    # first, so their build counts whatever tests ran before
    import tracemalloc

    system = ModeSystem.chain(16)
    sector.sector_basis.cache_clear()
    sector._marginal_table.cache_clear()
    tracemalloc.start()
    try:
        rows, cols, values, diagonal = system._sector_hamiltonian(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(diagonal) == comb(16, 8)
    # the chain keeps 16 of the 8 * 9 hops per state, on average
    assert np.all(values != 0) and len(values) == 16 * comb(16, 8)
    assert peak < 30e6


def eigh_evolved(sys, state, t):
    """Oracle: exp(-i t H) psi by a dense eigh of the sector Hamiltonian,
    assembled from the dense one-body sector matrix and the pair diagonal."""
    d, n = sys.d, state.n
    mat = one_body_sector(sys.h, d, n)
    mat += np.diag(pair_diagonal_sector(sys.wmat, d, n)) / n
    vals, vecs = np.linalg.eigh(mat)
    return vecs @ (np.exp(-1j * t * vals) * (vecs.conj().T @ state.coeffs))


def random_state(rng, d, n):
    dim = sector_basis(d, n).dim
    coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return SectorState(sector_basis(d, n), coeffs / np.linalg.norm(coeffs))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(
           st.just(d), st.integers(1, d - 1), st.floats(-2.0, 2.0),
           st.floats(0.0, 2.0), st.integers(0, 2 ** 32 - 1))))
def test_lanczos_matches_eigh_oracle(case):
    d, n, t, coupling, seed = case
    sys = ModeSystem.chain(d, coupling)
    state = random_state(np.random.default_rng(seed), d, n)
    got, error = evolve_exact(state, sys, t)
    np.testing.assert_allclose(got.coeffs, eigh_evolved(sys, state, t),
                               rtol=0, atol=1e-12)
    assert 0.0 <= error <= 1e-12


@pytest.mark.parametrize("d, n, t, substeps", [(10, 5, 0.3, False),
                                               (10, 5, 40.0, True)])
def test_lanczos_matches_eigh_oracle_past_the_krylov_cap(monkeypatch, d, n,
                                                         t, substeps):
    # dimension 252 exceeds KRYLOV_CAP; t = 40 needs equal substeps
    taus, step = [], exact._krylov_step

    def spy(apply, psi, tau):
        taus.append(tau)
        return step(apply, psi, tau)
    monkeypatch.setattr(exact, "_krylov_step", spy)
    sys = ModeSystem.chain(d)
    state = random_state(np.random.default_rng(7), d, n)
    got, error = evolve_exact(state, sys, t)
    np.testing.assert_allclose(got.coeffs, eigh_evolved(sys, state, t),
                               rtol=0, atol=1e-12)
    assert error <= 1e-12
    assert (min(taus) < t) == substeps


def test_non_finite_time_is_refused():
    sys = ModeSystem.chain(6)
    phi = np.eye(6)[:, :3]
    ham = build_hamiltonian(sys, 3)
    op = PSectorOperator(6, 3, ham.mat)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(RangeError):
            evolved_marginal(phi, sys, t, 1)
        with pytest.raises(RangeError):
            evolve_exact(slater(phi), sys, t)
        with pytest.raises(RangeError):
            heisenberg_evolve(op, ham, t)


def test_time_beyond_the_substep_budget_is_refused():
    sys = ModeSystem.chain(10)
    with pytest.raises(CapacityError):
        evolve_exact(random_state(np.random.default_rng(3), 10, 5), sys,
                     1e9)


def test_overflowing_lanczos_step_is_a_numeric_failure():
    # at this coupling the Krylov products overflow: refused as numerics,
    # not left to eigh on a non-finite tridiagonal matrix
    phi = haar_frame(np.random.default_rng(5), 6, 3)
    with np.errstate(all="ignore"), pytest.raises(NumericError,
                                                  match="non-finite Lanczos"):
        evolve_exact(slater(phi), ModeSystem.chain(6, coupling=1e200), 0.3)


def test_zero_state_evolves_to_zero():
    sys = ModeSystem.chain(6)
    zero = SectorState(sector_basis(6, 3), np.zeros(20))
    got, error = evolve_exact(zero, sys, 0.4)
    np.testing.assert_array_equal(got.coeffs, 0.0)
    assert error == 0.0


def test_evolution_is_unitary_and_conserves_energy():
    rng = np.random.default_rng(31)
    sys = ModeSystem.chain(6)
    ham = build_hamiltonian(sys, 3)
    state = slater(haar_frame(rng, 6, 3))
    e0 = np.vdot(state.coeffs, ham.mat @ state.coeffs)
    out, _ = evolve_exact(state, sys, 0.7)
    e1 = np.vdot(out.coeffs, ham.mat @ out.coeffs)
    assert abs(out.norm() - 1.0) < 1e-12
    np.testing.assert_allclose(e1, e0, atol=1e-12)


def test_evolution_composes_and_inverts():
    rng = np.random.default_rng(37)
    sys = ModeSystem.chain(5)
    state = slater(haar_frame(rng, 5, 2))
    fwd, _ = evolve_exact(evolve_exact(state, sys, 0.3)[0], sys, 0.4)
    direct, _ = evolve_exact(state, sys, 0.7)
    np.testing.assert_allclose(fwd.coeffs, direct.coeffs, atol=1e-12)
    back, _ = evolve_exact(direct, sys, -0.7)
    np.testing.assert_allclose(back.coeffs, state.coeffs, atol=1e-12)


def test_free_system_evolves_orbitals_independently():
    # With w = 0 the Slater state of freely evolved orbitals is the evolution.
    rng = np.random.default_rng(41)
    d, n, t = 6, 3, 0.9
    sys = ModeSystem.chain(d, 0.0)
    phi = haar_frame(rng, d, n)
    got, _ = evolve_exact(slater(phi), sys, t)
    want = slater(expm(-1j * t * sys.h) @ phi)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-11)


def test_evolved_marginal_matches_full_tensor_oracle():
    # Same-pipeline independent implementation on the full d**n grid.
    rng = np.random.default_rng(43)
    d, n, p, t = 6, 3, 1, 0.3
    sys = ModeSystem.chain(d, coupling=1.0)
    phi = haar_frame(rng, d, n)
    got, error = evolved_marginal(phi, sys, t, p)
    assert error <= 1e-12

    state_full = to_full_tensor(slater(phi))
    h_full = first_quantized_hamiltonian(sys, n)
    evolved = expm(-1j * t * h_full) @ state_full
    m = evolved.reshape(d ** p, d ** (n - p))
    reduced = m @ m.conj().T
    iso = embedding_isometry(d, p)
    want = dense(iso.conj().T) @ reduced @ dense(iso)
    np.testing.assert_allclose(got.mat, want, atol=1e-11)
    np.testing.assert_allclose(got.trace(), 1.0, atol=1e-12)


def quantized_sectors():
    """(d, p, n) with 1 <= p <= n <= d and a dense d**n space of at most
    1296, small enough for the dense projector products below."""
    return st.integers(1, 8).flatmap(lambda d: st.integers(1, d).filter(
        lambda n: d ** n <= 1296).flatmap(lambda n: st.tuples(
            st.just(d), st.integers(1, n), st.just(n))))


@settings(max_examples=40, deadline=None)
@given(quantized_sectors(), st.integers(0, 10_000))
def test_second_quantize_matches_projector_oracle(sectors, seed):
    # (p!/n^p) C(n, p) S_n† P_- (A ⊗ 1^(n-p)) P_- S_n, with A the full-space
    # embedding of a random non-Hermitian p-sector operator
    d, p, n = sectors
    rng = np.random.default_rng(seed)
    dim = sector_basis(d, p).dim
    a = PSectorOperator(d, p, rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    got = second_quantize(a, n)

    iso_p = embedding_isometry(d, p)
    a_full = dense(iso_p) @ a.mat @ dense(iso_p.conj().T)
    big = np.kron(a_full, np.eye(d ** (n - p)))
    right = antisym_projector_dense(d, n) @ dense(embedding_isometry(d, n))
    pref = factorial(p) * comb(n, p) / n ** p
    want = pref * right.conj().T @ big @ right
    np.testing.assert_allclose(got.mat, want, rtol=0, atol=1e-12)


def test_second_quantize_two_body_matches_projector_oracle():
    # fixed two-body case p = 2 < n = 3 of the oracle above, seeded so a
    # regression reproduces without hypothesis
    rng = np.random.default_rng(53)
    d, p, n = 4, 2, 3
    dim = sector_basis(d, p).dim
    a_small = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = PSectorOperator(d, p, a_small)
    got = second_quantize(a, n)

    iso_p = embedding_isometry(d, p)
    a_full = dense(iso_p) @ a.mat @ dense(iso_p.conj().T)
    big = np.kron(a_full, np.eye(d ** (n - p)))
    proj = antisym_projector_dense(d, n)
    iso_n = embedding_isometry(d, n)
    pref = factorial(p) * comb(n, p) / n ** p
    want = pref * dense(iso_n.conj().T) @ proj @ big @ proj @ dense(iso_n)
    np.testing.assert_allclose(got.mat, want, atol=1e-12)


def test_second_quantize_builds_no_lift_table(monkeypatch):
    # one pass over the subset-pair table as built, beta-major: no lift
    # entries and no sort of the pairs, also when the table is built anew
    def refuse(*args, **kwargs):
        raise AssertionError("second_quantize built lift entries or sorted")

    sector._marginal_table.cache_clear()
    monkeypatch.setattr(sector, "lift_entries", refuse)
    monkeypatch.setattr(np, "argsort", refuse)
    a = PSectorOperator(8, 1, np.diag(np.arange(8.0)))
    second_quantize(a, 4)


def test_second_quantize_identity():
    # The identity observable quantizes to the scalar p! C(n,p) / n**p.
    d, p, n = 5, 2, 4
    eye = PSectorOperator(d, p, np.eye(sector_basis(d, p).dim))
    got = second_quantize(eye, n)
    want = factorial(p) * comb(n, p) / n ** p * np.eye(sector_basis(d, n).dim)
    np.testing.assert_allclose(got.mat, want, atol=1e-12)


def test_second_quantize_below_threshold_is_zero():
    d, p, n = 5, 3, 2
    a = PSectorOperator(d, p, np.eye(sector_basis(d, p).dim))
    got = second_quantize(a, n)
    np.testing.assert_allclose(got.mat, 0.0)


def test_heisenberg_evolution_reproduces_state_expectations():
    rng = np.random.default_rng(59)
    d, n, t = 5, 2, 0.45
    sys = ModeSystem.chain(d)
    ham = build_hamiltonian(sys, n)
    state = slater(haar_frame(rng, d, n))
    dim = sector_basis(d, n).dim
    a = rng.normal(size=(dim, dim))
    a = PSectorOperator(d, n, a + a.T)
    moved_op = heisenberg_evolve(a, ham, t)
    lhs = np.vdot(state.coeffs, moved_op.mat @ state.coeffs)
    evolved, _ = evolve_exact(state, sys, t)
    rhs = np.vdot(evolved.coeffs, a.mat @ evolved.coeffs)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_sector_mismatch_raises():
    sys = ModeSystem.chain(5)
    state = slater(np.eye(6)[:, :3])
    with pytest.raises(ValidationError):
        evolve_exact(state, sys, 0.1)
    with pytest.raises(ValidationError):
        heisenberg_evolve(PSectorOperator(5, 3, np.eye(10)),
                          build_hamiltonian(sys, 2), 0.1)
