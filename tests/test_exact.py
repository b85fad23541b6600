"""Exact sector propagation against dense first-quantized oracles."""

from math import comb, factorial

import numpy as np
import pytest
from scipy.linalg import expm

from fermiflow.errors import RangeError, ValidationError
from fermiflow.exact import (ManyBodyHamiltonian, build_hamiltonian,
                             evolve_exact, evolved_marginal, heisenberg_evolve,
                             second_quantize)
from fermiflow.modes import ModeSystem
from fermiflow.sector import (PSectorOperator, antisym_projector_dense,
                              embedding_isometry, marginal, sector_basis,
                              slater)


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


def test_evolution_is_unitary_and_conserves_energy():
    rng = np.random.default_rng(31)
    sys = ModeSystem.chain(6)
    ham = build_hamiltonian(sys, 3)
    state = slater(haar_frame(rng, 6, 3))
    e0 = np.vdot(state.coeffs, ham.mat @ state.coeffs)
    out = evolve_exact(state, ham, 0.7)
    e1 = np.vdot(out.coeffs, ham.mat @ out.coeffs)
    assert abs(out.norm() - 1.0) < 1e-12
    np.testing.assert_allclose(e1, e0, atol=1e-12)


def test_evolution_composes_and_inverts():
    rng = np.random.default_rng(37)
    sys = ModeSystem.chain(5)
    ham = build_hamiltonian(sys, 2)
    state = slater(haar_frame(rng, 5, 2))
    fwd = evolve_exact(evolve_exact(state, ham, 0.3), ham, 0.4)
    direct = evolve_exact(state, ham, 0.7)
    np.testing.assert_allclose(fwd.coeffs, direct.coeffs, atol=1e-12)
    back = evolve_exact(direct, ham, -0.7)
    np.testing.assert_allclose(back.coeffs, state.coeffs, atol=1e-12)


def test_free_system_evolves_orbitals_independently():
    # With w = 0 the Slater state of freely evolved orbitals is the evolution.
    rng = np.random.default_rng(41)
    d, n, t = 6, 3, 0.9
    sys = ModeSystem.chain(d, 0.0)
    phi = haar_frame(rng, d, n)
    ham = build_hamiltonian(sys, n)
    got = evolve_exact(slater(phi), ham, t)
    want = slater(expm(-1j * t * sys.h) @ phi)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-11)


def test_evolved_marginal_matches_full_tensor_oracle():
    # Same-pipeline independent implementation on the full d**n grid.
    rng = np.random.default_rng(43)
    d, n, p, t = 6, 3, 1, 0.3
    sys = ModeSystem.chain(d, coupling=1.0)
    phi = haar_frame(rng, d, n)
    got = evolved_marginal(phi, sys, t, p)

    state_full = slater(phi).to_full_tensor()
    h_full = first_quantized_hamiltonian(sys, n)
    evolved = expm(-1j * t * h_full) @ state_full
    m = evolved.reshape(d ** p, d ** (n - p))
    reduced = m @ m.conj().T
    iso = embedding_isometry(d, p)
    want = dense(iso.conj().T) @ reduced @ dense(iso)
    np.testing.assert_allclose(got.mat, want, atol=1e-11)
    np.testing.assert_allclose(got.trace(), 1.0, atol=1e-12)


def test_second_quantize_matches_projector_oracle():
    rng = np.random.default_rng(47)
    d, p, n = 4, 1, 3
    a_small = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a_small = 0.5 * (a_small + a_small.conj().T)
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


def test_second_quantize_two_body_matches_projector_oracle():
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
    evolved = evolve_exact(state, ham, t)
    rhs = np.vdot(evolved.coeffs, a.mat @ evolved.coeffs)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_sector_mismatch_raises():
    sys = ModeSystem.chain(5)
    ham = build_hamiltonian(sys, 2)
    state = slater(np.eye(5)[:, :3])
    with pytest.raises(ValidationError):
        evolve_exact(state, ham, 0.1)
