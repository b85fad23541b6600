"""Bit-string Fock quantisation, the string-construction oracle, and
scaling checks."""

import warnings

import numpy as np
import pytest
from math import comb, factorial, sqrt

from fermiflow import exact, fock, sector
from fermiflow.errors import CapacityError, RangeError, ValidationError
from fermiflow.exact import build_hamiltonian, heisenberg_observable, second_quantize
from fermiflow.fock import (
    FockContext,
    deformation_check,
    egorov_check,
    grassmann_hamiltonian,
    quantise,
)
from fermiflow.graded import GradedObservable, graded_product, superflow_observable
from fermiflow.hf import OrbitalSet
from fermiflow.modes import ModeSystem
from fermiflow.sector import PSectorOperator, sector_basis
from fermiflow.tree import QuadratureSpec, loop_remainder

ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]])
PARITY = np.diag([1.0, -1.0])


def anticommutator(x, y):
    return x @ y + y @ x


def random_block(rng, d, p, q):
    shape = (comb(d, p), comb(d, q))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def field_pair(rng, d):
    f = rng.normal(size=d) + 1j * rng.normal(size=d)
    g = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi_f = GradedObservable(d, {(0, 1): np.conj(f)[None, :]})
    psibar_g = GradedObservable(d, {(1, 0): g[:, None]})
    return f, g, psi_f, psibar_g


def string_lowering(d):
    """c_j = I ⊗ A ⊗ Z^{⊗j} by dense Kronecker strings; site j is bit j."""
    ops = []
    for j in range(d):
        op = np.kron(np.eye(2 ** (d - 1 - j)), ANNIHILATE)
        for _ in range(j):
            op = np.kron(op, PARITY)
        ops.append(op)
    return ops


def string_quantise(a, n):
    """Sum of scaled c†_{x_p} ... c†_{x_1} c_{y_1} ... c_{y_q} strings."""
    low = string_lowering(a.d)
    eye = np.eye(2 ** a.d)
    total = np.zeros((2 ** a.d, 2 ** a.d), dtype=complex)
    for (p, q), mat in a.blocks.items():
        scale = float(n) ** (-(p + q) / 2.0) * sqrt(factorial(p) * factorial(q))
        for i, j in np.argwhere(np.abs(mat) > 0):
            left, right = eye, eye
            for x in sector_basis(a.d, p).occ[i]:
                left = low[x].T @ left
            for y in reversed(sector_basis(a.d, q).occ[j]):
                right = low[y] @ right
            total = total + (scale * mat[i, j]) * (left @ right)
    return total


def string_slater_isometry(d, n):
    """Columns c†_{x_n} ... c†_{x_1}|0> of the ascending-subset basis."""
    low = string_lowering(d)
    columns = []
    for occ in sector_basis(d, n).occ:
        vec = np.eye(2 ** d)[:, 0]
        for x in occ:
            vec = low[x].T @ vec
        columns.append(vec)
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_bit_kernel_matches_the_string_construction(d):
    rng = np.random.default_rng(d)
    ctx = FockContext(d, 3)
    shapes = [(p, q) for p in range(min(d, 2) + 1) for q in range(min(d, 2) + 1)]
    every = GradedObservable(d, {pq: random_block(rng, d, *pq) for pq in shapes})
    singles = [GradedObservable(d, {pq: random_block(rng, d, *pq)})
               for pq in shapes]
    isometries = [string_slater_isometry(d, n) for n in range(d + 1)]
    for a in singles + [every]:
        full = string_quantise(a, ctx.n)
        assert np.array_equal(quantise(a, ctx), full)
        for n, iso in enumerate(isometries):
            assert np.array_equal(quantise(a, ctx, n), iso.T @ full @ iso)


def test_mode_operators_satisfy_car():
    d = 4
    ctx = FockContext(d, 1)
    unit = np.eye(d, dtype=complex)
    lower = [quantise(GradedObservable(d, {(0, 1): unit[None, x]}), ctx)
             for x in range(d)]
    raise_ = [quantise(GradedObservable(d, {(1, 0): unit[:, x, None]}), ctx)
              for x in range(d)]
    eye = np.eye(2 ** d)
    for x in range(d):
        for y in range(d):
            want = eye if x == y else 0.0 * eye
            assert np.array_equal(anticommutator(lower[x], raise_[y]), want)
            assert np.array_equal(anticommutator(lower[x], lower[y]), 0.0 * eye)


def test_rescaled_fields_anticommute_to_inverse_count():
    rng = np.random.default_rng(0)
    d, n = 4, 3
    ctx = FockContext(d, n)
    f, g, psi_f, psibar_g = field_pair(rng, d)
    hat_f = quantise(psi_f, ctx)
    hat_g = quantise(psibar_g, ctx)
    want = (np.vdot(f, g) / n) * np.eye(2 ** d)
    assert np.linalg.norm(anticommutator(hat_f, hat_g) - want, 2) < 1e-13


def test_context_capacity_and_range():
    with pytest.raises(CapacityError):
        FockContext(15, 2)
    with pytest.raises(RangeError):
        FockContext(4, 0)
    with pytest.raises(RangeError):
        FockContext(0, 1)


def test_sector_isometry_orthonormal():
    d = 5
    ctx = FockContext(d, 2)
    unit = GradedObservable(d, {(0, 0): np.ones((1, 1), dtype=complex)})
    assert np.array_equal(quantise(unit, ctx), np.eye(2 ** d))
    for n in range(d + 1):
        assert np.array_equal(quantise(unit, ctx, n), np.eye(comb(d, n)))


def test_number_block_quantises_to_scaled_counter():
    d, n = 4, 3
    ctx = FockContext(d, n)
    block = np.zeros((d, d), dtype=complex)
    block[1, 1] = 1.0
    got = quantise(GradedObservable(d, {(1, 1): block}), ctx)
    want = np.diag((np.arange(2 ** d) >> 1) & 1) / n
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d,n,p", [(5, 2, 1), (5, 3, 1), (5, 3, 2), (6, 3, 2)])
def test_restriction_matches_sector_quantisation(d, n, p):
    """Quantise then restrict equals quantising straight into the sector."""
    rng = np.random.default_rng(10 * d + n + p)
    mat = random_block(rng, d, p, p)
    a = PSectorOperator(d, p, mat)
    ctx = FockContext(d, n)
    via_fock = quantise(GradedObservable.from_sector_op(a), ctx, n)
    direct = second_quantize(a, n).mat
    assert np.linalg.norm(via_fock - direct, 2) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_energy_blocks_restrict_to_sector_hamiltonian(n):
    system = ModeSystem.chain(5, 0.8)
    ctx = FockContext(5, n)
    got = n * quantise(grassmann_hamiltonian(system), ctx, n)
    want = build_hamiltonian(system, n).mat
    assert np.linalg.norm(got - want, 2) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_fock_route_uses_no_sector_lift(monkeypatch, n):
    system = ModeSystem.chain(5, 0.8)
    want = build_hamiltonian(system, n).mat

    def refuse(*args):
        raise AssertionError("the Fock route reached a sector-side table")

    monkeypatch.setattr(sector, "lift_entries", refuse)
    monkeypatch.setattr(sector, "_marginal_table", refuse)
    monkeypatch.setattr(exact, "second_quantize", refuse)
    got = n * quantise(grassmann_hamiltonian(ModeSystem.chain(5, 0.8)),
                       FockContext(5, n), n)
    assert np.linalg.norm(got - want, 2) < 1e-12


def test_egorov_refuses_a_mode_count_mismatch_before_quantising(monkeypatch):
    def refuse(*args):
        raise AssertionError("egorov quantised on mismatched mode counts")

    monkeypatch.setattr(fock, "quantise", refuse)
    with pytest.raises(ValidationError, match="mode counts differ"):
        egorov_check(PSectorOperator(4, 1, np.eye(4)), ModeSystem.chain(5),
                     1e-4, 2, QuadratureSpec(2, 1))


def test_quantisation_is_not_multiplicative():
    """Products deviate by contraction terms that shrink with the count."""
    rng = np.random.default_rng(1)
    d = 4
    a = GradedObservable(d, {(1, 1): random_block(rng, d, 1, 1)})
    b = GradedObservable(d, {(1, 1): random_block(rng, d, 1, 1)})
    ab = graded_product(a, b)
    gaps = []
    for n in (2, 4, 8):
        ctx = FockContext(d, n)
        lhs = quantise(ab, ctx)
        rhs = quantise(a, ctx) @ quantise(b, ctx)
        gaps.append(np.linalg.norm(lhs - rhs, 2))
    assert gaps[0] > 1e-3
    assert gaps[0] > 1.8 * gaps[1] > 3.2 * gaps[2]


def test_field_pair_deformation_is_exact_for_anticommutator():
    rng = np.random.default_rng(2)
    d, n = 4, 3
    _, _, psi_f, psibar_g = field_pair(rng, d)
    report = deformation_check(psi_f, psibar_g, FockContext(d, n))
    assert report.residual_anticommutator < 1e-13
    assert report.residual_commutator > 1e-3


def test_one_body_deformation_is_exact_for_commutator():
    rng = np.random.default_rng(3)
    d, n = 4, 3
    a = GradedObservable(d, {(1, 1): random_block(rng, d, 1, 1)})
    b = GradedObservable(d, {(1, 1): random_block(rng, d, 1, 1)})
    report = deformation_check(a, b, FockContext(d, n))
    assert report.residual_commutator < 1e-12
    assert report.residual_anticommutator > 1e-3
    assert report.bracket_scale > 0.0


def test_two_body_deformation_residual_scaling():
    """Pair-block brackets close only to leading order in the inverse count."""
    rng = np.random.default_rng(4)
    d = 5
    a = GradedObservable(d, {(2, 2): random_block(rng, d, 2, 2)})
    b = GradedObservable(d, {(2, 2): random_block(rng, d, 2, 2)})
    counts = np.array([2, 4, 8])
    residuals = np.array(
        [deformation_check(a, b, FockContext(d, n)).residual_commutator
         for n in counts]
    )
    assert np.all(np.diff(residuals) < 0.0)
    slope = np.polyfit(np.log(counts), np.log(residuals), 1)[0]
    assert slope <= -1.6
    assert -4.5 < slope < -3.5


def test_deformation_requires_homogeneous_inputs():
    rng = np.random.default_rng(5)
    d = 3
    mixed = GradedObservable(
        d, {(1, 1): random_block(rng, d, 1, 1), (1, 0): random_block(rng, d, 1, 0)}
    )
    good = GradedObservable(d, {(1, 1): random_block(rng, d, 1, 1)})
    with pytest.raises(ValidationError):
        deformation_check(mixed, good, FockContext(d, 2))


def test_deformation_dense_capacity():
    d = 13
    a = GradedObservable(d, {(1, 1): np.eye(d, dtype=complex)})
    with pytest.raises(CapacityError):
        deformation_check(a, a, FockContext(d, 2))


def sample_projector(system):
    vals, vecs = np.linalg.eigh(system.h)
    ground = vecs[:, 0]
    return PSectorOperator(system.d, 1, np.outer(ground, ground.conj()))


def test_egorov_zero_time_vanishes():
    system = ModeSystem.chain(5, 1.0)
    quad = QuadratureSpec(nodes_per_level=4, k_max=2)
    report = egorov_check(sample_projector(system), system, 0.0, 2, quad)
    assert report.norm_difference < 1e-12
    assert report.tree_tail_estimate == 0.0


def test_egorov_free_system_vanishes():
    system = ModeSystem.chain(5, 0.0)
    quad = QuadratureSpec(nodes_per_level=4, k_max=2)
    report = egorov_check(sample_projector(system), system, 0.4, 2, quad)
    assert report.norm_difference < 1e-8


def test_egorov_interacting_difference_is_small_but_finite():
    system = ModeSystem.chain(5, 1.0)
    quad = QuadratureSpec(nodes_per_level=6, k_max=3)
    report = egorov_check(
        sample_projector(system), system, 0.25, 2, quad, override_time_guard=True
    )
    assert 1e-6 < report.norm_difference < 1e-3
    assert report.tree_tail_estimate <= report.norm_difference / 5.0
    assert report.quad_error < 1e-8


def test_egorov_tail_vanishes_past_the_particle_number():
    # orders past N - p hold more than N particles and quantise to zero on
    # the N-particle sector; the flow on d modes still extrapolates a tail
    system = ModeSystem.chain(6, 1.0)
    quad = QuadratureSpec(nodes_per_level=4, k_max=3)
    a = sample_projector(system)
    report = egorov_check(a, system, 0.25, 3, quad, override_time_guard=True)
    flow = superflow_observable(a, system, 0.25, quad,
                                override_time_guard=True)
    assert report.tree_tail_estimate == 0.0
    assert flow.tail_estimate > 0.0


def test_egorov_tail_below_the_particle_number_is_loop_remainders():
    # both read the series on N particles: the tail extrapolates the lifted
    # order norms, not the flow's on d modes, which sits above the gap here
    system = ModeSystem.chain(6, 1.0)
    quad = QuadratureSpec(nodes_per_level=4, k_max=1)
    a = sample_projector(system)
    report = egorov_check(a, system, 0.25, 3, quad, override_time_guard=True)
    orbitals = OrbitalSet(np.eye(6, 3))
    remainder = loop_remainder(a, orbitals, system, 0.25, quad,
                               override_time_guard=True)
    assert 0.0 < report.tree_tail_estimate < report.norm_difference
    assert report.tree_tail_estimate == remainder.tail_estimate
    assert report.quad_error == remainder.quad_error


def test_egorov_on_one_particle_warns_only_of_the_time_guard():
    # k_max 0 leaves a single order, too few to extrapolate; on one particle
    # every later order lifts to zero, so there is no tail to estimate
    system = ModeSystem.chain(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = egorov_check(sample_projector(system), system, 0.1, 1,
                              QuadratureSpec(4, 0), override_time_guard=True)
    assert report.tree_tail_estimate == 0.0
    assert len(report.warnings) == 1
    assert "beyond reported radius" in report.warnings[0]


def test_egorov_agrees_with_sector_route():
    """The dense lift reproduces the sector-level Heisenberg difference."""
    system = ModeSystem.chain(5, 1.0)
    t, n = 0.25, 2
    quad = QuadratureSpec(nodes_per_level=6, k_max=3)
    a = sample_projector(system)
    report = egorov_check(a, system, t, n, quad, override_time_guard=True)
    heis = heisenberg_observable(a, system, n, t)
    flowed = superflow_observable(a, system, t, quad, override_time_guard=True)
    total = np.zeros_like(heis.mat)
    for (p, _) in flowed.observable.blocks:
        block = PSectorOperator(system.d, p, flowed.observable.block(p, p))
        total = total + second_quantize(block, n).mat
    direct = float(np.linalg.norm(heis.mat - total, 2))
    assert abs(report.norm_difference - direct) < 1e-10


def test_egorov_rejects_overfilled_sector():
    system = ModeSystem.chain(3, 0.5)
    quad = QuadratureSpec(nodes_per_level=4, k_max=1)
    with pytest.raises(RangeError):
        egorov_check(sample_projector(system), system, 0.1, 4, quad,
                     override_time_guard=True)


def test_egorov_respects_time_guard():
    system = ModeSystem.chain(4, 1.0)
    quad = QuadratureSpec(nodes_per_level=4, k_max=1)
    with pytest.raises(RangeError):
        egorov_check(sample_projector(system), system, 0.3, 2, quad)
