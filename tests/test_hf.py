"""Mean-field flows: oracles, conservation, and cross-formulation checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fermiflow import hf
from fermiflow.errors import (CapacityError, DivergenceError, RangeError,
                             ShapeError, ValidationError)
from fermiflow.hf import (HFConfig, OrbitalSet, density_root,
                          energy_functional, evolve_hf_density,
                          evolve_hf_orbitals, evolve_kappa,
                          hf_rhs_density, hf_rhs_kappa,
                          marginal_relation_check, mean_field_potential,
                          quasi_free_marginal)
from fermiflow.modes import ModeSystem, hopping_hamiltonian, soft_coulomb
from fermiflow.sector import marginal, slater, trace_norm
from oracles import embedding_isometry, pair_operator, swap_operator


def random_density(rng, d, trace=1.0):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = raw @ raw.conj().T
    return g * (trace / np.trace(g).real)


def orbital_rhs_loop(psi, system):
    """Literal per-orbital mean-field equations, normalized scale.

    i dpsi_i/dt = h psi_i + sum_j (w * |psi_j|^2) psi_i
                          - sum_j (w * (psi_i conj(psi_j))) psi_j
    with (w * f)(m) = sum_m' w(m - m') f(m').
    """
    d, n = psi.shape
    wmat = system.wmat
    out = np.zeros_like(psi)
    total_dens = np.sum(np.abs(psi) ** 2, axis=1)
    for i in range(n):
        acc = system.h @ psi[:, i] + (wmat @ total_dens) * psi[:, i]
        for j in range(n):
            cross = wmat @ (psi[:, i] * psi[:, j].conj())
            acc -= cross * psi[:, j]
        out[:, i] = -1j * acc
    return out


def energy_double_sum(psi, system):
    """Literal pair double sum over normalized-scale orbitals."""
    d, n = psi.shape
    w = system.wmat
    total = 0.0
    for i in range(n):
        total += np.real(psi[:, i].conj() @ system.h @ psi[:, i])
    for i in range(n):
        for j in range(n):
            di = np.abs(psi[:, i]) ** 2
            dj = np.abs(psi[:, j]) ** 2
            direct = di @ w @ dj
            cross = psi[:, i].conj() * psi[:, j]
            exch = np.real(cross @ w @ cross.conj())
            total += 0.5 * (direct - exch)
    return total


class TestMeanFieldPotential:
    def test_matches_pair_contraction(self):
        # the pair contraction of the plain product gives the direct part;
        # the antisymmetrized product supplies the exchange correction,
        # closing the mean-field commutator on gamma (x) gamma (1 - E)
        rng = np.random.default_rng(7)
        d = 4
        sys = ModeSystem.chain(d, coupling=0.9)
        w_full = pair_operator(sys)
        swap = swap_operator(sys)

        def contract_second(big):
            return np.trace(big.reshape(d, d, d, d), axis1=1, axis2=3)

        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        plain = contract_second(w_full @ np.kron(a, b)
                                - np.kron(a, b) @ w_full)
        direct = np.diag(sys.wmat @ np.diag(b))
        assert np.allclose(plain, direct @ a - a @ direct, atol=1e-12)

        g = random_density(rng, d)
        pair = np.kron(g, g) @ (np.eye(d * d) - swap)
        closed = contract_second(w_full @ pair - pair @ w_full)
        v = mean_field_potential(g, sys.wmat)
        assert np.allclose(closed, v @ g - g @ v, atol=1e-12)

    def test_hermitian_input_gives_hermitian_potential(self):
        sys = ModeSystem.chain(6, coupling=0.7)
        g = random_density(np.random.default_rng(2), 6)
        v = mean_field_potential(g, sys.wmat)
        assert np.max(np.abs(v - v.conj().T)) < 1e-12


class TestRhsOracles:
    # the orbital flow runs the kappa right-hand side on the normalized frame

    def test_orbital_rhs_matches_literal_loop(self):
        rng = np.random.default_rng(11)
        sys = ModeSystem.chain(7, coupling=1.1)
        psi = OrbitalSet.random(rng, 7, 3).as_normalized()
        got = hf_rhs_kappa(psi, sys)
        want = orbital_rhs_loop(psi, sys)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_orthonormal_scale_carries_inverse_n(self):
        # rescaled to the orthonormal frame, the flow is the literal loop
        # with the pair kernel divided by N
        rng = np.random.default_rng(12)
        sys = ModeSystem.chain(6, coupling=0.8)
        orbs = OrbitalSet.random(rng, 6, 3)
        got = np.sqrt(3) * hf_rhs_kappa(orbs.as_normalized(), sys)
        want = orbital_rhs_loop(orbs.matrix, ModeSystem.chain(6, 0.8 / 3))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_density_rhs_is_commutator_of_orbital_rhs(self):
        rng = np.random.default_rng(13)
        sys = ModeSystem.chain(6, coupling=1.0)
        orbs = OrbitalSet.random(rng, 6, 2)
        psi = orbs.as_normalized()
        dpsi = hf_rhs_kappa(psi, sys)
        assert np.max(np.abs(dpsi - orbital_rhs_loop(psi, sys))) < 1e-12
        dgamma = dpsi @ psi.conj().T + psi @ dpsi.conj().T
        assert np.max(np.abs(hf_rhs_density(orbs.density(), sys) - dgamma)) < 1e-12

    def test_kappa_rhs_consistent_with_density(self):
        rng = np.random.default_rng(14)
        sys = ModeSystem.chain(5, coupling=0.9)
        kappa = density_root(random_density(rng, 5))
        dk = hf_rhs_kappa(kappa, sys)
        dgamma = dk @ kappa.conj().T + kappa @ dk.conj().T
        assert np.max(np.abs(hf_rhs_density(kappa @ kappa.conj().T, sys)
                             - dgamma)) < 1e-12

    def test_single_particle_self_interaction_cancels(self):
        # direct and exchange coincide on a rank-one density, so one
        # particle feels only the free Hamiltonian
        rng = np.random.default_rng(15)
        sys = ModeSystem.chain(6, coupling=2.0)
        orbs = OrbitalSet.random(rng, 6, 1)
        got = hf_rhs_kappa(orbs.as_normalized(), sys)
        assert np.max(np.abs(got - orbital_rhs_loop(orbs.matrix, sys))) < 1e-12
        assert np.max(np.abs(got + 1j * sys.h @ orbs.matrix)) < 1e-12

    def test_mean_field_parts_drop_only_the_free_term(self):
        # the flows run the mean-field parts on the flow kernel, the
        # complex pair kernel with its w(0) diagonal zeroed
        rng = np.random.default_rng(16)
        sys = ModeSystem.chain(7, coupling=1.3)
        kernel = sys._flow_kernel()
        g = random_density(rng, 7)
        kappa = density_root(g)
        free_g = -1j * (sys.h @ g - g @ sys.h)
        assert np.max(np.abs(hf._mean_field_density(g, kernel)
                             - (hf_rhs_density(g, sys) - free_g))) < 1e-13
        assert np.max(np.abs(hf._mean_field_kappa(kappa, kernel)
                             - (hf_rhs_kappa(kappa, sys)
                                + 1j * sys.h @ kappa))) < 1e-13

    @pytest.mark.parametrize("d", [4, 8])
    def test_mean_field_parts_take_a_stack_of_nodes(self, d):
        # one call on the stack of a window's node values gives, node by
        # node, what one call per node gives; the density flow's Picard
        # iterates need not be Hermitian, so neither are these inputs
        rng = np.random.default_rng(40 + d)
        kernel = ModeSystem.chain(d, coupling=1.3)._flow_kernel()

        def stack(cols):
            shape = (hf._NODES, d, cols)
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        densities = np.array([random_density(rng, d)
                              for _ in range(hf._NODES)])
        for part, inputs in (
                (mean_field_potential, (stack(d), densities)),
                (hf._mean_field_density, (stack(d), densities)),
                (hf._mean_field_kappa, (stack(d), stack(d // 2)))):
            for x in inputs:
                got = part(x, kernel)
                want = np.array([part(node, kernel) for node in x])
                assert got.shape == want.shape
                assert (np.max(np.abs(got - want))
                        <= 1e-15 * np.max(np.abs(want)))


class TestEnergy:
    def test_matches_double_sum(self):
        rng = np.random.default_rng(21)
        sys = ModeSystem.chain(6, coupling=1.0)
        orbs = OrbitalSet.random(rng, 6, 3)
        got = energy_functional(orbs.density(), sys)
        want = energy_double_sum(orbs.as_normalized(), sys)
        assert abs(got - want) < 1e-12

    def test_gradient_is_effective_hamiltonian(self):
        # d/ds E(gamma + s X) at s=0 equals Re tr((h + V(gamma)) X)
        rng = np.random.default_rng(22)
        sys = ModeSystem.chain(5, coupling=1.2)
        g = random_density(rng, 5)
        x = rng.normal(size=(5, 5))
        x = (x + x.T) / 2
        s = 1e-6
        fd = (energy_functional(g + s * x, sys)
              - energy_functional(g - s * x, sys)) / (2 * s)
        heff = sys.h + mean_field_potential(g, sys.wmat)
        assert abs(fd - np.real(np.trace(heff @ x))) < 1e-6

    def test_ground_state_frame_frozen_value(self):
        # frozen from the double-sum oracle above
        sys = ModeSystem.chain(6, coupling=1.0)
        orbs = OrbitalSet.ground_state(sys, 3)
        got = energy_functional(orbs.density(), sys)
        assert abs(got - energy_double_sum(orbs.as_normalized(), sys)) < 1e-12
        assert abs(got - 0.32408538249384566) < 1e-9


class TestQuasiFreeMarginal:
    def test_matches_tensor_power_compression(self):
        rng = np.random.default_rng(31)
        d, p = 5, 2
        g = random_density(rng, d)
        iso = embedding_isometry(d, p).toarray()
        dense = 2 * iso.conj().T @ np.kron(g, g) @ iso
        got = quasi_free_marginal(g, p)
        assert np.max(np.abs(got.mat - dense)) < 1e-12

    def test_trace_is_elementary_symmetric(self):
        rng = np.random.default_rng(32)
        d = 6
        g = random_density(rng, d)
        lam = np.linalg.eigvalsh(g)
        for p in (1, 2, 3):
            marg = quasi_free_marginal(g, p)
            e_p = 0.0
            from itertools import combinations
            for sub in combinations(range(d), p):
                e_p += np.prod(lam[list(sub)])
            from math import factorial
            assert abs(marg.trace() - factorial(p) * e_p) < 1e-10

    def test_trace_bounded_by_one(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            g = random_density(rng, 6)
            for p in (1, 2, 3):
                assert quasi_free_marginal(g, p).trace().real <= 1 + 1e-11

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(34)
        g = random_density(rng, 5)
        marg = quasi_free_marginal(g, 2)
        assert np.linalg.eigvalsh(marg.mat).min() > -1e-12

    def test_order_out_of_range(self):
        g = random_density(np.random.default_rng(35), 4)
        with pytest.raises(RangeError):
            quasi_free_marginal(g, 5)


class TestMarginalRelation:
    def test_exact_identity_on_slater_frames(self):
        rng = np.random.default_rng(41)
        for n, p in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
            orbs = OrbitalSet.random(rng, max(2 * n, n + 2), n)
            report = marginal_relation_check(orbs, p)
            assert report.exact_relation_gap < 1e-10
            assert report.plain_gap <= report.bound + 1e-12

    def test_bound_value(self):
        orbs = OrbitalSet.random(np.random.default_rng(42), 8, 4)
        report = marginal_relation_check(orbs, 2)
        assert report.bound == pytest.approx(1.0)
        assert report.plain_gap <= report.bound + 1e-12

    def test_contraction_route_agrees(self):
        # independent route: contraction marginal of the Slater state
        rng = np.random.default_rng(43)
        orbs = OrbitalSet.random(rng, 6, 3)
        contr = marginal(slater(orbs.matrix), 2)
        report = marginal_relation_check(orbs, 2)
        quasi = quasi_free_marginal(orbs.density(), 2)
        gap = trace_norm(quasi.mat - report.prefactor * contr.mat)
        assert abs(gap - report.exact_relation_gap) < 1e-12

    def test_seven_particles_beyond_the_full_tensor(self):
        # 14**7 coefficients exceed MAX_FULL_TENSOR; the sector contraction
        # never forms them
        orbs = OrbitalSet.random(np.random.default_rng(44), 14, 7)
        for p in (1, 2):
            assert marginal_relation_check(orbs, p).exact_relation_gap <= 1e-12


def flat_flow(rhs, system, shape):
    """Plain-picture ODE of one flow for an independent reference integrator."""

    def flat(t, y):
        x = (y[:y.size // 2] + 1j * y[y.size // 2:]).reshape(shape)
        dx = rhs(x, system)
        return np.concatenate([dx.real.ravel(), dx.imag.ravel()])

    return flat


class TestFlows:
    def setup_method(self):
        self.sys = ModeSystem.chain(6, coupling=1.0)
        self.rng = np.random.default_rng(51)
        self.orbs = OrbitalSet.random(self.rng, 6, 3)

    def test_three_formulations_agree(self):
        t_grid = np.linspace(0.0, 0.5, 6)
        cfg = HFConfig(dt=1e-3)
        traj_o = evolve_hf_orbitals(self.orbs, self.sys, t_grid, cfg)
        traj_g = evolve_hf_density(self.orbs.density(), self.sys, t_grid, cfg)
        traj_k = evolve_kappa(density_root(self.orbs.density()),
                              self.sys, t_grid, cfg)
        g_o = traj_o.final().density()
        g_g = traj_g.final()
        g_k = traj_k.final() @ traj_k.final().conj().T
        assert np.max(np.abs(g_o - g_g)) < 1e-9
        assert np.max(np.abs(g_o - g_k)) < 1e-9

    @pytest.mark.parametrize("flow", ["orbitals", "density", "kappa"])
    def test_against_reference_integrator(self, flow):
        # the orbital oracle is the literal per-orbital loop
        t, cfg = 0.4, HFConfig(dt=1e-3)
        gamma0 = self.orbs.density()
        kappa0 = density_root(gamma0)
        start, rhs, final = {
            "orbitals": (self.orbs.as_normalized(), orbital_rhs_loop,
                         lambda: evolve_hf_orbitals(self.orbs, self.sys,
                                                    [0.0, t], cfg)
                         .final().as_normalized()),
            "density": (gamma0, hf_rhs_density,
                        lambda: evolve_hf_density(gamma0, self.sys,
                                                  [0.0, t], cfg).final()),
            "kappa": (kappa0, hf_rhs_kappa,
                      lambda: evolve_kappa(kappa0, self.sys,
                                           [0.0, t], cfg).final()),
        }[flow]
        sol = solve_ivp(flat_flow(rhs, self.sys, start.shape), (0.0, t),
                        np.concatenate([start.real.ravel(),
                                        start.imag.ravel()]),
                        rtol=1e-11, atol=1e-13, dense_output=False)
        ref = (sol.y[:start.size, -1]
               + 1j * sol.y[start.size:, -1]).reshape(start.shape)
        assert np.max(np.abs(final() - ref)) < 1e-8

    def test_each_flow_runs_its_tested_right_hand_side(self, monkeypatch):
        # each flow calls the mean-field part of its tested right-hand
        # side, and nothing else: with that part returning zeros, the flow
        # is exact free motion
        calls, silent = {}, []
        for name in ("_mean_field_density", "_mean_field_kappa"):
            def spy(x, kernel, name=name, part=getattr(hf, name)):
                calls[name] = calls.get(name, 0) + 1
                return np.zeros_like(x) if silent else part(x, kernel)
            monkeypatch.setattr(hf, name, spy)
        gamma0 = self.orbs.density()
        kappa0 = density_root(gamma0)
        t, grid = 0.5, [0.0, 0.25, 0.5]
        free = expm(-1j * t * self.sys.h)
        for evolve, start, name, want in (
                (evolve_hf_orbitals, self.orbs, "_mean_field_kappa",
                 free @ self.orbs.matrix),
                (evolve_hf_density, gamma0, "_mean_field_density",
                 free @ gamma0 @ free.conj().T),
                (evolve_kappa, kappa0, "_mean_field_kappa",
                 free @ kappa0)):
            silent.clear()
            calls.clear()
            evolve(start, self.sys, grid)
            assert set(calls) == {name} and calls[name] > 0
            silent.append(True)
            final = evolve(start, self.sys, grid).final()
            final = getattr(final, "matrix", final)
            assert np.max(np.abs(final - want)) < 1e-12

    def test_one_free_propagator_per_distinct_stage_time(self, monkeypatch):
        # the stream's free propagator is the free frame, built once at the
        # start and then once per collocation window, over its n nodes and
        # its end: an interval of 0.25 is two windows of 0.125, and every
        # node time is built once
        builds = []
        sector_frame = ModeSystem.sector_frame

        def counted(system, m, t):
            builds.append(np.ravel(t))
            return sector_frame(system, m, t)

        monkeypatch.setattr(ModeSystem, "sector_frame", counted)
        nodes = hf._collocation()[0].ravel()
        want = np.concatenate([[0.0]] + [0.125 * (w + nodes)
                                         for w in range(4)])
        gamma0 = self.orbs.density()
        for evolve, start in ((evolve_hf_orbitals, self.orbs),
                              (evolve_hf_density, gamma0),
                              (evolve_kappa, density_root(gamma0))):
            builds.clear()
            evolve(start, self.sys, [0.0, 0.25, 0.5])
            assert [len(times) for times in builds] == [1] + [hf._NODES + 1] * 4
            times = np.concatenate(builds)
            assert np.allclose(times, want, rtol=0, atol=1e-15)
            assert len(np.unique(times)) == len(times)

    def test_stage_frames_stay_bounded_per_call(self, monkeypatch):
        # a long interval is cut into windows of at most _WINDOW: no call
        # builds more than the n + 1 frames of one window
        sizes = []
        sector_frame = ModeSystem.sector_frame

        def counted(system, m, t):
            sizes.append(np.size(t))
            return sector_frame(system, m, t)

        monkeypatch.setattr(ModeSystem, "sector_frame", counted)
        evolve_kappa(density_root(self.orbs.density()), self.sys,
                     [0.0, 1.0], HFConfig(dt=1e-3))
        windows = round(1.0 / hf._WINDOW)
        assert sizes == [1] + [hf._NODES + 1] * windows
        assert max(sizes) <= hf._NODES + 1

    @pytest.mark.parametrize("flow", [evolve_hf_orbitals, evolve_hf_density])
    def test_an_interval_of_too_many_windows_is_refused(self, flow,
                                                       monkeypatch):
        # refused up front, before any window runs
        monkeypatch.setattr(hf, "_window", None)
        start = self.orbs if flow is evolve_hf_orbitals else self.orbs.density()
        with pytest.raises(CapacityError, match="windows"):
            flow(start, self.sys, [0.0, 1.0, 1e300])
        span = hf._WINDOW * hf._MAX_WINDOWS
        with pytest.raises(CapacityError):
            flow(start, self.sys, [0.0, 1.01 * span])

    def test_self_pair_value_never_enters_the_flows(self):
        # w(0) cancels between direct and exchange, and the flows' pair
        # kernel, ModeSystem._flow_kernel, zeroes it: raising it from 1 to
        # 1000 leaves every state unchanged
        d, t_grid, cfg = 6, [0.0, 0.1, 0.2], HFConfig(dt=1e-2)
        w = soft_coulomb(d)
        systems = [ModeSystem(d, hopping_hamiltonian(d), w),
                   ModeSystem(d, hopping_hamiltonian(d), np.r_[1000.0, w[1:]])]
        gamma0 = self.orbs.density()
        kappa0 = density_root(gamma0)
        runs = [[[o.matrix for o in evolve_hf_orbitals(
                     self.orbs, sys, t_grid, cfg).states],
                 evolve_hf_density(gamma0, sys, t_grid, cfg).states,
                 evolve_kappa(kappa0, sys, t_grid, cfg).states]
                for sys in systems]
        for low, high in zip(*runs):
            assert len(low) == len(t_grid)
            for a, b in zip(low, high):
                assert np.array_equal(a, b)

    def test_conservation_over_unit_time(self):
        t_grid = np.linspace(0.0, 1.0, 11)
        cfg = HFConfig(dt=1e-3)
        traj = evolve_hf_orbitals(self.orbs, self.sys, t_grid, cfg)
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-8
        assert np.max(traj.gram_drift) < 1e-8
        assert np.max(np.abs(traj.trace - 1.0)) < 1e-8
        # a priori fourth-order drift allowance of the fixed-step scheme
        assert np.max(traj.gram_drift) <= 10.0 * cfg.dt ** 4 * 1.0 + 1e-12

    def test_density_flow_preserves_spectrum(self):
        traj = evolve_hf_density(self.orbs.density(), self.sys,
                                 np.linspace(0.0, 1.0, 5), HFConfig(dt=1e-3))
        assert np.max(traj.spectrum_drift) < 1e-8
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-8

    def test_kappa_flow_matches_density_spectrum(self):
        traj = evolve_kappa(density_root(self.orbs.density()),
                            self.sys, np.linspace(0.0, 1.0, 5), HFConfig(dt=1e-3))
        assert np.max(traj.spectrum_drift) < 1e-8
        assert np.max(np.abs(traj.trace - 1.0)) < 1e-8

    def test_zero_coupling_is_exact_free_motion(self):
        sys0 = ModeSystem.chain(6, coupling=0.0)
        t = 0.7
        traj = evolve_hf_orbitals(self.orbs, sys0, [0.0, t], HFConfig(dt=0.1))
        want = expm(-1j * t * sys0.h) @ self.orbs.matrix
        assert np.max(np.abs(traj.final().matrix - want)) < 1e-12

    def test_fourth_order_convergence(self):
        # one window long enough that its error is measurable: the error
        # estimate is within 10x of the true error of the collocation
        # solution at its nodes, and the Gauss end value is more accurate
        t = 1.0
        gamma0 = self.orbs.density()
        kappa0 = density_root(gamma0)
        kernel = self.sys._flow_kernel()
        times = t * hf._collocation()[0].ravel()
        u = self.sys.sector_frame(1, times[:, None, None])
        start = self.sys.sector_frame(1, 0.0).conj().T @ kappa0
        (ys,), estimate = hf._window(
            [start], [u], lambda x: [hf._mean_field_kappa(x[0], kernel)],
            t, both_sides=False, allowance=np.inf)
        sol = solve_ivp(flat_flow(hf_rhs_kappa, self.sys, kappa0.shape),
                        (0.0, t), np.concatenate([kappa0.real.ravel(),
                                                  kappa0.imag.ravel()]),
                        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=times)
        ref = (sol.y[:kappa0.size] + 1j * sol.y[kappa0.size:]).T.reshape(
            (len(times),) + kappa0.shape)
        node_error = np.max(np.abs(u[:-1] @ ys[:-1] - ref[:-1]))
        end_error = np.max(np.abs(u[-1] @ ys[-1] - ref[-1]))
        assert node_error >= 1e-10
        assert node_error / 10 <= estimate <= 10 * node_error
        assert end_error <= estimate

    def test_a_carried_start_solves_the_same_window(self):
        # the rows that extrapolate a window's polynomial are exact on
        # degree 6, and a start from them, like the constant start, is only
        # a first iterate: the sweeps reach the same collocation solution,
        # in fewer sweeps
        nodes, _, _, ahead = hf._collocation()
        sextic = np.polynomial.Polynomial([1.0, -2.0, 0.0, 3.0, 0.0, 0.0, 1.0])
        src, dst = np.r_[0.0, nodes.ravel()[:-1]], 1 + nodes.ravel()
        assert np.max(np.abs(ahead @ sextic(src) - sextic(dst))) < 1e-12 * 64
        kernel, span = self.sys._flow_kernel(), hf._WINDOW
        calls = []

        def rhs(x):
            calls.append(1)
            return [hf._mean_field_kappa(x[0], kernel)]
        kappa0 = density_root(self.orbs.density())
        y0 = self.sys.sector_frame(1, 0.0).conj().T @ kappa0
        (first,), _ = hf._window(
            [y0], [self.sys.sector_frame(1, span * nodes)], rhs, span,
            False, np.inf)
        carried = [np.tensordot(ahead, np.concatenate(
            [y0[None], first[:hf._NODES]]), 1)]
        u = [self.sys.sector_frame(1, span * (1 + nodes))]
        calls.clear()
        (cold,), _ = hf._window([first[-1]], u, rhs, span, False, np.inf)
        cold_sweeps = len(calls)
        calls.clear()
        (warm,), _ = hf._window([first[-1]], u, rhs, span, False, np.inf,
                                carried)
        assert np.max(np.abs(warm - cold)) <= 1e-14 * np.max(np.abs(cold))
        assert len(calls) < cold_sweeps

    def test_nonzero_grid_start(self):
        t_grid = [0.3, 0.5]
        traj_a = evolve_hf_orbitals(self.orbs, self.sys, [0.0, 0.3, 0.5],
                                    HFConfig(dt=1e-3))
        traj_b = evolve_hf_orbitals(traj_a.states[1], self.sys, t_grid,
                                    HFConfig(dt=1e-3))
        assert np.max(np.abs(traj_b.final().matrix
                             - traj_a.final().matrix)) < 1e-10

    def test_gram_drift_is_divergence_not_bad_input(self, monkeypatch):
        # a mean-field part that is not Hermitian grows the frame: its Gram
        # matrix is exp(0.2 t) times the identity
        system = ModeSystem.chain(6)
        orbs = OrbitalSet.ground_state(system, 3)
        # the long coarse run drifts by round-off only
        traj = evolve_hf_orbitals(orbs, system, [0, 200], HFConfig(dt=0.5))
        assert np.max(traj.gram_drift) < 1e-8
        monkeypatch.setattr(hf, "_mean_field_kappa",
                            lambda kappa, kernel: 0.1 * kappa)
        with pytest.raises(DivergenceError,
                           match=r"Gram drift 2\.02e-02 at t=0\.1"):
            evolve_hf_orbitals(orbs, system, [0, 0.1], HFConfig(dt=0.5))



def flow_finals(system, orbitals, grid):
    """Final states of the orbital (normalized), density and kappa flows."""
    gamma0 = orbitals.density()
    return (evolve_hf_orbitals(orbitals, system, grid).final().as_normalized(),
            evolve_hf_density(gamma0, system, grid).final(),
            evolve_kappa(density_root(gamma0), system,
                         grid).final())


@pytest.mark.parametrize("d, coupling, t", [(12, 1.0, 2.0), (8, 30.0, 2.0)])
def test_flows_match_an_eighth_order_reference(d, coupling, t):
    # every flow at the default allowance against DOP853 at rtol 1e-13
    system = ModeSystem.chain(d, coupling)
    orbs = OrbitalSet.random(np.random.default_rng(d), d, d // 2)
    gamma0 = orbs.density()
    starts = (orbs.as_normalized(), gamma0, density_root(gamma0))
    rhs = (hf_rhs_kappa, hf_rhs_density, hf_rhs_kappa)
    for start, f, final in zip(starts, rhs,
                               flow_finals(system, orbs, [0.0, t])):
        sol = solve_ivp(flat_flow(f, system, start.shape), (0.0, t),
                        np.concatenate([start.real.ravel(),
                                        start.imag.ravel()]),
                        method="DOP853", rtol=1e-13, atol=1e-15)
        ref = (sol.y[:start.size, -1]
               + 1j * sol.y[start.size:, -1]).reshape(start.shape)
        assert np.max(np.abs(final - ref)) < 1e-10


def test_warm_start_keeps_the_state_with_fewer_sweeps(monkeypatch):
    # a strong-coupling density flow whose windows are halved: started
    # from the previous window's polynomial where the lengths agree, it
    # ends where the constant start of every window ends, in fewer node
    # evaluations, one mean-field call on all nodes per counted sweep
    system = ModeSystem.chain(8, coupling=300.0)
    gamma0 = OrbitalSet.random(np.random.default_rng(300), 8, 4).density()
    nodes, part, window = [], hf._mean_field_density, hf._window
    monkeypatch.setattr(hf, "_mean_field_density",
                        lambda g, kernel: nodes.append(len(g))
                        or part(g, kernel))
    warm = evolve_hf_density(gamma0, system, [0.0, 0.5])
    warm_nodes = sum(nodes)
    assert warm.sweeps == len(nodes) and set(nodes) == {hf._NODES}
    nodes.clear()
    monkeypatch.setattr(hf, "_window", lambda *args: window(*args[:6]))
    cold = evolve_hf_density(gamma0, system, [0.0, 0.5])
    assert cold.sweeps == len(nodes)
    assert np.max(np.abs(warm.final() - cold.final())) <= 1e-13
    assert warm_nodes < sum(nodes)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 6), st.floats(0.0, 3.0), st.floats(0.05, 1.5),
       st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True),
       st.integers(0, 2 ** 16))
def test_grid_points_do_not_move_the_final_state(d, coupling, t, cuts, seed):
    # the windows follow the grid, and each holds its error at round-off
    system = ModeSystem.chain(d, coupling)
    orbs = OrbitalSet.random(np.random.default_rng(seed), d, max(1, d // 2))
    grid = np.unique(np.concatenate([[0.0, t], t * np.array(cuts)]))
    for coarse, fine in zip(flow_finals(system, orbs, [0.0, t]),
                            flow_finals(system, orbs, grid)):
        assert np.max(np.abs(coarse - fine)) <= 1e-13


class TestValidation:
    def test_scale_marker_checked(self):
        # a frame has one scale, orthonormal: columns divided by sqrt(N),
        # or otherwise off the identity Gram matrix, are refused
        rng = np.random.default_rng(61)
        mat = OrbitalSet.random(rng, 5, 2).matrix
        with pytest.raises(ValidationError, match="not orthonormal"):
            OrbitalSet(mat / np.sqrt(2))
        with pytest.raises(ValidationError, match="not orthonormal"):
            OrbitalSet(mat + 1e-3 * mat[:, ::-1])

    def test_empty_frame_rejected(self):
        with pytest.raises(RangeError):
            OrbitalSet(np.zeros((4, 0)))

    def test_overfilled_frame_rejected(self):
        with pytest.raises(RangeError):
            OrbitalSet(np.ones((2, 3)))

    def test_more_orbitals_than_modes_rejected(self):
        # neither constructor may return fewer orbitals than asked for
        with pytest.raises(RangeError, match="5 fermions in 3 modes"):
            OrbitalSet.random(np.random.default_rng(62), 3, 5)
        with pytest.raises(RangeError, match="5 fermions in 3 modes"):
            OrbitalSet.ground_state(ModeSystem.chain(3), 5)
        assert OrbitalSet.ground_state(ModeSystem.chain(3), 3).n == 3

    def test_kappa_roundtrip(self):
        g = random_density(np.random.default_rng(62), 5)
        k = density_root(g)
        assert np.max(np.abs(k @ k.conj().T - g)) < 1e-12

    def test_bad_time_grid_is_bad_input(self):
        sys = ModeSystem.chain(4)
        orbs = OrbitalSet.ground_state(sys, 2)
        for grid in ([], [[0.0, 0.1]]):
            with pytest.raises(ShapeError):
                evolve_hf_orbitals(orbs, sys, grid)
            with pytest.raises(ShapeError):
                evolve_hf_density(orbs.density(), sys, grid)

    def test_non_finite_time_grid_is_bad_input(self):
        sys = ModeSystem.chain(4)
        orbs = OrbitalSet.ground_state(sys, 2)
        kappa = density_root(orbs.density())
        for grid in ([0.0, np.nan], [np.nan, 0.1], [0.0, np.inf],
                     [-np.inf, 0.0]):
            for evolve, start in ((evolve_hf_orbitals, orbs),
                                  (evolve_hf_density, orbs.density()),
                                  (evolve_kappa, kappa)):
                with pytest.raises(RangeError, match="finite"):
                    evolve(start, sys, grid)

    def test_bad_dt(self):
        with pytest.raises(RangeError):
            HFConfig(dt=0.0)
        with pytest.raises(RangeError):
            HFConfig(dt=1.0)
