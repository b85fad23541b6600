"""End-to-end checks of the headline claims, one printed verdict per check.

Each test exercises the full stack at desk scale and prints a single
PASS/FAIL line so a suite run doubles as an acceptance report.
"""

import json
import time
from math import comb, factorial

import numpy as np

from fermiflow.exact import second_quantize
from fermiflow.experiments import (ExperimentConfig, ground_mode_projector,
                                   run)
from fermiflow.fock import FockContext, deformation_check, egorov_check
from fermiflow.graded import (GradedObservable, graded_poisson,
                              graded_product, state_from_density)
from fermiflow.hf import (HFConfig, OrbitalSet, evolve_hf_orbitals,
                          marginal_relation_check, quasi_free_marginal)
from fermiflow.modes import ModeSystem
from fermiflow.sector import (PSectorOperator, SectorState, marginal,
                              sector_basis, trace_norm)
from fermiflow.tree import (QuadratureSpec, count_elementary_terms,
                            hf_vs_tree_gap, loop_remainder)

SWEEP_N = (2, 3, 4, 5)


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_block(rng, d, p, q):
    shape = (comb(d, p), comb(d, q))
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def homogeneous(rng, d, p, q):
    return GradedObservable(d, {(p, q): random_block(rng, d, p, q)})


def test_mean_field_convergence_rate(capsys):
    start = time.monotonic()
    cfg = ExperimentConfig.from_dict({
        "experiment": "convergence",
        "system": {"coupling": 1.0},
        "sweep": [{"N": n, "t": 0.3, "p": 1} for n in SWEEP_N],
        "seed": 1,
    })
    rows = run(cfg).rows
    elapsed = time.monotonic() - start
    gaps = np.array([row[3] for row in rows])
    slope = rows[0][5]
    ok = (bool(np.all(np.diff(gaps) < 0)) and -1.4 <= slope <= -0.6
          and elapsed < 120.0)
    verdict(capsys, "mean-field convergence", ok,
            f"slope {slope:.3f}, gap {gaps[0]:.3e} -> {gaps[-1]:.3e}, "
            f"{elapsed:.1f}s")


def test_marginal_identities(capsys):
    rng = np.random.default_rng(19)
    worst = 0.0
    bound_ok = True
    for n in SWEEP_N:
        system = ModeSystem.chain(2 * n, 1.0)
        orbs = OrbitalSet.random(rng, 2 * n, n)
        traj = evolve_hf_orbitals(orbs, system, [0.0, 0.5, 1.0],
                                  HFConfig(dt=1e-3))
        for i in range(3):
            frame = traj.states[i]
            for p in (1, 2):
                rep = marginal_relation_check(frame, p)
                worst = max(worst, rep.exact_relation_gap)
                bound_ok = bound_ok and rep.plain_gap <= rep.bound + 1e-12
    ok = worst < 1e-10 and bound_ok
    verdict(capsys, "marginal identities", ok,
            f"worst identity gap {worst:.1e}, bound violated: {not bound_ok}")


def test_quasi_free_trace_bound(capsys):
    rng = np.random.default_rng(23)
    d = 6
    worst = -np.inf
    for _ in range(100):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gamma = g @ g.conj().T
        gamma /= np.trace(gamma).real
        for p in (1, 2, 3):
            tr = float(np.trace(quasi_free_marginal(gamma, p).mat).real)
            worst = max(worst, tr - 1.0)
    ok = worst <= 1e-11
    verdict(capsys, "quasi-free trace bound", ok,
            f"worst excess over 1 across 100 draws: {worst:.1e}")


def test_conservation_laws(capsys):
    cfg = ExperimentConfig.from_dict({
        "experiment": "conservation",
        "system": {"d": 6, "coupling": 1.0},
        "sweep": [{"N": 3, "t": 1.0}],
        "integrator": {"dt": 1e-3},
        "seed": 7,
    })
    rep = run(cfg)
    drifts = [v for row in rep.rows for v in row[2:6]
              if not (isinstance(v, float) and np.isnan(v))]
    cross = max(float(x) for x in
                json.loads(rep.metadata["kappa_vs_density_trace_gap"]))
    ok = max(drifts) < 1e-8 and cross < 1e-7
    verdict(capsys, "conservation drifts", ok,
            f"max drift {max(drifts):.1e}, factored-vs-density {cross:.1e}")


def test_second_quantisation_expectation(capsys):
    rng = np.random.default_rng(29)
    worst = 0.0
    for n in SWEEP_N:
        d = 2 * n
        basis_n = sector_basis(d, n)
        for p in (1, 2):
            dim = sector_basis(d, p).dim
            a = PSectorOperator(d, p, rng.normal(size=(dim, dim))
                                + 1j * rng.normal(size=(dim, dim)))
            v = rng.normal(size=basis_n.dim) + 1j * rng.normal(size=basis_n.dim)
            v /= np.linalg.norm(v)
            lhs = v.conj() @ (second_quantize(a, n).mat @ v)
            pref = factorial(p) * comb(n, p) / n ** p
            rhs = pref * np.trace(a.mat @ marginal(SectorState(basis_n, v),
                                                   p).mat)
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-11
    verdict(capsys, "second-quantisation identity", ok,
            f"worst expectation gap {worst:.1e}")


def test_loop_remainder_decay(capsys):
    quad = QuadratureSpec(6, 3)
    norms, margins = [], []
    for n in SWEEP_N:
        system = ModeSystem.chain(2 * n, 1.0)
        rep = loop_remainder(ground_mode_projector(system),
                             OrbitalSet.ground_state(system, n),
                             system, 0.3, quad, override_time_guard=True)
        norms.append(rep.norm)
        margins.append(rep.norm - 5.0 * rep.tail_estimate)
    slope = np.polyfit(np.log(SWEEP_N), np.log(norms), 1)[0]
    ok = (bool(np.all(np.diff(norms) < 0)) and -1.4 <= slope <= -0.6
          and min(margins) >= 0.0)
    verdict(capsys, "loop remainder decay", ok,
            f"slope {slope:.3f}, norms {norms[0]:.3e} -> {norms[-1]:.3e}, "
            f"tail margin ok: {min(margins) >= 0.0}")


def test_mean_field_gap_scaling(capsys):
    quad = QuadratureSpec(6, 3)
    products = []
    for n in SWEEP_N:
        d = 2 * n
        system = ModeSystem.chain(d, 1.0)
        a = PSectorOperator(d, 1, system.h / np.linalg.norm(system.h, 2))
        gamma = OrbitalSet.ground_state(system, n).density()
        gap = hf_vs_tree_gap(a, gamma, system, 0.2, quad,
                             override_time_guard=True,
                             config=HFConfig(dt=1e-3))
        products.append(abs(gap.gap_exchange) * n)
    spread = max(products) / min(products)
    ok = spread < 1.5
    verdict(capsys, "mean-field gap scaling", ok,
            f"gap*N spread {spread:.2f} across N in {SWEEP_N}")


def test_expansion_count_bounds(capsys):
    violations = []
    for p in (1, 2):
        for k in range(5):
            for l in range(k + 1):
                count = count_elementary_terms(p, k, l)
                bound = (2 ** k * comb(k, l) * comb(2 * p + 3 * k, k)
                         * (p + k - l) ** l)
                if count > bound:
                    violations.append((p, k, l, "main"))
                if l == 0 and count > 4 ** p * 32 ** k:
                    violations.append((p, k, l, "aux"))
    ok = not violations
    verdict(capsys, "expansion count bounds", ok,
            f"violations: {violations or 'none'}")


def test_graded_algebra_laws(capsys):
    rng = np.random.default_rng(31)
    d = 3
    gaps = {}

    blocks = {(1, 1): random_block(rng, d, 1, 1),
              (2, 1): random_block(rng, d, 2, 1)}
    a = GradedObservable(d, blocks)
    b = GradedObservable(d, {(1, 1): random_block(rng, d, 1, 1),
                             (0, 1): random_block(rng, d, 0, 1)})
    c = GradedObservable(d, {(1, 0): random_block(rng, d, 1, 0)})
    left = graded_product(graded_product(a, b), c)
    right = graded_product(a, graded_product(b, c))
    gaps["associativity"] = (left - right).norm

    pairs = [((1, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 0)),
             ((2, 1), (1, 1))]
    gaps["commutativity"] = 0.0
    gaps["antisymmetry"] = 0.0
    for ka, kb in pairs:
        x, y = homogeneous(rng, d, *ka), homogeneous(rng, d, *kb)
        sign = (-1.0) ** (x.degree * y.degree)
        gaps["commutativity"] = max(
            gaps["commutativity"],
            (graded_product(x, y) - sign * graded_product(y, x)).norm)
        gaps["antisymmetry"] = max(
            gaps["antisymmetry"],
            (graded_poisson(x, y)
             + sign * graded_poisson(y, x)).norm)

    triples = [((1, 1), (1, 0), (0, 1)), ((2, 1), (1, 1), (1, 0)),
               ((1, 1), (1, 1), (1, 1))]
    gaps["leibniz"] = 0.0
    gaps["jacobi"] = 0.0
    for ka, kb, kc in triples:
        x = homogeneous(rng, d, *ka)
        y = homogeneous(rng, d, *kb)
        z = homogeneous(rng, d, *kc)
        dx, dy, dz = x.degree, y.degree, z.degree
        leib = (graded_poisson(x, graded_product(y, z))
                - graded_product(graded_poisson(x, y), z)
                - ((-1.0) ** (dx * dy))
                * graded_product(y, graded_poisson(x, z)))
        gaps["leibniz"] = max(gaps["leibniz"], leib.norm)
        jac = (((-1.0) ** (dy * (dx + dz)))
               * graded_poisson(x, graded_poisson(y, z))
               + ((-1.0) ** (dz * (dy + dx)))
               * graded_poisson(y, graded_poisson(z, x))
               + ((-1.0) ** (dx * (dz + dy)))
               * graded_poisson(z, graded_poisson(x, y)))
        gaps["jacobi"] = max(gaps["jacobi"], jac.norm)

    g = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    g, _ = np.linalg.qr(g)
    gamma = g @ np.diag([0.7, 0.3]) @ g.conj().T
    gaps["state norm"] = abs(state_from_density(gamma).norm
                             - trace_norm(gamma))

    worst = max(gaps.values())
    ok = worst < 1e-10
    verdict(capsys, "graded algebra laws", ok,
            f"worst law gap {worst:.1e} "
            f"({max(gaps, key=gaps.get)})")


def test_quantised_flow_correspondence(capsys):
    quad = QuadratureSpec(6, 3)
    diffs = []
    for n in SWEEP_N:
        system = ModeSystem.chain(2 * n, 1.0)
        rep = egorov_check(ground_mode_projector(system), system, 0.25,
                           n, quad, override_time_guard=True)
        diffs.append(rep.norm_difference)
    slope = np.polyfit(np.log(SWEEP_N), np.log(diffs), 1)[0]
    free = ModeSystem.chain(4, 0.0)
    control = egorov_check(ground_mode_projector(free), free, 0.25, 2,
                           quad).norm_difference

    rng = np.random.default_rng(4)
    d = 5
    x = GradedObservable(d, {(2, 2): random_block(rng, d, 2, 2)})
    y = GradedObservable(d, {(2, 2): random_block(rng, d, 2, 2)})
    counts = np.array([2, 4, 8])
    residuals = np.array(
        [deformation_check(x, y, FockContext(d, n)).residual_commutator
         for n in counts])
    dslope = np.polyfit(np.log(counts), np.log(residuals), 1)[0]

    ok = (bool(np.all(np.diff(diffs) < 0)) and -1.4 <= slope <= -0.6
          and control < 1e-8 and dslope <= -1.6)
    verdict(capsys, "quantised flow correspondence", ok,
            f"slope {slope:.3f}, free control {control:.1e}, "
            f"commutator residual slope {dslope:.2f}")


def test_deterministic_reports(capsys):
    jobs = [
        ({"experiment": "graph-count", "system": {"coupling": 1.0},
          "sweep": [{"p": 1, "k": 2, "l": 1}, {"p": 2, "k": 3, "l": 0}],
          "seed": 5}, False),
        ({"experiment": "convergence", "system": {"coupling": 1.0},
          "sweep": [{"N": 2, "t": 0.2}, {"N": 3, "t": 0.2}],
          "seed": 5, "orbitals": "random"}, False),
        ({"experiment": "tree-truncation", "system": {"d": 4, "coupling": 1.0},
          "sweep": [{"N": 2, "t": 0.2}], "seed": 5}, True),
        ({"experiment": "egorov", "system": {"coupling": 1.0},
          "sweep": [{"N": 2, "t": 0.15}], "seed": 5}, True),
        ({"experiment": "conservation", "system": {"d": 4, "coupling": 1.0},
          "sweep": [{"N": 2, "t": 0.4}], "seed": 5}, False),
    ]
    def body(rep):
        return [ln for ln in rep.to_csv().splitlines()
                if not ln.startswith("#")]

    mismatched = []
    for raw, override in jobs:
        first = run(ExperimentConfig.from_dict(raw), override_time_guard=override)
        second = run(ExperimentConfig.from_dict(raw), override_time_guard=override)
        if body(first) != body(second):
            mismatched.append(raw["experiment"])
    ok = not mismatched
    verdict(capsys, "deterministic reports", ok,
            f"re-run mismatches: {mismatched or 'none'}")
