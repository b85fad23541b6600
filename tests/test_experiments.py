"""Config validation, experiment runners, report formats, and the CLI."""

import gc
import importlib.util
import json
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from fermiflow import exact, experiments, hf, sector, tree
from fermiflow.cli import main
from fermiflow.errors import ConfigError
from fermiflow.experiments import (EXPERIMENTS, ExperimentConfig,
                                   _random_hermitian, ground_mode_projector,
                                   load_config, run)
from fermiflow.hf import OrbitalSet
from fermiflow.modes import ModeSystem, hopping_hamiltonian

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def perfbench_module(name):
    """A module of the benchmark, imported from its file as it stands."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = perfbench_module("workloads")
reference = perfbench_module("reference")


def base_config(**overrides):
    raw = {
        "experiment": "graph-count",
        "system": {"coupling": 1.0},
        "sweep": [{"p": 1, "k": 1, "l": 0}],
        "seed": 3,
    }
    raw.update(overrides)
    return raw


def count_time_config(experiment, sweep, **overrides):
    raw = base_config(experiment=experiment, sweep=sweep)
    raw.update(overrides)
    return raw


def test_unknown_keys_rejected_at_every_level():
    bad = [
        base_config(bogus=1),
        base_config(system={"coupling": 1.0, "shape": "ring"}),
        base_config(system={"coupling": 1.0, "h": "chain"}),
        base_config(sweep=[{"p": 1, "k": 1, "l": 0, "m": 2}]),
        base_config(integrator={"dt": 1e-3, "order": 4}),
        base_config(quadrature={"nodes_per_level": 4, "depth": 2}),
        base_config(output={"path": "x.csv", "mode": "w"}),
    ]
    for raw in bad:
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_dict(raw)


def test_missing_and_invalid_fields_rejected():
    with pytest.raises(ConfigError, match="missing key 'seed'"):
        ExperimentConfig.from_dict({k: v for k, v in base_config().items()
                                    if k != "seed"})
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig.from_dict(base_config(experiment="banana"))
    with pytest.raises(ConfigError, match="seed must be an integer"):
        ExperimentConfig.from_dict(base_config(seed=1.5))
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        ExperimentConfig.from_dict(base_config(seed=-1))
    with pytest.raises(ConfigError, match="non-empty list"):
        ExperimentConfig.from_dict(base_config(sweep=[]))
    with pytest.raises(ConfigError, match="output format"):
        ExperimentConfig.from_dict(base_config(output={"format": "xml"}))
    with pytest.raises(ConfigError, match="orbital preset"):
        ExperimentConfig.from_dict(base_config(orbitals="bell"))
    with pytest.raises(ConfigError, match="coupling"):
        ExperimentConfig.from_dict(base_config(system={"coupling": -1.0}))
    with pytest.raises(ConfigError, match="numeric settings"):
        ExperimentConfig.from_dict(base_config(integrator={"dt": 0.0}))
    # a quadrature too large to build, or whose sweeps are too long
    for quadrature, message in (({"nodes_per_level": 10 ** 10},
                                 "nodes per level"),
                                ({"nodes_per_level": 6, "k_max": 6},
                                 "insertions")):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(base_config(quadrature=quadrature))
    # a section of the wrong JSON type is refused as a config error
    wrong_types = [("integrator", 5), ("integrator", []),
                   ("integrator", None), ("quadrature", ""),
                   ("quadrature", [1]), ("output", []), ("system", 1.0)]
    for section, value in wrong_types:
        with pytest.raises(ConfigError, match=f"^{section} must be an object"):
            ExperimentConfig.from_dict(base_config(**{section: value}))
    with pytest.raises(ConfigError, match=r"^sweep\[0\] must be an object"):
        ExperimentConfig.from_dict(base_config(sweep=[[1]]))
    with pytest.raises(ConfigError, match="^config must be an object"):
        ExperimentConfig.from_dict([base_config()])
    with pytest.raises(ConfigError, match="orbitals must be a string"):
        ExperimentConfig.from_dict(base_config(orbitals=["ground"]))


def test_sweep_drops_each_system_after_its_last_entry():
    # on 2N modes the entries run on 4, 6, 6 and 4 modes: the four-mode
    # system serves the first and the last entry, the six-mode one can be
    # collected once the third is done
    cfg = ExperimentConfig.from_dict(count_time_config(
        "convergence", [{"N": n, "t": 0.1} for n in (2, 3, 3, 2)]))
    refs, seen = [], []

    def rows_of(entry, rng, system):
        gc.collect()
        # per earlier entry: None once its system is gone, else whether
        # it is this entry's system
        seen.append([None if ref() is None else ref() is system
                     for ref in refs])
        refs.append(weakref.ref(system))
        return []

    experiments._sweep(cfg, rows_of)
    assert seen == [[], [False], [False, True], [True, None, None]]


def test_sweep_entry_validation():
    with pytest.raises(ConfigError, match="exceeds the mode count"):
        ExperimentConfig.from_dict(count_time_config(
            "convergence", [{"N": 5, "t": 0.1}],
            system={"d": 3, "coupling": 1.0}))
    with pytest.raises(ConfigError, match="must not exceed 0.5"):
        ExperimentConfig.from_dict(count_time_config(
            "tree-truncation", [{"N": 2, "t": 0.7}]))
    with pytest.raises(ConfigError, match="unknown key 'p'"):
        ExperimentConfig.from_dict(count_time_config(
            "egorov", [{"N": 2, "t": 0.1, "p": 1}]))
    with pytest.raises(ConfigError, match=r"p must lie in \[1, N\]"):
        ExperimentConfig.from_dict(count_time_config(
            "convergence", [{"N": 2, "t": 0.1, "p": 3}]))
    with pytest.raises(ConfigError, match=r"l must lie in \[0, k\]"):
        ExperimentConfig.from_dict(base_config(
            sweep=[{"p": 1, "k": 1, "l": 2}]))


def test_non_finite_numbers_rejected(tmp_path, capsys):
    # NaN and Infinity are valid JSON tokens for Python's reader, and an
    # integer literal can exceed the float range
    for bad in (float("nan"), float("inf"), 10 ** 400):
        for raw in (count_time_config("conservation", [{"N": 2, "t": bad}]),
                    count_time_config("conservation", [{"N": 2, "t": 0.1}],
                                      system={"coupling": bad}),
                    count_time_config("conservation", [{"N": 2, "t": 0.1}],
                                      integrator={"dt": bad})):
            with pytest.raises(ConfigError, match="must be finite"):
                ExperimentConfig.from_dict(raw)
    for bad in (float("nan"), float("inf")):
        path = write_config(tmp_path, count_time_config(
            "conservation", [{"N": 2, "t": bad}]))
        assert main(["run", path]) == 2
        assert "sweep[0].t must be finite" in capsys.readouterr().err


def test_config_hash_tracks_semantics_only():
    plain = ExperimentConfig.from_dict(base_config())
    rerouted = ExperimentConfig.from_dict(
        base_config(output={"path": "elsewhere.csv", "format": "json"}))
    reseeded = ExperimentConfig.from_dict(base_config(seed=4))
    assert plain.config_hash == rerouted.config_hash
    assert plain.config_hash != reseeded.config_hash


def test_load_config_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": \n}')
    with pytest.raises(ConfigError, match=r"broken\.json:2:1"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_graph_count_rows():
    cfg = ExperimentConfig.from_dict(base_config(
        sweep=[{"p": 1, "k": 1, "l": 0}, {"p": 1, "k": 2, "l": 1},
               {"p": 2, "k": 1, "l": 0}]))
    report = run(cfg)
    assert report.columns[:4] == ("p", "k", "l", "count")
    counts = {(r[0], r[1], r[2]): r[3] for r in report.rows}
    assert counts == {(1, 1, 0): 2, (1, 2, 1): 4, (2, 1, 0): 4}
    assert all(r[6] for r in report.rows)
    assert all(r[3] <= r[4] for r in report.rows)


def test_convergence_rows_decrease():
    cfg = ExperimentConfig.from_dict(count_time_config(
        "convergence", [{"N": 2, "t": 0.2}, {"N": 3, "t": 0.2}]))
    report = run(cfg)
    gaps = [r[3] for r in report.rows]
    assert gaps[0] > gaps[1] > 0
    slope = report.rows[0][5]
    assert slope < -0.5
    assert report.rows[0][4] == pytest.approx(0.5)
    assert report.rows[1][4] == pytest.approx(1.0 / 3.0)


def test_marginals_never_expand_the_full_tensor():
    # the d**n bridges live only in the tests' oracle module
    assert not hasattr(sector, "embedding_isometry")
    assert not hasattr(sector.SectorState, "to_full_tensor")
    orbitals = OrbitalSet.random(np.random.default_rng(5), 8, 4)
    got = sector.marginal(sector.slater(orbitals.matrix), 2)
    assert np.trace(got.mat) == pytest.approx(1.0)
    report = run(ExperimentConfig.from_dict(count_time_config(
        "convergence", [{"N": 3, "t": 0.1, "p": 2}])))
    assert 0 < report.rows[0][3] <= report.rows[0][4]


def test_convergence_free_system_is_exact():
    cfg = ExperimentConfig.from_dict(count_time_config(
        "convergence", [{"N": 2, "t": 0.3}],
        system={"coupling": 0.0}))
    report = run(cfg)
    assert report.rows[0][3] < 1e-10


def test_tree_truncation_zero_order_is_free_pairing():
    seed = 11
    cfg = ExperimentConfig.from_dict(count_time_config(
        "tree-truncation", [{"N": 2, "t": 0.2}], seed=seed,
        system={"d": 4, "coupling": 1.0}))
    report = run(cfg, override_time_guard=True)
    system = ModeSystem.chain(4, 1.0)
    rng = np.random.default_rng(seed)
    amat = _random_hermitian(rng, 4)
    gamma = OrbitalSet.ground_state(system, 2).density()
    u = sla.expm(1j * 0.2 * system.h)
    free = float(np.real(np.trace(u @ amat @ u.conj().T @ gamma)))
    k0_rows = [r for r in report.rows if r[2] == 0]
    assert k0_rows[0][3] == pytest.approx(free, abs=1e-12)


def test_tree_truncation_free_system_increments_vanish():
    cfg = ExperimentConfig.from_dict(count_time_config(
        "tree-truncation", [{"N": 3, "t": 0.2}],
        system={"d": 6, "coupling": 0.0}))
    report = run(cfg)
    sums = [r[3] for r in report.rows]
    assert max(sums) - min(sums) < 1e-12
    assert all(r[4] < 1e-10 for r in report.rows)


def test_convergence_runs_at_time_zero(tmp_path, capsys):
    # the flow is read on the one-point grid [0.0]. At t = 0 the
    # quasi-free marginal is the exact one scaled by
    # p! C(N, p) / N^p, so the gap is 0 for p = 1 and 1/N for p = 2
    raw = count_time_config("convergence", [{"N": 2, "t": 0.0, "p": 1},
                                            {"N": 3, "t": 0.0, "p": 2}])
    assert main(["run", write_config(tmp_path, raw), "--out", "-"]) == 0
    capsys.readouterr()
    report = run(ExperimentConfig.from_dict(raw))
    assert [r[:3] for r in report.rows] == [(2, 1, 0.0), (3, 2, 0.0)]
    assert report.rows[0][3] < 1e-14
    assert report.rows[1][3] == pytest.approx(1 / 3, abs=1e-14)


def test_tree_truncation_at_time_zero_is_the_free_pairing(tmp_path, capsys):
    raw = count_time_config("tree-truncation", [{"N": 2, "t": 0.0}],
                            system={"d": 4, "coupling": 1.0})
    assert main(["run", write_config(tmp_path, raw), "--out", "-"]) == 0
    capsys.readouterr()
    report = run(ExperimentConfig.from_dict(raw))
    assert [r[2] for r in report.rows] == [0, 1, 2, 3]
    assert len({r[3] for r in report.rows}) == 1
    assert all(r[4] < 1e-14 and r[5] == 0.0 for r in report.rows)


def test_egorov_free_system_rows_vanish():
    cfg = ExperimentConfig.from_dict(count_time_config(
        "egorov", [{"N": 2, "t": 0.3}, {"N": 3, "t": 0.3}],
        system={"coupling": 0.0}))
    report = run(cfg)
    assert all(r[2] < 1e-8 for r in report.rows)
    assert "t_report" not in report.metadata


def test_egorov_reports_time_radius():
    cfg = ExperimentConfig.from_dict(count_time_config(
        "egorov", [{"N": 2, "t": 1e-5}]))
    report = run(cfg)
    assert float(report.metadata["t_report"]) == pytest.approx(
        1.0 / (2 ** 11 * np.pi))
    # the guard's kappa is w(0); exclusion leaves max |w(m)| over m >= 1
    assert float(report.metadata["kappa"]) == 1.0
    assert float(report.metadata["kappa_minus"]) == 0.5
    assert report.rows[0][2] < 1e-6


def test_conservation_rows_and_cross_check():
    cfg = ExperimentConfig.from_dict(count_time_config(
        "conservation", [{"N": 2, "t": 0.4}],
        system={"d": 4, "coupling": 1.0}))
    report = run(cfg)
    names = {r[0] for r in report.rows}
    assert names == {"orbital", "density", "kappa"}
    for row in report.rows:
        assert row[2] < 1e-9 and row[4] < 1e-9 and row[5] < 1e-9
        if row[0] == "orbital":
            assert row[3] < 1e-9
        else:
            assert np.isnan(row[3])
    cross = json.loads(report.metadata["kappa_vs_density_trace_gap"])
    assert float(cross[0]) < 1e-7


def test_conservation_flows_start_windows_from_the_last(monkeypatch):
    # each Picard sweep calls the flow's tested mean-field part once, on
    # all nodes; starting each window from the previous one's polynomial
    # takes 108 sweeps over the three flows, against 220 from constant
    # starts
    calls = []
    for name in ("_mean_field_density", "_mean_field_kappa"):
        def spy(x, kernel, part=getattr(hf, name)):
            calls.append(len(x))
            return part(x, kernel)
        monkeypatch.setattr(hf, name, spy)
    report = run(ExperimentConfig.from_dict(workloads.config("conservation", 1)))
    assert len(calls) == json.loads(report.metadata["hf_sweeps"]) <= 120
    assert set(calls) == {hf._NODES}


def test_conservation_reads_the_spectra_its_flows_recorded(monkeypatch):
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda mat: calls.append(mat.shape) or eigvalsh(mat))
    report = run(ExperimentConfig.from_dict(workloads.config("conservation", 1)))
    # one spectrum per recorded state: 2 entries x 3 flows x 6 samples
    assert len(calls) == len(report.rows) == 36


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_rows_match_the_benchmark_reference(name):
    ref = reference.load(name)
    cfg = ExperimentConfig.from_dict(workloads.config(name, ref["seed"]))
    assert cfg.config_hash == ref["config_hash"]
    text = run(cfg, override_time_guard=True).to_csv()
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert reference.check(rows, ref, seed=ref["seed"],
                           config_hash=cfg.config_hash) == []


def test_rows_are_reproducible():
    raw = count_time_config("convergence",
                            [{"N": 2, "t": 0.2}, {"N": 3, "t": 0.2}],
                            orbitals="random")
    first = run(ExperimentConfig.from_dict(raw))
    second = run(ExperimentConfig.from_dict(raw))
    assert first.rows == second.rows
    body = lambda text: [ln for ln in text.splitlines()
                         if not ln.startswith("#")]
    assert body(first.to_csv()) == body(second.to_csv())


def test_csv_isolates_volatile_fields_to_header():
    cfg = ExperimentConfig.from_dict(base_config())
    text = run(cfg).to_csv()
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert any("generated_utc" in ln for ln in header)
    assert any("wall_time_s" in ln for ln in header)
    assert data[0].startswith("p,k,l,count")
    tags = {ln.split(",")[-1] for ln in data[1:]}
    assert tags == {cfg.config_hash}
    assert all(len(tag) == 16 for tag in tags)


def test_ground_mode_projector_is_rank_one():
    system = ModeSystem.chain(5, 1.0)
    a = ground_mode_projector(system)
    vals = np.linalg.eigvalsh(a.mat)
    assert vals[-1] == pytest.approx(1.0)
    assert np.all(np.abs(vals[:-1]) < 1e-12)


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    path = write_config(tmp_path, base_config())
    assert main(["run", path, "--out", str(out)]) == 0
    text = out.read_text()
    assert "p,k,l,count" in text
    assert "wrote 1 rows" in capsys.readouterr().out


def test_graph_count_reports_a_count_over_its_bound(monkeypatch, tmp_path,
                                                    capsys):
    # a count over its bound is a row that reads false, not bad input
    monkeypatch.setattr(tree, "_term_count_bounds", lambda p, k, l: (1, 1))
    monkeypatch.setattr(experiments, "_term_count_bounds",
                        lambda p, k, l: (1, 1))
    path = write_config(tmp_path, base_config(output={"format": "json"}))
    assert main(["run", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0][:7] == [1, 1, 0, 2, 1, 1, False]


def test_cli_stdout_json(tmp_path, capsys):
    path = write_config(tmp_path, base_config(output={"format": "json"}))
    assert main(["run", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "graph-count"
    assert payload["rows"][0][:4] == [1, 1, 0, 2]


def test_cli_config_error_exit(tmp_path, capsys):
    path = write_config(tmp_path, base_config(bogus=1))
    assert main(["run", path]) == 2
    assert "unknown key" in capsys.readouterr().err
    # a config file that is not UTF-8 text
    latin1 = tmp_path / "latin1.json"
    text = json.dumps(base_config(orbitals="gründ"), ensure_ascii=False)
    latin1.write_bytes(text.encode("latin-1"))
    assert main(["run", str(latin1)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_refuses_a_sector_too_large_to_enumerate(tmp_path, capsys,
                                                     monkeypatch):
    def refuse(*args):
        raise AssertionError("a sector basis was enumerated")

    monkeypatch.setattr(sector.itertools, "combinations", refuse)
    path = write_config(tmp_path, count_time_config(
        "convergence", [{"N": 20, "t": 0.1, "p": 1}]))
    assert main(["run", path, "--out", "-"]) == 2
    assert "C(40, 20) has over 1048576 states" in capsys.readouterr().err


def test_cli_refuses_more_modes_than_a_bitmask_holds(tmp_path, capsys):
    path = write_config(tmp_path, count_time_config(
        "convergence", [{"N": 2, "t": 0.1, "p": 1}],
        system={"d": 65, "coupling": 1.0}))
    assert main(["run", path, "--out", "-"]) == 2
    assert "C(65, 2) has over 1048576 states or 63 modes" in (
        capsys.readouterr().err)


def test_cli_refuses_an_oversized_quadrature(tmp_path, capsys, monkeypatch):
    # a configuration error, exit 2, before any Gauss-Legendre node is built
    def refuse(*args):
        raise AssertionError("a quadrature was built")

    monkeypatch.setattr(tree, "leggauss", refuse)
    for experiment in ("tree-truncation", "egorov"):
        for quadrature in ({"nodes_per_level": 10 ** 10},
                           {"nodes_per_level": 2, "k_max": 10}):
            path = write_config(tmp_path, count_time_config(
                experiment, [{"N": 2, "t": 0.1}], quadrature=quadrature))
            assert main(["run", path, "--out", "-",
                         "--override-time-guard"]) == 2
            assert "invalid numeric settings" in capsys.readouterr().err


def test_cli_guard_requires_override(tmp_path, capsys):
    raw = count_time_config("egorov", [{"N": 2, "t": 0.25}])
    path = write_config(tmp_path, raw)
    assert main(["run", path, "--out", str(tmp_path / "e.csv")]) == 2
    assert "override" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path / "e.csv"),
                 "--override-time-guard"]) == 0


def test_cli_divergence_exit(tmp_path, capsys):
    raw = count_time_config("conservation", [{"N": 2, "t": 40.0}],
                            system={"d": 4, "coupling": 4000.0},
                            integrator={"dt": 0.5})
    path = write_config(tmp_path, raw)
    with np.errstate(all="ignore"):
        assert main(["run", path]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, coupling",
                         [("tree-truncation", 1e308), ("egorov", 1e200)])
def test_cli_coupling_beyond_the_squared_range_exits_as_divergence(
        tmp_path, capsys, experiment, coupling):
    # kappa**2 overflows here: the reported radius reads 0, so the guard
    # refuses every t > 0, and an overridden run fails as numerics
    raw = count_time_config(experiment, [{"N": 2, "t": 0.1}],
                            system={"coupling": coupling},
                            quadrature={"nodes_per_level": 2, "k_max": 2})
    path = write_config(tmp_path, raw)
    assert main(["run", path, "--out", "-"]) == 2
    assert "radius 0.000e+00" in capsys.readouterr().err
    with np.errstate(all="ignore"):
        assert main(["run", path, "--out", "-",
                     "--override-time-guard"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def grow_the_frame(monkeypatch):
    """Replace the orbital flow's mean-field part by a growth term, so that
    the frame's Gram matrix drifts as exp(0.2 t) times the identity."""
    monkeypatch.setattr(hf, "_mean_field_kappa",
                        lambda kappa, kernel: 0.1 * kappa)


def test_cli_gram_drift_exits_as_divergence(tmp_path, capsys, monkeypatch):
    grow_the_frame(monkeypatch)
    raw = count_time_config("conservation", [{"N": 3, "t": 0.5}],
                            integrator={"dt": 0.5})
    path = write_config(tmp_path, raw)
    assert main(["run", path]) == 3
    assert "Gram drift" in capsys.readouterr().err


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count hook of ``run``, with the count restored
    after the test; skips when numpy loaded no scipy-openblas."""
    hook = experiments._openblas_hook()
    if hook is None:
        pytest.skip("numpy loaded no scipy-openblas")
    get, put = hook
    before = get()
    yield get, put
    put(before)


def test_run_pins_blas_to_one_thread_and_restores_the_callers_count(
        blas_threads, monkeypatch, tmp_path, capsys):
    get, put = blas_threads
    put(2)
    caller, seen = get(), []
    graph_count = experiments._RUNNERS["graph-count"]
    monkeypatch.setitem(experiments._RUNNERS, "graph-count",
                        lambda cfg, guard: seen.append(get())
                        or graph_count(cfg, guard))
    report = run(ExperimentConfig.from_dict(base_config()))
    assert seen == [1] and get() == caller
    assert "# blas_threads: 1\n" in report.to_csv()
    # a run that raises restores the count too: this one exits 3
    grow_the_frame(monkeypatch)
    raw = count_time_config("conservation", [{"N": 3, "t": 0.5}],
                            integrator={"dt": 0.5})
    assert main(["run", write_config(tmp_path, raw)]) == 3
    assert "Gram drift" in capsys.readouterr().err
    assert get() == caller


def test_run_without_openblas_goes_ahead_and_reports_null(monkeypatch):
    monkeypatch.setattr(experiments, "_OPENBLAS", [None])
    report = run(ExperimentConfig.from_dict(base_config()))
    assert report.rows and report.metadata["blas_threads"] == "null"


def test_egorov_rows_do_not_depend_on_the_blas_thread_count(blas_threads):
    _, put = blas_threads
    cfg = ExperimentConfig.from_dict(workloads.config("egorov", 5))
    texts = []
    for threads in (2, 1):
        put(threads)
        texts.append(run(cfg, override_time_guard=True).to_csv())
    rows = [[ln for ln in text.splitlines() if not ln.startswith("#")]
            for text in texts]
    assert rows[0] == rows[1]


def test_no_experiment_starts_a_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    configs = [
        base_config(sweep=[{"p": 1, "k": 1, "l": 0}, {"p": 1, "k": 2, "l": 1}]),
        count_time_config("convergence", [{"N": 2, "t": 0.1},
                                          {"N": 3, "t": 0.1}]),
        count_time_config("tree-truncation", [{"N": 2, "t": 0.1},
                                              {"N": 3, "t": 0.1}],
                          quadrature={"nodes_per_level": 2, "k_max": 2}),
        count_time_config("egorov", [{"N": 2, "t": 0.1}, {"N": 3, "t": 0.1}],
                          quadrature={"nodes_per_level": 2, "k_max": 1}),
        count_time_config("conservation", [{"N": 2, "t": 0.1},
                                           {"N": 3, "t": 0.1}]),
    ]
    assert sorted(raw["experiment"] for raw in configs) == sorted(EXPERIMENTS)
    for raw in configs:
        report = run(ExperimentConfig.from_dict(raw), override_time_guard=True)
        assert report.rows


def test_convergence_run_diagonalises_no_sector_hamiltonian(monkeypatch):
    # states move by Lanczos: the only eigh calls are one of h per system
    # and the Krylov tridiagonals, and no dense sector matrix is built
    def refuse(*args):
        raise AssertionError("a dense sector Hamiltonian was built")

    monkeypatch.setattr(exact, "build_hamiltonian", refuse)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda mat: calls.append(mat) or eigh(mat))
    for raw, hs in ((workloads.config("convergence", 1), [4, 6, 8, 10]),
                    # with d fixed, N = 2 and N = 3 share one system
                    (count_time_config("convergence",
                                       [{"N": 2, "t": 0.1}, {"N": 3, "t": 0.1}],
                                       system={"d": 6, "coupling": 1.0}), [6])):
        calls.clear()
        run(ExperimentConfig.from_dict(raw))
        # h and the tridiagonals are both real, so h is told apart by value
        is_h = [np.array_equal(mat, hopping_hamiltonian(len(mat)))
                for mat in calls]
        h_calls = [len(mat) for mat, h in zip(calls, is_h) if h]
        krylov = [mat for mat, h in zip(calls, is_h) if not h]
        assert sorted(h_calls) == hs
        assert krylov and all(
            len(mat) <= exact.KRYLOV_CAP
            and np.array_equal(mat, np.triu(np.tril(mat, 1), -1))
            for mat in krylov)


def test_convergence_row_at_seven_particles_builds_no_dense_matrix(
        monkeypatch):
    # N = 7 is a 3,432-dimensional sector on 14 modes
    def refuse(*args):
        raise AssertionError("a dense sector Hamiltonian was built")

    monkeypatch.setattr(exact, "build_hamiltonian", refuse)
    report = run(ExperimentConfig.from_dict(count_time_config(
        "convergence", [{"N": 7, "t": 0.05}])))
    assert 0 < report.rows[0][3] <= report.rows[0][4]
    assert json.loads(report.metadata["exact_propagation_error"])[0] <= 1e-12


def test_convergence_reports_propagation_errors_and_slope_window():
    report = run(ExperimentConfig.from_dict(workloads.config("convergence", 1)))
    errors = json.loads(report.metadata["exact_propagation_error"])
    assert len(errors) == len(report.rows)
    assert all(np.isfinite(e) and 0 <= e <= 1e-12 for e in errors)
    assert report.metadata["fitted_slope_window"] == "2..5"
    assert np.isfinite(report.rows[0][5])
    csv_header = [ln for ln in report.to_csv().splitlines()
                  if ln.startswith("#")]
    assert any("exact_propagation_error" in ln for ln in csv_header)
    assert any("fitted_slope_window" in ln for ln in csv_header)


@pytest.mark.parametrize("name", ["convergence", "conservation",
                                  "tree-truncation"])
def test_reports_carry_the_mean_field_integration_error(name):
    # the largest window estimate, held to the allowance dt**4 per unit
    # time, goes into the metadata and leaves the data rows as they were
    raw = workloads.config(name, 1)
    cfg = ExperimentConfig.from_dict(raw)
    first, second = (run(cfg, override_time_guard=True) for _ in range(2))
    error = json.loads(first.metadata["hf_integration_error"])
    dt = raw.get("integrator", {}).get("dt", 1e-3)
    t = max(entry["t"] for entry in raw["sweep"])
    assert np.isfinite(error) and 0 <= error <= dt ** 4 * t
    assert first.metadata["hf_integration_error"] == (
        second.metadata["hf_integration_error"])
    sweeps = json.loads(first.metadata["hf_sweeps"])
    assert isinstance(sweeps, int) and sweeps > 0
    assert first.metadata["hf_sweeps"] == second.metadata["hf_sweeps"]
    rows = [[ln for ln in rep.to_csv().splitlines() if not ln.startswith("#")]
            for rep in (first, second)]
    assert rows[0] == rows[1] and len(rows[0]) > 1


def package_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(sector.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def test_import_loads_no_dense_or_sparse_solvers():
    code = ("import sys, fermiflow; from fermiflow import cli; "
            "print(' '.join(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_package_runs_without_scipy():
    # scipy is a test dependency: with its import blocked, every experiment
    # and the graded algebra's entry points still run
    configs = [base_config()] + [
        count_time_config(name, [{"N": 2, "t": 0.1}])
        for name in EXPERIMENTS if name != "graph-count"]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from fermiflow.experiments import ExperimentConfig, run\n"
        "from fermiflow.fock import FockContext, deformation_check\n"
        "from fermiflow.graded import (GradedObservable, graded_poisson,\n"
        "    graded_product, hierarchy_evolve, state_from_density)\n"
        "from fermiflow.modes import ModeSystem\n"
        f"for raw in {configs!r}:\n"
        "    run(ExperimentConfig.from_dict(raw), override_time_guard=True)\n"
        "one = GradedObservable(3, {(1, 1): np.diag([1.0, 2.0, 3.0])})\n"
        "mixed = one + GradedObservable(3, {(2, 1): np.ones((3, 3))})\n"
        "graded_product(mixed, mixed)\n"
        "graded_poisson(mixed, mixed)\n"
        "deformation_check(one, one, FockContext(3, 2))\n"
        "rho = state_from_density(np.diag([1.0, 0.0, 0.0]))\n"
        "hierarchy_evolve(rho, ModeSystem.chain(3, 0.5), [0.0, 0.05])\n"
        "print('ran without scipy')\n")
    result = subprocess.run([sys.executable, "-c", code], env=package_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ran without scipy"


@pytest.mark.parametrize("name", workloads.NAMES)
def test_cold_run_imports_no_numerical_module(tmp_path, name):
    # set up as a benchmark child does; anything numpy or scipy imported
    # later would be charged to the first run call
    path = workloads.write_config(name, 1, str(tmp_path))
    out = str(tmp_path / "rows.csv")
    code = (
        "import sys, fermiflow\n"
        "from fermiflow import cli\n"
        "from fermiflow.experiments import load_config\n"
        f"load_config({path!r})\n"
        "before = set(sys.modules)\n"
        f"cli.main(['run', {path!r}, '--out', {out!r}, "
        "'--override-time-guard'])\n"
        "print('new modules:', *sorted(m for m in set(sys.modules) - before\n"
        "                              if m.split('.')[0] in ('numpy', 'scipy')))\n")
    result = subprocess.run([sys.executable, "-c", code], env=package_env(),
                            check=True, capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "new modules:"


def test_one_eigendecomposition_per_system(monkeypatch):
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda mat: calls.append(mat.shape) or eigh(mat))
    system = ModeSystem.chain(6)
    OrbitalSet.ground_state(system, 3)
    ground_mode_projector(system)
    system.sector_frame(1, 0.3)
    system.sector_frame(2, 0.3)
    assert calls == [(6, 6)]


def test_conservation_builds_one_flow_kernel_per_system(monkeypatch):
    # the mean-field flows build no system of their own; their read-only
    # complex pair kernel, the system's with the w(0) diagonal zeroed, is
    # cached once on each system
    systems, kernels = [], []
    post_init, derive = ModeSystem.__post_init__, ModeSystem._derive

    def counting_init(self):
        systems.append(self.d)
        post_init(self)

    def counting_derive(self, key, build):
        fresh = key == "flow_kernel" and key not in self._derived
        value = derive(self, key, build)
        if fresh:
            kernels.append((self, value))
        return value

    monkeypatch.setattr(ModeSystem, "__post_init__", counting_init)
    monkeypatch.setattr(ModeSystem, "_derive", counting_derive)
    run(ExperimentConfig.from_dict(workloads.config("conservation", 1)))
    assert len(systems) == 2 and len(kernels) == 2
    for system, kernel in kernels:
        assert kernel.dtype == complex and not kernel.flags.writeable
        assert np.array_equal(kernel,
                              system.wmat - system.w[0] * np.eye(system.d))
        assert system._flow_kernel() is kernel
