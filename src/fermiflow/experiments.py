"""Config-driven experiment batches with hash-tagged deterministic reports.

A single JSON document selects one of five canonical experiments, the
mode system, a sweep, and numeric settings. Validation is strict: unknown
keys are rejected so a typo cannot silently fall back to a default. Every
data row ends with a hash of the semantic config, and all randomness comes
from one seeded generator drawn in sweep order, so re-running a config
reproduces each row byte for byte. Volatile facts (timestamps, wall
times) live only in the report metadata, never in rows.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from time import perf_counter

import numpy as np
from numpy.random import default_rng  # numpy loads it lazily, on first use

from .errors import ConfigError, RangeError
from .exact import evolved_marginal
from .fock import egorov_check
from .hf import (HFConfig, OrbitalSet, density_root, evolve_hf_density,
                 evolve_hf_orbitals, evolve_kappa, quasi_free_marginal)
from .modes import ModeSystem
from .sector import PSectorOperator, trace_norm
from .tree import (QuadratureSpec, _term_count_bounds, count_elementary_terms,
                   hf_vs_tree_gap, reported_radius, tree_series)

REPORT_VERSION = "0.1.0"
EXPERIMENTS = ("convergence", "tree-truncation", "egorov", "conservation",
               "graph-count")
FORMATS = ("csv", "json")
ORBITAL_PRESETS = {
    "ground": lambda rng, system, n: OrbitalSet.ground_state(system, n),
    "random": lambda rng, system, n: OrbitalSet.random(rng, system.d, n),
}
HASH_LENGTH = 16
CONSERVATION_SAMPLES = 6


def _require_keys(raw: dict, allowed, required, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing key '{key}' in {where}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:       # an integer beyond the float range
        number = float("inf")
    if not np.isfinite(number):
        raise ConfigError(f"{where} must be finite")
    return number


@dataclass(frozen=True)
class SystemSpec:
    """Mode system of the sweep: hopping chain with a soft-Coulomb pair
    kernel on d modes, or on 2N modes for an entry of N when d is unset."""

    d: int | None
    coupling: float

    def modes(self, n: int) -> int:
        """The mode count of a sweep entry with n particles."""
        return self.d if self.d is not None else 2 * n

    def build(self, n: int) -> ModeSystem:
        """The mode system of a sweep entry with n particles."""
        return ModeSystem.chain(self.modes(n), self.coupling)

    @classmethod
    def from_dict(cls, raw: dict) -> "SystemSpec":
        _require_keys(raw, {"d", "coupling"}, {"coupling"}, "system")
        d = raw.get("d")
        if d is not None:
            d = _as_int(d, "system.d")
            if d < 1:
                raise ConfigError("system.d must be positive")
        coupling = _as_number(raw["coupling"], "system.coupling")
        if coupling < 0:
            raise ConfigError("system.coupling must be non-negative")
        return cls(d=d, coupling=coupling)


def _validate_count_time_entry(entry: dict, index: int, experiment: str,
                               d_fixed: int | None) -> dict:
    where = f"sweep[{index}]"
    _require_keys(entry, {"N", "t", "p"}, {"N", "t"}, where)
    if "p" in entry and experiment != "convergence":
        raise ConfigError(f"unknown key 'p' in {where}")
    n = _as_int(entry["N"], f"{where}.N")
    t = _as_number(entry["t"], f"{where}.t")
    p = _as_int(entry.get("p", 1), f"{where}.p")
    if n < 1:
        raise ConfigError(f"{where}.N must be positive")
    if t < 0:
        raise ConfigError(f"{where}.t must be non-negative")
    if not 1 <= p <= n:
        raise ConfigError(f"{where}.p must lie in [1, N]")
    if d_fixed is not None and n > d_fixed:
        raise ConfigError(f"{where}.N exceeds the mode count {d_fixed}")
    if experiment == "tree-truncation" and t > 0.5:
        raise ConfigError(f"{where}.t must not exceed 0.5")
    if experiment == "conservation" and t <= 0:
        raise ConfigError(f"{where}.t must be positive")
    return {"N": n, "t": t, "p": p}


def _validate_order_entry(entry: dict, index: int) -> dict:
    where = f"sweep[{index}]"
    _require_keys(entry, {"p", "k", "l"}, {"p", "k", "l"}, where)
    p = _as_int(entry["p"], f"{where}.p")
    k = _as_int(entry["k"], f"{where}.k")
    l = _as_int(entry["l"], f"{where}.l")
    if not 1 <= p <= 3:
        raise ConfigError(f"{where}.p must lie in [1, 3]")
    if not 0 <= k <= 5:
        raise ConfigError(f"{where}.k must lie in [0, 5]")
    if not 0 <= l <= k:
        raise ConfigError(f"{where}.l must lie in [0, k]")
    return {"p": p, "k": k, "l": l}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with a stable semantic hash."""

    experiment: str
    system: SystemSpec
    sweep: tuple
    integrator: HFConfig
    quadrature: QuadratureSpec
    seed: int
    orbitals: str
    out_path: str | None
    out_format: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        allowed = {"experiment", "system", "sweep", "integrator", "quadrature",
                   "seed", "orbitals", "output"}
        _require_keys(raw, allowed, {"experiment", "system", "sweep", "seed"},
                      "config")
        experiment = raw["experiment"]
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{experiment}'")
        system = SystemSpec.from_dict(raw["system"])
        sweep_raw = raw["sweep"]
        if not isinstance(sweep_raw, list) or not sweep_raw:
            raise ConfigError("sweep must be a non-empty list")
        sweep = []
        for i, entry in enumerate(sweep_raw):
            if experiment == "graph-count":
                sweep.append(_validate_order_entry(entry, i))
            else:
                sweep.append(_validate_count_time_entry(entry, i, experiment,
                                                        system.d))
        integrator_raw = raw.get("integrator", {})
        _require_keys(integrator_raw, {"dt"}, (), "integrator")
        quadrature_raw = raw.get("quadrature", {})
        _require_keys(quadrature_raw, {"nodes_per_level", "k_max"}, (),
                      "quadrature")
        try:
            integrator = HFConfig(dt=_as_number(integrator_raw.get("dt", 1e-3),
                                                "integrator.dt"))
            quadrature = QuadratureSpec(
                nodes_per_level=_as_int(
                    quadrature_raw.get("nodes_per_level", 6),
                    "quadrature.nodes_per_level"),
                k_max=_as_int(quadrature_raw.get("k_max", 3),
                              "quadrature.k_max"))
        except RangeError as err:
            raise ConfigError(f"invalid numeric settings: {err}") from err
        seed = _as_int(raw["seed"], "seed")
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        orbitals = raw.get("orbitals", "ground")
        if not isinstance(orbitals, str):
            raise ConfigError("orbitals must be a string")
        if orbitals not in ORBITAL_PRESETS:
            raise ConfigError(f"unknown orbital preset '{orbitals}'")
        output_raw = raw.get("output", {})
        _require_keys(output_raw, {"path", "format"}, (), "output")
        out_path = output_raw.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("output.path must be a string")
        out_format = output_raw.get("format", "csv")
        if out_format not in FORMATS:
            raise ConfigError(f"unknown output format '{out_format}'")
        return cls(experiment=experiment, system=system, sweep=tuple(sweep),
                   integrator=integrator, quadrature=quadrature, seed=seed,
                   orbitals=orbitals, out_path=out_path,
                   out_format=out_format)

    def hash_payload(self) -> dict:
        """Semantic content only; output routing does not change results."""
        return {
            "experiment": self.experiment,
            # the one-body and pair kernels are fixed; their names stay in
            # the payload so that every config hash, and with it the tag
            # of every earlier report, keeps its value
            "system": {"d": self.system.d, "coupling": self.system.coupling,
                       "h": "chain", "w": "soft-coulomb"},
            "sweep": list(self.sweep),
            "integrator": {"dt": self.integrator.dt},
            "quadrature": {"nodes_per_level": self.quadrature.nodes_per_level,
                           "k_max": self.quadrature.k_max},
            "seed": self.seed,
            "orbitals": self.orbitals,
        }

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.hash_payload(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:HASH_LENGTH]


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return ExperimentConfig.from_dict(raw)


@dataclass
class ExperimentReport:
    """Ordered data rows plus provenance metadata."""

    experiment: str
    columns: tuple
    rows: list
    metadata: dict

    def to_csv(self) -> str:
        lines = [f"# fermiflow-report {REPORT_VERSION}",
                 f"# experiment: {self.experiment}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}: {self.metadata[key]}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_cell(value) for value in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"version": REPORT_VERSION, "experiment": self.experiment,
                   "metadata": self.metadata, "columns": list(self.columns),
                   "rows": [list(row) for row in self.rows]}
        return json.dumps(payload, indent=2, sort_keys=True,
                          default=_json_value) + "\n"

    def render(self, fmt: str) -> str:
        if fmt not in FORMATS:
            raise ConfigError(f"unknown output format '{fmt}'")
        return self.to_csv() if fmt == "csv" else self.to_json()

    def write(self, path: str, fmt: str):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render(fmt))


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_value(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def ground_mode_projector(system: ModeSystem) -> PSectorOperator:
    """Rank-one observable occupying the lowest one-body eigenmode."""
    _, vecs, _ = system._sector_rotation(1)
    ground = vecs[:, 0]
    return PSectorOperator(system.d, 1,
                           np.outer(ground, ground.conj()).astype(complex))


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = 0.5 * (raw + raw.conj().T)
    return herm / np.linalg.norm(herm, 2)


def _fit_slope(counts, values):
    """Slope of log value against log count over the positive values, and
    the window of counts it fits, such as "2..5"; nan and "none" when
    fewer than two counts remain."""
    pairs = [(n, v) for n, v in zip(counts, values) if v > 0]
    if len(pairs) < 2 or len({n for n, _ in pairs}) < 2:
        return float("nan"), "none"
    ns, vs = zip(*pairs)
    return (float(np.polyfit(np.log(ns), np.log(vs), 1)[0]),
            f"{min(ns)}..{max(ns)}")


def _sweep(cfg: ExperimentConfig, rows_of):
    """The rows ``rows_of(entry, rng, system)`` of every sweep entry in
    order, all drawing from the config's one seeded generator, and each
    entry's wall time. ``system`` is the mode system of the entry's N, or
    None without one; entries with the same mode count share one system,
    and with it its caches, which is dropped after the last of them."""
    rng = default_rng(cfg.seed)
    modes = [cfg.system.modes(e["N"]) if "N" in e else None for e in cfg.sweep]
    last = {d: i for i, d in enumerate(modes)}
    systems: dict = {}
    rows, seconds = [], []
    for i, (entry, d) in enumerate(zip(cfg.sweep, modes)):
        start = perf_counter()
        if d is not None and d not in systems:
            systems[d] = cfg.system.build(entry["N"])
        rows.extend(rows_of(entry, rng, systems.get(d)))
        if last[d] == i:
            systems.pop(d, None)
        seconds.append(round(perf_counter() - start, 3))
    return rows, seconds


def _hf_metadata(flows) -> dict:
    """Report metadata of a run's mean-field flows, given as their (window
    error, sweeps) pairs: the largest error and the total sweeps."""
    errors, sweeps = zip((0.0, 0), *flows)
    return {"hf_integration_error": json.dumps(max(errors)),
            "hf_sweeps": json.dumps(sum(sweeps))}


def _report(cfg: ExperimentConfig, columns, rows, seconds,
            **metadata) -> ExperimentReport:
    """The report of ``rows``, each ending with the config hash, with the
    provenance of the run added to ``metadata``."""
    tag = cfg.config_hash
    metadata.update(
        config=json.dumps(cfg.hash_payload(), sort_keys=True,
                          separators=(",", ":")),
        config_hash=tag,
        generated_utc=datetime.now(timezone.utc).isoformat(),
        wall_time_s=json.dumps(seconds))
    return ExperimentReport(experiment=cfg.experiment,
                            columns=columns + ("config_hash",),
                            rows=[row + (tag,) for row in rows],
                            metadata=metadata)


def run_convergence(cfg: ExperimentConfig,
                    override_time_guard: bool = False) -> ExperimentReport:
    """Trace-norm gap between exact and mean-field marginals over a sweep."""
    errors, hf = [], []

    def rows_of(entry, rng, system):
        n, t, p = entry["N"], entry["t"], entry["p"]
        orbitals = ORBITAL_PRESETS[cfg.orbitals](rng, system, n)
        exact, error = evolved_marginal(orbitals.matrix, system, t, p)
        errors.append(error)
        flow = evolve_hf_orbitals(orbitals, system, [0.0, t] if t else [0.0],
                                  cfg.integrator)
        hf.append((flow.integration_error, flow.sweeps))
        fitted = quasi_free_marginal(flow.final().density(), p)
        return [(n, p, t, trace_norm(exact.mat - fitted.mat), p * p / n)]

    rows, seconds = _sweep(cfg, rows_of)
    slope, window = _fit_slope([r[0] for r in rows], [r[3] for r in rows])
    return _report(cfg, ("N", "p", "t", "trace_norm_gap", "marginal_bound",
                         "fitted_slope"),
                   [row + (slope,) for row in rows], seconds,
                   exact_propagation_error=json.dumps(errors),
                   fitted_slope_window=window, **_hf_metadata(hf))


def run_tree_truncation(cfg: ExperimentConfig,
                        override_time_guard: bool = False) -> ExperimentReport:
    """Partial sums of the loop-free series against the mean-field pairing."""
    hf = []

    def rows_of(entry, rng, system):
        n, t = entry["N"], entry["t"]
        gamma = ORBITAL_PRESETS[cfg.orbitals](rng, system, n).density()
        a = PSectorOperator(system.d, 1, _random_hermitian(rng, system.d))
        series = tree_series(a, gamma, t, cfg.quadrature, system,
                             override_time_guard=override_time_guard)
        gap = hf_vs_tree_gap(a, gamma, system, t, cfg.quadrature,
                             override_time_guard=override_time_guard,
                             config=cfg.integrator)
        hf.append((gap.hf_integration_error, gap.hf_sweeps))
        return [(n, t, order, float(partial.real),
                 float(abs(partial - gap.hf_value)),
                 float(series.quad_errors[order]))
                for order, partial in enumerate(series.partial_sums)]

    rows, seconds = _sweep(cfg, rows_of)
    return _report(cfg, ("N", "t", "K", "partial_sum", "hf_gap",
                         "quad_error"), rows, seconds, **_hf_metadata(hf))


def run_egorov(cfg: ExperimentConfig,
               override_time_guard: bool = False) -> ExperimentReport:
    """Quantisation-vs-flow gap for the ground-mode projector over a sweep."""

    def rows_of(entry, rng, system):
        n, t = entry["N"], entry["t"]
        report = egorov_check(ground_mode_projector(system), system, t, n,
                              cfg.quadrature,
                              override_time_guard=override_time_guard)
        return [(n, t, report.norm_difference, report.tree_tail_estimate,
                 report.quad_error)]

    rows, seconds = _sweep(cfg, rows_of)
    slope, _ = _fit_slope([r[0] for r in rows], [r[2] for r in rows])
    system = cfg.system.build(cfg.sweep[0]["N"])
    kappa = system.kappa
    metadata = ({"t_report": repr(reported_radius(kappa)),
                 "kappa": repr(kappa),
                 "kappa_minus": repr(system.kappa_minus)} if kappa > 0 else {})
    return _report(cfg, ("N", "t", "norm_difference", "slope_fit",
                         "tree_tail_estimate", "quad_error"),
                   [(n, t, diff, slope, tail, quad)
                    for n, t, diff, tail, quad in rows], seconds, **metadata)


def run_conservation(cfg: ExperimentConfig,
                     override_time_guard: bool = False) -> ExperimentReport:
    """Invariant drifts along all three mean-field formulations."""
    cross, hf = [], []

    def rows_of(entry, rng, system):
        n = entry["N"]
        orbitals = ORBITAL_PRESETS[cfg.orbitals](rng, system, n)
        grid = np.linspace(0.0, entry["t"], CONSERVATION_SAMPLES)
        gamma0 = orbitals.density()
        flows = {
            "orbital": evolve_hf_orbitals(orbitals, system, grid,
                                          cfg.integrator),
            "density": evolve_hf_density(gamma0, system, grid,
                                         cfg.integrator),
            "kappa": evolve_kappa(density_root(gamma0), system, grid,
                                  cfg.integrator),
        }
        hf.extend((f.integration_error, f.sweeps) for f in flows.values())
        kappa = flows["kappa"].final()
        cross.append(repr(trace_norm(kappa @ kappa.conj().T
                                     - flows["density"].final())))
        return [(name, float(t), float(abs(traj.energy[i] - traj.energy[0])),
                 float(traj.gram_drift[i]),
                 float(abs(traj.trace[i] - traj.trace[0])),
                 float(traj.spectrum_drift[i]))
                for name, traj in flows.items()
                for i, t in enumerate(traj.times)]

    rows, seconds = _sweep(cfg, rows_of)
    return _report(cfg, ("formulation", "t", "energy_drift", "gram_drift",
                         "trace_drift", "spectrum_drift"), rows, seconds,
                   kappa_vs_density_trace_gap=json.dumps(cross),
                   **_hf_metadata(hf))


def run_graph_count(cfg: ExperimentConfig,
                    override_time_guard: bool = False) -> ExperimentReport:
    """Exhaustive expansion sizes against their combinatorial ceilings."""

    def rows_of(entry, rng, system):
        p, k, l = entry["p"], entry["k"], entry["l"]
        count = count_elementary_terms(p, k, l)
        bound, aux = _term_count_bounds(p, k, l)
        satisfied = count <= bound and (l != 0 or count <= aux)
        return [(p, k, l, count, bound, aux, satisfied)]

    rows, seconds = _sweep(cfg, rows_of)
    return _report(cfg, ("p", "k", "l", "count", "bound", "aux_bound",
                         "satisfied"), rows, seconds)


_RUNNERS = {
    "convergence": run_convergence,
    "tree-truncation": run_tree_truncation,
    "egorov": run_egorov,
    "conservation": run_conservation,
    "graph-count": run_graph_count,
}


_OPENBLAS = []  # the thread-count hook, once looked up


def _openblas_hook():
    """The ``(get, set)`` thread-count functions of the scipy-openblas that
    numpy loaded, or None when it loaded none; looked up on the first run,
    so importing the package and loading a config do not pay for it."""
    if not _OPENBLAS:
        import glob     # here, not at import time: the lookup runs once

        hook = None
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs", "libscipy_openblas*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
            put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                hook = (get, put)
                break
        _OPENBLAS.append(hook)
    return _OPENBLAS[0]


@contextmanager
def _one_blas_thread():
    """Pin BLAS to one thread for the block and yield the count in effect,
    None without a hook; the caller's count is restored on exit.

    After every threaded product an OpenBLAS worker busy-waits for a
    while, so one threaded call in a run costs a second core, and
    desk-scale operands gain little or nothing from it; only tree sweeps
    from about d = 9 run faster on two threads, at more CPU. One thread
    also makes the rows independent of the core count."""
    hook = _openblas_hook()
    if hook is None:
        yield None
        return
    get, put = hook
    before = get()
    put(1)
    try:
        yield get()
    finally:
        put(before)


def run(cfg: ExperimentConfig,
        override_time_guard: bool = False) -> ExperimentReport:
    """Dispatch a validated config to its experiment runner, on one BLAS
    thread; the report's metadata records that count as ``blas_threads``."""
    with _one_blas_thread() as threads:
        report = _RUNNERS[cfg.experiment](cfg, override_time_guard)
    report.metadata["blas_threads"] = json.dumps(threads)
    return report
