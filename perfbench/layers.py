"""The per-layer table: metric definitions and their reduction from spans.

A layer is a package module. ``<module>.<name>.calls`` counts the calls
of one public function or method, and ``.self_s`` sums each call's
duration minus the part of it that its child spans cover (children on
worker threads included). Each row also names the end-to-end metric the
layer metric should move, and on which workload, so a later change can
say beforehand which numbers it expects to move.
"""

from __future__ import annotations

from spans import HF_FLOWS, self_times, union_length

TABLE_BUILDERS = ("sector.sector_basis", "sector.embedding_isometry",
                  "sector.lift_tables", "sector._one_body_tables")
INSERTION_KERNEL = "sector.project_lift_pair_commutator"
SWEEP_MODULES = ("tree", "graded")

# metric names whose span carries the class name
ALIASES = {"modes.free_propagator": "modes.ModeSystem.free_propagator",
           "modes.wmat": "modes.ModeSystem.wmat"}

# (name, unit, better, should move, on workload)
LAYERS = (
    ("modes.free_propagator.calls", "count", "lower", "warm_run_s", "conservation"),
    ("modes.free_propagator.self_s", "s", "lower", "warm_run_s", "conservation"),
    ("modes.wmat.calls", "count", "lower", "warm_run_s", "conservation"),
    ("sector.table_build_s", "s", "lower", "cold_run_s peak_rss_mb", "convergence"),
    ("sector.embedding_isometry.entries", "count", "lower",
     "cold_run_s cpu_s peak_rss_mb", "convergence"),
    ("sector.duplicate_table_builds", "count", "lower",
     "cold_run_s cpu_s peak_rss_mb", "convergence"),
    ("sector.marginal.calls", "count", "lower", "warm_run_s", "convergence"),
    ("sector.marginal.self_s", "s", "lower", "warm_run_s", "convergence"),
    ("sector.compound_matrix.self_s", "s", "lower", "warm_run_s", "convergence"),
    ("sector.max_dim", "count", "lower", "warm_run_s", "convergence"),
    ("sector.project_lift_pair_commutator.calls", "count", "lower",
     "cold_run_s warm_run_s", "tree-truncation egorov"),
    ("sector.project_lift_pair_commutator.self_s", "s", "lower",
     "cold_run_s warm_run_s", "tree-truncation egorov"),
    ("exact.build_hamiltonian.self_s", "s", "lower", "warm_run_s", "convergence"),
    ("exact.evolve_exact.self_s", "s", "lower", "warm_run_s", "convergence"),
    ("exact.second_quantize.calls", "count", "lower", "warm_run_s", "egorov"),
    ("exact.second_quantize.self_s", "s", "lower", "warm_run_s", "egorov"),
    ("hf.evolve_hf_orbitals.self_s", "s", "lower", "warm_run_s", "conservation"),
    ("hf.evolve_hf_density.self_s", "s", "lower", "warm_run_s", "conservation"),
    ("hf.evolve_kappa.self_s", "s", "lower", "warm_run_s", "conservation"),
    ("hf.quasi_free_marginal.self_s", "s", "lower", "warm_run_s", "conservation"),
    ("hf.rk4_steps", "count", "lower", "warm_run_s", "conservation"),
    ("hf.us_per_rk4_step", "us", "lower", "warm_run_s", "conservation"),
    ("tree.insertions", "count", "lower", "cold_run_s cpu_s",
     "tree-truncation egorov"),
    ("tree.useful_insertion_ratio", "ratio", "higher", "cold_run_s cpu_s",
     "tree-truncation"),
    ("tree.sector_propagator.calls", "count", "lower", "cold_run_s", "egorov"),
    ("tree.sector_propagator.self_s", "s", "lower", "cold_run_s", "egorov"),
    ("tree.tree_series.self_s", "s", "lower", "cold_run_s", "tree-truncation"),
    ("tree.hf_vs_tree_gap.self_s", "s", "lower", "cold_run_s", "tree-truncation"),
    ("tree.busy_s", "s", "lower", "cpu_s cold_run_s", "tree-truncation egorov"),
    ("tree.wall_s", "s", "lower", "cpu_s cold_run_s", "tree-truncation egorov"),
    ("tree.concurrency", "ratio", "lower", "cpu_s cold_run_s",
     "tree-truncation egorov"),
    ("tree.wait_s", "s", "lower", "cpu_s cold_run_s", "tree-truncation egorov"),
    ("graded.superflow_observable.calls", "count", "lower", "cold_run_s", "egorov"),
    ("graded.superflow_observable.self_s", "s", "lower", "cold_run_s", "egorov"),
    ("fock.quantise.calls", "count", "lower", "cold_run_s", "egorov"),
    ("fock.quantise.self_s", "s", "lower", "cold_run_s", "egorov"),
    ("fock.FockContext.restrict.self_s", "s", "lower", "cold_run_s", "egorov"),
    ("fock.egorov_check.self_s", "s", "lower", "cold_run_s", "egorov"),
    ("experiments.peak_threads", "count", "lower", "cpu_s",
     "tree-truncation egorov conservation"),
    ("experiments.ExperimentConfig.from_dict.self_s", "s", "lower",
     "setup_s cold_run_s", "all"),
    ("experiments.ExperimentReport.render.self_s", "s", "lower",
     "setup_s cold_run_s", "all"),
    ("cli.main.self_s", "s", "lower", "cold_run_s", "all"),
    # accounting of the traced call itself; no end-to-end metric to move
    ("trace.overhead_s", "s", "lower", "-", "all"),
    ("trace.wall_s", "s", "lower", "-", "all"),
    ("trace.main_self_s", "s", "lower", "-", "all"),
    ("trace.untraced_s", "s", "lower", "-", "all"),
)

NAMES = tuple(row[0] for row in LAYERS)


def needed_insertions(cfg: dict) -> int:
    """Insertions one coarse and one fine simplex sweep per row need."""
    if cfg["experiment"] not in ("tree-truncation", "egorov"):
        return 0
    quad = cfg["quadrature"]
    nodes, k_max = quad["nodes_per_level"], quad["k_max"]
    total = 0
    for entry in cfg["sweep"]:
        d = cfg["system"].get("d") or 2 * entry["N"]
        if entry["t"] > 0 and 1 + k_max <= d:
            total += sum(nodes ** k + (2 * nodes) ** k
                         for k in range(1, k_max + 1))
    return total


def _topmost(spans, by_id, wanted) -> list:
    """Spans in ``wanted`` modules with no such ancestor on their thread."""
    out = []
    for span in spans:
        if span.module not in wanted:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.thread == span.thread \
                and parent.module not in wanted:
            parent = by_id.get(parent.parent)
        if parent is None or parent.thread != span.thread:
            out.append(span)
    return out


def _beneath(span, by_id, modules, memo) -> bool:
    """Whether some ancestor, on any thread, belongs to ``modules``."""
    trail = []
    parent = by_id.get(span.parent)
    found = False
    while parent is not None:
        if parent.sid in memo:
            found = memo[parent.sid]
            break
        if parent.module in modules:
            found = True
            break
        trail.append(parent.sid)
        parent = by_id.get(parent.parent)
    for sid in trail:
        memo[sid] = found
    return found


def layer_metrics(spans, counts: dict, *, wall_s: float, main_thread: int,
                  needed_insertions: int, duplicate_builds: int) -> dict:
    """Reduce the spans of one traced call to every per-layer metric.

    ``counts`` holds the summed work counters the tracer read from call
    arguments and results; ``trace.overhead_s`` is left to the caller,
    which knows the untraced timings.
    """
    by_id = {span.sid: span for span in spans}
    own = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.sid]

    memo: dict = {}
    insertions = sum(1 for span in spans if span.name == INSERTION_KERNEL
                     and _beneath(span, by_id, SWEEP_MODULES, memo))
    steps = counts.get("hf.rk4_steps", 0)
    flow_self = sum(self_s.get(name, 0.0) for name in HF_FLOWS)
    tree = _topmost(spans, by_id, ("tree",))
    busy = sum(span.end - span.start for span in tree)
    tree_wall = union_length((span.start, span.end) for span in tree)

    main = [span for span in spans if span.thread == main_thread]
    main_ids = {span.sid for span in main}
    main_own = self_times([span if span.parent in main_ids
                           else span._replace(parent=None) for span in main])
    roots = [span for span in main if span.parent not in main_ids]

    out = {
        "sector.table_build_s": sum(self_s.get(n, 0.0) for n in TABLE_BUILDERS),
        "sector.embedding_isometry.entries":
            counts.get("sector.embedding_isometry.entries", 0),
        "sector.duplicate_table_builds": duplicate_builds,
        "sector.max_dim": counts.get("sector.max_dim", 0),
        "hf.rk4_steps": steps,
        "hf.us_per_rk4_step": 1e6 * flow_self / steps if steps else 0.0,
        "tree.insertions": insertions,
        "tree.useful_insertion_ratio":
            needed_insertions / insertions if insertions else 1.0,
        "tree.busy_s": busy,
        "tree.wall_s": tree_wall,
        "tree.concurrency": busy / tree_wall if tree_wall > 0 else 0.0,
        "tree.wait_s": busy - sum(span.cpu for span in tree),
        "experiments.peak_threads": max((s.threads for s in spans), default=0),
        "trace.wall_s": wall_s,
        "trace.main_self_s": sum(main_own.values()),
        "trace.untraced_s": wall_s - union_length(
            (span.start, span.end) for span in roots),
    }
    for name in NAMES:
        if name in out or name == "trace.overhead_s":
            continue
        base, kind = name.rsplit(".", 1)
        span_name = ALIASES.get(base, base)
        out[name] = calls.get(span_name, 0) if kind == "calls" \
            else self_s.get(span_name, 0.0)
    return out
