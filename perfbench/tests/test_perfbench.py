"""Self-tests of the benchmark harness: self time, reference check, failures."""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import child
import layers
import reference
import run
import workloads
from spans import Span, Tracer, self_times, summed_counts

MAIN, WORKER_A, WORKER_B = 1, 2, 3
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def span(sid, name, parent, thread, start, end, cpu=0.0):
    return Span(sid, name, parent, thread, 0, start, end, cpu, 1)


def synthetic_tree():
    """A main-thread call that hands two tasks to worker threads.

    main: 1 tree.tree_series [0, 10] with child 2 tree.free_evolve_op [1, 3]
    worker A: task 3 [2, 6] (parent 1) with child 5 sector kernel [3, 4]
    worker B: task 4 [5, 8] (parent 1)
    """
    return [
        span(1, "tree.tree_series", None, MAIN, 0.0, 10.0, cpu=4.0),
        span(2, "tree.free_evolve_op", 1, MAIN, 1.0, 3.0, cpu=2.0),
        span(3, "tree.pool_task", 1, WORKER_A, 2.0, 6.0, cpu=3.0),
        span(4, "tree.pool_task", 1, WORKER_B, 5.0, 8.0, cpu=1.0),
        span(5, layers.INSERTION_KERNEL, 3, WORKER_A, 3.0, 4.0, cpu=1.0),
    ]


def test_self_time_subtracts_children_on_every_thread():
    own = self_times(synthetic_tree())
    # children of span 1 cover [1, 8]: the two worker tasks overlap the
    # main-thread child and each other, and are counted once
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 3.0, 5: 1.0})


def test_layer_metrics_on_synthetic_tree():
    table = layers.layer_metrics(synthetic_tree(), {}, wall_s=10.5,
                                 main_thread=MAIN, needed_insertions=1,
                                 duplicate_builds=0)
    assert table["tree.insertions"] == 1
    assert table["tree.useful_insertion_ratio"] == 1.0
    assert table["tree.tree_series.self_s"] == pytest.approx(3.0)
    # busy: [0, 10] on main, [2, 6] on A, [5, 8] on B
    assert table["tree.busy_s"] == pytest.approx(17.0)
    assert table["tree.wall_s"] == pytest.approx(10.0)
    assert table["tree.concurrency"] == pytest.approx(1.7)
    assert table["tree.wait_s"] == pytest.approx(17.0 - 8.0)
    # main thread: own self times of spans 1 and 2 cover the root span
    assert table["trace.main_self_s"] == pytest.approx(10.0)
    assert table["trace.untraced_s"] == pytest.approx(0.5)


def test_tracer_carries_parent_into_pool_workers():
    tracer = Tracer()
    inner = tracer.wrap("tree.inner", lambda x: x * x)

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return sum(pool.map(inner, range(n)))

    outer = tracer.wrap("tree.outer", fan_out)
    original_submit = ThreadPoolExecutor.submit
    tracer._wrap_submit()
    try:
        assert outer(4) == 14
    finally:
        tracer.uninstall()
    spans = {s.sid: s for s in tracer.spans}
    (root,) = [s for s in spans.values() if s.name == "tree.outer"]
    tasks = [s for s in spans.values() if s.name.endswith(".pool_task")]
    assert len(tasks) == 4 and all(t.parent == root.sid for t in tasks)
    for s in spans.values():
        if s.name == "tree.inner":
            assert spans[s.parent].name.endswith(".pool_task")
            assert s.thread != threading.get_ident()
    assert ThreadPoolExecutor.submit is original_submit


def test_installed_tracer_counts_tree_insertions_and_restores_package():
    from fermiflow import sector, tree
    from fermiflow.experiments import ExperimentConfig, run as run_config

    original = tree.sector_propagator
    raw = workloads.config("tree-truncation", 3)
    raw["sweep"] = [{"N": 2, "t": 0.1}]
    raw["quadrature"] = {"nodes_per_level": 2, "k_max": 2}
    cfg = ExperimentConfig.from_dict(raw)
    tracer = Tracer()
    tracer.install()
    try:
        run_config(cfg, override_time_guard=True)
    finally:
        tracer.uninstall()
    assert tree.sector_propagator is original
    assert sector.project_lift_pair_commutator.__name__ == \
        "project_lift_pair_commutator"
    table = layers.layer_metrics(
        tracer.spans, summed_counts(tracer.counts), wall_s=1.0,
        main_thread=threading.get_ident(),
        needed_insertions=layers.needed_insertions(raw), duplicate_builds=0)
    # (2 + 4) coarse and (4 + 16) fine insertions per series; the row
    # computes its series twice
    assert table["tree.insertions"] == 2 * (2 + 4 + 4 + 16)
    assert table["tree.useful_insertion_ratio"] == 0.5
    assert table["hf.rk4_steps"] == 100


def _csv(ref, body):
    return [",".join(ref["columns"])] + [",".join(r) for r in body]


def test_reference_comparator_flags_a_perturbed_row():
    ref = reference.load("convergence")
    seed, chash = ref["seed"], ref["config_hash"]
    assert reference.check(_csv(ref, ref["rows"]), ref, seed=seed,
                           config_hash=chash) == []

    perturbed = [r[:] for r in ref["rows"]]
    col = ref["columns"].index("trace_norm_gap")
    perturbed[1][col] = repr(float(perturbed[1][col]) * (1 + 1e-6))
    problems = reference.check(_csv(ref, perturbed), ref, seed=seed,
                               config_hash=chash)
    assert len(problems) == 1 and "row 1 trace_norm_gap" in problems[0]
    # another seed has other gaps: the gap is not compared there ...
    assert reference.check(_csv(ref, perturbed), ref, seed=seed + 1,
                           config_hash=chash) == []
    # ... but it must stay below the bound, which the seed does not change
    perturbed[1][col] = "0.9"
    problems = reference.check(_csv(ref, perturbed), ref, seed=seed + 1,
                               config_hash=chash)
    assert problems == ["row 1 trace_norm_gap=0.9 above marginal_bound=0.8"]
    bound = ref["columns"].index("marginal_bound")
    perturbed[1][bound] = "0.95"
    problems = reference.check(_csv(ref, perturbed), ref, seed=seed + 1,
                               config_hash=chash)
    assert len(problems) == 1 and "row 1 marginal_bound" in problems[0]


def test_seed_free_values_and_ceilings_apply_on_every_seed():
    ref = reference.load("egorov")
    other_seed, chash = ref["seed"] + 1, ref["config_hash"]
    perturbed = [r[:] for r in ref["rows"]]
    col = ref["columns"].index("norm_difference")
    perturbed[1][col] = repr(float(perturbed[1][col]) * (1 + 1e-6))
    problems = reference.check(_csv(ref, perturbed), ref, seed=other_seed,
                               config_hash=chash)
    assert len(problems) == 1 and "row 1 norm_difference" in problems[0]

    perturbed = [r[:] for r in ref["rows"]]
    perturbed[0][ref["columns"].index("quad_error")] = "1e-3"
    problems = reference.check(_csv(ref, perturbed), ref, seed=other_seed,
                               config_hash=chash)
    assert len(problems) == 1 and "above ceiling" in problems[0]

def test_one_fitted_slope_per_report_on_every_seed():
    ref = reference.load("convergence")
    perturbed = [r[:] for r in ref["rows"]]
    perturbed[0][ref["columns"].index("fitted_slope")] = "-1.5"
    problems = reference.check(_csv(ref, perturbed), ref,
                               seed=ref["seed"] + 1,
                               config_hash=ref["config_hash"])
    assert problems == ["fitted_slope differs between rows"]


def test_tree_gap_cannot_move_more_than_the_partial_sums():
    ref = reference.load("tree-truncation")
    other_seed, chash = ref["seed"] + 1, ref["config_hash"]
    assert reference.check(_csv(ref, ref["rows"]), ref, seed=other_seed,
                           config_hash=chash) == []
    perturbed = [r[:] for r in ref["rows"]]
    gap = ref["columns"].index("hf_gap")
    perturbed[-1][gap] = repr(float(perturbed[-1][gap]) + 0.5)
    problems = reference.check(_csv(ref, perturbed), ref, seed=other_seed,
                               config_hash=chash)
    assert len(problems) == 1 and "hf_gap moves by more than" in problems[0]


@pytest.mark.parametrize("cell", ["", "fast", None])
def test_unreadable_row_is_a_problem_not_an_exception(cell):
    ref = reference.load("convergence")
    broken = [r[:] for r in ref["rows"]]
    if cell is None:
        broken[2] = broken[2][:3]
    else:
        broken[2][ref["columns"].index("fitted_slope")] = cell
    problems = reference.check(_csv(ref, broken), ref, seed=ref["seed"] + 1,
                               config_hash=ref["config_hash"])
    assert len(problems) == 1 and problems[0].startswith("row 2 ")


def test_conservation_reference_allows_nan_gram_drift_off_orbital_rows():
    ref = reference.load("conservation")
    assert reference.check(_csv(ref, ref["rows"]), ref, seed=ref["seed"],
                           config_hash=ref["config_hash"]) == []
    gram = ref["columns"].index("gram_drift")
    label = ref["columns"].index("formulation")
    broken = [r[:] for r in ref["rows"]]
    first = next(i for i, r in enumerate(broken) if r[label] == "orbital")
    broken[first][gram] = "nan"
    assert reference.check(_csv(ref, broken), ref, seed=ref["seed"],
                           config_hash=ref["config_hash"])


@pytest.mark.parametrize("code", [2, 3])
def test_error_rate_counts_a_call_that_exits_nonzero(tmp_path, code):
    out = str(tmp_path / "report.csv")

    def fake_main(argv):
        with open(out, "w", encoding="utf-8") as handle:
            handle.write("# meta\nN,x\n1,2.0\n")
        return 0

    calls = [child.timed_call(fake_main, [], out),
             child.timed_call(lambda argv: code, [], out),
             child.timed_call(fake_main, [], out)]
    child.mark_failures(calls)
    attempted, failed, reasons = run.tally([{"calls": calls}])
    assert (attempted, failed) == (3, 1)
    assert reasons == [f"exit code {code}"]


def test_error_rate_counts_exceptions_and_changed_rows(tmp_path):
    out = str(tmp_path / "report.csv")
    values = iter(["1.0", "1.5"])

    def drifting_main(argv):
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(f"N,x\n1,{next(values)}\n")
        return 0

    def raising_main(argv):
        raise ArithmeticError("diverged")

    calls = [child.timed_call(drifting_main, [], out),
             child.timed_call(drifting_main, [], out),
             child.timed_call(raising_main, [], out)]
    child.mark_failures(calls)
    assert calls[0]["failure"] is None
    assert "differ" in calls[1]["failure"]
    assert "ArithmeticError" in calls[2]["failure"]


def test_child_started_after_the_deadline_counts_as_failed(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path), str(tmp_path / "cfg.json"),
                        deadline=time.monotonic() - 1.0)
    died = runner.child()
    assert "died" in died
    attempted, failed, _ = run.tally([died])
    assert (attempted, failed) == (1, 1)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100)))[0] == 90
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [row[:3] for row in layers.LAYERS]
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
