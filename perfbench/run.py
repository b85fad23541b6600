"""fermiflow benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 30 --trace 0

A closed loop with one client: the driver starts one fresh child process
at a time (``child.py``) and each starts only after the previous one has
ended. Each child imports the package from ``src/`` and loads the
workload config (``setup_s``), calls ``fermiflow.cli.main(["run", ...])``
once with every table cache empty (``cold_run_s``, ``cpu_s``) and then
``child.WARM_CALLS`` more times (``warm_run_s``), and reports its peak
resident set (``peak_rss_mb``). Children are started until ``--seconds``
have been spent, after one unmeasured child that only imports, to fill the
bytecode and file caches. A child still running ``MARGIN_S`` seconds after
that is stopped and counted as failed. No thread environment variable is set: the program's
pools and the BLAS threads are part of what is measured.

With ``--trace 1`` ``TRACED_CHILDREN`` more children each run the cold
call under the span tracer, and the per-metric median of their layer
tables is reported instead of the end-to-end metrics. Every call's data rows are checked against the committed
reference and against the previous call in the same process; a call that
fails either check, exits non-zero or raises counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import layers
import reference
import workloads
from child import WARM_CALLS

HERE = os.path.dirname(os.path.abspath(__file__))
MARGIN_S = 120.0         # for the warm-up and traced children
TRACED_CHILDREN = 3
STANDARD_PERCENTILES = (50, 90, 95, 99, 99.9)
END_TO_END = (("setup_s", "s"), ("cold_run_s", "s"), ("warm_run_s", "s"),
              ("cpu_s", "CPU-s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(values):
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in STANDARD_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return None
    ordered = sorted(values)
    rank = min(n - 1, max(0, int(round(best / 100 * (n - 1)))))
    return best, ordered[rank]


def tally(children: list) -> tuple:
    """(attempted, failed, reasons) over every CLI call of every child."""
    attempted = failed = 0
    reasons = []
    for child in children:
        for call in child["calls"]:
            attempted += 1
            if call["failure"] is not None:
                failed += 1
                reasons.append(call["failure"])
    return attempted, failed, reasons


class Runner:
    """Starts children one at a time inside one checkout."""

    def __init__(self, root: str, work: str, config_path: str, deadline: float):
        self.root = root
        self.work = work
        self.config_path = config_path
        self.deadline = deadline
        self.count = 0
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        self.package = os.path.join(src, "fermiflow", "__init__.py")

    def child(self, *extra) -> dict:
        self.count += 1
        result = os.path.join(self.work, f"child{self.count}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                self.config_path, result, *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return _died("out of time before the child started")
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            return _died("child timed out")
        if proc.returncode != 0 or not os.path.exists(result):
            return _died(f"child exited with {proc.returncode}")
        with open(result, encoding="utf-8") as handle:
            out = json.load(handle)
        if os.path.abspath(out["package"]) != os.path.abspath(self.package):
            raise BenchError(f"child imported {out['package']}, "
                             f"not {self.package}")
        return out


def _died(reason: str) -> dict:
    """A child that produced no result: its cold call counts as failed."""
    return {"died": reason, "calls": [{"failure": reason, "rows": None}]}


def check_rows(children, ref, seed, config_hash) -> None:
    """Turn a reference mismatch of a call's rows into a call failure."""
    for child in children:
        for call in child["calls"]:
            if call["failure"] is None and call["rows"] is not None:
                problems = reference.check(call["rows"], ref, seed=seed,
                                           config_hash=config_hash)
                if problems:
                    call["failure"] = "reference: " + "; ".join(problems[:3])


def environment(root: str, seed: int, config_hash: str) -> dict:
    """Where and with what the numbers were taken."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        numpy.__file__)), "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            threads = getter()
    return {"git_sha": git_sha(root), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "seed": seed,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "config_hash": config_hash}


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_samples(children: list) -> dict:
    """Every end-to-end metric's samples over the measured children."""
    out = {name: [] for name, _ in END_TO_END}
    for child in children:
        cold, *warm = child["calls"]
        out["setup_s"].append(child["setup_s"])
        out["cold_run_s"].append(cold["seconds"])
        out["warm_run_s"].extend(call["seconds"] for call in warm)
        out["cpu_s"].append(cold["cpu_s"])
        out["peak_rss_mb"].append(child["peak_rss_mb"])
    return out


def summarize(samples: dict) -> dict:
    out = {}
    for name, unit in END_TO_END:
        values = samples[name]
        out[name] = {"median": statistics.median(values), "n": len(values),
                     "tail": tail_percentile(values), "unit": unit}
    return out


def layer_medians(tables: list) -> dict:
    """Each per-layer metric's median over the traced children.

    Counts are the same in every traced child; times and ratios vary.
    """
    return {name: statistics.median(table[name] for table in tables)
            for name in tables[0]}


def measure(args, root: str) -> int:
    if not os.path.isfile(os.path.join(root, "src", "fermiflow", "__init__.py")):
        raise BenchError("run from the root of a fermiflow checkout "
                         "(src/fermiflow/ not found)")
    started = time.monotonic()
    work = os.path.join(root, ".perfbench",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = workloads.write_config(args.workload, args.seed, work)
    ref = reference.load(args.workload)
    runner = Runner(root, work, config_path,
                    started + args.seconds + MARGIN_S)

    # warms the bytecode and page caches; its set-up time is not kept
    first = runner.child("--setup-only")
    if "died" in first:
        raise BenchError(f"the package does not import: {first['died']}")
    config_hash = first["config_hash"]

    children = []
    loop_start = time.monotonic()
    while True:
        children.append(runner.child())
        elapsed = time.monotonic() - loop_start
        if elapsed + elapsed / len(children) > args.seconds:
            break
    traced = [runner.child("--trace", os.path.join(work, f"spans{k}.jsonl"))
              for k in range(1, TRACED_CHILDREN + 1)] if args.trace else []

    measured = [c for c in children if "died" not in c]
    everything = children + traced
    check_rows(everything, ref, args.seed, config_hash)
    attempted, failed, reasons = tally(everything)
    if not measured:
        raise BenchError("no child completed: " + "; ".join(reasons[:3]))

    samples = child_samples(measured)
    summary = summarize(samples)
    env = environment(root, args.seed, config_hash)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"children {len(children)} x (1 cold + {WARM_CALLS} warm); "
          "closed loop, one client")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{'metric':<14}{'median':>12}{'tail':>20}{'n':>5}  unit")
    for name, row in summary.items():
        tail = f"p{row['tail'][0]:g}={row['tail'][1]:.4f}" if row["tail"] \
            else "-"
        print(f"{name:<14}{row['median']:>12.4f}{tail:>20}{row['n']:>5}  "
              f"{row['unit']}")
    print(f"{'error_rate':<14}{failed / attempted:>12.4f}"
          f"{f'{failed}/{attempted}':>20}{attempted:>5}  failed/attempted")
    for reason in reasons[:5]:
        print(f"  failed: {reason}")

    if args.trace:
        died = [c["died"] for c in traced if "died" in c]
        if died:
            raise BenchError(f"traced child failed: {died[0]}")
        table = layer_medians([c["layers"] for c in traced])
        table["trace.overhead_s"] = (table["trace.wall_s"]
                                     - summary["cold_run_s"]["median"])
        print(f"\nlayer table (median of {len(traced)} traced cold calls; "
              f"spans in {work}/spans*.jsonl)")
        print(f"{'metric':<48}{'value':>14}  {'unit':<6}{'moves':<30}workload")
        for name, unit, _, moves, where in layers.LAYERS:
            print(f"{name:<48}{table[name]:>14.6g}  {unit:<6}{moves:<30}{where}")
        metrics = {name: {"value": table[name], "unit": unit}
                   for name, unit, *_ in layers.LAYERS}
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}

    record = {"workload": args.workload, "environment": env,
              "samples": samples, "attempted": attempted, "failed": failed,
              "failures": reasons, "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fermiflow benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return measure(args, os.getcwd())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
