"""One fresh benchmark process: set up, then run the CLI cold and warm.

Usage: python3 perfbench/child.py CONFIG RESULT [--trace SPANS] [--setup-only]

The process imports ``fermiflow`` and loads CONFIG (the timed set-up),
then calls ``fermiflow.cli.main(["run", CONFIG, "--out", ...,
"--override-time-guard"])`` once with every table cache empty and
``WARM_CALLS`` more times warm. With ``--trace`` only the cold call runs,
under the span tracer, and the per-layer table plus the raw spans are
written out.
The measurements go to RESULT as JSON; nothing is printed.
"""

import argparse
import json
import os
import resource
import sys
import threading
import traceback
from time import perf_counter

WARM_CALLS = 1


def data_rows(path: str) -> list:
    """The CSV header and data rows of a report, without ``#`` metadata."""
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle
                if line.strip() and not line.startswith("#")]


def cpu_seconds() -> float:
    """User plus system CPU of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_call(main, argv: list, out_path: str) -> dict:
    """Run ``main(argv)`` once; record time, CPU, exit code and rows."""
    if os.path.exists(out_path):
        os.remove(out_path)
    error = None
    cpu0 = cpu_seconds()
    start = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # every escaping error counts as a failed call
        code, error = None, traceback.format_exc()
    seconds = perf_counter() - start
    cpu = cpu_seconds() - cpu0
    rows = data_rows(out_path) if code == 0 and os.path.exists(out_path) \
        else None
    return {"exit_code": code, "error": error, "seconds": seconds,
            "cpu_s": cpu, "rows": rows}


def failure(call: dict, previous_rows) -> str | None:
    """Why a call counts as failed, or ``None`` when it did not."""
    if call["error"] is not None:
        return "exception: " + call["error"].strip().splitlines()[-1]
    if call["exit_code"] != 0:
        return f"exit code {call['exit_code']}"
    if call["rows"] is None:
        return "no report written"
    if previous_rows is not None and call["rows"] != previous_rows:
        return "data rows differ from the previous call in this process"
    return None


def mark_failures(calls: list) -> None:
    """Set each call's ``failure``, comparing rows with the call before."""
    previous = None
    for call in calls:
        call["failure"] = failure(call, previous)
        if call["rows"] is not None:
            previous = call["rows"]


def _table_caches(sector) -> dict:
    return {name: getattr(sector, name) for name, obj in vars(sector).items()
            if hasattr(obj, "cache_info")}


def _traced_cold_call(cli, argv, out_path, config: dict):
    from fermiflow import sector

    import layers
    import spans

    tracer = spans.Tracer()
    before = {name: fn.cache_info() for name, fn in _table_caches(sector).items()}
    tracer.install()
    try:
        call = timed_call(cli.main, argv, out_path)
    finally:
        tracer.uninstall()
    after = {name: fn.cache_info() for name, fn in _table_caches(sector).items()}
    duplicates = sum((after[n].misses - before[n].misses)
                     - (after[n].currsize - before[n].currsize) for n in after)
    table = layers.layer_metrics(
        tracer.spans, spans.summed_counts(tracer.counts),
        wall_s=call["seconds"], main_thread=threading.main_thread().ident,
        needed_insertions=layers.needed_insertions(config),
        duplicate_builds=duplicates)
    return call, table, tracer.records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    import fermiflow
    from fermiflow import cli
    from fermiflow.experiments import load_config
    cfg = load_config(args.config)
    result = {"setup_s": perf_counter() - start,
              "config_hash": cfg.config_hash,
              "package": os.path.abspath(fermiflow.__file__)}

    if not args.setup_only:
        out_path = os.path.splitext(args.result)[0] + ".csv"
        call_argv = ["run", args.config, "--out", out_path,
                     "--override-time-guard"]
        if args.trace:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
            call, table, records = _traced_cold_call(
                cli, call_argv, out_path, config)
            calls = [call]
            result["layers"] = table
            with open(args.trace, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        else:
            calls = [timed_call(cli.main, call_argv, out_path)
                     for _ in range(1 + WARM_CALLS)]
        mark_failures(calls)
        result["calls"] = calls
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
