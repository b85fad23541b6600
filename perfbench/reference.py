"""Reference check of a workload's report rows.

``reference/<workload>.json`` holds the data rows the CLI printed for the
workload at ``workloads.DEFAULT_SEED`` at the commit that defined this
benchmark, together with the role of every column and the tolerances:

- ``keys`` (sweep coordinates, labels) must equal the reference on every
  seed, so a dropped or reordered row is caught;
- ``values`` (gaps, partial sums, norm differences, fitted slopes) must be
  finite, and within ``atol + rtol * |reference|`` of the reference at the
  default seed; the ``seed_free`` ones, which the seed does not change
  (bounds computed from N and p, every egorov value), at every seed;
- ``relations`` hold between columns on every seed: ``at_most`` pairs
  (a gap below its bound), ``same_in_every_row`` (one fitted slope per
  report) and ``distance_to_one_target`` (distances from each value to one
  target per group, so two distances differ by at most the two values do);
- ``ceilings`` (quadrature errors, tail estimates, drifts) are estimates
  that later numerics may change on purpose, so they are only required
  to be finite and at most the ceiling. ``nan_unless`` names a
  (column, label) pair: the column is NaN by design on rows whose column
  has another label, such as ``gram_drift`` outside the orbital flow;
- ``config_hash`` must equal the hash of the config that was run.

A row that cannot be read (too few cells, a cell that is not a number) is
reported as a problem like any other, so its call counts as failed.
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def load(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _close(value: float, expected: float, rtol: float, atol: float) -> bool:
    return abs(value - expected) <= atol + rtol * abs(expected)


def _row_problems(row, expected, col, ref, compare_values, config_hash):
    problems = []
    for name in ref["keys"]:
        if row[col[name]] != expected[col[name]]:
            problems.append(f"{name}={row[col[name]]}, "
                            f"reference {expected[col[name]]}")
    seed_free = ref.get("seed_free", ())
    for name in ref["values"]:
        value = float(row[col[name]])
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
        elif (compare_values or name in seed_free) and not _close(
                value, float(expected[col[name]]), ref["rtol"], ref["atol"]):
            problems.append(f"{name}={value!r}, reference "
                            f"{expected[col[name]]}")
    nan_unless = ref.get("nan_unless", {})
    for name, ceiling in ref["ceilings"].items():
        value = float(row[col[name]])
        if name in nan_unless:
            label, wanted = nan_unless[name]
            if row[col[label]] != wanted:
                if not math.isnan(value):
                    problems.append(f"{name}={value!r}, expected nan")
                continue
        if not (math.isfinite(value) and value <= ceiling):
            problems.append(f"{name}={value!r} above ceiling {ceiling!r}")
    for low, high in ref.get("relations", {}).get("at_most", ()):
        if not float(row[col[low]]) <= float(row[col[high]]):
            problems.append(f"{low}={row[col[low]]} above "
                            f"{high}={row[col[high]]}")
    if row[col["config_hash"]] != config_hash:
        problems.append(f"config_hash {row[col['config_hash']]}, "
                        f"expected {config_hash}")
    return problems


def _report_problems(body, col, ref) -> list:
    """Relations between rows of one report."""
    relations = ref.get("relations", {})
    problems = []
    for name in relations.get("same_in_every_row", ()):
        if len({row[col[name]] for row in body}) > 1:
            problems.append(f"{name} differs between rows")
    for rel in relations.get("distance_to_one_target", ()):
        groups: dict = {}
        for row in body:
            groups.setdefault(row[col[rel["group"]]], []).append(
                (float(row[col[rel["value"]]]),
                 float(row[col[rel["distance"]]])))
        for key, pairs in groups.items():
            slack = ref["atol"] + ref["rtol"] * max(abs(d) for _, d in pairs)
            (v0, d0), *rest = pairs
            for value, dist in rest:
                if abs(dist - d0) > abs(value - v0) + slack:
                    problems.append(f"{rel['group']}={key}: {rel['distance']} "
                                    f"moves by more than {rel['value']}")
                    break
    return problems


def check(rows: list, ref: dict, *, seed: int, config_hash: str) -> list:
    """Problems found in ``rows`` (header first, as CSV lines); [] if none."""
    header, body = rows[0].split(","), [r.split(",") for r in rows[1:]]
    expected_header = ref["columns"]
    if header != expected_header:
        return [f"columns {header} differ from {expected_header}"]
    if len(body) != len(ref["rows"]):
        return [f"{len(body)} rows, reference has {len(ref['rows'])}"]
    col = {name: i for i, name in enumerate(header)}
    compare_values = seed == ref["seed"]
    problems = []
    for r, (row, expected) in enumerate(zip(body, ref["rows"])):
        if len(row) != len(header):
            problems.append(f"row {r} has {len(row)} cells, "
                            f"expected {len(header)}")
            continue
        try:
            found = _row_problems(row, expected, col, ref, compare_values,
                                  config_hash)
        except ValueError as err:
            found = [f"unreadable: {err}"]
        problems.extend(f"row {r} {p}" for p in found)
    if not problems:
        try:
            problems = _report_problems(body, col, ref)
        except ValueError as err:
            problems = [f"unreadable: {err}"]
    return problems
