#!/usr/bin/env python3
"""Summarize or compare result files written by ``run.py --out``.

    python3 perfbench/compare.py RESULTS.jsonl              # one side
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl  # verdicts

Records are grouped by workload and trace mode. For each metric the
median and quartiles over runs are printed (quartiles as
``statistics.quantiles(values, n=4)`` gives them). With one file the
spread (quartile distance over median) is shown next to a third of the
metric's bound from BENCHMARK.json. Artifact hashes of runs with the same
workload and seed are compared too. With two files each metric gets a
verdict for the second side against the first:

  worse       the median is worse by more than the bound (metrics with
              no bound: by more than either side's quartile distance);
  improved    the median is better by more than both sides' quartile
              distances;
  unresolved  a bounded metric whose spread on either side exceeds its
              bound, unless every run of the second side is better than
              every run of the first;
  unchanged   otherwise.

Exit code 1 when any end-to-end metric is worse, or, with one file, when
an artifact hash differs between runs of the same seed; else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_specs() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: m for m in spec["per_layer"]}
    out.update({m["name"]: m for m in spec["end_to_end"]})
    return out


def load_records(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def group(records) -> dict:
    """(workload, trace) -> metric -> list of values, in file order."""
    groups: dict = {}
    for rec in records:
        g = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, value in rec["metrics"].items():
            g.setdefault(name, []).append(float(value))
    return groups


def hash_differences(records) -> list[str]:
    """Ops whose artifact hash differs between runs of the same seed."""
    seen: dict = {}
    out = []
    for rec in records:
        for op, digest in rec["sha256"].items():
            key = (rec["workload"], rec["seed"], op)
            if seen.setdefault(key, digest) != digest:
                out.append("artifact hash differs between runs: "
                           f"{key[0]} seed {key[1]} {op}")
    return out


def stats(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(base, change, better, bound) -> str:
    mb, qb1, qb3 = stats(base)
    mc, qc1, qc3 = stats(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mc - mb)
    iqr_b, iqr_c = qb3 - qb1, qc3 - qc1
    if bound is not None:
        if worse_by > bound * abs(mb):
            return "worse"
    elif worse_by > max(iqr_b, iqr_c):
        return "worse"
    if -worse_by > max(iqr_b, iqr_c):
        return "improved"
    if bound is not None and (iqr_b > bound * abs(mb)
                              or iqr_c > bound * abs(mc)):
        if all(sign * c < sign * b for c in change for b in base):
            return "improved"
        return "unresolved"
    return "unchanged"


def fmt(v: float) -> str:
    return f"{v:.6g}"


def summarize(groups, specs) -> int:
    print(f"{'workload':16s} {'metric':32s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for (workload, trace), metrics in sorted(groups.items()):
        for name, values in metrics.items():
            med, q1, q3 = stats(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = specs.get(name, {}).get("bound")
            third = f"{bound / 3:8.3f}" if bound is not None else " " * 8
            print(f"{workload:16s} {name:32s} {len(values):3d} "
                  f"{fmt(med):>12s} {fmt(q1):>12s} {fmt(q3):>12s} "
                  f"{spread:8.3f} {third}")
    return 0


def compare(base, change, specs) -> int:
    worse = 0
    print(f"{'workload':16s} {'metric':32s} {'base median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} verdict")
    for key in sorted(set(base) & set(change)):
        workload = key[0]
        for name in base[key]:
            if name not in change[key]:
                continue
            spec = specs.get(name, {"better": "lower"})
            v = verdict(base[key][name], change[key][name], spec["better"],
                        spec.get("bound"))
            worse += v == "worse" and "bound" in spec
            cells = []
            for values in (base[key][name], change[key][name]):
                med, q1, q3 = stats(values)
                cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
            print(f"{workload:16s} {name:32s} {cells[0]:>36s} "
                  f"{cells[1]:>36s} {v}")
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    specs = load_specs()
    records = [load_records(p) for p in argv[1:]]
    differ = hash_differences(records[0])
    for line in differ:
        print(line)
    if len(records) == 1:
        return summarize(group(records[0]), specs) or int(bool(differ))
    for line in hash_differences(records[0] + records[1]):
        if line not in differ:
            print(line.replace("runs", "the two sides"))
    return compare(group(records[0]), group(records[1]), specs)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
