#!/usr/bin/env python3
"""Closed-loop benchmark of the hier-risk command line.

    python3 perfbench/run.py --workload wide-crm --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
One client in this process runs the workload's fixed sequence of
``python -m hier_risk <subcommand>`` ops as a closed loop: each op starts
only after the previous one has exited, and passes over the sequence
repeat until ``--seconds`` have been spent. The inputs are generated from
``--seed`` by separate processes before timing starts, every artifact is
hashed, and a separate checker process (``check.py``) compares them with
references it computes itself.

This process imports no numpy and holds no workload data. A child's
``ru_maxrss`` from ``os.wait4`` includes what its parent had resident
when it forked, so keeping this launcher lean is what makes
``peak_rss_mb`` the op's own.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every op
twice per pass, once as above and once in process under ``trace_op.py``,
and prints the per-layer metrics. The last line of stdout is one JSON
object; ``--out FILE`` also appends a fuller record to FILE (JSON lines)
for ``compare.py``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

K_LIST = "1,5,20"
VAL_SEED_OFFSET = 1_000_003

# Each workload is a synthetic input shape plus the ops run on it per
# pass. README.md says why each was chosen.
WORKLOADS = {
    "wide-crm": {
        "sim": {"classes": 1024, "concentration": 0.3,
                "tree-mode": "random-attachment"},
        # The random tree is drawn once (seed 1: 2083 nodes, height 20),
        # so seeds vary the rows but not the LCA table's cost.
        "tree_seed": 1,
        "n": 250, "val_n": 0, "basis": "crm",
        "ops": ("build-costs", "eval"),
    },
    "tall-calibrate": {
        "sim": {"classes": 32, "concentration": 0.05,
                "truth-mode": "corrupted", "corrupt-rho": 0.2,
                "tree-mode": "balanced-binary"},
        "n": 20000, "val_n": 5000, "basis": "likelihood",
        "ops": ("eval", "calibrate"),
    },
    "simulate-ablate": {
        "sim": {"classes": 256, "concentration": 0.3,
                "tree-mode": "balanced-binary"},
        "n": 2000, "val_n": 0, "basis": "crm",
        "ops": ("simulate", "shuffle-eval"),
    },
}

OP_METRIC = {op: op.replace("-", "_") + "_s"
             for op in ("build-costs", "eval", "calibrate", "simulate",
                        "shuffle-eval")}

# Span name (as recorded by trace_op.py) behind each per-layer time.
SPAN_METRICS = {
    "taxonomy.parse_s": "taxonomy.parse",
    "taxonomy.lca_s": "taxonomy.lca",
    "taxonomy.shuffle_s": "taxonomy.shuffle",
    "dataio.load_predictions_s": "dataio.load_predictions",
    "dataio.save_predictions_s": "dataio.save_predictions",
    "dataio.cost_csv_s": "dataio.cost_csv",
    "dataio.report_json_s": "dataio.report_json",
    "predictions.validate_s": "predictions.validate",
    "riskmin.build_cost_matrix_s": "riskmin.build_cost_matrix",
    "riskmin.rank_s": "riskmin.rank",
    "riskmin.crm_top1_s": "riskmin.crm_top1",
    "metrics.full_report_s": "metrics.full_report",
    "calibration.fit_temperature_s": "calibration.fit_temperature",
    "calibration.apply_temperature_s": "calibration.apply_temperature",
    "calibration.bin_s": "calibration.bin",
    "synth.gen_taxonomy_s": "synth.gen_taxonomy",
    "synth.gen_predictions_s": "synth.gen_predictions",
    "cli.main_s": "cli.main",
}

SUMMED_COUNTS = ("dataio.bytes_read", "dataio.bytes_written",
                 "predictions.rows_renormalized",
                 "predictions.rows_validated",
                 "riskmin.kernel_flops_computed",
                 "riskmin.kernel_bytes_computed", "riskmin.kernel_rows",
                 "riskmin.fastpath_rows", "riskmin.top1_flips",
                 "riskmin.index_ties", "riskmin.rank_pairs")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def sha256(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Launcher:
    """Starts child processes with an absolute ``src`` on PYTHONPATH and
    reports each one's wall time, peak RSS and exit code."""

    def __init__(self, work: Path):
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path
                                               else ""))
        self.logs = 0

    def run(self, argv: list[str]) -> dict:
        self.logs += 1
        log = self.work / f"stderr-{self.logs}.txt"
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=self.work, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_bytes()[-2000:].decode("utf-8", "replace")
            print(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}",
                  file=sys.stderr)
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "rc": proc.returncode}

    def cli(self, args: list[str]) -> dict:
        return self.run([sys.executable, "-m", "hier_risk", *args])

    def python(self, args: list[str]) -> dict:
        return self.run([sys.executable, *args])


def simulate_args(spec: dict, seed: int, n: int, preds, hier) -> list[str]:
    args = ["simulate", "--seed", str(seed), "--samples", str(n),
            "--out-predictions", str(preds), "--out-hierarchy", str(hier)]
    for flag, value in spec["sim"].items():
        args += [f"--{flag}", str(value)]
    return args


class Workload:
    def __init__(self, name: str, seed: int, work: Path, threads: int):
        self.name, self.seed, self.work = name, seed, work
        self.spec = WORKLOADS[name]
        self.threads = str(threads)
        self.hier = work / "input.tsv"
        self.preds = work / "input.csv"
        self.seed_hier = work / "seed.tsv"
        self.val = work / "val.csv"
        self.art = work / "artifacts"
        self.art.mkdir()

    def generate(self, launcher: Launcher) -> None:
        """Write the inputs from the seed, each file set by its own
        process. ``seed_hier`` is the hierarchy ``simulate --seed`` writes;
        the ops read ``hier``, which is the same file unless the workload
        fixes its tree."""
        jobs = [(self.seed, self.spec["n"], self.preds, self.seed_hier)]
        if "tree_seed" in self.spec:
            jobs.append((self.spec["tree_seed"], 0, self.work / "tree.csv",
                         self.hier))
        else:
            self.hier = self.seed_hier
        if self.spec["val_n"]:
            jobs.append((self.seed + VAL_SEED_OFFSET, self.spec["val_n"],
                         self.val, self.work / "val.tsv"))
        for seed, n, preds, hier in jobs:
            r = launcher.cli(simulate_args(self.spec, seed, n, preds, hier))
            if r["rc"] != 0:
                raise BenchError("input generation failed")

    def rows_read(self, op: str) -> int:
        return {"eval": self.spec["n"], "shuffle-eval": self.spec["n"],
                "calibrate": self.spec["n"] + self.spec["val_n"]}.get(op, 0)

    def outputs(self, op: str, tag: str) -> list[Path]:
        if op == "simulate":
            return [self.art / f"simulate-{tag}.csv",
                    self.art / f"simulate-{tag}.tsv"]
        suffix = ".csv" if op == "build-costs" else ".json"
        return [self.art / f"{op}-{tag}{suffix}"]

    def op_args(self, op: str, outs: list[Path]) -> list[str]:
        h, p = str(self.hier), str(self.preds)
        threads = ["--threads", self.threads]
        if op == "build-costs":
            return ["build-costs", "--hierarchy", h, "--out", str(outs[0])]
        if op == "eval":
            return ["eval", "--hierarchy", h, "--predictions", p,
                    "--basis", self.spec["basis"], "--k", K_LIST,
                    *threads, "--out", str(outs[0])]
        if op == "calibrate":
            return ["calibrate", "--val-predictions", str(self.val),
                    "--predictions", p, "--source", "crm-selected",
                    "--hierarchy", h, *threads, "--out", str(outs[0])]
        if op == "shuffle-eval":
            return ["shuffle-eval", "--hierarchy", h, "--predictions", p,
                    "--seed", str(self.seed), "--k", K_LIST, *threads,
                    "--out", str(outs[0])]
        return simulate_args(self.spec, self.seed, self.spec["n"], *outs)

    def setup_probe(self) -> list[str]:
        """Fresh interpreter through import, hierarchy load and cost
        matrix: the fixed cost every CLI op pays before reading a row."""
        code = ("import sys, hier_risk as h; "
                "h.build_cost_matrix(h.load_hierarchy(sys.argv[1]))")
        return ["-c", code, str(self.hier)]


class Run:
    """The closed loop of one benchmark run and its bookkeeping."""

    def __init__(self, wl: Workload, launcher: Launcher, trace: bool):
        self.wl, self.launcher, self.trace = wl, launcher, trace
        self.attempts: list[dict] = []   # one per op process
        self.setup: list[dict] = []
        self.expected: dict[str, str] = {}   # op -> first artifact hash
        self.keep: dict[str, list[Path]] = {}   # op -> artifact to check
        if "simulate" in wl.spec["ops"]:
            self.expected["simulate"] = sha256(wl.preds, wl.seed_hier)

    def _record(self, op: str, pass_no: int, r: dict, outs: list[Path],
                traced: bool) -> None:
        r.update(op=op, pass_no=pass_no, traced=traced,
                 rows=self.wl.rows_read(op), sha256=None)
        if r["rc"] == 0 and all(p.exists() for p in outs):
            r["sha256"] = sha256(*outs)
            self.expected.setdefault(op, r["sha256"])
            if op not in self.keep and op != "simulate":
                self.keep[op] = outs
                outs = []
        for p in outs:
            if p.exists():
                p.unlink()
        self.attempts.append(r)

    def one_pass(self, pass_no: int) -> None:
        """The workload's ops in order; untraced runs start each pass
        with one set-up probe, so the probes sample the whole run."""
        if not self.trace:
            r = self.launcher.python(self.wl.setup_probe())
            r.update(op="setup", pass_no=pass_no, traced=False, rows=0)
            self.setup.append(r)
        for op in self.wl.spec["ops"]:
            outs = self.wl.outputs(op, f"{pass_no}")
            args = self.wl.op_args(op, outs)
            self._record(op, pass_no, self.launcher.cli(args), outs, False)
            if not self.trace:
                continue
            outs = self.wl.outputs(op, f"{pass_no}t")
            spans = self.wl.work / f"spans-{pass_no}-{op}.json"
            r = self.launcher.python([str(HERE / "trace_op.py"), str(spans),
                                      "--", *self.wl.op_args(op, outs)])
            if spans.exists():
                r["spans"] = json.loads(spans.read_text())
                r["wall_s"] -= r["spans"]["post_s"]
            elif r["rc"] == 0:
                r["rc"] = -1
            self._record(op, pass_no, r, outs, True)

    def loop(self, seconds: float) -> int:
        """One untimed warm-up pass (pass -1), then timed passes until
        the next one would end after ``seconds``."""
        self.one_pass(-1)
        start = time.perf_counter()
        passes = 0
        while True:
            t = time.perf_counter()
            self.one_pass(passes)
            passes += 1
            now = time.perf_counter()
            if now - start + (now - t) > seconds:
                return passes

    def check(self) -> dict:
        """Run check.py over one artifact per op; mark failed attempts."""
        wl = self.wl
        manifest = {
            "workload": wl.name, "hierarchy": str(wl.hier),
            "predictions": str(wl.preds),
            "val_predictions": str(wl.val) if wl.spec["val_n"] else None,
            "basis": wl.spec["basis"], "k": [int(k) for k in
                                             K_LIST.split(",")],
            "shuffle_seed": wl.seed, "workdir": str(wl.work),
            "artifacts": {op: str(outs[0]) for op, outs in
                          self.keep.items()},
        }
        path = wl.work / "manifest.json"
        path.write_text(json.dumps(manifest))
        out = wl.work / "check.json"
        r = self.launcher.python([str(HERE / "check.py"), str(path),
                                  str(out)])
        if r["rc"] != 0 or not out.exists():
            raise BenchError("the artifact checker itself failed")
        verdict = json.loads(out.read_text())
        # simulate has no checker entry: its hash must equal the inputs'.
        good = {op: self.expected[op] for op in self.expected
                if verdict["ok"].get(op, op == "simulate")}
        for a in self.setup:
            a["failed"] = a["rc"] != 0
        for a in self.attempts:
            a["failed"] = (a["rc"] != 0 or a["sha256"] is None
                           or a["sha256"] != good.get(a["op"]))
        return verdict


def median(values):
    return statistics.median(values) if values else 0.0


def per_pass(attempts, key, passes):
    """Per-pass sums of ``key(attempt)`` over timed attempts, one entry
    per timed pass."""
    sums = [0.0] * passes
    for a in attempts:
        sums[a["pass_no"]] += key(a)
    return sums


def timed(run: Run, traced: bool) -> list[dict]:
    """The attempts of the timed passes (not the warm-up pass)."""
    return [a for a in run.attempts
            if a["traced"] == traced and a["pass_no"] >= 0]


def end_to_end(run: Run, passes: int) -> dict:
    """Pass time and throughput are means over the whole timed run, not
    medians over passes: the host's speed changes in phases of tens of
    seconds or more, so a per-run median jumps between a fast and a slow
    level while the mean follows the share of time spent in each
    (README.md)."""
    ops = timed(run, False)
    wall = sum(a["wall_s"] for a in ops)
    return {
        "setup_s": median([a["wall_s"] for a in run.setup
                            if a["pass_no"] >= 0]),
        "pass_s": wall / passes,
        "rows_per_s": sum(a["rows"] for a in ops) / wall,
        "peak_rss_mb": max(a["rss_mb"] for a in ops),
    }


def op_times(run: Run) -> dict:
    """Median wall time of each op the workload runs, and the failed
    share of all op processes, the warm-up pass's too."""
    ops = timed(run, False)
    out = {OP_METRIC[op]: median([a["wall_s"] for a in ops if a["op"] == op])
           for op in run.wl.spec["ops"]}
    out["ops_failed_frac"] = (sum(a["failed"] for a in run.attempts)
                              / len(run.attempts))
    return out


def per_layer(run: Run, passes: int) -> dict:
    traced = [a for a in timed(run, True) if "spans" in a]
    plain = timed(run, False)

    def span_sum(a, span):
        return a["spans"]["totals"].get(span, 0.0)

    def med(key):
        return median(per_pass(traced, key, passes))

    m = {name: med(lambda a, s=span: span_sum(a, s))
         for name, span in SPAN_METRICS.items()}
    m["metrics.self_s"] = med(
        lambda a: a["spans"]["self"].get("metrics.full_report", 0.0))
    m["cli.import_s"] = med(lambda a: a["spans"]["import_s"])
    for name in SUMMED_COUNTS:
        m[name] = med(lambda a, n=name: a["spans"]["counts"].get(n, 0))
    for name in ("taxonomy.nodes", "taxonomy.height"):
        m[name] = max((a["spans"]["counts"].get(name, 0) for a in traced),
                      default=0)
    loaded = med(lambda a: a["spans"]["counts"].get("dataio.csv_bytes_read",
                                                    0))
    saved = med(lambda a: a["spans"]["counts"].get(
        "dataio.csv_bytes_written", 0))
    m["dataio.load_mb_per_s"] = (loaded / 1e6 / m["dataio.load_predictions_s"]
                                 if m["dataio.load_predictions_s"] else 0.0)
    m["dataio.save_mb_per_s"] = (saved / 1e6 / m["dataio.save_predictions_s"]
                                 if m["dataio.save_predictions_s"] else 0.0)
    m["riskmin.fastpath_frac"] = (m["riskmin.fastpath_rows"]
                                  / m["riskmin.kernel_rows"]
                                  if m["riskmin.kernel_rows"] else 0.0)
    m["trace.overhead_s"] = (
        median(per_pass(traced, lambda a: a["wall_s"], passes))
        - median(per_pass(plain, lambda a: a["wall_s"], passes)))
    m.update({name: 0.0 for name in OP_METRIC.values()})
    m.update(op_times(run))
    return m


def op_spans(run: Run) -> dict:
    """Per op, the median traced time of each span name."""
    out: dict = {}
    for a in timed(run, True):
        if "spans" in a:
            spans = out.setdefault(a["op"], {})
            for name, t in a["spans"]["totals"].items():
                spans.setdefault(name, []).append(t)
    return {op: {name: median(ts) for name, ts in spans.items()}
            for op, spans in out.items()}


def environment(threads: int, versions: dict) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "threads": threads,
            "python": sys.version.split()[0], **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a JSON-lines record here")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "hier_risk" / "__init__.py").is_file():
        print(f"error: no hier_risk sources under {SRC}", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    work.mkdir(parents=True)
    try:
        launcher = Launcher(work)
        wl = Workload(args.workload, args.seed, work, threads)
        wl.generate(launcher)
        run = Run(wl, launcher, bool(args.trace))
        passes = run.loop(args.seconds)
        verdict = run.check()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    # BENCHMARK.json names the metrics a run prints, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = shown = per_layer(run, passes)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(run, passes)
        shown = {**metrics, **op_times(run)}
        names = [m["name"] for m in spec["end_to_end"]]
    every = run.attempts + run.setup
    failed = sum(a["failed"] for a in every)
    correct = failed == 0 and all(verdict["ok"].values())
    for op, msg in verdict["errors"].items():
        print(f"check failed: {op}: {msg}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"threads {threads}")
    for name, value in shown.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  correct {correct}  attempted {len(every)}  failed {failed}")
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes,
            "env": environment(threads, verdict["env"]),
            "correct": correct, "attempted": len(every), "failed": failed,
            "metrics": shown,
            "sha256": {op: run.expected[op] for op in run.expected},
            "checks": verdict["notes"],
            "attempts": [[a["op"], a["pass_no"], a["traced"], a["wall_s"],
                          a["rss_mb"], a["failed"]] for a in every],
        }
        if args.trace:
            record["op_spans"] = op_spans(run)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": len(every), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
