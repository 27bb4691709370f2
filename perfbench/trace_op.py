#!/usr/bin/env python3
"""Run one hier-risk CLI op in process and record where its time went.

    python3 perfbench/trace_op.py SPANS.json -- <subcommand> [args...]

The public names the CLI path calls (``cli.load_predictions``,
``metrics.batch_apply``, ``Taxonomy.lca_matrix``, ...) are rebound to
timing wrappers defined here, then ``hier_risk.cli.main(argv)`` runs
once. Each wrapper call records a span (name, start, end, parent); spans
stay in memory and are written to SPANS.json at exit with per-name
totals, per-name self time (a span minus its direct children) and the
counts below. Nothing under ``src/`` changes.

After ``main`` returns, the kept call arguments give the domain counts:
rows renormalized at validation, rows sent to the risk kernel, how many
of them the Theorem-1 fast path covers (max p > 0.5), how many CRM top-1
picks differ from the argmax, and how many adjacent ranked pairs have
exactly equal scores (ties the stable sort broke by class index). One
extra ``batch_crm_top1`` call per risk ranking isolates the kernel as
the ``riskmin.crm_top1`` span; that call and the counting are timed as
``post_s`` so the launcher can take them out of the traced wall time.
The exit code is main's, or 3 if the kernel's top-1 disagrees with the
first ranked class.
"""

from __future__ import annotations

import json
import os
import sys
import time

_t0 = time.perf_counter()
from hier_risk import cli, dataio, metrics, riskmin, synth  # noqa: E402
from hier_risk.taxonomy import Taxonomy, node_height  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402  (already loaded by hier_risk)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.calls: list[tuple] = []  # (span name, args, kwargs, result)

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result
        return timed

    def summary(self) -> tuple[dict, dict]:
        totals: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - c)
        return totals, self_s


# Span name -> the (owner, attribute) pairs the CLI path reaches it by.
PATCHES = {
    "taxonomy.parse": [(dataio, "parse_taxonomy"), (synth, "parse_taxonomy")],
    "taxonomy.lca": [(Taxonomy, "lca_matrix")],
    "taxonomy.shuffle": [(cli, "shuffle_leaves")],
    "dataio.load_hierarchy": [(cli, "load_hierarchy")],
    "dataio.load_predictions": [(cli, "load_predictions")],
    "dataio.save_predictions": [(cli, "save_predictions")],
    "dataio.save_hierarchy": [(cli, "save_hierarchy")],
    "dataio.cost_csv": [(cli, "cost_matrix_to_csv")],
    "dataio.report_json": [(cli, "metrics_report_to_json"),
                           (cli, "calibration_report_to_json")],
    "predictions.validate": [(dataio, "PredictionSet"), (cli, "PredictionSet"),
                             (synth, "PredictionSet")],
    "riskmin.build_cost_matrix": [(cli, "build_cost_matrix"),
                                  (metrics, "build_cost_matrix")],
    "riskmin.rank": [(cli, "batch_apply"), (metrics, "batch_apply")],
    "metrics.full_report": [(cli, "full_report")],
    "calibration.fit_temperature": [(cli, "fit_temperature")],
    "calibration.apply_temperature": [(cli, "apply_temperature")],
    "calibration.bin": [(cli, "bin_confidences")],
    "synth.gen_taxonomy": [(cli, "gen_taxonomy")],
    "synth.gen_predictions": [(cli, "gen_predictions")],
}


def count(tracer: Tracer) -> tuple[dict, bool]:
    """Domain counts from the kept calls; also runs the kernel-only
    ``batch_crm_top1`` once per risk ranking. Returns (counts, agreed)."""
    c = {name: 0 for name in (
        "dataio.bytes_read", "dataio.bytes_written", "dataio.csv_bytes_read",
        "dataio.csv_bytes_written", "predictions.rows_renormalized",
        "predictions.rows_validated", "riskmin.kernel_flops_computed",
        "riskmin.kernel_bytes_computed", "riskmin.kernel_rows",
        "riskmin.fastpath_rows", "riskmin.top1_flips", "riskmin.index_ties",
        "riskmin.rank_pairs", "taxonomy.nodes", "taxonomy.height")}
    agreed = True
    for name, args, kwargs, result in list(tracer.calls):
        if name == "taxonomy.parse":
            c["taxonomy.nodes"] = max(c["taxonomy.nodes"], result.n_nodes)
            c["taxonomy.height"] = max(c["taxonomy.height"],
                                       node_height(result, result.root))
        elif name in ("dataio.load_hierarchy", "dataio.load_predictions"):
            size = os.path.getsize(args[0])
            c["dataio.bytes_read"] += size
            if name == "dataio.load_predictions":
                c["dataio.csv_bytes_read"] += size
        elif name in ("dataio.save_hierarchy", "dataio.save_predictions"):
            size = os.path.getsize(args[1])
            c["dataio.bytes_written"] += size
            if name == "dataio.save_predictions":
                c["dataio.csv_bytes_written"] += size
        elif name == "predictions.validate":
            raw = np.asarray(args[0], dtype=np.float64)
            c["predictions.rows_validated"] += raw.shape[0]
            c["predictions.rows_renormalized"] += int(
                (raw.sum(axis=1) != 1.0).sum())
        elif name == "riskmin.rank" and result:
            preds, C = args[0], args[1]
            N, K = preds.N, preds.K
            perms = np.stack([r.permutation for r in result])
            scores = np.stack([r.scores for r in result])
            ranked = np.take_along_axis(scores, perms, axis=1)
            c["riskmin.index_ties"] += int((np.diff(ranked, axis=1) == 0)
                                           .sum())
            c["riskmin.rank_pairs"] += N * (K - 1)
            if result[0].basis != riskmin.RISK:
                continue
            top1 = tracer.span("riskmin.crm_top1", riskmin.batch_crm_top1,
                               preds, C, threads=kwargs.get("threads", 1))
            agreed &= bool(np.array_equal(top1, perms[:, 0]))
            argmax = np.argmax(preds.probs, axis=1)
            c["riskmin.kernel_rows"] += N
            c["riskmin.fastpath_rows"] += int(
                (preds.probs.max(axis=1) > 0.5).sum())
            c["riskmin.top1_flips"] += int((top1 != argmax).sum())
            c["riskmin.kernel_flops_computed"] += 2 * N * K * K
            # Dense-product traffic: read P and C once, write the risks.
            c["riskmin.kernel_bytes_computed"] += 8 * (2 * N * K + K * K)
    return c, agreed


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    for name, targets in PATCHES.items():
        for owner, attr in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    rc = tracer.span("cli.main", cli.main, argv)
    post = time.perf_counter()
    counts, agreed = count(tracer)
    totals, self_s = tracer.summary()
    doc = {"rc": rc, "import_s": IMPORT_S, "totals": totals, "self": self_s,
           "counts": counts, "spans": tracer.spans,
           "post_s": time.perf_counter() - post}
    with open(out, "w") as f:
        json.dump(doc, f)
    if rc == 0 and not agreed:
        print("kernel top-1 disagrees with the ranking", file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
