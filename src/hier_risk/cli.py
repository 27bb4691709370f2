"""Command-line front end.

Subcommands: build-costs, eval, calibrate, shuffle-eval, simulate.
Exit codes: 0 success, 1 internal failure, 2 input or validation error
(argparse usage errors and running out of memory included). The
requested artifact goes to stdout or to --out, gzipped if that ends in
.gz; diagnostics go to stderr. Every subcommand is deterministic given
identical files and flags, whatever the BLAS thread count. --threads is
accepted and ignored; it stays because perfbench/run.py passes it.

eval, calibrate and shuffle-eval rank and reduce one block of rows at a
time and drop each block and its ranking before the next is parsed:
eval and shuffle-eval hold one block plus integer tallies, calibrate
the validation split, its floored log-probabilities and one block of
fit temporaries, then one test block and per-bin totals.
simulate mirrors the read side: it writes the blocks of
synth.prediction_blocks as they are drawn, holding one block plus the
labels drawn ahead, and opens no output file before that draw.
Each checks its flags, the hierarchy, the headers and the tables it needs
(calibrate: the validation split and its fit) before it reads a row of
the file it streams, then reports the first fault there in file order.
Without --k, eval and shuffle-eval report the depths of 1,5,20 that are
at most the class count. eval --basis crm exits 1 if a class holding
more than half a row's mass is not its top-1 (Theorem 1).
"""

from __future__ import annotations

import argparse
import sys

# bin_confidences, cost_matrix_to_csv, full_report, gen_predictions,
# PredictionSet and save_predictions are unused here; they stay bound
# because perfbench/trace_op.py rebinds them.
from .calibration import (BinTally, CalibrationReport, CONFIDENCE_SOURCES,
                          apply_temperature, bin_confidences, ece,
                          fit_temperature, mce)
from .dataio import (_write_lines, calibration_report_to_json,
                     cost_matrix_to_csv, load_hierarchy, load_predictions,
                     metrics_report_to_json, read_predictions,
                     save_cost_matrix, save_hierarchy, save_predictions,
                     write_predictions)
from .metrics import DEFAULT_K_LIST, Evaluation, full_report
from .predictions import PredictionSet, _passed
from .riskmin import batch_apply, build_cost_matrix
from .synth import (SynthConfig, TREE_MODES, TRUTH_MODES, gen_predictions,
                    gen_taxonomy, prediction_blocks)
from .taxonomy import shuffle_leaves

__all__ = ["main"]


def _k_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from None
    if not ks:
        raise argparse.ArgumentTypeError("k list is empty")
    return ks


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _cmd_build_costs(args) -> None:
    # The CSV goes out a block of rows at a time, never as one text.
    C = build_cost_matrix(load_hierarchy(args.hierarchy))
    sys.stdout.flush()
    save_cost_matrix(C, args.out or sys.stdout.buffer)


def _cmd_eval(args) -> str:
    tax = load_hierarchy(args.hierarchy)
    _, blocks = read_predictions(args.predictions, tax)
    ev = Evaluation(tax, args.k)
    C = build_cost_matrix(tax) if args.basis == "crm" else None
    for block in blocks:
        ranked = batch_apply(block, C, args.basis, depth=ev.ks[-1])
        ev.count(ranked, block.truth)
        if C is not None:
            # Theorem 1: on taxonomy costs a class holding more than half
            # the mass is the risk minimizer, so the certified top-1 must
            # be the argmax on every such row.
            if ((ranked.permutation[:, 0] != block.probs.argmax(axis=1))
                    & (block.probs.max(axis=1) > 0.5)).any():
                raise RuntimeError("Theorem 1 violated: a class with more "
                                   "than half the mass is not the CRM top-1")
        del block, ranked  # before the next block is parsed
    return metrics_report_to_json(ev.report())


def _cmd_calibrate(args) -> str:
    if args.source == "crm-selected" and args.hierarchy is None:
        raise ValueError("--hierarchy is required when --source crm-selected")
    tax = load_hierarchy(args.hierarchy) if args.hierarchy else None
    val = load_predictions(args.val_predictions, tax)
    names, blocks = read_predictions(args.predictions, tax)
    if tax is None and val.class_names != names:
        raise ValueError("validation and test files disagree on class "
                         "order; pass --hierarchy to align them by name")
    temperature = fit_temperature(val)
    del val
    basis = CONFIDENCE_SOURCES[args.source]
    C = build_cost_matrix(tax) if basis == "crm" else None
    # Each test block is binned at rank 0 before and after scaling, which
    # is row-wise, then dropped; scaled rows skip the row rule, which
    # would divide a softmax row by its sum a second time.
    pre, post = BinTally(args.bins), BinTally(args.bins)
    for block in blocks:
        pre.add(block, batch_apply(block, C, basis, depth=1))
        block = _passed(apply_temperature(block.probs, temperature),
                        block.truth, names)
        post.add(block, batch_apply(block, C, basis, depth=1))
        del block  # before the next block is parsed
    if pre.n == 0:
        raise ValueError("test prediction file has no rows")
    bins_pre, bins_post = pre.bins(), post.bins()
    report = CalibrationReport(
        ece_pre=ece(bins_pre), ece_post=ece(bins_post),
        mce_pre=mce(bins_pre), mce_post=mce(bins_post),
        temperature=temperature, confidence_source=args.source,
    )
    return calibration_report_to_json(report)


def _cmd_shuffle_eval(args) -> str:
    tax = load_hierarchy(args.hierarchy)
    trees = {"original": tax, "shuffled": shuffle_leaves(tax, args.seed)}
    _, blocks = read_predictions(args.predictions, tax)
    evals = {basis: {name: Evaluation(t, args.k) for name, t in trees.items()}
             for basis in ("likelihood", "crm")}
    costs = {name: build_cost_matrix(t) for name, t in trees.items()}
    m = evals["crm"]["original"].ks[-1]
    for block in blocks:
        # Both trees list the same classes and likelihoods read no costs.
        ranked = batch_apply(block, None, "likelihood", depth=m)
        for ev in evals["likelihood"].values():
            ev.count(ranked, block.truth)
        for name, ev in evals["crm"].items():
            ev.count(batch_apply(block, costs[name], "crm", depth=m),
                     block.truth)
        del block, ranked  # before the next block is parsed
    return metrics_report_to_json({
        basis: {name: ev.report() for name, ev in by_tree.items()}
        for basis, by_tree in evals.items()
    })


def _cmd_simulate(args) -> None:
    cfg = SynthConfig(
        seed=args.seed, K=args.classes, N=args.samples,
        concentration=args.concentration, truth_mode=args.truth_mode,
        corrupt_rho=args.corrupt_rho, tree_mode=args.tree_mode,
    )
    tax = gen_taxonomy(cfg)
    blocks = prediction_blocks(cfg, tax)  # every check before a file opens
    save_hierarchy(tax, args.out_hierarchy)
    write_predictions(args.out_predictions, tax.class_names, blocks)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hier-risk",
        description="Risk-minimizing correction and hierarchy-aware "
                    "evaluation for classifier likelihoods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    k_help = ("comma-separated list of ranking depths (default: those of "
              f"{','.join(map(str, DEFAULT_K_LIST))} that are at most the "
              "class count)")

    def add_common(p, out=True, threads=False):
        if out:
            p.add_argument("--out", help="write the artifact here instead "
                                         "of stdout")
        if threads:
            p.add_argument("--threads", type=_positive_int,
                           help="accepted and ignored (perfbench/run.py "
                                "passes it); rankings do not depend on "
                                "threads")

    p = sub.add_parser("build-costs",
                       help="emit the confusion-cost matrix as CSV")
    p.add_argument("--hierarchy", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_build_costs)

    p = sub.add_parser("eval", help="rank predictions and report metrics")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--basis", choices=("likelihood", "crm"), default="crm")
    p.add_argument("--k", type=_k_list, help=k_help)
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("calibrate",
                       help="fit a temperature on a validation split and "
                            "report ECE/MCE on a test split")
    p.add_argument("--val-predictions", required=True)
    p.add_argument("--predictions", required=True,
                   help="test split the report is computed on")
    p.add_argument("--bins", type=_positive_int, default=15)
    p.add_argument("--source", choices=tuple(CONFIDENCE_SOURCES),
                   default="max-likelihood")
    p.add_argument("--hierarchy",
                   help="required for --source crm-selected; otherwise "
                        "aligns file columns by name")
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("shuffle-eval",
                       help="evaluate both ranking bases against the "
                            "original and a leaf-shuffled hierarchy")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=_k_list, help=k_help)
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_shuffle_eval)

    p = sub.add_parser("simulate",
                       help="write a synthetic hierarchy and prediction file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--classes", type=_positive_int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--concentration", type=float, default=1.0)
    p.add_argument("--truth-mode", choices=TRUTH_MODES,
                   default="self-sampled")
    p.add_argument("--corrupt-rho", type=float, default=0.0)
    p.add_argument("--tree-mode", choices=TREE_MODES, default="flat")
    p.add_argument("--out-predictions", required=True)
    p.add_argument("--out-hierarchy", required=True)
    add_common(p, out=False)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        text = args.func(args)
        if text is not None:
            sys.stdout.flush()
            _write_lines(args.out or sys.stdout.buffer, [text])
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory ({str(e) or 'allocation failed'}); the "
              "input is too large for this host", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e!r}", file=sys.stderr)
        return 1
    return 0
