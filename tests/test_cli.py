import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hier_risk import (PredictionSet, build_cost_matrix, full_report,
                       load_hierarchy, load_metrics_report, load_predictions,
                       parse_taxonomy)
from hier_risk.cli import main
from hier_risk.dataio import PREDICTIONS_MAGIC, cost_matrix_to_csv
from hier_risk.riskmin import batch_crm_top1


@pytest.fixture()
def corpus(tmp_path):
    paths = {
        "hier": str(tmp_path / "h.tsv"),
        "preds": str(tmp_path / "p.csv"),
        "val": str(tmp_path / "v.csv"),
    }
    assert main(["simulate", "--seed", "7", "--classes", "8",
                 "--samples", "300", "--tree-mode", "balanced-binary",
                 "--out-predictions", paths["preds"],
                 "--out-hierarchy", paths["hier"]]) == 0
    assert main(["simulate", "--seed", "8", "--classes", "8",
                 "--samples", "120", "--tree-mode", "balanced-binary",
                 "--out-predictions", paths["val"],
                 "--out-hierarchy", str(tmp_path / "h2.tsv")]) == 0
    return paths


def test_simulate_writes_loadable_files(corpus, capsys):
    assert capsys.readouterr().out == ""
    tax = load_hierarchy(corpus["hier"])
    preds = load_predictions(corpus["preds"], tax)
    assert preds.N == 300 and preds.K == 8


def test_build_costs_stdout_matches_library(corpus, capsys):
    assert main(["build-costs", "--hierarchy", corpus["hier"]]) == 0
    out = capsys.readouterr().out
    tax = load_hierarchy(corpus["hier"])
    assert out == cost_matrix_to_csv(build_cost_matrix(tax))


def test_eval_report_matches_library(corpus, tmp_path, capsys):
    out_path = str(tmp_path / "m.json")
    code = main(["eval", "--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"], "--k", "1,5",
                 "--out", out_path])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = load_metrics_report(out_path)
    tax = load_hierarchy(corpus["hier"])
    preds = load_predictions(corpus["preds"], tax)
    assert report == full_report(preds, tax, "crm", k_list=(1, 5))
    # Likelihood basis differs on this corpus.
    assert main(["eval", "--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"], "--k", "1,5",
                 "--basis", "likelihood"]) == 0
    lik = json.loads(capsys.readouterr().out)
    assert lik["distance_at_k"]["1"] != report.distance_at_k[1]


def test_eval_is_deterministic_and_thread_invariant(corpus, capsys):
    args = ["eval", "--hierarchy", corpus["hier"],
            "--predictions", corpus["preds"], "--k", "1,5"]
    outs = []
    for extra in ([], [], ["--threads", "3"], ["--theorem1-fastpath"]):
        assert main(args + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_eval_rejects_oversized_k(corpus, capsys):
    code = main(["eval", "--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"], "--k", "1,20"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_calibrate_outputs_report(corpus, capsys):
    code = main(["calibrate", "--val-predictions", corpus["val"],
                 "--predictions", corpus["preds"]])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["confidence_source"] == "max-likelihood"
    assert doc["temperature"] > 0
    code = main(["calibrate", "--val-predictions", corpus["val"],
                 "--predictions", corpus["preds"], "--source",
                 "crm-selected", "--hierarchy", corpus["hier"]])
    assert code == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["confidence_source"] == "crm-selected"
    assert doc2["temperature"] == doc["temperature"]


def test_calibrate_requires_hierarchy_for_crm_source(corpus, capsys):
    code = main(["calibrate", "--val-predictions", corpus["val"],
                 "--predictions", corpus["preds"],
                 "--source", "crm-selected"])
    assert code == 2
    assert "--hierarchy" in capsys.readouterr().err


def test_calibrate_rejects_empty_test_split(corpus, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    names = load_predictions(corpus["preds"]).class_names
    empty.write_text(PREDICTIONS_MAGIC + "\ntruth," + ",".join(names) + "\n")
    code = main(["calibrate", "--val-predictions", corpus["val"],
                 "--predictions", str(empty)])
    assert code == 2
    assert "no rows" in capsys.readouterr().err


def test_shuffle_eval_nested_report(corpus, capsys):
    code = main(["shuffle-eval", "--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"], "--seed", "3",
                 "--k", "1,5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["likelihood", "crm"]
    for basis in doc.values():
        assert list(basis) == ["original", "shuffled"]
        for rep in basis.values():
            assert set(rep) == {"top1_error", "distance_at_k",
                                "severity_over_mistakes",
                                "severity_over_all", "n_mistakes",
                                "histogram"}
    # The flat upper levels of a balanced tree still move under a leaf
    # shuffle, so shuffled metrics should not all coincide.
    assert doc["crm"]["original"] != doc["crm"]["shuffled"]


def test_shuffle_eval_requires_seed(corpus, capsys):
    code = main(["shuffle-eval", "--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"]])
    assert code == 2
    capsys.readouterr()


def test_cyclic_hierarchy_exits_two(tmp_path, capsys):
    cyc = tmp_path / "cyc.tsv"
    cyc.write_text("a\tb\nb\ta\n")
    assert main(["build-costs", "--hierarchy", str(cyc)]) == 2
    assert "cycle" in capsys.readouterr().err


def test_build_costs_rejects_comma_in_class_name(tmp_path, capsys):
    hier = tmp_path / "h.tsv"
    hier.write_text("a,x\tp\nb\tp\nc\tr\np\tr\n")
    out = tmp_path / "c.csv"
    assert main(["build-costs", "--hierarchy", str(hier),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: class name 'a,x' cannot be written "
                            "to CSV\n")
    assert not out.exists()


def test_build_costs_rejects_quote_in_class_name(tmp_path, capsys):
    hier = tmp_path / "h.tsv"
    hier.write_text('"a\tp\nb\tp\nc\tr\np\tr\n')
    out = tmp_path / "c.csv"
    assert main(["build-costs", "--hierarchy", str(hier),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: class name '\"a' cannot be written "
                            "to CSV\n")
    assert not out.exists()


def test_missing_file_exits_two(capsys):
    assert main(["build-costs", "--hierarchy", "/nonexistent/h.tsv"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_simulate_validates_config(tmp_path, capsys):
    code = main(["simulate", "--seed", "1", "--classes", "6",
                 "--samples", "5", "--tree-mode", "balanced-binary",
                 "--out-predictions", str(tmp_path / "p.csv"),
                 "--out-hierarchy", str(tmp_path / "h.tsv")])
    assert code == 2
    assert "power of 2" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path, checkout_env):
    # One subprocess pass through python -m to cover the real entry.
    h = tmp_path / "h.tsv"
    p = tmp_path / "p.csv"
    run = subprocess.run(
        [sys.executable, "-m", "hier_risk", "simulate", "--seed", "1",
         "--classes", "4", "--samples", "10",
         "--out-predictions", str(p), "--out-hierarchy", str(h)],
        capture_output=True, text=True, env=checkout_env,
    )
    assert run.returncode == 0
    assert run.stdout == ""
    run2 = subprocess.run(
        [sys.executable, "-m", "hier_risk", "eval", "--hierarchy", str(h),
         "--predictions", str(p), "--k", "1,2"],
        capture_output=True, text=True, env=checkout_env,
    )
    assert run2.returncode == 0
    assert json.loads(run2.stdout)["n_mistakes"] >= 0


def test_out_file_equals_stdout(corpus, tmp_path, capsys):
    args = ["build-costs", "--hierarchy", corpus["hier"]]
    assert main(args) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "c.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text() == streamed


SHUFFLE_HIER = "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n"
SHUFFLE_PREDS = (PREDICTIONS_MAGIC + "\ntruth,a,b,c,d\n"
                 "a,0.4,0.1,0.3,0.2\nc,0.4,0,0.3,0.3\n"
                 "d,0.05,0.05,0.5,0.4\nb,0.3,0.1,0.35,0.25\n")


def test_shuffle_eval_json_frozen(tmp_path, capsys):
    # The second row is an argmax mistake that CRM amends within the p2 branch,
    # so the two bases differ on the original tree.
    hier, preds = tmp_path / "h.tsv", tmp_path / "p.csv"
    hier.write_text(SHUFFLE_HIER)
    preds.write_text(SHUFFLE_PREDS)
    assert main(["shuffle-eval", "--hierarchy", str(hier),
                 "--predictions", str(preds), "--seed", "0",
                 "--k", "1"]) == 0
    assert capsys.readouterr().out == (
        '{\n'
        '  "likelihood": {\n'
        '    "original": {\n'
        '      "top1_error": 0.75,\n'
        '      "distance_at_k": {\n'
        '        "1": 1.25\n'
        '      },\n'
        '      "severity_over_mistakes": 1.6666666666666667,\n'
        '      "severity_over_all": 1.25,\n'
        '      "n_mistakes": 3,\n'
        '      "histogram": {\n'
        '        "1": 1,\n'
        '        "2": 2\n'
        '      }\n'
        '    },\n'
        '    "shuffled": {\n'
        '      "top1_error": 0.75,\n'
        '      "distance_at_k": {\n'
        '        "1": 1.25\n'
        '      },\n'
        '      "severity_over_mistakes": 1.6666666666666667,\n'
        '      "severity_over_all": 1.25,\n'
        '      "n_mistakes": 3,\n'
        '      "histogram": {\n'
        '        "1": 1,\n'
        '        "2": 2\n'
        '      }\n'
        '    }\n'
        '  },\n'
        '  "crm": {\n'
        '    "original": {\n'
        '      "top1_error": 0.5,\n'
        '      "distance_at_k": {\n'
        '        "1": 0.75\n'
        '      },\n'
        '      "severity_over_mistakes": 1.5,\n'
        '      "severity_over_all": 0.75,\n'
        '      "n_mistakes": 2,\n'
        '      "histogram": {\n'
        '        "1": 1,\n'
        '        "2": 1\n'
        '      }\n'
        '    },\n'
        '    "shuffled": {\n'
        '      "top1_error": 0.75,\n'
        '      "distance_at_k": {\n'
        '        "1": 1.25\n'
        '      },\n'
        '      "severity_over_mistakes": 1.6666666666666667,\n'
        '      "severity_over_all": 1.25,\n'
        '      "n_mistakes": 3,\n'
        '      "histogram": {\n'
        '        "1": 1,\n'
        '        "2": 2\n'
        '      }\n'
        '    }\n'
        '  }\n'
        '}\n'
    )


def test_perfbench_trace_hooks_resolve():
    # perfbench/trace_op.py rebinds these names to time the CLI path; a
    # rename here would otherwise surface only under run.py --trace 1.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace_op.py"
    spec = importlib.util.spec_from_file_location("trace_op", path)
    trace_op = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_op)
    for targets in trace_op.PATCHES.values():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), (owner, attr)
    tax = parse_taxonomy(SHUFFLE_HIER)
    preds = PredictionSet(np.array([[0.4, 0.0, 0.3, 0.3]]), np.array([2]),
                          ["a", "b", "c", "d"])
    top1 = batch_crm_top1(preds, build_cost_matrix(tax), threads=1)
    assert top1.tolist() == [2]
