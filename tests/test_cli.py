import gzip
import importlib
import importlib.util
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hier_risk
from hier_risk import dataio
from hier_risk import (FormatError, PredictionSet, build_cost_matrix,
                       full_report, load_hierarchy, load_metrics_report,
                       load_predictions, parse_taxonomy)
from hier_risk.cli import main
from hier_risk.dataio import (PREDICTIONS_MAGIC, cost_matrix_to_csv,
                              metrics_report_to_json)
from hier_risk.riskmin import Ranking, batch_apply, batch_crm_top1


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
    for source in ([], ["--source", "crm-selected",
                        "--hierarchy", corpus["hier"]]):
        code = main(["calibrate", "--val-predictions", corpus["val"],
                     "--predictions", str(empty), *source])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: test prediction file has no rows\n")


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


def test_out_of_memory_exits_two(corpus, capsys, monkeypatch):
    # An input too large for the host is an input error, not a crash.
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr("hier_risk.cli.read_predictions", exhausted)
    code = main(["eval", "--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (Unable to allocate 7.45 GiB")
    assert err.count("\n") == 1


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
    code = main(["simulate", "--seed", "-5", "--classes", "4",
                 "--samples", "5",
                 "--out-predictions", str(tmp_path / "p.csv"),
                 "--out-hierarchy", str(tmp_path / "h.tsv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: seed must be a non-negative integer, got -5\n")


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


# A lean launcher: a child's ru_maxrss counts what its parent had
# resident when it forked, so the op is not started from pytest itself.
LAUNCH = """
import os, subprocess, sys
p = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(p.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_wide_eval_peak_memory_stays_under_ceiling(tmp_path, checkout_env):
    # K=9999 random tree (height 25): the uint8 LCA table is 100 MB, and
    # building it holds at most two such tables. The int64 table peaked
    # at about 1.1 GB here; the compact one at about 260 MB.
    h, p = tmp_path / "h.tsv", tmp_path / "p.csv"
    assert main(["simulate", "--seed", "1", "--classes", "9999",
                 "--samples", "6", "--concentration", "0.3",
                 "--tree-mode", "random-attachment",
                 "--out-predictions", str(p), "--out-hierarchy", str(h)]) == 0
    out = tmp_path / "m.json"
    run = subprocess.run(
        [sys.executable, "-c", LAUNCH, sys.executable, "-m", "hier_risk",
         "eval", "--hierarchy", str(h), "--predictions", str(p),
         "--basis", "crm", "--out", str(out)],
        capture_output=True, text=True, env=checkout_env,
    )
    rc, maxrss_kib = map(int, run.stdout.split())
    assert rc == 0, run.stderr
    assert load_metrics_report(out).n_mistakes >= 0
    assert maxrss_kib / 1024 < 400, maxrss_kib


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_streamed_peak_memory_is_flat_in_n(tmp_path, checkout_env):
    # eval and calibrate rank and reduce one block of rows at a time, so
    # 8x the test rows (3.5 -> 28 MB of CSV on the tall shape) must not
    # move their peak. Holding the N x K matrices grew eval's by 24 MB.
    tall = ["--classes", "32", "--concentration", "0.05",
            "--tree-mode", "balanced-binary", "--truth-mode", "corrupted",
            "--corrupt-rho", "0.2"]
    h, v = str(tmp_path / "h.tsv"), str(tmp_path / "v.csv")
    assert main(["simulate", "--seed", "2", "--samples", "2000", *tall,
                 "--out-predictions", v, "--out-hierarchy", h]) == 0
    peaks = {}
    for n in (5000, 40000):
        p = str(tmp_path / f"p{n}.csv")
        assert main(["simulate", "--seed", "1", "--samples", str(n), *tall,
                     "--out-predictions", p, "--out-hierarchy", h]) == 0
        for op in (["eval", "--hierarchy", h, "--basis", "crm"],
                   ["calibrate", "--val-predictions", v, "--hierarchy", h,
                    "--source", "crm-selected"]):
            run = subprocess.run(
                [sys.executable, "-c", LAUNCH, sys.executable, "-m",
                 "hier_risk", *op, "--predictions", p,
                 "--out", str(tmp_path / "r.json")],
                capture_output=True, text=True, env=checkout_env,
            )
            rc, maxrss_kib = map(int, run.stdout.split())
            assert rc == 0, run.stderr
            peaks[op[0], n] = maxrss_kib / 1024
    for op in ("eval", "calibrate"):
        assert peaks[op, 40000] - peaks[op, 5000] < 4, peaks


def test_out_file_equals_stdout(corpus, tmp_path, capsys):
    args = ["build-costs", "--hierarchy", corpus["hier"]]
    assert main(args) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "c.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text() == streamed


@pytest.mark.parametrize("command", ["eval", "calibrate", "shuffle-eval"])
def test_report_out_gz_is_gzipped_stdout(corpus, tmp_path, capsys, command):
    # Reports go through the writer every artifact uses, so a .gz path
    # gets gzip, like build-costs and simulate give.
    args = {
        "eval": ["--hierarchy", corpus["hier"], "--k", "1,5"],
        "calibrate": ["--val-predictions", corpus["val"]],
        "shuffle-eval": ["--hierarchy", corpus["hier"], "--seed", "3",
                         "--k", "1,5"],
    }[command]
    args = [command, "--predictions", corpus["preds"]] + args
    assert main(args) == 0
    streamed = capsys.readouterr().out.encode()
    out = tmp_path / "r.json.gz"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes()[:2] == b"\x1f\x8b"
    assert gzip.decompress(out.read_bytes()) == streamed


SHUFFLE_HIER = "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n"
SHUFFLE_PREDS = (PREDICTIONS_MAGIC + "\ntruth,a,b,c,d\n"
                 "a,0.4,0.1,0.3,0.2\nc,0.4,0,0.3,0.3\n"
                 "d,0.05,0.05,0.5,0.4\nb,0.3,0.1,0.35,0.25\n")


@pytest.mark.parametrize("gz", [False, True])
def test_undecodable_bytes_are_named_by_line(tmp_path, capsys, gz):
    # Line and 1-based byte of the first bad byte, exit 2, no traceback.
    def write(path, data):
        path.write_bytes(gzip.compress(data) if gz else data)

    hier, preds = tmp_path / "h.tsv", tmp_path / "p.csv"
    write(hier, SHUFFLE_HIER.encode() + b"e\xff\tp2\n")
    assert main(["build-costs", "--hierarchy", str(hier)]) == 2
    assert capsys.readouterr() == (
        "", "error: line 7: not UTF-8 (invalid start byte at byte 2)\n")
    write(hier, SHUFFLE_HIER.encode())
    write(preds, SHUFFLE_PREDS.encode() + b"b,0.25,0.25,0.2\xff5,0.25\n")
    args = ["eval", "--hierarchy", str(hier), "--predictions", str(preds)]
    assert main(args) == 2
    assert capsys.readouterr() == (
        "", "error: line 7: not UTF-8 (invalid start byte at byte 16)\n")
    # On line 1 the byte is counted after a byte-order mark.
    write(preds, b"\xef\xbb\xbf#hier\xe9" + SHUFFLE_PREDS[5:].encode())
    assert main(args) == 2
    assert capsys.readouterr() == (
        "", "error: line 1: not UTF-8 (invalid continuation byte at "
            "byte 6)\n")


@pytest.mark.parametrize("line3, fault", [
    (b"a,0.5,oops", "invalid number 'oops'"),
    (b"", "expected 3 fields, got 1"),
])
def test_earlier_fault_wins_over_undecodable_bytes(tmp_path, capsys, line3,
                                                   fault):
    # Line 3's fault, a bad number or an interior blank line, comes first
    # in file order, so it is named even though line 4, read in the same
    # block, cannot be decoded.
    hier, preds = tmp_path / "h.tsv", tmp_path / "p.csv"
    hier.write_text("a\tr\nb\tr\n")
    preds.write_bytes(PREDICTIONS_MAGIC.encode() + b"\ntruth,a,b\n"
                      + line3 + b"\nb,0.5,0.\xff5\n")
    for args in (["eval", "--hierarchy", str(hier)],
                 ["calibrate", "--val-predictions", str(preds)]):
        assert main([*args, "--predictions", str(preds)]) == 2
        assert capsys.readouterr() == ("", f"error: line 3: {fault}\n")


@pytest.mark.parametrize("command, val_header, extra, message", [
    ("eval", None, ["--k", "1,99"], "k_list entries must lie in [1, 4]"),
    ("shuffle-eval", None, ["--seed", "0", "--k", "1,99"],
     "k_list entries must lie in [1, 4]"),
    ("shuffle-eval", None, ["--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
    ("calibrate", "truth,b,a,c,d\n", [],
     "validation and test files disagree on class order; pass "
     "--hierarchy to align them by name"),
    ("calibrate", "truth,a,b,c,d\n", [],
     "cannot fit a temperature on an empty set"),
], ids=["eval-k", "shuffle-eval-k", "shuffle-eval-seed", "calibrate-order",
        "calibrate-empty-val"])
def test_flag_errors_come_before_the_rows(tmp_path, capsys, monkeypatch,
                                          command, val_header, extra,
                                          message):
    # Line 3 of the prediction file is malformed, yet the flag or
    # validation-split fault is named, and no data row is parsed first.
    # The validation files have a header and no rows.
    hier, preds = tmp_path / "h.tsv", tmp_path / "p.csv"
    hier.write_text(SHUFFLE_HIER)
    preds.write_text(SHUFFLE_PREDS.replace("a,0.4,0.1,0.3,0.2",
                                           "a,0.5,oops,0.25,0.25"))
    if command == "calibrate":
        val = tmp_path / "v.csv"
        val.write_text(PREDICTIONS_MAGIC + "\n" + val_header)
        args = ["--val-predictions", str(val)]
    else:
        args = ["--hierarchy", str(hier)]
    argv = [command, *args, "--predictions", str(preds), *extra]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")

    def unread(*a):
        raise AssertionError("a data row was parsed")

    with monkeypatch.context() as m:
        m.setattr(dataio, "_parse_rows", unread)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(FormatError, match="^line 3: invalid number"):
        load_predictions(preds)


@pytest.mark.parametrize("K, ks", [(4, [1]), (8, [1, 5]), (32, [1, 5, 20])])
def test_default_k_list_fits_the_tree(tmp_path, capsys, K, ks):
    h, p = str(tmp_path / "h.tsv"), str(tmp_path / "p.csv")
    assert main(["simulate", "--seed", "2", "--classes", str(K),
                 "--samples", "40", "--tree-mode", "balanced-binary",
                 "--out-predictions", p, "--out-hierarchy", h]) == 0
    for command, extra in (("eval", []), ("shuffle-eval", ["--seed", "1"])):
        args = [command, "--hierarchy", h, "--predictions", p, *extra]
        assert main(args) == 0
        out = capsys.readouterr().out
        reports = json.loads(out)
        for rep in (reports["crm"].values() if command == "shuffle-eval"
                    else [reports]):
            assert [int(k) for k in rep["distance_at_k"]] == ks
        assert main([*args, "--k", ",".join(map(str, ks))]) == 0
        assert capsys.readouterr().out == out
    tax = load_hierarchy(h)
    preds = load_predictions(p, tax)
    assert list(full_report(preds, tax, "crm").distance_at_k) == ks


def damaged(data: bytes, how: str) -> bytes:
    # A deflate stream cut short, or one with bytes 40-59 flipped; the
    # gzip header is intact, so neither is caught as a bad header.
    z = gzip.compress(data, mtime=0)
    if how == "truncated":
        return z[:len(z) // 2]
    return z[:40] + bytes(b ^ 0xFF for b in z[40:60]) + z[60:]


@pytest.mark.parametrize("how", ["truncated", "flipped"])
@pytest.mark.parametrize("command, flag", [
    ("eval", "--predictions"),
    ("calibrate", "--val-predictions"),
    ("build-costs", "--hierarchy"),
])
def test_damaged_gzip_input_exits_two(corpus, tmp_path, capsys, command,
                                      flag, how):
    # A prediction file names the line the reader had reached.
    args = {
        "eval": ["--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"]],
        "calibrate": ["--val-predictions", corpus["val"],
                      "--predictions", corpus["preds"]],
        "build-costs": ["--hierarchy", corpus["hier"]],
    }[command]
    at = args.index(flag) + 1
    bad = tmp_path / "bad.gz"
    bad.write_bytes(damaged(Path(args[at]).read_bytes(), how))
    args[at] = str(bad)
    assert main([command, *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    where = "" if flag == "--hierarchy" else r"line \d+: "
    assert re.fullmatch(f"error: {where}damaged gzip data \\(.+\\)\n", err)
    if command == "eval":
        # Report loaders read through the same opener.
        report = tmp_path / "r.json"
        tax = load_hierarchy(corpus["hier"])
        preds = load_predictions(corpus["preds"], tax)
        text = metrics_report_to_json(full_report(preds, tax, "crm",
                                                  k_list=(1, 5)))
        report.write_bytes(damaged(text.encode(), how))
        with pytest.raises(FormatError, match="damaged gzip data"):
            load_metrics_report(report)


def test_earlier_fault_wins_over_damaged_gzip(tmp_path, capsys):
    # As with undecodable bytes: line 3's fault is named, though the
    # stream is cut thousands of lines further down the same block.
    hier, preds = tmp_path / "h.tsv", tmp_path / "p.csv"
    hier.write_text("a\tr\nb\tr\n")
    x = np.random.default_rng(3).random(5000).tolist()
    rows = "".join(f"a,{v!r},{1 - v!r}\n" for v in x).encode()
    for line3, fault in ((b"a,0.5,0.5", r"line \d{2,}: damaged gzip data"),
                         (b"a,0.5,oops", "line 3: invalid number 'oops'")):
        preds.write_bytes(damaged(PREDICTIONS_MAGIC.encode() + b"\ntruth,a,b\n"
                                  + line3 + b"\n" + rows, "truncated"))
        for args in (["eval", "--hierarchy", str(hier)],
                     ["calibrate", "--val-predictions", str(preds)]):
            assert main([*args, "--predictions", str(preds)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and re.match(f"error: {fault}", err), err


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
    # perfbench/trace_op.py rebinds these names to time the CLI path,
    # check.py imports the report functions and run.py's setup probe
    # calls two package names; a removal here would otherwise surface
    # only when the benchmark runs.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    loaded = {}
    for name in ("trace_op", "check"):
        spec = importlib.util.spec_from_file_location(name,
                                                      bench / f"{name}.py")
        loaded[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loaded[name])
    for targets in loaded["trace_op"].PATCHES.values():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), (owner, attr)
    for attr in ("build_cost_matrix", "load_hierarchy"):
        assert callable(getattr(hier_risk, attr, None)), attr
    tax = parse_taxonomy(SHUFFLE_HIER)
    preds = PredictionSet(np.array([[0.4, 0.0, 0.3, 0.3]]), np.array([2]),
                          ["a", "b", "c", "d"])
    top1 = batch_crm_top1(preds, build_cost_matrix(tax), threads=1)
    assert top1.tolist() == [2]


def test_theorem1_check_fails_loudly(corpus, capsys, monkeypatch):
    # A ranking whose rank 0 moves every argmax must trip the check,
    # which reads rank 0 of the ranking the report is counted from.
    def shifted(preds, C, basis, depth=None):
        ranked = batch_apply(preds, C, basis, depth=depth)
        perm = ranked.permutation.copy()
        perm[:, 0] = (np.argmax(preds.probs, axis=1) + 1) % preds.K
        return Ranking(perm, ranked.scores, ranked.basis)
    monkeypatch.setattr("hier_risk.cli.batch_apply", shifted)
    code = main(["eval", "--hierarchy", corpus["hier"],
                 "--predictions", corpus["preds"], "--k", "1,5",
                 "--theorem1-fastpath"])
    assert code == 1
    assert capsys.readouterr().err.startswith("internal error:")


@pytest.mark.parametrize("command", ["eval", "calibrate", "shuffle-eval"])
def test_perfbench_trace_op_runs_eval(tmp_path, checkout_env, command):
    # trace_op.py rebinds the CLI's names, walks every row of each
    # ranking and calls batch_crm_top1 with threads=; run it end to end
    # on each ranking subcommand so a change to either shows here.
    root = Path(__file__).resolve().parent.parent
    h, p = str(tmp_path / "h.tsv"), str(tmp_path / "p.csv")
    assert main(["simulate", "--seed", "4", "--classes", "16",
                 "--samples", "200", "--tree-mode", "random-attachment",
                 "--out-predictions", p, "--out-hierarchy", h]) == 0
    args = {
        "eval": ["--hierarchy", h, "--basis", "crm", "--k", "1,5"],
        "calibrate": ["--val-predictions", p, "--source", "crm-selected",
                      "--hierarchy", h],
        "shuffle-eval": ["--hierarchy", h, "--seed", "1", "--k", "1,5"],
    }[command]
    spans = tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_op.py"),
         str(spans), "--", command, *args, "--predictions", p,
         "--threads", "2", "--out", str(tmp_path / "m.json")],
        env=checkout_env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    doc = json.loads(spans.read_text())
    assert doc["rc"] == 0
    assert {"riskmin.crm_top1", "riskmin.rank"} <= set(doc["totals"])


def test_every_exported_name_resolves():
    # A public name removed from a module must leave its __all__ too.
    modules = [hier_risk] + [importlib.import_module(f"hier_risk.{m.name}")
                             for m in pkgutil.iter_modules(hier_risk.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
