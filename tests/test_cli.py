import argparse
import errno
import gzip
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import hier_risk
from hier_risk import dataio
from hier_risk import (FormatError, PredictionSet, apply_temperature,
                       bin_confidences, build_cost_matrix, ece,
                       fit_temperature, full_report,
                       load_hierarchy, load_metrics_report, load_predictions,
                       mce, parse_taxonomy, save_hierarchy,
                       save_predictions)
from hier_risk.cli import main
from hier_risk.dataio import (PREDICTIONS_MAGIC, cost_matrix_to_csv,
                              metrics_report_to_json)
from hier_risk.predictions import _passed
from hier_risk.riskmin import Ranking, batch_apply, batch_crm_top1
from test_taxonomy import caterpillar


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
    for extra in ([], [], ["--threads", "3"]):
        assert main(args + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


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
    # The spilled fit keeps the bits of the in-memory one.
    val = load_predictions(corpus["val"])
    assert doc["temperature"] == fit_temperature(val)
    # The scaled rows are binned as apply_temperature returns them: a
    # softmax row whose sum is not exactly 1.0 is not divided again.
    test = load_predictions(corpus["preds"])
    q = apply_temperature(test.probs, doc["temperature"])
    scaled = _passed(q, test.truth, test.class_names)
    C = build_cost_matrix(load_hierarchy(corpus["hier"]))
    for report, costs, basis in ((doc, None, "likelihood"),
                                 (doc2, C, "crm")):
        bins = bin_confidences(scaled, batch_apply(scaled, costs, basis,
                                                   depth=1), 15)
        assert (report["ece_post"], report["mce_post"]) == (ece(bins),
                                                             mce(bins))


def test_calibrate_warns_on_a_one_hot_split(corpus, tmp_path, capsys):
    # No finite temperature fits one-hot rows: calibrate warns and
    # reports T = 1, as fit_temperature does.
    names = load_predictions(corpus["preds"]).class_names
    rows = [f"{n}," + ",".join("1" if m == n else "0" for m in names)
            for n in names]
    val = tmp_path / "onehot.csv"
    val.write_text("\n".join([PREDICTIONS_MAGIC, "truth," + ",".join(names),
                              *rows]) + "\n")
    with pytest.warns(RuntimeWarning, match="one-hot"):
        code = main(["calibrate", "--val-predictions", str(val),
                     "--predictions", corpus["preds"]])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["temperature"] == 1.0


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


def test_calibrate_leaves_no_temporary_file(corpus, tmp_path, capsys,
                                           monkeypatch):
    # The validation split's floored logs go to one anonymous temporary
    # file, closed on success and on a row fault in either split.
    made, make = [], tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    names = load_predictions(corpus["preds"]).class_names
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{PREDICTIONS_MAGIC}\ntruth,{','.join(names)}\n"
                   f"{names[0]},oops\n")
    for val, test, err in ((corpus["val"], corpus["preds"], ""),
                           (bad, corpus["preds"], "error: line 3"),
                           (corpus["val"], bad, "error: line 3")):
        made.clear()
        code = main(["calibrate", "--val-predictions", str(val),
                     "--predictions", str(test)])
        assert code == (2 if err else 0)
        assert capsys.readouterr().err.startswith(err)
        assert len(made) == 1 and made[0].closed
        assert not any(tmp.iterdir())

    # A failed write, as on a full disk, exits 2 with its message.
    class Full(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tempfile, "TemporaryFile", Full)
    assert main(["calibrate", "--val-predictions", corpus["val"],
                 "--predictions", corpus["preds"]]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n")


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


def test_simulate_validates_config(tmp_path, capsys, monkeypatch):
    # Every refused config, and running out of memory while the labels
    # are drawn ahead, exits 2 before either output file is opened.
    p, h = tmp_path / "p.csv", tmp_path / "h.tsv"
    outs = ["--out-predictions", str(p), "--out-hierarchy", str(h)]
    code = main(["simulate", "--seed", "1", "--classes", "6",
                 "--samples", "5", "--tree-mode", "balanced-binary", *outs])
    assert code == 2
    assert "power of 2" in capsys.readouterr().err
    assert not p.exists() and not h.exists()
    code = main(["simulate", "--seed", "-5", "--classes", "4",
                 "--samples", "5", *outs])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: seed must be a non-negative integer, got -5\n")
    assert not p.exists() and not h.exists()
    # A row of 256 draws near 1e306 would sum to inf: no overflow
    # warning, one line naming the concentration.
    code = main(["simulate", "--seed", "1", "--classes", "256",
                 "--samples", "500", "--concentration", "1e306", *outs])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: concentration 1e+306 is too large")
    assert err.count("\n") == 1
    assert not p.exists() and not h.exists()

    real = np.random.Generator

    class Exhausted:
        def __init__(self, bit_generator):
            self.gamma = real(bit_generator).gamma

        def random(self, *args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(np.random, "Generator", Exhausted)
    code = main(["simulate", "--seed", "1", "--classes", "4",
                 "--samples", "5", *outs])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (Unable to allocate")
    assert err.count("\n") == 1
    assert not p.exists() and not h.exists()


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


def _peak_mib(env, *args):
    """Run ``python -m hier_risk *args`` in a child started by LAUNCH;
    check that it exits 0 and return its peak RSS in MiB."""
    run = subprocess.run(
        [sys.executable, "-c", LAUNCH, sys.executable, "-m", "hier_risk",
         *map(str, args)],
        capture_output=True, text=True, env=env,
    )
    rc, maxrss_kib = map(int, run.stdout.split()[-2:])  # after any text
    assert rc == 0, run.stderr
    return maxrss_kib / 1024


def _eval_peak_mib(tmp_path, env, h, p, basis):
    """Run eval on the hierarchy h and predictions p in a child started
    by LAUNCH; return the child's peak RSS in MiB."""
    out = tmp_path / "m.json"
    peak = _peak_mib(env, "eval", "--hierarchy", h, "--predictions", p,
                     "--basis", basis, "--out", out)
    assert load_metrics_report(out).n_mistakes >= 0
    return peak


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_wide_eval_peak_memory_stays_under_ceiling(tmp_path, checkout_env):
    # K=9999 random tree (height 25): the uint8 LCA table is 100 MB, and
    # it is put into class order in place, so it is the only one. The
    # int64 table peaked at about 1.1 GB here; the compact one at about
    # 260 MB, and at 230 MB when the build held two of them. One table
    # peaks at about 138 MB, measured on a 2-vCPU Linux VM; the ceiling
    # is below what a second table would add.
    h, p = tmp_path / "h.tsv", tmp_path / "p.csv"
    assert main(["simulate", "--seed", "1", "--classes", "9999",
                 "--samples", "6", "--concentration", "0.3",
                 "--tree-mode", "random-attachment",
                 "--out-predictions", str(p), "--out-hierarchy", str(h)]) == 0
    assert _eval_peak_mib(tmp_path, checkout_env, h, p, "crm") < 170


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_wide_crm_eval_peak_stays_near_the_import_floor(tmp_path,
                                                        checkout_env):
    # The wide-crm benchmark shape: K=1024 random tree, 250 rows. Above
    # the peak of ``--help`` (the interpreter and numpy), eval --basis
    # crm holds the taxonomy, its 1 MiB LCA table and one block of 12
    # rows with its tree sum: about 3.4 MiB, measured on a 2-vCPU Linux
    # VM. Ranking 64-row blocks by a BLAS product, after building the
    # table through a second one, took 4.7 to 4.9 MiB.
    h, p = tmp_path / "h.tsv", tmp_path / "p.csv"
    assert main(["simulate", "--seed", "1", "--classes", "1024",
                 "--samples", "250", "--concentration", "0.3",
                 "--tree-mode", "random-attachment",
                 "--out-predictions", str(p), "--out-hierarchy", str(h)]) == 0
    floor = _peak_mib(checkout_env, "--help")
    peak = _eval_peak_mib(tmp_path, checkout_env, h, p, "crm")
    assert peak - floor < 4.0, (peak, floor)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_deep_eval_peak_memory_stays_under_ceiling(tmp_path, checkout_env):
    # test_taxonomy's caterpillar tree at K=3001, height 3000. eval
    # --basis likelihood peaks at about 66 MB with its uint16 K x K table
    # (18 MB, two while it is built). Two uncommitted prototypes of the
    # same report, each measured once on a 2-vCPU Linux VM, peaked at
    # about 200 MB gathering from a (K, depth + 1) array of root paths and
    # at 41 MB from the K - 1 adjacent-leaf LCA heights in depth-first
    # order. The ceiling lets the table and a depth-free encoding
    # through, not root paths.
    tax = caterpillar(3000)
    assert (tax.K, tax.heights()[tax.root]) == (3001, 3000)
    h, p = tmp_path / "h.tsv", tmp_path / "p.csv"
    save_hierarchy(tax, str(h))
    rng = np.random.default_rng(1)
    save_predictions(PredictionSet(rng.dirichlet(np.ones(tax.K), size=200),
                                   rng.integers(0, tax.K, 200),
                                   tax.class_names), str(p))
    assert _eval_peak_mib(tmp_path, checkout_env, h, p, "likelihood") < 128


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux")
def test_streamed_peak_memory_is_flat_in_n(tmp_path, checkout_env):
    # simulate, eval and calibrate write or rank and reduce one block of
    # rows at a time, so 8x the rows (3.5 -> 28 MB of CSV on the tall
    # shape) must not move their peak. Holding the N x K matrices grew
    # eval's by 24 MB and simulate's by 12 MB. calibrate's validation
    # split is spilled as floored logs and read back a block at a time,
    # so 8x its rows must not move the peak either; holding the split
    # and its logs grew it by 18 MB.
    tall = ["--classes", "32", "--concentration", "0.05",
            "--tree-mode", "balanced-binary", "--truth-mode", "corrupted",
            "--corrupt-rho", "0.2"]
    h, v = str(tmp_path / "h.tsv"), str(tmp_path / "v.csv")
    assert main(["simulate", "--seed", "2", "--samples", "2000", *tall,
                 "--out-predictions", v, "--out-hierarchy", h]) == 0
    peaks = {}
    for n in (5000, 40000):
        p = str(tmp_path / f"p{n}.csv")
        calibrate = ["calibrate", "--hierarchy", h, "--source",
                     "crm-selected", "--out", str(tmp_path / "r.json")]
        ops = {
            "simulate": ["simulate", "--seed", "1", "--samples", str(n),
                         *tall, "--out-predictions", p, "--out-hierarchy",
                         h],
            "eval": ["eval", "--hierarchy", h, "--basis", "crm",
                     "--predictions", p, "--out", str(tmp_path / "r.json")],
            "calibrate": [*calibrate, "--val-predictions", v,
                          "--predictions", p],
            "calibrate-val": [*calibrate, "--val-predictions", p,
                              "--predictions", v],
        }
        for name, op in ops.items():
            peaks[name, n] = _peak_mib(checkout_env, *op)
    for name in ops:
        assert peaks[name, 40000] - peaks[name, 5000] < 4, peaks


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
                 "--predictions", corpus["preds"], "--k", "1,5"])
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


def test_readme_flags_are_cli_options():
    # Every --flag the README names must be an option of some
    # subcommand, so a removed flag cannot linger in the docs. pip's
    # --no-build-isolation is the one flag that is not the CLI's.
    from hier_risk.cli import _build_parser
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in sub.choices.values()
               for opt in p._option_string_actions}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named - options == {"--no-build-isolation"}
