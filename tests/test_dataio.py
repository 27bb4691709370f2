import gzip
import json
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hier_risk import (CalibrationReport, CostMatrix, FormatError,
                       MetricsReport, PredictionSet, SynthConfig, Taxonomy,
                       TaxonomyError, build_cost_matrix, full_report,
                       gen_predictions, gen_taxonomy, load_calibration_report,
                       load_hierarchy, load_metrics_report,
                       load_predictions, parse_taxonomy, save_cost_matrix,
                       save_hierarchy, save_predictions)
from hier_risk.dataio import (PREDICTIONS_MAGIC, calibration_report_to_json,
                              cost_matrix_to_csv, metrics_report_to_json)

TWO_BRANCH_TEXT = "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n"


def synth(seed=1, K=6, N=40):
    cfg = SynthConfig(seed=seed, K=K, N=N, tree_mode="random-attachment")
    tax = gen_taxonomy(cfg)
    return tax, gen_predictions(cfg, tax)


def edge_map(tax):
    return {tax.names[i]: tax.names[p]
            for i, p in enumerate(tax.parent) if p >= 0}


def test_hierarchy_round_trip(tmp_path):
    # Node indices may shift (the writer emits node-index order, the
    # parser interns in line order) but the tree and the class-ordered
    # cost matrix must survive unchanged.
    tax = parse_taxonomy(TWO_BRANCH_TEXT)
    path = tmp_path / "h.tsv"
    save_hierarchy(tax, path)
    back = load_hierarchy(path)
    assert edge_map(back) == edge_map(tax)
    assert [back.names[i] for i in back.leaves] == \
        [tax.names[i] for i in tax.leaves]
    assert np.array_equal(back.lca_matrix(), tax.lca_matrix())


def test_hierarchy_names_the_reader_would_change_are_refused(tmp_path):
    # "#a<TAB>r" reads back as a comment, so class '#a' would vanish.
    path = tmp_path / "h.tsv"
    with pytest.raises(FormatError, match="'#a'"):
        save_hierarchy(Taxonomy(["#a", "b", "c", "r"], [3, 3, 3, -1]), path)
    assert not path.exists()
    # A root is only ever a parent, so '#' does not start its line.
    save_hierarchy(Taxonomy(["a", "b", "#r"], [2, 2, -1]), path)
    assert edge_map(load_hierarchy(path)) == {"a": "#r", "b": "#r"}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_hierarchy_written_reads_back_as_written(data):
    # Random trees over names built from the characters the reader
    # treats specially: each is refused before a file exists, or reads
    # back with the same classes and child -> parent name pairs.
    n = data.draw(st.integers(3, 7))
    names = data.draw(st.lists(st.text("ab#\t\n\r\ufeff", max_size=3),
                               min_size=n, max_size=n, unique=True))
    place = data.draw(st.permutations(range(n)))
    parent = [-1] * n
    for i in range(n - 1):  # each node hangs below a later one
        parent[place[i]] = place[data.draw(st.integers(i + 1, n - 1))]
    try:
        tax = Taxonomy(names, parent)
    except TaxonomyError:  # fewer than two leaves
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.tsv"
        try:
            save_hierarchy(tax, path)
        except FormatError as e:
            assert not path.exists()
            assert any(f"node name {name!r} " in str(e) for name in names)
            return
        back = load_hierarchy(path)
    assert back.class_names == tax.class_names
    assert edge_map(back) == edge_map(tax)


def test_hierarchy_gzip_round_trip_is_byte_stable(tmp_path):
    tax, _ = synth()
    a, b = tmp_path / "a.tsv.gz", tmp_path / "b.tsv.gz"
    save_hierarchy(tax, a)
    save_hierarchy(tax, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()[:2] == b"\x1f\x8b"
    back = load_hierarchy(a)
    assert back.names == tax.names


def test_predictions_round_trip(tmp_path):
    tax, preds = synth(seed=4, K=8, N=60)
    path = tmp_path / "p.csv"
    save_predictions(preds, path)
    back = load_predictions(path, tax)
    assert back.class_names == preds.class_names
    assert np.array_equal(back.truth, preds.truth)
    # Shortest-repr floats reload exactly; only the stored-row sum
    # check may renormalize again, which moves entries below 1e-12.
    assert np.allclose(back.probs, preds.probs, rtol=0, atol=1e-12)


def test_predictions_gzip_round_trip(tmp_path):
    tax, preds = synth(seed=6, K=4, N=10)
    path = tmp_path / "p.csv.gz"
    save_predictions(preds, path)
    back = load_predictions(path, tax)
    assert np.array_equal(back.truth, preds.truth)


def test_shuffled_columns_load_identically(tmp_path):
    # The file's column order must not matter once a taxonomy aligns
    # the classes by name.
    tax, preds = synth(seed=9, K=5, N=30)
    straight = tmp_path / "straight.csv"
    save_predictions(preds, straight)
    lines = straight.read_text().splitlines()
    header = lines[1].split(",")
    order = [3, 1, 4, 2, 0]
    new_header = ["truth"] + [header[1 + i] for i in order]
    rows = []
    for line in lines[2:]:
        parts = line.split(",")
        rows.append(",".join([parts[0]] + [parts[1 + i] for i in order]))
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([lines[0], ",".join(new_header)] + rows)
                        + "\n")
    a = load_predictions(straight, tax)
    b = load_predictions(shuffled, tax)
    assert a.class_names == b.class_names
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.probs, b.probs)
    ra = full_report(a, tax, "crm", k_list=(1, 3))
    rb = full_report(b, tax, "crm", k_list=(1, 3))
    assert ra == rb


def test_without_taxonomy_file_order_stands(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(PREDICTIONS_MAGIC
                    + "\ntruth,z,y\nz,0.75,0.25\ny,0.5,0.5\n")
    preds = load_predictions(path)
    assert preds.class_names == ["z", "y"]
    assert preds.truth.tolist() == [0, 1]


def write_pred_file(tmp_path, body, name="bad.csv"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_prediction_format_errors_carry_line_numbers(tmp_path):
    cases = [
        ("nope\ntruth,a,b\n", r"line 1: expected format line"),
        (PREDICTIONS_MAGIC + "\n", r"line 2: missing header"),
        (PREDICTIONS_MAGIC + "\nlabel,a,b\nx,1,0\n", r"line 2: header"),
        (PREDICTIONS_MAGIC + "\ntruth,a,a\na,0.5,0.5\n",
         r"line 2: duplicate class name"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.5\n",
         r"line 3: expected 3 fields, got 2"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\nq,0.5,0.5\n",
         r"line 3: unknown truth label 'q'"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.5,oops\n",
         r"line 3: invalid number 'oops'"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.5,inf\n",
         r"line 3: non-finite"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,-0.25,1.25\n",
         r"line 3: negative"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.5,0.5\nb,0.9,0.2\n",
         r"line 4: row probabilities sum"),
        # Full messages; the sum prints as a plain float.
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.5,0.5\nb,0.9,0.2\n",
         r"^line 4: row probabilities sum to 1\.1, "
         r"outside the 1e-6 tolerance$"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.5,inf\n",
         r"^line 3: non-finite value 'inf'$"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,-0.25,1.25\n",
         r"^line 3: negative probability '-0\.25'$"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.5,oops\n",
         r"^line 3: invalid number 'oops'$"),
        # Several faults: the first in file order wins.
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,inf,oops\n",
         r"^line 3: non-finite value 'inf'$"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,oops,inf\n",
         r"^line 3: invalid number 'oops'$"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,-1,2\nb,0.5\n",
         r"^line 3: negative probability '-1\.0'$"),
        (PREDICTIONS_MAGIC + "\ntruth,a,b\na,0.9,0.2\nb,0.5,oops\n",
         r"^line 3: row probabilities sum to 1\.1, "
         r"outside the 1e-6 tolerance$"),
    ]
    for body, pattern in cases:
        with pytest.raises(FormatError, match=pattern):
            load_predictions(write_pred_file(tmp_path, body))
    # With a hierarchy the columns are re-mapped, but the fault is still
    # named by the file's own token and line.
    tax = parse_taxonomy(TWO_BRANCH_TEXT)
    body = (PREDICTIONS_MAGIC + "\ntruth,d,c,b,a\n"
            "a,0.25,0.25,0.25,0.25\nb,0.5,0.25,-0.5,0.75\n")
    with pytest.raises(FormatError,
                       match=r"^line 4: negative probability '-0\.5'$"):
        load_predictions(write_pred_file(tmp_path, body), tax)


def test_prediction_set_names_first_fault_in_row_major_order():
    names = ["a", "b", "c"]
    cases = [
        ([[0.5, 0.5, 0.0], [0.5, -1.0, np.nan]],
         r"^row 1: negative probability$"),
        ([[0.5, 0.5, 0.0], [np.nan, -1.0, 0.5]],
         r"^row 1: non-finite probability$"),
        ([[0.5, 0.5, 0.1], [0.5, 0.5, -1.0]],
         r"^row 1: negative probability$"),
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.1]],
         r"^row 1: probabilities sum to 1\.1, outside the 1e-6 tolerance$"),
    ]
    for probs, pattern in cases:
        with pytest.raises(ValueError, match=pattern):
            PredictionSet(np.array(probs), np.array([0, 0]), names)


def test_taxonomy_name_mismatch_is_detailed(tmp_path):
    tax = parse_taxonomy(TWO_BRANCH_TEXT)
    body = PREDICTIONS_MAGIC + "\ntruth,a,b,c,x\na,0.25,0.25,0.25,0.25\n"
    with pytest.raises(FormatError,
                       match=r"missing \['d'\], unexpected \['x'\]"):
        load_predictions(write_pred_file(tmp_path, body), tax)


def test_save_predictions_rejects_unwritable_names(tmp_path):
    # Refused before the file opens: a lone surrogate, which UTF-8
    # cannot encode, used to leave an empty file behind.
    path = tmp_path / "x.csv"
    for bad in ("a,b", '"a', "\udc80"):
        preds = PredictionSet(np.array([[0.5, 0.5]]), np.array([0]),
                              [bad, "c"])
        with pytest.raises(FormatError, match="cannot be written to CSV"):
            save_predictions(preds, path)
        with pytest.raises(FormatError, match="cannot be written to CSV"):
            save_cost_matrix(CostMatrix([[0, 1], [1, 0]], [bad, "c"]), path)
        assert not path.exists()


def sample_metrics_report():
    return MetricsReport(
        top1_error=0.25,
        distance_at_k={1: 0.5, 5: 1.25},
        severity_over_mistakes=2.0,
        severity_over_all=0.5,
        n_mistakes=10,
        histogram={1: 4, 2: 6, 3: 0},
    )


def test_metrics_report_round_trip(tmp_path):
    report = sample_metrics_report()
    path = tmp_path / "m.json"
    path.write_text(metrics_report_to_json(report))
    assert load_metrics_report(path) == report
    # Irrational values survive because 17 significant digits round-trip
    # any double exactly.
    report2 = MetricsReport(top1_error=1 / 3, distance_at_k={1: 2 / 7},
                            severity_over_mistakes=None,
                            severity_over_all=np.pi / 3, n_mistakes=0,
                            histogram={1: 0})
    path.write_text(metrics_report_to_json(report2))
    back = load_metrics_report(path)
    assert back.top1_error == 1 / 3
    assert back.distance_at_k[1] == 2 / 7
    assert back.severity_over_mistakes is None
    assert back.severity_over_all == np.pi / 3


def test_metrics_report_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(metrics_report_to_json(sample_metrics_report()))
    b.write_text(metrics_report_to_json(sample_metrics_report()))
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert list(doc) == ["top1_error", "distance_at_k",
                         "severity_over_mistakes", "severity_over_all",
                         "n_mistakes", "histogram"]
    assert list(doc["histogram"]) == ["1", "2", "3"]


def test_null_severity_serializes_and_loads(tmp_path):
    report = MetricsReport(top1_error=0.0, distance_at_k={1: 0.0},
                           severity_over_mistakes=None,
                           severity_over_all=0.0, n_mistakes=0,
                           histogram={1: 0})
    path = tmp_path / "m.json"
    path.write_text(metrics_report_to_json(report))
    assert '"severity_over_mistakes": null' in path.read_text()
    assert load_metrics_report(path).severity_over_mistakes is None


def test_report_loader_rejects_bad_documents(tmp_path):
    path = tmp_path / "m.json"
    good = json.loads(
        '{"top1_error": 0.25, "distance_at_k": {"1": 0.5},'
        ' "severity_over_mistakes": null, "severity_over_all": 0.5,'
        ' "n_mistakes": 10, "histogram": {"1": 4}}'
    )
    for mutate, pattern in [
        (lambda d: d.update(extra=1), "unknown fields"),
        (lambda d: d.pop("top1_error"), "missing fields"),
        (lambda d: d.update(top1_error="x"), "must be a number"),
        (lambda d: d.update(n_mistakes=True), "must be an integer"),
        (lambda d: d.update(n_mistakes=1.5), "must be an integer"),
        (lambda d: d.update(histogram={"x": 1}), "bad key"),
        (lambda d: d.update(histogram={"\u00b2": 1}), "bad key"),
        (lambda d: d.update(distance_at_k={"1": None}), "bad value"),
        (lambda d: d.update(histogram={"1": 2.5}), "must be an integer"),
        # The emitter never writes these, so the loader must not read them.
        (lambda d: d.update(top1_error=math.nan),
         "'top1_error' must be finite"),
        (lambda d: d.update(severity_over_all=math.inf),
         "'severity_over_all' must be finite"),
        (lambda d: d.update(severity_over_mistakes=-math.inf),
         "'severity_over_mistakes' must be finite"),
        (lambda d: d.update(top1_error=10 ** 400), "must be finite"),
        (lambda d: d.update(distance_at_k={"1": math.nan}),
         "'distance_at_k.1' must be finite"),
        (lambda d: d.update(distance_at_k={"1": 0.5, "01": 9}), "bad key"),
        (lambda d: d.update(histogram={"04": 4}), "bad key"),
        (lambda d: d.update(histogram={"\u0661": 4}), "bad key"),
    ]:
        doc = dict(good)
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=pattern):
            load_metrics_report(path)
    calibration = {"ece_pre": 0.1, "ece_post": 0.05, "mce_pre": 0.3,
                   "mce_post": 0.2, "temperature": 1.5,
                   "confidence_source": "max-likelihood"}
    for value in (math.nan, math.inf, -math.inf):
        path.write_text(json.dumps(dict(calibration, temperature=value)))
        with pytest.raises(FormatError, match="'temperature' must be finite"):
            load_calibration_report(path)


def test_report_loaders_read_json_syntax_faults_and_a_bom(tmp_path):
    path = tmp_path / "m.json"
    text = metrics_report_to_json(sample_metrics_report())
    # A report cut short is a FormatError naming its line and column.
    path.write_text(text[:40])
    with pytest.raises(FormatError, match=r"^line \d+, column \d+: metrics "
                                          r"report is not valid JSON \("):
        load_metrics_report(path)
    path.write_text('{"ece_pre": 0.1,')
    with pytest.raises(FormatError, match=r"^line 1, column 17: calibration "
                                          r"report is not valid JSON \("):
        load_calibration_report(path)
    # A byte-order mark is dropped, as on hierarchy and prediction files,
    # and an undecodable byte is named after it.
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_metrics_report(path) == sample_metrics_report()
    path.write_bytes(b"\xef\xbb\xbf{\xff}")
    with pytest.raises(FormatError, match=r"^line 1: not UTF-8 \(invalid "
                                          r"start byte at byte 2\)$"):
        load_metrics_report(path)


def test_metrics_report_json_frozen():
    empty = MetricsReport(top1_error=1 / 3, distance_at_k={},
                          severity_over_mistakes=None,
                          severity_over_all=0.1, n_mistakes=0, histogram={})
    assert metrics_report_to_json(empty) == (
        '{\n'
        '  "top1_error": 0.33333333333333331,\n'
        '  "distance_at_k": {},\n'
        '  "severity_over_mistakes": null,\n'
        '  "severity_over_all": 0.10000000000000001,\n'
        '  "n_mistakes": 0,\n'
        '  "histogram": {}\n'
        '}\n'
    )
    full = MetricsReport(top1_error=0.25, distance_at_k={5: 1.25, 1: 0.5},
                         severity_over_mistakes=2.0, severity_over_all=0.5,
                         n_mistakes=10, histogram={2: 6, 1: 4, 3: 0})
    assert metrics_report_to_json(full) == (
        '{\n'
        '  "top1_error": 0.25,\n'
        '  "distance_at_k": {\n'
        '    "1": 0.5,\n'
        '    "5": 1.25\n'
        '  },\n'
        '  "severity_over_mistakes": 2,\n'
        '  "severity_over_all": 0.5,\n'
        '  "n_mistakes": 10,\n'
        '  "histogram": {\n'
        '    "1": 4,\n'
        '    "2": 6,\n'
        '    "3": 0\n'
        '  }\n'
        '}\n'
    )


def test_calibration_report_json_frozen():
    report = CalibrationReport(ece_pre=0.12, ece_post=1 / 3, mce_pre=0.3,
                               mce_post=0.2, temperature=1.7,
                               confidence_source="crm-selected")
    assert calibration_report_to_json(report) == (
        '{\n'
        '  "ece_pre": 0.12,\n'
        '  "ece_post": 0.33333333333333331,\n'
        '  "mce_pre": 0.29999999999999999,\n'
        '  "mce_post": 0.20000000000000001,\n'
        '  "temperature": 1.7,\n'
        '  "confidence_source": "crm-selected"\n'
        '}\n'
    )


def test_calibration_report_round_trip(tmp_path):
    report = CalibrationReport(ece_pre=0.12, ece_post=0.05, mce_pre=0.3,
                               mce_post=0.2, temperature=1.7,
                               confidence_source="crm-selected")
    path = tmp_path / "c.json"
    path.write_text(calibration_report_to_json(report))
    assert load_calibration_report(path) == report
    doc = json.loads(path.read_text())
    assert list(doc) == ["ece_pre", "ece_post", "mce_pre", "mce_post",
                         "temperature", "confidence_source"]
    for bad in ("vibes", ["crm-selected"]):
        doc["confidence_source"] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="confidence source"):
            load_calibration_report(path)


def test_cost_matrix_csv_frozen():
    C = build_cost_matrix(parse_taxonomy(TWO_BRANCH_TEXT))
    assert cost_matrix_to_csv(C) == (
        ",a,b,c,d\n"
        "a,0,1,2,2\n"
        "b,1,0,2,2\n"
        "c,2,2,0,1\n"
        "d,2,2,1,0\n"
    )


def test_cost_matrix_csv_requirements(tmp_path):
    anon = CostMatrix(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="no class names"):
        cost_matrix_to_csv(anon)
    named = CostMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]), ["a", "b"])
    with pytest.raises(ValueError, match="not integral"):
        cost_matrix_to_csv(named)
    comma = build_cost_matrix(parse_taxonomy("a,x\tp\nb\tp\nc\tr\np\tr\n"))
    with pytest.raises(FormatError, match="'a,x' cannot be written to CSV"):
        cost_matrix_to_csv(comma)
    quote = build_cost_matrix(parse_taxonomy('"a\tp\nb\tp\nc\tr\np\tr\n'))
    with pytest.raises(FormatError, match="'\"a' cannot be written to CSV"):
        cost_matrix_to_csv(quote)
    C = build_cost_matrix(parse_taxonomy(TWO_BRANCH_TEXT))
    path = tmp_path / "c.csv"
    save_cost_matrix(C, path)
    assert path.read_text() == cost_matrix_to_csv(C)
    # Side-door tables: signed int64, integral float, and wide values.
    heights = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
    for factor, scale in ((1, 1), (-1, -1), (2.0, 2), (10**12, 10**12)):
        rows = [f"{n}," + ",".join(str(h * scale) for h in row) + "\n"
                for n, row in zip("abcd", heights)]
        wide = CostMatrix(C.entries.astype(np.int64) * factor, C.class_names)
        assert cost_matrix_to_csv(wide) == \
            ",a,b,c,d\n" + "".join(rows)


def test_cost_matrix_csv_streams_in_blocks(tmp_path, capsysbinary):
    # Written a line at a time, to a path, a .gz path or an open binary
    # file, the bytes equal the one-shot text.
    tax = gen_taxonomy(SynthConfig(seed=2, K=300, N=0,
                                   tree_mode="random-attachment"))
    C = build_cost_matrix(tax)
    text = cost_matrix_to_csv(C)
    save_cost_matrix(C, tmp_path / "c.csv")
    save_cost_matrix(C, tmp_path / "c.csv.gz")
    save_cost_matrix(C, sys.stdout.buffer)
    assert (tmp_path / "c.csv").read_text() == text
    assert gzip.decompress((tmp_path / "c.csv.gz").read_bytes()) \
        == text.encode()
    assert capsysbinary.readouterr().out == text.encode()


def test_cost_matrix_save_holds_one_block_of_text(tmp_path):
    tax = gen_taxonomy(SynthConfig(seed=0, K=2048, N=0, tree_mode="flat"))
    C = build_cost_matrix(tax)  # the 4 MiB table is built before tracing
    path = tmp_path / "c.csv"
    tracemalloc.start()
    try:
        save_cost_matrix(C, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 8 * (1 << 20)
    assert peak <= 1 << 20, peak
