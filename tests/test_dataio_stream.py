"""The prediction codec streams: reading and writing a block at a time
must give what reading and writing the whole file at once gives."""

import gzip
import io
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hier_risk import (FormatError, PredictionSet, SynthConfig,
                       gen_predictions, gen_taxonomy, load_predictions,
                       parse_taxonomy, save_predictions)
from hier_risk import dataio, predictions
from hier_risk.dataio import PREDICTIONS_MAGIC

TWO_BRANCH = parse_taxonomy("a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n")
LEAVES = ["a", "b", "c", "d"]
MiB = 1 << 20


def whole_file_load(path, taxonomy=None) -> PredictionSet:
    """The format read the plain way: the whole text at once, each line
    checked in file order, its row sum right after its tokens."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    text = raw.decode("utf-8").removeprefix("\ufeff")
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()

    def fault(n, message):
        return FormatError(f"line {n}: {message}")

    if not lines or lines[0] != PREDICTIONS_MAGIC:
        raise fault(1, f"expected format line {PREDICTIONS_MAGIC!r}")
    if len(lines) < 2:
        raise fault(2, "missing header row")
    header = lines[1].split(",")
    if header[0] != "truth" or len(header) < 2:
        raise fault(2, "header must read 'truth,<class1>,...,<classK>'")
    names = header[1:]
    if len(set(names)) != len(names):
        raise fault(2, "duplicate class name in header")
    order = names
    if taxonomy is not None:
        order = [taxonomy.names[leaf] for leaf in taxonomy.leaves]
        if set(order) != set(names):  # a CR left on the header's last name
            raise fault(2, "class names do not match the taxonomy (missing "
                           f"{sorted(set(order) - set(names))}, unexpected "
                           f"{sorted(set(names) - set(order))})")
    K = len(names)
    rows, truth = [], []
    for n, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != K + 1:
            raise fault(n, f"expected {K + 1} fields, got {len(parts)}")
        if parts[0] not in order:
            raise fault(n, f"unknown truth label {parts[0]!r}")
        row = []
        for tok in parts[1:]:
            try:
                v = float(tok)
            except ValueError:
                raise fault(n, f"invalid number {tok!r}") from None
            if not math.isfinite(v):
                raise fault(n, f"non-finite value {tok!r}")
            if v < 0:
                raise fault(n, f"negative probability {tok!r}")
            row.append(v)
        total = float(np.sum(row))
        if abs(total - 1.0) > 1e-6:
            raise fault(n, f"row probabilities sum to {total!r}, "
                           "outside the 1e-6 tolerance")
        rows.append(row)
        truth.append(order.index(parts[0]))
    probs = np.array(rows, dtype=np.float64).reshape(-1, K)
    probs = probs[:, [names.index(name) for name in order]]
    return PredictionSet(probs, truth, order)


def outcome(load, path, taxonomy, block=None):
    """(probs bytes, truth, class names) or the FormatError text of one
    load, with the read block size patched to ``block`` bytes."""
    patch = mock.patch.object(predictions, "_BLOCK",
                              block or predictions._BLOCK)
    try:
        with patch:
            preds = load(path, taxonomy)
    except FormatError as e:
        return str(e)
    return preds.probs.tobytes(), preds.truth.tolist(), preds.class_names


# Tokens: exact quarters, values that need renormalizing, and faults.
TOKENS = ["0", "0.25", "0.5", "0.75", "1", "0.2500000001", "-0.0",
          "-0.5", "inf", "nan", "oops", "", "0.2\r5"]


@st.composite
def prediction_files(draw):
    header = draw(st.permutations(LEAVES))
    lines = [PREDICTIONS_MAGIC, "truth," + ",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["row"] * 8 + ["blank", "short", "long", "label"]))
        if kind == "blank":
            lines.append("")
            continue
        label = draw(st.sampled_from(LEAVES))
        cells = [0.0] * 4
        for _ in range(4):  # four quarters: a row that sums to 1
            cells[draw(st.integers(0, 3))] += 0.25
        toks = [repr(c) for c in cells]
        if draw(st.integers(0, 4)) == 0:
            toks[draw(st.integers(0, 3))] = draw(st.sampled_from(TOKENS))
        if kind == "short":
            toks.pop()
        elif kind == "long":
            toks.append("0")
        elif kind == "label":
            label = "q"
        lines.append(",".join([label] + toks))
    lines += [""] * draw(st.integers(0, 3))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = gzip.compress(data, mtime=0)
    return data


@settings(max_examples=300, deadline=None)
@given(data=prediction_files(), block=st.integers(1, 64),
       aligned=st.booleans())
@example(data=(PREDICTIONS_MAGIC + "\n").encode(), block=1, aligned=True)
@example(data=(PREDICTIONS_MAGIC + "\r\n\n\r\n").encode(), block=3,
         aligned=False)
def test_streaming_reader_matches_whole_file_reading(data, block, aligned):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(data)
        tax = TWO_BRANCH if aligned else None
        assert outcome(load_predictions, path, tax, block) == \
            outcome(whole_file_load, path, tax)


@pytest.mark.parametrize("tail", ["", "\n", "\r\n\n\r\n"])
@pytest.mark.parametrize("block", [1, 2, 7, MiB])
def test_magic_only_file_misses_its_header(tmp_path, tail, block):
    for path, data in ((tmp_path / "p.csv", PREDICTIONS_MAGIC + tail),
                       (tmp_path / "p.csv.gz", PREDICTIONS_MAGIC + tail)):
        raw = data.encode()
        path.write_bytes(gzip.compress(raw) if path.suffix == ".gz"
                         else raw)
        assert outcome(load_predictions, path, None, block) == \
            "line 2: missing header row"


def test_fault_in_an_earlier_block_wins(tmp_path):
    # A negative value early in the file against an unparsable token in
    # a later block: blocks are checked in order, so the first wins.
    rows = ["a,0.25,0.25,0.25,0.25"] * 200
    rows[3] = "b,0.5,-0.5,0.5,0.5"
    rows[150] = "c,0.25,oops,0.25,0.25"
    path = tmp_path / "p.csv"
    path.write_text("\n".join([PREDICTIONS_MAGIC, "truth,a,b,c,d"] + rows)
                    + "\n")
    for block in (16, 256, MiB):
        assert outcome(load_predictions, path, TWO_BRANCH, block) == \
            "line 6: negative probability '-0.5'"
    rows[3] = rows[0]
    path.write_text("\n".join([PREDICTIONS_MAGIC, "truth,a,b,c,d"] + rows)
                    + "\n")
    assert outcome(load_predictions, path, TWO_BRANCH, 16) == \
        "line 153: invalid number 'oops'"


def synth_set(K, N, seed=5, tree_mode="balanced-binary"):
    cfg = SynthConfig(seed=seed, K=K, N=N, concentration=0.3,
                      tree_mode=tree_mode)
    tax = gen_taxonomy(cfg)
    return tax, gen_predictions(cfg, tax)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_loading_keeps_only_the_float_arrays_resident(tmp_path):
    # The whole-text reader peaked near 7.5 x probs.nbytes on this shape:
    # raw bytes, text and line list at once. A block at a time leaves the
    # one buffer of values the set adopts plus one block of lines.
    tax, preds = synth_set(K=32, N=8000)
    path = tmp_path / "tall.csv"
    save_predictions(preds, path)
    assert path.stat().st_size > 4 * MiB  # several blocks
    loaded, peak = traced_peak(load_predictions, path, tax)
    assert np.array_equal(loaded.probs, whole_file_load(path, tax).probs)
    assert peak <= 2 * loaded.probs.nbytes + 4 * MiB, peak


def test_loading_holds_the_values_once(tmp_path):
    # Passed blocks are appended to one buffer that the set adopts, so
    # no list of block arrays and no concatenated copy sit beside it.
    tax, preds = synth_set(K=32, N=40000)
    path = tmp_path / "tall.csv"
    save_predictions(preds, path)
    loaded, peak = traced_peak(load_predictions, path, tax)
    assert np.array_equal(loaded.truth, preds.truth)
    assert np.allclose(loaded.probs, preds.probs, rtol=1e-15, atol=0)
    assert loaded.probs.nbytes >= 8 * MiB
    assert peak <= 1.5 * loaded.probs.nbytes + 2 * MiB, peak


def test_saving_holds_one_block_of_text(tmp_path):
    _, preds = synth_set(K=256, N=2000)
    path = tmp_path / "p.csv"
    _, peak = traced_peak(save_predictions, preds, path)
    assert path.stat().st_size > 8 * MiB
    assert peak <= MiB, peak


def one_shot_text(preds) -> bytes:
    rows = [PREDICTIONS_MAGIC, "truth," + ",".join(preds.class_names)]
    for t, row in zip(preds.truth.tolist(), preds.probs.tolist()):
        rows.append(preds.class_names[t] + "," + ",".join(map(repr, row)))
    return ("\n".join(rows) + "\n").encode()


def test_block_writes_give_the_one_shot_bytes(tmp_path):
    _, preds = synth_set(K=256, N=700)
    text = one_shot_text(preds)
    assert len(text) > 3 * MiB  # several write blocks
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as gz:
        gz.write(text)
    save_predictions(preds, tmp_path / "p.csv")
    save_predictions(preds, tmp_path / "p.csv.gz")
    assert (tmp_path / "p.csv").read_bytes() == text
    assert (tmp_path / "p.csv.gz").read_bytes() == buf.getvalue()


def test_empty_set_writes_its_header(tmp_path):
    preds = PredictionSet(np.empty((0, 2)), [], ["x", "y"])
    save_predictions(preds, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text() == \
        PREDICTIONS_MAGIC + "\ntruth,x,y\n"
    assert load_predictions(tmp_path / "p.csv").N == 0
