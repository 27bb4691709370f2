"""eval, calibrate and shuffle-eval rank and reduce a block of rows at a
time: their reports must not depend on the block size, and the first
fault in file order must win across block boundaries."""

import io
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hier_risk import (FormatError, SynthConfig, gen_predictions,
                       gen_taxonomy, save_hierarchy, save_predictions)
from hier_risk import cli, dataio, predictions
from hier_risk.cli import main
from hier_risk.dataio import PREDICTIONS_MAGIC, read_predictions


def run(argv, rows=None, K=1):
    """(exit code, report bytes, last stderr line) of one CLI call, read
    ``rows`` data rows per block (None: the default block size)."""
    block = rows * 20 * K if rows else predictions._BLOCK
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            mock.patch.object(predictions, "_BLOCK", block), \
            redirect_stderr(err):
        warnings.simplefilter("ignore")
        out = Path(tmp) / "r.json"
        rc = main([*argv, "--out", str(out)])
        report = out.read_bytes() if out.exists() else None
    return rc, report, err.getvalue().splitlines()[-1:]


def csv_text(names, order, probs, truth) -> str:
    """A prediction file with its columns in ``order``, values as repr."""
    lines = [PREDICTIONS_MAGIC, "truth," + ",".join(names[j] for j in order)]
    for t, row in zip(truth, probs.tolist()):
        lines.append(names[t] + "," + ",".join(repr(row[j]) for j in order))
    return "\n".join(lines) + "\n"


@st.composite
def corpora(draw):
    mode = draw(st.sampled_from(["flat", "balanced-binary",
                                 "random-attachment"]))
    K = draw(st.sampled_from([4, 8, 16] if mode == "balanced-binary"
                             else [3, 5, 9, 14]))
    seed = draw(st.integers(0, 10_000))
    sets = []
    for n in (draw(st.integers(0, 40)), draw(st.integers(1, 20))):
        cfg = SynthConfig(seed=seed, K=K, N=n, tree_mode=mode,
                          concentration=draw(st.sampled_from([0.05, 0.5])))
        tax = gen_taxonomy(cfg)
        preds = gen_predictions(cfg, tax)
        probs = preds.probs.copy()
        for r in range(n):
            kind = draw(st.sampled_from(["plain", "dyadic", "off"]))
            if kind == "dyadic":  # exact ties for both rankings
                cells = np.bincount(draw(st.lists(st.integers(0, K - 1),
                                                  min_size=8, max_size=8)),
                                    minlength=K)
                probs[r] = cells / 8
            elif kind == "off":  # renormalized at load
                probs[r] *= 1 + 1e-9
        sets.append((probs, preds.truth))
    names = [tax.names[leaf] for leaf in tax.leaves]
    order = draw(st.permutations(range(K)))
    return tax, K, names, order, sets


@settings(max_examples=60, deadline=None)
@given(corpus=corpora(), rows=st.sampled_from([1, 2, 5]),
       seed=st.integers(0, 99))
def test_reports_do_not_depend_on_the_block_size(corpus, rows, seed):
    tax, K, names, order, ((probs, truth), (vprobs, vtruth)) = corpus
    with tempfile.TemporaryDirectory() as tmp:
        h, p, v = (str(Path(tmp) / f) for f in ("h.tsv", "p.csv", "v.csv"))
        save_hierarchy(tax, h)
        Path(p).write_text(csv_text(names, order, probs, truth))
        Path(v).write_text(csv_text(names, order, vprobs, vtruth))
        hier = ["--hierarchy", h]
        commands = [
            ["calibrate", "--val-predictions", v, "--predictions", p],
            ["calibrate", "--val-predictions", v, "--predictions", p,
             "--bins", "4", *hier],
            ["calibrate", "--val-predictions", v, "--predictions", p,
             "--source", "crm-selected", *hier],
            ["shuffle-eval", "--predictions", p, "--seed", str(seed),
             "--k", f"1,{K}", *hier],
        ]
        for basis in ("likelihood", "crm"):
            for ks in ("1", f"1,2,{K}"):
                commands.append(["eval", "--predictions", p, "--basis",
                                 basis, "--k", ks, *hier])
        for argv in commands:
            whole = run(argv)
            assert whole[0] == (2 if len(truth) == 0 and
                                argv[0] == "calibrate" else 0), whole
            assert run(argv, rows, K) == whole, argv


def test_shuffle_eval_ranks_each_block_three_times(tmp_path):
    # Both trees list the same classes, and a likelihood ranking reads no
    # costs: one likelihood and two risk rankings per block.
    cfg = SynthConfig(seed=4, K=5, N=7, tree_mode="random-attachment")
    tax = gen_taxonomy(cfg)
    h, p = str(tmp_path / "h.tsv"), str(tmp_path / "p.csv")
    save_hierarchy(tax, h)
    save_predictions(gen_predictions(cfg, tax), p)
    argv = ["shuffle-eval", "--hierarchy", h, "--predictions", p,
            "--seed", "1", "--k", "1,3"]
    bases, rank = [], cli.batch_apply

    def counted(preds, C, basis, **kw):
        bases.append(basis)
        return rank(preds, C, basis, **kw)

    with mock.patch.object(cli, "batch_apply", counted):
        assert run(argv, rows=2, K=5)[0] == 0  # 4 blocks
    assert sorted(bases) == ["crm"] * 8 + ["likelihood"] * 4


HIER = "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n"
GOOD = "a,0.25,0.25,0.25,0.25"


def faulty(tmp_path, rows: dict, n=8, tail=b"") -> tuple[str, str]:
    """Hierarchy and prediction file of ``n`` good rows, with the rows at
    the given 0-based indices replaced, and ``tail`` appended."""
    lines = [rows.get(i, GOOD) for i in range(n)]
    h, p = tmp_path / "h.tsv", tmp_path / "p.csv"
    h.write_text(HIER)
    p.write_bytes(("\n".join([PREDICTIONS_MAGIC, "truth,a,b,c,d", *lines])
                   + "\n").encode() + tail)
    return str(h), str(p)


def faults(h, p):
    """The error line of eval and calibrate at 1, 2 and 3 rows per block
    and at the default size; each must be the same."""
    seen = set()
    for rows in (1, 2, 3, None):
        for argv in (["eval", "--hierarchy", h, "--k", "1"],
                     ["calibrate", "--val-predictions", p]):
            rc, report, err = run([*argv, "--predictions", p], rows, 4)
            assert rc == 2 and report is None
            seen.add(err[0])
    assert len(seen) == 1, seen
    return seen.pop()


SUM_OFF = "a,0.25,0.25,0.25,0.2"  # sums to 0.95


def test_an_earlier_sum_fault_beats_a_fault_in_a_later_block(tmp_path):
    h, p = faulty(tmp_path, {0: SUM_OFF})
    assert faults(h, p).startswith("error: line 3: row probabilities sum "
                                   "to 0.95")
    h, p = faulty(tmp_path, {0: SUM_OFF, 5: "b,0.5,-0.5,0.5,0.5"})
    assert faults(h, p).startswith("error: line 3: row probabilities sum "
                                   "to 0.95")
    h, p = faulty(tmp_path, {1: SUM_OFF, 6: "c,0.5,0.5"})
    assert faults(h, p).startswith("error: line 4: row probabilities sum "
                                   "to 0.95")
    # The first faulty line wins either way round.
    h, p = faulty(tmp_path, {1: "c,0.5,0.5", 6: SUM_OFF})
    assert faults(h, p) == "error: line 4: expected 5 fields, got 3"


def test_undecodable_byte_after_an_earlier_fault(tmp_path):
    bad = b"b,0.25,0.25,0.2\xff5,0.25\n"
    # An earlier bad entry is named first ...
    h, p = faulty(tmp_path, {2: "a,0.5,oops,0.25,0.25"}, tail=bad)
    assert faults(h, p) == "error: line 5: invalid number 'oops'"
    # ... and so is an earlier row sum.
    h, p = faulty(tmp_path, {2: SUM_OFF}, tail=bad)
    assert faults(h, p).startswith("error: line 5: row probabilities sum "
                                   "to 0.95")
    # With no earlier fault the bad byte is named at its line.
    h, p = faulty(tmp_path, {}, tail=bad)
    assert faults(h, p) == ("error: line 11: not UTF-8 (invalid start byte "
                            "at byte 16)")


def read_counting_lines(p, block_rows):
    """The FormatError text of loading ``p`` at ``block_rows`` rows of
    four classes per block, and how many lines were pulled from the
    file."""
    pulled, lines = [], dataio._lines

    def counted(f):
        for line in lines(f):
            pulled.append(line)
            yield line

    with mock.patch.object(predictions, "_BLOCK", block_rows * 20 * 4), \
            mock.patch.object(dataio, "_lines", counted):
        with pytest.raises(FormatError) as e:
            dataio.load_predictions(p)
    return str(e.value), len(pulled)


def test_the_reader_stops_at_the_faulty_block(tmp_path):
    # A bad sum on line 3, an undecodable byte 1000 lines below: the sum
    # is named, and no line past its block is read.
    _, p = faulty(tmp_path, {0: SUM_OFF}, n=1000, tail=b"\xff\n")
    message, pulled = read_counting_lines(p, 2)
    assert message.startswith("line 3: row probabilities sum to 0.95")
    assert pulled == 2 + 2  # format line, header, one block of two rows
    # An entry fault before a later sum fault wins, in its own block ...
    _, p = faulty(tmp_path, {1: "b,0.5,-0.5,0.5,0.5", 2: SUM_OFF}, n=1000,
                  tail=b"\xff\n")
    assert read_counting_lines(p, 2) == (
        "line 4: negative probability '-0.5'", 4)
    # ... and in the sum's block.
    _, p = faulty(tmp_path, {0: "a,0.25,oops,0.25,0.25", 1: SUM_OFF},
                  n=1000, tail=b"\xff\n")
    assert read_counting_lines(p, 2) == ("line 3: invalid number 'oops'", 4)


@pytest.mark.parametrize("rows, message", [
    ({2: SUM_OFF}, "line 5: row probabilities sum to"),
    ({2: "a,0.5,-1,0.25,0.25"}, "line 5: negative probability '-1'"),
    ({6: "q,0.25,0.25,0.25,0.25"}, "line 9: unknown truth label"),
    ({2: SUM_OFF, 6: "q,0.25,0.25,0.25,0.25"},
     "line 5: row probabilities sum to 0.95"),
])
def test_no_block_is_yielded_after_a_fault(tmp_path, rows, message):
    _, p = faulty(tmp_path, rows)
    seen = []
    with mock.patch.object(predictions, "_BLOCK", 20 * 4):  # one row a block
        names, blocks = read_predictions(p)
        with pytest.raises(FormatError, match=message):
            for block in blocks:
                seen.append(block.N)
    assert names == ["a", "b", "c", "d"]
    assert seen == [1] * min(rows)  # every row before the first faulty one
