"""File formats: prediction CSV, report JSON, the cost-matrix audit CSV.

Prediction files are UTF-8 CSV with LF line endings. Line 1 is the
format line ``#hier-risk-predictions v1``, line 2 the header
``truth,<class1>,...,<classK>``, and each data row holds a truth label
followed by K probabilities. Floats are written with Python's shortest
round-trip repr. Every file is read through one opener, which detects
gzip by its magic bytes, and written through one, which compresses a
path ending in ``.gz`` with a zeroed mtime so identical inputs give
identical bytes, reports included. Prediction files are read in blocks
of rows of about 256 KiB of text, each line's values written into its
block's array as the line is read, so a reader holds one line of text
beside one block of values: ``read_predictions`` yields each block once
it is checked, for a caller that reduces it and drops it, and
``load_predictions`` appends each to one N x K buffer, holding the
float64 values once plus one block and one line.
The write side mirrors that: ``write_predictions`` writes blocks as a
producer yields them, and ``save_predictions`` hands it a whole set's
row blocks. Every writer encodes and writes one line at a time, so it
holds one line of text beside the file's 64 KiB buffer; the cost-matrix
CSV goes out the same way, its rows built a block at a time.
Undecodable bytes are reported by line and byte.

Reports (``MetricsReport``, ``CalibrationReport``) go through one JSON
emitter and one loader, both driven by the per-report field tables in
``_LAYOUTS``. The layout: 2-space indent, fields in dataclass field
order, int-keyed objects (``distance_at_k``, ``histogram``) with keys
ascending, floats at 17 significant digits (``.17g``), ``null`` for an
undefined ``severity_over_mistakes``, and a trailing newline, so
identical runs produce identical bytes. ``shuffle-eval`` nests its four
metrics reports under basis, then tree. Loading rejects unknown and
missing fields and any value of the wrong kind; integers (``n_mistakes``
and histogram counts) must be JSON integers, numbers must be finite, and
int keys must read as the emitter writes them (``str(int(k))``). A
byte-order mark is dropped, and a JSON syntax fault is a FormatError
naming its line and column.
"""

from __future__ import annotations

import codecs
import gzip
import json
import math
import zlib
from contextlib import contextmanager
from itertools import chain, islice, repeat

import numpy as np

from .calibration import CONFIDENCE_SOURCES, CalibrationReport
from .metrics import MetricsReport
from .predictions import (PredictionSet, _passed, _rows_per_block,
                          validate_rows)
from .riskmin import CostMatrix
from .taxonomy import Taxonomy, parse_taxonomy

__all__ = [
    "FormatError",
    "PREDICTIONS_MAGIC",
    "load_hierarchy",
    "save_hierarchy",
    "load_predictions",
    "read_predictions",
    "save_predictions",
    "write_predictions",
    "metrics_report_to_json",
    "calibration_report_to_json",
    "load_metrics_report",
    "load_calibration_report",
    "cost_matrix_to_csv",
    "save_cost_matrix",
]

PREDICTIONS_MAGIC = "#hier-risk-predictions v1"


class FormatError(ValueError):
    """Malformed file contents; the message carries line context."""


# A truncated or corrupt deflate stream; a bad gzip header or CRC is a
# gzip.BadGzipFile, an OSError, already reported as an input problem.
_DAMAGED = (EOFError, zlib.error)


@contextmanager
def _reader(path):
    """Binary reader of a file's contents, gunzipped if the file starts
    with the gzip magic bytes. Damaged gzip data is a FormatError."""
    with open(path, "rb") as f:
        if f.peek(2)[:2] == b"\x1f\x8b":
            with gzip.GzipFile(fileobj=f) as gz:
                try:
                    yield gz
                except _DAMAGED as e:
                    raise FormatError(f"damaged gzip data ({e})") from None
        else:
            yield f


@contextmanager
def _writer(path):
    """Binary writer; a path ending in ``.gz`` is gzipped with a zeroed
    mtime, so identical writes give identical bytes. An open binary
    file (``sys.stdout.buffer``) is written as it is."""
    if hasattr(path, "write"):
        yield path
        return
    # The writers hand it a line at a time; 64 KiB per system call
    # keeps wide rows (K = 2048: 4 KiB a line) as fast as 1 MiB writes.
    with open(path, "wb", buffering=1 << 16) as f:
        if str(path).endswith(".gz"):
            with gzip.GzipFile(filename="", mode="wb", fileobj=f,
                               mtime=0) as gz:
                yield gz
        else:
            yield f


def _utf8(data: bytes, line: int = 1, codec: str = "utf-8") -> str:
    """``data``, from line ``line`` of its file on, as text. A bad byte
    is a FormatError naming its line and its 1-based place there,
    counted after any byte-order mark that ``codec`` drops."""
    try:
        return data.decode(codec)
    except UnicodeDecodeError as e:
        at, lf = e.start, b"\n"
        where = f"line {line + data.count(lf, 0, at)}"
        raise FormatError(f"{where}: not UTF-8 ({e.reason} at byte "
                          f"{at - data.rfind(lf, 0, at)})") from None


def _is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: a lone surrogate does not."""
    return text.encode("utf-8", "replace").decode("utf-8") == text


def _write_lines(path, lines) -> None:
    """Write text lines as UTF-8, each encoded and written as it comes,
    so one line is held; the binary writer buffers the writes."""
    with _writer(path) as f:
        for line in lines:
            f.write(line.encode("utf-8"))


def load_hierarchy(path) -> Taxonomy:
    with _reader(path) as f:
        return parse_taxonomy(_utf8(f.read()))


def save_hierarchy(tax: Taxonomy, path) -> None:
    """Edge list ``child<TAB>parent`` in node-index order, root omitted.
    Before the file opens, a FormatError names any node the reader would
    not give back: not UTF-8 text, empty, holding a TAB or LF, a parent
    ending in CR, or a child starting with ``#`` or a BOM."""
    inner = set(tax.parent)
    for i, n in enumerate(tax.names):
        if (not isinstance(n, str) or not n or "\t" in n or "\n" in n
                or not _is_utf8(n)
                or i in inner and n.endswith("\r")
                or tax.parent[i] >= 0 and n.startswith(("#", "\ufeff"))):
            raise FormatError(f"node name {n!r} cannot be written to a "
                              "hierarchy file")
    _write_lines(path, (f"{tax.names[i]}\t{tax.names[p]}\n"
                        for i, p in enumerate(tax.parent) if p >= 0))


def _lines(f):
    """The lines of the binary file ``f`` as UTF-8 text, without their
    LF, one CR before it, or a byte-order mark on line 1. A blank line
    is held back until a later line shows it is not trailing, so
    trailing blank lines are never yielded. Held blank lines are
    yielded before the next line is decoded, so a fault on a blank line
    comes before an undecodable byte further down. Damaged gzip data is
    a FormatError naming the line the reader had reached."""
    blanks, n = 0, 0
    try:
        for n, raw in enumerate(f, 1):
            text = raw.removesuffix(b"\n").removesuffix(b"\r")
            if not (text.removeprefix(codecs.BOM_UTF8) if n == 1 else text):
                blanks += 1
                continue
            yield from repeat("", blanks)
            blanks = 0
            line = _utf8(raw, n, "utf-8-sig" if n == 1 else "utf-8")
            yield line.removesuffix("\n").removesuffix("\r")
    except _DAMAGED as e:
        raise FormatError(f"line {n + 1}: damaged gzip data ({e})") from None


def _parse_rows(lines, first: int, K: int, label_to_idx):
    """Values and truth indices of up to one block of data lines pulled
    from ``lines``, the first of them line ``first`` of the file, up to
    the first faulty one, and that line's fault, or None. Per line: the
    field count, the truth label, then each token left to right (it
    parses, is finite, is >= 0). Each line's values go into the block's
    array as the line is read, so one line of text is held, and no line
    past a parse fault is read. An entry fault quotes the value as
    parsed, as only the values are kept."""
    step = _rows_per_block(K)
    probs = np.empty((step, K), dtype=np.float64)
    truth = np.empty(step, dtype=np.int64)
    n, parsed, fault = 0, 0, None
    try:
        for line in islice(lines, step):
            parts = line.split(",")
            if len(parts) != K + 1:
                fault = f"expected {K + 1} fields, got {len(parts)}"
                break
            idx = label_to_idx.get(parts[0])
            if idx is None:
                fault = f"unknown truth label {parts[0]!r}"
                break
            truth[n] = idx
            try:
                probs[n] = parts[1:]  # each str through Python's float
            except ValueError:
                for parsed, tok in enumerate(parts[1:]):
                    try:
                        probs[n, parsed] = float(tok)
                    except ValueError:
                        fault = f"invalid number {tok!r}"
                        break
                break
            n += 1
    except FormatError as e:
        fault = e  # undecodable: the lines before it are checked first
    # Values read before a parse fault come first in file order.
    bad = validate_rows(probs.reshape(1, -1)[:, :n * K + parsed], sums=False)
    if bad:
        n = bad[2] // K
        what = bad[0].replace("non-finite probability", "non-finite value")
        fault = f"{what} {repr(float(probs.flat[bad[2]]))!r}"
    if isinstance(fault, str):
        fault = FormatError(f"line {first + n}: {fault}")
    return probs[:n], truth[:n], fault


def read_predictions(path, taxonomy: Taxonomy | None = None):
    """Open a prediction CSV for streaming: ``(class_names, blocks)``.

    The format and header lines are checked before this returns; the
    data rows follow as validated ``PredictionSet`` blocks of
    ``_rows_per_block(K)`` rows, in file order. With a taxonomy the
    header's class names must equal its leaf set, and columns are
    re-mapped by name onto taxonomy order; without one, the file's own
    order stands and truth labels must appear in the header.

    Rows obey the row rule of :mod:`.predictions`, each row checked and
    renormalized once. The first faulty line in file order is reported,
    from the block that holds it: per data line the field count, the
    truth label, each token left to right (it must parse, be finite and
    be >= 0), then the row sum. An unparsable token is quoted as
    written, a non-finite or negative entry as parsed (``repr(float)``:
    ``-1`` reads ``'-1.0'``, ``1e999`` reads ``'inf'``), since a line's
    text is dropped once its values are in the block. An undecodable
    byte or damaged gzip data is a fault at its line. No line past a
    parse fault is read, and nothing is yielded after a fault.
    """
    blocks = _blocks(path, taxonomy)
    return next(blocks), blocks


def _blocks(path, taxonomy):
    """The class list, then the blocks of :func:`read_predictions`."""
    with _reader(path) as f:
        lines = _lines(f)
        if next(lines, None) != PREDICTIONS_MAGIC:
            raise FormatError(
                f"line 1: expected format line {PREDICTIONS_MAGIC!r}"
            )
        header = next(lines, None)
        if header is None:
            raise FormatError("line 2: missing header row")
        header = header.split(",")
        if header[0] != "truth" or len(header) < 2:
            raise FormatError(
                "line 2: header must read 'truth,<class1>,...,<classK>'"
            )
        names = header[1:]
        if len(set(names)) != len(names):
            raise FormatError("line 2: duplicate class name in header")
        K = len(names)

        column = {n: i for i, n in enumerate(names)}
        tax_names, label_to_idx = names, column
        if taxonomy is not None:
            tax_names = taxonomy.class_names
            if set(names) != set(tax_names):
                missing = sorted(set(tax_names) - set(names))[:5]
                extra = sorted(set(names) - set(tax_names))[:5]
                raise FormatError(
                    f"line 2: class names do not match the taxonomy "
                    f"(missing {missing}, unexpected {extra})"
                )
            label_to_idx = taxonomy.leaf_order
        # Each block's clean rows are re-mapped onto taxonomy order by
        # take, whose copy is C-ordered.
        to_tax = np.array([column[n] for n in tax_names], dtype=np.int64)
        same = names == tax_names
        yield tax_names

        line = 3
        for head in lines:  # a block of data lines starts here
            probs, truth, fault = _parse_rows(chain([head], lines), line, K,
                                              label_to_idx)
            probs = probs if same else probs.take(to_tax, axis=1)
            off = validate_rows(probs)
            if off:
                # Name the first row whose sum is off, summed in file order.
                off = validate_rows(probs[:, np.argsort(to_tax)]) or off
                raise FormatError(f"line {line + off[1]}: row {off[0]}")
            if fault:
                raise fault
            line += len(probs)
            # Handed over, not kept: while the caller holds the block,
            # this frame holds no reference to it, so a caller that
            # drops it early frees it.
            block = [_passed(probs, truth, tax_names)]
            del probs, truth
            yield block.pop()


def load_predictions(path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """Parse a whole prediction CSV, optionally aligning it to a taxonomy.

    The blocks of :func:`read_predictions`, with its checks and faults,
    are appended to one buffer that the set adopts, so loading holds the
    float64 values once plus one block and one line of text.
    """
    names, blocks = read_predictions(path, taxonomy)
    values, truths = bytearray(), bytearray()  # float64s, int64s
    for block in blocks:
        values.extend(block.probs.view(np.uint8))
        truths.extend(block.truth.view(np.uint8))
        del block  # before the next block is read
    probs = np.frombuffer(values, dtype=np.float64).reshape(-1, len(names))
    return _passed(probs, np.frombuffer(truths, dtype=np.int64), names)


def _check_csv_names(names) -> None:
    """Before a file opens, refuse a class name holding a comma, quote,
    CR or LF, or one that is not UTF-8 text (a lone surrogate)."""
    for n in names:
        if any(ch in n for ch in ',"\n\r') or not _is_utf8(n):
            raise FormatError(f"class name {n!r} cannot be written to CSV")


def write_predictions(path, names, blocks) -> None:
    """Write a prediction CSV from its class names and an iterable of
    ``PredictionSet`` blocks, the write side of :func:`read_predictions`:
    the names are checked before the file is opened, and each row's line
    is made as it is written, so one block and one line are held."""
    _check_csv_names(names)

    def lines():
        yield f"{PREDICTIONS_MAGIC}\ntruth,{','.join(names)}\n"
        for block in blocks:
            for t, row in zip(block.truth.tolist(), block.probs):
                yield f"{names[t]},{','.join(map(repr, row.tolist()))}\n"

    _write_lines(path, lines())


def save_predictions(preds: PredictionSet, path) -> None:
    """The set's rows through :func:`write_predictions`, a block at a time."""
    step = _rows_per_block(preds.K)
    write_predictions(path, preds.class_names, (
        _passed(preds.probs[lo:lo + step], preds.truth[lo:lo + step],
                preds.class_names)
        for lo in range(0, preds.N, step)))


# Report layouts: field -> kind, in dataclass field order. Kinds are
# "float" (.17g), "float|null", "int", "source" (a confidence source),
# and "{float}" / "{int}", objects with int keys in ascending order.
_LAYOUTS = {
    MetricsReport: {
        "top1_error": "float", "distance_at_k": "{float}",
        "severity_over_mistakes": "float|null", "severity_over_all": "float",
        "n_mistakes": "int", "histogram": "{int}",
    },
    CalibrationReport: {
        "ece_pre": "float", "ece_post": "float", "mce_pre": "float",
        "mce_post": "float", "temperature": "float",
        "confidence_source": "source",
    },
}


def _source(v) -> str:
    if not isinstance(v, str) or v not in CONFIDENCE_SOURCES:
        raise FormatError(f"unknown confidence source {v!r}")
    return v


def _encode(kind: str, v):
    """JSON token for one field value; an int-keyed dict for map kinds."""
    if kind[0] == "{":
        return {int(k): _encode(kind[1:-1], v[k]) for k in sorted(v)}
    if kind == "float|null" and v is None:
        return "null"
    if kind == "source":
        return json.dumps(_source(v))
    if kind == "int":
        if isinstance(v, bool) or int(v) != v:
            raise FormatError(f"expected an integer, got {v!r}")
        return str(int(v))
    v = float(v)
    if not math.isfinite(v):
        raise FormatError(f"cannot serialize non-finite value {v!r}")
    return format(v, ".17g")


def _text(node, pad: str = "") -> str:
    """JSON text of a report, or of a dict of reports or JSON tokens."""
    if not isinstance(node, dict):
        node = {f: _encode(kind, getattr(node, f))
                for f, kind in _LAYOUTS[type(node)].items()}
    if not node:
        return "{}"
    inner = ",\n".join(
        f"{pad}  {json.dumps(str(k))}: "
        + (v if isinstance(v, str) else _text(v, pad + "  "))
        for k, v in node.items()
    )
    return "{\n" + inner + "\n" + pad + "}"


def metrics_report_to_json(r) -> str:
    """A ``MetricsReport`` as JSON text, in the module's report layout.

    Also takes a nested dict of reports, such as shuffle-eval's
    ``{basis: {tree: MetricsReport}}``, and writes it as nested objects
    in the dict's own order.
    """
    return _text(r) + "\n"


def calibration_report_to_json(r: CalibrationReport) -> str:
    return _text(r) + "\n"


def _decode(kind: str, v, field: str):
    if kind[0] == "{":
        if not isinstance(v, dict):
            raise FormatError(f"field {field!r} must be an object")
        out = {}
        for k, x in v.items():
            if not k.isdecimal() or k != str(int(k)):
                raise FormatError(f"field {field!r}: bad key {k!r}")
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise FormatError(f"field {field!r}: bad value {x!r}")
            out[int(k)] = _decode(kind[1:-1], x, f"{field}.{k}")
        return out
    if kind == "float|null" and v is None:
        return None
    if kind == "source":
        return _source(v)
    if kind == "int":
        if isinstance(v, bool) or not isinstance(v, int):
            raise FormatError(f"field {field!r} must be an integer")
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"field {field!r} must be a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise FormatError(f"field {field!r} must be finite, got {v!r}")
    return v


def _load_report(path, cls, what: str):
    with _reader(path) as f:
        text = _utf8(f.read(), codec="utf-8-sig")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"line {e.lineno}, column {e.colno}: {what} is "
                          f"not valid JSON ({e.msg})") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    layout = _LAYOUTS[cls]
    unknown = set(obj) - set(layout)
    if unknown:
        raise FormatError(f"{what}: unknown fields {sorted(unknown)}")
    missing = set(layout) - set(obj)
    if missing:
        raise FormatError(f"{what}: missing fields {sorted(missing)}")
    return cls(**{f: _decode(kind, obj[f], f) for f, kind in layout.items()})


def load_metrics_report(path) -> MetricsReport:
    return _load_report(path, MetricsReport, "metrics report")


def load_calibration_report(path) -> CalibrationReport:
    return _load_report(path, CalibrationReport, "calibration report")


class _IntText(dict):
    """Value -> ``str(int(value))``, each value formatted once: a cost
    table holds few distinct values."""

    def __missing__(self, v):
        self[v] = text = str(int(v))
        return text


def _cost_csv_lines(C: CostMatrix):
    """Check ``C`` for the audit CSV, then return its lines, one per row
    after the header, as a generator."""
    if C.class_names is None:
        raise ValueError("cost matrix carries no class names")
    e = C._entries  # None on a taxonomy, whose LCA heights are integers
    if e is not None and not np.all(e == np.floor(e)):
        raise ValueError("cost matrix entries are not integral")
    names = C.class_names
    _check_csv_names(names)

    def lines():
        text = _IntText()
        yield "," + ",".join(names) + "\n"
        for name, row in zip(names, C._rows()):
            yield f"{name},{','.join(map(text.__getitem__, row.tolist()))}\n"

    return lines()


def cost_matrix_to_csv(C: CostMatrix) -> str:
    """Audit export: class names on both axes, integer entries."""
    return "".join(_cost_csv_lines(C))


def save_cost_matrix(C: CostMatrix, path) -> None:
    """The audit export, written a row at a time to a path or an open
    binary file."""
    _write_lines(path, _cost_csv_lines(C))

