"""File formats: prediction CSV, report JSON, audit CSV exports.

Prediction files are UTF-8 CSV with LF line endings. Line 1 is the
format line ``#hier-risk-predictions v1``, line 2 the header
``truth,<class1>,...,<classK>``, and each data row holds a truth label
followed by K probabilities. Floats are written with Python's shortest
round-trip repr. Gzip input is detected by magic bytes; writing to a
path ending in ``.gz`` compresses with a zeroed mtime so identical
inputs give identical bytes.

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
int keys must read as the emitter writes them (``str(int(k))``).
"""

from __future__ import annotations

import gzip
import json
import math

import numpy as np

from .calibration import CONFIDENCE_SOURCES, CalibrationBins, CalibrationReport
from .metrics import MetricsReport
from .predictions import PredictionSet, validate_rows
from .riskmin import CostMatrix
from .taxonomy import Taxonomy, parse_taxonomy

__all__ = [
    "FormatError",
    "PREDICTIONS_MAGIC",
    "load_hierarchy",
    "save_hierarchy",
    "load_predictions",
    "save_predictions",
    "metrics_report_to_json",
    "calibration_report_to_json",
    "save_metrics_report",
    "load_metrics_report",
    "save_calibration_report",
    "load_calibration_report",
    "cost_matrix_to_csv",
    "save_cost_matrix",
    "reliability_to_csv",
    "histogram_to_csv",
]

PREDICTIONS_MAGIC = "#hier-risk-predictions v1"


class FormatError(ValueError):
    """Malformed file contents; the message carries line context."""


def _read_bytes(path) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def _write_bytes(path, data: bytes) -> None:
    with open(path, "wb") as f:
        if str(path).endswith(".gz"):
            with gzip.GzipFile(filename="", mode="wb", fileobj=f,
                               mtime=0) as gz:
                gz.write(data)
        else:
            f.write(data)


def load_hierarchy(path) -> Taxonomy:
    return parse_taxonomy(_read_bytes(path).decode("utf-8"))


def save_hierarchy(tax: Taxonomy, path) -> None:
    """Edge list ``child<TAB>parent`` in node-index order, root omitted."""
    lines = [
        f"{tax.names[i]}\t{tax.names[p]}"
        for i, p in enumerate(tax.parent) if p >= 0
    ]
    _write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_predictions(path, taxonomy: Taxonomy | None = None) -> PredictionSet:
    """Parse a prediction CSV, optionally aligning it to a taxonomy.

    With a taxonomy the header's class names must equal the taxonomy's
    leaf set; columns are re-mapped by name onto taxonomy order, so the
    file's column order never matters. Without one, the file's own
    order stands and truth labels must appear in the header.

    Rows obey the row rule of :mod:`.predictions`. The first fault in
    file order is reported with its line: per data line the field count,
    the truth label, then each token left to right (it must parse, be
    finite and be >= 0); row sums only once every line has passed.
    """
    text = _read_bytes(path).decode("utf-8")
    if text.startswith("﻿"):
        text = text[1:]
    lines = [l[:-1] if l.endswith("\r") else l for l in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != PREDICTIONS_MAGIC:
        raise FormatError(
            f"line 1: expected format line {PREDICTIONS_MAGIC!r}"
        )
    if len(lines) < 2:
        raise FormatError("line 2: missing header row")
    header = lines[1].split(",")
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
        tax_names = [taxonomy.names[l] for l in taxonomy.leaves]
        if set(names) != set(tax_names):
            missing = sorted(set(tax_names) - set(names))[:5]
            extra = sorted(set(names) - set(tax_names))[:5]
            raise FormatError(
                f"line 2: class names do not match the taxonomy "
                f"(missing {missing}, unexpected {extra})"
            )
        label_to_idx = taxonomy.leaf_order

    n_rows = len(lines) - 2
    probs = np.empty((n_rows, K), dtype=np.float64)
    truth = np.empty(n_rows, dtype=np.int64)

    def located(what: str, row: int, col: int | None) -> FormatError:
        if col is None:
            return FormatError(f"line {row + 3}: row {what}")
        tok = lines[row + 2].split(",")[col + 1]
        what = what.replace("non-finite probability", "non-finite value")
        return FormatError(f"line {row + 3}: {what} {tok!r}")

    def fail(r: int, message: str, parsed: int = 0):
        # Values read before this fault come first in file order.
        read = probs.reshape(1, -1)[:, :r * K + parsed]
        fault = validate_rows(read, sums=False)
        if fault:
            raise located(fault[0], *divmod(fault[2], K)) from None
        raise FormatError(f"line {r + 3}: {message}") from None

    for r, line in enumerate(lines[2:]):
        parts = line.split(",")
        if len(parts) != K + 1:
            fail(r, f"expected {K + 1} fields, got {len(parts)}")
        idx = label_to_idx.get(parts[0])
        if idx is None:
            fail(r, f"unknown truth label {parts[0]!r}")
        truth[r] = idx
        try:
            probs[r] = [float(tok) for tok in parts[1:]]
        except ValueError:
            for c, tok in enumerate(parts[1:]):
                try:
                    probs[r, c] = float(tok)
                except ValueError:
                    fail(r, f"invalid number {tok!r}", c)

    ordered = probs
    if names != tax_names:
        ordered = probs[:, [column[n] for n in tax_names]]
    try:
        return PredictionSet(ordered, truth, tax_names)
    except ValueError:
        fault = validate_rows(probs)  # the first fault in file order
        if fault is None:
            raise
        raise located(*fault) from None


def _check_csv_names(names) -> None:
    for n in names:
        if any(ch in n for ch in ',"\n\r'):
            raise FormatError(f"class name {n!r} cannot be written to CSV")


def save_predictions(preds: PredictionSet, path) -> None:
    _check_csv_names(preds.class_names)
    rows = [PREDICTIONS_MAGIC, "truth," + ",".join(preds.class_names)]
    for i in range(preds.N):
        vals = ",".join(repr(float(x)) for x in preds.probs[i])
        rows.append(f"{preds.class_names[preds.truth[i]]},{vals}")
    _write_bytes(path, ("\n".join(rows) + "\n").encode("utf-8"))


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


def save_metrics_report(r: MetricsReport, path) -> None:
    _write_bytes(path, metrics_report_to_json(r).encode("utf-8"))


def save_calibration_report(r: CalibrationReport, path) -> None:
    _write_bytes(path, calibration_report_to_json(r).encode("utf-8"))


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
    obj = json.loads(_read_bytes(path).decode("utf-8"))
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


def cost_matrix_to_csv(C: CostMatrix) -> str:
    """Audit export: class names on both axes, integer entries."""
    if C.class_names is None:
        raise ValueError("cost matrix carries no class names")
    e = np.asarray(C.entries)
    if not np.all(e == np.floor(e)):
        raise ValueError("cost matrix entries are not integral")
    _check_csv_names(C.class_names)
    lines = ["," + ",".join(C.class_names)]
    for name, row in zip(C.class_names, e):
        # A row holds few distinct heights: format each once. Per row,
        # because one np.unique over the whole table costs K x K temps.
        vals, inv = np.unique(row, return_inverse=True)
        strs = [str(int(v)) for v in vals.tolist()]
        lines.append(name + "," + ",".join(map(strs.__getitem__,
                                               inv.tolist())))
    return "\n".join(lines) + "\n"


def save_cost_matrix(C: CostMatrix, path) -> None:
    _write_bytes(path, cost_matrix_to_csv(C).encode("utf-8"))


def reliability_to_csv(bins: CalibrationBins) -> str:
    lines = ["bin_low,bin_high,count,mean_conf,accuracy"]
    for b in range(bins.B):
        lines.append(",".join([
            repr(float(bins.edges[b])),
            repr(float(bins.edges[b + 1])),
            str(int(bins.counts[b])),
            repr(float(bins.mean_conf[b])),
            repr(float(bins.accuracy[b])),
        ]))
    return "\n".join(lines) + "\n"


def histogram_to_csv(histogram: dict[int, int]) -> str:
    lines = ["severity,count"]
    for severity in sorted(histogram):
        lines.append(f"{int(severity)},{int(histogram[severity])}")
    return "\n".join(lines) + "\n"
