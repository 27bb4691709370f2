"""File formats: prediction CSV, report JSON, audit CSV exports.

Prediction files are UTF-8 CSV with LF line endings. Line 1 is the
format line ``#hier-risk-predictions v1``, line 2 the header
``truth,<class1>,...,<classK>``, and each data row holds a truth label
followed by K probabilities. Floats are written with Python's shortest
round-trip repr. Gzip input is detected by magic bytes; writing to a
path ending in ``.gz`` compresses with a zeroed mtime so identical
inputs give identical bytes.

Reports serialize through a small hand-rolled JSON emitter with a fixed
field order and floats at 17 significant digits, so identical runs
produce identical bytes regardless of dict iteration details. Loading
rejects unknown fields.
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


def _f17(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise FormatError(f"cannot serialize non-finite value {v!r}")
    return format(v, ".17g")


def _int_str(x) -> str:
    if isinstance(x, bool) or int(x) != x:
        raise FormatError(f"expected an integer, got {x!r}")
    return str(int(x))


def _keyed_block(d: dict, pad: str, value_fn) -> str:
    if not d:
        return "{}"
    inner = ",\n".join(
        f'{pad}  "{int(k)}": {value_fn(d[k])}' for k in sorted(d)
    )
    return "{\n" + inner + "\n" + pad + "}"


def metrics_report_to_json(r: MetricsReport) -> str:
    som = ("null" if r.severity_over_mistakes is None
           else _f17(r.severity_over_mistakes))
    parts = [
        f'  "top1_error": {_f17(r.top1_error)}',
        '  "distance_at_k": ' + _keyed_block(r.distance_at_k, "  ", _f17),
        f'  "severity_over_mistakes": {som}',
        f'  "severity_over_all": {_f17(r.severity_over_all)}',
        f'  "n_mistakes": {_int_str(r.n_mistakes)}',
        '  "histogram": ' + _keyed_block(r.histogram, "  ", _int_str),
    ]
    return "{\n" + ",\n".join(parts) + "\n}\n"


def calibration_report_to_json(r: CalibrationReport) -> str:
    if r.confidence_source not in CONFIDENCE_SOURCES:
        raise FormatError(
            f"unknown confidence source {r.confidence_source!r}"
        )
    parts = [
        f'  "ece_pre": {_f17(r.ece_pre)}',
        f'  "ece_post": {_f17(r.ece_post)}',
        f'  "mce_pre": {_f17(r.mce_pre)}',
        f'  "mce_post": {_f17(r.mce_post)}',
        f'  "temperature": {_f17(r.temperature)}',
        f'  "confidence_source": {json.dumps(r.confidence_source)}',
    ]
    return "{\n" + ",\n".join(parts) + "\n}\n"


def save_metrics_report(r: MetricsReport, path) -> None:
    _write_bytes(path, metrics_report_to_json(r).encode("utf-8"))


def save_calibration_report(r: CalibrationReport, path) -> None:
    _write_bytes(path, calibration_report_to_json(r).encode("utf-8"))


def _require_number(obj, field):
    v = obj[field]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"field {field!r} must be a number")
    return float(v)


def _require_int(obj, field):
    v = obj[field]
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"field {field!r} must be an integer")
    return v


def _check_fields(obj, expected: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    unknown = set(obj) - expected
    if unknown:
        raise FormatError(f"{what}: unknown fields {sorted(unknown)}")
    missing = expected - set(obj)
    if missing:
        raise FormatError(f"{what}: missing fields {sorted(missing)}")


def _int_keyed(obj, field, value_fn) -> dict:
    d = obj[field]
    if not isinstance(d, dict):
        raise FormatError(f"field {field!r} must be an object")
    out = {}
    for k, v in d.items():
        if not (isinstance(k, str) and k.isdigit()):
            raise FormatError(f"field {field!r}: bad key {k!r}")
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise FormatError(f"field {field!r}: bad value {v!r}")
        out[int(k)] = value_fn(v)
    return out


def load_metrics_report(path) -> MetricsReport:
    obj = json.loads(_read_bytes(path).decode("utf-8"))
    _check_fields(obj, {
        "top1_error", "distance_at_k", "severity_over_mistakes",
        "severity_over_all", "n_mistakes", "histogram",
    }, "metrics report")
    som = obj["severity_over_mistakes"]
    if som is not None:
        som = _require_number(obj, "severity_over_mistakes")
    hist = _int_keyed(obj, "histogram", int)
    for v in hist.values():
        if int(v) != v:
            raise FormatError("histogram counts must be integers")
    return MetricsReport(
        top1_error=_require_number(obj, "top1_error"),
        distance_at_k=_int_keyed(obj, "distance_at_k", float),
        severity_over_mistakes=som,
        severity_over_all=_require_number(obj, "severity_over_all"),
        n_mistakes=_require_int(obj, "n_mistakes"),
        histogram=hist,
    )


def load_calibration_report(path) -> CalibrationReport:
    obj = json.loads(_read_bytes(path).decode("utf-8"))
    _check_fields(obj, {
        "ece_pre", "ece_post", "mce_pre", "mce_post",
        "temperature", "confidence_source",
    }, "calibration report")
    source = obj["confidence_source"]
    if source not in CONFIDENCE_SOURCES:
        raise FormatError(f"unknown confidence source {source!r}")
    return CalibrationReport(
        ece_pre=_require_number(obj, "ece_pre"),
        ece_post=_require_number(obj, "ece_post"),
        mce_pre=_require_number(obj, "mce_pre"),
        mce_post=_require_number(obj, "mce_post"),
        temperature=_require_number(obj, "temperature"),
        confidence_source=source,
    )


def cost_matrix_to_csv(C: CostMatrix) -> str:
    """Audit export: class names on both axes, integer entries."""
    if C.class_names is None:
        raise ValueError("cost matrix carries no class names")
    e = np.asarray(C.entries)
    if not np.all(e == np.floor(e)):
        raise ValueError("cost matrix entries are not integral")
    _check_csv_names(C.class_names)
    lines = ["," + ",".join(C.class_names)]
    for i, name in enumerate(C.class_names):
        lines.append(name + "," + ",".join(str(int(x)) for x in e[i]))
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
