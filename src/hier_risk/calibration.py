"""Confidence calibration: ECE, MCE, temperature scaling, per-depth ECE.

Binning is equal-width over (0, 1], right-closed: a confidence c lands
in bin ceil(c * B) - 1, clipped so that c = 0 joins the first bin and
c = 1 the last. Empty bins contribute nothing to ECE and are skipped
by MCE.

Temperature scaling works on log-probabilities with a 1e-12 floor
applied before the log, identically in the fitting and application
paths. The fit minimizes mean negative log-likelihood of the true class
with a golden-section search on log T over [log(1/64), log 64] to a
bracket width of 1e-4 in log-space; bracket and tolerance are part of
the contract. One search loop serves both callers: ``fit_temperature``
runs it over a floored-log copy of a set's rows in memory, and the CLI
over a validation split spilled a block at a time, floored and logged
in place, to an anonymous temporary file (``_LogSpill``) that each
evaluation reads back a block at a time; both give the same bits.
"""

from __future__ import annotations

import math
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet, _rows_per_block
from .riskmin import LIKELIHOOD, RISK, Ranking, batch_apply
from .taxonomy import Taxonomy, _as_int, collapse_to_depth

__all__ = [
    "BinTally",
    "CalibrationBins",
    "CalibrationReport",
    "bin_confidences",
    "ece",
    "mce",
    "apply_temperature",
    "fit_temperature",
    "hierarchical_ece",
    "CONFIDENCE_SOURCES",
]

DEFAULT_BINS = 15
PROB_FLOOR = 1e-12
LOG_T_BRACKET = math.log(64.0)
LOG_T_TOL = 1e-4

# Confidence source -> the ranking basis it reads its top-1 from.
CONFIDENCE_SOURCES = {
    "max-likelihood": LIKELIHOOD,
    "crm-selected": RISK,
}


@dataclass
class CalibrationBins:
    """Per-bin tallies for a reliability diagram.

    ``edges`` has B + 1 entries from 0 to 1. ``mean_conf`` and
    ``accuracy`` are 0.0 for empty bins.
    """

    B: int
    edges: np.ndarray
    counts: np.ndarray
    mean_conf: np.ndarray
    accuracy: np.ndarray
    n: int


@dataclass
class CalibrationReport:
    """ECE/MCE before and after temperature scaling on a test split."""

    ece_pre: float
    ece_post: float
    mce_pre: float
    mce_post: float
    temperature: float
    confidence_source: str


class BinTally:
    """Running per-bin totals of the confidences of blocks of rows.

    Blocks are added in order, and each confidence is added onto its
    bin's running sum in that order, so the bins hold the same bits
    whatever the block split. Each row is binned at the class its
    ranking puts first, whatever the ranking's basis.
    """

    def __init__(self, B: int):
        B = _as_int(B, "bin count must be an integer")
        if B < 1:
            raise ValueError(f"bin count must be >= 1, got {B}")
        self.B, self.n = B, 0
        self.counts = np.zeros(B, dtype=np.int64)
        self.hits = np.zeros(B, dtype=np.int64)
        self.csum = np.zeros(B)

    def add(self, preds: PredictionSet, ranked: Ranking) -> None:
        if len(ranked) != preds.N:
            raise ValueError("ranked outputs and predictions differ in length")
        top = ranked.permutation[:, 0]
        conf = preds.probs[np.arange(preds.N), top]
        idx = np.ceil(conf * self.B).astype(np.int64) - 1
        np.clip(idx, 0, self.B - 1, out=idx)
        self.counts += np.bincount(idx, minlength=self.B)
        self.hits += np.bincount(idx[top == preds.truth], minlength=self.B)
        np.add.at(self.csum, idx, conf)
        self.n += preds.N

    def bins(self) -> CalibrationBins:
        counts, B = self.counts, self.B
        mean_conf = np.zeros(B)
        accuracy = np.zeros(B)
        nz = counts > 0
        mean_conf[nz] = self.csum[nz] / counts[nz]
        accuracy[nz] = self.hits[nz] / counts[nz]
        return CalibrationBins(B=B, edges=np.linspace(0.0, 1.0, B + 1),
                               counts=counts.copy(), mean_conf=mean_conf,
                               accuracy=accuracy, n=self.n)


def bin_confidences(preds: PredictionSet, ranked: Ranking,
                    B: int) -> CalibrationBins:
    """Histogram per-sample confidences into B equal-width bins.

    A sample's confidence is the probability its row assigns to the
    first-ranked class; correctness is that class matching the truth.
    This is a :class:`BinTally` of one block.
    """
    tally = BinTally(B)
    tally.add(preds, ranked)
    return tally.bins()


def ece(bins: CalibrationBins) -> float:
    """Count-weighted mean absolute gap between accuracy and confidence."""
    if bins.n == 0:
        return 0.0
    gaps = np.abs(bins.accuracy - bins.mean_conf)
    return float(np.sum((bins.counts / bins.n) * gaps))


def mce(bins: CalibrationBins) -> float:
    """Largest absolute gap over non-empty bins (0 when all are empty)."""
    nz = bins.counts > 0
    if not nz.any():
        return 0.0
    return float(np.max(np.abs(bins.accuracy - bins.mean_conf)[nz]))


def _floored_log(z: np.ndarray) -> np.ndarray:
    """log(max(z, PROB_FLOOR)), in place."""
    np.maximum(z, PROB_FLOOR, out=z)
    return np.log(z, out=z)


def apply_temperature(probs, T: float) -> np.ndarray:
    """Resharpen rows as softmax(log p / T); T = 1 is the identity up to
    rounding, large T flattens toward uniform."""
    T = float(T)
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"temperature must be positive and finite, got {T}")
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("probs must be a 2-d row-stochastic matrix")
    # In place on one copy: the same ufuncs give the same bits.
    z = _floored_log(arr.copy(order="K"))
    z /= T
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _mean_nll(logp, truth: np.ndarray, T: float) -> float:
    """Mean NLL of the true class at temperature T, from the floored
    log-probabilities, which every evaluation of the fit shares: an
    (N, K) array, or a :class:`_LogSpill` of them. They are scaled a
    block of rows at a time (the one block size, ``_rows_per_block``),
    and each row's term lands in one vector, so the mean is taken
    once."""
    N, K = logp.shape
    step = _rows_per_block(K)
    terms = np.empty(N)
    for lo in range(0, N, step):
        z = logp[lo:lo + step] / T
        m = z.max(axis=1)
        zt = z[np.arange(z.shape[0]), truth[lo:lo + step]]
        z -= m[:, None]
        np.exp(z, out=z)
        terms[lo:lo + step] = m + np.log(z.sum(axis=1)) - zt
        del z  # freed before the next block's z is made
    return float(np.mean(terms))


class _LogSpill:
    """A validation split's floored log-probabilities, spilled to an
    anonymous temporary file (N x K x 8 bytes of disk in ``TMPDIR``) a
    block at a time, and read back by row slice (``spill[lo:hi]``), so
    a fit over it holds one block of them. Beside the file it keeps the
    truth labels (8 bytes a row) and whether every row is one-hot. The
    file goes when the spill is closed, or with the process."""

    def __init__(self, K: int):
        self.file = tempfile.TemporaryFile()
        self.shape, self.one_hot, self._truth = (0, K), True, bytearray()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def add(self, block: PredictionSet) -> None:
        """Take a block's rows, flooring and logging them in place."""
        self.one_hot &= bool(np.all(block.probs.max(axis=1) == 1.0))
        self.file.write(_floored_log(block.probs))
        self._truth.extend(block.truth.view(np.uint8))
        self.shape = (self.shape[0] + block.N, self.shape[1])

    @property
    def truth(self) -> np.ndarray:
        return np.frombuffer(self._truth, dtype=np.int64)

    def __getitem__(self, rows: slice) -> np.ndarray:
        N, K = self.shape
        lo, hi, _ = rows.indices(N)
        out = np.empty((hi - lo, K))
        self.file.seek(lo * K * out.itemsize)
        if self.file.readinto(out) != out.nbytes:
            raise OSError("temperature fit: the spilled rows read back short")
        return out


def fit_temperature(val: PredictionSet) -> float:
    """Temperature minimizing mean NLL of the true class on ``val``.

    Golden-section search on log T over [log(1/64), log 64], run down to
    a bracket width of 1e-4. If T = 1 scores no worse than the search
    result (possible since the search is approximate), exactly 1.0 is
    returned, keeping NLL(T) <= NLL(1) unconditionally. An all-one-hot
    validation set has no finite optimum; it is flagged with a warning
    and T = 1 is returned.
    """
    P = val.probs
    return _fit(_floored_log(P.copy()), val.truth,
                bool(np.all(P.max(axis=1) == 1.0)))


def _fit(logp, truth: np.ndarray, one_hot: bool) -> float:
    """The search of :func:`fit_temperature` over floored
    log-probabilities ``logp`` as :func:`_mean_nll` takes them, whose
    rows are all one-hot or not as ``one_hot`` says."""
    if len(truth) == 0:
        raise ValueError("cannot fit a temperature on an empty set")
    if one_hot:
        warnings.warn(
            "all validation rows are one-hot; temperature fit is degenerate, "
            "returning T=1", RuntimeWarning, stacklevel=3,
        )
        return 1.0

    def f(logt: float) -> float:
        return _mean_nll(logp, truth, math.exp(logt))

    lo, hi = -LOG_T_BRACKET, LOG_T_BRACKET
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > LOG_T_TOL:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    T = math.exp(0.5 * (lo + hi))
    if _mean_nll(logp, truth, 1.0) <= _mean_nll(logp, truth, T):
        return 1.0
    return float(T)


def hierarchical_ece(preds: PredictionSet, tax: Taxonomy, depth: int,
                     B: int = DEFAULT_BINS) -> float:
    """ECE in the label space collapsed to the given depth.

    Classes are grouped under their depth-``depth`` ancestors, each
    row's probabilities are summed within groups, truth is mapped
    through the same grouping, and plain ECE with max-likelihood
    confidence is computed there. Depth 0 collapses everything into one
    always-correct class with confidence exactly 1, so the result is
    exactly 0; the maximum leaf depth leaves the space untouched. The
    columns of ``preds`` must follow ``tax.class_names``.
    """
    if preds.class_names != tax.class_names:
        raise ValueError("class order mismatch between predictions and "
                         "taxonomy")
    mapping = collapse_to_depth(tax, depth)
    targets = sorted(set(mapping.values()))
    names = [tax.names[t] for t in targets]
    group_of = {t: g for g, t in enumerate(targets)}
    col = np.array([group_of[mapping[i]] for i in range(tax.K)],
                   dtype=np.int64)
    M = len(targets)
    summed = np.empty((preds.N, M), dtype=np.float64)
    for g in range(M):
        summed[:, g] = preds.probs[:, col == g].sum(axis=1)
    collapsed = PredictionSet(summed, col[preds.truth], names)
    ranked = batch_apply(collapsed, None, LIKELIHOOD, depth=1)
    return ece(bin_confidences(collapsed, ranked, B))
