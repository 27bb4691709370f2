"""Probability rows plus ground truth, and the one rule for the rows:
entries finite and >= 0, each row summing to 1 within 1e-6 and divided
by its sum unless that is exactly 1.0. Faults come in row-major order,
the first bad entry before the first bad row sum."""

from __future__ import annotations

import numpy as np

from .taxonomy import _as_ints

__all__ = ["PredictionSet", "validate_rows"]

_BLOCK = 1 << 18  # about the bytes of text per block of rows


def _rows_per_block(K: int) -> int:
    """Rows per block of every row loop, the one block size: about
    ``_BLOCK`` bytes of text (a value's repr is about 20 chars), and at
    least one row. No step of a row loop reads a K x K table per block,
    so fewer rows cost no more work per row."""
    return max(1, _BLOCK // (20 * K))


def validate_rows(probs: np.ndarray, sums: bool = True):
    """Apply the row rule to the 2-d float64 ``probs``, renormalizing in
    place. Return None, or the first fault as ``(what, row, col)`` with
    ``col`` None for a row sum; ``sums=False`` checks entries only."""
    if not np.isfinite(probs).all() or (probs.size and probs.min() < 0.0):
        bad = ~np.isfinite(probs) | (probs < 0.0)
        row, col = divmod(int(np.argmax(bad)), probs.shape[1])
        what = "negative" if np.isfinite(probs[row, col]) else "non-finite"
        return f"{what} probability", row, col
    if not sums:
        return None
    total = probs.sum(axis=1)
    off = np.abs(total - 1.0) > 1e-6
    if off.any():
        row = int(np.argmax(off))
        return (f"probabilities sum to {float(total[row])!r}, "
                "outside the 1e-6 tolerance", row, None)
    np.divide(probs, total[:, None], out=probs, where=(total != 1.0)[:, None])
    return None


class PredictionSet:
    """N samples of class probabilities plus ground-truth labels.

    A float64 copy of the (N, K) ``probs`` must pass the row rule of
    :func:`validate_rows`, which renormalizes it; otherwise ValueError
    names the first bad entry in row-major order, else the first row
    whose sum is off. K >= 1 (collapsed label spaces can be a single
    class even though taxonomies need two).

    Attributes:
        probs: (N, K) float64, validated and renormalized as above.
        truth: (N,) int64 class indices in [0, K); a label that is not
            an integer (2.5, nan) or lies outside int64 is refused, not
            truncated or wrapped.
        class_names: K unique names giving the column order.
    """

    __slots__ = ("probs", "truth", "class_names", "N", "K")

    def __init__(self, probs, truth, class_names):
        probs = np.array(probs, dtype=np.float64, order="C", copy=True)
        if probs.ndim != 2:
            raise ValueError("probs must be a 2-d array")
        truth = _as_ints(truth, "truth labels must be integers").copy()
        if truth.ndim != 1 or truth.shape[0] != probs.shape[0]:
            raise ValueError("truth must be 1-d with one entry per row")
        names = [str(n) for n in class_names]
        K = probs.shape[1]
        if K < 1:
            raise ValueError("need at least one class column")
        if len(names) != K:
            raise ValueError(f"{len(names)} class names for {K} "
                             "probability columns")
        if len(set(names)) != K:
            raise ValueError("class names must be unique")
        fault = validate_rows(probs)
        if fault:
            raise ValueError(f"row {fault[1]}: {fault[0]}")
        bad = (truth < 0) | (truth >= K)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(
                f"row {row}: truth index {truth[row]} out of range")
        self.probs, self.truth, self.class_names = probs, truth, names
        self.N, self.K = probs.shape

    def __repr__(self) -> str:
        return f"PredictionSet(N={self.N}, K={self.K})"


def _passed(probs: np.ndarray, truth: np.ndarray, class_names) -> PredictionSet:
    """A set over rows that have each passed the row rule already, in
    blocks: nothing is checked, and no row is divided a second time."""
    s = object.__new__(PredictionSet)
    s.probs, s.truth, s.class_names = probs, truth, list(class_names)
    s.N, s.K = probs.shape
    return s
