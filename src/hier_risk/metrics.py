"""Hierarchy-aware evaluation metrics.

Implements top-1 error, mean LCA distance over the top k ranked
classes, mistake severity under both normalizations (over mistakes
only, and over all samples), severity histograms, and the arithmetic
check showing why the mistakes-only normalization can reward adding
low-severity mistakes.

LCA heights are integers, so every sample mean is an exact int64 total
divided once: each reported mean is the correctly rounded quotient, and
it does not depend on the order of the rows or on how they are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet
from .riskmin import (LIKELIHOOD, Ranking, _normalize_basis, batch_apply,
                      build_cost_matrix)
from .taxonomy import Taxonomy, node_height

__all__ = [
    "PredictionSet",
    "MetricsReport",
    "top1_error",
    "distance_at_k",
    "severity_over_mistakes",
    "severity_over_all",
    "severity_histogram",
    "metric_flaw_check",
    "full_report",
    "DEFAULT_K_LIST",
]

DEFAULT_K_LIST = (1, 5, 20)


@dataclass
class MetricsReport:
    """One evaluation pass over a prediction set.

    ``severity_over_mistakes`` is None when there are no mistakes (the
    mean is undefined there); it serializes as JSON null. ``histogram``
    maps every integer severity from 1 to the tree height to a count,
    including zero counts.
    """

    top1_error: float
    distance_at_k: dict[int, float]
    severity_over_mistakes: float | None
    severity_over_all: float
    n_mistakes: int
    histogram: dict[int, int]


def _sorted_ks(k_list, K: int) -> list[int]:
    ks = sorted({int(k) for k in k_list})
    if not ks:
        raise ValueError("k_list must not be empty")
    if ks[0] < 1 or ks[-1] > K:
        raise ValueError(f"k_list entries must lie in [1, {K}]")
    return ks


def _as_truth(ranked: Ranking, truth) -> np.ndarray:
    t = np.asarray(truth, dtype=np.int64)
    if t.ndim != 1 or len(ranked) != t.shape[0]:
        raise ValueError("ranked outputs and truth labels differ in length")
    return t


def _reduce(ranked: Ranking, truth, tax: Taxonomy, k_list) -> MetricsReport:
    ks = _sorted_ks(k_list, tax.K)
    if ks[-1] > ranked.permutation.shape[1]:
        raise ValueError(f"k={ks[-1]} exceeds the ranking depth "
                         f"{ranked.permutation.shape[1]}")
    t = _as_truth(ranked, truth)
    N = t.shape[0]
    height = node_height(tax, tax.root)
    D = tax.lca_matrix()[t[:, None], ranked.permutation[:, :ks[-1]]]
    totals = np.cumsum(D.sum(axis=0, dtype=np.int64)).tolist()
    sev = D[:, 0]
    mistakes = sev > 0
    n_mist = int(mistakes.sum())
    counts = np.bincount(sev[mistakes], minlength=height + 1)
    return MetricsReport(
        top1_error=n_mist / N if N else 0.0,
        distance_at_k={k: totals[k - 1] / (k * N) if N else 0.0 for k in ks},
        severity_over_mistakes=totals[0] / n_mist if n_mist else None,
        severity_over_all=totals[0] / N if N else 0.0,
        n_mistakes=n_mist,
        histogram={h: int(counts[h]) for h in range(1, height + 1)},
    )


def top1_error(ranked: Ranking, truth) -> float:
    """Fraction of samples whose first-ranked class is not the truth."""
    t = _as_truth(ranked, truth)
    if t.size == 0:
        return 0.0
    return int((ranked.permutation[:, 0] != t).sum()) / t.size


def distance_at_k(ranked: Ranking, truth, tax: Taxonomy, k: int) -> float:
    """Mean LCA height between the truth and the first k ranked classes.

    The truth class contributes height 0 whenever it appears within the
    top k, so a perfect top-1 predictor scores 0 at k=1.
    """
    return _reduce(ranked, truth, tax, (k,)).distance_at_k[int(k)]


def severity_over_mistakes(ranked: Ranking, truth,
                           tax: Taxonomy) -> tuple[float, int]:
    """Mean top-1 LCA height over misclassified samples only.

    Returns (mean, n_mistakes). With no mistakes the mean is undefined;
    (0.0, 0) is returned and the zero count is the emptiness flag.
    """
    r = _reduce(ranked, truth, tax, (1,))
    return r.severity_over_mistakes or 0.0, r.n_mistakes


def severity_over_all(ranked: Ranking, truth, tax: Taxonomy) -> float:
    """Mean top-1 LCA height over all samples (correct ones count 0)."""
    return _reduce(ranked, truth, tax, (1,)).severity_over_all


def severity_histogram(ranked: Ranking, truth,
                       tax: Taxonomy) -> dict[int, int]:
    """Mistake counts bucketed by exact integer severity 1..tree height."""
    return _reduce(ranked, truth, tax, (1,)).histogram


def metric_flaw_check(d_h, m, d_l, n) -> bool:
    """Whether adding mistakes with total severity d_l over n samples
    does not increase the mistakes-only mean of a model with total
    severity d_h over m mistakes.

    The comparison (d_h + d_l) / (m + n) <= d_h / m is evaluated in the
    cross-multiplied form d_l * m <= d_h * n, which is algebraically
    identical for positive inputs and exact for integers.
    """
    if not (d_h > 0 and m > 0 and d_l > 0 and n > 0):
        raise ValueError("all four quantities must be positive")
    return bool(d_l * m <= d_h * n)


def full_report(preds: PredictionSet, tax: Taxonomy, basis: str,
                k_list=DEFAULT_K_LIST) -> MetricsReport:
    """All metrics from one ranking of the batch, to the largest k, and
    one reduction."""
    ks = _sorted_ks(k_list, tax.K)
    C = None
    if _normalize_basis(basis) == LIKELIHOOD:
        # The likelihood ranking reads no costs, only the class order.
        if preds.class_names != [tax.names[leaf] for leaf in tax.leaves]:
            raise ValueError("class order mismatch between predictions "
                             "and cost matrix")
    else:
        C = build_cost_matrix(tax)
    return _reduce(batch_apply(preds, C, basis, depth=ks[-1]), preds.truth,
                   tax, ks)
