"""Hierarchy-aware evaluation metrics.

Implements top-1 error, mean LCA distance over the top k ranked
classes, mistake severity under both normalizations (over mistakes
only, and over all samples), severity histograms, and the arithmetic
check showing why the mistakes-only normalization can reward adding
low-severity mistakes.

LCA heights are integers, so every sample mean is an exact int64 total
divided once: each reported mean is the correctly rounded quotient, and
it does not depend on the order of the rows or on how they are batched.
An ``Evaluation`` keeps those totals over blocks of rows, so a report
needs one block and its ranking resident, never all N rows;
``full_report`` is an ``Evaluation`` of one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet
from .riskmin import (LIKELIHOOD, RISK, Ranking, _normalize_basis,
                      batch_apply, build_cost_matrix)
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
    "Evaluation",
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


class Evaluation:
    """Every metric of one basis on one tree, as exact integer totals
    (column sums of the gathered LCA heights, top-1 severity counts)
    over the blocks of rows added so far, so the report does not depend
    on the block split. ``add`` ranks a block to the largest k with the
    cost matrix built once here; ``count`` takes a ranking made elsewhere.
    """

    def __init__(self, tax: Taxonomy, basis: str, k_list=DEFAULT_K_LIST):
        self.ks = _sorted_ks(k_list, tax.K)
        self.basis = _normalize_basis(basis)
        self.names = tax.class_names
        self.C = build_cost_matrix(tax) if self.basis == RISK else None
        self.lca = tax.lca_matrix()
        self.height = node_height(tax, tax.root)
        self.n = 0
        self.columns = np.zeros(self.ks[-1], dtype=np.int64)
        self.counts = np.zeros(self.height + 1, dtype=np.int64)

    def add(self, preds: PredictionSet) -> Ranking:
        if self.C is None and preds.class_names != self.names:
            # The likelihood ranking reads no costs, only the class order.
            raise ValueError("class order mismatch between predictions "
                             "and cost matrix")
        ranked = batch_apply(preds, self.C, self.basis, depth=self.ks[-1])
        self.count(ranked, preds.truth)
        return ranked

    def count(self, ranked: Ranking, truth) -> None:
        m = self.ks[-1]
        if m > ranked.permutation.shape[1]:
            raise ValueError(f"k={m} exceeds the ranking depth "
                             f"{ranked.permutation.shape[1]}")
        t = _as_truth(ranked, truth)
        D = self.lca[t[:, None], ranked.permutation[:, :m]]
        self.n += t.shape[0]
        self.columns += D.sum(axis=0, dtype=np.int64)
        self.counts += np.bincount(D[:, 0], minlength=self.height + 1)

    def report(self) -> MetricsReport:
        N = self.n
        totals = np.cumsum(self.columns).tolist()
        n_mist = N - int(self.counts[0])
        return MetricsReport(
            top1_error=n_mist / N if N else 0.0,
            distance_at_k={k: totals[k - 1] / (k * N) if N else 0.0
                           for k in self.ks},
            severity_over_mistakes=totals[0] / n_mist if n_mist else None,
            severity_over_all=totals[0] / N if N else 0.0,
            n_mistakes=n_mist,
            histogram={h: int(self.counts[h])
                       for h in range(1, self.height + 1)},
        )


def _reduce(ranked: Ranking, truth, tax: Taxonomy, k_list) -> MetricsReport:
    ev = Evaluation(tax, LIKELIHOOD, k_list)
    ev.count(ranked, truth)
    return ev.report()


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
    """All metrics from one ranking of the batch, to the largest k: an
    :class:`Evaluation` of one block."""
    ev = Evaluation(tax, basis, k_list)
    ev.add(preds)
    return ev.report()
