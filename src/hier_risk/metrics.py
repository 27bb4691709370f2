"""Hierarchy-aware evaluation metrics.

One reduction gives every metric of a :class:`MetricsReport`: top-1
error, mean LCA distance over the top k ranked classes, mistake severity
under both normalizations (over mistakes only, and over all samples) and
the severity histogram. ``metric_flaw_check`` is the arithmetic check
showing why the mistakes-only normalization can reward adding
low-severity mistakes.

LCA heights are integers, so every sample mean is an exact int64 total
divided once: each reported mean is the correctly rounded quotient, and
it does not depend on the order of the rows or on how they are batched.
An ``Evaluation`` keeps those totals over blocks of rankings made by
``riskmin.batch_apply``, so a report needs one block and its ranking
resident, never all N rows. ``evaluate`` is an ``Evaluation`` of one
ranking, and ``full_report`` ranks one prediction set and evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet
from .riskmin import RISK, Ranking, batch_apply, build_cost_matrix
from .taxonomy import Taxonomy, _as_int, _as_ints, node_height

__all__ = [
    "MetricsReport",
    "evaluate",
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
    if k_list is None:
        return [k for k in DEFAULT_K_LIST if k <= K]
    ks = sorted({_as_int(k, "k_list entries must be integers")
                 for k in k_list})
    if not ks:
        raise ValueError("k_list must not be empty")
    if ks[0] < 1 or ks[-1] > K:
        raise ValueError(f"k_list entries must lie in [1, {K}]")
    return ks


def _as_truth(ranked: Ranking, truth) -> np.ndarray:
    """Truth labels as int64 class indices, one per ranked sample, each
    in [0, K) for the K classes the ranking scores."""
    t = _as_ints(truth, "truth labels must be integers")
    if t.ndim != 1 or len(ranked) != t.shape[0]:
        raise ValueError("ranked outputs and truth labels differ in length")
    K = ranked.scores.shape[-1]
    bad = (t < 0) | (t >= K)
    if bad.any():
        raise ValueError(f"truth label {int(t[np.argmax(bad)])} outside "
                         f"[0, {K})")
    return t


class Evaluation:
    """Every metric on one tree, as exact integer totals (column sums of
    the gathered LCA heights, top-1 severity counts) over the rankings
    counted so far, so the report does not depend on the block split.
    Each ranking must reach ``ks[-1]``, the largest k; ``k_list=None``
    means the entries of ``DEFAULT_K_LIST`` that are at most K, and an
    explicit list must lie in [1, K].
    """

    def __init__(self, tax: Taxonomy, k_list=None):
        self.ks = _sorted_ks(k_list, tax.K)
        self.lca = tax.lca_matrix()
        self.height = node_height(tax, tax.root)
        self.n = 0
        self.columns = np.zeros(self.ks[-1], dtype=np.int64)
        self.counts = np.zeros(self.height + 1, dtype=np.int64)

    def count(self, ranked: Ranking, truth) -> None:
        if ranked.scores.shape[-1] != self.lca.shape[0]:
            raise ValueError(f"ranking over {ranked.scores.shape[-1]} classes "
                             f"for a taxonomy of {self.lca.shape[0]}")
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


def evaluate(ranked: Ranking, truth, tax: Taxonomy,
             k_list=None) -> MetricsReport:
    """Every metric of one ranking: an :class:`Evaluation` that counts it
    alone. The ranking must reach the largest k."""
    ev = Evaluation(tax, k_list)
    ev.count(ranked, truth)
    return ev.report()


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
                k_list=None) -> MetricsReport:
    """All metrics from one ranking of the batch, to the largest k; the
    cost matrix is built for the risk basis only. ``k_list=None`` means
    the entries of ``DEFAULT_K_LIST`` that are at most K."""
    ev = Evaluation(tax, k_list)
    if preds.class_names != tax.class_names:
        raise ValueError("class order mismatch between predictions and "
                         "cost matrix")
    C = build_cost_matrix(tax) if basis == RISK else None
    ev.count(batch_apply(preds, C, basis, depth=ev.ks[-1]), preds.truth)
    return ev.report()
