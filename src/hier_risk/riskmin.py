"""Cost matrices and the risk-minimizing decision rule.

The risk of predicting class k for one sample is the expected confusion
cost sum_j C[k, j] * p[j]. Taking the argmin corrects the classifier's
top-1 choice; sorting by ascending risk reorders the whole output so
that errors stay close to the truth in the hierarchy.

Determinism contract: one serial kernel on a single thread adds one
product C[k, j] * p[j] per j to each risk, in ascending j, as a multiply
followed by an add. The sum is row-local (it never crosses rows), so a
row's result is bit-identical whether it is computed alone or inside a
batch. The ``threads`` arguments are accepted for compatibility and
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .predictions import PredictionSet, validate_rows
from .taxonomy import Taxonomy

__all__ = [
    "CostMatrix",
    "RankedOutput",
    "Ranking",
    "build_cost_matrix",
    "conditional_risk",
    "crm_predict",
    "crm_rerank",
    "likelihood_rank",
    "batch_apply",
    "batch_crm_top1",
]

LIKELIHOOD = "likelihood-descending"
RISK = "risk-ascending"


class CostMatrix:
    """K x K symmetric confusion-cost matrix with a zero diagonal.

    Matrices built from a taxonomy carry integer LCA heights and the
    class names in taxonomy order. Raw arrays are accepted as a side
    door for testing and are validated only for squareness, symmetry,
    and the zero diagonal. ``entries`` is one read-only C-contiguous
    table, the same one the risk kernel reads.
    """

    __slots__ = ("K", "entries", "class_names")

    def __init__(self, entries, class_names=None):
        e = np.array(entries, order="C", copy=True)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("cost matrix must be square")
        if e.shape[0] < 1:
            raise ValueError("cost matrix must be at least 1 x 1")
        if not np.isfinite(e).all():
            raise ValueError("cost matrix entries must be finite")
        if not (e == e.T).all():
            raise ValueError("cost matrix must be symmetric")
        if (np.diag(e) != 0).any():
            raise ValueError("cost matrix diagonal must be zero")
        e.flags.writeable = False
        self.entries = e
        self.K = e.shape[0]
        if class_names is not None:
            class_names = [str(n) for n in class_names]
            if len(class_names) != self.K:
                raise ValueError("one class name per row required")
            if len(set(class_names)) != self.K:
                raise ValueError("class names must be unique")
        self.class_names = class_names

    def scaled(self, factor: float) -> "CostMatrix":
        """Side-door copy with every entry multiplied by ``factor``."""
        return CostMatrix(self.entries * factor, self.class_names)

    def __repr__(self) -> str:
        return f"CostMatrix(K={self.K})"


def _check_basis(basis: str) -> None:
    if basis not in (LIKELIHOOD, RISK):
        raise ValueError(f"unknown ranking basis {basis!r}")


@dataclass
class RankedOutput:
    """Full class ordering for one sample, best first.

    ``scores`` holds the values that induced the permutation
    (likelihoods for the likelihood basis, risks for the risk basis),
    indexed by class, not by rank. Arrays may be views into batch
    results; treat them as read-only.
    """

    permutation: np.ndarray
    scores: np.ndarray
    basis: str = field(default=LIKELIHOOD)

    def __post_init__(self):
        _check_basis(self.basis)


@dataclass(frozen=True, eq=False)
class Ranking:
    """Class orderings for a batch of samples, one row per sample.

    ``permutation`` is (N, K) int64, best class first in each row;
    ``scores`` is the (N, K) float64 matrix that induced it, indexed by
    class, not by rank. One basis covers every row. ``len()``, indexing
    and iteration give per-row ``RankedOutput`` views; treat all arrays
    as read-only.
    """

    permutation: np.ndarray
    scores: np.ndarray
    basis: str = LIKELIHOOD

    def __post_init__(self):
        _check_basis(self.basis)

    def __len__(self) -> int:
        return self.permutation.shape[0]

    def __getitem__(self, i: int) -> RankedOutput:
        return RankedOutput(self.permutation[i], self.scores[i], self.basis)


def build_cost_matrix(tax: Taxonomy) -> CostMatrix:
    """Pairwise LCA-height matrix over the taxonomy's classes."""
    return CostMatrix(tax.lca_matrix(),
                      [tax.names[leaf] for leaf in tax.leaves])


def _check_prob_vector(p, K: int | None = None) -> np.ndarray:
    arr = np.array(p, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError("probability vector must be 1-d")
    if K is not None and arr.shape[0] != K:
        raise ValueError(f"expected {K} probabilities, got {arr.shape[0]}")
    fault = validate_rows(arr[None, :])
    if fault:
        raise ValueError(fault[0])
    return arr


def _risk_kernel(P: np.ndarray, C: np.ndarray) -> np.ndarray:
    # CostMatrix enforces C == C.T, so the contiguous row C[j] holds the
    # costs C[k, j] for every k; integer costs become float64 exactly.
    out = np.zeros(P.shape, dtype=np.float64)
    tmp = np.empty(P.shape, dtype=np.float64)
    for j in range(P.shape[1]):
        np.multiply(P[:, j, None], C[j], out=tmp)
        out += tmp
    return out


def conditional_risk(p, C: CostMatrix) -> np.ndarray:
    """Per-class risks sum_j C[k, j] * p[j] for one sample."""
    q = _check_prob_vector(p, C.K)
    return _risk_kernel(q[None, :], C.entries)[0]


def crm_predict(p, C: CostMatrix, use_fastpath: bool = False) -> int:
    """Class index minimizing the risk; ties go to the lowest index.

    With ``use_fastpath`` the full computation is skipped whenever
    max(p) > 0.5, in which case the argmin provably equals the argmax.
    The shortcut is off by default and bit-identical when on.
    """
    q = _check_prob_vector(p, C.K)
    if use_fastpath:
        m = int(np.argmax(q))
        if q[m] > 0.5:
            return m
    return int(np.argmin(_risk_kernel(q[None, :], C.entries)[0]))


def crm_rerank(p, C: CostMatrix) -> RankedOutput:
    """All classes sorted by ascending risk, ties by ascending index.

    Always runs the full risk computation; the top-1 shortcut cannot
    order the remaining classes.
    """
    risks = conditional_risk(p, C)
    order = np.argsort(risks, kind="stable")
    return RankedOutput(order.astype(np.int64), risks, RISK)


def likelihood_rank(p) -> RankedOutput:
    """All classes by descending likelihood, ties by ascending index."""
    q = _check_prob_vector(p)
    order = np.argsort(-q, kind="stable")
    return RankedOutput(order.astype(np.int64), q, LIKELIHOOD)


def _normalize_basis(basis: str) -> str:
    if basis in (LIKELIHOOD, "likelihood"):
        return LIKELIHOOD
    if basis in (RISK, "crm", "risk"):
        return RISK
    raise ValueError(f"unknown ranking basis {basis!r}")


def _check_costs(preds: PredictionSet, C: CostMatrix) -> None:
    if C.class_names is not None and preds.class_names != C.class_names:
        raise ValueError(
            "class order mismatch between predictions and cost matrix"
        )
    if preds.K != C.K:
        raise ValueError("prediction width does not match cost matrix")


def batch_apply(preds: PredictionSet, C: CostMatrix | None, basis: str,
                threads: int = 1) -> Ranking:
    """Rank every sample under the chosen basis.

    Row i of the result is bit-identical to the single-sample call on
    row i. ``C`` may be None for the likelihood basis only. Batches are
    ranked with one vectorized argsort; the risk basis first runs the
    shared serial ascending-j kernel. ``threads`` is ignored.
    The metrics computed from the result are exact integer sums with
    one final division, so they do not depend on the order of the rows.
    """
    b = _normalize_basis(basis)
    if C is not None:
        _check_costs(preds, C)
    if b == RISK:
        if C is None:
            raise ValueError("risk basis requires a cost matrix")
        scores = _risk_kernel(preds.probs, C.entries)
        order = np.argsort(scores, axis=1, kind="stable")
    else:
        scores = preds.probs
        order = np.argsort(-scores, axis=1, kind="stable")
    return Ranking(order.astype(np.int64, copy=False), scores, b)


def batch_crm_top1(preds: PredictionSet, C: CostMatrix,
                   use_fastpath: bool = False, threads: int = 1) -> np.ndarray:
    """Risk-minimizing top-1 index per row, optionally shortcut.

    The shortcut takes the argmax wherever a row's maximum exceeds 0.5
    and the full risk argmin elsewhere; output is identical either way.
    ``threads`` is ignored.
    """
    _check_costs(preds, C)
    P = preds.probs
    if not use_fastpath:
        return np.argmin(_risk_kernel(P, C.entries), axis=1)
    top = np.argmax(P, axis=1)
    slow = P[np.arange(preds.N), top] <= 0.5
    if slow.any():
        top[slow] = np.argmin(_risk_kernel(P[slow], C.entries), axis=1)
    return top
