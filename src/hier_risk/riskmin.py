"""Cost matrices and the risk-minimizing decision rule.

The risk of predicting class k for one sample is the expected confusion
cost sum_j C[k, j] * p[j]. Taking the argmin corrects the classifier's
top-1 choice; sorting by ascending risk reorders the whole output so
that errors stay close to the truth in the hierarchy.

Determinism contract: the reference risk of a (sample, class) pair is
what the one exact kernel, ``_exact_risks``, computes: one product
C[k, j] * p[j] per j, added in ascending j as a multiply followed by an
add. Single-sample calls (``conditional_risk``, ``crm_predict``,
``crm_rerank``) return those risks. On taxonomy costs, batches rank
from a tree-sum estimate (``_tree_risks``, O(nodes) per row) and
certify it: per row, every estimate lies within a radius delta of the
kernel risk, so a row whose sorted estimates are all more than
2 * delta apart is already in kernel order, and every other row is
sorted again from its exact kernel risks. A batch permutation therefore
equals the stable argsort of the kernel risks, ties to the lowest
index, whatever the batch split; no ranking calls BLAS. Batch scores
are the kernel risks on every row with a near tie and within delta of
them elsewhere. A raw ``CostMatrix`` ranks from the kernel risks, which
are then its scores. Batches are ranked in blocks of
``_rows_per_block(K)`` rows, the package's one block size.

A batch may be ranked to a depth m: its permutation is then the first
m columns of the full certified permutation, bit for bit, and only the
first m + 1 sorted estimates of a row are checked for near ties, so a
near tie further down the row is never resolved. The scores stay the
(N, K) class-indexed matrix, within delta of the kernel risks, and the
kernel risks themselves on every row that was re-ranked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet, _rows_per_block, validate_rows
from .taxonomy import Taxonomy, _as_int

__all__ = [
    "CostMatrix",
    "Ranking",
    "build_cost_matrix",
    "conditional_risk",
    "crm_predict",
    "crm_rerank",
    "likelihood_rank",
    "batch_apply",
    "batch_crm_top1",
]

LIKELIHOOD = "likelihood"
RISK = "crm"


class CostMatrix:
    """K x K symmetric confusion-cost matrix with a zero diagonal.

    Matrices built from a taxonomy carry the taxonomy's compact
    unsigned table of LCA heights and the class names in taxonomy
    order, and rank from a sum over its tree. Raw arrays are accepted
    as a side door for testing; they are copied and validated only for
    squareness, symmetry, and the zero diagonal, and rank from the
    exact kernel. ``entries`` is one read-only C-contiguous table, the
    same one the risk kernel reads. ``bound`` is max |entry|, as a
    float, found once per matrix: on a taxonomy, the height of the LCA
    of all classes, the H of the ranking's radius.
    """

    __slots__ = ("K", "entries", "class_names", "bound", "_tree")

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
        self.entries, self._tree = e, None
        self.bound = max(float(e.max()), -float(e.min()))
        self.K = e.shape[0]
        if class_names is not None:
            class_names = [str(n) for n in class_names]
            if len(class_names) != self.K:
                raise ValueError("one class name per row required")
            if len(set(class_names)) != self.K:
                raise ValueError("class names must be unique")
        self.class_names = class_names

    def __repr__(self) -> str:
        return f"CostMatrix(K={self.K})"


@dataclass(frozen=True, eq=False)
class Ranking:
    """Class orderings, best class first, for a batch or for one sample.

    A batch holds ``permutation``, (N, depth) int64, one row per
    sample: the first ``depth`` columns of the full ranking, depth K
    unless the batch was ranked shallower. ``scores`` is the (N, K)
    float64 matrix that induced it (likelihoods for the likelihood
    basis, risks for the risk basis), indexed by class, not by rank,
    whatever the depth. One sample's ranking holds one such row of
    each, (depth,) and (K,). One basis covers every row. On a batch,
    ``len()`` counts the samples, ``ranking[i]`` is sample i's ranking
    and ``ranking[a:b]`` a batch of rows a..b; a one-sample ranking
    has no rows, so ``len()``, indexing and iteration raise TypeError.
    Arrays may be views into a larger ranking; treat them as read-only.
    """

    permutation: np.ndarray
    scores: np.ndarray
    basis: str = LIKELIHOOD

    def __post_init__(self):
        _check_basis(self.basis)

    def __len__(self) -> int:
        if self.permutation.ndim != 2:
            raise TypeError("a one-sample Ranking has no rows")
        return self.permutation.shape[0]

    def __getitem__(self, i) -> Ranking:
        len(self)  # on one sample, rank i's class is not class i's score
        return Ranking(self.permutation[i], self.scores[i], self.basis)


def build_cost_matrix(tax: Taxonomy) -> CostMatrix:
    """Pairwise LCA-height matrix over the taxonomy's classes.

    The matrix adopts the taxonomy's cached read-only LCA table instead
    of copying it; LCA heights are symmetric with a zero diagonal by
    construction, so there is nothing to check.
    """
    C = CostMatrix.__new__(CostMatrix)
    C.entries, C.K, C.class_names = tax.lca_matrix(), tax.K, tax.class_names
    C._tree = tax
    # Any row holds the max: the LCA height of all classes, not h(root).
    C.bound = float(C.entries[0].max())
    return C


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


def _exact_risks(P: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Kernel risks sum_j C[j, k] * P[i, j] of every row i and class k.

    Products are added in ascending j, each a multiply followed by an
    add, so a row's risks never depend on the other rows in the call.
    CostMatrix enforces C == C.T, so the contiguous row C[j] holds the
    costs C[k, j] for every k; integer costs become float64 exactly.
    """
    out = np.zeros((P.shape[0], C.shape[1]), dtype=np.float64)
    for pj, cj in zip(P.T, C):
        out += pj[:, None] * cj
    return out


_U = 2.0 ** -53  # unit roundoff of float64


def _tree_risks(P: np.ndarray, tax: Taxonomy, R: np.ndarray) -> None:
    """Write estimates of the risks of the block of rows P, summed over
    the tree ``tax``, into that block's rows R of the scores.

    With H the height of the LCA of all classes, the risk of class k is
    H * S - sum of w_v * M(v) over the nodes v on k's path below that
    LCA, leaf included, where S is the row's mass, M(v) the mass under
    v and w_v the height step h(parent) - h(v). Leaves are taken in
    depth-first order, so an inner node's M(v) is a difference of two
    prefix sums, and the sum over the inner nodes on the path of the
    leaf at position t is a prefix sum over range additions: +w_v * M(v)
    at v's first leaf, -w_v * M(v) just past its last. The leaf's own
    term is its weight times its probability. The work is O(nodes) per
    row in a fixed number of numpy calls, whatever the tree height, on
    (positions x rows) arrays whose gathers copy whole rows.
    """
    (H, leaf_w, lo, hi, w, lo_at, lo_starts, by_hi, hi_at,
     hi_starts) = tax._sum_shape()
    cs = np.zeros((tax.K + 1, P.shape[0]))
    cs[tax._pos + 1] = P.T
    np.cumsum(cs, axis=0, out=cs)
    x = cs[hi]
    x -= cs[lo]
    x *= w
    a = np.zeros_like(cs)
    a[lo_at] = np.add.reduceat(x, lo_starts, axis=0)
    a[hi_at] -= np.add.reduceat(x[by_hi], hi_starts, axis=0)
    np.cumsum(a, axis=0, out=a)
    np.subtract(H * cs[-1][:, None], a[tax._pos].T, out=R)
    R -= P * leaf_w[tax._pos]


def _radius(P: np.ndarray, H: float) -> np.ndarray:
    """Per-row delta with |tree-sum estimate - kernel risk| <= delta[i],
    for the rows P on a taxonomy whose classes meet at height H
    (``CostMatrix.bound``).

    A sum of n terms, in any order, lies within gamma_n * sum |term| of
    its exact value, with or without FMA (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Sec. 3.1). With S the row sum, the
    kernel is within gamma_K * H * S of the exact risk, and so is each
    part of the tree sum: the prefix sum S, scaled by H; the masses of
    the inner nodes on a path, each a difference of prefix sums whose
    steps round by at most u * S, under height steps that add up to at
    most H; and the range additions, at most K + H deep, whose terms
    (each node's added once and taken off once) add up to at most
    2 * H * S in magnitude. The products
    and subtractions left add at most 6u * H * S. With n = K + H + 8, all
    of it is below 6 * gamma_n * H * S; the factor (1 + 2nu) covers the
    rounding of the computed S (a pairwise sum, low by at most
    (K - 1) * u relative) and of the radius itself, and the last term
    covers underflow in the K + H + 1 products that do not cancel.
    """
    n = P.shape[1] + int(H) + 8
    gamma = n * _U / (1.0 - n * _U)
    return (6.0 * gamma * H * (1.0 + 2.0 * n * _U)) * P.sum(axis=1) \
        + n * 2.0 ** -1074


def _certify(P: np.ndarray, C: CostMatrix, R: np.ndarray,
             m: int) -> np.ndarray:
    """Exact ranks to depth m of each row of P from estimates R within
    ``_radius`` of its kernel risks. A row whose first m + 1 sorted
    estimates are all more than 2 * delta apart is in kernel order to
    depth m, since every later estimate is at or above the (m + 1)-th;
    any other row of R gets its exact risks in place, sorted anew."""
    order = np.argsort(R, axis=1, kind="stable")
    gaps = np.diff(np.take_along_axis(R, order[:, :m + 1], axis=1), axis=1)
    tol = 2.0 * _radius(P, C.bound)
    redo = np.flatnonzero((gaps <= tol[:, None]).any(axis=1))
    if redo.size:
        R[redo] = _exact_risks(P[redo], C.entries)
        order[redo] = np.argsort(R[redo], axis=1, kind="stable")
    return order[:, :m]


def conditional_risk(p, C: CostMatrix) -> np.ndarray:
    """Per-class risks sum_j C[k, j] * p[j] for one sample."""
    return _exact_risks(_check_prob_vector(p, C.K)[None, :], C.entries)[0]


def crm_predict(p, C: CostMatrix) -> int:
    """Class index minimizing the risk; ties go to the lowest index.

    On taxonomy costs a class holding more than half the mass is always
    the answer (Theorem 1), but the risks are computed regardless: the
    theorem needs the triangle inequality and positive off-diagonal
    costs, which a raw cost matrix need not have.
    """
    return int(np.argmin(conditional_risk(p, C)))


def crm_rerank(p, C: CostMatrix) -> Ranking:
    """All classes sorted by ascending risk, ties by ascending index."""
    risks = conditional_risk(p, C)
    order = np.argsort(risks, kind="stable")
    return Ranking(order.astype(np.int64), risks, RISK)


def likelihood_rank(p) -> Ranking:
    """All classes by descending likelihood, ties by ascending index."""
    q = _check_prob_vector(p)
    order = np.argsort(-q, kind="stable")
    return Ranking(order.astype(np.int64), q, LIKELIHOOD)


def _check_basis(basis: str) -> None:
    if basis not in (LIKELIHOOD, RISK):
        raise ValueError(f"unknown ranking basis {basis!r}")


def batch_apply(preds: PredictionSet, C: CostMatrix | None,
                basis: str, depth: int | None = None) -> Ranking:
    """Rank every sample by descending likelihood (``basis`` "likelihood")
    or ascending risk ("crm"), to ``depth`` classes.

    Row i's permutation is bit-identical to the single-sample call on
    row i, cut to its first ``depth`` classes; None, or any depth of K
    or more, ranks every class. ``C`` may be None for the likelihood
    basis only. Likelihood scores are the validated probabilities. Risk
    scores on taxonomy costs come from the certified tree sum (see the
    module docstring): a row with a near tie among its first depth + 1
    estimates, exact ties included, holds its exact kernel risks, and
    every other row is within delta of them; on raw costs they are the
    kernel risks. Both bases walk the rows
    in one loop, ``_rows_per_block(K)`` at a time, so no (N, K) work
    array exists beside the scores. The metrics computed from the
    result are exact integer sums with one final division, so they do
    not depend on the order of the rows.
    """
    _check_basis(basis)
    if C is None and basis == RISK:
        raise ValueError("risk basis requires a cost matrix")
    if C is not None and C.class_names not in (None, preds.class_names):
        raise ValueError("class order mismatch between predictions and "
                         "cost matrix")
    if C is not None and preds.K != C.K:
        raise ValueError("prediction width does not match cost matrix")
    m = preds.K if depth is None else min(
        _as_int(depth, "ranking depth must be an integer"), preds.K)
    if m < 1:
        raise ValueError(f"ranking depth must be >= 1, got {depth}")
    P, step = preds.probs, _rows_per_block(preds.K)
    scores = np.empty(P.shape) if basis == RISK else P
    order = np.empty((preds.N, m), dtype=np.int64)
    for lo in range(0, preds.N, step):
        block, R = P[lo:lo + step], scores[lo:lo + step]
        if basis == LIKELIHOOD:
            order[lo:lo + step] = np.argsort(-block, axis=1,
                                             kind="stable")[:, :m]
        elif C._tree is None:
            R[:] = _exact_risks(block, C.entries)
            order[lo:lo + step] = np.argsort(R, axis=1, kind="stable")[:, :m]
        else:
            _tree_risks(block, C._tree, R)
            order[lo:lo + step] = _certify(block, C, R, m)
    return Ranking(order, scores, basis)


def batch_crm_top1(preds: PredictionSet, C: CostMatrix,
                   threads: int = 1) -> np.ndarray:
    """Risk-minimizing top-1 index per row.

    This is the rank-0 column of a depth-1 certified ranking, so it
    equals ``batch_apply(preds, C, "crm").permutation[:, 0]`` and the
    argmin of the kernel risks. ``threads`` is ignored; it stays
    because ``perfbench/trace_op.py`` passes it.
    """
    return batch_apply(preds, C, RISK, depth=1).permutation[:, 0]
