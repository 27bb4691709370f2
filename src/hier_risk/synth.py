"""Synthetic data generation and brute-force oracles.

Everything here is a pure function of a :class:`SynthConfig`. The PRNG
is numpy's PCG64; the tree stream is seeded with SeedSequence([seed, 0])
and the prediction stream with SeedSequence([seed, 1]), so changing the
tree mode never shifts the prediction draws. Draw orders are spelled
out per generator and are part of the reproducibility contract.
Prediction rows come a block at a time from :func:`prediction_blocks`,
which keeps the whole-matrix draw order by reading the stream twice.

The oracles are deliberately naive reimplementations (plain loops, path
enumeration) kept free of the optimized code paths they cross-check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet, _passed, _rows_per_block
from .riskmin import CostMatrix
from .taxonomy import Taxonomy, _check_seed, parse_taxonomy

__all__ = [
    "SynthConfig",
    "gen_taxonomy",
    "gen_predictions",
    "prediction_blocks",
    "oracle_risk",
    "oracle_lca",
    "TREE_MODES",
    "TRUTH_MODES",
]

TREE_MODES = ("flat", "balanced-binary", "random-attachment")
TRUTH_MODES = ("self-sampled", "argmax", "corrupted")


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for synthetic taxonomies and prediction sets.

    ``concentration`` is the symmetric Dirichlet parameter for the
    probability rows. ``corrupt_rho`` only matters for the corrupted
    truth mode, where each label is replaced by a uniform class with
    that probability.
    """

    seed: int
    K: int
    N: int
    concentration: float = 1.0
    truth_mode: str = "self-sampled"
    corrupt_rho: float = 0.0
    tree_mode: str = "flat"

    def __post_init__(self):
        _check_seed(self.seed)
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if self.K > 9999:
            raise ValueError("K above 9999 exceeds the leaf naming scheme")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if not 0 < self.concentration < float("inf"):
            raise ValueError("concentration must be positive and finite")
        if self.K * self.concentration > sys.float_info.max / 2:
            raise ValueError(f"concentration {self.concentration!r} is too "
                             f"large: a row of {self.K} gamma draws would "
                             "overflow its sum")
        if self.truth_mode not in TRUTH_MODES:
            raise ValueError(f"unknown truth mode {self.truth_mode!r}")
        if not 0.0 <= self.corrupt_rho <= 1.0:
            raise ValueError("corrupt_rho must lie in [0, 1]")
        if self.tree_mode not in TREE_MODES:
            raise ValueError(f"unknown tree mode {self.tree_mode!r}")


def _leaf_name(i: int) -> str:
    return f"c{i:04d}"


def gen_taxonomy(cfg: SynthConfig) -> Taxonomy:
    """Deterministic taxonomy for the config's tree mode.

    flat: K leaves directly under the root. balanced-binary: K must be
    a power of two; leaves are paired left to right level by level, so
    sorted leaf names are sibling-adjacent. random-attachment: starting
    from the root, each new node attaches under a uniformly drawn
    existing node (which thereby becomes internal if it was childless);
    growth stops when exactly K nodes are childless, and those become
    the leaves. Only the random mode consumes randomness, via
    PCG64(SeedSequence([seed, 0])) and one integers(0, n_nodes) draw
    per attachment.
    """
    lines: list[str] = []
    if cfg.tree_mode == "flat":
        for i in range(cfg.K):
            lines.append(f"{_leaf_name(i)}\troot")
    elif cfg.tree_mode == "balanced-binary":
        if cfg.K & (cfg.K - 1) != 0:
            raise ValueError(
                f"balanced-binary requires K to be a power of 2, got {cfg.K}"
            )
        level = [_leaf_name(i) for i in range(cfg.K)]
        counter = 0
        while len(level) > 2:
            nxt = []
            for a in range(0, len(level), 2):
                name = f"n{counter}"
                counter += 1
                lines.append(f"{level[a]}\t{name}")
                lines.append(f"{level[a + 1]}\t{name}")
                nxt.append(name)
            level = nxt
        lines.append(f"{level[0]}\troot")
        lines.append(f"{level[1]}\troot")
    else:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, 0]))
        )
        parent = [-1]
        n_children = [0]
        childless = 1
        while childless < cfg.K:
            target = int(rng.integers(0, len(parent)))
            if n_children[target] == 0:
                childless -= 1
            n_children[target] += 1
            parent.append(target)
            n_children.append(0)
            childless += 1
        node_names = []
        leaf_counter = 0
        internal_counter = 0
        for i, c in enumerate(n_children):
            if i == 0:
                node_names.append("root")
            elif c == 0:
                node_names.append(_leaf_name(leaf_counter))
                leaf_counter += 1
            else:
                node_names.append(f"n{internal_counter}")
                internal_counter += 1
        for i in range(1, len(parent)):
            lines.append(f"{node_names[i]}\t{node_names[parent[i]]}")
    return parse_taxonomy("\n".join(lines) + "\n")


def gen_predictions(cfg: SynthConfig, tax: Taxonomy) -> PredictionSet:
    """Dirichlet probability rows plus ground truth per the truth mode.

    Stream: PCG64(SeedSequence([seed, 1])). Draw order, always full
    length regardless of content:

      1. gamma(concentration, 1) of shape (N, K), filled row-major;
         rows are then normalized by their sums (a Dirichlet sample).
      2. self-sampled and corrupted: one uniform per row; the label is
         the first index whose ascending-j cumulative probability
         reaches it.
      3. corrupted only: one uniform per row for the corruption mask
         (< rho replaces), then one integers(0, K) per row providing
         the replacement labels.

    argmax mode draws nothing beyond step 1 and labels each row by its
    first maximum. Every label reads the normalized row, before the
    set's row rule. This order holds unchanged for the blocks of
    :func:`prediction_blocks`, which are copied here into one array.
    """
    probs = np.empty((cfg.N, cfg.K), dtype=np.float64)
    truth = np.empty(cfg.N, dtype=np.int64)
    lo = 0
    for block in prediction_blocks(cfg, tax):
        probs[lo:lo + block.N] = block.probs
        truth[lo:lo + block.N] = block.truth
        lo += block.N
        del block  # before the generator draws the next one
    return _passed(probs, truth, tax.class_names)


def prediction_blocks(cfg: SynthConfig, tax: Taxonomy):
    """The rows of :func:`gen_predictions`, bit for bit, as a generator
    of ``PredictionSet`` blocks of ``_rows_per_block(K)`` rows.

    The labels are drawn after every gamma, whose draws use a
    data-dependent share of the stream, so it is read twice. Before
    this returns, one generator draws and drops each block's gammas,
    then draws the labels (17 bytes per row for corrupted, 8 for
    self-sampled). The blocks redraw their gammas from a fresh one.
    """
    if tax.K != cfg.K:
        raise ValueError(
            f"taxonomy has {tax.K} classes but config says {cfg.K}"
        )
    N, K, step = cfg.N, cfg.K, _rows_per_block(cfg.K)
    seed = np.random.SeedSequence([cfg.seed, 1])
    rng = np.random.Generator(np.random.PCG64(seed))
    for lo in range(0, N, step):
        rng.gamma(cfg.concentration, 1.0, size=(min(step, N - lo), K))
    u = rng.random(N) if cfg.truth_mode != "argmax" else None
    if cfg.truth_mode == "corrupted":
        mask = rng.random(N) < cfg.corrupt_rho
        replacement = rng.integers(0, K, size=N)

    def blocks(rng):
        for lo in range(0, N, step):
            g = rng.gamma(cfg.concentration, 1.0, size=(min(step, N - lo), K))
            sums = g.sum(axis=1)
            dead = sums == 0.0
            if dead.any():
                # Every draw underflowed (tiny concentrations): fall back
                # to uniform rather than dividing by zero.
                g[dead] = 1.0
                sums[dead] = float(K)
            g /= sums[:, None]  # in place: the same quotients as g / sums
            hi = lo + len(g)
            if u is None:
                truth = np.argmax(g, axis=1)
            else:
                truth = np.minimum(
                    (np.cumsum(g, axis=1) < u[lo:hi, None]).sum(axis=1), K - 1)
                if cfg.truth_mode == "corrupted":
                    truth = np.where(mask[lo:hi], replacement[lo:hi], truth)
            yield PredictionSet(g, truth, tax.class_names, _adopt=True)
            del g, truth  # before the next block is drawn

    return blocks(np.random.Generator(np.random.PCG64(seed)))


def oracle_risk(p, C: CostMatrix) -> np.ndarray:
    """Risk vector by the definition: a plain double loop, ascending j.

    Cross-check oracle for the vectorized kernel; shares nothing with it
    beyond the input-cleaning rule (reject sums off by more than 1e-6,
    divide by the sum unless it is exactly 1.0).
    """
    q = np.array(p, dtype=np.float64, copy=True)
    if q.ndim != 1 or q.shape[0] != C.K:
        raise ValueError(f"expected {C.K} probabilities")
    if not np.isfinite(q).all():
        raise ValueError("non-finite probability entry")
    if q.size and q.min() < 0.0:
        raise ValueError("negative probability entry")
    s = float(q.sum())
    if abs(s - 1.0) > 1e-6:
        raise ValueError(
            f"probabilities sum to {s!r}, outside the 1e-6 tolerance"
        )
    if s != 1.0:
        q = q / s
    cost = [[float(x) for x in row] for row in np.asarray(C.entries)]
    qf = [float(x) for x in q]
    K = C.K
    risks = np.empty(K, dtype=np.float64)
    for k in range(K):
        r = 0.0
        for j in range(K):
            r += cost[k][j] * qf[j]
        risks[k] = r
    return risks


def oracle_lca(tax: Taxonomy, i: int, j: int) -> int:
    """LCA height by path enumeration and a leaf-set height walk.

    Walks both leaves' ancestor paths, takes the deepest shared node,
    then measures that node's height by descending to its furthest
    leaf. Independent of the cached tables in :class:`Taxonomy`.
    """
    K = tax.K
    if not (0 <= i < K and 0 <= j < K):
        raise ValueError(f"class index out of range: ({i}, {j})")

    def up(node: int) -> list[int]:
        path = [node]
        while tax.parent[path[-1]] >= 0:
            path.append(tax.parent[path[-1]])
        return path

    path_i = up(tax.leaves[i])
    path_j = set(up(tax.leaves[j]))
    lca = next(node for node in path_i if node in path_j)

    children: dict[int, list[int]] = {}
    for child, par in enumerate(tax.parent):
        if par >= 0:
            children.setdefault(par, []).append(child)
    best = 0
    stack = [(lca, 0)]
    while stack:
        node, depth = stack.pop()
        kids = children.get(node)
        if not kids:
            best = max(best, depth)
        else:
            for kid in kids:
                stack.append((kid, depth + 1))
    return best
