"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints as its own pass/fail line under ``pytest -v``. The
numeric tolerances are pinned here and nowhere else:

  * risk-vs-oracle agreement: 1e-9 per entry (observed: bit-equal)
  * prefix-sum optimality vs brute force: 1e-9
  * paired ranking improvement: at least 3 standard errors
  * calibration fit vs grid search: 1e-3 in log-temperature
  * collapsed-vs-plain ECE at full depth: 1e-12
  * exact equality everywhere an integer or a shared bit-level
    computation makes it legitimate (documented inline)
"""

import subprocess
import sys
import time
from itertools import permutations

import numpy as np
import pytest

from hier_risk import (PredictionSet, Ranking, SynthConfig,
                       apply_temperature, batch_apply, batch_crm_top1,
                       bin_confidences, build_cost_matrix,
                       conditional_risk, crm_predict, crm_rerank, ece,
                       evaluate, fit_temperature, gen_predictions, gen_taxonomy,
                       hierarchical_ece, lca_height, likelihood_rank,
                       mce, metric_flaw_check, oracle_lca, oracle_risk,
                       parse_taxonomy, shuffle_leaves)

RISK_ORACLE_TOL = 1e-9
PREFIX_TOL = 1e-9
SE_MARGIN = 3.0
FIT_LOG_TOL = 1e-3
COLLAPSE_TOL = 1e-12

TWO_BRANCH = parse_taxonomy(
    "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n")


def tree_pool(n, K_lo=2, K_hi=12):
    pool = []
    for seed in range(n):
        K = K_lo + seed % (K_hi - K_lo + 1)
        pool.append(gen_taxonomy(SynthConfig(
            seed=seed, K=K, N=0, tree_mode="random-attachment")))
    return pool


def test_01_dominant_mass_top1_matches_argmax():
    # 10,000 (tree, p) pairs with max(p) > 0.5, trees of all three
    # shapes up to K=64: minimizing expected cost must always keep the
    # majority class on top, with and without the shortcut.
    started = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(99))
    modes = ("flat", "balanced-binary", "random-attachment")
    pairs = 0
    for t in range(500):
        mode = modes[t % 3]
        if mode == "balanced-binary":
            K = int(2 ** rng.integers(1, 7))
        else:
            K = int(rng.integers(2, 65))
        tax = gen_taxonomy(SynthConfig(seed=t, K=K, N=0, tree_mode=mode))
        C = build_cost_matrix(tax)
        tops = rng.uniform(0.5000001, 0.999, size=20)
        winners = rng.integers(0, K, size=20)
        rows = np.zeros((20, K))
        for i in range(20):
            rest = rng.dirichlet(np.ones(K - 1)) * (1.0 - tops[i])
            rows[i] = np.insert(rest, winners[i], tops[i])
        preds = PredictionSet(rows, winners.astype(np.int64),
                              [tax.names[l] for l in tax.leaves])
        assert np.array_equal(batch_crm_top1(preds, C), winners)
        for i in (0, 13):
            assert crm_predict(preds.probs[i], C) == winners[i]
        pairs += 20
    assert pairs == 10_000
    assert time.monotonic() - started < 10.0


def dyadic_vectors(rng, N, K, denom_bits=20):
    counts = rng.multinomial(2 ** denom_bits,
                             rng.dirichlet(np.ones(K)), size=N)
    return counts.astype(np.float64) / 2.0 ** denom_bits


def test_02_selected_class_attains_the_exhaustive_minimum():
    # 1,000 (p, C) pairs: the selected class's risk equals the
    # exhaustive minimum of the independently computed risk vector,
    # exactly. Exact equality is legitimate because the kernel and the
    # reference loop perform the same IEEE operations in the same
    # order; rows are built with power-of-two denominators so neither
    # path renormalizes. Dyadic crafted ties pin the lowest-index rule.
    rng = np.random.Generator(np.random.PCG64(7))
    pool = [(tax, build_cost_matrix(tax)) for tax in tree_pool(40)]
    for i in range(1_000):
        tax, C = pool[i % len(pool)]
        p = dyadic_vectors(rng, 1, tax.K)[0]
        risks = conditional_risk(p, C)
        reference = oracle_risk(p, C)
        pred = crm_predict(p, C)
        best = 0
        for k in range(1, tax.K):
            if reference[k] < reference[best]:
                best = k
        assert pred == best
        assert risks[pred] == reference.min()

    # Ties: uniform mass ties every class; split dyadic mass ties a
    # pair. The earliest class index must win in both shapes.
    C2 = build_cost_matrix(TWO_BRANCH)
    assert crm_predict([0.25, 0.25, 0.25, 0.25], C2) == 0
    assert crm_rerank([0.25, 0.25, 0.25, 0.25],
                      C2).permutation.tolist() == [0, 1, 2, 3]
    tied = [0.125, 0.125, 0.375, 0.375]
    assert crm_predict(tied, C2) == 2
    assert crm_rerank(tied, C2).permutation.tolist() == [2, 3, 0, 1]

    # Prefix optimality: for K <= 7, every prefix of the produced
    # ordering reaches the minimal possible risk sum over all K!
    # permutations.
    for K in range(2, 8):
        perms = np.array(list(permutations(range(K))))
        for seed in range(35):
            tax = gen_taxonomy(SynthConfig(
                seed=1000 + 10 * K + seed, K=K, N=0,
                tree_mode="random-attachment"))
            C = build_cost_matrix(tax)
            p = rng.dirichlet(np.full(K, 0.6))
            risks = conditional_risk(p, C)
            ours = np.cumsum(risks[crm_rerank(p, C).permutation])
            brute = np.cumsum(risks[perms], axis=1).min(axis=0)
            assert np.all(ours <= brute + PREFIX_TOL)


def test_03_vectorized_risks_and_lca_match_reference_walks():
    rng = np.random.Generator(np.random.PCG64(31))
    pool = [(tax, build_cost_matrix(tax)) for tax in tree_pool(100)]
    worst = 0.0
    for i in range(10_000):
        tax, C = pool[i % len(pool)]
        p = rng.dirichlet(np.full(tax.K, 0.7))
        gap = np.abs(conditional_risk(p, C) - oracle_risk(p, C)).max()
        worst = max(worst, float(gap))
    assert worst <= RISK_ORACLE_TOL
    for tax, _ in pool:
        L = tax.lca_matrix()
        for i in range(tax.K):
            for j in range(tax.K):
                assert lca_height(tax, i, j) == oracle_lca(tax, i, j)
                assert L[i, j] == oracle_lca(tax, i, j)


def paired_distance5_margin(preds, tax):
    C = build_cost_matrix(tax)
    L = tax.lca_matrix()
    rank_r = batch_apply(preds, C, "crm")
    rank_l = batch_apply(preds, None, "likelihood")
    P_r = np.stack([r.permutation[:5] for r in rank_r])
    P_l = np.stack([r.permutation[:5] for r in rank_l])
    tr = preds.truth[:, None]
    diff = L[tr, P_r].mean(axis=1) - L[tr, P_l].mean(axis=1)
    se = diff.std(ddof=1) / np.sqrt(diff.shape[0])
    return float(diff.mean()), float(se)


def test_04_risk_ranking_beats_likelihood_on_distance_at_five():
    # Self-sampled 32-class balanced tree, N=50,000: the expected-cost
    # ranking must cut mean distance@5 by at least 3 paired standard
    # errors, on the original tree and on a seed-0 leaf shuffle.
    started = time.monotonic()
    cfg = SynthConfig(seed=1234, K=32, N=50_000, concentration=0.3,
                      tree_mode="balanced-binary")
    tax = gen_taxonomy(cfg)
    preds = gen_predictions(cfg, tax)
    for t in (tax, shuffle_leaves(tax, 0)):
        mean, se = paired_distance5_margin(preds, t)
        assert mean < 0.0
        assert mean <= -SE_MARGIN * se
    assert time.monotonic() - started < 60.0


def _ranked(perms):
    perms = np.asarray(perms, dtype=np.int64)
    q = np.full(perms.shape, 1.0 / perms.shape[1])
    return Ranking(perms, q, "likelihood")


def test_05_mistake_mean_rewards_adding_mild_mistakes():
    # Concrete 20-sample pair of models on a 4-class tree. Model A:
    # 5 cross-branch mistakes (severity 2 each, total 10). Model B:
    # the same plus 5 sibling mistakes (severity 1, total 5 more).
    # The mistakes-only mean drops 2.0 -> 1.5 although model B is
    # strictly worse; the all-samples mean rises 0.5 -> 0.75.
    correct = [0, 1, 2, 3]
    cross = [2, 3, 0, 1]
    sibling = [1, 0, 2, 3]
    truth = np.zeros(20, dtype=np.int64)
    model_a = _ranked([correct] * 15 + [cross] * 5)
    model_b = _ranked([correct] * 10 + [cross] * 5 + [sibling] * 5)
    a = evaluate(model_a, truth, TWO_BRANCH)
    b = evaluate(model_b, truth, TWO_BRANCH)
    assert (a.severity_over_mistakes, a.n_mistakes) == (2.0, 5)
    assert (b.severity_over_mistakes, b.n_mistakes) == (1.5, 10)
    assert a.severity_over_all == 0.5
    assert b.severity_over_all == 0.75
    assert metric_flaw_check(10, 5, 5, 5) is True

    # Sufficient condition, exhaustively on random positive integers:
    # whenever the added mistakes are no harder on average
    # (d_h / m >= d_l / n), the mistakes-only mean cannot increase.
    rng = np.random.Generator(np.random.PCG64(55))
    quads = rng.integers(1, 1001, size=(10_000, 4))
    eligible = 0
    for d_h, m, d_l, n in quads:
        d_h, m, d_l, n = int(d_h), int(m), int(d_l), int(n)
        if d_h * n >= d_l * m:
            eligible += 1
            assert metric_flaw_check(d_h, m, d_l, n) is True
        else:
            assert metric_flaw_check(d_h, m, d_l, n) is False
    assert eligible > 2_000


def local_nll(probs, truth, T):
    out = apply_temperature(probs, T)
    return float(-np.mean(np.log(out[np.arange(len(truth)), truth])))


def grid_oracle_temperature(probs, truth):
    # Two-stage independent grid: 1,024 coarse points over the full
    # bracket, then 1,024 fine points between the coarse neighbors.
    # A single 1,024-point grid spans log(64^2)/1023 ~ 8.1e-3 per step,
    # coarser than the 1e-3 comparison tolerance, so it cannot serve as
    # an oracle by itself; the refined stage reaches ~1.6e-5.
    log_hi = np.log(64.0)
    z = np.log(np.maximum(probs, 1e-12))
    idx = np.arange(len(truth))

    def nll_curve(log_ts):
        out = np.empty(len(log_ts))
        for i, lt in enumerate(log_ts):
            w = z / np.exp(lt)
            m = w.max(axis=1)
            lse = m + np.log(np.exp(w - m[:, None]).sum(axis=1))
            out[i] = np.mean(lse - w[idx, truth])
        return out

    coarse = np.linspace(-log_hi, log_hi, 1024)
    ci = int(np.argmin(nll_curve(coarse)))
    fine = np.linspace(coarse[max(ci - 1, 0)],
                       coarse[min(ci + 1, 1023)], 1024)
    return float(fine[int(np.argmin(nll_curve(fine)))])


def test_06_calibration_suite():
    rng = np.random.Generator(np.random.PCG64(2024))

    # The expected gap is a count-weighted mean of per-bin gaps, so it
    # can never exceed the largest gap.
    for trial in range(60):
        K = int(rng.integers(2, 9))
        N = int(rng.integers(1, 400))
        B = int(rng.integers(1, 30))
        p = rng.dirichlet(np.full(K, 0.8), size=N)
        truth = rng.integers(0, K, size=N)
        preds = PredictionSet(p, truth, [f"c{i}" for i in range(K)])
        bins = bin_confidences(preds, batch_apply(preds, None,
                                                  "likelihood"), B)
        assert ece(bins) <= mce(bins) + 1e-12

    # Self-sampled rows are calibrated by construction; at N=100,000
    # the empirical ECE stays under 0.01.
    cfg = SynthConfig(seed=77, K=8, N=100_000)
    big = gen_predictions(cfg, gen_taxonomy(cfg))
    bins = bin_confidences(big, batch_apply(big, None, "likelihood"), 15)
    assert ece(bins) < 0.01

    # Fifty resharpened instances: the golden-section fit lands within
    # 1e-3 (log-space) of the grid oracle, never scores worse than
    # T = 1, and never changes any top-1 decision.
    for inst in range(50):
        K, N = 8, 500
        p = rng.dirichlet(np.ones(K), size=N)
        u = rng.random(N)
        truth = np.minimum((p.cumsum(axis=1) < u[:, None]).sum(axis=1),
                           K - 1).astype(np.int64)
        T0 = float(np.exp(rng.uniform(np.log(1 / 8), np.log(8))))
        q = apply_temperature(p, 1.0 / T0)
        val = PredictionSet(q, truth, [f"c{i}" for i in range(K)])
        T_fit = fit_temperature(val)
        T_grid = grid_oracle_temperature(val.probs, truth)
        assert abs(np.log(T_fit) - T_grid) <= FIT_LOG_TOL
        assert (local_nll(val.probs, truth, T_fit)
                <= local_nll(val.probs, truth, 1.0) + 1e-12)
        base_top = np.argmax(val.probs, axis=1)
        for T in (0.05, 0.25, 1.0, 4.0, 60.0):
            scaled_top = np.argmax(apply_temperature(val.probs, T), axis=1)
            assert np.array_equal(scaled_top, base_top)


def test_07_flat_tree_ranking_is_the_likelihood_ranking():
    # With every off-diagonal cost equal, expected cost is an affine
    # flip of the likelihood, so the two orderings coincide exactly,
    # ties included.
    K = 10
    tax = gen_taxonomy(SynthConfig(seed=3, K=K, N=0))
    C = build_cost_matrix(tax)
    rng = np.random.Generator(np.random.PCG64(17))
    rows = rng.dirichlet(np.full(K, 0.5), size=1_000)
    with_ties = np.vstack([
        rows,
        np.full((1, K), 1.0 / 16) * np.array([2] * 6 + [1] * 4)[None, :],
        np.full((1, K), 1.0 / K),
    ])
    for p in with_ties:
        assert np.array_equal(crm_rerank(p, C).permutation,
                              likelihood_rank(p).permutation)


def test_08_collapsed_ece_is_exact_at_both_depth_extremes():
    cfg = SynthConfig(seed=21, K=8, N=2_000, tree_mode="random-attachment")
    tax = gen_taxonomy(cfg)
    preds = gen_predictions(cfg, tax)
    assert hierarchical_ece(preds, tax, 0) == 0.0
    plain = ece(bin_confidences(preds,
                                batch_apply(preds, None, "likelihood"), 15))
    deep = hierarchical_ece(preds, tax, tax.max_leaf_depth())
    assert abs(deep - plain) <= COLLAPSE_TOL


def run_pipeline(workdir, env):
    def cli(*args):
        res = subprocess.run([sys.executable, "-m", "hier_risk", *args],
                             capture_output=True, text=True, cwd=workdir,
                             env=env)
        assert res.returncode == 0, f"{' '.join(args)}\n{res.stderr}"
        assert res.stdout == ""
        return res

    cli("simulate", "--seed", "7", "--classes", "8", "--samples", "400",
        "--tree-mode", "balanced-binary",
        "--out-predictions", "p.csv", "--out-hierarchy", "h.tsv")
    cli("simulate", "--seed", "8", "--classes", "8", "--samples", "200",
        "--tree-mode", "balanced-binary",
        "--out-predictions", "v.csv", "--out-hierarchy", "h2.tsv")
    cli("build-costs", "--hierarchy", "h.tsv", "--out", "costs.csv")
    cli("eval", "--hierarchy", "h.tsv", "--predictions", "p.csv",
        "--k", "1,5", "--threads", "2", "--out", "eval.json")
    cli("calibrate", "--val-predictions", "v.csv", "--predictions",
        "p.csv", "--source", "crm-selected", "--hierarchy", "h.tsv",
        "--out", "cal.json")
    cli("shuffle-eval", "--hierarchy", "h.tsv", "--predictions", "p.csv",
        "--seed", "3", "--k", "1,5", "--out", "shuf.json")
    return ["h.tsv", "p.csv", "v.csv", "costs.csv", "eval.json",
            "cal.json", "shuf.json"]


def test_09_identical_seeds_give_byte_identical_artifacts(tmp_path,
                                                          checkout_env):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    files = run_pipeline(run_a, checkout_env)
    assert files == run_pipeline(run_b, checkout_env)
    for name in files:
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), \
            f"{name} differs between identically seeded runs"
