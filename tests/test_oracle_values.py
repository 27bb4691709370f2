"""Hand-computed expected values, frozen before the implementation ran.

Every number here was derived by hand from the definitions (LCA-height
costs, expected-cost ranking, equal-width right-closed bins, severity
means). Dyadic constructions are asserted exactly; decimal arithmetic
gets a 1e-12 tolerance.
"""

import numpy as np

from hier_risk import (PredictionSet, Ranking, apply_temperature,
                       batch_apply, bin_confidences, build_cost_matrix,
                       collapse_to_depth, conditional_risk, crm_predict,
                       crm_rerank, ece, evaluate, likelihood_rank, mce,
                       metric_flaw_check, parse_taxonomy)

TOL = 1e-12

# Two binary branches under the root: classes a, b under p1 and c, d
# under p2. Heights: leaves 0, p1/p2 1, root 2.
TWO_BRANCH = "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n"

# Same shape, alphabetically interleaved: x, y under p and z, w under q.
INTERLEAVED = "x\tp\ny\tp\nz\tq\nw\tq\np\troot\nq\troot\n"


def two_branch():
    return parse_taxonomy(TWO_BRANCH)


def test_cost_matrix_two_branch_tree():
    C = build_cost_matrix(two_branch())
    expected = np.array([
        [0, 1, 2, 2],
        [1, 0, 2, 2],
        [2, 2, 0, 1],
        [2, 2, 1, 0],
    ])
    assert np.array_equal(C.entries, expected)
    assert C.class_names == ["a", "b", "c", "d"]


def test_cost_matrix_interleaved_names():
    # Sorted class order is w, x, y, z; w sits in the q branch with z.
    C = build_cost_matrix(parse_taxonomy(INTERLEAVED))
    expected = np.array([
        [0, 2, 2, 1],
        [2, 0, 1, 2],
        [2, 1, 0, 2],
        [1, 2, 2, 0],
    ])
    assert np.array_equal(C.entries, expected)
    assert C.class_names == ["w", "x", "y", "z"]


def test_risk_vector_matches_hand_computation():
    # R[k] = sum_j C[k][j] p[j] with p = (.35, .05, .33, .27):
    #   R = (1.25, 1.55, 1.07, 1.13)
    C = build_cost_matrix(two_branch())
    p = [0.35, 0.05, 0.33, 0.27]
    risks = conditional_risk(p, C)
    assert np.allclose(risks, [1.25, 1.55, 1.07, 1.13], rtol=0, atol=TOL)


def test_rerank_flips_top_class_away_from_argmax():
    # argmax picks a (0.35) but both its branch-mates are weak; the c/d
    # branch holds 0.60 of the mass, so expected cost favors c.
    C = build_cost_matrix(two_branch())
    p = [0.35, 0.05, 0.33, 0.27]
    assert crm_predict(p, C) == 2
    assert crm_rerank(p, C).permutation.tolist() == [2, 3, 0, 1]
    assert likelihood_rank(p).permutation.tolist() == [0, 2, 3, 1]


def test_fastpath_agrees_when_top_mass_dominates():
    C = build_cost_matrix(two_branch())
    p = [0.6, 0.2, 0.15, 0.05]
    assert crm_predict(p, C) == 0


def test_collapse_groups_by_branch():
    tax = parse_taxonomy(INTERLEAVED)
    names = {i: tax.names[n] for i, n in enumerate(tax.leaves)}
    anc = collapse_to_depth(tax, 1)
    groups = {}
    for cls, node in anc.items():
        groups.setdefault(tax.names[node], set()).add(names[cls])
    assert groups == {"p": {"x", "y"}, "q": {"w", "z"}}
    root_only = set(collapse_to_depth(tax, 0).values())
    assert root_only == {tax.root}
    identity = collapse_to_depth(tax, tax.max_leaf_depth())
    assert all(node == tax.leaves[cls] for cls, node in identity.items())


def test_temperature_two_makes_square_root_weights():
    # softmax(log p / 2) on (0.8, 0.2) is (2/3, 1/3) because
    # sqrt(0.8) = 2 sqrt(0.2).
    out = apply_temperature(np.array([[0.8, 0.2]]), 2.0)
    assert np.allclose(out, [[2 / 3, 1 / 3]], rtol=0, atol=TOL)
    same = apply_temperature(np.array([[0.8, 0.2]]), 1.0)
    assert np.allclose(same, [[0.8, 0.2]], rtol=0, atol=TOL)


def test_flaw_check_frozen_instances():
    # 5 mistakes totalling 10 (mean 2.0); adding 5 totalling 5 drops the
    # mean to 1.5, so the check flags it.
    assert metric_flaw_check(10, 5, 5, 5) is True
    # 2 mistakes totalling 2 (mean 1.0); adding 3 totalling 9 raises the
    # mean to 2.2.
    assert metric_flaw_check(2, 2, 9, 3) is False
    # Boundary: mean exactly preserved.
    assert metric_flaw_check(4, 2, 4, 2) is True


def _ranked(perms):
    perms = np.asarray(perms, dtype=np.int64)
    q = np.full(perms.shape, 1.0 / perms.shape[1])
    return Ranking(perms, q, "likelihood-descending")


def test_severity_means_and_histogram():
    # Six samples, truth class a: three correct, mistakes of severity
    # 2, 2, 1. Mistake mean 5/3, overall mean 5/6, histogram {1:1, 2:2}.
    tax = two_branch()
    ranked = _ranked([
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
        [2, 0, 1, 3],
        [3, 0, 1, 2],
        [1, 0, 2, 3],
    ])
    truth = np.zeros(6, dtype=np.int64)
    r = evaluate(ranked, truth, tax)
    assert r.n_mistakes == 3
    assert abs(r.severity_over_mistakes - 5 / 3) <= TOL
    assert abs(r.severity_over_all - 5 / 6) <= TOL
    assert r.histogram == {1: 1, 2: 2}


def test_distance_at_k_frozen_prefixes():
    tax = two_branch()
    truth = np.zeros(1, dtype=np.int64)
    risk_order = _ranked([[2, 3, 0, 1]])
    risk = evaluate(risk_order, truth, tax, (1, 2)).distance_at_k
    assert risk[1] == 2.0
    assert risk[2] == 2.0
    lik_order = _ranked([[0, 2, 3, 1]])
    lik = evaluate(lik_order, truth, tax, (1, 2)).distance_at_k
    assert lik[1] == 0.0
    assert lik[2] == 1.0


def test_binning_ece_mce_dyadic_exact():
    # Four samples with dyadic confidences .25, .375, .625, .75 and two
    # bins: lows {.25, .375} both wrong, highs {.625, .75} split. Bin
    # means are .3125 and .6875, gaps .3125 and .1875, so ECE is .25 and
    # MCE is .3125, all exact in binary floating point.
    probs = np.array([
        [0.25, 0.25, 0.25, 0.25],
        [0.375, 0.375, 0.125, 0.125],
        [0.625, 0.125, 0.125, 0.125],
        [0.75, 0.125, 0.0625, 0.0625],
    ])
    truth = np.array([1, 2, 0, 3])
    preds = PredictionSet(probs, truth, ["a", "b", "c", "d"])
    ranked = batch_apply(preds, None, "likelihood")
    bins = bin_confidences(preds, ranked, 2, "max-likelihood")
    assert bins.counts.tolist() == [2, 2]
    assert bins.mean_conf.tolist() == [0.3125, 0.6875]
    assert bins.accuracy.tolist() == [0.0, 0.5]
    assert ece(bins) == 0.25
    assert mce(bins) == 0.3125
