from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hier_risk import (PredictionSet, Ranking, SynthConfig,
                       build_cost_matrix, batch_apply,
                       distance_at_k, full_report, gen_predictions,
                       gen_taxonomy, metric_flaw_check, node_height,
                       parse_taxonomy, severity_histogram,
                       severity_over_all, severity_over_mistakes,
                       top1_error)
from hier_risk.metrics import Evaluation

TWO_BRANCH = parse_taxonomy(
    "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n")


def synth(seed=1, K=8, N=300, tree_mode="random-attachment", **kw):
    cfg = SynthConfig(seed=seed, K=K, N=N, tree_mode=tree_mode, **kw)
    tax = gen_taxonomy(cfg)
    return tax, gen_predictions(cfg, tax)


def test_empty_batch_yields_zero_metrics():
    nothing = Ranking(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2)))
    assert top1_error(nothing, np.zeros(0, dtype=np.int64)) == 0.0
    tax, preds = synth(N=0)
    report = full_report(preds, tax, "crm", k_list=(1, 2))
    assert report.top1_error == 0.0
    assert report.distance_at_k == {1: 0.0, 2: 0.0}
    assert report.severity_over_mistakes is None
    assert report.severity_over_all == 0.0
    assert report.n_mistakes == 0
    assert set(report.histogram) == set(range(1, node_height(tax, tax.root) + 1))
    assert all(v == 0 for v in report.histogram.values())


def test_distance_at_k_validates_k():
    tax, preds = synth(K=4, N=10, tree_mode="flat")
    ranked = batch_apply(preds, build_cost_matrix(tax), "crm")
    with pytest.raises(ValueError):
        distance_at_k(ranked, preds.truth, tax, 0)
    with pytest.raises(ValueError):
        distance_at_k(ranked, preds.truth, tax, 5)
    with pytest.raises(ValueError, match=r"\[1, 4\]"):
        full_report(preds, tax, "crm", k_list=(1, 5))
    with pytest.raises(ValueError, match="empty"):
        full_report(preds, tax, "crm", k_list=())


def test_shallow_ranking_refuses_a_deeper_k_by_name():
    # A ranking cut to depth 3 serves k up to 3, each equal to the full
    # ranking's value; k = 4 is a ValueError naming the depth, not the
    # IndexError the missing column would otherwise raise.
    tax, preds = synth(seed=3, K=8, N=60)
    C = build_cost_matrix(tax)
    full = batch_apply(preds, C, "crm")
    shallow = batch_apply(preds, C, "crm", depth=3)
    assert shallow.permutation.shape == (60, 3)
    for k in (1, 2, 3):
        assert (distance_at_k(shallow, preds.truth, tax, k)
                == distance_at_k(full, preds.truth, tax, k))
    with pytest.raises(ValueError, match="exceeds the ranking depth 3"):
        distance_at_k(shallow, preds.truth, tax, 4)


def test_likelihood_report_builds_no_cost_matrix(monkeypatch):
    # The likelihood ranking reads no costs; only the class order is
    # checked against the taxonomy, with the same message as before.
    tax, preds = synth(K=24, N=40)
    expected = full_report(preds, tax, "likelihood")

    def refuse(_):
        raise AssertionError("cost matrix built")

    monkeypatch.setattr("hier_risk.metrics.build_cost_matrix", refuse)
    assert full_report(preds, tax, "likelihood") == expected
    names = list(reversed(preds.class_names))
    swapped = PredictionSet(preds.probs, preds.truth, names)
    with pytest.raises(ValueError, match="class order mismatch"):
        full_report(swapped, tax, "likelihood")


def test_length_mismatch_rejected():
    tax, preds = synth(K=4, N=10, tree_mode="flat")
    ranked = batch_apply(preds, build_cost_matrix(tax), "crm")
    with pytest.raises(ValueError, match="length"):
        top1_error(ranked, preds.truth[:-1])


def test_metric_identities_on_random_batches():
    for seed in (0, 5, 9):
        tax, preds = synth(seed=seed, K=9, N=400)
        ranked = batch_apply(preds, build_cost_matrix(tax), "crm")
        truth = preds.truth
        soa = severity_over_all(ranked, truth, tax)
        som, m = severity_over_mistakes(ranked, truth, tax)
        hist = severity_histogram(ranked, truth, tax)
        # distance@1 is the severity of the top pick, averaged over all.
        assert distance_at_k(ranked, truth, tax, 1) == soa
        # Both means divide the same integer total.
        total = sum(h * c for h, c in hist.items())
        assert m == sum(hist.values())
        assert som == total / m
        assert soa == total / preds.N
        assert top1_error(ranked, truth) == m / preds.N


def test_distance_at_k_counts_truth_as_zero():
    # distance@K averages each truth class in at position K once, so the
    # per-sample sum is the whole cost row of the truth class.
    tax, preds = synth(seed=3, K=6, N=50)
    C = build_cost_matrix(tax)
    ranked = batch_apply(preds, C, "likelihood")
    full_k = distance_at_k(ranked, preds.truth, tax, tax.K)
    expected = np.mean(C.entries[preds.truth].sum(axis=1) / tax.K)
    assert abs(full_k - expected) < 1e-12


def test_distance_at_k_is_monotone_in_k_only_sometimes():
    # Adding ranks can raise or lower the running mean; just pin the
    # prefix-mean recurrence itself.
    tax, preds = synth(seed=4, K=5, N=80)
    ranked = batch_apply(preds, build_cost_matrix(tax), "crm")
    lca = tax.lca_matrix()
    for k in range(1, 6):
        manual = np.mean([
            lca[t, r.permutation[:k]].mean()
            for r, t in zip(ranked, preds.truth)
        ])
        assert abs(distance_at_k(ranked, preds.truth, tax, k) - manual) < 1e-12


def test_full_report_matches_component_metrics():
    tax, preds = synth(seed=7, K=10, N=500)
    for basis in ("crm", "likelihood"):
        ranked = batch_apply(preds, build_cost_matrix(tax), basis)
        report = full_report(preds, tax, basis, k_list=(1, 3, 7))
        assert report.top1_error == top1_error(ranked, preds.truth)
        for k in (1, 3, 7):
            assert report.distance_at_k[k] == distance_at_k(
                ranked, preds.truth, tax, k)
        som, m = severity_over_mistakes(ranked, preds.truth, tax)
        assert report.n_mistakes == m
        assert report.severity_over_mistakes == som
        assert report.severity_over_all == severity_over_all(
            ranked, preds.truth, tax)
        assert report.histogram == severity_histogram(
            ranked, preds.truth, tax)


def test_distance_at_k_is_the_exact_integer_quotient():
    tax, preds = synth(seed=0, K=10, N=500)
    for basis in ("crm", "likelihood"):
        ranked = batch_apply(preds, build_cost_matrix(tax), basis)
        D = tax.lca_matrix()[preds.truth[:, None], ranked.permutation]
        report = full_report(preds, tax, basis, k_list=(1, 3, 7))
        for k in (1, 3, 7):
            exact = Fraction(int(D[:, :k].sum()), k * preds.N)
            assert report.distance_at_k[k] == float(exact)


def test_full_report_is_invariant_to_row_order():
    tax, preds = synth(seed=0, K=10, N=500)
    rows = np.random.Generator(np.random.PCG64(0)).permutation(preds.N)
    # Both sets go through the same row-local validation.
    same = PredictionSet(preds.probs, preds.truth, preds.class_names)
    shuffled = PredictionSet(preds.probs[rows], preds.truth[rows],
                             preds.class_names)
    for basis in ("crm", "likelihood"):
        assert (full_report(shuffled, tax, basis, k_list=(1, 3, 7))
                == full_report(same, tax, basis, k_list=(1, 3, 7)))


def test_counting_a_ranking_in_slices_matches_counting_it_whole():
    tax, preds = synth(seed=5, N=40)
    ranking = batch_apply(preds, build_cost_matrix(tax), "crm")
    whole, split = (Evaluation(tax, "crm", (1, 3)) for _ in range(2))
    whole.count(ranking, preds.truth)
    split.count(ranking[:15], preds.truth[:15])
    split.count(ranking[15:], preds.truth[15:])
    assert split.report() == whole.report()


def test_full_report_dedupes_and_sorts_k_list():
    tax, preds = synth(seed=8, K=6, N=40)
    report = full_report(preds, tax, "crm", k_list=(3, 1, 3))
    assert list(report.distance_at_k) == [1, 3]


def test_histogram_includes_zero_count_severities():
    # Truth is always class a; rank b first everywhere. Severity is
    # always 1, yet the histogram still carries the height-2 slot.
    probs = np.tile(np.array([0.1, 0.7, 0.1, 0.1]), (5, 1))
    truth = np.zeros(5, dtype=np.int64)
    preds = PredictionSet(probs, truth, ["a", "b", "c", "d"])
    ranked = batch_apply(preds, None, "likelihood")
    assert severity_histogram(ranked, truth, TWO_BRANCH) == {1: 5, 2: 0}


def test_perfect_predictions_have_no_mistakes():
    tax, preds = synth(seed=2, K=8, N=64, truth_mode="argmax")
    ranked = batch_apply(preds, None, "likelihood")
    assert top1_error(ranked, preds.truth) == 0.0
    som, m = severity_over_mistakes(ranked, preds.truth, tax)
    assert (som, m) == (0.0, 0)
    report = full_report(preds, tax, "likelihood", k_list=(1,))
    assert report.severity_over_mistakes is None
    assert report.n_mistakes == 0


def test_flaw_check_requires_positive_inputs():
    for bad in ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, -2, 1), (1, 1, 1, 0)):
        with pytest.raises(ValueError):
            metric_flaw_check(*bad)


@settings(max_examples=200, deadline=None)
@given(d_h=st.integers(1, 10**9), m=st.integers(1, 10**9),
       d_l=st.integers(1, 10**9), n=st.integers(1, 10**9))
def test_flaw_check_agrees_with_exact_rationals(d_h, m, d_l, n):
    merged = Fraction(d_h + d_l, m + n)
    alone = Fraction(d_h, m)
    assert metric_flaw_check(d_h, m, d_l, n) is (merged <= alone)


def test_truth_labels_and_depths_outside_the_classes_are_rejected():
    tax, preds = synth(K=4, N=2, tree_mode="balanced-binary")
    ranked = batch_apply(preds, None, "likelihood")
    for labels, bad in (([-1, -4], -1), ([4, 0], 4), ([0, 7], 7)):
        match = rf"^truth label {bad} outside \[0, 4\)$"
        with pytest.raises(ValueError, match=match):
            top1_error(ranked, labels)
        with pytest.raises(ValueError, match=match):
            distance_at_k(ranked, labels, tax, 1)
        with pytest.raises(ValueError, match=match):
            severity_over_all(ranked, labels, tax)
        with pytest.raises(ValueError, match=match):
            Evaluation(tax, "likelihood").count(ranked, labels)
    for ks, bad in (((2.9,), "2.9"), ((1, 1.5), "1.5"), (("2",), "'2'")):
        with pytest.raises(ValueError,
                           match=rf"^k_list entries must be integers, "
                                 rf"got {bad}$"):
            full_report(preds, tax, "crm", k_list=ks)
    # Integral values of any numeric type still name their depth.
    assert (full_report(preds, tax, "crm", k_list=(2.0, np.int64(1)))
            == full_report(preds, tax, "crm", k_list=(1, 2)))
