import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hier_risk import calibration
from hier_risk import (PredictionSet, Ranking, SynthConfig, apply_temperature,
                       batch_apply, bin_confidences, build_cost_matrix,
                       ece, fit_temperature, gen_predictions, gen_taxonomy,
                       hierarchical_ece, likelihood_rank, mce,
                       parse_taxonomy)
from hier_risk.calibration import CONFIDENCE_SOURCES
from hier_risk.predictions import _passed, _rows_per_block
from hier_risk.taxonomy import TaxonomyError

TWO_BRANCH = parse_taxonomy(
    "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n")


def mean_nll(probs, truth, T):
    # Local re-derivation, kept independent of the implementation.
    out = apply_temperature(probs, T)
    return float(-np.mean(np.log(out[np.arange(len(truth)), truth])))


def make_preds(probs, truth, K):
    return PredictionSet(np.asarray(probs, dtype=np.float64),
                         np.asarray(truth, dtype=np.int64),
                         [f"c{i}" for i in range(K)])


def test_confidence_sources_mapping():
    assert set(CONFIDENCE_SOURCES) == {"max-likelihood", "crm-selected"}


def test_bin_confidences_validation():
    preds = make_preds([[0.6, 0.4]], [0], 2)
    ranked = batch_apply(preds, None, "likelihood")
    with pytest.raises(ValueError, match=">= 1"):
        bin_confidences(preds, ranked, 0)
    with pytest.raises(ValueError, match="length"):
        bin_confidences(preds, [], 10)


def test_bins_are_right_closed():
    # Exactly on an interior edge goes to the lower bin; exactly 1.0
    # goes to the last bin.
    probs = [
        [0.25, 0.25, 0.25, 0.25],   # conf 0.25, edge of bins 0|1 at B=4
        [1.0, 0.0, 0.0, 0.0],       # conf 1.0
        [0.26, 0.25, 0.25, 0.24],   # just above the edge
    ]
    preds = make_preds(probs, [0, 0, 0], 4)
    ranked = batch_apply(preds, None, "likelihood")
    bins = bin_confidences(preds, ranked, 4)
    assert bins.counts.tolist() == [1, 1, 0, 1]
    assert bins.edges.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_empty_bins_report_zero():
    empty = make_preds(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    nothing = Ranking(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2)))
    bins = bin_confidences(empty, nothing, 5)
    assert bins.counts.tolist() == [0] * 5
    assert ece(bins) == 0.0
    assert mce(bins) == 0.0
    assert bins.mean_conf.tolist() == [0.0] * 5


def test_mce_ignores_empty_bins():
    # One populated bin with zero gap; empty bins must not contribute
    # their (0 - 0) placeholder either way.
    probs = [[0.75, 0.125, 0.0625, 0.0625]] * 4
    preds = make_preds(probs, [0, 0, 0, 1], 4)
    ranked = batch_apply(preds, None, "likelihood")
    bins = bin_confidences(preds, ranked, 2)
    assert bins.counts.tolist() == [0, 4]
    assert ece(bins) == 0.0
    assert mce(bins) == 0.0


def test_apply_temperature_validation():
    with pytest.raises(ValueError, match="positive"):
        apply_temperature(np.ones((1, 2)) / 2, 0.0)
    with pytest.raises(ValueError, match="positive"):
        apply_temperature(np.ones((1, 2)) / 2, float("inf"))
    with pytest.raises(ValueError, match="2-d"):
        apply_temperature(np.array([0.5, 0.5]), 1.0)


def test_in_place_temperature_gives_the_same_bits():
    rng = np.random.Generator(np.random.PCG64(11))
    rows = rng.dirichlet(np.full(7, 0.2), size=50)
    rows[0, 3] = 0.0
    for T in (0.3, 1.0, 2.9):
        z = np.log(np.maximum(rows, 1e-12)) / T
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        expected = e / e.sum(axis=1, keepdims=True)
        before = rows.copy()
        assert apply_temperature(rows, T).tobytes() == expected.tobytes()
        assert np.array_equal(rows, before)


def test_temperature_limits_and_zero_handling():
    row = np.array([[0.7, 0.3, 0.0]])
    flat = apply_temperature(row, 1e9)
    assert np.all(np.isfinite(flat))
    assert abs(flat[0, 0] - flat[0, 1]) < 1e-6
    sharp = apply_temperature(row, 1e-3)
    assert sharp[0, 0] > 0.999999
    assert np.allclose(apply_temperature(row, 2.0).sum(axis=1), 1.0)


def test_temperature_preserves_the_ranking():
    rng = np.random.Generator(np.random.PCG64(6))
    rows = rng.dirichlet(np.ones(6), size=30)
    for T in (0.25, 0.9, 3.7):
        out = apply_temperature(rows, T)
        for before, after in zip(rows, out):
            assert np.array_equal(likelihood_rank(before).permutation,
                                  likelihood_rank(after).permutation)


def test_fit_recovers_a_known_sharpening():
    # Predictions are the square of the truth-generating distribution,
    # renormalized; T = 2 undoes that exactly, so the fit lands near 2.
    rng = np.random.Generator(np.random.PCG64(12))
    N, K = 20000, 5
    p = rng.dirichlet(np.full(K, 1.2), size=N)
    u = rng.random(N)
    truth = np.minimum((p.cumsum(axis=1) < u[:, None]).sum(axis=1), K - 1)
    q = p ** 2
    q /= q.sum(axis=1, keepdims=True)
    val = make_preds(q, truth, K)
    T = fit_temperature(val)
    assert abs(T - 2.0) < 0.15
    assert mean_nll(q, truth, T) <= mean_nll(q, truth, 1.0)


def test_fit_temperature_golden_value():
    # Pins the fit bit for bit: the floored log is taken once and divided
    # by T at each evaluation, which gives the same NLL bits as taking
    # it at every evaluation.
    cfg = SynthConfig(seed=7, K=32, N=2000, concentration=0.05,
                      truth_mode="corrupted", corrupt_rho=0.2,
                      tree_mode="balanced-binary")
    val = gen_predictions(cfg, gen_taxonomy(cfg))
    assert fit_temperature(val) == 4.608610861120865


def whole_matrix_nll(logp, truth, T):
    # The fit's objective over all rows at once, the reference for the
    # blockwise walk.
    z = logp / T
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), truth]))


@pytest.mark.parametrize("K", [2, 32, 1000])
def test_blockwise_fit_gives_the_whole_matrix_bits(K):
    # Row counts at, just below and just above one and two blocks.
    step = _rows_per_block(K)
    rng = np.random.Generator(np.random.PCG64(K))
    for N in (1, step - 1, step, step + 1, 2 * step - 1, 2 * step,
              2 * step + 1):
        val = make_preds(rng.dirichlet(np.full(K, 0.3), size=N),
                         rng.integers(0, K, size=N), K)
        logp = np.log(np.maximum(val.probs, calibration.PROB_FLOOR))
        for T in (1 / 64, 0.5, 1.0, 4.15, 64.0):
            assert calibration._mean_nll(logp, val.truth, T) == \
                whole_matrix_nll(logp, val.truth, T), (N, T)
        T = fit_temperature(val)
        with mock.patch.object(calibration, "_mean_nll", whole_matrix_nll):
            assert fit_temperature(val) == T, N


@pytest.mark.parametrize("K", [2, 32, 1000])
def test_spilled_fit_gives_the_in_memory_bits(K):
    # calibrate spills the split's floored logs a block at a time and the
    # fit reads them back by block: every NLL and the temperature keep
    # the bits of fit_temperature on the whole set.
    step = _rows_per_block(K)
    rng = np.random.Generator(np.random.PCG64(K + 1))
    for N in (1, step, 2 * step + 1):
        val = make_preds(rng.dirichlet(np.full(K, 0.3), size=N),
                         rng.integers(0, K, size=N), K)
        logp = np.log(np.maximum(val.probs, calibration.PROB_FLOOR))
        with calibration._LogSpill(K) as spill:
            for lo in range(0, N, step):
                spill.add(_passed(val.probs[lo:lo + step].copy(),
                                  val.truth[lo:lo + step], val.class_names))
            assert spill.shape == (N, K) and not spill.one_hot
            assert np.array_equal(spill.truth, val.truth)
            for T in (1 / 64, 1.0, 4.15):
                assert calibration._mean_nll(spill, spill.truth, T) == \
                    calibration._mean_nll(logp, val.truth, T), (N, T)
            T = calibration._fit(spill, spill.truth, spill.one_hot)
        assert spill.file.closed
        assert T == fit_temperature(val), N


def test_fit_holds_one_copy_of_the_validation_values():
    # The floored log-probabilities, the per-row terms and one block of
    # temporaries; a whole-matrix objective holds about 4 x the values.
    rng = np.random.Generator(np.random.PCG64(5))
    N, K = 40000, 32
    val = make_preds(rng.dirichlet(np.full(K, 0.05), size=N),
                     rng.integers(0, K, size=N), K)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_temperature(val)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= val.probs.nbytes + (1 << 20), (peak, val.probs.nbytes)


def test_fit_returns_exactly_one_when_one_is_optimal():
    # Truth frequencies match the predicted row exactly, so T = 1
    # minimizes the NLL; the guard then returns the exact float 1.0,
    # never 0.9999x. The row is deliberately asymmetric: a symmetric one
    # would park the search within an ulp of 1 and make the guard
    # comparison a rounding coin flip.
    val = make_preds([[0.5, 0.25, 0.25]] * 4, [0, 0, 1, 2], 3)
    assert fit_temperature(val) == 1.0


def test_fit_clamps_to_the_search_bracket():
    # Always-correct mildly confident rows push T toward 0 with a
    # strictly decreasing objective all the way down, so the bracket
    # floor at 1/64 catches the search.
    val = make_preds([[0.6, 0.4]] * 50, [0] * 50, 2)
    T = fit_temperature(val)
    assert T == pytest.approx(1 / 64, rel=1e-3)
    assert mean_nll(val.probs, val.truth, T) <= mean_nll(
        val.probs, val.truth, 1.0)


def test_fit_settles_anywhere_on_a_zero_nll_plateau():
    # With [0.9, 0.1] rows the term (1/9)**(1/T) underflows below one
    # ulp for every T under ~0.06, so the NLL is exactly 0.0 on a whole
    # plateau and any point of it is a valid optimum.
    val = make_preds([[0.9, 0.1]] * 50, [0] * 50, 2)
    T = fit_temperature(val)
    assert 1 / 64 <= T < 0.07
    assert mean_nll(val.probs, val.truth, T) == 0.0


def test_fit_warns_on_one_hot_rows():
    val = make_preds([[1.0, 0.0], [0.0, 1.0]], [0, 1], 2)
    with pytest.warns(RuntimeWarning, match="one-hot"):
        assert fit_temperature(val) == 1.0


def test_fit_rejects_empty_validation():
    empty = make_preds(np.zeros((0, 3)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError, match="empty"):
        fit_temperature(empty)


def test_hierarchical_ece_frozen_dyadic_instance():
    # Branch sums and bin means stay dyadic, so the expected value
    # 0.15625 = |0.5 - 0.65625| is exact.
    probs = [
        [0.5, 0.125, 0.25, 0.125],
        [0.125, 0.125, 0.375, 0.375],
        [0.25, 0.125, 0.5, 0.125],
        [0.3125, 0.3125, 0.1875, 0.1875],
    ]
    truth = [0, 2, 1, 3]  # groups: correct, correct, wrong, wrong
    preds = make_preds(probs, truth, 4)
    preds = PredictionSet(preds.probs, preds.truth, ["a", "b", "c", "d"])
    assert hierarchical_ece(preds, TWO_BRANCH, 1, B=2) == 0.15625


def test_hierarchical_ece_depth_extremes():
    cfg = SynthConfig(seed=21, K=8, N=400, tree_mode="random-attachment")
    tax = gen_taxonomy(cfg)
    preds = gen_predictions(cfg, tax)
    assert hierarchical_ece(preds, tax, 0) == 0.0
    ranked = batch_apply(preds, None, "likelihood")
    flat = ece(bin_confidences(preds, ranked, 15))
    deep = hierarchical_ece(preds, tax, tax.max_leaf_depth())
    assert abs(deep - flat) <= 1e-12
    with pytest.raises(TaxonomyError, match="out of range"):
        hierarchical_ece(preds, tax, tax.max_leaf_depth() + 1)


def test_hierarchical_ece_rejects_columns_off_the_class_order():
    probs = np.array([[0.5, 0.2, 0.2, 0.1], [0.1, 0.3, 0.4, 0.2],
                      [0.25, 0.25, 0.25, 0.25]])
    truth = np.array([0, 2, 3])
    good = PredictionSet(probs, truth, ["a", "b", "c", "d"])
    assert 0.0 <= hierarchical_ece(good, TWO_BRANCH, 1) <= 1.0
    # The same rows with their columns as c, a, b, d, and a 3-column set.
    moved = PredictionSet(probs[:, [2, 0, 1, 3]], [1, 0, 3],
                          ["c", "a", "b", "d"])
    narrow = make_preds(probs[:, :3] / probs[:, :3].sum(axis=1)[:, None],
                        [0, 2, 1], 3)
    for preds in (moved, narrow):
        with pytest.raises(ValueError, match="class order mismatch"):
            hierarchical_ece(preds, TWO_BRANCH, 1)


def test_crm_selected_confidence_uses_risk_ranking():
    cfg = SynthConfig(seed=30, K=6, N=200, tree_mode="random-attachment")
    tax = gen_taxonomy(cfg)
    preds = gen_predictions(cfg, tax)
    C = build_cost_matrix(tax)
    ranked = batch_apply(preds, C, "crm")
    bins = bin_confidences(preds, ranked, 15)
    # Confidence is the likelihood mass on the risk-selected class,
    # which cannot exceed the max likelihood, so the mean confidence is
    # no larger than under the likelihood ranking.
    lik = batch_apply(preds, None, "likelihood")
    lik_bins = bin_confidences(preds, lik, 15)
    tot = (bins.mean_conf * bins.counts).sum()
    lik_tot = (lik_bins.mean_conf * lik_bins.counts).sum()
    assert tot <= lik_tot + 1e-12
