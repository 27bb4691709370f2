import tracemalloc

import numpy as np
import pytest

from hier_risk import (PredictionSet, SynthConfig, batch_apply,
                       build_cost_matrix, conditional_risk, evaluate,
                       gen_predictions, gen_taxonomy, lca_height, node_height,
                       oracle_lca, oracle_risk, parse_taxonomy,
                       save_predictions)
from hier_risk.cli import main
from hier_risk.dataio import _rows_per_block
from hier_risk.synth import prediction_blocks


def test_config_validation():
    good = dict(seed=0, K=4, N=10)
    SynthConfig(**good)
    for field, value in (("K", 1), ("K", 10000), ("N", -1),
                         ("concentration", 0.0), ("concentration", -2.0),
                         ("concentration", float("inf")),
                         ("concentration", float("nan")),
                         ("concentration", 1e308),
                         ("corrupt_rho", -0.1), ("corrupt_rho", 1.5),
                         ("truth_mode", "noisy"), ("tree_mode", "star")):
        with pytest.raises(ValueError):
            SynthConfig(**{**good, field: value})
    with pytest.raises(ValueError, match="^seed must be a non-negative "
                                         "integer, got -5$"):
        SynthConfig(**{**good, "seed": -5})
    # K gamma draws near the concentration must not overflow a row sum.
    with pytest.raises(ValueError, match="^concentration 1e\\+306 is too "
                                         "large"):
        SynthConfig(seed=0, K=256, N=1, concentration=1e306)
    SynthConfig(seed=0, K=256, N=1, concentration=3e305)


def test_flat_tree_shape():
    tax = gen_taxonomy(SynthConfig(seed=0, K=5, N=0))
    assert tax.K == 5
    assert tax.n_nodes == 6
    assert [tax.names[i] for i in tax.leaves] == [
        "c0000", "c0001", "c0002", "c0003", "c0004"]
    m = tax.lca_matrix()
    assert np.all(m[~np.eye(5, dtype=bool)] == 1)


def test_balanced_binary_shape():
    tax = gen_taxonomy(SynthConfig(seed=0, K=8, N=0,
                                   tree_mode="balanced-binary"))
    depths = tax.depths()
    assert all(depths[leaf] == 3 for leaf in tax.leaves)
    assert node_height(tax, tax.root) == 3
    # Adjacent sorted leaves are siblings: cost 1 on the off-diagonal
    # pairs (0,1), (2,3), (4,5), (6,7).
    m = tax.lca_matrix()
    for a in range(0, 8, 2):
        assert m[a, a + 1] == 1
    assert m[0, 7] == 3


def test_balanced_binary_requires_power_of_two():
    with pytest.raises(ValueError, match="power of 2"):
        gen_taxonomy(SynthConfig(seed=0, K=6, N=0,
                                 tree_mode="balanced-binary"))


def test_random_attachment_reaches_exactly_k_leaves():
    for seed, K in ((0, 2), (1, 7), (2, 23), (3, 64)):
        tax = gen_taxonomy(SynthConfig(seed=seed, K=K, N=0,
                                       tree_mode="random-attachment"))
        assert tax.K == K
        assert tax.names[tax.root] == "root"


def test_generation_is_deterministic():
    cfg = SynthConfig(seed=42, K=9, N=120, tree_mode="random-attachment",
                      truth_mode="corrupted", corrupt_rho=0.4)
    t1, t2 = gen_taxonomy(cfg), gen_taxonomy(cfg)
    assert t1.names == t2.names and t1.parent == t2.parent
    p1, p2 = gen_predictions(cfg, t1), gen_predictions(cfg, t2)
    assert np.array_equal(p1.probs, p2.probs)
    assert np.array_equal(p1.truth, p2.truth)
    other = gen_predictions(SynthConfig(seed=43, K=9, N=120,
                                        tree_mode="random-attachment",
                                        truth_mode="corrupted",
                                        corrupt_rho=0.4),
                            gen_taxonomy(SynthConfig(
                                seed=43, K=9, N=120,
                                tree_mode="random-attachment")))
    assert not np.array_equal(p1.probs, other.probs)


def test_tree_and_prediction_streams_are_separate():
    # Changing prediction knobs must not reshape the tree, and the tree
    # draw must not shift the prediction stream.
    a = SynthConfig(seed=5, K=10, N=30, concentration=0.5,
                    tree_mode="random-attachment")
    b = SynthConfig(seed=5, K=10, N=30, concentration=2.5,
                    tree_mode="random-attachment")
    ta, tb = gen_taxonomy(a), gen_taxonomy(b)
    assert ta.names == tb.names and ta.parent == tb.parent
    pa = gen_predictions(a, ta)
    pb = gen_predictions(b, tb)
    assert not np.array_equal(pa.probs, pb.probs)
    # Same seed and knobs under a different tree mode with the same
    # class count: identical probability rows.
    flat_cfg = SynthConfig(seed=5, K=10, N=30, concentration=0.5)
    pf = gen_predictions(flat_cfg, gen_taxonomy(flat_cfg))
    assert np.array_equal(pa.probs, pf.probs)


def test_argmax_truth_is_never_wrong():
    cfg = SynthConfig(seed=9, K=6, N=200, truth_mode="argmax")
    tax = gen_taxonomy(cfg)
    preds = gen_predictions(cfg, tax)
    ranked = batch_apply(preds, None, "likelihood")
    assert evaluate(ranked, preds.truth, tax).top1_error == 0.0


def test_corrupted_rho_zero_equals_self_sampled():
    base = SynthConfig(seed=14, K=7, N=150)
    corr = SynthConfig(seed=14, K=7, N=150, truth_mode="corrupted",
                       corrupt_rho=0.0)
    tax = gen_taxonomy(base)
    a = gen_predictions(base, tax)
    b = gen_predictions(corr, tax)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.truth, b.truth)


def test_corrupted_rho_flips_about_the_right_fraction():
    K, N, rho = 10, 20000, 0.3
    clean = SynthConfig(seed=17, K=K, N=N)
    noisy = SynthConfig(seed=17, K=K, N=N, truth_mode="corrupted",
                        corrupt_rho=rho)
    tax = gen_taxonomy(clean)
    a = gen_predictions(clean, tax)
    b = gen_predictions(noisy, tax)
    flipped = np.mean(a.truth != b.truth)
    expected = rho * (K - 1) / K  # replacement can hit the old label
    assert abs(flipped - expected) < 0.02


def test_corrupted_rho_one_is_uniform():
    K, N = 5, 20000
    cfg = SynthConfig(seed=23, K=K, N=N, truth_mode="corrupted",
                      corrupt_rho=1.0)
    preds = gen_predictions(cfg, gen_taxonomy(cfg))
    freq = np.bincount(preds.truth, minlength=K) / N
    assert np.all(np.abs(freq - 1 / K) < 0.02)


def test_self_sampled_truth_tracks_the_rows():
    # With sharp rows the sampled label should usually be the argmax.
    cfg = SynthConfig(seed=31, K=6, N=5000, concentration=0.1)
    preds = gen_predictions(cfg, gen_taxonomy(cfg))
    agree = np.mean(np.argmax(preds.probs, axis=1) == preds.truth)
    assert agree > 0.7


def _reference(cfg, names):
    """The documented whole-matrix draw: one (N, K) gamma, normalized,
    the labels from its rows and the streams after it, then the row
    rule of the public constructor."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
    g = rng.gamma(cfg.concentration, 1.0, size=(cfg.N, cfg.K))
    sums = g.sum(axis=1)
    dead = sums == 0.0
    g[dead], sums[dead] = 1.0, cfg.K
    g /= sums[:, None]
    if cfg.truth_mode == "argmax":
        truth = np.argmax(g, axis=1)
    else:
        u = rng.random(cfg.N)
        truth = np.minimum((np.cumsum(g, axis=1) < u[:, None]).sum(axis=1),
                           cfg.K - 1)
        if cfg.truth_mode == "corrupted":
            mask = rng.random(cfg.N) < cfg.corrupt_rho
            truth = np.where(mask, rng.integers(0, cfg.K, size=cfg.N), truth)
    return PredictionSet(g, truth, names)


@pytest.mark.parametrize("truth_mode", ["self-sampled", "argmax",
                                        "corrupted"])
@pytest.mark.parametrize("K, concentration", [(2, 1e-3), (32, 0.05),
                                              (256, 0.3)])
def test_blocks_follow_the_whole_matrix_draw(tmp_path, truth_mode, K,
                                             concentration):
    # Streamed or whole, the rows and labels are those of one (N, K)
    # draw, bit for bit, at every block edge; so is simulate's CSV.
    b = _rows_per_block(K)
    for N in (0, 1, b - 1, b, b + 1, 2 * b + 3):
        cfg = SynthConfig(seed=N + K, K=K, N=N, concentration=concentration,
                          truth_mode=truth_mode, corrupt_rho=0.3)
        tax = gen_taxonomy(cfg)
        ref = _reference(cfg, tax.class_names)
        blocks = list(prediction_blocks(cfg, tax))
        assert [blk.N for blk in blocks] == [b] * (N // b) + [N % b] * (
            N % b > 0)
        whole = gen_predictions(cfg, tax)
        for probs, truth in ((whole.probs, whole.truth),
                             (np.concatenate([blk.probs for blk in blocks]
                                             or [np.empty((0, K))]),
                              np.concatenate([blk.truth for blk in blocks]
                                             or [np.empty(0, np.int64)]))):
            assert probs.shape == (N, K)
            assert np.array_equal(probs.view(np.uint64),
                                  ref.probs.view(np.uint64))
            assert np.array_equal(truth, ref.truth)
        if K == 2 and N > b:
            # The uniform fallback for all-zero rows is covered.
            assert (ref.probs == 0.5).all(axis=1).any()
        p, h = tmp_path / "p.csv", tmp_path / "h.tsv"
        assert main(["simulate", "--seed", str(cfg.seed), "--classes",
                     str(K), "--samples", str(N), "--concentration",
                     repr(concentration), "--truth-mode", truth_mode,
                     "--corrupt-rho", "0.3", "--out-predictions", str(p),
                     "--out-hierarchy", str(h)]) == 0
        save_predictions(ref, str(tmp_path / "ref.csv"))
        assert p.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("truth_mode", ["self-sampled", "corrupted"])
def test_generated_rows_are_not_copied(truth_mode):
    # The set takes the generated rows without a copy and no (N, K)
    # cumulative table outlives the labels: the peak is the rows plus
    # the one cumsum temporary and its comparison mask.
    cfg = SynthConfig(seed=3, K=256, N=2000, truth_mode=truth_mode,
                      corrupt_rho=0.3, tree_mode="balanced-binary")
    tax = gen_taxonomy(cfg)
    tracemalloc.start()
    try:
        preds = gen_predictions(cfg, tax)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes, MiB = preds.probs.nbytes, 1 << 20
    assert peak <= 2.25 * nbytes + MiB, (peak, nbytes)
    assert current <= nbytes + MiB, (current, nbytes)


def test_public_constructor_still_copies():
    probs = np.array([[0.25, 0.75], [0.5, 0.5]])
    truth = np.array([0, 1])
    preds = PredictionSet(probs, truth, ["a", "b"])
    assert not np.shares_memory(preds.probs, probs)
    assert not np.shares_memory(preds.truth, truth)


def test_prediction_k_mismatch_rejected():
    tax = gen_taxonomy(SynthConfig(seed=0, K=4, N=0))
    with pytest.raises(ValueError, match="4 classes"):
        gen_predictions(SynthConfig(seed=0, K=5, N=3), tax)


def test_oracle_risk_matches_kernel_bit_for_bit():
    rng = np.random.Generator(np.random.PCG64(2))
    for K in (2, 3, 8, 12, 64):
        cfg = SynthConfig(seed=K, K=K, N=0, tree_mode="random-attachment")
        C = build_cost_matrix(gen_taxonomy(cfg))
        for _ in range(25):
            p = rng.dirichlet(np.full(K, 0.6))
            assert np.array_equal(oracle_risk(p, C), conditional_risk(p, C))


def test_oracle_risk_validates_like_the_kernel():
    C = build_cost_matrix(gen_taxonomy(SynthConfig(seed=0, K=3, N=0)))
    with pytest.raises(ValueError, match="1e-6"):
        oracle_risk([0.5, 0.2, 0.2], C)
    with pytest.raises(ValueError, match="negative"):
        oracle_risk([-0.2, 0.6, 0.6], C)
    with pytest.raises(ValueError):
        oracle_risk([0.5, 0.5], C)


def test_oracle_lca_on_known_tree():
    tax = parse_taxonomy("a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n")
    assert oracle_lca(tax, 0, 1) == 1
    assert oracle_lca(tax, 0, 2) == 2
    assert oracle_lca(tax, 3, 3) == 0
    assert oracle_lca(tax, 0, 1) == lca_height(tax, 0, 1)
    with pytest.raises(ValueError):
        oracle_lca(tax, 0, 4)
