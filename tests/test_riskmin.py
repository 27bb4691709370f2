import dataclasses
import hashlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hier_risk import (CostMatrix, PredictionSet, Ranking,
                       SynthConfig, batch_apply, batch_crm_top1,
                       build_cost_matrix, conditional_risk, crm_predict,
                       crm_rerank, gen_predictions, gen_taxonomy,
                       likelihood_rank, parse_taxonomy, save_hierarchy)
from hier_risk import predictions, riskmin
from hier_risk.riskmin import (LIKELIHOOD, RISK, _certify,
                               _check_prob_vector, _exact_risks, _radius,
                               _tree_risks)
from test_taxonomy import caterpillar

TWO_BRANCH = parse_taxonomy(
    "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n")
FLAT3 = CostMatrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))


def synth_batch(seed, K, N, tree_mode="random-attachment"):
    cfg = SynthConfig(seed=seed, K=K, N=N, tree_mode=tree_mode)
    tax = gen_taxonomy(cfg)
    return tax, gen_predictions(cfg, tax)


def assert_score_contract(batch, risks, perms, delta):
    """A row holds its kernel ``risks`` bit for bit, or its scores in
    the kernel order ``perms`` (to the depth checked) are all more than
    2 * delta apart; every score is within delta of its risk. Returns
    which rows hold their kernel risks."""
    gaps = np.diff(np.take_along_axis(batch.scores, perms, axis=1), axis=1)
    assert (gaps >= 0).all()
    exact = (batch.scores == risks).all(axis=1)
    assert (exact | (gaps > 2 * delta).all(axis=1)).all()
    assert (np.abs(batch.scores - risks) <= delta).all()
    return exact


def test_cost_matrix_shape_validation():
    with pytest.raises(ValueError, match="square"):
        CostMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        CostMatrix(np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="diagonal"):
        CostMatrix(np.array([[1, 1], [1, 0]]))
    with pytest.raises(ValueError, match="finite"):
        CostMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_cost_matrix_accepts_raw_float_entries():
    # The direct constructor is the side door for externally supplied
    # costs; only shape properties are enforced, not tree structure.
    C = CostMatrix(np.array([[0.0, 2.5], [2.5, 0.0]]))
    assert C.K == 2
    assert C.class_names is None


def test_cost_matrix_bound_is_the_largest_magnitude():
    # The radius's H, max |entry|, is found once per matrix.
    C = CostMatrix(np.array([[0.0, -3.0, 1.0], [-3.0, 0.0, 2.0],
                             [1.0, 2.0, 0.0]]))
    assert C.bound == 3.0
    assert CostMatrix(C.entries.astype(np.int64) * -2.5).bound == 7.5
    T = build_cost_matrix(parse_taxonomy("a\tp\nb\tp\nc\tr\np\tr\n"))
    assert T.bound == 2.0
    assert CostMatrix(T.entries.astype(np.int64) * -2.5).bound == 5.0


def test_cost_matrix_class_name_validation():
    with pytest.raises(ValueError, match="unique"):
        CostMatrix(np.array([[0, 1], [1, 0]]), ["a", "a"])
    with pytest.raises(ValueError, match="one class name per row"):
        CostMatrix(np.array([[0, 1], [1, 0]]), ["a"])


def test_cost_matrix_entries_are_read_only():
    # The kernel reads ``entries`` itself, so a write could only make the
    # exported table and the risks disagree; it must fail instead.
    C = build_cost_matrix(parse_taxonomy("a\tp\nb\tp\nc\tr\np\tr\n"))
    for M in (C, CostMatrix(C.entries.astype(np.int64) * 2)):
        assert M.entries.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            M.entries[0, 2] = 7
    assert conditional_risk([0, 0, 1], C).tolist() == [2.0, 2.0, 0.0]


def test_taxonomy_costs_adopt_the_cached_lca_table():
    # No K x K copy: the matrix is the taxonomy's read-only table, while
    # side-door arrays are still copied.
    tax = parse_taxonomy("a\tp\nb\tp\nc\tr\np\tr\n")
    C = build_cost_matrix(tax)
    assert C.entries is tax.lca_matrix()
    assert C.K == 3 and C.class_names == ["a", "b", "c"]
    raw = np.array([[0, 1], [1, 0]])
    assert not np.shares_memory(CostMatrix(raw).entries, raw)


@pytest.mark.parametrize("factor", [1000, -1, 100, 2.5, -0.75])
def test_scaled_compact_table_matches_int64_scaling(factor):
    # The taxonomy table is uint8 and the kernel widens whatever table
    # it reads exactly: the compact table, and its int64 widening times
    # ``factor``, rank as float64 copies of them do. Raw tables score
    # with the kernel's bits; the taxonomy's scores are tree sums held
    # to the score contract.
    tax, preds = synth_batch(4, 50, 40)
    C = build_cost_matrix(tax)
    assert C.entries.dtype == np.uint8
    for M in (C, CostMatrix(C.entries.astype(np.int64) * factor,
                            C.class_names)):
        F = CostMatrix(M.entries.astype(np.float64), C.class_names)
        assert M.bound == F.bound
        ranked, ref = (batch_apply(preds, D, "crm") for D in (M, F))
        assert np.array_equal(ranked.permutation, ref.permutation)
        if M is not C:
            assert np.array_equal(ranked.scores, ref.scores)
    ranked, risks = batch_apply(preds, C, "crm"), _exact_risks(preds.probs, C)
    exact = assert_score_contract(ranked, risks, ranked.permutation,
                                  _radius(preds.probs, C.bound)[:, None])
    assert not exact.all()  # estimates, not the kernel's bits


def test_probability_vector_validation():
    C = FLAT3
    with pytest.raises(ValueError, match="expected 3"):
        conditional_risk([0.5, 0.5], C)
    with pytest.raises(ValueError, match="negative"):
        conditional_risk([-0.1, 0.6, 0.5], C)
    with pytest.raises(ValueError, match="non-finite"):
        conditional_risk([np.nan, 0.5, 0.5], C)
    with pytest.raises(ValueError, match="1e-6"):
        conditional_risk([0.5, 0.5, 0.1], C)
    with pytest.raises(ValueError, match=r"^negative probability$"):
        conditional_risk([0.5, -0.5, np.nan], C)
    with pytest.raises(ValueError, match=r"^probabilities sum to 1\.1, "
                                         r"outside the 1e-6 tolerance$"):
        conditional_risk([0.5, 0.5, 0.1], C)
    with pytest.raises(ValueError, match="1-d"):
        conditional_risk(np.ones((1, 3)) / 3, C)


def test_slightly_off_sums_are_renormalized():
    eps = 4e-7
    risks = conditional_risk([0.5 + eps, 0.25, 0.25], FLAT3)
    exact = conditional_risk([(0.5 + eps) / (1 + eps),
                              0.25 / (1 + eps), 0.25 / (1 + eps)], FLAT3)
    assert np.array_equal(risks, exact)


def test_risk_ties_break_to_lowest_index():
    # Uniform mass on the two-branch tree makes every class risk equal.
    p = [0.25, 0.25, 0.25, 0.25]
    C = build_cost_matrix(TWO_BRANCH)
    assert crm_predict(p, C) == 0
    assert crm_rerank(p, C).permutation.tolist() == [0, 1, 2, 3]
    # Dyadic two-way tie between classes 1 and 2 on the flat matrix.
    r = crm_rerank([0.5, 0.25, 0.25], FLAT3)
    assert r.permutation.tolist() == [0, 1, 2]


def test_likelihood_ties_break_to_lowest_index():
    r = likelihood_rank([0.25, 0.375, 0.375])
    assert r.permutation.tolist() == [1, 2, 0]
    assert r.basis == LIKELIHOOD
    assert likelihood_rank([0.5, 0.5]).permutation.tolist() == [0, 1]


def test_rerank_outputs_are_consistent():
    C = build_cost_matrix(TWO_BRANCH)
    r = crm_rerank([0.35, 0.05, 0.33, 0.27], C)
    assert r.basis == RISK
    assert sorted(r.permutation.tolist()) == [0, 1, 2, 3]
    assert np.array_equal(np.sort(r.scores[r.permutation], kind="stable"),
                          r.scores[r.permutation])
    assert r.permutation[0] == crm_predict([0.35, 0.05, 0.33, 0.27], C)


def test_rerank_is_scale_invariant():
    C = build_cost_matrix(TWO_BRANCH)
    scaled = CostMatrix(C.entries.astype(np.int64) * 7.25, C.class_names)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        assert np.array_equal(crm_rerank(p, C).permutation,
                              crm_rerank(p, scaled).permutation)


def test_flat_costs_reduce_to_likelihood_order():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        p = rng.dirichlet(np.full(3, 0.7))
        assert np.array_equal(crm_rerank(p, FLAT3).permutation,
                              likelihood_rank(p).permutation)


def test_ranked_output_rejects_unknown_basis():
    for perm, scores in (([0, 1], [0.6, 0.4]), ([[0, 1]], [[0.6, 0.4]])):
        with pytest.raises(ValueError, match="basis"):
            Ranking(np.array(perm), np.array(scores), "alphabetical")


def test_ranking_rows_are_ranked_output_views():
    # Callers that walk a batch row by row (truth tests, len, indexing,
    # iteration) see each row as one sample's Ranking; a slice is a
    # sub-batch.
    tax, preds = synth_batch(13, 5, 7)
    ranking = batch_apply(preds, build_cost_matrix(tax), "crm")
    assert ranking.permutation.shape == ranking.scores.shape == (7, 5)
    assert ranking.permutation.dtype == np.int64
    assert len(ranking) == 7 and ranking
    rows = list(ranking)
    assert len(rows) == 7
    for i, row in enumerate(rows):
        for view in (row, ranking[i]):
            assert isinstance(view, Ranking)
            assert view.basis == ranking.basis == RISK
            assert np.array_equal(view.permutation, ranking.permutation[i])
            assert np.array_equal(view.scores, ranking.scores[i])
    part = ranking[2:5]
    assert isinstance(part, Ranking) and len(part) == 3
    assert part.basis == RISK
    assert np.array_equal(part.permutation, ranking.permutation[2:5])
    assert np.array_equal(part.scores, ranking.scores[2:5])


def test_one_sample_ranking_has_no_rows():
    # Indexing one sample's ranking would pair rank i's class with
    # class i's score, so it is refused, as are len() and iteration.
    p = [0.5, 0.25, 0.25]
    for r in (crm_rerank(p, FLAT3), likelihood_rank(p),
              Ranking(np.array([1, 0]), np.array([0.4, 0.6]))):
        for read in (lambda r: r[0], list, len):
            with pytest.raises(TypeError):
                read(r)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.basis = RISK


def test_side_door_costs_get_the_full_risk_argmin():
    # Theorem 1 needs the triangle inequality and positive off-diagonal
    # costs; without them the argmax of a row with p > 0.5 can lose.
    C = CostMatrix([[0, 1, 100], [1, 0, 1], [100, 1, 0]])
    assert crm_predict([0.6, 0.0, 0.4], C) == 1
    assert crm_predict([0.4, 0.6], CostMatrix(np.zeros((2, 2)))) == 0


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(2, 16))
def test_dominant_mass_keeps_the_argmax_on_top(seed, K):
    # Whenever one class holds more than half the mass, minimizing
    # expected cost cannot move it off the top, for any tree.
    rng = np.random.Generator(np.random.PCG64(seed))
    tax = gen_taxonomy(SynthConfig(seed=seed, K=K, N=0,
                                   tree_mode="random-attachment"))
    C = build_cost_matrix(tax)
    top = float(rng.uniform(0.5000001, 0.999))
    rest = rng.dirichlet(np.ones(K - 1)) * (1.0 - top)
    winner = int(rng.integers(0, K))
    p = np.insert(rest, winner, top)
    assert crm_predict(p, C) == winner


def dyadic_rows(seed, N, K, denom_bits=20):
    # Rows of the form count / 2**denom_bits sum to exactly 1.0 in
    # binary floating point, so no path renormalizes them and raw rows
    # can be fed to both the batch and single-sample entry points.
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.multinomial(2 ** denom_bits,
                             rng.dirichlet(np.ones(K)), size=N)
    return counts.astype(np.float64) / 2.0 ** denom_bits


def test_batch_apply_matches_single_sample_calls():
    # Bit-for-bit, not approximately: the batch kernel and the
    # single-sample call accumulate in the same order.
    tax, _ = synth_batch(2, 7, 0)
    C = build_cost_matrix(tax)
    probs = dyadic_rows(2, 64, 7)
    truth = np.zeros(64, dtype=np.int64)
    preds = PredictionSet(probs, truth, C.class_names)
    for basis in (RISK, LIKELIHOOD):
        batch = batch_apply(preds, C, basis)
        for i in range(preds.N):
            if basis is RISK:
                single = crm_rerank(probs[i], C)
            else:
                single = likelihood_rank(probs[i])
            assert isinstance(single, Ranking)
            assert batch[i].basis == basis
            assert np.array_equal(batch[i].permutation, single.permutation)
            assert np.array_equal(batch[i].scores, single.scores)


def test_likelihood_batch_sorts_in_row_blocks():
    # 200 000 rows of K=4 span 13 row blocks; ties (dyadic rows) go to
    # the lowest index, and no (N, K) negated copy is made.
    N = 200_000
    probs = dyadic_rows(9, N, 4, denom_bits=3)
    preds = PredictionSet(probs, np.zeros(N, dtype=np.int64), list("abcd"))
    tracemalloc.start()
    try:
        ranked = batch_apply(preds, None, "likelihood")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranked.permutation.dtype == np.int64
    assert np.array_equal(ranked.permutation,
                          np.argsort(-probs, axis=1, kind="stable"))
    assert peak <= ranked.permutation.nbytes + 2 * (1 << 20), peak


def test_batch_apply_accepts_full_basis_names():
    tax, preds = synth_batch(5, 4, 8)
    C = build_cost_matrix(tax)
    # One name per basis, the one eval --basis takes: the long names and
    # the "risk" alias are refused, not mapped.
    for name in ("risk-ascending", "likelihood-descending", "risk",
                 "best-first"):
        with pytest.raises(ValueError, match="unknown ranking basis"):
            batch_apply(preds, C, name)


def test_batch_apply_requires_costs_for_risk_basis():
    _, preds = synth_batch(6, 4, 8)
    with pytest.raises(ValueError, match="cost matrix"):
        batch_apply(preds, None, "crm")


def test_batch_apply_checks_class_names():
    tax, preds = synth_batch(8, 4, 8)
    C = build_cost_matrix(tax)
    renamed = PredictionSet(preds.probs, preds.truth,
                            [f"k{i}" for i in range(4)])
    with pytest.raises(ValueError, match="class order mismatch"):
        batch_apply(renamed, C, "crm")


def test_batch_top1_matches_full_ranking():
    tax, preds = synth_batch(12, 9, 512)
    C = build_cost_matrix(tax)
    ranked = batch_apply(preds, C, "crm")
    tops = np.array([r.permutation[0] for r in ranked])
    assert np.array_equal(batch_crm_top1(preds, C), tops)


# Row shapes that put many classes at or near equal risk: rows on a
# 10**-d grid, a handful of repeated values, uniform and one-hot rows, a
# 50/50 split, and rows with subnormal entries.
ROW_KINDS = ("grid2", "grid3", "grid4", "repeated", "uniform", "one-hot",
             "halves", "subnormal")


def adversarial_rows(rng, K, kinds):
    rows = []
    for kind in kinds:
        if kind.startswith("grid"):
            steps = 10 ** int(kind[4:])
            row = rng.multinomial(steps, rng.dirichlet(np.full(K, 0.5)))
            row = row / steps
        elif kind == "repeated":
            values = rng.dirichlet(np.ones(3))[rng.integers(0, 3, size=K)]
            row = values / values.sum()
        elif kind == "uniform":
            row = np.full(K, 1.0 / K)
        elif kind == "one-hot":
            row = np.eye(K)[rng.integers(0, K)]
        elif kind == "halves":
            row = np.zeros(K)
            row[rng.choice(K, size=2, replace=False)] = 0.5
        elif kind == "dirichlet":  # no ties, and most risks far apart
            row = rng.dirichlet(np.full(K, 0.3))
        else:
            row = rng.dirichlet(np.ones(K))
            tiny = rng.random(K) < 0.5
            tiny[np.argmax(row)] = False
            row[tiny] = 5e-324 * rng.integers(1, 2 ** 20, size=tiny.sum())
            row /= row.sum()
        rows.append(row)
    return np.array(rows)


def stacked_rerank(raw, C):
    singles = [crm_rerank(row, C) for row in raw]
    return (np.array([r.permutation for r in singles]),
            np.array([r.scores for r in singles]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(2, 300),
       tree_mode=st.sampled_from(["flat", "balanced-binary",
                                  "random-attachment"]),
       scale=st.sampled_from([1.0, 0.1, 7.25]),
       kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6))
def test_certified_batch_ranking_is_the_kernel_ranking(seed, K, tree_mode,
                                                       scale, kinds):
    # Taxonomy costs rank from tree sums, scaled raw ones from the
    # kernel; either way the batch must give exactly the single-sample
    # permutations, on inputs built to be full of exact and near ties.
    if tree_mode == "balanced-binary":
        K = 1 << (K.bit_length() - 1)
    tax = gen_taxonomy(SynthConfig(seed=seed, K=K, N=0, tree_mode=tree_mode))
    C = build_cost_matrix(tax)
    if scale != 1.0:
        C = CostMatrix(C.entries.astype(np.int64) * scale, C.class_names)
    raw = adversarial_rows(np.random.Generator(np.random.PCG64(seed)), K,
                           kinds)
    preds = PredictionSet(raw, np.zeros(len(raw), dtype=np.int64),
                          C.class_names)
    # Both entry points see the same validated rows.
    assert all(np.array_equal(_check_prob_vector(row), q)
               for row, q in zip(raw, preds.probs))
    batch = batch_apply(preds, C, "crm")
    perms, risks = stacked_rerank(raw, C)
    assert np.array_equal(batch.permutation, perms)
    assert np.array_equal(batch_crm_top1(preds, C), perms[:, 0])
    exact = assert_score_contract(batch, risks, perms,
                                  _radius(preds.probs, C.bound)[:, None])
    if scale != 1.0:
        assert exact.all()  # raw costs rank from the kernel itself


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(2, 300),
       tree_mode=st.sampled_from(["flat", "balanced-binary",
                                  "random-attachment", "caterpillar"]),
       kinds=st.lists(st.sampled_from(ROW_KINDS + ("dirichlet",)),
                      min_size=1, max_size=6))
def test_tree_risks_lie_within_the_radius_of_the_kernel(seed, K, tree_mode,
                                                        kinds):
    # The certificate's premise: every tree-sum estimate is within delta
    # of its kernel risk, on shallow, deep and unbalanced trees.
    if tree_mode == "caterpillar":
        tax = caterpillar(K - 1)
    else:
        if tree_mode == "balanced-binary":
            K = 1 << (K.bit_length() - 1)
        tax = gen_taxonomy(SynthConfig(seed=seed, K=K, N=0,
                                       tree_mode=tree_mode))
    C = build_cost_matrix(tax)
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = adversarial_rows(rng, tax.K, kinds)
    preds = PredictionSet(raw, np.zeros(len(raw), dtype=np.int64),
                          C.class_names)
    est = np.empty(preds.probs.shape)
    _tree_risks(preds.probs, C, est)
    err = np.abs(est - _exact_risks(preds.probs, C))
    assert (err <= _radius(preds.probs, C.bound)[:, None]).all()


def test_certificate_alone_gives_exact_order():
    # Replace the tree sum by the worst estimate the radius allows:
    # every kernel risk moved by delta, up for even classes and down for
    # odd ones. Ties split and near-ties swap, yet the certified
    # permutation must not change.
    tax = gen_taxonomy(SynthConfig(seed=3, K=64, N=0,
                                   tree_mode="balanced-binary"))
    C = build_cost_matrix(tax)
    rng = np.random.Generator(np.random.PCG64(3))
    raw = adversarial_rows(rng, 64, ROW_KINDS * 4)
    preds = PredictionSet(raw, np.zeros(len(raw), dtype=np.int64),
                          C.class_names)
    perms, risks = stacked_rerank(raw, C)
    delta = _radius(preds.probs, C.bound)[:, None]
    approx = risks + np.where(np.arange(64) % 2 == 0, delta, -delta)
    over = np.abs(approx - risks) > delta
    approx[over] = np.nextafter(approx[over], risks[over])
    assert (np.abs(approx - risks) <= delta).all()
    assert not np.array_equal(np.argsort(approx, axis=1, kind="stable"),
                              perms)
    scores = approx.copy()
    perm = _certify(preds.probs, C, scores, 64)
    assert np.array_equal(perm, perms)
    assert (np.diff(np.take_along_axis(scores, perm, axis=1), axis=1)
            >= 0).all()
    # The same holds at every depth: the certificate checks only the
    # first m + 1 estimates, yet must give the full order's prefix.
    for m in range(1, 65):
        scores = approx.copy()
        perm = _certify(preds.probs, C, scores, m)
        assert np.array_equal(perm, perms[:, :m]), m
        assert (np.diff(np.take_along_axis(scores, perm, axis=1), axis=1)
                >= 0).all()


@pytest.mark.parametrize("basis", [LIKELIHOOD, RISK])
def test_a_batch_of_many_blocks_ranks_each_row_alone(basis):
    # A CLI block is one step of the ranking loop; a library call on a
    # whole set takes several. At 3 rows (and 3 cost columns) a block,
    # 10 rows end mid-block, and each row must still rank as it would
    # alone, to every depth.
    K = 16
    C = build_cost_matrix(gen_taxonomy(
        SynthConfig(seed=5, K=K, N=0, tree_mode="balanced-binary")))
    raw = adversarial_rows(np.random.Generator(np.random.PCG64(5)), K,
                           ROW_KINDS + ("grid2", "grid4"))
    preds = PredictionSet(raw, np.zeros(10, dtype=np.int64), C.class_names)
    if basis == RISK:
        perms, risks = stacked_rerank(raw, C)
    else:
        perms = np.array([likelihood_rank(row).permutation for row in raw])
    delta = _radius(preds.probs, C.bound)[:, None]
    with mock.patch.object(predictions, "_BLOCK", 3 * 20 * K):
        assert predictions._rows_per_block(K) == 3
        for m in (1, 3, K):
            batch = batch_apply(preds, C, basis, depth=m)
            assert np.array_equal(batch.permutation, perms[:, :m]), m
            if basis == LIKELIHOOD:
                assert np.array_equal(batch.scores, preds.probs)
                continue
            # The score contract, over the first m + 1 ranks checked.
            exact = assert_score_contract(batch, risks, perms[:, :m + 1],
                                          delta)
            assert exact.any() and not exact.all(), m  # both paths taken


def planted_rows(rng, K, n):
    # Random rows with 2 to 4 classes set to the same mass.
    rows = rng.dirichlet(np.ones(K), size=n)
    for row in rows:
        tied = rng.choice(K, size=min(K, int(rng.integers(2, 5))),
                          replace=False)
        row[tied] = row[tied].mean()
    return rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(2, 48),
       tree_mode=st.sampled_from(["flat", "balanced-binary",
                                  "random-attachment"]),
       denom_bits=st.integers(2, 12))
def test_depth_m_ranking_is_the_prefix_of_the_full_one(seed, K, tree_mode,
                                                       denom_bits):
    # Tie-heavy rows: coarse dyadic rows (many equal counts) and planted
    # equal masses. At every depth m, in both bases, the permutation is
    # the full ranking's first m columns and the scores keep their
    # (N, K) class-indexed meaning.
    if tree_mode == "balanced-binary":
        K = 1 << (K.bit_length() - 1)
    tax = gen_taxonomy(SynthConfig(seed=seed, K=K, N=0, tree_mode=tree_mode))
    C = build_cost_matrix(tax)
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = np.vstack([dyadic_rows(seed, 6, K, denom_bits),
                     planted_rows(rng, K, 6)])
    preds = PredictionSet(raw, np.zeros(len(raw), dtype=np.int64),
                          C.class_names)
    exact = _exact_risks(preds.probs, C)
    delta = _radius(preds.probs, C.bound)[:, None]
    for basis in ("crm", "likelihood"):
        full = batch_apply(preds, C, basis)
        for m in range(1, K + 1):
            ranked = batch_apply(preds, C, basis, depth=m)
            assert np.array_equal(ranked.permutation,
                                  full.permutation[:, :m]), (basis, m)
            if basis == "crm":
                assert (np.abs(ranked.scores - exact) <= delta).all()
            else:
                assert ranked.scores is preds.probs
        assert batch_apply(preds, C, basis, depth=K + 5).permutation.shape \
            == (len(raw), K)
        with pytest.raises(ValueError, match="depth"):
            batch_apply(preds, C, basis, depth=0)


def test_depth_one_on_the_tall_shape_reaches_no_exact_risks(monkeypatch):
    # Near ties on this shape sit below rank 0, so a depth-1 ranking (the
    # one calibrate and the Theorem-1 check read) certifies every row
    # from the tree sum, while the full ranking re-ranks many rows.
    cfg = SynthConfig(seed=1, K=32, N=20000, concentration=0.05,
                      truth_mode="corrupted", corrupt_rho=0.2,
                      tree_mode="balanced-binary")
    tax = gen_taxonomy(cfg)
    preds = gen_predictions(cfg, tax)
    C = build_cost_matrix(tax)
    rows = []

    def counting(P, costs):
        rows.append(P.shape[0])
        return _exact_risks(P, costs)

    monkeypatch.setattr(riskmin, "_exact_risks", counting)
    top = batch_apply(preds, C, "crm", depth=1)
    top1 = batch_crm_top1(preds, C)
    assert sum(rows) == 0
    full = batch_apply(preds, C, "crm")
    assert sum(rows) > preds.N // 4
    assert np.array_equal(top.permutation[:, 0], full.permutation[:, 0])
    assert np.array_equal(top1, full.permutation[:, 0])


RANK_IN_CHILD = """
import hashlib
import numpy as np
from hier_risk import PredictionSet, batch_apply, build_cost_matrix
from hier_risk import load_hierarchy
C = build_cost_matrix(load_hierarchy({tree!r}))
raw = np.load({rows!r})
ranking = batch_apply(PredictionSet(raw, np.zeros(len(raw), dtype=np.int64),
                                    C.class_names), C, "crm")
print(hashlib.sha256(ranking.permutation.tobytes()).hexdigest())
"""


def test_batch_permutation_is_independent_of_blas_threads(tmp_path,
                                                         checkout_env):
    # No ranking calls BLAS, so its thread setting cannot reach the
    # permutation; rows on a 10**-3 grid leave many exact and near ties
    # for the certificate to resolve.
    tax = gen_taxonomy(SynthConfig(seed=5, K=256, N=0,
                                   tree_mode="balanced-binary"))
    C = build_cost_matrix(tax)
    raw = adversarial_rows(np.random.Generator(np.random.PCG64(5)), 256,
                           ["grid3"] * 300 + ["repeated"] * 20)
    save_hierarchy(tax, tmp_path / "tree.tsv")
    np.save(tmp_path / "rows.npy", raw)
    script = RANK_IN_CHILD.format(tree=str(tmp_path / "tree.tsv"),
                                  rows=str(tmp_path / "rows.npy"))
    hashes = []
    for threads in ("1", None):
        env = dict(checkout_env)
        env.pop("OPENBLAS_NUM_THREADS", None)
        env.pop("OMP_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        hashes.append(res.stdout.strip())
    perms, _ = stacked_rerank(raw, C)
    expected = hashlib.sha256(perms.astype(np.int64).tobytes()).hexdigest()
    assert hashes == [expected, expected]
