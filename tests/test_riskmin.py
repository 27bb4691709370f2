import hashlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hier_risk import (CostMatrix, PredictionSet, RankedOutput, Ranking,
                       SynthConfig, batch_apply, batch_crm_top1,
                       build_cost_matrix, conditional_risk, crm_predict,
                       crm_rerank, gen_predictions, gen_taxonomy,
                       likelihood_rank, parse_taxonomy)
from hier_risk.riskmin import (LIKELIHOOD, RISK, _certified_rank,
                               _check_prob_vector, _radius)

TWO_BRANCH = parse_taxonomy(
    "a\tp1\nb\tp1\nc\tp2\nd\tp2\np1\troot\np2\troot\n")
FLAT3 = CostMatrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))


def synth_batch(seed, K, N, tree_mode="random-attachment"):
    cfg = SynthConfig(seed=seed, K=K, N=N, tree_mode=tree_mode)
    tax = gen_taxonomy(cfg)
    return tax, gen_predictions(cfg, tax)


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


def test_cost_matrix_class_name_validation():
    with pytest.raises(ValueError, match="unique"):
        CostMatrix(np.array([[0, 1], [1, 0]]), ["a", "a"])
    with pytest.raises(ValueError, match="one class name per row"):
        CostMatrix(np.array([[0, 1], [1, 0]]), ["a"])


def test_cost_matrix_entries_are_read_only():
    # The kernel reads ``entries`` itself, so a write could only make the
    # exported table and the risks disagree; it must fail instead.
    C = build_cost_matrix(parse_taxonomy("a\tp\nb\tp\nc\tr\np\tr\n"))
    for M in (C, C.scaled(2)):
        assert M.entries.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            M.entries[0, 2] = 7
    assert conditional_risk([0, 0, 1], C).tolist() == [2.0, 2.0, 0.0]


def test_scaled_returns_new_matrix():
    C = build_cost_matrix(TWO_BRANCH)
    D = C.scaled(2.5)
    assert np.array_equal(D.entries, C.entries * 2.5)
    assert C.entries[0, 1] == 1
    assert D.class_names == C.class_names


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
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        assert np.array_equal(crm_rerank(p, C).permutation,
                              crm_rerank(p, C.scaled(7.25)).permutation)


def test_flat_costs_reduce_to_likelihood_order():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        p = rng.dirichlet(np.full(3, 0.7))
        assert np.array_equal(crm_rerank(p, FLAT3).permutation,
                              likelihood_rank(p).permutation)


def test_ranked_output_rejects_unknown_basis():
    for cls, perm, scores in ((RankedOutput, [0, 1], [0.6, 0.4]),
                              (Ranking, [[0, 1]], [[0.6, 0.4]])):
        with pytest.raises(ValueError, match="basis"):
            cls(np.array(perm), np.array(scores), "alphabetical")


def test_ranking_rows_are_ranked_output_views():
    # Callers that walk a batch row by row (truth tests, len, indexing,
    # iteration) see one RankedOutput per sample.
    tax, preds = synth_batch(13, 5, 7)
    ranking = batch_apply(preds, build_cost_matrix(tax), "crm")
    assert ranking.permutation.shape == ranking.scores.shape == (7, 5)
    assert ranking.permutation.dtype == np.int64
    assert len(ranking) == 7 and ranking
    rows = list(ranking)
    assert len(rows) == 7
    for i, row in enumerate(rows):
        for view in (row, ranking[i]):
            assert isinstance(view, RankedOutput)
            assert view.basis == ranking.basis == RISK
            assert np.array_equal(view.permutation, ranking.permutation[i])
            assert np.array_equal(view.scores, ranking.scores[i])


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
    assert crm_predict(p, C, use_fastpath=True) == winner


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fastpath_is_bit_identical(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    K = int(rng.integers(2, 10))
    tax = gen_taxonomy(SynthConfig(seed=seed, K=K, N=0,
                                   tree_mode="random-attachment"))
    C = build_cost_matrix(tax)
    for _ in range(10):
        p = rng.dirichlet(np.full(K, 0.4))
        assert crm_predict(p, C) == crm_predict(p, C, use_fastpath=True)


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
    for basis, alias in ((RISK, "crm"), (LIKELIHOOD, "likelihood")):
        batch = batch_apply(preds, C, alias)
        for i in range(preds.N):
            if basis is RISK:
                single = crm_rerank(probs[i], C)
            else:
                single = likelihood_rank(probs[i])
            assert batch[i].basis == basis
            assert np.array_equal(batch[i].permutation, single.permutation)
            assert np.array_equal(batch[i].scores, single.scores)


def test_batch_apply_accepts_full_basis_names():
    tax, preds = synth_batch(5, 4, 8)
    C = build_cost_matrix(tax)
    a = batch_apply(preds, C, "risk-ascending")
    b = batch_apply(preds, C, "crm")
    assert all(np.array_equal(x.permutation, y.permutation)
               for x, y in zip(a, b))
    with pytest.raises(ValueError, match="basis"):
        batch_apply(preds, C, "best-first")


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


def test_threaded_batch_is_bit_identical():
    tax, preds = synth_batch(9, 6, 9000)
    C = build_cost_matrix(tax)
    serial = batch_apply(preds, C, "crm", threads=1)
    threaded = batch_apply(preds, C, "crm", threads=4)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.permutation, b.permutation)
        assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(batch_crm_top1(preds, C, threads=4),
                          batch_crm_top1(preds, C, threads=1))


def test_batch_top1_matches_full_ranking():
    tax, preds = synth_batch(12, 9, 512)
    C = build_cost_matrix(tax)
    ranked = batch_apply(preds, C, "crm")
    tops = np.array([r.permutation[0] for r in ranked])
    assert np.array_equal(batch_crm_top1(preds, C), tops)
    assert np.array_equal(batch_crm_top1(preds, C, use_fastpath=True), tops)


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
    # The batch ranks from a BLAS product; its certificate must still
    # give exactly the single-sample permutations, on inputs built to
    # be full of exact and near ties.
    if tree_mode == "balanced-binary":
        K = 1 << (K.bit_length() - 1)
    tax = gen_taxonomy(SynthConfig(seed=seed, K=K, N=0, tree_mode=tree_mode))
    C = build_cost_matrix(tax)
    if scale != 1.0:
        C = C.scaled(scale)
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
    ranked = np.take_along_axis(batch.scores, perms, axis=1)
    assert (np.diff(ranked, axis=1) >= 0).all()
    tied = np.diff(ranked, axis=1) == 0
    exact = np.take_along_axis(risks, perms, axis=1)
    assert np.array_equal(ranked[:, 1:][tied], exact[:, 1:][tied])
    assert np.array_equal(ranked[:, :-1][tied], exact[:, :-1][tied])
    assert (np.abs(batch.scores - risks)
            <= _radius(preds.probs, C.entries)[:, None]).all()


def test_certificate_alone_gives_exact_order():
    # Replace the BLAS product by the worst estimate the radius allows:
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
    delta = _radius(preds.probs, C.entries)[:, None]
    approx = risks + np.where(np.arange(64) % 2 == 0, delta, -delta)
    over = np.abs(approx - risks) > delta
    approx[over] = np.nextafter(approx[over], risks[over])
    assert (np.abs(approx - risks) <= delta).all()
    assert not np.array_equal(np.argsort(approx, axis=1, kind="stable"),
                              perms)
    perm, scores = _certified_rank(preds.probs, C.entries, approx)
    assert np.array_equal(perm, perms)
    assert (np.diff(np.take_along_axis(scores, perm, axis=1), axis=1)
            >= 0).all()


RANK_IN_CHILD = """
import hashlib
import numpy as np
from hier_risk import CostMatrix, PredictionSet, batch_apply
C = np.load({costs!r})
raw = np.load({rows!r})
ranking = batch_apply(PredictionSet(raw, np.zeros(len(raw), dtype=np.int64),
                                    [str(k) for k in range(len(C))]),
                      CostMatrix(C), "crm")
print(hashlib.sha256(ranking.permutation.tobytes()).hexdigest())
"""


def test_batch_permutation_is_independent_of_blas_threads(tmp_path,
                                                         checkout_env):
    # Large enough for a threaded BLAS product; rows on a 10**-3 grid
    # leave many exact and near ties for the certificate to resolve.
    tax = gen_taxonomy(SynthConfig(seed=5, K=256, N=0,
                                   tree_mode="balanced-binary"))
    C = build_cost_matrix(tax)
    raw = adversarial_rows(np.random.Generator(np.random.PCG64(5)), 256,
                           ["grid3"] * 300 + ["repeated"] * 20)
    np.save(tmp_path / "C.npy", C.entries)
    np.save(tmp_path / "rows.npy", raw)
    script = RANK_IN_CHILD.format(costs=str(tmp_path / "C.npy"),
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
