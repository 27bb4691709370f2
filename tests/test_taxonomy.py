import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hier_risk import (PredictionSet, SynthConfig, Taxonomy, TaxonomyError,
                       batch_apply, bin_confidences, build_cost_matrix,
                       collapse_to_depth, evaluate, gen_taxonomy,
                       hierarchical_ece,
                       node_height, oracle_lca, parse_taxonomy,
                       shuffle_leaves)

from hier_risk.calibration import BinTally

CHAIN = "a\tm1\nb\tm1\nm1\tm2\nm2\troot\nc\troot\n"


def random_tree(seed, K):
    return gen_taxonomy(SynthConfig(seed=seed, K=K, N=0,
                                    tree_mode="random-attachment"))


def test_parse_skips_comments_blanks_and_crlf():
    text = "# a comment\r\n\r\na\troot\r\n\nb\troot\r\n"
    tax = parse_taxonomy(text)
    assert sorted(tax.names) == ["a", "b", "root"]
    assert tax.K == 2


def test_parse_strips_byte_order_mark():
    tax = parse_taxonomy("﻿a\troot\nb\troot\n")
    assert "a" in tax.leaf_order


def test_malformed_line_reports_line_number():
    with pytest.raises(TaxonomyError, match=r"line 2: expected"):
        parse_taxonomy("a\troot\nb root\n")
    with pytest.raises(TaxonomyError, match=r"line 1"):
        parse_taxonomy("a\tb\tc\n")
    with pytest.raises(TaxonomyError, match=r"line 1"):
        parse_taxonomy("\troot\n")


def test_duplicate_child_reports_both_lines():
    with pytest.raises(TaxonomyError,
                       match=r"line 3: duplicate child row for 'a' "
                             r"\(first on line 1\)"):
        parse_taxonomy("a\troot\nb\troot\na\tb\n")


def test_self_parent_is_a_cycle():
    with pytest.raises(TaxonomyError, match=r"cycle detected at 'a'"):
        parse_taxonomy("a\ta\nb\ta\nc\ta\n")


def test_longer_cycle_detected():
    with pytest.raises(TaxonomyError, match=r"cycle detected"):
        parse_taxonomy("a\tb\nb\tc\nc\ta\nd\ta\ne\ta\n")


def test_multiple_roots_listed():
    with pytest.raises(TaxonomyError, match=r"multiple roots: 'r1', 'r2'"):
        parse_taxonomy("a\tr1\nb\tr2\n")


def test_empty_input_is_an_error():
    with pytest.raises(TaxonomyError, match="no edges"):
        parse_taxonomy("# only comments\n\n")


def test_fewer_than_two_classes_is_an_error():
    with pytest.raises(TaxonomyError, match="at least 2"):
        parse_taxonomy("a\troot\n")


def test_unary_chain_depths_and_heights():
    tax = parse_taxonomy(CHAIN)
    d = {tax.names[i]: depth for i, depth in enumerate(tax.depths())}
    assert d == {"root": 0, "m2": 1, "c": 1, "m1": 2, "a": 3, "b": 3}
    h = {tax.names[i]: height for i, height in enumerate(tax.heights())}
    assert h == {"a": 0, "b": 0, "c": 0, "m1": 1, "m2": 2, "root": 3}
    assert tax.max_leaf_depth() == 3
    assert node_height(tax, tax.root) == 3


def test_leaves_are_sorted_by_name():
    tax = parse_taxonomy("zz\troot\naa\troot\nmm\troot\n")
    assert [tax.names[i] for i in tax.leaves] == ["aa", "mm", "zz"]
    assert tax.leaf_order == {"aa": 0, "mm": 1, "zz": 2}


def test_lca_matrix_is_write_protected():
    tax = parse_taxonomy(CHAIN)
    m = tax.lca_matrix()
    with pytest.raises(ValueError):
        m[0, 1] = 99


def test_lca_matches_independent_walk_on_random_trees():
    trees = [random_tree(seed, 2 + seed % 11) for seed in range(25)]
    trees.append(random_tree(21, 96))  # 198 nodes, height 11: all pairs
    for tax in trees:
        L = tax.lca_matrix()
        for i in range(tax.K):
            for j in range(tax.K):
                assert L[i, j] == oracle_lca(tax, i, j)


def test_chain_lca_values():
    tax = parse_taxonomy(CHAIN)
    # classes sorted: a, b, c; a and b join at m1 (height 1), either
    # with c joins at root (height 3).
    L = tax.lca_matrix()
    assert L[0, 1] == 1
    assert L[0, 2] == 3
    assert L[1, 1] == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(2, 24))
def test_lca_matrix_is_an_ultrametric(seed, K):
    tax = random_tree(seed, K)
    m = tax.lca_matrix()
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0)
    off = ~np.eye(K, dtype=bool)
    assert np.all(m[off] >= 1)
    assert np.all(m[off] <= node_height(tax, tax.root))
    # Ultrametric: the two larger pairwise values in any triple tie.
    pair_max = np.maximum(m[:, :, None], m[None, :, :])
    assert np.all(m[:, None, :] <= pair_max)


def root_path(tax, node):
    """Node indices from the root down to ``node`` inclusive, by a walk
    up the parent list."""
    path = [node]
    while tax.parent[path[-1]] >= 0:
        path.append(tax.parent[path[-1]])
    return path[::-1]


def reference_lca(tax):
    """The table the old way, in int64: one K x K compare-and-copy per
    depth column of the leaves' root paths, deeper ancestors last."""
    paths = [root_path(tax, leaf) for leaf in tax.leaves]
    anc = np.full((tax.K, max(map(len, paths))), -1, dtype=np.int64)
    for i, path in enumerate(paths):
        anc[i, :len(path)] = path
    h = np.asarray(tax.heights(), dtype=np.int64)
    m = np.empty((tax.K, tax.K), dtype=np.int64)
    for col in anc.T:
        shared = (col[:, None] == col) & (col >= 0)[:, None]
        np.copyto(m, h[col][:, None], where=shared)
    return m


def reference_heights(tax):
    """Each node's height as its longest climb from a descendant leaf."""
    h = [0] * tax.n_nodes
    for leaf in tax.leaves:
        for up, node in enumerate(reversed(root_path(tax, leaf))):
            h[node] = max(h[node], up)
    return h


def caterpillar(height):
    """A spine of ``height`` internal nodes, each with one leaf hanging
    off it, and two leaves under the deepest: height + 1 classes. Leaf
    names run against the spine, so class order is not DFS order."""
    lines = [f"s{d}\ts{d - 1}" for d in range(1, height)]
    lines += [f"leaf{height - d:04d}\ts{d}" for d in range(height)]
    lines.append(f"leaf0000\ts{height - 1}")
    return parse_taxonomy("\n".join(lines) + "\n")


TABLE_TREES = {
    "flat": gen_taxonomy(SynthConfig(seed=0, K=40, N=0, tree_mode="flat")),
    "balanced-binary": gen_taxonomy(SynthConfig(seed=0, K=64, N=0,
                                                tree_mode="balanced-binary")),
    "random-attachment": random_tree(5, 300),
    "random-attachment-small": random_tree(11, 7),
    "unary-chain": parse_taxonomy(CHAIN),
    "caterpillar": caterpillar(300),
    # h(root) is 2, but no pair of classes meets above x (height 1).
    "unary-root": parse_taxonomy("a\tx\nb\tx\nx\troot\n"),
}


@pytest.mark.parametrize("name", sorted(TABLE_TREES))
def test_lca_table_equals_the_int64_reference(name):
    tax = TABLE_TREES[name]
    m = tax.lca_matrix()
    height = node_height(tax, tax.root)
    assert m.dtype == np.min_scalar_type(height)
    assert m.dtype == (np.uint16 if name == "caterpillar" else np.uint8)
    assert m.flags.c_contiguous and not m.flags.writeable
    assert m is tax.lca_matrix()
    ref = reference_lca(tax)
    assert np.array_equal(m, ref)
    rng = np.random.default_rng(len(name))
    for i, j in rng.integers(0, tax.K, size=(40, 2)).tolist():
        assert oracle_lca(tax, i, j) == m[i, j]
    # lca_rows, which every consumer reads, on unsorted, repeated and
    # single classes, in the table's dtype.
    for idx in (rng.permutation(tax.K), rng.integers(0, tax.K, 2 * tax.K),
                np.array([tax.K - 1, 0, tax.K - 1, 0]), np.array([0]),
                np.array([tax.K - 1]), np.array([tax.K // 2])):
        rows = tax.lca_rows(idx)
        assert rows.dtype == m.dtype and rows.shape == (len(idx), tax.K)
        assert np.array_equal(rows, ref[idx])
        cols = rng.integers(0, tax.K, (len(idx), 5))
        at = tax.lca_rows(idx, cols)
        assert at.dtype == m.dtype
        assert np.array_equal(at, ref[idx[:, None], cols])
    # The walk's per-node tables and the facts derived from them.
    assert all(d == len(root_path(tax, v)) - 1
               for v, d in enumerate(tax.depths()))
    assert tax.heights() == reference_heights(tax)
    assert tax.class_names == [tax.names[leaf] for leaf in tax.leaves]
    assert build_cost_matrix(tax).bound == m.max()


@pytest.mark.parametrize("name", ["random-attachment", "caterpillar"])
def test_metric_reduction_reads_the_compact_table_exactly(name):
    # Every (truth, ranked class) height the reduction sums must be the
    # reference's, and the totals must not wrap in the compact dtype.
    tax = TABLE_TREES[name]
    rng = np.random.default_rng(3)
    N = 50
    probs = rng.dirichlet(np.full(tax.K, 0.3), size=N)
    names = [tax.names[leaf] for leaf in tax.leaves]
    preds = PredictionSet(probs, rng.integers(0, tax.K, N), names)
    ranked = batch_apply(preds, None, "likelihood")
    ref = reference_lca(tax)
    D = ref[preds.truth[:, None], ranked.permutation[:, :20]]
    r = evaluate(ranked, preds.truth, tax, (1, 20))
    assert r.distance_at_k[20] == int(D.sum()) / (20 * N)
    assert r.severity_over_all == int(D[:, 0].sum()) / N
    assert sum(r.histogram.values()) == r.n_mistakes
    for h, count in r.histogram.items():
        assert count == int((D[:, 0] == h).sum())


@pytest.mark.parametrize("tree", ["random-attachment", "caterpillar"])
def test_lca_table_build_holds_one_table(tree):
    # The table is filled from lca_rows about 32 Ki entries at a time:
    # one K x K table at the peak beside one block of rows and its
    # working arrays, no int64 or float64 table. Gathering rows, then
    # columns, into fresh tables held two.
    tax = random_tree(1, 1024) if tree == "random-attachment" else \
        caterpillar(1023)
    tracemalloc.start()
    try:
        m = tax.lca_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dtype == (np.uint8 if tree == "random-attachment"
                       else np.uint16)
    assert np.array_equal(m, reference_lca(tax))
    assert peak <= m.nbytes + (1 << 18) + (1 << 17), peak


def test_collapse_depth_validation():
    tax = parse_taxonomy(CHAIN)
    with pytest.raises(TaxonomyError, match="out of range"):
        collapse_to_depth(tax, -1)
    with pytest.raises(TaxonomyError, match="out of range"):
        collapse_to_depth(tax, tax.max_leaf_depth() + 1)


def test_collapse_keeps_shallow_leaf_as_itself():
    tax = parse_taxonomy(CHAIN)
    c_class = tax.leaf_order["c"]
    mapping = collapse_to_depth(tax, 2)
    # c sits at depth 1, above the cut, so it maps to its own node.
    assert tax.names[mapping[c_class]] == "c"
    # a and b (depth 3) collapse to m1 (depth 2).
    assert tax.names[mapping[tax.leaf_order["a"]]] == "m1"
    assert tax.names[mapping[tax.leaf_order["b"]]] == "m1"
    everything = collapse_to_depth(tax, 0)
    assert set(everything.values()) == {tax.root}


def test_shuffle_is_deterministic_and_structure_preserving():
    tax = random_tree(3, 17)
    s1 = shuffle_leaves(tax, 0)
    s2 = shuffle_leaves(tax, 0)
    assert s1.names == s2.names
    assert s1.parent == tax.parent
    assert sorted(s1.names) == sorted(tax.names)
    assert shuffle_leaves(tax, 1).names != s1.names
    with pytest.raises(ValueError, match="^seed must be a non-negative "
                                         "integer, got -1$"):
        shuffle_leaves(tax, -1)


@pytest.mark.parametrize("mode", ["flat", "balanced-binary",
                                  "random-attachment"])
def test_shuffled_tree_equals_the_rebuilt_one(mode):
    # shuffle_leaves keeps the source's shape tables and shares its
    # tree-sum shape arrays instead of walking the tree again; every
    # table must still be what construction gives.
    tax = gen_taxonomy(SynthConfig(seed=4, K=64, N=0, tree_mode=mode))
    shuf = shuffle_leaves(tax, 2)
    ref = Taxonomy(shuf.names, tax.parent)
    for attr in ("names", "parent", "root", "leaves", "class_names",
                 "leaf_order", "_children", "_depths", "_heights", "_lo",
                 "_hi"):
        assert getattr(shuf, attr) == getattr(ref, attr), attr
    assert np.array_equal(shuf._pos, ref._pos)
    assert shuf._sum_shape() is tax._sum_shape()
    for got, want in zip(shuf._sum_shape(), ref._sum_shape()):
        assert np.array_equal(got, want)
    assert np.array_equal(shuf.lca_matrix(), ref.lca_matrix())
    assert shuf.leaves != tax.leaves  # the classes did move


def test_returned_tables_are_copies():
    # Writing into depths() or heights() must not reach the tree's own
    # tables, which node_height, max_leaf_depth and the LCA table read.
    tax = parse_taxonomy("a\tx\nb\tx\nc\tr\nx\tr\n")
    tax.heights()[tax.root] = 7
    tax.depths()[tax.leaves[0]] = 9
    assert node_height(tax, tax.root) == 2
    assert tax.max_leaf_depth() == 2
    assert build_cost_matrix(tax).entries.max() == 2
    assert tax.heights()[tax.root] == 2


def test_shuffle_conjugates_the_cost_matrix():
    tax = random_tree(7, 12)
    shuf = shuffle_leaves(tax, 5)
    old = tax.lca_matrix()
    new = shuf.lca_matrix()
    # Class k's leaf node moved; recover where each class now sits in
    # the old class order and check entries moved with the names.
    node_to_old_class = {node: k for k, node in enumerate(tax.leaves)}
    sigma = [node_to_old_class[node] for node in shuf.leaves]
    for i in range(tax.K):
        for j in range(tax.K):
            assert new[i, j] == old[sigma[i], sigma[j]]
    assert sorted(new.ravel()) == sorted(old.ravel())


def test_shuffle_of_flat_tree_changes_nothing_pairwise():
    tax = gen_taxonomy(SynthConfig(seed=0, K=6, N=0, tree_mode="flat"))
    shuf = shuffle_leaves(tax, 9)
    assert np.array_equal(shuf.lca_matrix(), tax.lca_matrix())


def test_taxonomy_constructor_rejects_nodes_off_the_root():
    # c and d are each other's parent: a cycle the root never reaches.
    with pytest.raises(TaxonomyError, match="descend from the root"):
        Taxonomy(["a", "b", "c", "d", "root"], [4, 4, 3, 2, -1])


def test_taxonomy_constructor_rejects_duplicate_names():
    with pytest.raises(TaxonomyError, match="unique"):
        Taxonomy(["a", "a", "root"], [2, 2, -1])


def test_taxonomy_constructor_rejects_parents_out_of_range():
    for parent, bad in (([2, 99, -1], 99), ([2, 2, -7], -7),
                        ([3, 2, -1], 3)):
        with pytest.raises(TaxonomyError,
                           match=rf"^parent index {bad} outside \[-1, 3\)$"):
            Taxonomy(["a", "b", "root"], parent)
    # A non-integral parent is named, not truncated to 2.
    with pytest.raises(TaxonomyError,
                       match=r"^parent indices must be integers, got 2\.7$"):
        Taxonomy(["a", "b", "root"], [2.7, 2.2, -1])
    assert Taxonomy(["a", "b", "root"], [2.0, 2, -1]).parent == [2, 2, -1]


@pytest.mark.parametrize("call, what, bad, good", [
    (lambda t, p, v: batch_apply(p, None, "likelihood", depth=v).permutation
     .tolist(), "ranking depth", 2.5, 2),
    (lambda t, p, v: bin_confidences(p, batch_apply(p, None, "likelihood"),
                                     v).counts.tolist(), "bin count", 2.5, 2),
    (lambda t, p, v: BinTally(v).B, "bin count", 2.5, 2),
    (lambda t, p, v: collapse_to_depth(t, v), "depth", 1.5, 1),
    (lambda t, p, v: hierarchical_ece(p, t, v), "depth", 0.5, 1),
    (lambda t, p, v: node_height(t, v), "node index", 1.5, 1),
], ids=["batch_apply", "bin_confidences", "BinTally", "collapse_to_depth",
        "hierarchical_ece", "node_height"])
def test_integer_arguments_are_not_truncated(call, what, bad, good):
    tax = parse_taxonomy(CHAIN)
    preds = PredictionSet([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]], [0, 2],
                          tax.class_names)
    with pytest.raises(ValueError,
                       match=rf"^{what} must be an integer, got {bad}$"):
        call(tax, preds, bad)
    assert call(tax, preds, float(good)) == call(tax, preds, good)
