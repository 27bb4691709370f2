"""Class-hierarchy parsing and queries.

A hierarchy file is UTF-8 text with one edge per line, written
``child<TAB>parent``. Lines starting with ``#`` are comments; blank
lines are skipped. Names are the node identity: the same name in the
child and parent columns refers to one node, so names are globally
unique. Leaves are the nodes that never appear in the parent column;
they form the class set, ordered by sorted name.

The cost of confusing class i with class j is the height of their
lowest common ancestor. Height counts edges down to the furthest
descendant leaf, so every leaf has height 0 and the LCA height of a
class with itself is 0. A taxonomy walks its tree once, when it is
built, for every per-node table and the one LCA encoding: the heights
of the LCAs of depth-first adjacent leaves, whose range maxima are all
LCA heights (Bender and Farach-Colton, LATIN 2000). Every consumer
reads rows built from it by ``lca_rows``, O(K) each.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Taxonomy",
    "TaxonomyError",
    "parse_taxonomy",
    "node_height",
    "collapse_to_depth",
    "shuffle_leaves",
]


class TaxonomyError(ValueError):
    """Malformed or structurally invalid hierarchy input."""


def _as_int(value, what: str, error=ValueError) -> int:
    """``value`` as an int if it equals one, else ``error(what)`` naming
    it: 2.0 is 2, but 2.5, nan or "2" is refused, not truncated."""
    if isinstance(value, np.generic):
        value = value.item()
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != value:
        raise error(f"{what}, got {value!r}")
    return i


def _as_ints(values, what: str) -> np.ndarray:
    """``values`` as int64, each checked by :func:`_as_int` unless they
    cast safely; an integer outside int64 is named, never wrapped."""
    a = np.asarray(values)
    if a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64, copy=False)
    out = np.empty(a.size, dtype=np.int64)
    for n, v in enumerate(a.ravel().tolist()):
        try:
            out[n] = _as_int(v, what)
        except OverflowError:
            raise ValueError(f"{what} within int64, got {v!r}") from None
    return out.reshape(a.shape)


class Taxonomy:
    """Immutable rooted tree over named nodes.

    Instances come from :func:`parse_taxonomy` (or helpers that delegate
    to it) and must not be mutated afterwards. One walk at construction
    gives every per-node table (depth, height, depth-first leaf range,
    adjacent LCA height); the pairwise LCA-height matrix and the shape
    arrays of the risk tree sum are built from them on first use. All
    queries are read-only and safe under concurrent readers.

    Attributes:
        names: node index -> node name.
        parent: node index -> parent node index, -1 for the root.
        root: index of the unique parentless node.
        leaves: node indices of the K classes, sorted by name.
        class_names: the K class names in that order, as a list.
        leaf_order: class name -> class index in 0..K-1.
    """

    __slots__ = (
        "names", "parent", "root", "leaves", "class_names", "leaf_order",
        "_children", "_depths", "_heights", "_lo", "_hi", "_adj", "_pos",
        "_lca", "_shape",
    )

    def __init__(self, names, parent):
        self.names = list(names)
        self.parent = [_as_int(p, "parent indices must be integers",
                               TaxonomyError) for p in parent]
        n = len(self.names)
        if n != len(self.parent):
            raise TaxonomyError("names and parent lists differ in length")
        if len(set(self.names)) != n:
            raise TaxonomyError("node names must be unique")
        bad = [p for p in self.parent if not -1 <= p < n]
        if bad:
            raise TaxonomyError(f"parent index {bad[0]} outside [-1, {n})")
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        if len(roots) != 1:
            raise TaxonomyError("taxonomy requires exactly one root")
        self.root = roots[0]
        ch: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parent):
            if p >= 0:
                ch[p].append(i)
        self._children = ch
        # Preorder from the root: depths on the way down, leaves numbered
        # in visit order; then heights and leaf ranges children first,
        # and h(u) between the leaf ranges of u's consecutive children.
        depth, height, lo, hi = ([0] * n for _ in range(4))
        preorder, stack, k = [], [self.root], 0
        while stack:
            u = stack.pop()
            preorder.append(u)
            if not ch[u]:
                lo[u], hi[u], k = k, k + 1, k + 1
            for c in ch[u]:
                depth[c] = depth[u] + 1
            stack.extend(reversed(ch[u]))
        if len(preorder) != n:
            raise TaxonomyError("every node must descend from the root")
        adj = [0] * (k - 1)
        for u in reversed(preorder):
            if ch[u]:
                height[u] = 1 + max([height[c] for c in ch[u]])
                lo[u], hi[u] = lo[ch[u][0]], hi[ch[u][-1]]
                for c in ch[u][:-1]:
                    adj[hi[c] - 1] = height[u]
        self._depths, self._heights, self._lo, self._hi = depth, height, lo, hi
        self._adj = np.array(adj, dtype=np.min_scalar_type(height[self.root]))
        self._shape = None
        self._name_classes()

    def _name_classes(self) -> None:
        """Set the tables that depend on the names: the classes sorted by
        name, their names and their depth-first positions. The LCA table
        is rebuilt on next use; the tree's shape is kept."""
        self.leaves = sorted((i for i, c in enumerate(self._children)
                              if not c), key=self.names.__getitem__)
        if len(self.leaves) < 2:
            raise TaxonomyError("taxonomy must have at least 2 leaf classes")
        self.class_names = [self.names[i] for i in self.leaves]
        self.leaf_order = {name: k for k, name in enumerate(self.class_names)}
        self._pos = np.array([self._lo[leaf] for leaf in self.leaves])
        self._lca = None

    @property
    def K(self) -> int:
        return len(self.leaves)

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    def depths(self) -> list[int]:
        """Edge count from the root, per node (root depth 0), as a copy."""
        return list(self._depths)

    def heights(self) -> list[int]:
        """Edge count to the furthest descendant leaf, per node, as a copy."""
        return list(self._heights)

    def max_leaf_depth(self) -> int:
        return max(self._depths[leaf] for leaf in self.leaves)

    def lca_rows(self, classes, columns=None) -> np.ndarray:
        """LCA heights of the classes in the 1-d int array ``classes``:
        row r is row ``classes[r]`` of :meth:`lca_matrix`, or with an
        (n, m) int array ``columns``, its entries at ``columns[r]``, read
        from the running maxima of the adjacent heights outward from the
        class's leaf, in leaf-position order."""
        left = np.arange(self.K - 1) < self._pos[classes][:, None]
        out = np.zeros((left.shape[0], self.K), self._adj.dtype)
        right = np.multiply(self._adj, ~left, out=out[:, 1:])
        np.maximum.accumulate(right, axis=1, out=right)
        left = (self._adj * left)[:, ::-1]
        np.maximum.accumulate(left, axis=1, out=left)
        np.maximum(out[:, :-1], left[:, ::-1], out=out[:, :-1])
        if columns is None:
            return out.take(self._pos, axis=1)
        at = np.arange(len(out))[:, None] * self.K  # each row's first entry
        return out.take(at + self._pos[columns])

    def _lca_each(self):
        """Every class's LCA row in order, built 32 Ki entries at a time."""
        step = max(1, (1 << 15) // self.K)
        for lo in range(0, self.K, step):
            yield from self.lca_rows(np.arange(lo, min(lo + step, self.K)))

    def lca_matrix(self) -> np.ndarray:
        """K x K matrix of pairwise LCA heights over classes, cached.

        Entry [i, j] is the height of the deepest node that is an
        ancestor of both leaf i and leaf j. The dtype is the smallest
        unsigned one that holds the tree height (``np.min_scalar_type``:
        uint8, so K**2 bytes, up to height 255; uint16 above). Callers
        must cast before any arithmetic that can go negative or
        overflow. The table is read-only and C-contiguous, the only
        K x K array of its build; no command builds it.
        """
        if self._lca is None:
            m = np.fromiter(self._lca_each(),
                            np.dtype((self._adj.dtype, self.K)), self.K)
            m.setflags(write=False)
            self._lca = m
        return self._lca

    def _sum_shape(self):
        """Shape arrays of the risk tree sum (``riskmin._tree_risks``),
        built on first use from the per-node tables alone, so a tree of
        the same shape can share them.

        Returns ``(leaf_w, lo, hi, w, lo_at, lo_starts, by_hi, hi_at,
        hi_starts)``. ``leaf_w`` is the height of each leaf position's
        parent. The inner nodes below the LCA of all classes (of height
        ``CostMatrix.bound``) are ordered by their first leaf position
        ``lo``; ``hi`` is one past their last, and ``w`` is the (V, 1)
        float64 column of their height steps h(parent) - h(node) > 0.
        Runs of equal lo start at ``lo_starts`` and hold the nodes that
        begin at position ``lo_at``; ``by_hi`` orders the nodes by hi,
        and its runs start at ``hi_starts``, ending at ``hi_at``.
        """
        if self._shape is None:
            lo, hi = np.array(self._lo), np.array(self._hi)
            h, up = np.array(self._heights), np.array(self.parent)
            top = hi - lo == self.K  # the root and any unary chain below
            inner = np.flatnonzero(~top & (h > 0))
            inner = inner[np.argsort(lo[inner], kind="stable")]
            leaves = np.flatnonzero(h == 0)
            leaf_w = np.empty(self.K)
            leaf_w[lo[leaves]] = h[up[leaves]]
            by_hi = np.argsort(hi[inner], kind="stable")
            self._shape = (
                leaf_w, lo[inner], hi[inner],
                (h[up[inner]] - h[inner]).astype(np.float64)[:, None],
                *np.unique(lo[inner], return_index=True), by_hi,
                *np.unique(hi[inner][by_hi], return_index=True))
        return self._shape


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse hierarchy-file contents into a validated :class:`Taxonomy`.

    Raises :class:`TaxonomyError` with the offending line number for
    malformed lines, duplicate child rows, cycles (a self-parent line is
    a one-node cycle), and multiple roots. Empty input (no edges) is an
    error. A child name cannot start with ``#`` since such a line parses
    as a comment.
    """
    if text.startswith("﻿"):
        text = text[1:]
    names: list[str] = []
    index: dict[str, int] = {}
    first_line: dict[int, int] = {}
    parent_edge: dict[int, tuple[int, int]] = {}  # child -> (parent, line)

    def intern(name: str, lineno: int) -> int:
        i = index.get(name)
        if i is None:
            i = len(names)
            index[name] = i
            names.append(name)
            first_line[i] = lineno
        return i

    n_edges = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TaxonomyError(
                f"line {lineno}: expected 'child<TAB>parent', got {raw!r}"
            )
        child, par = parts
        ci = intern(child, lineno)
        pi = intern(par, lineno)
        if ci in parent_edge:
            raise TaxonomyError(
                f"line {lineno}: duplicate child row for {child!r} "
                f"(first on line {parent_edge[ci][1]})"
            )
        parent_edge[ci] = (pi, lineno)
        n_edges += 1
    if n_edges == 0:
        raise TaxonomyError("empty hierarchy: no edges found")

    # Follow parent chains; a chain that re-enters itself is a cycle.
    state = [0] * len(names)  # 0 new, 1 on current chain, 2 cleared
    for start in range(len(names)):
        if state[start]:
            continue
        chain = []
        node = start
        while True:
            if state[node] == 1:
                line = parent_edge[node][1]
                raise TaxonomyError(
                    f"line {line}: cycle detected at {names[node]!r}"
                )
            if state[node] == 2:
                break
            state[node] = 1
            chain.append(node)
            edge = parent_edge.get(node)
            if edge is None:
                break
            node = edge[0]
        for n in chain:
            state[n] = 2

    roots = [i for i in range(len(names)) if i not in parent_edge]
    if len(roots) > 1:
        listing = ", ".join(repr(names[r]) for r in roots)
        line = max(first_line[r] for r in roots)
        raise TaxonomyError(f"line {line}: multiple roots: {listing}")

    parent = [parent_edge[i][0] if i in parent_edge else -1
              for i in range(len(names))]
    return Taxonomy(names, parent)


def node_height(tax: Taxonomy, node: int) -> int:
    """Height of a node: edges to its furthest descendant leaf."""
    node = _as_int(node, "node index must be an integer")
    if not 0 <= node < tax.n_nodes:
        raise ValueError(f"node index {node} out of range")
    return tax._heights[node]


def collapse_to_depth(tax: Taxonomy, depth: int) -> dict[int, int]:
    """Map each class index to its ancestor node at the given depth.

    A leaf sitting above the cut (its own depth is smaller than
    ``depth``) maps to itself. Depth 0 maps every class to the root.
    The image set of the mapping defines the collapsed label space.
    """
    depth = _as_int(depth, "depth must be an integer")
    if not 0 <= depth <= tax.max_leaf_depth():
        raise TaxonomyError(
            f"depth {depth} out of range [0, {tax.max_leaf_depth()}]"
        )
    d = tax._depths
    mapping: dict[int, int] = {}
    for k, leaf in enumerate(tax.leaves):
        node = leaf
        while d[node] > depth:
            node = tax.parent[node]
        mapping[k] = node
    return mapping


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def shuffle_leaves(tax: Taxonomy, seed: int) -> Taxonomy:
    """Permute which class name sits at which leaf position.

    The tree shape is untouched, so the multiset of pairwise LCA heights
    is preserved and the new cost matrix is the permutation conjugate of
    the old one. The permutation is drawn with numpy's PCG64 generator
    seeded directly with ``seed``, using a Fisher-Yates pass in
    descending order: for t = K-1 down to 1, j = integers(0, t+1), swap
    positions t and j. This exact procedure is part of the contract so
    shuffled runs are reproducible bit for bit.
    """
    _check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    K = tax.K
    perm = list(range(K))
    for t in range(K - 1, 0, -1):
        j = int(rng.integers(0, t + 1))
        perm[t], perm[j] = perm[j], perm[t]
    new_names = list(tax.names)
    for pos, leaf in enumerate(tax.leaves):
        new_names[leaf] = tax.class_names[perm[pos]]
    # Same shape, so no construction walk: only the name tables change.
    new = object.__new__(Taxonomy)
    for attr in ("parent", "root", "_children", "_depths", "_heights",
                 "_lo", "_hi", "_adj"):
        setattr(new, attr, getattr(tax, attr))
    new.names, new._shape = new_names, tax._sum_shape()
    new._name_classes()
    return new
