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
class with itself is 0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Taxonomy",
    "TaxonomyError",
    "parse_taxonomy",
    "node_height",
    "lca_height",
    "collapse_to_depth",
    "shuffle_leaves",
]


class TaxonomyError(ValueError):
    """Malformed or structurally invalid hierarchy input."""


class Taxonomy:
    """Immutable rooted tree over named nodes.

    Instances come from :func:`parse_taxonomy` (or helpers that delegate
    to it) and must not be mutated afterwards. Derived tables (children,
    depths, heights, the pairwise LCA-height matrix) are cached on first
    use; all queries are read-only and safe under concurrent readers.

    Attributes:
        names: node index -> node name.
        parent: node index -> parent node index, -1 for the root.
        root: index of the unique parentless node.
        leaves: node indices of the K classes, sorted by name.
        leaf_order: class name -> class index in 0..K-1.
    """

    __slots__ = (
        "names", "parent", "root", "leaves", "leaf_order",
        "_children", "_depths", "_heights", "_lca",
    )

    def __init__(self, names, parent):
        self.names = list(names)
        self.parent = [int(p) for p in parent]
        if len(self.names) != len(self.parent):
            raise TaxonomyError("names and parent lists differ in length")
        if len(set(self.names)) != len(self.names):
            raise TaxonomyError("node names must be unique")
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        if len(roots) != 1:
            raise TaxonomyError("taxonomy requires exactly one root")
        self.root = roots[0]
        children: list[list[int]] = [[] for _ in self.names]
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        self._children = children
        self.leaves = sorted(
            (i for i, c in enumerate(children) if not c),
            key=lambda i: self.names[i],
        )
        if len(self.leaves) < 2:
            raise TaxonomyError("taxonomy must have at least 2 leaf classes")
        self.leaf_order = {self.names[i]: k for k, i in enumerate(self.leaves)}
        self._depths = None
        self._heights = None
        self._lca = None

    @property
    def K(self) -> int:
        return len(self.leaves)

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    def children(self, node: int) -> list[int]:
        return list(self._children[node])

    def depths(self) -> list[int]:
        """Edge count from the root, per node (root depth 0)."""
        if self._depths is None:
            d = [-1] * self.n_nodes
            d[self.root] = 0
            stack = [self.root]
            while stack:
                u = stack.pop()
                for v in self._children[u]:
                    d[v] = d[u] + 1
                    stack.append(v)
            self._depths = d
        return self._depths

    def heights(self) -> list[int]:
        """Edge count to the furthest descendant leaf, per node."""
        if self._heights is None:
            d = self.depths()
            h = [0] * self.n_nodes
            # Children always sit deeper than their parent, so walking
            # nodes by decreasing depth visits every child first.
            for u in sorted(range(self.n_nodes), key=lambda i: -d[i]):
                if self._children[u]:
                    h[u] = 1 + max(h[v] for v in self._children[u])
            self._heights = h
        return self._heights

    def max_leaf_depth(self) -> int:
        d = self.depths()
        return max(d[leaf] for leaf in self.leaves)

    def root_path(self, node: int) -> list[int]:
        """Node indices from the root down to ``node`` inclusive."""
        path = [node]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path

    def lca_matrix(self) -> np.ndarray:
        """K x K int64 matrix of pairwise LCA heights over classes.

        Built once, with one vectorized K x K step per depth, and cached.
        Entry [i, j] is the height of the deepest node that is an ancestor
        of both leaf i and leaf j.
        """
        if self._lca is None:
            paths = [self.root_path(leaf) for leaf in self.leaves]
            anc = np.full((self.K, max(map(len, paths))), -1, dtype=np.int64)
            for i, path in enumerate(paths):
                anc[i, :len(path)] = path
            h = np.asarray(self.heights(), dtype=np.int64)
            m = np.empty((self.K, self.K), dtype=np.int64)
            # Every pair shares the root at depth 0; each deeper shared
            # ancestor overwrites, leaving the lowest common one.
            for col in anc.T:
                shared = (col[:, None] == col) & (col >= 0)[:, None]
                np.copyto(m, h[col][:, None], where=shared)
            m.setflags(write=False)
            self._lca = m
        return self._lca


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
    if not 0 <= node < tax.n_nodes:
        raise ValueError(f"node index {node} out of range")
    return tax.heights()[node]


def lca_height(tax: Taxonomy, i: int, j: int) -> int:
    """Height of the lowest common ancestor of classes i and j."""
    K = tax.K
    if not (0 <= i < K and 0 <= j < K):
        raise ValueError(f"class index out of range: ({i}, {j})")
    return int(tax.lca_matrix()[i, j])


def collapse_to_depth(tax: Taxonomy, depth: int) -> dict[int, int]:
    """Map each class index to its ancestor node at the given depth.

    A leaf sitting above the cut (its own depth is smaller than
    ``depth``) maps to itself. Depth 0 maps every class to the root.
    The image set of the mapping defines the collapsed label space.
    """
    if not 0 <= depth <= tax.max_leaf_depth():
        raise TaxonomyError(
            f"depth {depth} out of range [0, {tax.max_leaf_depth()}]"
        )
    d = tax.depths()
    mapping: dict[int, int] = {}
    for k, leaf in enumerate(tax.leaves):
        node = leaf
        while d[node] > depth:
            node = tax.parent[node]
        mapping[k] = node
    return mapping


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
    rng = np.random.Generator(np.random.PCG64(seed))
    K = tax.K
    perm = list(range(K))
    for t in range(K - 1, 0, -1):
        j = int(rng.integers(0, t + 1))
        perm[t], perm[j] = perm[j], perm[t]
    sorted_names = [tax.names[leaf] for leaf in tax.leaves]
    new_names = list(tax.names)
    for pos, leaf in enumerate(tax.leaves):
        new_names[leaf] = sorted_names[perm[pos]]
    return Taxonomy(new_names, tax.parent)
