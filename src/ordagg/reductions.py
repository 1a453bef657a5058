"""Caterpillar embeddings of rankings and randomized projections back.

A ranking x0 < x1 < ... maps to the caterpillar whose spine hangs one leaf at
each level, earliest item closest to the root; the unrooted variant carries
two leaves at each end of the spine. Projections read the leaves back off
after a fair coin swap at every internal node (and, unrooted, a uniform
shuffle of the three subtrees at the chosen root).
"""

from __future__ import annotations

import numpy as np

from .analysis import edge_side_items
from .model import Ranking, RootedBinaryTree, UnrootedTree, rooted_from_nested


def caterpillar_from_ranking(r: Ranking) -> RootedBinaryTree:
    order = r.order
    if len(order) < 2:
        raise ValueError("caterpillar needs at least 2 items")
    nested = [order[-2], order[-1]]
    for i in range(len(order) - 3, -1, -1):
        nested = [order[i], nested]
    return rooted_from_nested(nested)


def unrooted_caterpillar_from_ranking(r: Ranking) -> UnrootedTree:
    order = r.order
    n = len(order)
    if n < 4:
        raise ValueError("unrooted caterpillar needs at least 4 items")
    # spine nodes 0..n-3, leaves n-2..2n-3 in ranking order
    spine = n - 2
    adj: list[list[int]] = [[] for _ in range(spine + n)]
    leaf_item = [-1] * spine + list(order)

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    for p in range(spine - 1):
        link(p, p + 1)
    link(0, spine)
    link(0, spine + 1)
    for p in range(1, spine - 1):
        link(p, spine + p + 1)
    link(spine - 1, spine + n - 2)
    link(spine - 1, spine + n - 1)
    return UnrootedTree(tuple(tuple(nb) for nb in adj), tuple(leaf_item))


def project_with_random_swaps(t: RootedBinaryTree, rng: np.random.Generator) -> Ranking:
    """Read the leaves left to right after flipping each internal node fairly."""
    flip = rng.random(t.node_count) < 0.5
    out: list[int] = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if t.leaf_item[v] >= 0:
            out.append(t.leaf_item[v])
            continue
        first, second = t.left[v], t.right[v]
        if flip[v]:
            first, second = second, first
        stack.append(second)
        stack.append(first)
    return Ranking(tuple(out))


def _read_subtree(t: UnrootedTree, start: int, parent: int, rng, out: list[int]) -> None:
    if t.leaf_item[start] >= 0:
        out.append(t.leaf_item[start])
        return
    children = [nb for nb in t.adjacency[start] if nb != parent]
    if rng.random() < 0.5:
        children.reverse()
    for ch in children:
        _read_subtree(t, ch, start, rng, out)


def project_unrooted_with_random_swaps(t: UnrootedTree, rng: np.random.Generator) -> Ranking:
    """Root at the internal node with the largest subtree, shuffle its three
    subtrees uniformly, fair swaps below, then read the leaves off."""
    internals = [v for v in range(t.node_count) if t.leaf_item[v] < 0]
    if not internals:
        # 1 or 2 leaves, nothing to randomize
        return Ranking(tuple(x for x in t.leaf_item if x >= 0))
    best, best_size = internals[0], -1
    for v in internals:
        size = max(len(edge_side_items(t, (nb, v))) for nb in t.adjacency[v])
        if size > best_size:
            best, best_size = v, size
    subtrees = list(t.adjacency[best])
    order = rng.permutation(len(subtrees))
    out: list[int] = []
    for i in order:
        _read_subtree(t, subtrees[int(i)], best, rng, out)
    return Ranking(tuple(out))
