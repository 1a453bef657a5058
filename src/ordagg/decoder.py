"""Turn a two-sided cut into a full solution for each kind.

The default decoders fill each side uniformly at random: a random order within
both ranking blocks, trivial clusterings per side, uniform tree shapes per
side joined at the top. Recursion re-solves the induced sub-instance of a side
instead, falling back to the default fill below _MIN_RECURSION_SIZE items or
when a side carries no constraints; a clustering keeps a side's recursive
split only where it scores at least as well as the side's better trivial
clustering. Betweenness objectives are blind to a global reversal, so a
recursively decoded block arrives with an arbitrary direction; the recursive
ranking path therefore keeps whichever block orientations satisfy the most
constraints at each join.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .evaluator import (
    random_rooted_tree,
    random_unrooted_tree,
    score,
)
from .graph import build
from .model import (
    Instance,
    Partition,
    Ranking,
    RootedBinaryTree,
    Solution,
    UnrootedTree,
    join_rooted,
)
from .solver import CutResult, SolverConfig, solve

log = logging.getLogger(__name__)

_INNER_SOLVER = SolverConfig(restarts=2, hyperplanes=60, max_iterations=500)
_MIN_RECURSION_SIZE = 3


@dataclass(frozen=True)
class DecodeConfig:
    recursive: bool = False
    cc_mustlink_weight: float = -1.0
    seed: int = 0


def _split(instance: Instance, cut: CutResult) -> tuple[list[int], list[int]]:
    S = sorted(int(i) for i in cut.S)
    in_S = set(S)
    T = [i for i in range(instance.n) if i not in in_S]
    return S, T


def _induce(instance: Instance, side: list[int]) -> Instance:
    """Sub-instance on the side's items, relabeled to 0..len(side)-1."""
    local = {item: i for i, item in enumerate(side)}
    kept = []
    for c in instance.constraints:
        items = c.items()
        if all(x in local for x in items):
            kept.append(type(c)(*(local[x] for x in items)))
    return Instance(kind=instance.kind, n=len(side), constraints=tuple(kept))


def _recursion_applies(sub: Instance) -> bool:
    return sub.n >= _MIN_RECURSION_SIZE and len(sub.constraints) > 0


def _inner_solve(sub: Instance, cfg: DecodeConfig, rng) -> CutResult:
    g = build(sub, cc_mustlink_weight=cfg.cc_mustlink_weight)
    return solve(g, _INNER_SOLVER, rng)


def _best_block_orientation(instance: Instance, first: list[int], second: list[int]) -> Ranking:
    """Try both directions per block; ties keep the unflipped candidate."""
    best = None
    best_sat = -1
    for flip_a in (False, True):
        for flip_b in (False, True):
            a = first[::-1] if flip_a else first
            b = second[::-1] if flip_b else second
            cand = Ranking(tuple(a + b))
            sat = score(instance, cand).satisfied
            if sat > best_sat:
                best, best_sat = cand, sat
    return best


def decode_ranking(instance: Instance, cut: CutResult, cfg: DecodeConfig | None = None, rng=None) -> Ranking:
    """S first, then the complement; precedence cuts put the source side first."""
    if instance.kind not in ("mas", "btw", "nonbtw"):
        raise ValueError(f"kind {instance.kind} does not decode to a ranking")
    cfg = cfg or DecodeConfig()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    S, T = _split(instance, cut)

    def fill(side: list[int]) -> list[int]:
        if cfg.recursive and len(side) < instance.n:
            sub = _induce(instance, side)
            if _recursion_applies(sub):
                inner = _inner_solve(sub, cfg, rng)
                local = decode_ranking(sub, inner, cfg, rng)
                return [side[i] for i in local.order]
        return [side[int(i)] for i in rng.permutation(len(side))]

    first, second = fill(S), fill(T)
    if cfg.recursive and instance.kind != "mas":
        # comparison arcs are directed, so only the reversal-blind kinds
        # get their block directions picked by score
        return _best_block_orientation(instance, first, second)
    return Ranking(tuple(first + second))


def _cluster_side(sub: Instance, cfg: DecodeConfig, rng) -> tuple[int, ...]:
    """The better of one cluster and all singletons (ties keep one cluster);
    when decoding recursively, a recursive split of the side instead when it
    scores at least as well."""
    def satisfied(p: Partition) -> int:
        return score(sub, p).satisfied

    trivial = max((Partition((0,) * sub.n), Partition(tuple(range(sub.n)))), key=satisfied)
    if not cfg.recursive or not _recursion_applies(sub):
        return trivial.labels
    inner = _inner_solve(sub, cfg, rng)
    S, T = _split(sub, inner)
    if not S or not T:
        return trivial.labels
    labels = [0] * sub.n
    offset = 0
    for side in (S, T):
        part = _induce(sub, side)
        side_labels = _cluster_side(part, cfg, rng)
        for item, l in zip(side, side_labels):
            labels[item] = l + offset
        offset += max(side_labels) + 1
    return max((Partition(tuple(labels)), trivial), key=satisfied).labels


def decode_partition(instance: Instance, cut: CutResult, cfg: DecodeConfig | None = None, rng=None) -> Partition:
    if instance.kind != "cc":
        raise ValueError(f"kind {instance.kind} does not decode to a partition")
    cfg = cfg or DecodeConfig()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    S, T = _split(instance, cut)
    labels = [0] * instance.n
    offset = 0
    for side in (S, T):
        if not side:
            continue
        sub = _induce(instance, side)
        side_labels = _cluster_side(sub, cfg, rng)
        for item, l in zip(side, side_labels):
            labels[item] = l + offset
        offset += max(side_labels) + 1
    return Partition.dense(labels)


def _retag_rooted(t: RootedBinaryTree, side: list[int]) -> RootedBinaryTree:
    leaf_item = tuple(-1 if x < 0 else side[x] for x in t.leaf_item)
    return RootedBinaryTree(t.parent, t.left, t.right, leaf_item, t.root)


def decode_rooted_tree(instance: Instance, cut: CutResult, cfg: DecodeConfig | None = None, rng=None) -> RootedBinaryTree:
    if instance.kind != "triplets":
        raise ValueError(f"kind {instance.kind} does not decode to a rooted tree")
    cfg = cfg or DecodeConfig()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    S, T = _split(instance, cut)
    if not S or not T:
        log.warning("degenerate cut, decoding to a uniform random tree")
        return random_rooted_tree(instance.n, rng)

    def side_tree(side: list[int]) -> RootedBinaryTree:
        if cfg.recursive and len(side) > 1:
            sub = _induce(instance, side)
            if _recursion_applies(sub):
                inner = _inner_solve(sub, cfg, rng)
                inner_S = sorted(int(i) for i in inner.S)
                if 0 < len(inner_S) < sub.n:
                    return _retag_rooted(decode_rooted_tree(sub, inner, cfg, rng), side)
        return random_rooted_tree(len(side), rng, items=side)

    return join_rooted(side_tree(S), side_tree(T))


def _join_unrooted(ta: UnrootedTree, tb: UnrootedTree, rng) -> UnrootedTree:
    """Bridge two trees; an edge of each is subdivided to host the bridge end."""
    adj = [list(nb) for nb in ta.adjacency]
    leaf_item = list(ta.leaf_item)
    offset = len(adj)
    for nb in tb.adjacency:
        adj.append([x + offset for x in nb])
    leaf_item.extend(tb.leaf_item)

    def attach_point(t: UnrootedTree, off: int) -> int:
        if t.node_count == 1:
            return off
        edges = t.edges()
        u, v = edges[int(rng.integers(0, len(edges)))]
        u += off
        v += off
        w = len(adj)
        adj.append([u, v])
        leaf_item.append(-1)
        adj[u][adj[u].index(v)] = w
        adj[v][adj[v].index(u)] = w
        return w

    pa = attach_point(ta, 0)
    pb = attach_point(tb, offset)
    adj[pa].append(pb)
    adj[pb].append(pa)
    return UnrootedTree(tuple(tuple(nb) for nb in adj), tuple(leaf_item))


def _rooted_shape_join(left: RootedBinaryTree, right: RootedBinaryTree) -> UnrootedTree:
    """Connect the two roots by an edge; every internal node keeps degree 3."""
    adj: list[list[int]] = [[] for _ in range(left.node_count + right.node_count)]
    leaf_item = list(left.leaf_item) + list(right.leaf_item)
    for t, off in ((left, 0), (right, left.node_count)):
        for v in range(t.node_count):
            if t.leaf_item[v] < 0:
                for ch in (t.left[v], t.right[v]):
                    adj[v + off].append(ch + off)
                    adj[ch + off].append(v + off)
    adj[left.root].append(right.root + left.node_count)
    adj[right.root + left.node_count].append(left.root)
    return UnrootedTree(tuple(tuple(nb) for nb in adj), tuple(leaf_item))


def decode_unrooted_tree(instance: Instance, cut: CutResult, cfg: DecodeConfig | None = None, rng=None) -> UnrootedTree:
    if instance.kind != "quartets":
        raise ValueError(f"kind {instance.kind} does not decode to an unrooted tree")
    cfg = cfg or DecodeConfig()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    S, T = _split(instance, cut)
    if not S or not T:
        log.warning("degenerate cut, decoding to a uniform random tree")
        return random_unrooted_tree(instance.n, rng)
    if cfg.recursive:

        def side_tree(side: list[int]) -> UnrootedTree:
            if len(side) > 3:
                sub = _induce(instance, side)
                if _recursion_applies(sub):
                    inner = _inner_solve(sub, cfg, rng)
                    inner_S = sorted(int(i) for i in inner.S)
                    if 0 < len(inner_S) < sub.n:
                        local = decode_unrooted_tree(sub, inner, cfg, rng)
                        leaf_item = tuple(-1 if x < 0 else side[x] for x in local.leaf_item)
                        return UnrootedTree(local.adjacency, leaf_item)
            return random_unrooted_tree(len(side), rng, items=side)

        return _join_unrooted(side_tree(S), side_tree(T), rng)
    return _rooted_shape_join(
        random_rooted_tree(len(S), rng, items=S),
        random_rooted_tree(len(T), rng, items=T),
    )


def decode(instance: Instance, cut: CutResult, cfg: DecodeConfig | None = None, rng=None) -> Solution:
    kind = instance.kind
    if kind in ("mas", "btw", "nonbtw"):
        return decode_ranking(instance, cut, cfg, rng)
    if kind == "cc":
        return decode_partition(instance, cut, cfg, rng)
    if kind == "triplets":
        return decode_rooted_tree(instance, cut, cfg, rng)
    return decode_unrooted_tree(instance, cut, cfg, rng)
