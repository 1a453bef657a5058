"""Turn a two-sided cut into a full solution for each kind.

One recursion serves all six kinds, driven by the per-kind table _RULES. The
cut splits the items into two sides; each side gets a part, a solution on the
side's own items, and the kind's join puts the two parts together. A side's
default part is its kind's fill: a uniformly random order for a ranking, the
better of one cluster and all singletons for a clustering, a uniformly random
rooted tree for both tree kinds. With DecodeConfig.recursive a side with at
least _MIN_RECURSION_SIZE items that carries a constraint re-solves its
induced sub-instance instead, and decodes that inner cut the same way when the
cut splits it; a clustering keeps such a split only where it scores at least
as well as the side's fill.

Rankings join one block after the other. Betweenness objectives are blind to a
global reversal, so a recursively decoded block arrives with an arbitrary
direction; the recursive betweenness join therefore keeps whichever block
orientations satisfy the most constraints. Clusterings join side by side and
rooted trees under a new root; only at the top, quartets join their two rooted
trees into an unrooted one by linking the roots. A cut that does not split the
items decodes to the kind's fill of all of them (a uniform unrooted tree for
quartets).

build, solve and score are looked up as this module's names at each call, so a
wrapper put in their place sees every inner solve and score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .evaluator import (
    random_ranking,
    random_rooted_tree,
    random_unrooted_tree,
    score,
)
from .graph import build
from .model import (
    TREE_KINDS,
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
    """Sub-instance on the side's items, relabeled to 0..len(side)-1. The side
    is sorted, so the relabeling keeps every pair smaller-index-first."""
    local = np.full(instance.n, -1)
    local[side] = np.arange(len(side))
    constraints = []
    for cls, columns in instance.grouped.items():
        cols = local[np.stack(columns)]
        cols = cols[:, (cols >= 0).all(axis=0)]
        constraints.extend(map(cls, *cols.tolist()))
    return Instance(kind=instance.kind, n=len(side), constraints=tuple(constraints))


def _best(instance: Instance, *candidates: Solution) -> Solution:
    """The first candidate that satisfies the most constraints."""
    return max(candidates, key=lambda s: score(instance, s).satisfied)


def _trivial(instance: Instance) -> Partition:
    """The better of one cluster and all singletons; ties keep one cluster."""
    return _best(instance, Partition((0,) * instance.n), Partition(tuple(range(instance.n))))


def _join_ranking(instance, S, T, a: Ranking, b: Ranking, cfg) -> Ranking:
    """S's block first; precedence cuts put the source side first."""
    first, second = [S[i] for i in a.order], [T[i] for i in b.order]
    if not cfg.recursive or instance.kind == "mas":
        # comparison arcs are directed, so only the reversal-blind kinds
        # get their block directions picked by score
        return Ranking(tuple(first + second))
    # ties keep the unflipped candidate
    return _best(instance, *(Ranking(tuple(x + y))
                             for x in (first, first[::-1]) for y in (second, second[::-1])))


def _join_partition(instance, S, T, a: Partition, b: Partition, cfg) -> Partition:
    labels = [0] * instance.n
    for side, part, offset in ((S, a, 0), (T, b, max(a.labels) + 1)):
        for item, label in zip(side, part.labels):
            labels[item] = label + offset
    return Partition.dense(labels)


def _retag(t: RootedBinaryTree, side: list[int]) -> RootedBinaryTree:
    leaf_item = tuple(-1 if x < 0 else side[x] for x in t.leaf_item)
    return RootedBinaryTree(t.parent, t.left, t.right, leaf_item, t.root)


def _join_rooted(instance, S, T, a: RootedBinaryTree, b: RootedBinaryTree, cfg) -> RootedBinaryTree:
    return join_rooted(_retag(a, S), _retag(b, T))


def _rooted_shape_join(instance, S, T, a: RootedBinaryTree, b: RootedBinaryTree, cfg) -> UnrootedTree:
    """Connect the two roots by an edge; every internal node keeps degree 3."""
    left, right = _retag(a, S), _retag(b, T)
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


class _Rule(NamedTuple):
    """How one kind decodes. fill(instance, side, rng) is a side's default
    part and join(instance, S, T, part of S, part of T, cfg) the part of both;
    a part is a solution on its side's items relabeled 0..len(side)-1.
    whole(instance, items, rng), where set, replaces the fill of all items
    when the cut does not split them; top, where set, replaces the join at
    the top."""

    fill: Callable
    join: Callable
    whole: Callable | None = None
    top: Callable | None = None


def _rooted_fill(instance, side, rng) -> RootedBinaryTree:
    return random_rooted_tree(len(side), rng)


_RANKING = _Rule(lambda instance, side, rng: random_ranking(len(side), rng), _join_ranking)
_RULES: dict[str, _Rule] = {
    "mas": _RANKING,
    "btw": _RANKING,
    "nonbtw": _RANKING,
    "cc": _Rule(lambda instance, side, rng: _trivial(_induce(instance, side)), _join_partition),
    "triplets": _Rule(_rooted_fill, _join_rooted),
    "quartets": _Rule(_rooted_fill, _join_rooted,
                      whole=lambda instance, items, rng: random_unrooted_tree(len(items), rng),
                      top=_rooted_shape_join),
}


def _part(instance: Instance, side: list[int], cfg: DecodeConfig, rng) -> Solution:
    """The part of one side: its fill, or its recursive decode where that applies."""
    rule = _RULES[instance.kind]
    if cfg.recursive and len(side) >= _MIN_RECURSION_SIZE:
        sub = _induce(instance, side)
        if sub.constraints:
            g = build(sub, cc_mustlink_weight=cfg.cc_mustlink_weight)
            S, T = _split(sub, solve(g, _INNER_SOLVER, rng))
            if S and T:
                part = rule.join(sub, S, T, _part(sub, S, cfg, rng), _part(sub, T, cfg, rng), cfg)
                return _best(sub, part, _trivial(sub)) if sub.kind == "cc" else part
    return rule.fill(instance, side, rng)


def decode(instance: Instance, cut: CutResult, cfg: DecodeConfig | None = None, rng=None) -> Solution:
    cfg = cfg or DecodeConfig()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    rule = _RULES[instance.kind]
    S, T = _split(instance, cut)
    if not S or not T:
        if instance.kind in TREE_KINDS:
            log.warning("degenerate cut, decoding to a uniform random tree")
        return (rule.whole or rule.fill)(instance, S or T, rng)
    parts = _part(instance, S, cfg, rng), _part(instance, T, cfg, rng)
    return (rule.top or rule.join)(instance, S, T, *parts, cfg)
