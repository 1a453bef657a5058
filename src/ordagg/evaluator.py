"""Exact satisfaction semantics, brute-force oracles, and uniform samplers.

satisfies() is the single source of truth for what each constraint means
against each solution structure. score() counts satisfied constraints, with
vectorized paths for rankings, partitions, and quartet sets. The enumeration
oracles walk every solution of a tiny instance; the samplers draw uniform
random solutions (leaf-insertion for trees, which is uniform over the
(2n-3)!! rooted and (2n-5)!! unrooted topologies).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import (
    Between,
    CannotLink,
    Constraint,
    DesiredQuartet,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    FourNonSeparated,
    FourSeparated,
    Instance,
    MustLink,
    NotBetween,
    Partition,
    Precedes,
    Ranking,
    RootedBinaryTree,
    SOLUTION_TYPE,
    Solution,
    UnrootedTree,
)

ORACLE_CAPS = {"mas": 8, "btw": 8, "nonbtw": 8, "cc": 8, "triplets": 6, "quartets": 7}


@dataclass(frozen=True)
class Score:
    satisfied: int
    total: int

    @property
    def fraction(self) -> float | None:
        if self.total == 0:
            return None
        return self.satisfied / self.total


def _obeys_triplet(t: RootedBinaryTree, a: int, b: int, out: int) -> bool:
    # ab|out holds iff the a,b ancestor sits strictly below the three-way LCA
    leaf = t.leaf_of_item
    lab = t.lca(leaf[a], leaf[b])
    return lab != t.lca(lab, leaf[out])


def _obeys_quartet(t: UnrootedTree, a: int, b: int, c: int, d: int) -> bool:
    # ab|cd holds iff the a-b and c-d paths are vertex disjoint, which in a
    # trivalent tree is the strict four-point condition on path lengths
    dist = t.leaf_distances
    own = dist[a, b] + dist[c, d]
    return own < dist[a, c] + dist[b, d] and own < dist[a, d] + dist[b, c]


def satisfies(c: Constraint, s: Solution) -> bool:
    if isinstance(c, Precedes):
        pos = s.position
        return bool(pos[c.a] < pos[c.b])
    if isinstance(c, Between):
        pos = s.position
        pa, pb, pc = pos[c.a], pos[c.b], pos[c.c]
        return bool(pa < pb < pc or pc < pb < pa)
    if isinstance(c, NotBetween):
        pos = s.position
        pa, pb, po = pos[c.a], pos[c.b], pos[c.out]
        return not (min(pa, pb) < po < max(pa, pb))
    if isinstance(c, FourSeparated):
        pos = s.position
        pa, pb, pc, pd = pos[c.a], pos[c.b], pos[c.c], pos[c.d]
        return bool(max(pa, pb) < min(pc, pd) or max(pc, pd) < min(pa, pb))
    if isinstance(c, FourNonSeparated):
        pos = s.position
        pa, pb, pc, pd = pos[c.a], pos[c.b], pos[c.c], pos[c.d]
        return not (max(pa, pb) < min(pc, pd) or max(pc, pd) < min(pa, pb))
    if isinstance(c, MustLink):
        return s.labels[c.a] == s.labels[c.b]
    if isinstance(c, CannotLink):
        return s.labels[c.a] != s.labels[c.b]
    if isinstance(c, DesiredTriplet):
        return _obeys_triplet(s, c.a, c.b, c.out)
    if isinstance(c, ForbiddenTriplet):
        return not _obeys_triplet(s, c.a, c.b, c.out)
    if isinstance(c, DesiredQuartet):
        return _obeys_quartet(s, c.a, c.b, c.c, c.d)
    if isinstance(c, ForbiddenQuartet):
        return not _obeys_quartet(s, c.a, c.b, c.c, c.d)
    raise TypeError(f"unknown constraint {c!r}")


# vectorized per-class counters for array-backed solutions


def _count_prec(A: np.ndarray, pos: np.ndarray) -> int:
    return int(np.count_nonzero(pos[A[:, 0]] < pos[A[:, 1]]))


def _count_btw(A: np.ndarray, pos: np.ndarray) -> int:
    pa, pb, pc = pos[A[:, 0]], pos[A[:, 1]], pos[A[:, 2]]
    return int(np.count_nonzero(((pa < pb) & (pb < pc)) | ((pc < pb) & (pb < pa))))


def _count_nbtw(A: np.ndarray, pos: np.ndarray) -> int:
    pa, pb, po = pos[A[:, 0]], pos[A[:, 1]], pos[A[:, 2]]
    inside = (np.minimum(pa, pb) < po) & (po < np.maximum(pa, pb))
    return int(A.shape[0] - np.count_nonzero(inside))


def _separated(A: np.ndarray, pos: np.ndarray) -> np.ndarray:
    pa, pb, pc, pd = pos[A[:, 0]], pos[A[:, 1]], pos[A[:, 2]], pos[A[:, 3]]
    return (np.maximum(pa, pb) < np.minimum(pc, pd)) | (
        np.maximum(pc, pd) < np.minimum(pa, pb)
    )


_RANKING_COUNTERS: dict[type, Callable[[np.ndarray, np.ndarray], int]] = {
    Precedes: _count_prec,
    Between: _count_btw,
    NotBetween: _count_nbtw,
    FourSeparated: lambda A, pos: int(np.count_nonzero(_separated(A, pos))),
    FourNonSeparated: lambda A, pos: int(A.shape[0] - np.count_nonzero(_separated(A, pos))),
}


def _count_ranking_grouped(grouped: dict[type, np.ndarray], pos: np.ndarray) -> int:
    total = 0
    for cls, A in grouped.items():
        total += _RANKING_COUNTERS[cls](A, pos)
    return total


def _quartet_obeyed_mask(A: np.ndarray, dist: np.ndarray) -> np.ndarray:
    a, b, c, d = A[:, 0], A[:, 1], A[:, 2], A[:, 3]
    own = dist[a, b] + dist[c, d]
    return (own < dist[a, c] + dist[b, d]) & (own < dist[a, d] + dist[b, c])


def score(instance: Instance, s: Solution) -> Score:
    """Count of satisfied constraints; a forbidden variant counts as satisfied
    when the tree does not obey its split."""
    if not isinstance(s, SOLUTION_TYPE[instance.kind]):
        raise ValueError(
            f"solution type {type(s).__name__} does not fit kind {instance.kind}"
        )
    total = len(instance.constraints)
    if total == 0:
        return Score(0, 0)
    if isinstance(s, Ranking):
        return Score(_count_ranking_grouped(instance.grouped, s.position), total)
    if isinstance(s, Partition):
        labels = np.asarray(s.labels, dtype=np.int64)
        sat = 0
        for cls, A in instance.grouped.items():
            same = labels[A[:, 0]] == labels[A[:, 1]]
            hits = np.count_nonzero(same)
            sat += hits if cls is MustLink else A.shape[0] - hits
        return Score(int(sat), total)
    if isinstance(s, UnrootedTree):
        dist = s.leaf_distances
        sat = 0
        for cls, A in instance.grouped.items():
            obeyed = np.count_nonzero(_quartet_obeyed_mask(A, dist))
            sat += obeyed if cls is DesiredQuartet else A.shape[0] - obeyed
        return Score(int(sat), total)
    return Score(sum(1 for c in instance.constraints if satisfies(c, s)), total)


def count_satisfied(constraints: Iterable[Constraint], s: Solution) -> int:
    return sum(1 for c in constraints if satisfies(c, s))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_rankings(n: int) -> Iterator[Ranking]:
    for p in itertools.permutations(range(n)):
        yield Ranking(p)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Restricted growth strings in lexicographic order (Bell(n) of them)."""
    if n == 0:
        yield Partition(())
        return
    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[Partition]:
        if i == n:
            yield Partition(tuple(labels))
            return
        for l in range(used + 1):
            labels[i] = l
            yield from rec(i + 1, max(used, l + 1))

    yield from rec(1, 1)


def _rooted_insert_above(parent, left, right, leaf, root, v, item):
    """Subdivide the edge above node v with a fresh internal node carrying a
    new leaf; v == root grows a new root. Returns the new root index."""
    l_idx = len(parent)
    p_idx = l_idx + 1
    pv = parent[v]
    parent.append(p_idx)
    left.append(-1)
    right.append(-1)
    leaf.append(item)
    parent.append(pv)
    left.append(v)
    right.append(l_idx)
    leaf.append(-1)
    parent[v] = p_idx
    if pv == -1:
        return p_idx
    if left[pv] == v:
        left[pv] = p_idx
    else:
        right[pv] = p_idx
    return root


def _freeze_rooted(parent, left, right, leaf, root) -> RootedBinaryTree:
    return RootedBinaryTree(
        parent=tuple(parent),
        left=tuple(left),
        right=tuple(right),
        leaf_item=tuple(leaf),
        root=root,
    )


def enumerate_rooted_trees(n: int, items: Sequence[int] | None = None) -> Iterator[RootedBinaryTree]:
    """All (2n-3)!! leaf-labeled topologies, one ordered arena each."""
    items = list(range(n)) if items is None else list(items)

    def rec(k: int):
        if k == 1:
            yield [-1], [-1], [-1], [items[0]], 0
            return
        for parent, left, right, leaf, root in rec(k - 1):
            for v in range(len(parent)):
                p2, l2, r2, f2 = list(parent), list(left), list(right), list(leaf)
                root2 = _rooted_insert_above(p2, l2, r2, f2, root, v, items[k - 1])
                yield p2, l2, r2, f2, root2

    for arrays in rec(len(items)):
        yield _freeze_rooted(*arrays)


def _unrooted_insert_on_edge(adj, leaf, edges, eidx, item):
    """Subdivide edges[eidx] with a fresh internal node and hang a new leaf."""
    u, v = edges[eidx]
    w = len(adj)
    l = w + 1
    adj.append([u, v, l])
    leaf.append(-1)
    adj.append([w])
    leaf.append(item)
    adj[u][adj[u].index(v)] = w
    adj[v][adj[v].index(u)] = w
    edges[eidx] = (u, w)
    edges.append((w, v))
    edges.append((w, l))


def _unrooted_base(items: Sequence[int]):
    n = len(items)
    if n == 1:
        return [[]], [items[0]], []
    if n == 2:
        return [[1], [0]], [items[0], items[1]], [(0, 1)]
    adj = [[3], [3], [3], [0, 1, 2]]
    leaf = [items[0], items[1], items[2], -1]
    edges = [(0, 3), (1, 3), (2, 3)]
    return adj, leaf, edges


def _freeze_unrooted(adj, leaf) -> UnrootedTree:
    return UnrootedTree(
        adjacency=tuple(tuple(nbrs) for nbrs in adj),
        leaf_item=tuple(leaf),
    )


def enumerate_unrooted_trees(n: int, items: Sequence[int] | None = None) -> Iterator[UnrootedTree]:
    """All (2n-5)!! trivalent leaf-labeled topologies for n >= 3."""
    items = list(range(n)) if items is None else list(items)

    def rec(k: int):
        if k <= 3:
            yield _unrooted_base(items[:k])
            return
        for adj, leaf, edges in rec(k - 1):
            for eidx in range(len(edges)):
                a2 = [list(nbrs) for nbrs in adj]
                f2 = list(leaf)
                e2 = list(edges)
                _unrooted_insert_on_edge(a2, f2, e2, eidx, items[k - 1])
                yield a2, f2, e2

    for adj, leaf, _ in rec(len(items)):
        yield _freeze_unrooted(adj, leaf)


def enumerate_solutions(kind: str, n: int) -> Iterator[Solution]:
    if SOLUTION_TYPE[kind] is Ranking:
        return enumerate_rankings(n)
    if SOLUTION_TYPE[kind] is Partition:
        return enumerate_partitions(n)
    if SOLUTION_TYPE[kind] is RootedBinaryTree:
        return enumerate_rooted_trees(n)
    return enumerate_unrooted_trees(n)


def oracle_best(instance: Instance) -> tuple[Solution, Score]:
    """Exhaustive maximum of score(); ties keep the earliest enumerated."""
    cap = ORACLE_CAPS[instance.kind]
    if instance.n > cap:
        raise ValueError(f"oracle enumeration needs n <= {cap} for kind {instance.kind}")
    best = None
    best_sat = -1
    for sol in enumerate_solutions(instance.kind, instance.n):
        sat = score(instance, sol).satisfied
        if sat > best_sat:
            best, best_sat = sol, sat
    assert best is not None
    return best, Score(best_sat, len(instance.constraints))


# ---------------------------------------------------------------------------
# uniform samplers


def random_ranking(n: int, rng: np.random.Generator) -> Ranking:
    return Ranking(tuple(int(x) for x in rng.permutation(n)))


def random_partition(n: int, rng: np.random.Generator) -> Partition:
    """Uniform label per item out of n, relabeled densely by first appearance."""
    if n == 0:
        return Partition(())
    raw = rng.integers(0, n, size=n)
    seen: dict[int, int] = {}
    labels = []
    for x in raw:
        labels.append(seen.setdefault(int(x), len(seen)))
    return Partition(tuple(labels))


def random_rooted_tree(
    n: int, rng: np.random.Generator, items: Sequence[int] | None = None
) -> RootedBinaryTree:
    """Uniform over the (2n-3)!! topologies by inserting each leaf above a
    uniformly chosen existing node (the root included)."""
    items = list(range(n)) if items is None else list(items)
    if not items:
        raise ValueError("rooted tree needs at least one item")
    parent, left, right, leaf = [-1], [-1], [-1], [items[0]]
    root = 0
    for k in range(1, len(items)):
        v = int(rng.integers(0, len(parent)))
        root = _rooted_insert_above(parent, left, right, leaf, root, v, items[k])
    return _freeze_rooted(parent, left, right, leaf, root)


def random_unrooted_tree(
    n: int, rng: np.random.Generator, items: Sequence[int] | None = None
) -> UnrootedTree:
    """Uniform over the (2n-5)!! trivalent topologies by subdividing a
    uniformly chosen edge per new leaf."""
    items = list(range(n)) if items is None else list(items)
    if not items:
        raise ValueError("unrooted tree needs at least one item")
    adj, leaf, edges = _unrooted_base(items)
    for k in range(3, len(items)):
        eidx = int(rng.integers(0, len(edges)))
        _unrooted_insert_on_edge(adj, leaf, edges, eidx, items[k])
    return _freeze_unrooted(adj, leaf)


def random_solution(kind: str, n: int, rng: np.random.Generator) -> Solution:
    sol_type = SOLUTION_TYPE[kind]
    if sol_type is Ranking:
        return random_ranking(n, rng)
    if sol_type is Partition:
        return random_partition(n, rng)
    if sol_type is RootedBinaryTree:
        return random_rooted_tree(n, rng)
    return random_unrooted_tree(n, rng)
