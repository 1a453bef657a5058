"""Scoring, brute-force oracles, and uniform samplers.

What a constraint means is its class's predicate in model.CONSTRAINT_SPECS,
read against the solution's array encoding (model.encode). satisfies() is the
one-constraint case; score() and count_satisfied() run each class's predicate
once over the stacked item columns of its constraints; oracle_best() runs it
once over a stack of the encodings of every enumerated solution. The
enumeration oracles walk every solution of a tiny instance; the samplers draw
uniform random solutions (leaf-insertion for trees, which is uniform over the
(2n-3)!! rooted and (2n-5)!! unrooted topologies).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import (
    CONSTRAINT_SPECS,
    Constraint,
    Instance,
    Partition,
    Ranking,
    RootedBinaryTree,
    SOLUTION_TYPE,
    Solution,
    UnrootedTree,
    encode,
    group,
)

ORACLE_CAPS = {"mas": 8, "btw": 8, "nonbtw": 8, "cc": 8, "triplets": 6, "quartets": 7}

# predicate cells per oracle batch: enumerated solutions x constraints
_ORACLE_BATCH = 1 << 18


@dataclass(frozen=True)
class Score:
    satisfied: int
    total: int

    @property
    def fraction(self) -> float | None:
        if self.total == 0:
            return None
        return self.satisfied / self.total


def satisfies(c: Constraint, s: Solution) -> bool:
    return bool(CONSTRAINT_SPECS[type(c)].holds(encode(s), *c.items()))


def _satisfied(grouped: dict[type, tuple[np.ndarray, ...]], enc: np.ndarray, axis=None):
    """Satisfied constraints of one solution or, with axis=0, of each
    solution whose encoding enc stacks along a trailing axis."""
    return sum(
        np.count_nonzero(CONSTRAINT_SPECS[cls].holds(enc, *columns), axis=axis)
        for cls, columns in grouped.items()
    )


def score(instance: Instance, s: Solution) -> Score:
    """Count of satisfied constraints; a forbidden variant counts as satisfied
    when the tree does not obey its split."""
    if not isinstance(s, SOLUTION_TYPE[instance.kind]):
        raise ValueError(
            f"solution type {type(s).__name__} does not fit kind {instance.kind}"
        )
    return Score(int(_satisfied(instance.grouped, encode(s))), len(instance.constraints))


def count_satisfied(constraints: Iterable[Constraint], s: Solution) -> int:
    return int(_satisfied(group(constraints), encode(s)))


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


def enumerate_rooted_trees(n: int) -> Iterator[RootedBinaryTree]:
    """All (2n-3)!! leaf-labeled topologies, one ordered arena each."""

    def rec(k: int):
        if k == 1:
            yield [-1], [-1], [-1], [0], 0
            return
        for parent, left, right, leaf, root in rec(k - 1):
            for v in range(len(parent)):
                p2, l2, r2, f2 = list(parent), list(left), list(right), list(leaf)
                root2 = _rooted_insert_above(p2, l2, r2, f2, root, v, k - 1)
                yield p2, l2, r2, f2, root2

    for arrays in rec(n):
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


def _unrooted_base(n: int):
    """The only tree on the leaves 0..n-1 for n <= 3."""
    if n == 1:
        return [[]], [0], []
    if n == 2:
        return [[1], [0]], [0, 1], [(0, 1)]
    adj = [[3], [3], [3], [0, 1, 2]]
    leaf = [0, 1, 2, -1]
    edges = [(0, 3), (1, 3), (2, 3)]
    return adj, leaf, edges


def _freeze_unrooted(adj, leaf) -> UnrootedTree:
    return UnrootedTree(
        adjacency=tuple(tuple(nbrs) for nbrs in adj),
        leaf_item=tuple(leaf),
    )


def enumerate_unrooted_trees(n: int) -> Iterator[UnrootedTree]:
    """All (2n-5)!! trivalent leaf-labeled topologies for n >= 3."""

    def rec(k: int):
        if k <= 3:
            yield _unrooted_base(k)
            return
        for adj, leaf, edges in rec(k - 1):
            for eidx in range(len(edges)):
                a2 = [list(nbrs) for nbrs in adj]
                f2 = list(leaf)
                e2 = list(edges)
                _unrooted_insert_on_edge(a2, f2, e2, eidx, k - 1)
                yield a2, f2, e2

    for adj, leaf, _ in rec(n):
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
    sols, encodings = _enumerated(instance.kind, instance.n)
    total = len(instance.constraints)
    sat = np.zeros(len(sols), dtype=np.int64)
    step = max(1, _ORACLE_BATCH // max(1, total))
    for lo in range(0, len(sols), step):
        sat[lo:lo + step] += _satisfied(instance.grouped, encodings[..., lo:lo + step], axis=0)
    best = int(np.argmax(sat))
    return sols[best], Score(int(sat[best]), total)


@functools.lru_cache(maxsize=1)
def _enumerated(kind: str, n: int) -> tuple[tuple[Solution, ...], np.ndarray]:
    """Every solution of the kind at size n, and their encodings stacked
    along a trailing axis; kept for the next instance of the same shape."""
    sols = tuple(enumerate_solutions(kind, n))
    encodings = np.stack([encode(s) for s in sols], axis=-1)
    encodings.flags.writeable = False
    return sols, encodings


# ---------------------------------------------------------------------------
# uniform samplers


def random_ranking(n: int, rng: np.random.Generator) -> Ranking:
    return Ranking(tuple(int(x) for x in rng.permutation(n)))


def random_partition(n: int, rng: np.random.Generator) -> Partition:
    """Uniform label per item out of n, relabeled densely by first appearance."""
    if n == 0:
        return Partition(())
    return Partition.dense(rng.integers(0, n, size=n))


def random_rooted_tree(n: int, rng: np.random.Generator) -> RootedBinaryTree:
    """Uniform over the (2n-3)!! topologies by inserting each leaf above a
    uniformly chosen existing node (the root included)."""
    if n < 1:
        raise ValueError("rooted tree needs at least one item")
    parent, left, right, leaf = [-1], [-1], [-1], [0]
    root = 0
    for k in range(1, n):
        v = int(rng.integers(0, len(parent)))
        root = _rooted_insert_above(parent, left, right, leaf, root, v, k)
    return _freeze_rooted(parent, left, right, leaf, root)


def random_unrooted_tree(n: int, rng: np.random.Generator) -> UnrootedTree:
    """Uniform over the (2n-5)!! trivalent topologies by subdividing a
    uniformly chosen edge per new leaf."""
    if n < 1:
        raise ValueError("unrooted tree needs at least one item")
    adj, leaf, edges = _unrooted_base(min(n, 3))
    for k in range(3, n):
        eidx = int(rng.integers(0, len(edges)))
        _unrooted_insert_on_edge(adj, leaf, edges, eidx, k)
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
