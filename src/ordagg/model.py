"""Domain types shared by the whole package.

Items are dense integers 0..n-1. Constraints are small frozen dataclasses;
unordered pairs inside them are stored smaller-index-first so equal constraints
compare equal. Each class has one row in CONSTRAINT_SPECS (file tag, field
pairs, signed edge pattern, satisfaction predicate, desired or forbidden); only
the cut status (graph.classify) lives elsewhere.

A predicate reads one array encoding of the solution (encode): a ranking's
positions, a partition's labels, a rooted tree's LCA-depth matrix, an unrooted
tree's leaf distances. It indexes that array by items along its leading axes,
so the same expression takes item ints (one constraint), item columns (every
constraint of a class against one solution) and encodings stacked along a
trailing axis (many solutions at once).
Trees live in flat index arenas (parallel tuples) so traversal is
deterministic, child order is explicit, and rebuilding with swapped children is
cheap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

KINDS = ("mas", "btw", "nonbtw", "cc", "triplets", "quartets")
TREE_KINDS = ("triplets", "quartets")


class ConstraintSpec(NamedTuple):
    """One row of the constraint table: what a constraint class means.

    tag: JSON tag; None for the reduction-side classes no instance file holds.
    pairs: interchangeable field pairs, stored smaller-index-first.
    pattern: signed edges (i, j, weight) from items()[i] to items()[j], where
        weight None stands for the cc must-link weight; None where the class
        has no graph.
    holds: holds(enc, *items) is True where the constraint is satisfied by
        the solution whose encoding is enc (see encode).
    desired: for tree kinds, True on the desired and False on the forbidden
        variant.
    """

    tag: str | None
    pairs: tuple[tuple[str, str], ...]
    pattern: tuple[tuple[int, int, float | None], ...] | None
    holds: Callable[..., np.ndarray]
    desired: bool | None = None


class _OrderedPairs:
    """Base of the constraint classes with interchangeable fields: stores each
    of the class's `_pairs`, copied from its table row, smaller-index-first."""

    def __post_init__(self):
        for x_field, y_field in self._pairs:
            x = getattr(self, x_field)
            y = getattr(self, y_field)
            if y < x:
                object.__setattr__(self, x_field, y)
                object.__setattr__(self, y_field, x)


@dataclass(frozen=True)
class Precedes:
    """a must come before b; the only constraint where field order is semantic."""

    a: int
    b: int

    def items(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class Between(_OrderedPairs):
    """b must lie between a and c in the ranking (a and c interchangeable)."""

    a: int
    b: int
    c: int

    def items(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class NotBetween(_OrderedPairs):
    """out must not lie between a and b (a and b interchangeable)."""

    a: int
    b: int
    out: int

    def items(self):
        return (self.a, self.b, self.out)


@dataclass(frozen=True)
class MustLink(_OrderedPairs):
    a: int
    b: int

    def items(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class CannotLink(_OrderedPairs):
    a: int
    b: int

    def items(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class DesiredTriplet(_OrderedPairs):
    """Resolution ab|out must hold: the a,b ancestor sits strictly below the full LCA."""

    a: int
    b: int
    out: int

    def items(self):
        return (self.a, self.b, self.out)


@dataclass(frozen=True)
class ForbiddenTriplet(_OrderedPairs):
    """Resolution ab|out must not hold."""

    a: int
    b: int
    out: int

    def items(self):
        return (self.a, self.b, self.out)


@dataclass(frozen=True)
class DesiredQuartet(_OrderedPairs):
    """Split ab|cd must hold: the a-b and c-d paths must be vertex disjoint."""

    a: int
    b: int
    c: int
    d: int

    def items(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class ForbiddenQuartet(_OrderedPairs):
    """Split ab|cd must not hold."""

    a: int
    b: int
    c: int
    d: int

    def items(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class FourSeparated(_OrderedPairs):
    """Both of a,b must precede both of c,d in the ranking, or vice versa."""

    a: int
    b: int
    c: int
    d: int

    def items(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class FourNonSeparated(_OrderedPairs):
    """The blocks {a,b} and {c,d} must not be fully separated in the ranking."""

    a: int
    b: int
    c: int
    d: int

    def items(self):
        return (self.a, self.b, self.c, self.d)


# Satisfaction predicates over a solution encoding; items are distinct.


def _before(pos, a, b):
    return pos[a] < pos[b]


def _between(pos, a, b, c):
    """b lies strictly between a and c."""
    pa, pb, pc = pos[a], pos[b], pos[c]
    return (pa < pb) & (pb < pc) | (pc < pb) & (pb < pa)


def _apart(pos, a, b, c, d):
    """Both of a, b come before both of c, d, or both after."""
    pa, pb, pc, pd = pos[a], pos[b], pos[c], pos[d]
    return ((pa < pc) & (pa < pd) & (pb < pc) & (pb < pd)
            | (pc < pa) & (pd < pa) & (pc < pb) & (pd < pb))


def _linked(labels, a, b):
    return labels[a] == labels[b]


def _resolved(lca_depth, a, b, out):
    """ab|out: the a,b ancestor sits strictly below the a,out ancestor."""
    return lca_depth[a, b] > lca_depth[a, out]


def _split(dist, a, b, c, d):
    """ab|cd: the a-b and c-d paths are vertex disjoint, which in a trivalent
    tree is the strict four-point condition on path lengths."""
    own = dist[a, b] + dist[c, d]
    return (own < dist[a, c] + dist[b, d]) & (own < dist[a, d] + dist[b, c])


def _negated(holds):
    # xor with True rather than ~, which costs 20x more on a numpy bool scalar
    return lambda enc, *items: holds(enc, *items) ^ np.True_


_AB = (("a", "b"),)
_AB_CD = (("a", "b"), ("c", "d"))

CONSTRAINT_SPECS: dict[type, ConstraintSpec] = {
    Precedes: ConstraintSpec("prec", (), ((0, 1, 1.0), (1, 0, -1.0)), _before),
    Between: ConstraintSpec(
        "btw", (("a", "c"),), ((0, 2, 2.0), (0, 1, -1.0), (1, 2, -1.0)), _between
    ),
    NotBetween: ConstraintSpec(
        "nbtw", _AB, ((2, 0, 1.0), (2, 1, 1.0), (0, 1, -2.0)),
        _negated(lambda pos, a, b, out: _between(pos, a, out, b)),
    ),
    MustLink: ConstraintSpec("ml", _AB, ((0, 1, None),), _linked),
    CannotLink: ConstraintSpec("cl", _AB, ((0, 1, 1.0),), _negated(_linked)),
    DesiredTriplet: ConstraintSpec(
        "dt", _AB, ((0, 1, -2.0), (2, 0, 1.0), (2, 1, 1.0)), _resolved, desired=True
    ),
    ForbiddenTriplet: ConstraintSpec(
        "ft", _AB, ((0, 1, 2.0), (2, 0, -1.0), (2, 1, -1.0)), _negated(_resolved),
        desired=False,
    ),
    DesiredQuartet: ConstraintSpec(
        "dq", _AB_CD,
        ((0, 1, -2.0), (2, 3, -2.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)),
        _split, desired=True,
    ),
    ForbiddenQuartet: ConstraintSpec(
        "fq", _AB_CD,
        ((0, 1, 2.0), (2, 3, 2.0), (0, 2, -1.0), (0, 3, -1.0), (1, 2, -1.0), (1, 3, -1.0)),
        _negated(_split), desired=False,
    ),
    # reduction-side ranking constraints: no instance kind, file tag or graph
    FourSeparated: ConstraintSpec(None, _AB_CD, None, _apart),
    FourNonSeparated: ConstraintSpec(None, _AB_CD, None, _negated(_apart)),
}

# read on every construction, where a class attribute is faster than a table lookup
for _cls, _spec in CONSTRAINT_SPECS.items():
    _cls._pairs = _spec.pairs

Constraint = Union[
    Precedes,
    Between,
    NotBetween,
    MustLink,
    CannotLink,
    DesiredTriplet,
    ForbiddenTriplet,
    DesiredQuartet,
    ForbiddenQuartet,
    FourSeparated,
    FourNonSeparated,
]

# FourSeparated / FourNonSeparated are reduction-side ranking constraints and
# belong to no instance kind.
KIND_CONSTRAINTS: dict[str, tuple[type, ...]] = {
    "mas": (Precedes,),
    "btw": (Between,),
    "nonbtw": (NotBetween,),
    "cc": (MustLink, CannotLink),
    "triplets": (DesiredTriplet, ForbiddenTriplet),
    "quartets": (DesiredQuartet, ForbiddenQuartet),
}


@dataclass(frozen=True)
class Ranking:
    """A permutation of 0..n-1; order[0] is the first (earliest) item."""

    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def position(self) -> np.ndarray:
        pos = np.empty(len(self.order), dtype=np.int64)
        pos[np.asarray(self.order, dtype=np.int64)] = np.arange(len(self.order))
        return pos


@dataclass(frozen=True)
class Partition:
    """labels[i] is the cluster of item i; labels need not be consecutive."""

    labels: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def dense(cls, raw: Iterable[int]) -> Partition:
        """The partition of raw cluster ids, relabeled densely by first appearance."""
        seen: dict[int, int] = {}
        return cls(tuple(seen.setdefault(int(x), len(seen)) for x in raw))


@dataclass(frozen=True)
class RootedBinaryTree:
    """Flat arena: node i has parent[i] (-1 at the root), children left[i] and
    right[i] (-1 at leaves), and leaf_item[i] (-1 at internal nodes).

    There are 2n-1 nodes for n leaves and every internal node has exactly two
    ordered children; left/right order matters only to the projection maps.
    """

    parent: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    leaf_item: tuple[int, ...]
    root: int

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @cached_property
    def n_leaves(self) -> int:
        return sum(1 for x in self.leaf_item if x >= 0)

    @cached_property
    def leaf_of_item(self) -> tuple[int, ...]:
        out = [-1] * self.n_leaves
        for node, item in enumerate(self.leaf_item):
            if item >= 0:
                out[item] = node
        return tuple(out)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        d = [0] * self.node_count
        stack = [self.root]
        while stack:
            v = stack.pop()
            l, r = self.left[v], self.right[v]
            if l >= 0:
                d[l] = d[v] + 1
                d[r] = d[v] + 1
                stack.append(l)
                stack.append(r)
        return tuple(d)

    @cached_property
    def lca_depth(self) -> np.ndarray:
        """Depth of the lowest common ancestor of every two leaves, indexed
        by item id; ab|c holds iff lca_depth[a, b] > lca_depth[a, c]."""
        children = [(l, r) if l >= 0 else () for l, r in zip(self.left, self.right)]
        return _lca_depths(children, self.root, self.leaf_item)

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of two arena node indices."""
        d = self.depth
        while d[u] > d[v]:
            u = self.parent[u]
        while d[v] > d[u]:
            v = self.parent[v]
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def leaves_in_order(self) -> tuple[int, ...]:
        """Leaf items read left to right."""
        out = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            if self.leaf_item[v] >= 0:
                out.append(self.leaf_item[v])
            else:
                stack.append(self.right[v])
                stack.append(self.left[v])
        return tuple(out)


@dataclass(frozen=True)
class UnrootedTree:
    """Adjacency-list tree; leaves carry items, internal nodes have degree 3."""

    adjacency: tuple[tuple[int, ...], ...]
    leaf_item: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def n_leaves(self) -> int:
        return sum(1 for x in self.leaf_item if x >= 0)

    @cached_property
    def leaf_of_item(self) -> tuple[int, ...]:
        out = [-1] * self.n_leaves
        for node, item in enumerate(self.leaf_item):
            if item >= 0:
                out[item] = node
        return tuple(out)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    @cached_property
    def leaf_distances(self) -> np.ndarray:
        """Pairwise path lengths between leaves, indexed by item id."""
        lca_depth = _lca_depths(self.adjacency, 0, self.leaf_item)
        depth = np.diagonal(lca_depth)
        return depth[:, None] + depth[None, :] - 2 * lca_depth


def _lca_depths(
    neighbours: Sequence[Sequence[int]], root: int, leaf_item: Sequence[int]
) -> np.ndarray:
    """L[a, b] = depth of the lowest common ancestor of the nodes carrying
    items a and b once the tree hangs from root, each item's own depth on the
    diagonal; neighbours[v] lists v's children in order, and its parent too
    where the tree is unrooted.

    A depth-first walk meets the items in some order. The lowest common
    ancestor of two consecutive ones is the parent of the first node the walk
    enters after the earlier one, and that of any two is the shallowest of
    these turns between them."""
    depth = [-1] * len(neighbours)
    depth[root] = 0
    items, own, turns = [], [], []
    fresh = False
    stack = [root]
    while stack:
        v = stack.pop()
        d = depth[v]
        if fresh:
            turns.append(d - 1)
            fresh = False
        if leaf_item[v] >= 0:
            items.append(leaf_item[v])
            own.append(d)
            fresh = True
        for u in reversed(neighbours[v]):
            if depth[u] < 0:
                depth[u] = d + 1
                stack.append(u)
    n = len(items)
    k = np.arange(n)
    deeper = len(neighbours)  # exceeds every depth
    run = np.full((n, n), deeper, dtype=np.int64)
    # run[i, j] for i < j: the shallowest turn between the i-th and j-th item
    run[:-1, 1:] = np.minimum.accumulate(np.where(k[:-1, None] <= k[:-1], turns, deeper), axis=1)
    run = np.minimum(run, run.T)
    run.flat[:: n + 1] = own
    position = np.empty(n, dtype=np.int64)
    position[items] = k
    return run[position[:, None], position]


Solution = Union[Ranking, Partition, RootedBinaryTree, UnrootedTree]
GroundTruth = Solution

_ENCODINGS: dict[type, Callable[..., np.ndarray]] = {
    Ranking: lambda s: s.position,
    Partition: lambda s: np.asarray(s.labels, dtype=np.int64),
    RootedBinaryTree: lambda s: s.lca_depth,
    UnrootedTree: lambda s: s.leaf_distances,
}


def encode(s: Solution) -> np.ndarray:
    """The array every satisfaction predicate in CONSTRAINT_SPECS reads."""
    return _ENCODINGS[type(s)](s)


SOLUTION_TYPE: dict[str, type] = {
    "mas": Ranking,
    "btw": Ranking,
    "nonbtw": Ranking,
    "cc": Partition,
    "triplets": RootedBinaryTree,
    "quartets": UnrootedTree,
}


@dataclass(frozen=True)
class Instance:
    kind: str
    n: int
    constraints: tuple[Constraint, ...]
    ground_truth: Solution | None = None

    @cached_property
    def grouped(self) -> dict[type, tuple[np.ndarray, ...]]:
        return group(self.constraints)


def group(constraints: Iterable[Constraint]) -> dict[type, tuple[np.ndarray, ...]]:
    """Per class, the item columns of its constraints: one int array per
    position in items(), in the order the constraints come."""
    buckets: dict[type, list[tuple[int, ...]]] = {}
    for c in constraints:
        buckets.setdefault(type(c), []).append(c.items())
    return {
        cls: tuple(np.array(rows, dtype=np.int64).T.copy())
        for cls, rows in buckets.items()
    }


def forbidden_desired_counts(instance: Instance) -> tuple[int, int]:
    """(m1, m2) = (# forbidden, # desired) constraints of a tree-kind instance."""
    desired = [CONSTRAINT_SPECS[type(c)].desired for c in instance.constraints]
    return desired.count(False), desired.count(True)


# ---------------------------------------------------------------------------
# construction helpers


def rooted_from_nested(nested) -> RootedBinaryTree:
    """Build an arena tree from nested pairs; a leaf is an int item, an
    internal node is a 2-sequence (left, right)."""
    parent: list[int] = []
    left: list[int] = []
    right: list[int] = []
    leaf_item: list[int] = []

    def add(spec, par: int) -> int:
        idx = len(parent)
        parent.append(par)
        left.append(-1)
        right.append(-1)
        leaf_item.append(-1)
        if isinstance(spec, (int, np.integer)) and not isinstance(spec, bool):
            leaf_item[idx] = int(spec)
        else:
            l, r = spec
            left[idx] = add(l, idx)
            right[idx] = add(r, idx)
        return idx

    root = add(nested, -1)
    return RootedBinaryTree(
        parent=tuple(parent),
        left=tuple(left),
        right=tuple(right),
        leaf_item=tuple(leaf_item),
        root=root,
    )


def nested_from_rooted(t: RootedBinaryTree):
    """Inverse of rooted_from_nested (lists for internal nodes)."""

    def build(v: int):
        if t.leaf_item[v] >= 0:
            return t.leaf_item[v]
        return [build(t.left[v]), build(t.right[v])]

    return build(t.root)


def join_rooted(left_tree: RootedBinaryTree, right_tree: RootedBinaryTree) -> RootedBinaryTree:
    """New root whose left subtree is left_tree and right subtree is right_tree."""
    off = left_tree.node_count
    root = off + right_tree.node_count
    parent = list(left_tree.parent) + [p + off if p >= 0 else -1 for p in right_tree.parent]
    left = list(left_tree.left) + [x + off if x >= 0 else -1 for x in right_tree.left]
    right = list(left_tree.right) + [x + off if x >= 0 else -1 for x in right_tree.right]
    leaf_item = list(left_tree.leaf_item) + list(right_tree.leaf_item)
    parent[left_tree.root] = root
    parent[right_tree.root + off] = root
    parent.append(-1)
    left.append(left_tree.root)
    right.append(right_tree.root + off)
    leaf_item.append(-1)
    return RootedBinaryTree(
        parent=tuple(parent),
        left=tuple(left),
        right=tuple(right),
        leaf_item=tuple(leaf_item),
        root=root,
    )


# ---------------------------------------------------------------------------
# validation


def validate_ranking(r: Ranking, n: int) -> list[str]:
    if len(r.order) != n or sorted(r.order) != list(range(n)):
        return ["ranking is not a permutation of 0..n-1"]
    return []


def validate_partition(p: Partition, n: int) -> list[str]:
    out = []
    if len(p.labels) != n:
        out.append("partition has wrong item count")
    if p.labels and set(p.labels) != set(range(max(p.labels) + 1)):
        out.append("partition labels are not dense from 0")
    return out


def validate_rooted_tree(t: RootedBinaryTree, n: int) -> list[str]:
    out = []
    if n < 1:
        return ["rooted tree needs at least one item"]
    if t.node_count != 2 * n - 1:
        out.append("rooted tree node count is not 2n-1")
    nodes = range(t.node_count)
    if not (0 <= t.root < t.node_count) or t.parent[t.root] != -1:
        return out + ["rooted tree root is malformed"]
    leaves = [v for v in nodes if t.leaf_item[v] >= 0]
    internal = [v for v in nodes if t.leaf_item[v] < 0]
    if sorted(t.leaf_item[v] for v in leaves) != list(range(n)):
        out.append("rooted tree leaf items are not a bijection onto 0..n-1")
    for v in leaves:
        if t.left[v] != -1 or t.right[v] != -1:
            out.append("rooted tree leaf has children")
            break
    for v in internal:
        l, r = t.left[v], t.right[v]
        if not (0 <= l < t.node_count and 0 <= r < t.node_count) or l == r:
            out.append("rooted tree internal node lacks two children")
            break
        if t.parent[l] != v or t.parent[r] != v:
            out.append("rooted tree child/parent pointers disagree")
            break
    seen = set()
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v in seen:
            return out + ["rooted tree contains a cycle"]
        seen.add(v)
        if t.leaf_item[v] < 0 and 0 <= t.left[v] < t.node_count and 0 <= t.right[v] < t.node_count:
            stack.append(t.left[v])
            stack.append(t.right[v])
    if len(seen) != t.node_count:
        out.append("rooted tree is not connected")
    return out


def validate_unrooted_tree(t: UnrootedTree, n: int) -> list[str]:
    out = []
    if n < 1:
        return ["unrooted tree needs at least one item"]
    expected_nodes = 1 if n == 1 else 2 * n - 2
    if t.node_count != expected_nodes:
        out.append("unrooted tree node count is wrong for n leaves")
    if len(t.leaf_item) != t.node_count:
        return out + ["unrooted tree items and adjacency differ in length"]
    leaves = [v for v in range(t.node_count) if t.leaf_item[v] >= 0]
    if sorted(t.leaf_item[v] for v in leaves) != list(range(n)):
        out.append("unrooted tree leaf items are not a bijection onto 0..n-1")
    for u, nbrs in enumerate(t.adjacency):
        for v in nbrs:
            if not (0 <= v < t.node_count) or u not in t.adjacency[v]:
                return out + ["unrooted tree adjacency is not symmetric"]
        if len(set(nbrs)) != len(nbrs):
            return out + ["unrooted tree has a repeated edge"]
    if n >= 2:
        for v in range(t.node_count):
            deg = len(t.adjacency[v])
            if t.leaf_item[v] >= 0 and deg != 1:
                out.append("unrooted tree leaf degree is not 1")
                break
            if t.leaf_item[v] < 0 and deg != 3:
                out.append("unrooted tree internal degree is not 3")
                break
    edge_count = sum(len(nbrs) for nbrs in t.adjacency) // 2
    if edge_count != t.node_count - 1:
        out.append("unrooted tree edge count is not nodes-1")
    else:
        seen = {0} if t.node_count else set()
        q = deque([0]) if t.node_count else deque()
        while q:
            u = q.popleft()
            for v in t.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    q.append(v)
        if len(seen) != t.node_count:
            out.append("unrooted tree is not connected")
    return out


_GT_VALIDATORS = {
    Ranking: validate_ranking,
    Partition: validate_partition,
    RootedBinaryTree: validate_rooted_tree,
    UnrootedTree: validate_unrooted_tree,
}


def is_rate(x) -> bool:
    """An error rate is a finite number in [0, 1]; booleans do not count."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and 0.0 <= x <= 1.0


def validate(instance: Instance) -> list[str]:
    """Every invariant violation as a human-readable string; empty when valid."""
    out = []
    if instance.kind not in KINDS:
        out.append(f"unknown kind {instance.kind}")
        return out
    if instance.n < 0:
        out.append("n is negative")
    elif instance.n == 0 and instance.kind in TREE_KINDS:
        out.append("a tree needs at least one item")
    legal = KIND_CONSTRAINTS[instance.kind]
    for i, c in enumerate(instance.constraints):
        if not isinstance(c, legal):
            out.append(f"constraint {i} illegal for kind {instance.kind}")
            continue
        items = c.items()
        if len(set(items)) != len(items):
            out.append(f"duplicate item in constraint {i}")
        if any(not (0 <= x < instance.n) for x in items):
            out.append(f"item out of range in constraint {i}")
    gt = instance.ground_truth
    if gt is not None:
        expected = SOLUTION_TYPE[instance.kind]
        if not isinstance(gt, expected):
            out.append(f"ground truth does not match kind {instance.kind}")
        else:
            out.extend(_GT_VALIDATORS[expected](gt, instance.n))
    return out
