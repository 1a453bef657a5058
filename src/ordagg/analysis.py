"""Closed-form guarantee values and balanced-structure helpers."""

from __future__ import annotations

import math

from .model import Ranking, UnrootedTree

# per-kind (base, slope): guaranteed fraction is base - slope * eps
_SINGLE_RATE_BOUNDS = {
    "mas": (0.642, 0.4285),
    "btw": (0.402, 0.329),
    "nonbtw": (0.845, 0.329),
    "cc": (0.8226, 0.775),
}

_TRIPLET_FORBIDDEN = (2.0 / 3.0 + 0.11378, 0.5853)
_TRIPLET_DESIRED = (1.0 / 3.0 + 0.30886, 0.5853)
_QUARTET_FORBIDDEN = (0.425, 0.261)
_QUARTET_DESIRED = (0.672, 0.296)


def _check_eps(e: float) -> float:
    if not 0.0 <= e <= 1.0:
        raise ValueError("error rate must lie in [0, 1]")
    return float(e)


def theoretical_bound(kind: str, eps, m) -> float:
    """Expected satisfied-count guarantee for a noisy planted instance.

    Ranking and clustering kinds take scalar eps and m; the tree kinds take
    (eps1, eps2) and (m1, m2) with the forbidden class first.
    """
    if kind in _SINGLE_RATE_BOUNDS:
        base, slope = _SINGLE_RATE_BOUNDS[kind]
        return (base - slope * _check_eps(eps)) * float(m)
    if kind == "triplets":
        pairs = (_TRIPLET_FORBIDDEN, _TRIPLET_DESIRED)
    elif kind == "quartets":
        pairs = (_QUARTET_FORBIDDEN, _QUARTET_DESIRED)
    else:
        raise ValueError(f"unknown kind {kind}")
    e1, e2 = eps
    m1, m2 = m
    (b1, s1), (b2, s2) = pairs
    return (b1 - s1 * _check_eps(e1)) * float(m1) + (b2 - s2 * _check_eps(e2)) * float(m2)


def expected_cut_fraction(profile: str, c: float) -> float:
    """Chance a uniform within-side fill settles a constraint, for a cut that
    crosses each pair with probability c ~ balanced in [1/3, 2/3]."""
    if not (1.0 / 3.0 - 1e-12 <= c <= 2.0 / 3.0 + 1e-12):
        raise ValueError("crossing probability must lie in [1/3, 2/3]")
    if profile == "pairs":
        return 2.0 * c * (1.0 - c)
    if profile == "triples":
        return 3.0 * c * (1.0 - c)
    if profile == "quartet-split":
        return 6.0 * c * c * (1.0 - c) * (1.0 - c)
    raise ValueError(f"unknown profile {profile}")


def median_cut(gt: Ranking) -> frozenset[int]:
    """First ceil(n/2) items of the ground-truth order."""
    half = -(-gt.n // 2)
    return frozenset(int(x) for x in gt.order[:half])


def balanced_edge(t: UnrootedTree) -> tuple[int, int]:
    """An edge splitting the leaves into two parts of size within [n/3, 2n/3].

    Every trivalent tree has one; the first qualifying edge in sorted order is
    returned.
    """
    n = t.n_leaves
    lo = -(-n // 3)
    for u, v in sorted(t.edges()):
        k = len(edge_side_items(t, (u, v)))
        if lo <= k <= n - lo:
            return (u, v)
    raise AssertionError("no balanced edge found in a trivalent tree")


def edge_side_items(t: UnrootedTree, edge: tuple[int, int]) -> frozenset[int]:
    """Items on the first endpoint's side of the edge."""
    keep, drop = edge
    items: list[int] = []
    stack = [(keep, drop)]
    while stack:
        x, parent = stack.pop()
        if t.leaf_item[x] >= 0:
            items.append(t.leaf_item[x])
        for nb in t.adjacency[x]:
            if nb != parent:
                stack.append((nb, x))
    return frozenset(items)
