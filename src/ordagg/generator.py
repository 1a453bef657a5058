"""Planted-solution noisy constraint generator.

A hidden ground truth is sampled per kind, then m constraints are drawn by
picking the required number of distinct items uniformly with replacement
across constraints; each constraint is consistent with the ground truth with
probability 1 - eps and otherwise picks uniformly among the wrong
alternatives. Tree kinds draw m1 forbidden constraints first, then m2 desired
ones, with separate error rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluator import (
    _obeys_quartet,
    _obeys_triplet,
    random_ranking,
    random_rooted_tree,
    random_unrooted_tree,
)
from .model import (
    Between,
    CannotLink,
    Constraint,
    DesiredQuartet,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    Instance,
    KINDS,
    MustLink,
    NotBetween,
    Partition,
    Precedes,
    Ranking,
    RootedBinaryTree,
    Solution,
    TREE_KINDS,
    UnrootedTree,
)

MAX_RESAMPLES = 1000


@dataclass(frozen=True)
class GeneratorConfig:
    kind: str
    n: int
    m: int = 0
    m1: int = 0
    m2: int = 0
    eps: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0
    balanced: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("eps", "eps1", "eps2"):
            e = getattr(self, name)
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if min(self.m, self.m1, self.m2) < 0:
            raise ValueError("constraint counts must be non-negative")
        if self.kind in TREE_KINDS:
            if self.m:
                raise ValueError(f"kind {self.kind} takes m1/m2, not m")
        elif self.m1 or self.m2:
            raise ValueError(f"kind {self.kind} takes m, not m1/m2")
        if self.balanced and self.n < 3:
            raise ValueError("balanced sampling needs n >= 3")


def _relabel_dense(raw) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(int(x), len(seen)) for x in raw)


def _grouping_hits_balance(sizes: list[int], n: int) -> bool:
    """Can the clusters be grouped into two sides, both in [n/3, 2n/3]?"""
    lo = -(-n // 3)
    hi = (2 * n) // 3
    reachable = 1
    for s in sizes:
        reachable |= reachable << s
    return any((reachable >> t) & 1 for t in range(lo, hi + 1))


def _sample_partition(cfg: GeneratorConfig, rng: np.random.Generator) -> Partition:
    kmax = max(2, math.isqrt(cfg.n))
    for _ in range(MAX_RESAMPLES):
        k = int(rng.integers(2, kmax + 1))
        labels = _relabel_dense(rng.integers(0, k, size=cfg.n))
        if not cfg.balanced:
            return Partition(labels)
        sizes = [0] * (max(labels) + 1)
        for l in labels:
            sizes[l] += 1
        if 2 * max(sizes) <= cfg.n and _grouping_hits_balance(sizes, cfg.n):
            return Partition(labels)
    raise RuntimeError("balanced partition resampling exceeded the attempt cap")


def _left_leaf_count(t: RootedBinaryTree) -> int:
    count = 0
    stack = [t.left[t.root]]
    while stack:
        v = stack.pop()
        if t.leaf_item[v] >= 0:
            count += 1
        else:
            stack.append(t.left[v])
            stack.append(t.right[v])
    return count


def _sample_rooted(cfg: GeneratorConfig, rng: np.random.Generator) -> RootedBinaryTree:
    if not cfg.balanced:
        return random_rooted_tree(cfg.n, rng)
    lo = -(-cfg.n // 3)
    hi = (2 * cfg.n) // 3
    for _ in range(MAX_RESAMPLES):
        t = random_rooted_tree(cfg.n, rng)
        if lo <= _left_leaf_count(t) <= hi:
            return t
    raise RuntimeError("balanced rooted tree resampling exceeded the attempt cap")


def sample_ground_truth(cfg: GeneratorConfig, rng: np.random.Generator) -> Solution:
    if cfg.kind in ("mas", "btw", "nonbtw"):
        return random_ranking(cfg.n, rng)
    if cfg.kind == "cc":
        return _sample_partition(cfg, rng)
    if cfg.kind == "triplets":
        return _sample_rooted(cfg, rng)
    return random_unrooted_tree(cfg.n, rng)


def _distinct(rng: np.random.Generator, n: int, k: int) -> list[int]:
    if k > n:
        raise ValueError("item pool too small for the constraint arity")
    out: list[int] = []
    while len(out) < k:
        x = int(rng.integers(0, n))
        if x not in out:
            out.append(x)
    return out


def _gen_mas(gt: Ranking, m: int, eps: float, rng) -> list[Constraint]:
    pos = gt.position
    out = []
    for _ in range(m):
        a, b = _distinct(rng, gt.n, 2)
        if pos[a] > pos[b]:
            a, b = b, a
        if rng.random() < eps:
            a, b = b, a
        out.append(Precedes(a, b))
    return out


def _gen_btw(gt: Ranking, m: int, eps: float, rng) -> list[Constraint]:
    pos = gt.position
    out = []
    for _ in range(m):
        trip = _distinct(rng, gt.n, 3)
        trip.sort(key=lambda x: pos[x])
        e1, mid, e2 = trip
        if rng.random() < eps:
            wrong = (e1, e2)[int(rng.integers(0, 2))]
            rest = [x for x in trip if x != wrong]
            out.append(Between(rest[0], wrong, rest[1]))
        else:
            out.append(Between(e1, mid, e2))
    return out


def _gen_nonbtw(gt: Ranking, m: int, eps: float, rng) -> list[Constraint]:
    pos = gt.position
    out = []
    for _ in range(m):
        trip = _distinct(rng, gt.n, 3)
        trip.sort(key=lambda x: pos[x])
        e1, mid, e2 = trip
        if rng.random() < eps:
            out.append(NotBetween(e1, e2, mid))
        else:
            outside = (e1, e2)[int(rng.integers(0, 2))]
            rest = [x for x in trip if x != outside]
            out.append(NotBetween(rest[0], rest[1], outside))
    return out


def _gen_cc(gt: Partition, m: int, eps: float, rng) -> list[Constraint]:
    out = []
    for _ in range(m):
        a, b = _distinct(rng, gt.n, 2)
        same = gt.labels[a] == gt.labels[b]
        if rng.random() < eps:
            same = not same
        out.append(MustLink(a, b) if same else CannotLink(a, b))
    return out


def _triplet_resolutions(x: int, y: int, z: int):
    return (((x, y), z), ((x, z), y), ((y, z), x))


def _true_triplet(gt: RootedBinaryTree, x: int, y: int, z: int) -> int:
    if _obeys_triplet(gt, x, y, z):
        return 0
    if _obeys_triplet(gt, x, z, y):
        return 1
    return 2


def _quartet_resolutions(a: int, b: int, c: int, d: int):
    return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


def _true_quartet(gt: UnrootedTree, a: int, b: int, c: int, d: int) -> int:
    if _obeys_quartet(gt, a, b, c, d):
        return 0
    if _obeys_quartet(gt, a, c, b, d):
        return 1
    return 2


def _gen_trees(gt, n: int, m1: int, m2: int, eps1: float, eps2: float, rng, rooted: bool):
    out: list[Constraint] = []
    arity = 3 if rooted else 4
    for which, m, eps in (("forbidden", m1, eps1), ("desired", m2, eps2)):
        for _ in range(m):
            items = _distinct(rng, n, arity)
            if rooted:
                res = _triplet_resolutions(*items)
                true_idx = _true_triplet(gt, *items)
            else:
                res = _quartet_resolutions(*items)
                true_idx = _true_quartet(gt, *items)
            wrong = [i for i in range(3) if i != true_idx]
            erroneous = rng.random() < eps
            if which == "desired":
                idx = wrong[int(rng.integers(0, 2))] if erroneous else true_idx
            else:
                idx = true_idx if erroneous else wrong[int(rng.integers(0, 2))]
            if rooted:
                (a, b), c = res[idx]
                cls = DesiredTriplet if which == "desired" else ForbiddenTriplet
                out.append(cls(a, b, c))
            else:
                (a, b), (c, d) = res[idx]
                cls = DesiredQuartet if which == "desired" else ForbiddenQuartet
                out.append(cls(a, b, c, d))
    return out


def generate(cfg: GeneratorConfig, gt: Solution, rng: np.random.Generator) -> Instance:
    """Draw the noisy constraints of one instance against a fixed ground truth."""
    kind = cfg.kind
    if kind == "mas":
        cons = _gen_mas(gt, cfg.m, cfg.eps, rng)
    elif kind == "btw":
        cons = _gen_btw(gt, cfg.m, cfg.eps, rng)
    elif kind == "nonbtw":
        cons = _gen_nonbtw(gt, cfg.m, cfg.eps, rng)
    elif kind == "cc":
        cons = _gen_cc(gt, cfg.m, cfg.eps, rng)
    elif kind == "triplets":
        cons = _gen_trees(gt, cfg.n, cfg.m1, cfg.m2, cfg.eps1, cfg.eps2, rng, rooted=True)
    else:
        cons = _gen_trees(gt, cfg.n, cfg.m1, cfg.m2, cfg.eps1, cfg.eps2, rng, rooted=False)
    return Instance(kind=kind, n=cfg.n, constraints=tuple(cons), ground_truth=gt)


def make_instance(cfg: GeneratorConfig) -> Instance:
    """Ground truth and constraints from one seeded stream."""
    rng = np.random.default_rng(cfg.seed)
    gt = sample_ground_truth(cfg, rng)
    return generate(cfg, gt, rng)
