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

from .evaluator import random_ranking, random_rooted_tree, random_unrooted_tree
from .model import (
    CONSTRAINT_SPECS,
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
    encode,
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


# The three resolutions of a drawn triple xyz (xy|z, xz|y, yz|x) and of a
# drawn quartet abcd (ab|cd, ac|bd, ad|bc), as orders of the drawn items.
_TRIPLET_RESOLUTIONS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
_QUARTET_RESOLUTIONS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))


def _gen_trees(gt, n: int, m1: int, m2: int, eps1: float, eps2: float, rng, rooted: bool):
    """m1 forbidden, then m2 desired constraints. No draw depends on the
    tree, so the true resolution of every drawn item set is read off it in one
    predicate call after the draws."""
    if rooted:
        resolutions, classes = _TRIPLET_RESOLUTIONS, (ForbiddenTriplet, DesiredTriplet)
    else:
        resolutions, classes = _QUARTET_RESOLUTIONS, (ForbiddenQuartet, DesiredQuartet)
    drawn = np.empty((m1 + m2, len(resolutions[0])), dtype=np.int64)
    pick = np.full(m1 + m2, -1)
    for i in range(m1 + m2):
        desired = i >= m1
        drawn[i] = _distinct(rng, n, drawn.shape[1])
        # a correct forbidden or an erroneous desired constraint names one of
        # the two wrong resolutions
        if (rng.random() < (eps2 if desired else eps1)) == desired:
            pick[i] = rng.integers(0, 2)
    sets = drawn[:, resolutions]
    # the desired class's predicate holds for exactly one resolution of each set
    holds = CONSTRAINT_SPECS[classes[1]].holds(encode(gt), *np.moveaxis(sets, -1, 0))
    true = np.argmax(holds, axis=1)
    # pick numbers the two wrong resolutions in order, skipping the true one
    idx = np.where(pick < 0, true, pick + (pick >= true))
    columns = sets[np.arange(m1 + m2), idx].T.tolist()
    return [classes[i >= m1](*items) for i, items in enumerate(zip(*columns))]


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
