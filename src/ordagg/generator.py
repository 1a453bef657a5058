"""Planted-solution noisy constraint generator.

A hidden ground truth is sampled per kind. Then one loop draws every
constraint: the family's number of distinct items, picked uniformly (with
replacement across constraints), and one random() that makes the constraint
correct with probability 1 - eps. _FAMILIES lists, per kind, the candidate
constraints on a drawn item set. A correct constraint keeps one of the
candidates that hold on the truth, a wrong one one of those that fail, chosen
uniformly by one more draw where there is a choice. Whether a candidate holds
is read from its class's predicate in CONSTRAINT_SPECS. Tree kinds draw m1
forbidden constraints first, then m2 desired ones, with separate error rates.
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
        p = Partition.dense(rng.integers(0, k, size=cfg.n))
        if not cfg.balanced:
            return p
        sizes = [0] * (max(p.labels) + 1)
        for l in p.labels:
            sizes[l] += 1
        if 2 * max(sizes) <= cfg.n and _grouping_hits_balance(sizes, cfg.n):
            return p
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


# Per kind, its families in draw order (tree kinds: forbidden, then desired).
# A family lists the candidate constraints on a drawn item set, each as
# (class, order of the drawn items), and how many of them hold on the truth.
_FAMILIES: dict[str, tuple] = {
    "mas": ((((Precedes, (0, 1)), (Precedes, (1, 0))), 1),),
    "cc": ((((MustLink, (0, 1)), (CannotLink, (0, 1))), 1),),
    # each drawn item as the middle
    "btw": ((((Between, (1, 0, 2)), (Between, (0, 1, 2)), (Between, (0, 2, 1))), 1),),
    # each drawn item as out
    "nonbtw": ((((NotBetween, (1, 2, 0)), (NotBetween, (0, 2, 1)), (NotBetween, (0, 1, 2))), 2),),
    # the resolutions xy|z, xz|y, yz|x of a drawn triple
    "triplets": tuple(
        (tuple((cls, order) for order in ((0, 1, 2), (0, 2, 1), (1, 2, 0))), holding)
        for cls, holding in ((ForbiddenTriplet, 2), (DesiredTriplet, 1))
    ),
    # the resolutions ab|cd, ac|bd, ad|bc of a drawn quartet
    "quartets": tuple(
        (tuple((cls, order) for order in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))), holding)
        for cls, holding in ((ForbiddenQuartet, 2), (DesiredQuartet, 1))
    ),
}


def _draw(family, gt: Solution, n: int, m: int, eps: float, rng) -> list[Constraint]:
    """m constraints of one family. Each draws its items, then one random() that
    makes it correct when >= eps, then, where its side (the candidates that hold
    for a correct draw, those that fail for a wrong one) has more than one
    member, which of them to keep. No draw reads the truth, so the predicates
    run once per candidate after the draws."""
    candidates, holding = family
    k = len(candidates[0][1])
    sides = (len(candidates) - holding, holding)
    drawn, correct, pick = [], [], []
    for _ in range(m):
        drawn += _distinct(rng, n, k)
        ok = rng.random() >= eps
        correct.append(ok)
        pick.append(int(rng.integers(0, sides[ok])) if sides[ok] > 1 else 0)
    sets = np.array(drawn, dtype=np.int64).reshape(m, k)
    if isinstance(gt, Ranking):
        # sorted by truth position, so that the pick numbers the wrong middle
        # (btw) and the outside item (nonbtw) from the truth's first end, the
        # order test_fixed_seed_instances_are_pinned holds the streams to
        sets = np.take_along_axis(sets, np.argsort(gt.position[sets], axis=1), axis=1)
    enc = encode(gt)
    holds = np.stack(
        [CONSTRAINT_SPECS[cls].holds(enc, *sets[:, order].T) for cls, order in candidates], axis=1
    )
    # keep the pick-th candidate on the drawn side, in table order
    eligible = holds == np.array(correct, dtype=bool)[:, None]
    chosen = eligible & (np.cumsum(eligible, axis=1) == np.array(pick)[:, None] + 1)
    idx = np.argmax(chosen, axis=1)
    orders = np.array([order for _, order in candidates])
    items = sets[np.arange(m)[:, None], orders[idx]].tolist()
    return [candidates[j][0](*it) for j, it in zip(idx.tolist(), items)]


def generate(cfg: GeneratorConfig, gt: Solution, rng: np.random.Generator) -> Instance:
    """Draw the noisy constraints of one instance against a fixed ground truth."""
    if cfg.kind in TREE_KINDS:
        counts = ((cfg.m1, cfg.eps1), (cfg.m2, cfg.eps2))
    else:
        counts = ((cfg.m, cfg.eps),)
    cons: list[Constraint] = []
    for family, (m, eps) in zip(_FAMILIES[cfg.kind], counts):
        cons += _draw(family, gt, cfg.n, m, eps, rng)
    return Instance(kind=cfg.kind, n=cfg.n, constraints=tuple(cons), ground_truth=gt)


def make_instance(cfg: GeneratorConfig) -> Instance:
    """Ground truth and constraints from one seeded stream."""
    rng = np.random.default_rng(cfg.seed)
    gt = sample_ground_truth(cfg, rng)
    return generate(cfg, gt, rng)
