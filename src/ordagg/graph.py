"""Signed constraint graphs and cut bookkeeping.

Each constraint contributes the fixed pattern of positive and negative edge
weights named by its class's row in model.CONSTRAINT_SPECS; parallel
contributions aggregate by summation and exact zeros are dropped. Precedence
instances build a directed graph (a cut counts only arcs leaving S),
everything else an undirected one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

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
    MustLink,
    NotBetween,
    Precedes,
)


class CutStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    OBEYED = "obeyed"
    DISOBEYED = "disobeyed"
    POSTPONED = "postponed"
    UNAFFECTED = "unaffected"


@dataclass(frozen=True)
class SignedGraph:
    n: int
    directed: bool
    weights: dict[tuple[int, int], float]
    w_minus: float

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.weights:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=float)
        keys = sorted(self.weights)
        u = np.array([k[0] for k in keys], dtype=np.int64)
        v = np.array([k[1] for k in keys], dtype=np.int64)
        w = np.array([self.weights[k] for k in keys], dtype=float)
        return u, v, w


def build(instance: Instance, cc_mustlink_weight: float = -1.0) -> SignedGraph:
    directed = instance.kind == "mas"
    patterns = {
        cls: tuple((i, j, cc_mustlink_weight if w is None else w) for i, j, w in spec.pattern)
        for cls, spec in CONSTRAINT_SPECS.items()
        if spec.pattern is not None
    }
    acc: dict[tuple[int, int], float] = {}
    for c in instance.constraints:
        try:
            pattern = patterns[type(c)]
        except KeyError:
            raise TypeError(f"no edge pattern for {type(c).__name__}") from None
        items = c.items()
        for i, j, w in pattern:
            u, v = items[i], items[j]
            key = (u, v) if directed or u < v else (v, u)
            acc[key] = acc.get(key, 0.0) + w

    weights = {k: w for k, w in acc.items() if w != 0.0}
    w_minus = float(sum(-w for w in weights.values() if w < 0.0))
    return SignedGraph(n=instance.n, directed=directed, weights=weights, w_minus=w_minus)


def cut_weight(g: SignedGraph, S) -> float:
    u, v, w = g.edge_arrays
    if w.size == 0:
        return 0.0
    member = np.zeros(g.n, dtype=bool)
    member[list(S)] = True
    if g.directed:
        mask = member[u] & ~member[v]
    else:
        mask = member[u] != member[v]
    return float(w[mask].sum())


def classify(c: Constraint, S) -> CutStatus:
    """Status of one constraint under the cut S / complement."""
    if isinstance(c, Precedes):
        a_in, b_in = c.a in S, c.b in S
        if a_in and not b_in:
            return CutStatus.SATISFIED
        if b_in and not a_in:
            return CutStatus.VIOLATED
        return CutStatus.UNAFFECTED
    if isinstance(c, (MustLink, CannotLink)):
        split = (c.a in S) != (c.b in S)
        if not split:
            return CutStatus.UNAFFECTED
        return CutStatus.SATISFIED if isinstance(c, CannotLink) else CutStatus.VIOLATED
    if isinstance(c, Between):
        a_in, b_in, c_in = c.a in S, c.b in S, c.c in S
        if a_in != c_in:
            return CutStatus.POSTPONED
        return CutStatus.VIOLATED if b_in != a_in else CutStatus.UNAFFECTED
    if isinstance(c, NotBetween):
        a_in, b_in, o_in = c.a in S, c.b in S, c.out in S
        if a_in != b_in:
            return CutStatus.POSTPONED
        return CutStatus.SATISFIED if o_in != a_in else CutStatus.UNAFFECTED
    if isinstance(c, (DesiredTriplet, ForbiddenTriplet)):
        a_in, b_in, o_in = c.a in S, c.b in S, c.out in S
        if a_in != b_in:
            return CutStatus.DISOBEYED
        return CutStatus.OBEYED if o_in != a_in else CutStatus.UNAFFECTED
    if isinstance(c, (DesiredQuartet, ForbiddenQuartet)):
        ins = (c.a in S, c.b in S, c.c in S, c.d in S)
        k = sum(ins)
        if k in (0, 4):
            return CutStatus.UNAFFECTED
        if k in (1, 3):
            return CutStatus.POSTPONED
        return CutStatus.OBEYED if ins[0] == ins[1] else CutStatus.DISOBEYED
    raise TypeError(f"no cut status for {type(c).__name__}")


# The cut weight one constraint contributes, by class and cut status, where
# None stands for the cc must-link weight; every other status contributes 0.
_STATUS_WEIGHTS: dict[type, dict[CutStatus, float | None]] = {
    Precedes: {CutStatus.SATISFIED: 1.0, CutStatus.VIOLATED: -1.0},
    Between: {CutStatus.POSTPONED: 1.0, CutStatus.VIOLATED: -2.0},
    NotBetween: {CutStatus.SATISFIED: 2.0, CutStatus.POSTPONED: -1.0},
    MustLink: {CutStatus.VIOLATED: None},
    CannotLink: {CutStatus.SATISFIED: 1.0},
    DesiredTriplet: {CutStatus.OBEYED: 2.0, CutStatus.DISOBEYED: -1.0},
    ForbiddenTriplet: {CutStatus.OBEYED: -2.0, CutStatus.DISOBEYED: 1.0},
    DesiredQuartet: {CutStatus.OBEYED: 4.0, CutStatus.DISOBEYED: -2.0},
    ForbiddenQuartet: {CutStatus.OBEYED: -4.0, CutStatus.DISOBEYED: 2.0},
}


def check_weight_identity(instance: Instance, S, cc_mustlink_weight: float = -1.0):
    """Cut weight vs its closed form in constraint statuses; returns (lhs, rhs)."""
    g = build(instance, cc_mustlink_weight=cc_mustlink_weight)
    lhs = cut_weight(g, S)
    rhs = 0.0
    for c in instance.constraints:
        w = _STATUS_WEIGHTS[type(c)].get(classify(c, S), 0.0)
        rhs += cc_mustlink_weight if w is None else w
    return lhs, rhs
