"""Signed constraint graphs and cut bookkeeping.

Each constraint contributes the fixed pattern of positive and negative edge
weights named by its class's row in model.CONSTRAINT_SPECS. build reads the
pattern positions out of each class's item columns (Instance.grouped), sums
parallel contributions with one np.unique over the edge keys and one
np.bincount, and drops exact zeros; the graph is those edges as arrays sorted
by (u, v). Precedence instances build a directed graph (a cut counts only arcs
leaving S), everything else an undirected one, whose edges have u < v.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Edges as parallel arrays sorted by (u, v): edge k runs from u[k] to
    v[k] with weight weights[k] != 0, and an undirected edge has u < v."""

    n: int
    directed: bool
    u: np.ndarray
    v: np.ndarray
    weights: np.ndarray

    @property
    def w_minus(self) -> float:
        """Total weight of the negative edges, as a positive number."""
        return float(np.sum(-self.weights[self.weights < 0.0]))


def build(instance: Instance, cc_mustlink_weight: float = -1.0) -> SignedGraph:
    n = instance.n
    directed = instance.kind == "mas"
    no_edges = np.empty(0, dtype=np.int64)
    parts = [(no_edges, no_edges, np.empty(0, dtype=float))]
    for cls, columns in instance.grouped.items():
        pattern = CONSTRAINT_SPECS[cls].pattern
        if pattern is None:
            raise TypeError(f"no edge pattern for {cls.__name__}")
        i, j, w = zip(*pattern)
        w = np.array([cc_mustlink_weight if x is None else x for x in w], dtype=float)
        # constraint-major, so that bincount sums a key's contributions from
        # one class in constraint order
        items = np.stack(columns, axis=1)
        parts.append((items[:, i].ravel(), items[:, j].ravel(), np.tile(w, len(items))))
    u, v, w = (np.concatenate(column) for column in zip(*parts))
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    keys, inverse = np.unique(u * n + v, return_inverse=True)
    # astype: bincount returns int64 when it has nothing to count
    weights = np.bincount(inverse, weights=w, minlength=len(keys)).astype(float, copy=False)
    keep = weights != 0.0
    u, v = np.divmod(keys[keep], n)
    return SignedGraph(n, directed, u, v, weights[keep])


def cut_weight(g: SignedGraph, S) -> float:
    if g.weights.size == 0:
        return 0.0
    member = np.zeros(g.n, dtype=bool)
    member[list(S)] = True
    if g.directed:
        mask = member[g.u] & ~member[g.v]
    else:
        mask = member[g.u] != member[g.v]
    return float(g.weights[mask].sum())


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
