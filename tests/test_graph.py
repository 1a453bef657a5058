from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordagg.generator import GeneratorConfig, make_instance
from ordagg.graph import (
    CutStatus,
    build,
    check_weight_identity,
    classify,
    cut_weight,
)
from ordagg.model import (
    CONSTRAINT_SPECS,
    KIND_CONSTRAINTS,
    KINDS,
    TREE_KINDS,
    Between,
    CannotLink,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    FourSeparated,
    Instance,
    MustLink,
    NotBetween,
    Precedes,
)


def _edges(g):
    """The graph's edges as a {(u, v): weight} dict."""
    return dict(zip(zip(g.u.tolist(), g.v.tolist()), g.weights.tolist()))


def _reference_edges(instance, cc_mustlink_weight=-1.0):
    """build's result by a loop over the constraints in file order."""
    acc = {}
    for c in instance.constraints:
        items = c.items()
        for i, j, w in CONSTRAINT_SPECS[type(c)].pattern:
            u, v = items[i], items[j]
            key = (u, v) if instance.kind == "mas" or u < v else (v, u)
            acc[key] = acc.get(key, 0.0) + (cc_mustlink_weight if w is None else w)
    return {k: w for k, w in acc.items() if w != 0.0}


def test_precedes_builds_antisymmetric_arcs():
    inst = Instance(kind="mas", n=2, constraints=(Precedes(0, 1),))
    g = build(inst)
    assert g.directed
    assert _edges(g) == {(0, 1): 1.0, (1, 0): -1.0}
    assert g.w_minus == 1.0


def test_between_pattern():
    inst = Instance(kind="btw", n=3, constraints=(Between(0, 1, 2),))
    g = build(inst)
    assert not g.directed
    assert _edges(g) == {(0, 2): 2.0, (0, 1): -1.0, (1, 2): -1.0}
    assert g.w_minus == 2.0


def test_notbetween_pattern():
    inst = Instance(kind="nonbtw", n=3, constraints=(NotBetween(0, 1, 2),))
    g = build(inst)
    assert _edges(g) == {(0, 2): 1.0, (1, 2): 1.0, (0, 1): -2.0}


def test_cc_patterns_and_weight_option():
    inst = Instance(kind="cc", n=2, constraints=(CannotLink(0, 1), MustLink(0, 1)))
    assert _edges(build(inst)) == {}  # +1 and -1 cancel exactly
    g = build(inst, cc_mustlink_weight=-3.2735)
    assert _edges(g) == {(0, 1): 1.0 - 3.2735}
    assert g.w_minus == pytest.approx(2.2735)


def test_forbidden_quartet_cut_values():
    inst = Instance(kind="quartets", n=4, constraints=(ForbiddenQuartet(0, 1, 2, 3),))
    g = build(inst)
    assert g.w_minus == 4.0
    assert cut_weight(g, {0, 1}) == -4.0
    assert cut_weight(g, {0, 2}) == 2.0
    assert cut_weight(g, {0}) == 0.0
    assert cut_weight(g, set()) == 0.0


def test_triplet_patterns_are_opposite():
    forb = Instance(kind="triplets", n=3, constraints=(ForbiddenTriplet(0, 1, 2),))
    des = Instance(kind="triplets", n=3, constraints=(DesiredTriplet(0, 1, 2),))
    gf, gd = build(forb), build(des)
    assert _edges(gf) == {k: -w for k, w in _edges(gd).items()}


def test_parallel_contributions_aggregate():
    inst = Instance(kind="mas", n=2, constraints=(Precedes(0, 1), Precedes(0, 1), Precedes(1, 0)))
    g = build(inst)
    assert _edges(g) == {(0, 1): 1.0, (1, 0): -1.0}


def test_directed_cut_counts_leaving_arcs_only():
    inst = Instance(kind="mas", n=3, constraints=(Precedes(0, 1), Precedes(1, 2)))
    g = build(inst)
    assert cut_weight(g, {0}) == 1.0
    assert cut_weight(g, {1}) == 0.0  # +1 out, -1 out
    assert cut_weight(g, {0, 1}) == 1.0
    assert cut_weight(g, {2}) == -1.0


def test_classify_mas():
    c = Precedes(0, 1)
    assert classify(c, {0}) is CutStatus.SATISFIED
    assert classify(c, {1}) is CutStatus.VIOLATED
    assert classify(c, {0, 1}) is CutStatus.UNAFFECTED
    assert classify(c, set()) is CutStatus.UNAFFECTED


def test_classify_btw():
    c = Between(0, 1, 2)
    assert classify(c, {1}) is CutStatus.VIOLATED
    assert classify(c, {0}) is CutStatus.POSTPONED
    assert classify(c, {0, 1}) is CutStatus.POSTPONED
    assert classify(c, {0, 1, 2}) is CutStatus.UNAFFECTED


def test_classify_nonbtw():
    c = NotBetween(0, 1, 2)
    assert classify(c, {2}) is CutStatus.SATISFIED
    assert classify(c, {0}) is CutStatus.POSTPONED
    assert classify(c, set()) is CutStatus.UNAFFECTED


def test_classify_links():
    assert classify(CannotLink(0, 1), {0}) is CutStatus.SATISFIED
    assert classify(MustLink(0, 1), {0}) is CutStatus.VIOLATED
    assert classify(MustLink(0, 1), {0, 1}) is CutStatus.UNAFFECTED


def test_classify_triplet():
    c = ForbiddenTriplet(0, 1, 2)
    assert classify(c, {2}) is CutStatus.OBEYED
    assert classify(c, {0, 1}) is CutStatus.OBEYED
    assert classify(c, {0}) is CutStatus.DISOBEYED
    assert classify(c, {1, 2}) is CutStatus.DISOBEYED
    assert classify(c, set()) is CutStatus.UNAFFECTED


def test_classify_quartet():
    c = ForbiddenQuartet(0, 1, 2, 3)
    assert classify(c, {0, 1}) is CutStatus.OBEYED
    assert classify(c, {2, 3}) is CutStatus.OBEYED
    assert classify(c, {0, 2}) is CutStatus.DISOBEYED
    assert classify(c, {0}) is CutStatus.POSTPONED
    assert classify(c, {0, 1, 2}) is CutStatus.POSTPONED
    assert classify(c, {0, 1, 2, 3}) is CutStatus.UNAFFECTED


@pytest.mark.parametrize("kind", ["mas", "btw", "nonbtw", "cc", "triplets", "quartets"])
def test_weight_identity_random_cuts(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for trial in range(100):
        if kind in ("triplets", "quartets"):
            cfg = GeneratorConfig(kind=kind, n=9, m1=8, m2=8, eps1=0.4, eps2=0.4, seed=trial)
        else:
            cfg = GeneratorConfig(kind=kind, n=9, m=16, eps=0.4, seed=trial)
        inst = make_instance(cfg)
        size = int(rng.integers(0, 10))
        S = {int(x) for x in rng.choice(9, size=size, replace=False)}
        lhs, rhs = check_weight_identity(inst, S)
        assert lhs == rhs


def test_weight_identity_cc_heavy_mustlink():
    rng = np.random.default_rng(3)
    for trial in range(50):
        inst = make_instance(GeneratorConfig(kind="cc", n=8, m=14, eps=0.5, seed=trial))
        S = {int(x) for x in rng.choice(8, size=4, replace=False)}
        lhs, rhs = check_weight_identity(inst, S, cc_mustlink_weight=-3.2735)
        assert lhs == pytest.approx(rhs, abs=1e-9)


@st.composite
def _small_instances(draw):
    """Up to 12 constraints of one kind on 6 items, repeats allowed."""
    kind = draw(st.sampled_from(KINDS))
    drawn = draw(st.lists(st.tuples(st.sampled_from(KIND_CONSTRAINTS[kind]),
                                    st.permutations(range(6))), min_size=1, max_size=12))
    cons = tuple(cls(*items[:len(fields(cls))]) for cls, items in drawn)
    return Instance(kind=kind, n=6, constraints=cons)


@settings(max_examples=100, deadline=None)
@given(_small_instances())
def test_build_is_additive_over_constraints(inst):
    # a cc must-link weight that is not an integer sums parallel edges in
    # another order across classes, hence the tolerance
    for w, tol in ((-1.0, 0.0), (-3.2735, 1e-9)) if inst.kind == "cc" else ((-1.0, 0.0),):
        whole = _edges(build(inst, cc_mustlink_weight=w))
        merged: dict = {}
        for c in inst.constraints:
            part = build(Instance(kind=inst.kind, n=6, constraints=(c,)), cc_mustlink_weight=w)
            for k, x in _edges(part).items():
                merged[k] = merged.get(k, 0.0) + x
        merged = {k: x for k, x in merged.items() if x != 0.0}
        assert whole.keys() == merged.keys()
        for k, x in whole.items():
            assert abs(x - merged[k]) <= tol


def test_signed_graph_invariants():
    for kind in KINDS:
        for seed in range(3):
            if kind in TREE_KINDS:
                cfg = GeneratorConfig(kind=kind, n=12, m1=40, m2=40, eps1=0.3, eps2=0.3, seed=seed)
            else:
                cfg = GeneratorConfig(kind=kind, n=12, m=80, eps=0.3, seed=seed)
            inst = make_instance(cfg)
            g = build(inst)
            du, dv = np.diff(g.u), np.diff(g.v)
            assert np.all((du > 0) | (du == 0) & (dv > 0))  # (u, v) strictly increasing
            assert g.directed or np.all(g.u < g.v)
            assert np.all(g.weights != 0.0)
            ref = _reference_edges(inst)
            assert len(g.weights) == len(g.u) == len(g.v) == len(ref)
            assert _edges(g) == ref
    for inst in (Instance(kind="mas", n=0, constraints=()),
                 Instance(kind="btw", n=5, constraints=())):
        g = build(inst)
        assert (g.u.dtype, g.v.dtype, g.weights.dtype) == (np.int64, np.int64, np.float64)
        assert len(g.u) == len(g.v) == len(g.weights) == 0
    with pytest.raises(TypeError, match="FourSeparated"):
        build(Instance(kind="btw", n=4, constraints=(FourSeparated(0, 1, 2, 3),)))
