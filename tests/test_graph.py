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
    Between,
    CannotLink,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    Instance,
    MustLink,
    NotBetween,
    Precedes,
)


def test_precedes_builds_antisymmetric_arcs():
    inst = Instance(kind="mas", n=2, constraints=(Precedes(0, 1),))
    g = build(inst)
    assert g.directed
    assert g.weights == {(0, 1): 1.0, (1, 0): -1.0}
    assert g.w_minus == 1.0


def test_between_pattern():
    inst = Instance(kind="btw", n=3, constraints=(Between(0, 1, 2),))
    g = build(inst)
    assert not g.directed
    assert g.weights == {(0, 2): 2.0, (0, 1): -1.0, (1, 2): -1.0}
    assert g.w_minus == 2.0


def test_notbetween_pattern():
    inst = Instance(kind="nonbtw", n=3, constraints=(NotBetween(0, 1, 2),))
    g = build(inst)
    assert g.weights == {(0, 2): 1.0, (1, 2): 1.0, (0, 1): -2.0}


def test_cc_patterns_and_weight_option():
    inst = Instance(kind="cc", n=2, constraints=(CannotLink(0, 1), MustLink(0, 1)))
    assert build(inst).weights == {}  # +1 and -1 cancel exactly
    g = build(inst, cc_mustlink_weight=-3.2735)
    assert g.weights == {(0, 1): 1.0 - 3.2735}
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
    assert gf.weights == {k: -w for k, w in gd.weights.items()}


def test_parallel_contributions_aggregate():
    inst = Instance(kind="mas", n=2, constraints=(Precedes(0, 1), Precedes(0, 1), Precedes(1, 0)))
    g = build(inst)
    assert g.weights == {(0, 1): 1.0, (1, 0): -1.0}


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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12))
def test_build_is_additive_over_constraints(pairs):
    cons = tuple(Precedes(a, b) for a, b in pairs if a != b)
    if not cons:
        return
    whole = build(Instance(kind="mas", n=6, constraints=cons))
    merged: dict = {}
    for c in cons:
        part = build(Instance(kind="mas", n=6, constraints=(c,)))
        for k, w in part.weights.items():
            merged[k] = merged.get(k, 0.0) + w
    merged = {k: w for k, w in merged.items() if w != 0.0}
    assert whole.weights == merged
