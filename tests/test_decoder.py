import logging

import numpy as np
import pytest

from ordagg.decoder import (
    DecodeConfig,
    decode,
    decode_partition,
    decode_ranking,
    decode_rooted_tree,
    decode_unrooted_tree,
)
from ordagg.evaluator import count_satisfied, score
from ordagg.generator import GeneratorConfig, make_instance
from ordagg.graph import CutStatus, build, classify, cut_weight
from ordagg.model import (
    CannotLink,
    DesiredQuartet,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    Instance,
    MustLink,
    Precedes,
    validate_partition,
    validate_ranking,
    validate_rooted_tree,
    validate_unrooted_tree,
)
from ordagg.solver import CutResult, SolverConfig, solve


def _cut(S, n):
    return CutResult(frozenset(S), 0.0, 0.0, 1, 1)


def _mk(kind, n, m, eps=0.3, seed=0):
    if kind in ("triplets", "quartets"):
        cfg = GeneratorConfig(kind=kind, n=n, m1=m // 2, m2=m - m // 2,
                              eps1=eps, eps2=eps, seed=seed)
    else:
        cfg = GeneratorConfig(kind=kind, n=n, m=m, eps=eps, seed=seed)
    return make_instance(cfg)


def test_ranking_respects_cut_blocks(rng):
    inst = _mk("mas", 8, 10)
    r = decode_ranking(inst, _cut({1, 4, 6}, 8), DecodeConfig(), rng)
    assert validate_ranking(r, 8) == []
    assert set(r.order[:3]) == {1, 4, 6}


def test_degenerate_cut_gives_uniform_permutation():
    inst = _mk("btw", 6, 8)
    seen = set()
    for seed in range(40):
        r = decode_ranking(inst, _cut(range(6), 6), DecodeConfig(seed=seed))
        assert validate_ranking(r, 6) == []
        seen.add(r.order)
    assert len(seen) > 10


def test_partition_sides_get_distinct_labels(rng):
    inst = Instance(kind="cc", n=6, constraints=(MustLink(0, 1), CannotLink(0, 3)))
    p = decode_partition(inst, _cut({0, 1, 2}, 6), DecodeConfig(), rng)
    assert validate_partition(p, 6) == []
    assert all(p.labels[i] != p.labels[j] for i in (0, 1, 2) for j in (3, 4, 5))


def test_partition_trivial_baseline_prefers_better_side():
    # all cannot-links inside one side: singletons win there
    inst = Instance(
        kind="cc", n=4,
        constraints=(CannotLink(0, 1), CannotLink(0, 2), CannotLink(1, 2), MustLink(0, 3)),
    )
    p = decode_partition(inst, _cut({0, 1, 2}, 4), DecodeConfig(seed=1))
    assert len({p.labels[0], p.labels[1], p.labels[2]}) == 3
    inst2 = Instance(kind="cc", n=4, constraints=(MustLink(0, 1), MustLink(1, 2)))
    p2 = decode_partition(inst2, _cut({0, 1, 2}, 4), DecodeConfig(seed=1))
    assert p2.labels[0] == p2.labels[1] == p2.labels[2]


def test_partition_tie_keeps_one_cluster():
    inst = Instance(kind="cc", n=3, constraints=(MustLink(0, 1), CannotLink(1, 2)))
    p = decode_partition(inst, _cut({0, 1, 2}, 3), DecodeConfig(seed=0))
    assert p.labels == (0, 0, 0)


def test_recursive_cut_recovers_planted_clusters():
    cfg = GeneratorConfig(kind="cc", n=40, m=600, eps=0.0, balanced=True, seed=3)
    inst = make_instance(cfg)
    g = build(inst)
    cut = solve(g, SolverConfig(seed=3))
    best = DecodeConfig(recursive=True, seed=3)
    triv = DecodeConfig(seed=3)
    s_best = score(inst, decode_partition(inst, cut, best))
    s_triv = score(inst, decode_partition(inst, cut, triv))
    assert s_best.satisfied >= s_triv.satisfied
    assert s_best.fraction > 0.9


def test_rooted_tree_sides_stay_separated(rng):
    inst = _mk("triplets", 9, 12)
    t = decode_rooted_tree(inst, _cut({0, 2, 4}, 9), DecodeConfig(), rng)
    assert validate_rooted_tree(t, 9) == []
    la = t.leaf_of_item
    for i in (0, 2, 4):
        for j in (1, 3, 5, 6, 7, 8):
            assert t.lca(la[i], la[j]) == t.root


def test_unrooted_tree_sides_stay_separated(rng):
    inst = _mk("quartets", 10, 12)
    t = decode_unrooted_tree(inst, _cut({0, 1, 2, 3}, 10), DecodeConfig(), rng)
    assert validate_unrooted_tree(t, 10) == []
    # every quartet with a pair on each side splits the right way
    q = DesiredQuartet(0, 1, 4, 5)
    from ordagg.evaluator import satisfies

    assert satisfies(q, t)
    assert not satisfies(DesiredQuartet(0, 4, 1, 5), t)


def test_degenerate_tree_cut_warns_and_falls_back(caplog):
    inst = _mk("triplets", 6, 6)
    with caplog.at_level(logging.WARNING, logger="ordagg.decoder"):
        t = decode_rooted_tree(inst, _cut(set(), 6), DecodeConfig(seed=0))
    assert validate_rooted_tree(t, 6) == []
    assert any("degenerate" in r.message for r in caplog.records)
    caplog.clear()
    instq = _mk("quartets", 6, 6)
    with caplog.at_level(logging.WARNING, logger="ordagg.decoder"):
        tq = decode_unrooted_tree(instq, _cut(range(6), 6), DecodeConfig(seed=0))
    assert validate_unrooted_tree(tq, 6) == []
    assert any("degenerate" in r.message for r in caplog.records)


def test_decode_checks_kind():
    inst = _mk("mas", 5, 4)
    with pytest.raises(ValueError):
        decode_partition(inst, _cut({0}, 5), DecodeConfig())
    with pytest.raises(ValueError):
        decode_rooted_tree(inst, _cut({0}, 5), DecodeConfig())


def _mean_satisfied(inst, cut, draws=4000, cfg=None):
    total = 0
    for d in range(draws):
        rng = np.random.default_rng((997, d))
        total += score(inst, decode(inst, cut, cfg or DecodeConfig(), rng)).satisfied
    return total / draws


def test_mas_decode_identity():
    inst = _mk("mas", 10, 30, eps=0.2, seed=5)
    S = {0, 3, 5, 7}
    g = build(inst)
    w = cut_weight(g, S)
    m = len(inst.constraints)
    expected = 0.5 * m + 0.5 * w
    got = _mean_satisfied(inst, _cut(S, 10))
    assert abs(got - expected) / expected < 0.02


def test_btw_decode_identity():
    inst = _mk("btw", 10, 30, eps=0.2, seed=6)
    S = {1, 2, 6, 8}
    w = cut_weight(build(inst), S)
    m = len(inst.constraints)
    expected = m / 3 + w / 6
    got = _mean_satisfied(inst, _cut(S, 10))
    assert abs(got - expected) / expected < 0.02


def test_nonbtw_decode_identity():
    inst = _mk("nonbtw", 10, 30, eps=0.2, seed=7)
    S = {0, 1, 4, 9}
    w = cut_weight(build(inst), S)
    m = len(inst.constraints)
    expected = 2 * m / 3 + w / 6
    got = _mean_satisfied(inst, _cut(S, 10))
    assert abs(got - expected) / expected < 0.02


def test_triplets_decode_identity():
    inst = _mk("triplets", 10, 30, eps=0.2, seed=8)
    S = {0, 2, 4, 6, 8}
    w = cut_weight(build(inst), S)
    m1 = sum(isinstance(c, ForbiddenTriplet) for c in inst.constraints)
    m2 = sum(isinstance(c, DesiredTriplet) for c in inst.constraints)
    expected = 2 * m1 / 3 + m2 / 3 + w / 3
    got = _mean_satisfied(inst, _cut(S, 10))
    assert abs(got - expected) / expected < 0.02


def test_quartets_decode_identity():
    inst = _mk("quartets", 10, 30, eps=0.2, seed=9)
    S = {1, 3, 5, 7, 9}
    w = cut_weight(build(inst), S)
    m1 = sum(isinstance(c, ForbiddenQuartet) for c in inst.constraints)
    m2 = sum(isinstance(c, DesiredQuartet) for c in inst.constraints)
    expected = 2 * m1 / 3 + m2 / 3 + w / 6
    got = _mean_satisfied(inst, _cut(S, 10))
    assert abs(got - expected) / expected < 0.02


def test_recursive_ranking_beats_uniform_fill():
    inst = _mk("mas", 30, 300, eps=0.0, seed=10)
    g = build(inst)
    cut = solve(g, SolverConfig(seed=10))
    flat = np.mean([
        score(inst, decode_ranking(inst, cut, DecodeConfig(), np.random.default_rng((1, d)))).satisfied
        for d in range(30)
    ])
    rec = np.mean([
        score(inst, decode_ranking(inst, cut, DecodeConfig(recursive=True),
                                   np.random.default_rng((2, d)))).satisfied
        for d in range(30)
    ])
    assert rec > flat


def test_recursive_ranking_orients_blocks():
    # betweenness objectives ignore reversal, so a recursive block's direction
    # must come from score comparison; misoriented blocks would land near the
    # flat level instead
    for kind, seed in (("btw", 11), ("nonbtw", 12)):
        inst = _mk(kind, 90, 2000, eps=0.0, seed=seed)
        g = build(inst)
        cut = solve(g, SolverConfig(seed=seed))
        flat = score(inst, decode_ranking(
            inst, cut, DecodeConfig(), np.random.default_rng((3, seed)))).fraction
        rec = score(inst, decode_ranking(
            inst, cut, DecodeConfig(recursive=True),
            np.random.default_rng((4, seed)))).fraction
        assert rec > flat + 0.05, (kind, flat, rec)


def test_decode_dispatch_and_validity(rng):
    for kind, validator in (
        ("mas", validate_ranking),
        ("btw", validate_ranking),
        ("nonbtw", validate_ranking),
        ("cc", validate_partition),
        ("triplets", validate_rooted_tree),
        ("quartets", validate_unrooted_tree),
    ):
        inst = _mk(kind, 11, 16, seed=12)
        g = build(inst)
        cut = solve(g, SolverConfig(restarts=2, hyperplanes=30, seed=12))
        sol = decode(inst, cut, DecodeConfig(), rng)
        assert validator(sol, 11) == []
        sol_rec = decode(inst, cut, DecodeConfig(recursive=True), rng)
        assert validator(sol_rec, 11) == []
