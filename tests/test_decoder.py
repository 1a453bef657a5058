import hashlib
import logging

import numpy as np
import pytest

from ordagg import decoder, serialize
from ordagg.decoder import DecodeConfig, decode
from ordagg.evaluator import count_satisfied, score
from ordagg.generator import GeneratorConfig, make_instance
from ordagg.graph import CutStatus, build, classify, cut_weight
from ordagg.model import (
    CannotLink,
    DesiredQuartet,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    KINDS,
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
    r = decode(inst, _cut({1, 4, 6}, 8), DecodeConfig(), rng)
    assert validate_ranking(r, 8) == []
    assert set(r.order[:3]) == {1, 4, 6}


def test_degenerate_cut_gives_uniform_permutation():
    inst = _mk("btw", 6, 8)
    seen = set()
    for seed in range(40):
        r = decode(inst, _cut(range(6), 6), DecodeConfig(seed=seed))
        assert validate_ranking(r, 6) == []
        seen.add(r.order)
    assert len(seen) > 10


def test_partition_sides_get_distinct_labels(rng):
    inst = Instance(kind="cc", n=6, constraints=(MustLink(0, 1), CannotLink(0, 3)))
    p = decode(inst, _cut({0, 1, 2}, 6), DecodeConfig(), rng)
    assert validate_partition(p, 6) == []
    assert all(p.labels[i] != p.labels[j] for i in (0, 1, 2) for j in (3, 4, 5))


def test_partition_trivial_baseline_prefers_better_side():
    # all cannot-links inside one side: singletons win there
    inst = Instance(
        kind="cc", n=4,
        constraints=(CannotLink(0, 1), CannotLink(0, 2), CannotLink(1, 2), MustLink(0, 3)),
    )
    p = decode(inst, _cut({0, 1, 2}, 4), DecodeConfig(seed=1))
    assert len({p.labels[0], p.labels[1], p.labels[2]}) == 3
    inst2 = Instance(kind="cc", n=4, constraints=(MustLink(0, 1), MustLink(1, 2)))
    p2 = decode(inst2, _cut({0, 1, 2}, 4), DecodeConfig(seed=1))
    assert p2.labels[0] == p2.labels[1] == p2.labels[2]


def test_partition_tie_keeps_one_cluster():
    inst = Instance(kind="cc", n=3, constraints=(MustLink(0, 1), CannotLink(1, 2)))
    p = decode(inst, _cut({0, 1, 2}, 3), DecodeConfig(seed=0))
    assert p.labels == (0, 0, 0)


def test_degenerate_cut_gives_trivial_clustering():
    # no split at the top means no recursion either: the better trivial
    # clustering, though a re-solve would find the planted clusters
    inst = make_instance(GeneratorConfig(kind="cc", n=40, m=600, eps=0.0, balanced=True, seed=3))
    for cut in (_cut(set(), 40), _cut(range(40), 40)):
        p = decode(inst, cut, DecodeConfig(recursive=True, seed=3))
        assert p.labels in ((0,) * 40, tuple(range(40)))


def test_recursive_cut_recovers_planted_clusters():
    cfg = GeneratorConfig(kind="cc", n=40, m=600, eps=0.0, balanced=True, seed=3)
    inst = make_instance(cfg)
    g = build(inst)
    cut = solve(g, SolverConfig(seed=3))
    best = DecodeConfig(recursive=True, seed=3)
    triv = DecodeConfig(seed=3)
    s_best = score(inst, decode(inst, cut, best))
    s_triv = score(inst, decode(inst, cut, triv))
    assert s_best.satisfied >= s_triv.satisfied
    assert s_best.fraction > 0.9


def test_rooted_tree_sides_stay_separated(rng):
    inst = _mk("triplets", 9, 12)
    t = decode(inst, _cut({0, 2, 4}, 9), DecodeConfig(), rng)
    assert validate_rooted_tree(t, 9) == []
    la = t.leaf_of_item
    for i in (0, 2, 4):
        for j in (1, 3, 5, 6, 7, 8):
            assert t.lca(la[i], la[j]) == t.root


def test_unrooted_tree_sides_stay_separated(rng):
    inst = _mk("quartets", 10, 12)
    t = decode(inst, _cut({0, 1, 2, 3}, 10), DecodeConfig(), rng)
    assert validate_unrooted_tree(t, 10) == []
    # every quartet with a pair on each side splits the right way
    q = DesiredQuartet(0, 1, 4, 5)
    from ordagg.evaluator import satisfies

    assert satisfies(q, t)
    assert not satisfies(DesiredQuartet(0, 4, 1, 5), t)


def test_degenerate_tree_cut_warns_and_falls_back(caplog):
    inst = _mk("triplets", 6, 6)
    with caplog.at_level(logging.WARNING, logger="ordagg.decoder"):
        t = decode(inst, _cut(set(), 6), DecodeConfig(seed=0))
    assert validate_rooted_tree(t, 6) == []
    assert any("degenerate" in r.message for r in caplog.records)
    caplog.clear()
    instq = _mk("quartets", 6, 6)
    with caplog.at_level(logging.WARNING, logger="ordagg.decoder"):
        tq = decode(instq, _cut(range(6), 6), DecodeConfig(seed=0))
    assert validate_unrooted_tree(tq, 6) == []
    assert any("degenerate" in r.message for r in caplog.records)


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
        score(inst, decode(inst, cut, DecodeConfig(), np.random.default_rng((1, d)))).satisfied
        for d in range(30)
    ])
    rec = np.mean([
        score(inst, decode(inst, cut, DecodeConfig(recursive=True),
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
        flat = score(inst, decode(
            inst, cut, DecodeConfig(), np.random.default_rng((3, seed)))).fraction
        rec = score(inst, decode(
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


# sha256 of the serialized solution at seeds 4 and 9; the quartets-recursive
# pair records the rooted recursion of the sides, every other pair the output
# of the per-kind decoders this recursion replaced
_PINNED = {
    ("mas", "flat"): ("607881bdcc9d1351a5a8f22819dd37ebd3adf42ecc1d4ed40dc940d41f4a8e2f",
                      "433c3e89c865afcffe44bbd0cf1274565c13535ca89bb49f1e20b1c2ce0ca8bb"),
    ("mas", "recursive"): ("2a85d0db525f581f66aa307059d8e507f9fdf8bf0e5cb529ef6d6e10259b9be3",
                           "75505d1bd4628f8b7ecb9025009507d52dfa2abf6dc4c1c823661712a04e6bc1"),
    ("btw", "flat"): ("899b761e285cb08201e691584d2bed17296f2c2975662df955170d20b8716560",
                      "192c6e18ba7d006672d3322220057fca794dc98f129e162c789f6d69f50f90e6"),
    ("btw", "recursive"): ("8dcc66fccd4902bb5f26d6be5c05c0ca7c0eb581700980ca99cf7c6df8fb69aa",
                           "d8fe3130a47f81db1100015afdd9a051645fa21da34182e90a92e8c734329c7a"),
    ("nonbtw", "flat"): ("8294bef403b6f4dca366cdc1629c3442a077a0b2a1d82b98d1989a3f3a0d391f",
                         "9d3d3a55a6b7869474e25c5be247ad639779f577b708e50b98db265f7111f9e1"),
    ("nonbtw", "recursive"): ("71b1c8e78145f6c2ab1102c0a0c0046f4878a742b7d6ffcd26d721949cb98a52",
                              "35ea76a476818db90268bcc5aa8cb848eba628f6b9590eb43ea6bb5f657e296c"),
    ("cc", "flat"): ("ac4dcf76b0b9b4f9eedd5e12585c96d68516790273f5cadd5371c7f0ee27b284",
                     "055de92be8a06dfc7d6883e8cbec858c149885e211ce1450580dd0fa54d14775"),
    ("cc", "recursive"): ("0996dc84c3407670090d63ca410212fa8794b5247f182d76872b069fda5b14eb",
                          "048fb360fb9d12b09b1a4895c8e9a3407b2a89173bf967268d5c401d2dcaf958"),
    ("triplets", "flat"): ("8177138f9b89bc7df63ec79facc8c49984ccd2206edc39565617f919103af033",
                           "7aa04f20ff33ab1d23cf37cc8881dcef7a5ae68c07da29ee26536ca09e1c615a"),
    ("triplets", "recursive"): ("3785a359ab22e23edd887d74faac4809286c93dbe77df8a124fa1ee9b5469497",
                                "228afbc68fedc8d23eeb90bc7a8b31bea184c7985ec45ba117792fa95063ab88"),
    ("quartets", "flat"): ("77de660a3622c79f674489aeb3dddf8605d6a997e8fcc2989735326ac74de7d4",
                           "14188c70eea370bf53497eaa453a9ba8e5c21a3c53f8ba135d4aaf64fe163241"),
    ("quartets", "recursive"): ("540f90f3aa35ec4a43702f203d2886f83529921d8823ecb27bc9eae501b2db0d",
                                "62c90479f2576c92873155da3e87f4c7048c0e5f52e82b4ac8a082dadb27894c"),
}


@pytest.mark.parametrize("mode", ["flat", "recursive"])
@pytest.mark.parametrize("kind", KINDS)
def test_decode_outputs_are_pinned(kind, mode):
    digests = []
    for seed in (4, 9):
        inst = _mk(kind, 24, 160, eps=0.1, seed=seed)
        cut = solve(build(inst), SolverConfig(restarts=2, hyperplanes=30, seed=seed))
        sol = decode(inst, cut, DecodeConfig(recursive=mode == "recursive", seed=seed),
                     np.random.default_rng((seed, 1)))
        obj = serialize.solution_to_obj(sol)
        digests.append(hashlib.sha256(serialize.dumps(obj).encode()).hexdigest())
    assert tuple(digests) == _PINNED[kind, mode]


def test_recursive_quartets_keep_inner_splits():
    # each side recurses with rooted trees as its parts, so the inner cuts'
    # splits survive into the final tree and lift the mean well above flat
    gains = []
    for seed in range(4):
        inst = make_instance(GeneratorConfig(kind="quartets", n=40, m1=600, m2=600,
                                             eps1=0.1, eps2=0.1, seed=seed))
        cut = solve(build(inst), SolverConfig(seed=seed))
        flat = score(inst, decode(inst, cut, DecodeConfig(seed=seed))).fraction
        rec = score(inst, decode(inst, cut, DecodeConfig(recursive=True, seed=seed))).fraction
        gains.append(rec - flat)
    assert np.mean(gains) >= 0.07, gains


def test_recursion_calls_the_module_names(monkeypatch):
    # tracing wrappers replace decoder.build/solve/score to count inner work
    calls = {"build": 0, "solve": 0, "score": 0}

    def counting(name):
        fn = getattr(decoder, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(decoder, name, counting(name))
    inst = _mk("btw", 20, 120, eps=0.1, seed=2)
    cut = solve(build(inst), SolverConfig(restarts=2, hyperplanes=30, seed=2))
    decode(inst, cut, DecodeConfig(recursive=True, seed=2))
    assert all(calls.values()), calls
