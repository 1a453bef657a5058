import hashlib
import math

import numpy as np
import pytest

from ordagg import generator, serialize
from ordagg.analysis import balanced_edge, edge_side_items, expected_cut_fraction, median_cut
from ordagg.evaluator import satisfies, score
from ordagg.generator import (
    GeneratorConfig,
    generate,
    make_instance,
    sample_ground_truth,
)
from ordagg.graph import CutStatus, classify
from ordagg.model import (
    KINDS,
    DesiredQuartet,
    DesiredTriplet,
    Partition,
    RootedBinaryTree,
    validate,
)


def _cfg(kind, n, m, eps=0.0, seed=0, balanced=False):
    if kind in ("triplets", "quartets"):
        return GeneratorConfig(kind=kind, n=n, m1=m // 2, m2=m - m // 2,
                               eps1=eps, eps2=eps, balanced=balanced, seed=seed)
    return GeneratorConfig(kind=kind, n=n, m=m, eps=eps, balanced=balanced, seed=seed)


def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        GeneratorConfig(kind="nope", n=5)
    with pytest.raises(ValueError):
        GeneratorConfig(kind="mas", n=5, eps=1.5)
    with pytest.raises(ValueError):
        GeneratorConfig(kind="mas", n=5, m1=3)
    with pytest.raises(ValueError):
        GeneratorConfig(kind="triplets", n=5, m=3)
    with pytest.raises(ValueError):
        GeneratorConfig(kind="cc", n=2, balanced=True)
    with pytest.raises(ValueError, match="seed"):
        GeneratorConfig(kind="mas", n=5, seed=-1)


def test_generation_is_deterministic():
    a = make_instance(_cfg("btw", 12, 40, eps=0.2, seed=9))
    b = make_instance(_cfg("btw", 12, 40, eps=0.2, seed=9))
    assert a.constraints == b.constraints
    assert a.ground_truth == b.ground_truth


@pytest.mark.parametrize("kind", KINDS)
def test_instances_validate_clean(kind):
    inst = make_instance(_cfg(kind, 9, 30, eps=0.5, seed=4))
    assert validate(inst) == []
    assert len(inst.constraints) == 30


@pytest.mark.parametrize("kind", KINDS)
def test_zero_noise_scores_perfect(kind):
    inst = make_instance(_cfg(kind, 10, 40, eps=0.0, seed=2))
    assert score(inst, inst.ground_truth).fraction == 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_full_noise_scores_zero(kind):
    inst = make_instance(_cfg(kind, 10, 40, eps=1.0, seed=2))
    assert score(inst, inst.ground_truth).fraction == 0.0


def test_noise_rate_matches_eps():
    inst = make_instance(_cfg("mas", 30, 100_000, eps=0.1, seed=7))
    frac = score(inst, inst.ground_truth).fraction
    assert abs(frac - 0.9) < 0.01


def test_noise_rate_matches_eps_triplets():
    cfg = GeneratorConfig(kind="triplets", n=20, m1=20_000, m2=20_000,
                          eps1=0.3, eps2=0.1, seed=7)
    inst = make_instance(cfg)
    forb = inst.constraints[:20_000]
    des = inst.constraints[20_000:]
    gt = inst.ground_truth
    from ordagg.evaluator import count_satisfied

    assert abs(count_satisfied(forb, gt) / 20_000 - 0.7) < 0.02
    assert abs(count_satisfied(des, gt) / 20_000 - 0.9) < 0.02


def test_tree_kinds_emit_forbidden_before_desired():
    inst = make_instance(GeneratorConfig(kind="quartets", n=8, m1=5, m2=7, seed=3))
    names = [type(c).__name__ for c in inst.constraints]
    assert names[:5] == ["ForbiddenQuartet"] * 5
    assert names[5:] == ["DesiredQuartet"] * 7


def test_balanced_partition_constraints_hold():
    for seed in range(30):
        cfg = GeneratorConfig(kind="cc", n=13, m=1, balanced=True, seed=seed)
        gt = sample_ground_truth(cfg, np.random.default_rng(seed))
        sizes = np.bincount(gt.labels)
        assert 2 * sizes.max() <= 13
        # some grouping into two sides lands in [n/3, 2n/3]
        reachable = {0}
        for s in sizes:
            reachable |= {r + s for r in reachable}
        assert any(math.ceil(13 / 3) <= t <= 13 * 2 // 3 for t in reachable)


def test_balanced_rooted_root_split():
    for seed in range(30):
        cfg = GeneratorConfig(kind="triplets", n=9, m1=1, m2=1, balanced=True, seed=seed)
        gt = sample_ground_truth(cfg, np.random.default_rng(seed))
        assert isinstance(gt, RootedBinaryTree)
        left = gt.left[gt.root]
        count = 0
        stack = [left]
        while stack:
            v = stack.pop()
            if gt.leaf_item[v] >= 0:
                count += 1
            else:
                stack.extend((gt.left[v], gt.right[v]))
        assert 3 <= count <= 6


def test_partition_cluster_count_stays_in_range():
    ks = set()
    for seed in range(200):
        cfg = GeneratorConfig(kind="cc", n=30, m=1, seed=seed)
        gt = sample_ground_truth(cfg, np.random.default_rng(seed))
        k = max(gt.labels) + 1
        ks.add(k)
        assert 1 <= k <= max(2, math.isqrt(30))
    assert len(ks) > 1


def test_median_cut_crossing_rate_mas():
    # planted comparisons cross the median cut forward about half the time
    eps = 0.2
    inst = make_instance(_cfg("mas", 40, 100_000, eps=eps, seed=11))
    S = median_cut(inst.ground_truth)
    sat = sum(classify(c, S) is CutStatus.SATISFIED for c in inst.constraints)
    vio = sum(classify(c, S) is CutStatus.VIOLATED for c in inst.constraints)
    crossing = (sat + vio) / 100_000
    expected_w = crossing * (1 - eps) - crossing * eps
    got_w = (sat - vio) / 100_000
    assert abs(got_w - expected_w) < 0.02
    assert abs(sat / 100_000 - crossing * (1 - eps)) < 0.02


def test_quartet_disobeyed_fraction_tracks_balanced_edge():
    # a cut along a tree edge with crossing rate c disobeys ~6c^2(1-c)^2
    cfg = GeneratorConfig(kind="quartets", n=60, m1=0, m2=50_000, seed=5)
    rng = np.random.default_rng(5)
    gt = sample_ground_truth(cfg, rng)
    inst = generate(cfg, gt, rng)
    edge = balanced_edge(gt)
    S = edge_side_items(gt, edge)
    c = len(S) / 60  # membership probability of a uniform leaf
    statuses = [classify(x, S) for x in inst.constraints]
    two_two = (statuses.count(CutStatus.OBEYED) + statuses.count(CutStatus.DISOBEYED)) / 50_000
    assert abs(two_two - expected_cut_fraction("quartet-split", c)) < 0.02
    # a single tree edge cannot split a consistent quartet the wrong way
    assert statuses.count(CutStatus.DISOBEYED) == 0


def test_resampling_failure_raises():
    # n=3 with at most 2 labels can never keep the largest cluster at n/2
    cfg = GeneratorConfig(kind="cc", n=3, m=1, balanced=True)
    with pytest.raises(RuntimeError, match="attempt cap"):
        sample_ground_truth(cfg, np.random.default_rng(0))


# sha256 of the serialized instance at seeds 3 and 11, n=12, 40 constraints,
# eps 0.1, balanced for cc and triplets. A change to the draw stream must
# change these on purpose.
_PINNED = {
    "mas": ("367c6b32e758261bab58deb079ab5aeb19004a21bb2760d3dc92c61000dca14f",
            "6349c2fec7df3f6fcb36dea1b18237c179018aa872912c5e93eda535d56dc71c"),
    "btw": ("5fe966c992fc553bb6f8aa1614b9aaa8572abdeda3fcf5ac8968fd4b9a45a341",
            "2ed41f9a530916a9dad30b9f3786af79ff8455589579052e41b5a345399b2975"),
    "nonbtw": ("142862579dc5c845c9ed07910ca04fdfb48d2dd005c4a9a8a54c0eb21b77e186",
               "db373b64b76311b909bf55bf253b70ba932fbdc94d7c876714b03f7ea1b13c1c"),
    "cc": ("b72a458588b252ef176bc2256eea44b19894d1f9c12c24f9d3b329e5e83356f4",
           "71ed3db69849305b50bda00fc3a7514b91a5f46d671ada44adfac3fed55f1df5"),
    "triplets": ("b78df083635507099f638ac6405b7f03857f5ed35a1c8eae461c03233cbe7bb5",
                 "7eb57598eae6676f5c104beb0528bade00f93fb18e68894d732d445ae0494953"),
    "quartets": ("3ec209dce284589371a5915c2e0475ee05acdf3afb439d21c3a7a1bd2dead027",
                 "b67817c5c1db5895431f72f564d19aef92fa89462b8ba2c005ed9b90035d897e"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_fixed_seed_instances_are_pinned(kind):
    balanced = kind in ("cc", "triplets")
    digests = tuple(
        hashlib.sha256(serialize.dumps(serialize.instance_to_obj(
            make_instance(_cfg(kind, 12, 40, eps=0.1, seed=seed, balanced=balanced))
        )).encode()).hexdigest()
        for seed in (3, 11)
    )
    assert digests == _PINNED[kind]


def _other(drawn, *named):
    return next(x for x in drawn if x not in named)


def _alternative(kind, c, drawn, gt) -> bool:
    """Which of the two candidates on its side c is: told apart by truth order
    for rankings and by draw order for trees."""
    if kind in ("btw", "nonbtw"):
        named = c.b if kind == "btw" else c.out
        return named == min(drawn, key=lambda x: gt.position[x])
    if kind == "triplets":
        true_out = next(x for x in drawn if satisfies(DesiredTriplet(*_rest(drawn, x), x), gt))
        other = _other(drawn, true_out, c.out)
        return drawn.index(c.out) < drawn.index(other)
    first = drawn[0]
    partner = {c.a: c.b, c.b: c.a, c.c: c.d, c.d: c.c}[first]
    true_partner = next(p for p in drawn[1:]
                        if satisfies(DesiredQuartet(first, p, *_rest(drawn[1:], p)), gt))
    other = _other(drawn[1:], true_partner, partner)
    return drawn.index(partner) < drawn.index(other)


def _rest(drawn, x):
    return [y for y in drawn if y != x]


@pytest.mark.parametrize("kind", ["btw", "nonbtw", "triplets", "quartets"])
def test_wrong_alternatives_are_uniform(kind, monkeypatch):
    # the erroneous btw middle, the correct nonbtw out, and the tree resolution
    # a correct forbidden or an erroneous desired constraint names: each has
    # two choices, picked uniformly
    draws = []
    distinct = generator._distinct

    def recorded(rng, n, k):
        draws.append(distinct(rng, n, k))
        return draws[-1]

    monkeypatch.setattr(generator, "_distinct", recorded)
    m = 4000
    if kind in ("triplets", "quartets"):
        cfg = GeneratorConfig(kind=kind, n=20, m1=m, m2=m, eps1=0.0, eps2=1.0, seed=6)
    else:
        cfg = GeneratorConfig(kind=kind, n=20, m=m, eps=1.0 if kind == "btw" else 0.0, seed=6)
    inst = make_instance(cfg)
    picks = [_alternative(kind, c, d, inst.ground_truth)
             for c, d in zip(inst.constraints, draws, strict=True)]
    for start in range(0, len(picks), m):
        assert 0.45 <= np.mean(picks[start:start + m]) <= 0.55
