import math

import numpy as np
import pytest

from ordagg.analysis import balanced_edge, edge_side_items, expected_cut_fraction, median_cut
from ordagg.evaluator import score
from ordagg.generator import (
    GeneratorConfig,
    generate,
    make_instance,
    sample_ground_truth,
)
from ordagg.graph import CutStatus, classify
from ordagg.model import (
    KINDS,
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
