from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordagg.model import (
    Between,
    CannotLink,
    DesiredQuartet,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    FourNonSeparated,
    FourSeparated,
    Instance,
    KINDS,
    MustLink,
    NotBetween,
    Partition,
    Precedes,
    Ranking,
    RootedBinaryTree,
    UnrootedTree,
    forbidden_desired_counts,
    join_rooted,
    nested_from_rooted,
    rooted_from_nested,
    validate,
    validate_partition,
    validate_ranking,
    validate_rooted_tree,
    validate_unrooted_tree,
)
from ordagg.evaluator import (
    random_partition,
    random_ranking,
    random_rooted_tree,
    random_unrooted_tree,
)


def test_between_canonicalizes_ends():
    assert Between(5, 1, 2) == Between(2, 1, 5)
    assert Between(5, 1, 2).a == 2 and Between(5, 1, 2).c == 5


def test_notbetween_canonicalizes_pair():
    c = NotBetween(4, 1, 9)
    assert (c.a, c.b, c.out) == (1, 4, 9)


def test_pair_constraints_canonicalize():
    assert MustLink(3, 1) == MustLink(1, 3)
    assert CannotLink(3, 1).a == 1
    assert DesiredTriplet(7, 2, 0) == DesiredTriplet(2, 7, 0)


def test_quartet_canonicalizes_both_pairs():
    c = ForbiddenQuartet(3, 1, 9, 4)
    assert (c.a, c.b, c.c, c.d) == (1, 3, 4, 9)
    assert DesiredQuartet(2, 0, 8, 5) == DesiredQuartet(0, 2, 5, 8)


def test_precedes_is_ordered():
    assert Precedes(2, 1) != Precedes(1, 2)


def test_ranking_position_inverts_order():
    r = Ranking((3, 0, 2, 1))
    assert list(r.position) == [1, 3, 2, 0]
    assert r.n == 4


def test_validate_passes_clean_instance():
    inst = Instance(kind="mas", n=3, constraints=(Precedes(0, 1), Precedes(2, 0)))
    assert validate(inst) == []


def test_validate_flags_duplicate_item():
    inst = Instance(kind="mas", n=3, constraints=(Precedes(1, 1),))
    assert "duplicate item in constraint 0" in validate(inst)


def test_validate_flags_wrong_kind():
    inst = Instance(
        kind="triplets",
        n=5,
        constraints=(ForbiddenTriplet(0, 1, 2), DesiredTriplet(0, 1, 3), Precedes(0, 1)),
    )
    assert "constraint 2 illegal for kind triplets" in validate(inst)


def test_validate_flags_out_of_range():
    inst = Instance(kind="btw", n=3, constraints=(Between(0, 1, 3),))
    assert "item out of range in constraint 0" in validate(inst)


def test_validate_flags_unknown_kind():
    inst = Instance(kind="mystery", n=3, constraints=())
    assert validate(inst) == ["unknown kind mystery"]


def test_validate_flags_ground_truth_kind_mismatch():
    inst = Instance(
        kind="cc",
        n=3,
        constraints=(MustLink(0, 1),),
        ground_truth=Ranking((0, 1, 2)),
    )
    assert "ground truth does not match kind cc" in validate(inst)


def test_validate_ranking():
    assert validate_ranking(Ranking((1, 0, 2)), 3) == []
    assert validate_ranking(Ranking((0, 0, 2)), 3) != []
    assert validate_ranking(Ranking((0, 1)), 3) != []


def test_validate_partition_requires_dense_labels():
    assert validate_partition(Partition((0, 1, 0, 2)), 4) == []
    assert validate_partition(Partition((1, 0)), 2) == []
    assert validate_partition(Partition((0, 2)), 2) != []
    assert validate_partition(Partition((0, 1)), 3) != []


def test_rooted_nested_round_trip():
    nested = [0, [[1, 3], 2]]
    t = rooted_from_nested(nested)
    assert validate_rooted_tree(t, 4) == []
    assert nested_from_rooted(t) == nested
    assert t.n_leaves == 4
    assert t.leaves_in_order() == (0, 1, 3, 2)


def test_rooted_lca():
    t = rooted_from_nested([[0, 1], [2, 3]])
    la = t.leaf_of_item
    assert t.lca(la[0], la[1]) != t.root
    assert t.lca(la[0], la[2]) == t.root
    assert t.lca(la[1], la[1]) == la[1]


def test_join_rooted_merges_items():
    left = rooted_from_nested([0, 2])
    right = rooted_from_nested([[1, 4], 3])
    t = join_rooted(left, right)
    assert validate_rooted_tree(t, 5) == []
    assert set(t.leaves_in_order()) == {0, 1, 2, 3, 4}
    # the two sides stay under separate children of the new root
    la = t.leaf_of_item
    assert t.lca(la[0], la[2]) != t.root
    assert t.lca(la[1], la[3]) != t.root
    assert t.lca(la[0], la[1]) == t.root


def test_unrooted_validator_rejects_degree_two():
    # path on 3 nodes has a degree-2 middle
    t = UnrootedTree(((1,), (0, 2), (1,)), (0, -1, 1))
    assert validate_unrooted_tree(t, 2) != []


def test_unrooted_leaf_distances():
    # star: 3 leaves at distance 2 pairwise
    t = UnrootedTree(((3,), (3,), (3,), (0, 1, 2)), (0, 1, 2, -1))
    d = t.leaf_distances
    assert d[0, 1] == d[0, 2] == d[1, 2] == 2
    assert d[0, 0] == 0


def _lca_depth_by_walks(t):
    la = t.leaf_of_item
    n = t.n_leaves
    return [[t.depth[t.lca(la[a], la[b])] for b in range(n)] for a in range(n)]


def _leaf_distances_by_bfs(t):
    out = []
    for item in range(t.n_leaves):
        d = {t.leaf_of_item[item]: 0}
        q = deque(d)
        while q:
            u = q.popleft()
            for v in t.adjacency[u]:
                if v not in d:
                    d[v] = d[u] + 1
                    q.append(v)
        out.append([d[t.leaf_of_item[other]] for other in range(t.n_leaves)])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 30])
def test_lca_depth_matches_lca_walks(n):
    rng = np.random.default_rng(n)
    trees = [random_rooted_tree(n, rng) for _ in range(20)]
    if n == 1:
        trees.append(rooted_from_nested(0))
    for t in trees:
        assert t.lca_depth.tolist() == _lca_depth_by_walks(t)
        # ab|c holds iff the a,b ancestor is deeper than the a,c ancestor
        for a, b, c in ((0, 1, 2), (1, 2, 0), (0, 2, 1)) if n >= 3 else ():
            la = t.leaf_of_item
            lab = t.lca(la[a], la[b])
            assert (t.lca_depth[a, b] > t.lca_depth[a, c]) == (lab != t.lca(lab, la[c]))


@pytest.mark.parametrize("n", [3, 4, 5, 9, 30])
def test_leaf_distances_match_bfs(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        t = random_unrooted_tree(n, rng)
        assert t.leaf_distances.tolist() == _leaf_distances_by_bfs(t)


@pytest.mark.parametrize("t", [
    UnrootedTree(((),), (0,)),
    UnrootedTree(((1,), (0,)), (0, 1)),
    UnrootedTree(((1,), (0,)), (1, 0)),
    UnrootedTree(((3,), (3,), (3,), (0, 1, 2)), (0, 1, 2, -1)),
    UnrootedTree(((1, 2, 3), (0,), (0,), (0,)), (-1, 2, 0, 1)),
], ids=["one-leaf", "one-edge", "one-edge-swapped", "star", "star-centre-first"])
def test_leaf_distances_on_the_smallest_trees(t):
    assert t.leaf_distances.tolist() == _leaf_distances_by_bfs(t)


def test_forbidden_desired_counts():
    inst = Instance(
        kind="triplets",
        n=5,
        constraints=(ForbiddenTriplet(0, 1, 2), ForbiddenTriplet(1, 2, 3), DesiredTriplet(0, 3, 4)),
    )
    assert forbidden_desired_counts(inst) == (2, 1)


def test_separation_constraints_items():
    assert set(FourSeparated(0, 1, 2, 3).items()) == {0, 1, 2, 3}
    assert set(FourNonSeparated(4, 5, 6, 7).items()) == {4, 5, 6, 7}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**31))
def test_random_samplers_produce_valid_solutions(n, seed):
    rng = np.random.default_rng(seed)
    assert validate_ranking(random_ranking(n, rng), n) == []
    assert validate_partition(random_partition(n, rng), n) == []
    assert validate_rooted_tree(random_rooted_tree(n, rng), n) == []
    assert validate_unrooted_tree(random_unrooted_tree(n, rng), n) == []


def test_all_kinds_listed():
    assert KINDS == ("mas", "btw", "nonbtw", "cc", "triplets", "quartets")
