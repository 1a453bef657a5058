import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordagg.evaluator import (
    ORACLE_CAPS,
    Score,
    count_satisfied,
    enumerate_partitions,
    enumerate_rankings,
    enumerate_rooted_trees,
    enumerate_solutions,
    enumerate_unrooted_trees,
    oracle_best,
    random_rooted_tree,
    random_solution,
    random_unrooted_tree,
    satisfies,
    score,
)
from ordagg.generator import GeneratorConfig, make_instance
from ordagg.model import (
    CONSTRAINT_SPECS,
    KINDS,
    SOLUTION_TYPE,
    TREE_KINDS,
    Between,
    CannotLink,
    DesiredQuartet,
    DesiredTriplet,
    ForbiddenQuartet,
    ForbiddenTriplet,
    FourNonSeparated,
    FourSeparated,
    Instance,
    MustLink,
    NotBetween,
    Partition,
    Precedes,
    Ranking,
    validate_rooted_tree,
    validate_unrooted_tree,
)


def test_precedes_satisfaction():
    r = Ranking((2, 0, 1))
    assert satisfies(Precedes(2, 1), r)
    assert not satisfies(Precedes(1, 0), r)


def test_between_needs_contiguous_restriction():
    r = Ranking((0, 3, 1, 2))
    assert satisfies(Between(0, 3, 1), r)
    assert satisfies(Between(2, 1, 3), r)  # reversed direction counts
    assert not satisfies(Between(3, 0, 1), r)


def test_notbetween_is_strict_outside():
    r = Ranking((0, 1, 2, 3))
    assert satisfies(NotBetween(1, 3, 0), r)
    assert satisfies(NotBetween(0, 2, 3), r)
    assert not satisfies(NotBetween(0, 2, 1), r)
    assert not satisfies(NotBetween(1, 3, 2), r)


def test_notbetween_complements_between_in_four_of_six_orders():
    hits_btw = 0
    hits_nbtw = 0
    for perm in itertools.permutations((0, 1, 2)):
        r = Ranking(perm)
        hits_btw += satisfies(Between(0, 1, 2), r)
        hits_nbtw += satisfies(NotBetween(0, 2, 1), r)
    assert hits_btw == 2
    assert hits_nbtw == 4


def test_link_constraints():
    p = Partition((0, 0, 1))
    assert satisfies(MustLink(0, 1), p)
    assert not satisfies(MustLink(0, 2), p)
    assert satisfies(CannotLink(1, 2), p)
    assert not satisfies(CannotLink(0, 1), p)


def test_triplet_satisfaction_on_small_tree():
    import ordagg.model as model

    t = model.rooted_from_nested([[0, 1], [2, 3]])
    assert satisfies(ForbiddenTriplet(0, 2, 1), t)
    assert satisfies(DesiredTriplet(0, 1, 2), t)
    assert not satisfies(DesiredTriplet(0, 2, 3), t)
    assert not satisfies(ForbiddenTriplet(2, 3, 0), t)


def test_quartet_satisfaction_on_small_tree(rng):
    t = random_unrooted_tree(4, rng)
    resolutions = [
        DesiredQuartet(0, 1, 2, 3),
        DesiredQuartet(0, 2, 1, 3),
        DesiredQuartet(0, 3, 1, 2),
    ]
    assert sum(satisfies(q, t) for q in resolutions) == 1


def test_four_separated_on_ranking():
    r = Ranking((0, 1, 2, 3))
    assert satisfies(FourSeparated(0, 1, 2, 3), r)
    assert satisfies(FourSeparated(2, 3, 0, 1), r)
    assert not satisfies(FourSeparated(0, 2, 1, 3), r)
    assert satisfies(FourNonSeparated(0, 2, 1, 3), r)


def test_score_matches_manual_count():
    inst = Instance(kind="mas", n=3, constraints=(Precedes(0, 1), Precedes(1, 2), Precedes(2, 0)))
    assert score(inst, Ranking((0, 1, 2))) == Score(2, 3)


def test_score_empty_instance_has_no_fraction():
    inst = Instance(kind="mas", n=3, constraints=())
    s = score(inst, Ranking((0, 1, 2)))
    assert s.total == 0 and s.fraction is None


def test_score_rejects_mismatched_solution():
    inst = Instance(kind="mas", n=3, constraints=(Precedes(0, 1),))
    with pytest.raises(ValueError):
        score(inst, Partition((0, 0, 0)))


def _path_nodes(t, x, y):
    """The nodes on the path between the leaves of items x and y, by BFS."""
    leaf = t.leaf_of_item
    parent = {leaf[x]: None}
    frontier = [leaf[x]]
    while frontier:
        nxt = []
        for v in frontier:
            for nb in t.adjacency[v]:
                if nb not in parent:
                    parent[nb] = v
                    nxt.append(nb)
        frontier = nxt
    out = set()
    v = leaf[y]
    while v is not None:
        out.add(v)
        v = parent[v]
    return out


def _resolves(t, a, b, out):
    # ab|out: the a,b ancestor sits strictly below the three-way ancestor
    leaf = t.leaf_of_item
    lab = t.lca(leaf[a], leaf[b])
    return lab != t.lca(lab, leaf[out])


def _separated(p, a, b, c, d):
    return max(p[a], p[b]) < min(p[c], p[d]) or max(p[c], p[d]) < min(p[a], p[b])


# Each class's rule written out on the solution's own fields: positions from
# the order, labels, LCA walks, and BFS paths; independent of model.encode.
_REFERENCE = {
    Precedes: lambda p, a, b: p[a] < p[b],
    Between: lambda p, a, b, c: p[a] < p[b] < p[c] or p[c] < p[b] < p[a],
    NotBetween: lambda p, a, b, o: not (min(p[a], p[b]) < p[o] < max(p[a], p[b])),
    FourSeparated: _separated,
    FourNonSeparated: lambda p, a, b, c, d: not _separated(p, a, b, c, d),
    MustLink: lambda labels, a, b: labels[a] == labels[b],
    CannotLink: lambda labels, a, b: labels[a] != labels[b],
    DesiredTriplet: _resolves,
    ForbiddenTriplet: lambda t, a, b, o: not _resolves(t, a, b, o),
    DesiredQuartet: lambda t, a, b, c, d: not (_path_nodes(t, a, b) & _path_nodes(t, c, d)),
    ForbiddenQuartet: lambda t, a, b, c, d: bool(_path_nodes(t, a, b) & _path_nodes(t, c, d)),
}

_RANKING_CLASSES = (Precedes, Between, NotBetween, FourSeparated, FourNonSeparated)


def _reference(c, s) -> bool:
    if isinstance(s, Ranking):
        view = {item: i for i, item in enumerate(s.order)}
    elif isinstance(s, Partition):
        view = s.labels
    else:
        view = s
    return _REFERENCE[type(c)](view, *c.items())


def test_reference_covers_every_class():
    assert set(_REFERENCE) == set(CONSTRAINT_SPECS)


@pytest.mark.parametrize("kind", KINDS)
def test_score_matches_count_satisfied(kind, rng):
    # satisfies, score and count_satisfied against the scalar reference above;
    # ranking kinds also carry constraints of every ranking class
    if kind in TREE_KINDS:
        cfg = GeneratorConfig(kind=kind, n=9, m1=20, m2=20, eps1=0.3, eps2=0.3, seed=4)
    else:
        cfg = GeneratorConfig(kind=kind, n=9, m=40, eps=0.3, seed=4)
    inst = make_instance(cfg)
    if SOLUTION_TYPE[kind] is Ranking:
        extra = tuple(
            cls(*(int(x) for x in rng.choice(inst.n, len(fields(cls)), replace=False)))
            for cls in _RANKING_CLASSES for _ in range(10)
        )
        inst = Instance(kind=kind, n=inst.n, constraints=inst.constraints + extra)
    for _ in range(30):
        sol = random_solution(kind, inst.n, rng)
        expected = [_reference(c, sol) for c in inst.constraints]
        assert [satisfies(c, sol) for c in inst.constraints] == expected
        assert score(inst, sol).satisfied == sum(expected)
        assert count_satisfied(inst.constraints, sol) == sum(expected)


def test_enumeration_counts():
    assert len(list(enumerate_rankings(3))) == 6
    assert len(list(enumerate_partitions(4))) == 15
    assert len(list(enumerate_rooted_trees(4))) == 15
    assert len(list(enumerate_rooted_trees(3))) == 3
    assert len(list(enumerate_unrooted_trees(4))) == 3
    assert len(list(enumerate_unrooted_trees(5))) == 15


def test_enumerated_trees_are_valid_and_distinct():
    seen = set()
    for t in enumerate_rooted_trees(4):
        assert validate_rooted_tree(t, 4) == []
        seen.add(t.leaves_in_order() + (frozenset([t.lca(t.leaf_of_item[0], t.leaf_of_item[1])]),))
    for t in enumerate_unrooted_trees(5):
        assert validate_unrooted_tree(t, 5) == []


def test_oracle_small_mas():
    inst = Instance(kind="mas", n=3, constraints=(Precedes(0, 1), Precedes(1, 2)))
    sol, sc = oracle_best(inst)
    assert sc == Score(2, 2)
    assert sol.order == (0, 1, 2)


def _first_best(inst):
    best, best_sat = None, -1
    for sol in enumerate_solutions(inst.kind, inst.n):
        sat = score(inst, sol).satisfied
        if sat > best_sat:
            best, best_sat = sol, sat
    return best, Score(best_sat, len(inst.constraints))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", KINDS)
def test_oracle_best_is_the_first_best_enumerated(kind, n):
    if kind in TREE_KINDS:
        cfg = GeneratorConfig(kind=kind, n=n, m1=6, m2=6, eps1=0.4, eps2=0.4, seed=n)
    else:
        cfg = GeneratorConfig(kind=kind, n=n, m=12, eps=0.4, seed=n)
    inst = make_instance(cfg)
    assert oracle_best(inst) == _first_best(inst)


@pytest.mark.parametrize("inst, expected", [
    (Instance(kind="mas", n=3, constraints=(Precedes(1, 0),)), Ranking((1, 0, 2))),
    (Instance(kind="cc", n=3, constraints=(CannotLink(0, 1),)), Partition((0, 1, 0))),
    (Instance(kind="triplets", n=4, constraints=(DesiredTriplet(1, 2, 0),)), None),
    (Instance(kind="quartets", n=5, constraints=(DesiredQuartet(0, 2, 1, 3),)), None),
], ids=["mas", "cc", "triplets", "quartets"])
def test_oracle_ties_keep_the_first_enumerated(inst, expected):
    sols = list(enumerate_solutions(inst.kind, inst.n))
    sats = [score(inst, s).satisfied for s in sols]
    first = sats.index(max(sats))
    assert sats.count(max(sats)) >= 2 and first > 0
    best, sc = oracle_best(inst)
    assert best == sols[first] and sc.satisfied == max(sats)
    if expected is not None:
        assert best == expected


def test_oracle_cap_raises():
    inst = Instance(kind="mas", n=9, constraints=(Precedes(0, 1),))
    with pytest.raises(ValueError, match="n <= 8"):
        oracle_best(inst)
    assert ORACLE_CAPS["triplets"] == 6


def test_oracle_beats_random_sampling(rng):
    for kind, kwargs in (
        ("btw", dict(m=12)),
        ("cc", dict(m=12)),
        ("triplets", dict(m1=6, m2=6)),
    ):
        n = 5
        inst = make_instance(GeneratorConfig(kind=kind, n=n, eps=0.4 if "m" in kwargs else 0.0, **kwargs))
        _, best = oracle_best(inst)
        for _ in range(300):
            assert score(inst, random_solution(kind, n, rng)).satisfied <= best.satisfied


def test_random_rate_one_third_between(rng):
    # fraction of random rankings satisfying a fixed Between
    n_draws = 100_000
    perms = rng.permuted(np.tile(np.arange(5), (n_draws, 1)), axis=1)
    pos = np.argsort(perms, axis=1)
    a, b, c = pos[:, 0], pos[:, 1], pos[:, 2]
    rate = np.mean(((a < b) & (b < c)) | ((c < b) & (b < a)))
    assert abs(rate - 1 / 3) < 0.02


def test_random_rate_two_thirds_notbetween(rng):
    n_draws = 100_000
    perms = rng.permuted(np.tile(np.arange(5), (n_draws, 1)), axis=1)
    pos = np.argsort(perms, axis=1)
    a, b, out = pos[:, 0], pos[:, 1], pos[:, 2]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    rate = np.mean(~((lo < out) & (out < hi)))
    assert abs(rate - 2 / 3) < 0.02


def test_random_triplet_rate_one_third(rng):
    hits = 0
    draws = 3000
    q = DesiredTriplet(0, 1, 2)
    for _ in range(draws):
        hits += satisfies(q, random_rooted_tree(5, rng))
    assert abs(hits / draws - 1 / 3) < 0.03


def test_random_quartet_rate_one_third(rng):
    hits = 0
    draws = 3000
    q = DesiredQuartet(0, 1, 2, 3)
    for _ in range(draws):
        hits += satisfies(q, random_unrooted_tree(6, rng))
    assert abs(hits / draws - 1 / 3) < 0.03


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31))
def test_quartet_obeyed_iff_paths_disjoint(seed):
    # cross-check the distance criterion against explicit path intersection
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    t = random_unrooted_tree(n, rng)
    items = [int(x) for x in rng.choice(n, size=4, replace=False)]
    a, b, c, d = items
    disjoint = not (_path_nodes(t, a, b) & _path_nodes(t, c, d))
    assert satisfies(DesiredQuartet(a, b, c, d), t) == disjoint


def test_enumerate_solutions_dispatch():
    assert len(list(enumerate_solutions("cc", 3))) == 5
    assert len(list(enumerate_solutions("quartets", 4))) == 3
