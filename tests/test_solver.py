import math

import numpy as np
import pytest

from ordagg import solver
from ordagg.generator import GeneratorConfig, make_instance
from ordagg.graph import build, cut_weight
from ordagg.solver import (
    CutResult,
    SolverConfig,
    _ascend,
    _cut_weights,
    _local_search,
    _relaxation,
    _shift,
    brute_force_cut,
    default_rank,
    f_half,
    solve,
)

from graphs import signed_graph


def _und(n, weights):
    return signed_graph(n, False, weights)


def _dir(n, weights):
    return signed_graph(n, True, weights)


def _random_undirected(rng, n):
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = int(rng.integers(-3, 4))
            if w and rng.random() < 0.6:
                weights[(i, j)] = float(w)
    return _und(n, weights)


def _random_directed(rng, n):
    weights = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = int(rng.integers(-3, 4))
            if w and rng.random() < 0.4:
                weights[(i, j)] = float(w)
    return _dir(n, weights)


def test_f_half_fixed_points():
    assert f_half(0.0) == pytest.approx(0.0)
    assert f_half(math.pi / 2) == pytest.approx(math.pi / 2)
    assert f_half(math.pi) == pytest.approx(math.pi)


def test_f_half_sharpens_toward_the_poles():
    assert f_half(0.3) < 0.3
    assert f_half(2.8) > 2.8
    assert 0 < f_half(1.0) < math.pi


def test_f_half_domain_and_vector_form():
    with pytest.raises(ValueError):
        f_half(-0.2)
    with pytest.raises(ValueError):
        f_half(3.5)
    out = f_half(np.array([0.0, math.pi]))
    assert out.shape == (2,)


def test_default_rank():
    assert default_rank(1) == 2
    assert default_rank(100) >= math.isqrt(200)
    assert default_rank(3) <= 4


def test_brute_force_triangle():
    g = _und(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    res = brute_force_cut(g)
    assert res.weight == 2.0


def test_brute_force_negative_edge():
    g = _und(2, {(0, 1): -1})
    res = brute_force_cut(g)
    assert res.weight == 0.0
    assert res.S in (frozenset(), frozenset({0, 1}))


def test_brute_force_four_cycle():
    g = _und(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    assert brute_force_cut(g).weight == 4.0


def test_brute_force_directed_path():
    g = _dir(3, {(0, 1): 1, (1, 0): -1, (1, 2): 1, (2, 1): -1})
    res = brute_force_cut(g)
    assert res.weight == 1.0


def test_brute_force_cap():
    g = _und(23, {(0, 1): 1})
    with pytest.raises(ValueError):
        brute_force_cut(g)


def test_empty_graph_solves_trivially():
    g = _und(5, {})
    res = solve(g)
    assert res == CutResult(frozenset(), 0.0, 0.0)


def test_solver_matches_brute_force_small_undirected():
    ok = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g = _random_undirected(rng, 8)
        if g.weights.size == 0:
            ok += 1
            continue
        res = solve(g, SolverConfig(restarts=4, hyperplanes=80, seed=seed))
        best = brute_force_cut(g)
        assert res.weight <= best.weight + 1e-9
        ok += res.weight == pytest.approx(best.weight)
    assert ok >= 27


def test_solver_matches_brute_force_small_directed():
    ok = 0
    for seed in range(30):
        rng = np.random.default_rng(seed + 100)
        g = _random_directed(rng, 7)
        if g.weights.size == 0:
            ok += 1
            continue
        res = solve(g, SolverConfig(restarts=4, hyperplanes=80, seed=seed))
        best = brute_force_cut(g)
        assert res.weight <= best.weight + 1e-9
        ok += res.weight == pytest.approx(best.weight)
    assert ok >= 27


def test_oracle_equality_rate_n10():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng((7, seed))
        g = _random_undirected(rng, 10)
        if g.weights.size == 0:
            hits += 1
            continue
        res = solve(g, SolverConfig(restarts=20, hyperplanes=100, seed=seed))
        if res.weight == pytest.approx(brute_force_cut(g).weight):
            hits += 1
    assert hits >= 95


def test_undirected_guarantee_mini():
    for seed in range(12):
        rng = np.random.default_rng((11, seed))
        g = _random_undirected(rng, 11)
        res = solve(g, SolverConfig(seed=seed))
        best = brute_force_cut(g)
        assert res.weight >= 0.878 * best.weight - 0.122 * g.w_minus - 1e-9


def test_directed_guarantee_mini():
    for seed in range(12):
        rng = np.random.default_rng((13, seed))
        g = _random_directed(rng, 9)
        res = solve(g, SolverConfig(seed=seed))
        best = brute_force_cut(g)
        assert res.weight >= 0.857 * best.weight - 0.143 * g.w_minus - 1e-9


def test_sdp_objective_dominates_weight():
    for seed in range(10):
        rng = np.random.default_rng((17, seed))
        g = _random_undirected(rng, 9)
        if g.weights.size == 0:
            continue
        res = solve(g, SolverConfig(restarts=2, hyperplanes=30, seed=seed))
        assert res.sdp_objective >= res.weight - 1e-6
        gd = _random_directed(rng, 7)
        if gd.weights.size:
            resd = solve(gd, SolverConfig(restarts=2, hyperplanes=30, seed=seed))
            assert resd.sdp_objective >= resd.weight - 1e-6


def test_relaxation_upper_bounds_optimum():
    for seed in range(8):
        rng = np.random.default_rng((19, seed))
        g = _random_undirected(rng, 8)
        if g.weights.size == 0:
            continue
        res = solve(g, SolverConfig(seed=seed))
        assert res.sdp_objective >= brute_force_cut(g).weight - 1e-6


def test_local_search_never_hurts():
    # one search serves both kinds of graph: it never lowers the cut, and it
    # stops where no single flip gains more than its 1e-12 threshold
    for g in _random_graphs(23, 10):
        _, _, D = _relaxation(g)
        rng = np.random.default_rng(g.n)
        for _ in range(5):
            x = rng.random(g.n) < 0.5
            before = _cut_weights(D, x[:, None])[0]
            # integer weights: every flip gains at least 1, so this cap never binds
            y = _local_search(D, x.copy(), int(2 * np.abs(g.weights).sum()) + 1)
            after = _cut_weights(D, y[:, None])[0]
            assert after >= before - 1e-9
            for i in range(g.n):
                flipped = y.copy()
                flipped[i] = not flipped[i]
                assert _cut_weights(D, flipped[:, None])[0] <= after + 1e-12


def test_solver_is_deterministic():
    rng = np.random.default_rng(42)
    for g in [_random_undirected(rng, 12), *_random_graphs(43, 2)]:
        a = solve(g, SolverConfig(seed=5))
        b = solve(g, SolverConfig(seed=5))
        assert a == b


def _random_graphs(salt, count):
    for seed in range(count):
        rng = np.random.default_rng((salt, seed))
        yield _random_undirected(rng, 10)
        yield _random_directed(rng, 9)


@pytest.mark.parametrize("restarts", [1, 8])
def test_solve_runs_one_ascent(monkeypatch, restarts):
    calls = []

    def counting(*args, **kwargs):
        calls.append(_ascend(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(solver, "_ascend", counting)
    for g in _random_graphs(37, 2):
        if g.weights.size == 0:
            continue
        calls.clear()
        res = solve(g, SolverConfig(restarts=restarts, seed=3))
        assert len(calls) == 1
        _, value, steps, converged = calls[0]
        assert res.sdp_objective == max(value, res.weight)
        assert (res.ascent_iterations, res.converged) == (steps, converged)


def test_more_rounds_never_lose():
    # round 0 is the same at any restart count, so more rounds only add cuts
    for g in _random_graphs(41, 6):
        one = solve(g, SolverConfig(restarts=1, hyperplanes=5, seed=2))
        eight = solve(g, SolverConfig(restarts=8, hyperplanes=5, seed=2))
        assert eight.weight >= one.weight
        assert eight.sdp_objective == max(one.sdp_objective, eight.weight)


def test_ascent_reports_its_steps_and_convergence():
    for g in _random_graphs(43, 3):
        if g.weights.size == 0:
            continue
        M, const, _ = _relaxation(g)
        c = _shift(M)
        _, value, steps, converged = _ascend(M, const, c, 5, 2000, 1e-7, np.random.default_rng(4))
        assert converged and 2 <= steps < 2000
        # one step fewer stops at the cap instead, below the converged value
        _, before, *rest = _ascend(M, const, c, 5, steps - 1, 1e-7, np.random.default_rng(4))
        assert rest == [steps - 1, False]
        assert before <= value + 1e-9 * abs(value)


def test_shift_is_the_smallest_that_makes_the_relaxation_psd():
    for g in _random_graphs(29, 10):
        if g.weights.size == 0:
            continue
        M, _, _ = _relaxation(g)
        c = _shift(M)
        d = np.abs(M).sum(axis=1)
        d[d == 0.0] = 1.0
        r = 1.0 / np.sqrt(d)
        lam = np.linalg.eigvalsh(r[:, None] * (M + np.diag(c)) * r[None, :])[0]
        # PSD, and only the 1e-9 margin above the boundary in the normalized
        # scale: no smaller multiple of the row weights would do
        assert 0.0 <= lam <= 1e-8


def test_shift_is_positive_when_the_relaxation_vanishes():
    # a directed cycle of arcs whose opposite arcs cancel them leaves M = 0
    g = _dir(3, {(0, 1): 1, (1, 0): -1, (1, 2): 1, (2, 1): -1, (2, 0): 1, (0, 2): -1})
    M, _, _ = _relaxation(g)
    assert not M.any()
    c = _shift(M)
    assert c.shape == (len(M),) and np.all(c > 0.0)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_mas_ascent_reaches_the_optimum(n):
    # a mas relaxation is a star around v0 whose optimum is the best cut; the
    # per-row shift moves each row half way toward it per step, so the ascent
    # reaches it in a few steps
    for seed in range(40):
        cfg = GeneratorConfig(kind="mas", n=n, m=4 * n, eps=(seed % 6) / 10, seed=seed)
        g = build(make_instance(cfg))
        M, const, _ = _relaxation(g)
        _, value, steps, converged = _ascend(M, const, _shift(M), default_rank(n), 2000,
                                             solver.ASCENT_TOL, np.random.default_rng((seed, 0)))
        opt = brute_force_cut(g).weight
        assert converged and steps <= 20
        assert abs(value - opt) <= 1e-6 * max(1.0, opt)


def test_ascent_is_monotone():
    # the relaxation value after t steps from the same start never decreases in t
    for g in _random_graphs(0, 3):
        if g.weights.size == 0:
            continue
        M, const, _ = _relaxation(g)
        c = _shift(M)
        values = [_ascend(M, const, c, 5, t, 0.0, np.random.default_rng(3))[1]
                  for t in range(1, 61)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9 * abs(a)


def test_cut_weights_match_edge_sums():
    # exact for integer weights, so argmax over hyperplanes breaks ties as an
    # edge-by-edge sum would
    for g in _random_graphs(31, 10):
        if g.weights.size == 0:
            continue
        rng = np.random.default_rng(len(g.weights))
        u, v, w = g.u, g.v, g.weights
        _, _, D = _relaxation(g)
        X = rng.random((g.n, 64)) < 0.5
        X[:, 0] = False
        X[:, 1] = True
        crossing = X[u] & ~X[v] if g.directed else X[u] != X[v]
        assert np.array_equal(_cut_weights(D, X), w @ crossing)


def test_solve_dispatches_on_directedness():
    g = _dir(2, {(0, 1): 1.0})
    assert solve(g).weight == 1.0
