"""Approximate MaxCut on signed graphs, plus an exact brute-force oracle.

The semidefinite relaxation is optimized in low-rank form: one unit row per
node (directed graphs add a distinguished row v0), and ascent steps
V <- row_normalize(M V + c V) with c = max_i sum_j |M_ij|. The shift makes
M + cI positive semidefinite, so every step increases tr(V^T M V); iteration
stops on a relative tolerance. Rounding draws a batch of random hyperplanes
and keeps the best cut; directed rounding can first rotate every row into the
plane it spans with v0, at the angle f_half of its v0 angle. A greedy
single-vertex local search polishes the rounded cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import SignedGraph, cut_weight


def default_rank(n: int) -> int:
    s = math.isqrt(2 * n)
    if s * s < 2 * n:
        s += 1
    return max(2, min(n + 1, s + 4))


@dataclass(frozen=True)
class SolverConfig:
    rank: int | None = None
    max_iterations: int = 2000
    restarts: int = 8
    hyperplanes: int = 200
    rotation: bool = True
    tol: float = 1e-7
    local_search: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.rank is not None and self.rank < 2:
            raise ValueError("rank must be at least 2")
        if self.restarts < 1 or self.hyperplanes < 1:
            raise ValueError("restarts and hyperplanes must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class CutResult:
    S: frozenset[int]
    weight: float
    sdp_objective: float
    restarts_used: int
    rounds_used: int


def f_half(theta):
    """Rotation curve theta/2 + (pi/4)(1 - cos theta) on [0, pi]."""
    th = np.asarray(theta, dtype=float)
    if np.any(th < -1e-9) or np.any(th > math.pi + 1e-9):
        raise ValueError("f_half is defined on [0, pi]")
    th = np.clip(th, 0.0, math.pi)
    out = 0.5 * th + 0.25 * math.pi * (1.0 - np.cos(th))
    return float(out) if np.ndim(theta) == 0 else out


def _row_normalize(V: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return V / norms


def _ascend(M: np.ndarray, const: float, k: int, max_iterations: int, tol: float, rng):
    n = M.shape[0]
    V = _row_normalize(rng.standard_normal((n, k)))
    c = float(np.abs(M).sum(axis=1).max())
    MV = M @ V
    value = const + float((V * MV).sum())
    if c <= 0.0:
        return V, value
    for _ in range(max_iterations):
        V = _row_normalize(MV + c * V)
        MV = M @ V
        new = const + float((V * MV).sum())
        if abs(new - value) <= tol * max(1.0, abs(new)):
            value = new
            break
        value = new
    return V, value


def _rotate_to_v0(V: np.ndarray) -> np.ndarray:
    v0 = V[0]
    cs = np.clip(V[1:] @ v0, -1.0, 1.0)
    theta = np.arccos(cs)
    perp = V[1:] - cs[:, None] * v0[None, :]
    norms = np.linalg.norm(perp, axis=1)
    degenerate = norms < 1e-9
    if np.any(degenerate):
        # rows parallel to v0 get a fixed orthogonal direction
        fallback = np.zeros_like(v0)
        fallback[int(np.argmin(np.abs(v0)))] = 1.0
        fallback -= (fallback @ v0) * v0
        fallback /= np.linalg.norm(fallback)
        perp[degenerate] = fallback
        norms = np.linalg.norm(perp, axis=1)
    perp /= norms[:, None]
    t = f_half(theta)
    out = np.empty_like(V)
    out[0] = v0
    out[1:] = np.cos(t)[:, None] * v0[None, :] + np.sin(t)[:, None] * perp
    return out


def _crossing(x, u, v, directed: bool):
    """Which edges u -> v cross the cut(s) whose S-membership x has one row per
    node; indexing here frees the E x hyperplanes masks as soon as they are used."""
    return x[u] & ~x[v] if directed else x[u] != x[v]


def _round(V, u, v, w, hyperplanes, rng, directed, rotation):
    """Best of a batch of hyperplane cuts as an S-membership mask; on directed
    graphs S is the side of v0 (row 0), optionally after the rotation."""
    if directed and rotation:
        V = _rotate_to_v0(V)
    H = rng.standard_normal((V.shape[1], hyperplanes))
    side = (V @ H) >= 0.0
    if directed:
        side = side[1:] == side[0][None, :]
    cuts = w @ _crossing(side, u, v, directed)
    return side[:, int(np.argmax(cuts))].copy()


def _local_search_undirected(A, x, max_flips):
    s = np.where(x, 1.0, -1.0)
    As = A @ s
    for _ in range(max_flips):
        gains = s * As
        i = int(np.argmax(gains))
        if gains[i] <= 1e-12:
            break
        s[i] = -s[i]
        As += 2.0 * s[i] * A[:, i]
    return s > 0.0


def _local_search_directed(W, x, max_flips):
    xf = x.astype(float)
    p = xf @ W
    q = W @ (1.0 - xf)
    for _ in range(max_flips):
        gains = np.where(x, p - q, q - p)
        i = int(np.argmax(gains))
        if gains[i] <= 1e-12:
            break
        if x[i]:
            x[i] = False
            p -= W[i, :]
            q += W[:, i]
        else:
            x[i] = True
            p += W[i, :]
            q -= W[:, i]
    return x


def _relaxation(g: SignedGraph) -> tuple[np.ndarray, float, np.ndarray]:
    """(M, const, D): the relaxation value is const + tr(V^T M V), and D is
    the dense weight matrix local search works on (symmetric when undirected).
    Directed graphs put v0 in row 0 of M."""
    n = g.n
    u, v, w = g.edge_arrays
    D = np.zeros((n, n))
    D[u, v] = w
    if not g.directed:
        D[v, u] = w
        return -0.25 * D, 0.5 * float(w.sum()), D
    M = np.zeros((n + 1, n + 1))
    out_minus_in = D.sum(axis=1) - D.sum(axis=0)
    M[0, 1:] = out_minus_in / 8.0
    M[1:, 0] = out_minus_in / 8.0
    M[1:, 1:] = -(D + D.T) / 8.0
    return M, 0.25 * float(w.sum()), D


def solve(g: SignedGraph, cfg: SolverConfig | None = None, rng=None) -> CutResult:
    """Best cut over cfg.restarts runs of ascent, rounding and local search;
    run r draws from default_rng((seed, r)), seed coming from rng when given."""
    cfg = cfg or SolverConfig()
    n = g.n
    u, v, w = g.edge_arrays
    if n == 0 or w.size == 0:
        return CutResult(frozenset(), 0.0, 0.0, 0, 0)
    M, const, D = _relaxation(g)
    local_search = _local_search_directed if g.directed else _local_search_undirected
    k = cfg.rank if cfg.rank is not None else default_rank(n)
    base = cfg.seed if rng is None else int(rng.integers(0, 2**63 - 1))
    best_relax = -math.inf
    best_x = None
    best_weight = -math.inf
    for r in range(cfg.restarts):
        rr = np.random.default_rng((base, r))
        V, val = _ascend(M, const, k, cfg.max_iterations, cfg.tol, rr)
        best_relax = max(best_relax, val)
        x = _round(V, u, v, w, cfg.hyperplanes, rr, g.directed, cfg.rotation)
        if cfg.local_search:
            x = local_search(D, x, 10 * n)
        weight = float(w[_crossing(x, u, v, g.directed)].sum())
        if weight > best_weight:
            best_weight = weight
            best_x = x
    S = frozenset(int(i) for i in np.nonzero(best_x)[0])
    weight = cut_weight(g, S)
    return CutResult(S, weight, max(best_relax, weight), cfg.restarts, cfg.restarts * cfg.hyperplanes)


def brute_force_cut(g: SignedGraph) -> CutResult:
    """Exact best cut by subset enumeration; n is capped at 22."""
    if g.n > 22:
        raise ValueError("brute force is capped at n = 22")
    n = g.n
    u, v, w = g.edge_arrays
    if n == 0 or w.size == 0:
        return CutResult(frozenset(), 0.0, 0.0, 0, 1 if n == 0 else 2**n)
    best_val = -math.inf
    best_subset = 0
    chunk = 1 << min(n, 16)
    for start in range(0, 1 << n, chunk):
        subsets = np.arange(start, start + chunk, dtype=np.int64)
        vals = np.zeros(chunk)
        for uu, vv, ww in zip(u, v, w):
            bu = (subsets >> int(uu)) & 1
            bv = (subsets >> int(vv)) & 1
            if g.directed:
                vals += ww * (bu & (1 - bv))
            else:
                vals += ww * (bu ^ bv)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_subset = start + i
    S = frozenset(i for i in range(n) if (best_subset >> i) & 1)
    weight = cut_weight(g, S)
    return CutResult(S, weight, weight, 0, 2**n)
