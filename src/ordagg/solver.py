"""Approximate MaxCut on signed graphs, plus an exact brute-force oracle.

The semidefinite relaxation is optimized in low-rank form: one unit row per
node (directed graphs add a distinguished row v0), and ascent steps
V <- row_normalize(M V + c V). The shift c is -lambda_min(M), computed once
per solve, plus a tiny margin: the smallest shift that keeps M + cI positive
semidefinite, so every step increases tr(V^T M V) with the largest steps
that guarantee it (Journee, Bach, Absil and Sepulchre's generalized power
method). Iteration stops on a relative tolerance. Each solve runs this ascent
once: at rank about sqrt(2n) it has no spurious local optima for generic
costs (Boumal, Voroninski and Bandeira), and hyperplane rounding is invariant
under rotations of V, so a second ascent would add no variety that rounding
does not.
Each of the `restarts` rounding rounds then draws a batch of random
hyperplanes from that one V and keeps the best cut; directed rounding can
first rotate every row into the plane it spans with v0, at the angle f_half
of its v0 angle. The weight of every hyperplane's cut comes from one product
with the dense weight matrix, x^T D (1 - x) per 0/1 membership column x,
which is exact for integer weights. A greedy single-vertex local search
polishes each round's cut, and the best round wins.
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


# the ascent stops once a step gains at most this much, relative
ASCENT_TOL = 1e-7


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 2000
    restarts: int = 8
    hyperplanes: int = 200
    rotation: bool = True
    local_search: bool = True
    seed: int = 0

    def __post_init__(self):
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
    # steps of the relaxation ascent, and whether it met ASCENT_TOL before
    # max_iterations; a solve without an ascent (no edges) has nothing to climb
    ascent_iterations: int = 0
    converged: bool = True


def f_half(theta):
    """Rotation curve theta/2 + (pi/4)(1 - cos theta) on [0, pi]."""
    th = np.asarray(theta, dtype=float)
    if np.any(th < -1e-9) or np.any(th > math.pi + 1e-9):
        raise ValueError("f_half is defined on [0, pi]")
    th = np.clip(th, 0.0, math.pi)
    out = 0.5 * th + 0.25 * math.pi * (1.0 - np.cos(th))
    return float(out) if np.ndim(theta) == 0 else out


def _row_normalize(V: np.ndarray) -> np.ndarray:
    """Scale the rows of V to unit length in place; zero rows stay zero."""
    norms = np.sqrt(np.einsum("ij,ij->i", V, V))
    norms[norms == 0.0] = 1.0
    V /= norms[:, None]
    return V


def _shift(M: np.ndarray) -> float:
    """Smallest c with M + cI positive semidefinite, plus a margin of 1e-9
    times the Gershgorin bound against eigenvalue rounding; a zero M (a
    directed graph whose weights cancel) takes any positive shift."""
    gershgorin = float(np.abs(M).sum(axis=1).max())
    lam_min = float(np.linalg.eigvalsh(M)[0])
    return (max(0.0, -lam_min) + 1e-9 * gershgorin) or 1.0


def _ascend(M: np.ndarray, const: float, c: float, k: int, max_iterations: int, tol: float, rng):
    """(V, value, steps, converged): the ascent from a random rank-k start
    until a step gains at most tol relative, or for max_iterations steps."""
    n = M.shape[0]
    V = _row_normalize(rng.standard_normal((n, k)))
    MV = M @ V
    value = const + float(np.vdot(V, MV))
    for step in range(1, max_iterations + 1):
        V *= c
        V += MV
        _row_normalize(V)
        np.matmul(M, V, out=MV)
        new = const + float(np.vdot(V, MV))
        converged = abs(new - value) <= tol * max(1.0, abs(new))
        value = new
        if converged:
            return V, value, step, True
    return V, value, max_iterations, False


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


def _cut_weights(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x^T D (1 - x) for each column x of the S-membership matrix X (one row
    per node): the weight of the arcs leaving S, which for a symmetric D is
    the weight of the undirected edges crossing the cut."""
    Xf = X.astype(float)
    return np.einsum("ij,ij->j", Xf, D @ (1.0 - Xf))


def _round(V, D, hyperplanes, rng, directed):
    """Best of a batch of hyperplane cuts as an S-membership mask; on directed
    graphs S is the side of v0 (row 0)."""
    H = rng.standard_normal((V.shape[1], hyperplanes))
    side = (V @ H) >= 0.0
    if directed:
        side = side[1:] == side[0][None, :]
    return side[:, int(np.argmax(_cut_weights(D, side)))].copy()


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
    the dense weight matrix that rounding and local search score cuts with
    (symmetric when undirected).
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
    """One ascent, then the best cut over cfg.restarts rounds of rounding and
    local search from its V. Round 0 draws the ascent's start and then its
    hyperplanes from default_rng((seed, 0)); round r >= 1 draws its hyperplanes
    from default_rng((seed, r)); seed comes from rng when given."""
    cfg = cfg or SolverConfig()
    n = g.n
    if n == 0 or not g.weights:
        return CutResult(frozenset(), 0.0, 0.0, 0, 0)
    M, const, D = _relaxation(g)
    local_search = _local_search_directed if g.directed else _local_search_undirected
    base = cfg.seed if rng is None else int(rng.integers(0, 2**63 - 1))
    rr = np.random.default_rng((base, 0))
    V, relax, steps, converged = _ascend(M, const, _shift(M), default_rank(n),
                                         cfg.max_iterations, ASCENT_TOL, rr)
    if g.directed and cfg.rotation:
        V = _rotate_to_v0(V)
    best_x = None
    best_weight = -math.inf
    for r in range(cfg.restarts):
        if r:
            rr = np.random.default_rng((base, r))
        x = _round(V, D, cfg.hyperplanes, rr, g.directed)
        if cfg.local_search:
            x = local_search(D, x, 10 * n)
        weight = float(_cut_weights(D, x[:, None])[0])
        if weight > best_weight:
            best_weight = weight
            best_x = x
    S = frozenset(int(i) for i in np.nonzero(best_x)[0])
    weight = cut_weight(g, S)
    return CutResult(S, weight, max(relax, weight), cfg.restarts,
                     cfg.restarts * cfg.hyperplanes, steps, converged)


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
