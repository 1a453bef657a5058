"""Approximate MaxCut on signed graphs, plus an exact brute-force oracle.

The semidefinite relaxation is optimized in low-rank form: one unit row per
node (directed graphs add a distinguished row v0), and ascent steps
V <- row_normalize(M V + diag(c) V), the generalized power method of Journee,
Bach, Absil and Sepulchre. Each row takes its own shift c_i = s d_i, with d_i
the row's absolute weight sum_j |M_ij| and s the smallest scale that keeps
M + diag(c) positive semidefinite: -lambda_min(D^-1/2 M D^-1/2), computed once
per solve, plus a tiny margin. Rows have unit length, so tr(V^T diag(c) V) is
a constant and every step increases tr(V^T M V). Each row's step is sized by
its own weight rather than by the heaviest row's, so on `mas`, whose M is a
star around v0, every row turns about half way toward +-v0 per step and the
ascent converges in a few steps. Iteration stops on a relative tolerance.
Each solve runs this ascent once: at rank about sqrt(2n) it has no spurious
local optima for generic costs (Boumal, Voroninski and Bandeira), and
hyperplane rounding is invariant under rotations of V, so a second ascent
would add no variety that rounding does not.
Each of the `restarts` rounding rounds then draws a batch of random
hyperplanes from that one V and keeps the best cut; directed rounding first
rotates every row into the plane it spans with v0, at the angle f_half of its
v0 angle. The weight of every hyperplane's cut comes from one product with
the dense weight matrix, x^T D (1 - x) per 0/1 membership column x, which is
exact for integer weights. A greedy single-vertex local search on D polishes
each round's cut, one search for both kinds of graph because D is symmetric
when the graph is undirected, and the best round wins.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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
    # steps of the relaxation ascent, and whether it met ASCENT_TOL before
    # max_iterations; a solve without an ascent (no edges) has nothing to climb
    ascent_iterations: int = 0
    converged: bool = True
    # wall time of the relaxation (building M, its shift and the ascent) and
    # of the rounding rounds with their local search; not part of the result
    ascent_ms: float = field(default=0.0, compare=False)
    rounding_ms: float = field(default=0.0, compare=False)


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


def _shift(M: np.ndarray) -> np.ndarray:
    """Per-row shifts c = s d with M + diag(c) positive semidefinite: d_i is
    row i's absolute weight (1 for an empty row) and s the smallest valid
    scale, -lambda_min(D^-1/2 M D^-1/2), plus a margin of 1e-9 against
    eigenvalue rounding (the normalized matrix's spectrum lies in [-1, 1]).
    Every c_i is positive, also for a zero M (a directed graph whose weights
    cancel). One n x n buffer holds |M| and then the normalized matrix."""
    N = np.abs(M)
    d = N.sum(axis=1)
    d[d == 0.0] = 1.0
    r = 1.0 / np.sqrt(d)
    np.multiply(M, r[:, None], out=N)
    N *= r
    lam_min = float(np.linalg.eigvalsh(N)[0])
    return (max(0.0, -lam_min) + 1e-9) * d


def _ascend(M: np.ndarray, const: float, c: np.ndarray, k: int, max_iterations: int,
            tol: float, rng):
    """(V, value, steps, converged): the ascent with per-row shifts c from a
    random rank-k start until a step gains at most tol relative, or for
    max_iterations steps."""
    n = M.shape[0]
    V = _row_normalize(rng.standard_normal((n, k)))
    MV = M @ V
    value = const + float(np.vdot(V, MV))
    c = c[:, None]
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


def _local_search(W, x, max_flips):
    """Flip the single node whose move across the cut gains the most, until
    none gains more than 1e-12 or after max_flips flips. p_i is the weight of
    the arcs from S into i and q_i that of the arcs from i out of S; on a
    symmetric W, p - q is the undirected gain s_i (W s)_i with s = 2x - 1."""
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
    w = g.weights
    D = np.zeros((n, n))
    D[g.u, g.v] = w
    if not g.directed:
        D[g.v, g.u] = w
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
    if n == 0 or g.weights.size == 0:
        return CutResult(frozenset(), 0.0, 0.0)
    t0 = time.perf_counter()
    M, const, D = _relaxation(g)
    base = cfg.seed if rng is None else int(rng.integers(0, 2**63 - 1))
    rr = np.random.default_rng((base, 0))
    V, relax, steps, converged = _ascend(M, const, _shift(M), default_rank(n),
                                         cfg.max_iterations, ASCENT_TOL, rr)
    t1 = time.perf_counter()
    if g.directed:
        V = _rotate_to_v0(V)
    best_x = None
    best_weight = -math.inf
    for r in range(cfg.restarts):
        if r:
            rr = np.random.default_rng((base, r))
        x = _round(V, D, cfg.hyperplanes, rr, g.directed)
        x = _local_search(D, x, 10 * n)
        weight = float(_cut_weights(D, x[:, None])[0])
        if weight > best_weight:
            best_weight = weight
            best_x = x
    S = frozenset(int(i) for i in np.nonzero(best_x)[0])
    weight = cut_weight(g, S)
    t2 = time.perf_counter()
    return CutResult(S, weight, max(relax, weight), steps, converged,
                     (t1 - t0) * 1000.0, (t2 - t1) * 1000.0)


def brute_force_cut(g: SignedGraph) -> CutResult:
    """Exact best cut by subset enumeration; n is capped at 22."""
    if g.n > 22:
        raise ValueError("brute force is capped at n = 22")
    n = g.n
    if n == 0 or g.weights.size == 0:
        return CutResult(frozenset(), 0.0, 0.0)
    best_val = -math.inf
    best_subset = 0
    chunk = 1 << min(n, 16)
    for start in range(0, 1 << n, chunk):
        subsets = np.arange(start, start + chunk, dtype=np.int64)
        vals = np.zeros(chunk)
        for uu, vv, ww in zip(g.u, g.v, g.weights):
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
    return CutResult(S, weight, weight)
