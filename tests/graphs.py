"""Signed graphs written out edge by edge, for the solver tests."""

import numpy as np

from ordagg.graph import SignedGraph


def signed_graph(n: int, directed: bool, weights: dict) -> SignedGraph:
    """The SignedGraph whose edges are a {(u, v): weight} dict of nonzero
    weights, with u < v when undirected."""
    keys = sorted(weights)
    u, v = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    return SignedGraph(n, directed, u, v, np.array([float(weights[k]) for k in keys]))
