"""Per-node graph features of a weighted connectivity graph.

Node degree, eigenvector centrality (power iteration), betweenness
centrality and the weighted clustering coefficient.  Edge weights must be
non-negative; correlation matrices are mapped through |rho| before graph use.

Betweenness is Brandes' accumulation over shortest paths with distance
1/weight, in a dense form vectorized over all sources: Floyd-Warshall
all-pairs distances, a predecessor tensor built with the relative path-tie
tolerance, then sigma and delta passes in per-source distance order.  It
needs O(N^3) working memory per graph (about 1.4 MB at N = 56).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectivity import ConnectivityMatrix
from .errors import NoConvergence, ZeroGraph

GRAPH_METRICS = ("ND", "EC", "BC", "CC")

# relative tolerance for treating two accumulated path distances as equal
_PATH_TOL = 1e-12
_EC_TOL = 1e-10
_EC_MAX_ITER = 10000


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph as a symmetric non-negative matrix."""

    weights: np.ndarray
    node_labels: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be symmetric")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        w = w.copy()
        np.fill_diagonal(w, 0.0)
        object.__setattr__(self, "weights", w)
        if self.node_labels and len(self.node_labels) != w.shape[0]:
            raise ValueError("node_labels length must match node count")

    @property
    def n(self):
        return self.weights.shape[0]


def from_connectivity(cm: ConnectivityMatrix) -> WeightedGraph:
    """Connectivity matrix as a graph; COR entries pass through abs()."""
    w = np.abs(cm.values) if cm.metric == "COR" else cm.values
    return WeightedGraph(weights=w)


@dataclass(frozen=True)
class NodeScoreVector:
    metric: str
    scores: np.ndarray


def node_degree(g: WeightedGraph) -> NodeScoreVector:
    """Weighted degree: sum of incident edge weights per node."""
    return NodeScoreVector(metric="ND", scores=g.weights.sum(axis=1))


def eigenvector_centrality(g: WeightedGraph) -> NodeScoreVector:
    """Dominant eigenvector of the weight matrix by power iteration.

    Starts from the normalized all-ones vector (deterministic tie-break on
    degenerate spectra), converges when successive iterates differ by less
    than 1e-10 in max-norm.  The returned vector is unit-norm with
    non-negative entries (Perron-Frobenius).
    """
    w = g.weights
    if not np.any(w > 0):
        raise ZeroGraph("all edge weights are zero")
    # shift by the largest weighted degree: eigenvectors are unchanged but
    # the Perron eigenvalue becomes strictly dominant, so the iteration also
    # converges on bipartite graphs (whose spectrum is symmetric about zero)
    shift = w.sum(axis=1).max()
    v = np.ones(g.n) / np.sqrt(g.n)
    for _ in range(_EC_MAX_ITER):
        nxt = w @ v + shift * v
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            # start vector in the null space; nudge with the degree vector
            nxt = w.sum(axis=1)
            norm = np.linalg.norm(nxt)
        nxt /= norm
        if np.max(np.abs(nxt - v)) < _EC_TOL:
            v = nxt
            break
        v = nxt
    else:
        raise NoConvergence(
            f"power iteration did not converge in {_EC_MAX_ITER} iterations"
        )
    if v.sum() < 0:
        v = -v
    # tiny negative round-off is clipped; the Perron vector is non-negative
    v = np.clip(v, 0.0, None)
    v /= np.linalg.norm(v)
    return NodeScoreVector(metric="EC", scores=v)


def betweenness_centrality(g: WeightedGraph) -> NodeScoreVector:
    """Brandes betweenness over shortest paths with distance 1/weight.

    Dense form, vectorized over all sources at once: all-pairs distances
    by Floyd-Warshall relaxation, then the shortest-path predecessor tensor
    pred[s, v, u] (u precedes v on a shortest s -> v path), then Brandes'
    path-count (sigma) forward pass and dependency (delta) backward pass,
    each as N steps over the nodes in per-source distance order.

    Zero-weight edges are treated as absent.  Path-length ties are counted
    with relative tolerance 1e-12 (|d(s,u) + 1/w(u,v) - d(s,v)| at most
    1e-12 * max(1, d(s,v))); sigma counts stay exact integers.  Unordered
    pairs are counted once (undirected halving).  Working memory is O(N^3)
    per graph, about 1.4 MB at N = 56.
    """
    w = g.weights
    n = g.n
    length = np.divide(1.0, w, out=np.full_like(w, np.inf), where=w > 0)
    dist = length.copy()
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)

    # per-source node order by distance; the source itself comes first
    order = np.argsort(dist, axis=1, kind="stable")
    sources = np.arange(n)
    rank = np.empty_like(order)
    rank[sources[:, None], order] = sources[None, :]
    # unreachable pairs give inf - inf = nan, which compares False
    gap = dist[:, None, :] + length[None, :, :]
    with np.errstate(invalid="ignore"):
        gap -= dist[:, :, None]
    np.abs(gap, out=gap)
    pred = gap <= _PATH_TOL * np.maximum(1.0, dist)[:, :, None]
    # predecessors come earlier in the order, so the passes below see a DAG
    pred &= rank[:, None, :] < rank[:, :, None]

    sigma = np.eye(n)
    for k in range(1, n):
        v = order[:, k]
        sigma[sources, v] = np.einsum("su,su->s", pred[sources, v], sigma)

    delta = np.zeros((n, n))
    for k in range(n - 1, 0, -1):
        v = order[:, k]
        # a predecessor implies a reachable v, so its sigma is positive
        share = np.divide(sigma, sigma[sources, v, None], out=np.zeros((n, n)),
                          where=pred[sources, v])
        share *= (1.0 + delta[sources, v])[:, None]
        delta += share
    np.fill_diagonal(delta, 0.0)
    return NodeScoreVector(metric="BC", scores=delta.sum(axis=0) / 2.0)


def clustering_coefficient(g: WeightedGraph) -> NodeScoreVector:
    """Weighted clustering via geometric-mean triangle intensities.

    Weights are normalized by the global maximum; the per-node sum of cube
    roots of triangle weight products is scaled by 1/(d_u (d_u - 1)) with
    d_u the weighted degree.  Nodes with negligible d_u (d_u - 1) score 0.
    """
    w = g.weights
    w_max = w.max()
    if w_max <= 0:
        raise ZeroGraph("all edge weights are zero")
    w_hat = np.cbrt(w / w_max)
    triangle_sum = np.diagonal(w_hat @ w_hat @ w_hat).copy()
    degrees = w.sum(axis=1)
    denom = degrees * (degrees - 1.0)
    scores = np.where(np.abs(denom) < 1e-12, 0.0,
                      triangle_sum / np.where(np.abs(denom) < 1e-12, 1.0, denom))
    return NodeScoreVector(metric="CC", scores=scores)


_METRIC_FUNCS = {
    "ND": node_degree,
    "EC": eigenvector_centrality,
    "BC": betweenness_centrality,
    "CC": clustering_coefficient,
}


def node_scores(g: WeightedGraph, metric: str) -> NodeScoreVector:
    try:
        func = _METRIC_FUNCS[metric]
    except KeyError:
        raise ValueError(
            f"unknown graph metric {metric!r}; expected one of {GRAPH_METRICS}"
        ) from None
    return func(g)
