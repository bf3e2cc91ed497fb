"""Per-node graph features of a weighted connectivity graph.

Node degree, eigenvector centrality (power iteration), betweenness
centrality and the weighted clustering coefficient.  Each metric takes the
(N, N) weight matrix itself: symmetric, zero on the diagonal and
non-negative, which is what `from_connectivity` makes of a connectivity
matrix (correlations go through |rho|).  The metrics do not check that, and
they never write to the matrix.

Betweenness is Brandes' accumulation over shortest paths with distance
1/weight, in a dense form vectorized over all sources: Floyd-Warshall
all-pairs distances, a predecessor tensor built with the relative path-tie
tolerance, then sigma and delta passes in per-source distance order.  It
needs O(N^3) working memory per graph (about 1.4 MB at N = 56).
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, ZeroGraph

GRAPH_METRICS = ("ND", "EC", "BC", "CC")

# relative tolerance for treating two accumulated path distances as equal
_PATH_TOL = 1e-12
_EC_TOL = 1e-10
_EC_MAX_ITER = 10000


def from_connectivity(values: np.ndarray, metric: str) -> np.ndarray:
    """Graph weights of a connectivity matrix: |rho| for COR, else the
    matrix itself (not a copy)."""
    return np.abs(values) if metric == "COR" else values


def node_degree(w: np.ndarray) -> np.ndarray:
    """Weighted degree: sum of incident edge weights per node."""
    return w.sum(axis=1)


def eigenvector_centrality(w: np.ndarray) -> np.ndarray:
    """Dominant eigenvector of the weight matrix by power iteration.

    Weights are normalized by the global maximum, so the result does not
    depend on their scale.  Starts from the normalized all-ones vector
    (deterministic tie-break on degenerate spectra), converges when
    successive iterates differ by less than 1e-10 in max-norm.  The returned
    vector is unit-norm with positive entries (Perron-Frobenius).
    """
    w_max = w.max()
    if w_max <= 0:
        raise ZeroGraph("all edge weights are zero")
    w = w / w_max
    # shift by the largest weighted degree: eigenvectors are unchanged but
    # the Perron eigenvalue becomes strictly dominant, so the iteration also
    # converges on bipartite graphs (whose spectrum is symmetric about zero).
    # The shift is at least 1, so from a positive unit vector every iterate is
    # positive with norm at least 1.
    shift = w.sum(axis=1).max()
    n = w.shape[0]
    v = np.ones(n) / np.sqrt(n)
    for _ in range(_EC_MAX_ITER):
        nxt = w @ v + shift * v
        nxt /= np.linalg.norm(nxt)
        if np.max(np.abs(nxt - v)) < _EC_TOL:
            return nxt
        v = nxt
    raise NoConvergence(
        f"power iteration did not converge in {_EC_MAX_ITER} iterations"
    )


def betweenness_centrality(w: np.ndarray) -> np.ndarray:
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
    n = w.shape[0]
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
    return delta.sum(axis=0) / 2.0


def clustering_coefficient(w: np.ndarray) -> np.ndarray:
    """Weighted clustering via geometric-mean triangle intensities.

    Weights are normalized by the global maximum; the per-node sum of cube
    roots of triangle weight products is scaled by 1/(d_u (d_u - 1)) with
    d_u the weighted degree.  Nodes with negligible d_u (d_u - 1) score 0.
    """
    w_max = w.max()
    if w_max <= 0:
        raise ZeroGraph("all edge weights are zero")
    w_hat = np.cbrt(w / w_max)
    triangle_sum = np.diagonal(w_hat @ w_hat @ w_hat).copy()
    degrees = w.sum(axis=1)
    denom = degrees * (degrees - 1.0)
    return np.where(np.abs(denom) < 1e-12, 0.0,
                    triangle_sum / np.where(np.abs(denom) < 1e-12, 1.0, denom))


_METRIC_FUNCS = {
    "ND": node_degree,
    "EC": eigenvector_centrality,
    "BC": betweenness_centrality,
    "CC": clustering_coefficient,
}


def node_scores(w: np.ndarray, metric: str) -> np.ndarray:
    """One score per node for the named graph metric."""
    try:
        func = _METRIC_FUNCS[metric]
    except KeyError:
        raise ValueError(
            f"unknown graph metric {metric!r}; expected one of {GRAPH_METRICS}"
        ) from None
    return func(w)
