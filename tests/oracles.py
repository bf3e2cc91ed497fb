"""Independent brute-force reference implementations.

These deliberately avoid the code paths they check: plain loops, direct
formula transcription and exhaustive enumeration only.
"""

import heapq
import itertools
import math

import numpy as np


# --- connectivity ---------------------------------------------------------


def pearson_two_pass(x, y):
    """Two-pass covariance / population-std correlation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    return cov / (sx * sy)


def plv_loop(phi_x, phi_y):
    total = 0j
    for a, b in zip(phi_x, phi_y):
        total += complex(math.cos(a - b), math.sin(a - b))
    return abs(total) / len(phi_x)


def pli_loop(phi_x, phi_y):
    total = 0
    for a, b in zip(phi_x, phi_y):
        d = float(a - b)
        while d <= -math.pi:
            d += 2 * math.pi
        while d > math.pi:
            d -= 2 * math.pi
        total += (1 if d > 0 else 0) - (1 if d < 0 else 0)
    return abs(total) / len(phi_x)


def connectivity_loop(series_or_phases, metric):
    """Naive O(N^2) pairwise matrix from per-channel rows."""
    rows = series_or_phases
    n = len(rows)
    out = np.zeros((n, n))
    pair = {"COR": pearson_two_pass, "PLV": plv_loop, "PLI": pli_loop}[metric]
    for m in range(n):
        for k in range(m + 1, n):
            v = pair(list(rows[m]), list(rows[k]))
            out[m, k] = out[k, m] = v
    return out


# --- graph ----------------------------------------------------------------


def degree_loop(w):
    n = len(w)
    return np.array([sum(w[m][k] for k in range(n) if k != m) for m in range(n)])


def dominant_eigenvector_dense(w):
    """Dominant eigenpair from a full dense eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(w, dtype=float))
    idx = int(np.argmax(vals))
    v = vecs[:, idx]
    if v.sum() < 0:
        v = -v
    return vals[idx], v / np.linalg.norm(v)


def shortest_path_enumeration(w, tol=1e-9):
    """All-pairs shortest-path distance and path counts by exhaustive
    enumeration of simple paths on distance 1/weight."""
    n = len(w)
    inf = float("inf")
    best = [[inf] * n for _ in range(n)]
    paths = [[[] for _ in range(n)] for _ in range(n)]
    nodes = list(range(n))
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            for length in range(1, n):
                for middle in itertools.permutations([v for v in nodes if v not in (s, t)], length - 1):
                    path = (s,) + middle + (t,)
                    dist = 0.0
                    ok = True
                    for a, b in zip(path, path[1:]):
                        if w[a][b] <= 0:
                            ok = False
                            break
                        dist += 1.0 / w[a][b]
                    if not ok:
                        continue
                    if dist < best[s][t] - tol:
                        best[s][t] = dist
                        paths[s][t] = [path]
                    elif abs(dist - best[s][t]) <= tol:
                        paths[s][t].append(path)
    return best, paths


def betweenness_loop(w, tol=1e-9):
    """Betweenness by exhaustive shortest-path enumeration (unordered pairs)."""
    n = len(w)
    _, paths = shortest_path_enumeration(w, tol)
    scores = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            all_paths = paths[s][t]
            if not all_paths:
                continue
            sigma = len(all_paths)
            for u in range(n):
                if u in (s, t):
                    continue
                through = sum(1 for p in all_paths if u in p)
                scores[u] += through / sigma
    return scores


def betweenness_brandes_heap(w):
    """Brandes betweenness with a heap Dijkstra per source (unordered pairs).

    Scales to graphs far beyond `betweenness_loop`'s exhaustive enumeration.
    Distance is 1/weight, zero weights are absent edges, and path-length
    ties use the relative tolerance 1e-12 * max(1, dist).
    """
    path_tol = 1e-12
    w = np.asarray(w, dtype=float)
    n = len(w)
    neighbors = [np.flatnonzero(w[u] > 0) for u in range(n)]
    dist_matrix = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), np.inf)
    scores = np.zeros(n)
    for s in range(n):
        dist = np.full(n, np.inf)
        sigma = np.zeros(n)
        preds = [[] for _ in range(n)]
        dist[s] = 0.0
        sigma[s] = 1.0
        order = []
        done = np.zeros(n, dtype=bool)
        heap = [(0.0, s)]
        while heap:
            d_u, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            order.append(u)
            for v in neighbors[u]:
                if done[v]:
                    continue
                alt = d_u + dist_matrix[u, v]
                tol = path_tol * max(1.0, abs(dist[v]) if np.isfinite(dist[v]) else 0.0)
                if alt < dist[v] - tol:
                    dist[v] = alt
                    sigma[v] = sigma[u]
                    preds[v] = [u]
                    heapq.heappush(heap, (alt, v))
                elif abs(alt - dist[v]) <= tol:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n)
        for u in reversed(order):
            for p in preds[u]:
                delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
            if u != s:
                scores[u] += delta[u]
    return scores / 2.0


def clustering_loop(w):
    """Direct triple-loop transcription of the weighted clustering formula."""
    w = np.asarray(w, dtype=float)
    n = len(w)
    w_max = w.max()
    w_hat = w / w_max
    degrees = degree_loop(w)
    scores = np.zeros(n)
    for u in range(n):
        denom = degrees[u] * (degrees[u] - 1.0)
        if abs(denom) < 1e-12:
            continue
        total = 0.0
        for m in range(n):
            for k in range(n):
                if len({u, m, k}) != 3:
                    continue
                total += (w_hat[u][m] * w_hat[u][k] * w_hat[m][k]) ** (1.0 / 3.0)
        scores[u] = total / denom
    return scores


# --- svm ---------------------------------------------------------------------


def kkt_violations(x, y, alphas, bias, c, gamma):
    """Per-point KKT residuals for the soft-margin dual solution.

    Returns the largest violation across the three complementary cases.
    """
    x = np.asarray(x, dtype=float)
    n = len(y)
    worst = 0.0
    for i in range(n):
        f = bias
        for j in range(n):
            d = x[i] - x[j]
            f += alphas[j] * y[j] * math.exp(-gamma * float(np.dot(d, d)))
        margin = y[i] * f
        if alphas[i] <= 1e-9:
            worst = max(worst, 1.0 - margin)  # must be >= 1
        elif alphas[i] >= c - 1e-9:
            worst = max(worst, margin - 1.0)  # must be <= 1
        else:
            worst = max(worst, abs(margin - 1.0))  # must be == 1
    return worst


def dual_objective(x, y, alphas, gamma):
    x = np.asarray(x, dtype=float)
    n = len(y)
    quad = 0.0
    for i in range(n):
        for j in range(n):
            d = x[i] - x[j]
            quad += alphas[i] * alphas[j] * y[i] * y[j] * math.exp(-gamma * float(np.dot(d, d)))
    return sum(alphas) - 0.5 * quad
