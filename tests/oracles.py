"""Independent brute-force reference implementations.

These deliberately avoid the code paths they check: plain loops, direct
formula transcription and exhaustive enumeration only.  The signal
processing references are scipy.signal, a test-only dependency.  The
whole-stack corpus references at the end check the streaming structure of
ingest and featurization, not its numerics: they run the package's own steps,
but on every recording at once.
"""

import heapq
import itertools
import math
from pathlib import Path

import numpy as np
from scipy import signal

from eegid import connectivity, dsp, evaluation, graph, io_ingest, svm
from eegid.channels import resolve_policy


# --- dsp --------------------------------------------------------------------


def butter_bandpass_sos(order, low_hz, high_hz, fs_hz):
    return signal.butter(order, [low_hz, high_hz], btype="bandpass",
                         fs=fs_hz, output="sos")


def notch_sos(f0_hz, q, fs_hz):
    b, a = signal.iirnotch(f0_hz, q, fs=fs_hz)
    return signal.tf2sos(b, a)


def filtfilt_average(sos, padlen, data):
    """Mean of sosfiltfilt on the rows and on their time reversals."""
    sos = np.array(sos)  # scipy's compiled sosfilt refuses read-only sections
    fwd = signal.sosfiltfilt(sos, data, axis=1, padtype="odd", padlen=padlen)
    bwd = signal.sosfiltfilt(sos, data[:, ::-1], axis=1, padtype="odd",
                             padlen=padlen)[:, ::-1]
    return 0.5 * (fwd + bwd)


def pole_moduli(sos):
    """|pole| of every section of an (n_sections, 6) array, from the roots
    of each denominator."""
    return np.array([abs(r) for section in sos for r in np.roots(section[3:])])


def resample_poly_line(data, up, down):
    """Kaiser(14) polyphase resampling with line extension, floor length."""
    out = signal.resample_poly(data, up, down, axis=1, padtype="line",
                               window=("kaiser", 14.0))
    return out[:, :data.shape[1] * up // down]


def resample_whole(data, fs_hz, target_hz):
    """`dsp.resample` with the frames of every row gathered in one copy and
    multiplied in one matrix product: the whole-array form that the
    row-chunked resampler must equal bit for bit."""
    n_out = dsp.resampled_length(data.shape[1], fs_hz, target_hz)
    matrix, first, stride = dsp._polyphase_operator(*dsp._rational_ratio(target_hz, fs_hz))
    window, frame = matrix.shape
    n_frames = max(1, -(-n_out // frame))
    n = data.shape[1]
    at = first + stride * np.arange(n_frames)[:, None] + np.arange(window)
    frames = np.take(data, np.clip(at, 0, n - 1), axis=1)
    slope = (data[:, -1:] - data[:, :1]) / (n - 1)
    before, after = at < 0, at > n - 1
    frames[:, before] = data[:, :1] + at[before] * slope
    frames[:, after] = data[:, -1:] + (at[after] - (n - 1)) * slope
    out = (frames.reshape(-1, window) @ matrix).reshape(len(data), -1)
    return out[:, :n_out]


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


def wrap_phase(d):
    """Wrap phase differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(d, dtype=float), 2 * np.pi)


def pli_rows_parent(phases):
    """Upper-triangle PLI matrix of (channels, samples) phases, by the former
    `connectivity_matrix` row loop: the mean sign of the np.mod-wrapped
    differences.  Entries are exact, so the matrix code must match it bit
    for bit."""
    n = phases.shape[0]
    values = np.zeros((n, n))
    for m in range(n - 1):
        d = wrap_phase(phases[m][None, :] - phases[m + 1:])
        values[m, m + 1:] = np.abs(np.mean(np.sign(d), axis=1))
    return values


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


def rbf_loop(a, b, gamma):
    """K[i, j] = exp(-gamma * sum_k (a_ik - b_jk)^2), one entry at a time."""
    out = np.zeros((len(a), len(b)))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i, j] = math.exp(-gamma * sum((p - q) ** 2 for p, q in zip(u, v)))
    return out


def decision_values(model, x):
    """(n, n_classes) decision values, one fresh kernel per class.

    The per-class prediction path, transcribed term by term: class k's
    kernel spans only its own support vectors, the rows where its coefficient
    is nonzero, so the shared path must match it bit for bit.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xs = (x - model.means) / model.stds
    columns = []
    for coef, bias, sv in zip(model.dual_coef, model.bias, model.dual_coef != 0.0):
        t = model.train[sv]
        sq = (np.sum(xs * xs, axis=1)[:, None] + np.sum(t * t, axis=1)[None, :]
              - 2.0 * (xs @ t.T))
        np.clip(sq, 0.0, None, out=sq)
        columns.append(np.exp(-model.params.gamma * sq) @ coef[sv] + bias)
    return np.column_stack(columns)


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


def smo_scalar(kernel, y, c, tol=1e-3, max_iter=1_000_000):
    """Binary SMO on a precomputed Gram matrix, one pair update per step.

    Maximal-violating-pair selection (first index on ties); when that pair
    sits at a box corner, the next most violating pair that can move is
    taken.  Returns (alphas, f, bias, converged) with f = K (alphas * y).
    """
    kernel = np.asarray(kernel, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    alphas = np.zeros(n)
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij
    converged = False

    def try_update(i, j):
        """Analytic two-variable step; returns False if the pair cannot move."""
        k_i = kernel[i]
        k_j = kernel[j]
        eta = k_i[i] + k_j[j] - 2.0 * k_i[j]
        e_i = f[i] - y[i]
        e_j = f[j] - y[j]
        a_i, a_j = alphas[i], alphas[j]
        if y[i] != y[j]:
            lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        a_j_new = a_j + y[j] * (e_i - e_j) / max(eta, 1e-12)
        a_j_new = min(max(a_j_new, lo), hi)
        a_i_new = a_i + y[i] * y[j] * (a_j - a_j_new)
        d_i = (a_i_new - a_i) * y[i]
        d_j = (a_j_new - a_j) * y[j]
        if d_i == 0.0 and d_j == 0.0:
            return False
        alphas[i], alphas[j] = a_i_new, a_j_new
        f[:] = f + d_i * k_i + d_j * k_j
        return True

    for _ in range(max_iter):
        # violation scores: maximize y-f over I_up, minimize over I_low
        up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
        low = ((y < 0) & (alphas < c)) | ((y > 0) & (alphas > 0))
        g = y - f
        up_score = np.where(up, g, -np.inf)
        low_score = np.where(low, g, np.inf)
        i = int(np.argmax(up_score))
        j = int(np.argmin(low_score))
        if up_score[i] - low_score[j] < tol:
            converged = True
            break
        if try_update(i, j):
            continue
        # the top pair sits at a box corner and cannot move; scan for the
        # next most violating pair that can
        moved = False
        for ii in np.argsort(-up_score):
            ii = int(ii)
            if not np.isfinite(up_score[ii]):
                break
            for jj in np.argsort(low_score):
                jj = int(jj)
                if not np.isfinite(low_score[jj]):
                    break
                if up_score[ii] - low_score[jj] < tol:
                    break
                if ii == jj or (ii, jj) == (i, j):
                    continue
                if try_update(ii, jj):
                    moved = True
                    break
            if moved:
                break
        if not moved:
            # no violating pair can move: a fixed point short of the tolerance
            break

    free = (alphas > 1e-12) & (alphas < c - 1e-12)
    if np.any(free):
        bias = float(np.mean((y - f)[free]))
    else:
        up = ((y > 0) & (alphas < c)) | ((y < 0) & (alphas > 0))
        low = ((y < 0) & (alphas < c)) | ((y > 0) & (alphas > 0))
        g = y - f
        hi = np.max(np.where(up, g, -np.inf))
        lo = np.min(np.where(low, g, np.inf))
        bias = float((hi + lo) / 2.0)
    return alphas, f, bias, converged


def train_ovr_kept_rows(x, labels, folds):
    """{params: (train, dual_coef, bias, converged)} per (rows, grid) fold,
    as `svm.train_ovr` gave them when a fold kept its standardized rows from
    its preparation through its solves: the rows are standardized once and
    every point of the fold shares that array.  Each (fold, gamma) group is
    solved alone, which a lockstep run matches problem by problem."""
    results = []
    for rows, grid in folds:
        fold_labels = labels[rows]
        classes = sorted(set(fold_labels.tolist()))
        means, stds = svm.fit_standardizer(x[rows])
        train = svm.apply_standardizer(means, stds, x[rows])
        sq = svm._sq_dist(train, train)
        targets = np.array([np.where(fold_labels == cls, 1.0, -1.0) for cls in classes])
        by_gamma = {}
        for params in dict.fromkeys(grid):
            by_gamma.setdefault(params.gamma, []).append(params)
        models = {}
        for gamma, group in by_gamma.items():
            y = np.tile(targets, (len(group), 1))
            c = np.repeat([params.c for params in group], len(classes))
            alphas, f, converged = svm._smo(np.exp(sq * -gamma), np.zeros(len(y), int), y, c)
            for k, params in enumerate(group):
                own = slice(k * len(classes), (k + 1) * len(classes))
                coef = np.where(alphas[own] > 1e-12, alphas[own] * y[own], 0.0)
                bias = np.array([svm._bias(*problem, params.c)
                                 for problem in zip(y[own], alphas[own], f[own])])
                models[params] = (train, coef, bias, converged[own])
        results.append(models)
    return results


# --- whole-stack corpus and features --------------------------------------------


def decoded_list(manifest):
    """Every manifest entry decoded, windowed, channel-selected and resampled
    into one list before anything is preprocessed."""
    channel_set = resolve_policy(manifest["channel_policy"])
    recordings = []
    for entry in manifest["entries"]:
        if entry["format"] == "edf":
            data, rate, names = io_ingest.parse_edf(Path(entry["path"]).read_bytes())
        else:
            with open(entry["path"], encoding="utf-8") as fh:
                data, rate, names = io_ingest.load_matrix(fh, entry["sampling_rate_hz"],
                                                          entry["channel_names"])
        i0, i1 = io_ingest._window_columns(*entry["window_s"], rate, data.shape[1])
        window = data[:, i0:i1][io_ingest._channel_rows(names, channel_set)]
        recordings.append(dsp.resample(window, rate, manifest["target_rate_hz"]))
    return recordings


def preprocessed_whole(manifest, notch_hz=50.0, notch_q=30.0, filter_order=4):
    """The corpus arrays from a list of every decoded recording, concatenated
    after preprocessing."""
    recordings = decoded_list(manifest)
    rate = float(manifest["target_rate_hz"])
    data = np.concatenate([dsp.preprocess(samples, rate, notch_hz=notch_hz, notch_q=notch_q,
                                          order=filter_order)
                           for samples in recordings], axis=1)
    return {"data": data,
            "ends": np.cumsum([samples.shape[1] for samples in recordings]),
            "provenance": np.array([(entry["dataset_id"], entry["subject_id"],
                                     entry["condition"]) for entry in manifest["entries"]]),
            "rate": np.array(rate),
            "filters": np.array(evaluation.filter_tag(notch_hz, notch_q, filter_order))}


def features_whole(corpus, config, condition):
    """(x, labels, provenance) of one condition from its whole (E, N, M)
    epoch stack, band-filtered before any epoch is featurized."""
    rate, ends = float(corpus["rate"]), corpus["ends"]
    starts = ends - np.diff(ends, prepend=0)
    picked = np.flatnonzero(corpus["provenance"][:, 2] == condition)
    stacks = [dsp.split_epochs(dsp.bandpass(corpus["data"][:, starts[i]:ends[i]], rate,
                                            dsp.BANDS[config.band], config.filter_order),
                               rate, config.epoch_length_s)
              for i in picked]
    counts = [len(stack) for stack in stacks]
    epochs = np.concatenate(stacks)
    rows = []
    for data in epochs:
        values = connectivity.connectivity_matrix(data, config.metric)
        rows.append(connectivity.vectorize_upper(values) if config.gb_metric is None else
                    graph.node_scores(graph.from_connectivity(values, config.metric),
                                      config.gb_metric))
    provenance = corpus["provenance"][picked]
    labels = np.array([f"{dataset}/{subject}" for dataset, subject, _ in provenance.tolist()])
    return (np.vstack(rows), np.repeat(labels, counts),
            np.repeat(provenance, counts, axis=0))
