import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegid import dsp, graph
from eegid.connectivity import ConnectivityMatrix
from eegid.errors import ZeroGraph

from oracles import (
    betweenness_brandes_heap,
    betweenness_loop,
    clustering_loop,
    degree_loop,
    dominant_eigenvector_dense,
)


def random_graph(rng, n, sparsity=0.0):
    w = rng.uniform(0.0, 1.0, (n, n))
    if sparsity:
        w[rng.uniform(size=(n, n)) < sparsity] = 0.0
    w = np.triu(w, k=1)
    return graph.WeightedGraph(weights=w + w.T)


class TestWeightedGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            graph.WeightedGraph(weights=np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_negative(self):
        w = np.array([[0.0, -0.2], [-0.2, 0.0]])
        with pytest.raises(ValueError):
            graph.WeightedGraph(weights=w)

    def test_diagonal_zeroed(self):
        g = graph.WeightedGraph(weights=np.ones((3, 3)))
        np.testing.assert_array_equal(np.diag(g.weights), 0.0)

    def test_from_connectivity_abs_for_cor(self):
        values = np.array([[0.0, -0.8], [-0.8, 0.0]])
        cm = ConnectivityMatrix(metric="COR", values=values, band=dsp.GAMMA)
        g = graph.from_connectivity(cm)
        assert g.weights[0, 1] == 0.8


class TestNodeDegree:
    def test_triangle(self):
        w = np.array([[0.0, 0.3, 0.5],
                      [0.3, 0.0, 0.2],
                      [0.5, 0.2, 0.0]])
        nd = graph.node_degree(graph.WeightedGraph(weights=w))
        np.testing.assert_allclose(nd.scores, [0.8, 0.5, 0.7], atol=1e-15)

    def test_oracle_equivalence(self, rng):
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(3, 12)))
            np.testing.assert_allclose(
                graph.node_degree(g).scores, degree_loop(g.weights), atol=1e-12)


class TestEigenvectorCentrality:
    def test_complete_graph_uniform(self):
        w = np.ones((5, 5))
        ec = graph.eigenvector_centrality(graph.WeightedGraph(weights=w))
        np.testing.assert_allclose(ec.scores, 1 / np.sqrt(5), atol=1e-9)

    def test_star_graph(self):
        # hub of a star: dominant eigenvector is (1, 1/sqrt(k), ...) pattern
        n = 5
        w = np.zeros((n, n))
        w[0, 1:] = w[1:, 0] = 1.0
        ec = graph.eigenvector_centrality(graph.WeightedGraph(weights=w)).scores
        assert ec[0] == pytest.approx(1 / np.sqrt(2), abs=1e-8)
        np.testing.assert_allclose(ec[1:], ec[1], atol=1e-8)
        assert ec[0] > ec[1]

    def test_oracle_equivalence(self, rng):
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(3, 12)))
            _, expected = dominant_eigenvector_dense(g.weights)
            np.testing.assert_allclose(
                graph.eigenvector_centrality(g).scores, expected, atol=1e-8)

    def test_unit_norm_nonnegative(self, rng):
        g = random_graph(rng, 10, sparsity=0.5)
        ec = graph.eigenvector_centrality(g).scores
        assert np.linalg.norm(ec) == pytest.approx(1.0, abs=1e-12)
        assert np.all(ec >= 0.0)

    def test_zero_graph(self):
        with pytest.raises(ZeroGraph):
            graph.eigenvector_centrality(graph.WeightedGraph(weights=np.zeros((4, 4))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBetweennessCentrality:
    def test_path_graph(self):
        # chain 0-1-2-3: middle nodes lie on 2 and 2 shortest paths
        n = 4
        w = np.zeros((n, n))
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 1.0
        bc = graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores
        np.testing.assert_allclose(bc, [0.0, 2.0, 2.0, 0.0], atol=1e-12)

    def test_complete_equal_weights_zero(self):
        w = np.ones((5, 5))
        bc = graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores
        np.testing.assert_allclose(bc, 0.0, atol=1e-12)

    def test_tie_splitting(self):
        # square 0-1-2-3-0: both two-hop routes between opposite corners
        # tie, so each middle node gets half a pair
        w = np.zeros((4, 4))
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            w[a, b] = w[b, a] = 1.0
        bc = graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores
        np.testing.assert_allclose(bc, 0.5, atol=1e-12)

    def test_oracle_equivalence(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 8))
            g = random_graph(rng, n, sparsity=0.4)
            np.testing.assert_allclose(
                graph.betweenness_centrality(g).scores,
                betweenness_loop(g.weights), atol=1e-9)

    def test_dense_56_matches_heap_oracle(self, rng):
        for _ in range(5):
            g = random_graph(rng, 56)
            np.testing.assert_allclose(
                graph.betweenness_centrality(g).scores,
                betweenness_brandes_heap(g.weights), atol=1e-9)

    def test_equal_weight_ties_match_heap_oracle(self, rng):
        # unit weights on a sparse graph: many shortest paths tie exactly
        for _ in range(20):
            n = int(rng.integers(12, 21))
            w = np.triu((rng.uniform(size=(n, n)) < 0.3).astype(float), k=1)
            w = w + w.T
            np.testing.assert_allclose(
                graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores,
                betweenness_brandes_heap(w), atol=1e-9)

    def test_disconnected_components(self, rng):
        # no path crosses between components, so each scores as if alone
        a, b = random_graph(rng, 7, sparsity=0.3), random_graph(rng, 5, sparsity=0.3)
        w = np.zeros((12, 12))
        w[:7, :7] = a.weights
        w[7:, 7:] = b.weights
        bc = graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores
        np.testing.assert_allclose(bc[:7], betweenness_loop(a.weights), atol=1e-9)
        np.testing.assert_allclose(bc[7:], betweenness_loop(b.weights), atol=1e-9)

    def test_isolated_nodes_score_zero(self):
        bc = graph.betweenness_centrality(
            graph.WeightedGraph(weights=np.zeros((4, 4)))).scores
        np.testing.assert_array_equal(bc, 0.0)

    def test_wide_weight_range(self, rng):
        # distances 1/w from 1e-6 to 1e6 in one graph: two strong edges
        # (length 2e-6 together) beat the weak direct edge (length 1e6)
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1e6
        w[1, 2] = w[2, 1] = 1e6
        w[0, 2] = w[2, 0] = 1e-6
        bc = graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores
        np.testing.assert_array_equal(bc, [0.0, 1.0, 0.0])
        for _ in range(20):
            n = int(rng.integers(12, 21))
            w = 10.0 ** rng.uniform(-6, 6, (n, n))
            w[rng.uniform(size=(n, n)) < 0.5] = 0.0
            w = np.triu(w, k=1)
            w = w + w.T
            bc = graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores
            assert np.all(np.isfinite(bc)) and np.all(bc >= 0.0)
            np.testing.assert_allclose(bc, betweenness_brandes_heap(w), atol=1e-9)

    def test_heavier_edge_is_shorter(self):
        # distance is 1/weight: the strong direct edge 0-2 wins over 0-1-2
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        w[0, 2] = w[2, 0] = 10.0
        bc = graph.betweenness_centrality(graph.WeightedGraph(weights=w)).scores
        assert bc[1] == 0.0
        # 0-2 edge (distance 0.1) makes 1-0-2 shorter than 1-2 (distance 1)?
        # no: 1->2 direct costs 1.0, 1->0->2 costs 1.0 + 0.1 = 1.1, so node 0
        # carries nothing either
        assert bc[0] == 0.0


class TestClusteringCoefficient:
    def test_complete_graph_equal_weights(self):
        n = 4
        w = np.ones((n, n))
        np.fill_diagonal(w, 0.0)
        cc = graph.clustering_coefficient(graph.WeightedGraph(weights=w)).scores
        # each node: 2 * C(3,2) ordered triangle terms / (d (d-1)) with d = 3
        expected = 6.0 / (3.0 * 2.0)
        np.testing.assert_allclose(cc, expected, atol=1e-12)

    def test_triangle_free_zero(self):
        w = np.zeros((4, 4))
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            w[a, b] = w[b, a] = 0.5
        cc = graph.clustering_coefficient(graph.WeightedGraph(weights=w)).scores
        np.testing.assert_allclose(cc, 0.0, atol=1e-12)

    def test_isolated_node_zero(self, rng):
        g = random_graph(rng, 5)
        w = g.weights.copy()
        w[4, :] = w[:, 4] = 0.0
        cc = graph.clustering_coefficient(graph.WeightedGraph(weights=w)).scores
        assert cc[4] == 0.0

    def test_oracle_equivalence(self, rng):
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(3, 12)), sparsity=0.3)
            if not np.any(g.weights > 0):
                continue
            np.testing.assert_allclose(
                graph.clustering_coefficient(g).scores,
                clustering_loop(g.weights), atol=1e-12)

    def test_scaled_numerator_invariance(self, rng):
        # w_hat = w / w_max makes the triangle numerator scale invariant;
        # only the weighted-degree denominator changes under w -> s * w
        g = random_graph(rng, 6)
        base = graph.clustering_coefficient(g).scores
        d = g.weights.sum(axis=1)
        scaled = graph.clustering_coefficient(
            graph.WeightedGraph(weights=7.0 * g.weights)).scores
        np.testing.assert_allclose(scaled * (7 * d) * (7 * d - 1),
                                   base * d * (d - 1), rtol=1e-9)


class TestDispatcher:
    def test_all_metrics_dispatch(self, rng):
        g = random_graph(rng, 6)
        for metric in graph.GRAPH_METRICS:
            out = graph.node_scores(g, metric)
            assert out.metric == metric
            assert out.scores.shape == (6,)

    def test_unknown_metric(self, rng):
        with pytest.raises(ValueError, match="unknown graph metric"):
            graph.node_scores(random_graph(rng, 4), "XX")

    def test_feature_dimension_56(self, rng):
        g = random_graph(rng, 56)
        for metric in graph.GRAPH_METRICS:
            assert graph.node_scores(g, metric).scores.shape == (56,)


class TestInvariances:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 6, sparsity=0.3)
        if not np.any(g.weights > 0):
            return
        perm = rng.permutation(6)
        permuted = graph.WeightedGraph(weights=g.weights[np.ix_(perm, perm)])
        for metric in graph.GRAPH_METRICS:
            base = graph.node_scores(g, metric).scores
            out = graph.node_scores(permuted, metric).scores
            np.testing.assert_allclose(out, base[perm], atol=1e-8)

    @given(st.integers(0, 2**32 - 1), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=10, deadline=None)
    def test_ec_bc_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 6)
        scaled = graph.WeightedGraph(weights=scale * g.weights)
        np.testing.assert_allclose(graph.eigenvector_centrality(scaled).scores,
                                   graph.eigenvector_centrality(g).scores,
                                   atol=1e-8)
        np.testing.assert_allclose(graph.betweenness_centrality(scaled).scores,
                                   graph.betweenness_centrality(g).scores,
                                   atol=1e-9)


def test_disconnected_equal_cliques(rng):
    # two disjoint triangles with equal weights: EC must pick a deterministic
    # combination (all-ones start splits weight evenly across components)
    w = np.zeros((6, 6))
    for block in (range(0, 3), range(3, 6)):
        for a in block:
            for b in block:
                if a != b:
                    w[a, b] = 1.0
    ec = graph.eigenvector_centrality(graph.WeightedGraph(weights=w)).scores
    np.testing.assert_allclose(ec, ec[0], atol=1e-9)
    assert np.linalg.norm(ec) == pytest.approx(1.0, abs=1e-12)
