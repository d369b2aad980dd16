import numpy as np
import pytest

import oracles
from hgct.compat import CompatConfig, build_compat_graph, sparse_weights
from hgct.errors import NoEdges
from hgct.geom import CorrSet
from hgct.hypergraph import gt_hypergraph, hyperedge_precision, init_hypergraph
from oracles import (dump, excluded_edge_count, hyperedge_degrees,
                     hyperedge_weights, initial_weights, vertex_degrees)


def _random_hypergraph(rng, n=10, density=0.4):
    """(boolean incidence, weights) of a random hypergraph."""
    h = rng.uniform(size=(n, n)) < density
    return h, h * rng.uniform(size=(n, n))


class TestInit:
    def test_three_clique(self):
        w = np.ones((3, 3)) - np.eye(3)
        h = init_hypergraph(sparse_weights(w))
        # every hyperedge contains all three vertices (self-membership added)
        assert h.dtype == bool and np.array_equal(h, np.ones((3, 3)))
        assert np.array_equal(hyperedge_degrees(h), [3, 3, 3])
        assert np.allclose(np.diag(initial_weights(w)), 1.0)

    def test_isolated_vertex(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 0.5
        h = init_hypergraph(sparse_weights(w))
        assert np.all(h[2] == 0) and np.all(h[:, 2] == 0)
        assert vertex_degrees(h)[2] == 0
        assert initial_weights(w)[2, 2] == 0.0

    def test_support_is_w_plus_diagonal(self, rng):
        for _ in range(20):
            w = rng.uniform(size=(8, 8)) * (rng.uniform(size=(8, 8)) < 0.3)
            w = np.triu(w, 1)
            w = w + w.T
            h = init_hypergraph(sparse_weights(w))
            for i in range(8):
                for j in range(8):
                    if i == j:
                        expected = 1.0 if np.any(w[i] > 0) else 0.0
                    else:
                        expected = 1.0 if w[i, j] > 0 else 0.0
                    assert h[i, j] == expected

    def test_initial_symmetry(self, rng):
        w = rng.uniform(size=(6, 6)) * (rng.uniform(size=(6, 6)) < 0.5)
        w = np.triu(w, 1)
        w = w + w.T
        h = init_hypergraph(sparse_weights(w))
        assert np.array_equal(h, h.T)
        assert np.array_equal(initial_weights(w), initial_weights(w).T)

    def test_from_real_compat_graph(self, rng):
        src = rng.uniform(-1, 1, (8, 3))
        cs = CorrSet(src, src + 1.0)
        g = build_compat_graph(cs, CompatConfig(sigma_d=0.1))
        h = init_hypergraph(g.w_h0)
        assert np.all((initial_weights(g.w_h0) > 0) <= (h > 0))

    def test_sparse_rule_equals_dense_rule(self, rng):
        # the positive entries scattered, and self-membership for every row
        # with one, found from the row bounds; negative and NaN entries are
        # listed in the sparse form but are not members
        for n in (1, 2, 5, 13, 40):
            for density in (0.0, 0.1, 0.5, 1.0):
                w = rng.normal(size=(n, n)) * (rng.uniform(size=(n, n)) < density)
                w[rng.integers(n)] = 0.0
                if n > 2:
                    w[0, 1] = np.nan
                want = oracles.init_hypergraph_reference(w)
                got = init_hypergraph(sparse_weights(w))
                assert got.dtype == bool and np.array_equal(got, want)


class TestDegrees:
    def test_empty(self):
        h = w_h = np.zeros((3, 3))
        assert np.all(vertex_degrees(h) == 0)
        assert np.all(hyperedge_degrees(h) == 0)
        assert np.all(hyperedge_weights(w_h) == 0)

    def test_complete(self):
        h = np.ones((4, 4))
        assert np.all(vertex_degrees(h) == 4)
        assert np.all(hyperedge_degrees(h) == 4)

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            h, w_h = _random_hypergraph(rng)
            dv, de = oracles.degrees_loop(h)
            assert np.allclose(vertex_degrees(h), dv)
            assert np.allclose(hyperedge_degrees(h), de)
            assert np.allclose(hyperedge_weights(w_h), oracles.edge_weights_loop(w_h))


class TestGtHypergraph:
    def test_all_inliers(self):
        h = gt_hypergraph([True] * 4)
        assert h.dtype == bool and np.array_equal(h, np.ones((4, 4)))

    def test_no_inliers(self):
        assert np.array_equal(gt_hypergraph([False] * 4), np.zeros((4, 4)))

    def test_mixed_block_pattern(self, rng):
        labels = np.array([True, False, True, False, True])
        h = gt_hypergraph(labels)
        for i in range(5):
            for j in range(5):
                assert h[i, j] == float(labels[i] and labels[j])


class TestPrecision:
    def test_pure_inlier_edges(self):
        labels = [True, True, False]
        h = np.zeros((3, 3), dtype=bool)
        h[0, 0] = h[1, 0] = h[1, 1] = h[0, 1] = True
        assert hyperedge_precision(h, labels) == 1.0
        assert excluded_edge_count(h) == 1

    def test_half_inlier_edges(self):
        labels = [True, False, True, False]
        h = np.zeros((4, 4), dtype=bool)
        h[0, 0] = h[1, 0] = True
        h[2, 1] = h[3, 1] = True
        assert hyperedge_precision(h, labels) == 0.5

    def test_matches_set_oracle(self, rng):
        for _ in range(30):
            h, _ = _random_hypergraph(rng)
            labels = rng.uniform(size=10) < 0.5
            if not np.any(h.sum(axis=0) > 0):
                continue
            expected = oracles.hyperedge_precision_loop(h, labels)
            assert hyperedge_precision(h, labels) == pytest.approx(expected, abs=1e-12)

    def test_no_edges_raises(self):
        with pytest.raises(NoEdges):
            hyperedge_precision(np.zeros((3, 3), dtype=bool), [True, True, True])

    def test_gt_precision_is_one(self):
        labels = np.array([True, False, True, True, False])
        assert hyperedge_precision(gt_hypergraph(labels), labels) == 1.0

    def test_noise_free_zero_outlier_scene(self, rng):
        src = rng.uniform(-1, 1, (8, 3))
        cs = CorrSet(src, src + 0.7, labels=np.ones(8, dtype=bool))
        g = build_compat_graph(cs, CompatConfig(sigma_d=0.1))
        assert hyperedge_precision(init_hypergraph(g.w_h0), cs.labels) == 1.0


class TestWeightedMembershipPrecision:
    def test_gt_uniform_weights_is_one(self):
        labels = np.array([True, False, True, True, False])
        h = gt_hypergraph(labels)
        assert oracles.weighted_membership_precision(h, h.copy(), labels) == 1.0

    def test_oracle_weighting_beats_anti_oracle(self):
        labels = np.array([True, True, False, False])
        h = np.ones((4, 4))
        good = np.outer(labels, labels).astype(float)
        oracle = 0.9 * good + 0.1 * (1.0 - good)
        anti = 0.1 * good + 0.9 * (1.0 - good)
        p_oracle = oracles.weighted_membership_precision(h, oracle, labels)
        p_anti = oracles.weighted_membership_precision(h, anti, labels)
        assert p_oracle == pytest.approx(3.6 / 4.8, abs=1e-12)
        assert p_anti == pytest.approx(0.4 / 11.2, abs=1e-12)
        assert p_oracle > p_anti

    def test_weight_off_support_is_ignored(self):
        labels = np.array([True, True, False])
        h = np.zeros((3, 3))
        h[0, 1] = h[2, 1] = 1.0
        w = np.full((3, 3), 5.0)
        w[0, 1], w[2, 1] = 3.0, 1.0
        assert oracles.weighted_membership_precision(h, w, labels) == 0.75

    def test_no_weight_raises(self):
        with pytest.raises(ValueError):
            oracles.weighted_membership_precision(np.zeros((3, 3)), np.ones((3, 3)),
                                                  [True, False, True])


class TestDump:
    def test_format(self):
        h = np.zeros((3, 3))
        h[0, 0] = h[1, 0] = 1.0
        w = h * 0.5
        lines = dump(h, w).splitlines()
        assert lines[0] == "edge 0: v=[0 1] w=[0.5 0.5]"
        assert lines[1] == "edge 1: v=[] w=[]"
        assert len(lines) == 3
