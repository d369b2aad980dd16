import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hgct import kernels
from hgct.compat import (CompatConfig, GraphOrder, build_compat_graph,
                         dynamic_threshold, round_half_up)
from hgct.errors import EmptyGraph
from hgct.geom import CorrSet
from oracles import Correspondence, Point3, compat_score, rigid_distance


def _corr(src, tgt):
    return Correspondence(Point3.from_array(np.asarray(src, float)),
                          Point3.from_array(np.asarray(tgt, float)))


def _random_set(rng, n=10, scale=1.0):
    return CorrSet(rng.uniform(-scale, scale, (n, 3)),
                   rng.uniform(-scale, scale, (n, 3)))


class TestRigidDistance:
    def test_translation_consistent_pair_is_zero(self):
        a = _corr([0, 0, 0], [1, 1, 1])
        b = _corr([1, 2, 3], [2, 3, 4])
        assert rigid_distance(a, b) == pytest.approx(0.0, abs=1e-14)

    def test_three_vs_four(self):
        a = _corr([0, 0, 0], [0, 0, 0])
        b = _corr([3, 0, 0], [0, 4, 0])
        assert rigid_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_matches_loop_oracle(self, rng):
        for _ in range(50):
            s = rng.normal(size=(2, 3))
            t = rng.normal(size=(2, 3))
            expected = oracles.rigid_distance_loop(s[0], t[0], s[1], t[1])
            got = rigid_distance(_corr(s[0], t[0]), _corr(s[1], t[1]))
            assert got == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(-5, 5), min_size=12, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_nonnegative(self, vals):
        a = _corr(vals[0:3], vals[3:6])
        b = _corr(vals[6:9], vals[9:12])
        d_ab = rigid_distance(a, b)
        assert d_ab >= 0.0
        assert d_ab == rigid_distance(b, a)


class TestCompatScore:
    def test_zero_distance(self):
        assert compat_score(0.0, 0.1) == 1.0

    def test_boundary(self):
        assert compat_score(0.1, 0.1) == 0.0

    def test_hand_value(self):
        assert compat_score(0.05, 0.1) == pytest.approx(0.75, abs=1e-14)

    def test_beyond_sigma_clamped(self):
        assert compat_score(1.0, 0.1) == 0.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            compat_score(0.1, 0.0)
        with pytest.raises(ValueError):
            compat_score(-0.1, 1.0)


class TestDynamicThreshold:
    def test_all_ones_offdiag(self):
        g = 1.0 - np.eye(8)
        assert dynamic_threshold(g, 0.1) == pytest.approx(1.0, abs=1e-14)

    def test_all_zeros(self):
        assert dynamic_threshold(np.zeros((8, 8)), 0.1) == 0.0

    def test_k1_one_is_mean_of_row_maxima(self, rng):
        g = rng.uniform(size=(10, 10))
        g = (g + g.T) / 2
        np.fill_diagonal(g, 0.0)
        # brute-force row sort oracle
        expected = np.mean([sorted(g[i][np.arange(10) != i], reverse=True)[0]
                            for i in range(10)])
        assert dynamic_threshold(g, 0.1) == pytest.approx(expected, abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        for n in (5, 9, 12):
            g = rng.uniform(size=(n, n))
            np.fill_diagonal(g, 0.0)
            for frac in (0.1, 0.3, 1.0):
                assert dynamic_threshold(g, frac) == pytest.approx(
                    oracles.dynamic_threshold_loop(g, frac), abs=1e-12)

    def test_input_unchanged_and_equal_to_reference(self, rng):
        for n in (2, 3, 7, 40):
            g = rng.uniform(size=(n, n))
            g[0, 1] = g[1, 0]                 # a tie
            np.fill_diagonal(g, 0.0)
            before = g.copy()
            for frac in (0.1, 0.5, 1.0):
                got = dynamic_threshold(g, frac)
                assert got == oracles.dynamic_threshold_reference(g, frac)
                assert np.array_equal(g, before)

    def test_round_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.4) == 1
        assert round_half_up(2.5) == 3


class TestBuildGraph:
    def test_three_clique_sog_weights(self):
        # three mutually compatible correspondences: translation-consistent
        src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        g = build_compat_graph(CorrSet(src, src + 2.0), CompatConfig(sigma_d=0.1))
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(g.w_gamma[off], 1.0)
        assert np.allclose(g.w_h0[off], 1.0)  # 1 * (1*1) through the third vertex
        assert np.allclose(np.diag(g.w_h0), 0.0)

    def test_isolated_vertex_row_zero(self, rng):
        src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]])
        tgt = src + 2.0
        tgt[3] = [-9.0, 4.0, 7.0]  # breaks every pair involving vertex 3
        g = build_compat_graph(CorrSet(src, tgt), CompatConfig(sigma_d=0.1))
        assert np.all(g.w_h0[3] == 0.0)
        assert np.all(g.w_h0[:, 3] == 0.0)

    def test_sog_matches_loop_oracle(self, rng):
        for _ in range(10):
            cs = _random_set(rng, n=8, scale=0.4)
            g = build_compat_graph(cs, CompatConfig(sigma_d=0.5))
            expected = oracles.sog_weights_loop(g.w_gamma)
            assert np.max(np.abs(g.w_h0 - expected)) < 1e-10

    def test_gamma_matches_loop_oracle(self, rng):
        cs = _random_set(rng, n=10, scale=0.5)
        got = kernels.gamma_matrix(cs.src, cs.tgt, 0.3)
        expected = oracles.gamma_loop(cs.src, cs.tgt, 0.3)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_fog_keeps_gamma_weights(self, rng):
        cs = _random_set(rng, n=8, scale=0.4)
        fog = build_compat_graph(cs, CompatConfig(sigma_d=0.5, order=GraphOrder.FOG))
        assert np.array_equal(fog.w_h0, fog.w_gamma)

    def test_fog_sog_support_on_dense_clique(self):
        # exhaustive 5-node clique: SOG product strictly positive on every
        # supported entry, so the support patterns coincide
        src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
        cs = CorrSet(src, src + 0.5)
        sog = build_compat_graph(cs, CompatConfig(sigma_d=0.1))
        fog = build_compat_graph(cs, CompatConfig(sigma_d=0.1, order=GraphOrder.FOG))
        assert np.array_equal(sog.w_h0 > 0, fog.w_h0 > 0)

    def test_symmetry_exact(self, rng):
        for _ in range(10):
            cs = _random_set(rng, n=12, scale=0.6)
            g = build_compat_graph(cs, CompatConfig(sigma_d=0.5))
            assert np.array_equal(g.w_gamma, g.w_gamma.T)
            assert np.array_equal(g.w_h0, g.w_h0.T)

    def test_sog_product_bit_equal_to_mirrored_gemm(self, rng):
        # large enough for BLAS's blocked kernels; dense and sparse graphs
        for n, sigma_d in ((12, 0.5), (150, 0.3), (400, 0.2)):
            cs = _random_set(rng, n=n, scale=0.5)
            g = build_compat_graph(cs, CompatConfig(sigma_d=sigma_d))
            ref = oracles.sog_product_reference(g.w_gamma)
            assert np.array_equal(g.w_h0.view(np.int64), ref.view(np.int64))
            assert np.array_equal(g.w_h0, g.w_h0.T)

    def test_override_monotonicity(self, rng):
        cs = _random_set(rng, n=12, scale=0.4)
        prev_support = None
        for theta in (0.1, 0.4, 0.7):
            try:
                g = build_compat_graph(cs, CompatConfig(sigma_d=0.5,
                                                        theta_override=theta))
            except EmptyGraph:
                break
            support = g.w_gamma > 0
            if prev_support is not None:
                assert not np.any(support & ~prev_support)
            prev_support = support

    def test_second_order_common_neighbor(self, rng):
        cs = _random_set(rng, n=10, scale=0.4)
        g = build_compat_graph(cs, CompatConfig(sigma_d=0.5))
        n = len(cs)
        for i in range(n):
            for j in range(n):
                if g.w_h0[i, j] > 0:
                    shares = any(g.w_gamma[i, k] > 0 and g.w_gamma[k, j] > 0
                                 for k in range(n))
                    assert shares

    def test_noise_free_inliers_gamma_one(self, rng):
        from hgct.geom import random_rotation
        rot = random_rotation(rng)
        src = rng.uniform(-1, 1, (10, 3))
        cs = CorrSet(src, src @ rot.T + np.array([0.3, -0.2, 0.6]))
        g = kernels.gamma_matrix(cs.src, cs.tgt, 0.1)
        off = ~np.eye(10, dtype=bool)
        assert np.all(g[off] == 1.0)

    def test_empty_graph_raises(self):
        src = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        tgt = np.array([[0.0, 0, 0], [9, 9, 9], [-9, 4, 2]])
        with pytest.raises(EmptyGraph):
            build_compat_graph(CorrSet(src, tgt), CompatConfig(sigma_d=0.01))

    def test_theta_recorded(self, rng):
        cs = _random_set(rng, n=8, scale=0.3)
        g = build_compat_graph(cs, CompatConfig(sigma_d=0.5, theta_override=0.05))
        assert g.theta_cmp == 0.05


def test_build_peak_memory_is_bounded(rng):
    # gamma is thresholded in place into w_gamma and the SOG product is one
    # more array: at most 3.5 N x N float64 arrays at the peak (about 5 when
    # the threshold, the product and its mirror each made their own)
    import tracemalloc
    n = 600
    cs = _random_set(rng, n=n, scale=0.5)
    cfg = CompatConfig(sigma_d=0.2)
    build_compat_graph(cs, cfg)  # warm-up outside the measurement
    tracemalloc.start()
    try:
        build_compat_graph(cs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * n * n) <= 3.5
