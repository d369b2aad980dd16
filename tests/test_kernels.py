import os

import numpy as np
import pytest

import oracles
from hgct import kernels
from hgct.errors import ConfigError
from hgct.geom import random_rotation


class TestContracts:
    def test_gamma_symmetric_zero_diag(self, rng):
        src = rng.uniform(-1, 1, (25, 3))
        tgt = rng.uniform(-1, 1, (25, 3))
        g = kernels.gamma_matrix(src, tgt, 0.4)
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 0)
        assert np.all((g >= 0) & (g <= 1))

    def test_mae_score_bounds(self, rng):
        rots = np.stack([random_rotation(rng) for _ in range(4)])
        trans = rng.normal(size=(4, 3))
        src = rng.uniform(-1, 1, (50, 3))
        tgt = rng.uniform(-1, 1, (50, 3))
        s = kernels.mae_scores(rots, trans, src, tgt, 0.2)
        assert np.all((s >= 0) & (s <= 50))

    def test_nms_first_in_order_always_kept(self, rng):
        pts = rng.uniform(-1, 1, (30, 3))
        order = rng.permutation(30)
        keep = kernels.nms_select(pts, order, 0.5)
        assert keep[order[0]]

    def test_nms_no_two_kept_within_radius(self, rng):
        pts = rng.uniform(-1, 1, (50, 3))
        keep = kernels.nms_select(pts, np.arange(50), 0.4)
        kept = np.flatnonzero(keep)
        for a in range(len(kept)):
            for b in range(a + 1, len(kept)):
                assert np.linalg.norm(pts[kept[a]] - pts[kept[b]]) > 0.4

    def test_nms_cap_is_uncapped_prefix(self, rng):
        pts = rng.uniform(-1, 1, (80, 3))
        order = rng.permutation(80)
        full = kernels.nms_select(pts, order, 0.3)
        picks = [i for i in order if full[i]]
        for cap in range(len(picks) + 2):
            keep = kernels.nms_select(pts, order, 0.3, max_keep=cap)
            assert [i for i in order if keep[i]] == picks[:cap]

    def test_gamma_matrix_numpy_matches_reference(self, rng):
        # the in-place kernel against the allocating expressions, bit for bit
        pts = rng.uniform(-1, 1, (60, 3))
        cases = [
            (pts, pts @ random_rotation(rng).T + 0.3, 0.1),   # all compatible
            (pts, rng.uniform(-1, 1, (60, 3)), 0.3),           # mixed
            (pts * 1e4, rng.uniform(-1e4, 1e4, (60, 3)), 7.0),
            (np.repeat(pts[:5], 4, axis=0), np.repeat(pts[:5], 4, axis=0), 0.05),
            (pts[:1], pts[:1], 0.1),
        ]
        for src, tgt, sigma_d in cases:
            got = kernels.gamma_matrix(src, tgt, sigma_d)
            ref = oracles.gamma_matrix_reference(src, tgt, sigma_d)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_gamma_matrix_blocks_match_reference(self, rng):
        # sizes around the row-block boundaries, including a short last block
        b = kernels.GAMMA_ROWS
        for n in (b - 1, b, b + 1, 2 * b + 3):
            src = rng.uniform(-1, 1, (n, 3))
            tgt = src + rng.normal(0.0, 0.05, (n, 3))
            tgt[::4] = rng.uniform(-1, 1, tgt[::4].shape)
            got = kernels.gamma_matrix(src, tgt, 0.1)
            ref = oracles.gamma_matrix_reference(src, tgt, 0.1)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
            assert np.array_equal(got, got.T)

    def test_mae_scores_numpy_matches_per_transform_loop(self, rng):
        src = rng.uniform(-1, 1, (150, 3))
        tgt = src + rng.normal(0.0, 0.05, (150, 3))
        for m in (1, kernels.MAE_CHUNK - 1, kernels.MAE_CHUNK, kernels.MAE_CHUNK + 1, 50):
            rots = np.stack([random_rotation(rng, 10.0) for _ in range(m)])
            trans = rng.normal(0.0, 0.05, (m, 3))
            got = kernels.mae_scores(rots, trans, src, tgt, 0.1)
            ref = oracles.mae_scores_loop(rots, trans, src, tgt, 0.1)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_mae_scores_numpy_matches_sum_of_squares(self, rng, scale):
        # x*x + y*y + z*z against np.sum(d ** 2, axis=...), bit for bit
        src = rng.uniform(-scale, scale, (300, 3))
        tgt = src + rng.normal(0.0, 0.05 * scale, (300, 3))
        tgt[::3] = rng.uniform(-scale, scale, tgt[::3].shape)
        m = 2 * kernels.MAE_CHUNK + 3
        rots = np.stack([random_rotation(rng, 30.0) for _ in range(m)])
        trans = rng.normal(0.0, 0.1 * scale, (m, 3))
        got = kernels.mae_scores(rots, trans, src, tgt, 0.1 * scale)
        ref = oracles.mae_scores_loop(rots, trans, src, tgt, 0.1 * scale)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestBlasThreads:
    def test_restores_previous_count(self):
        fns = kernels._openblas_thread_fns()
        if fns is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, _ = fns
        before = get()
        with kernels.blas_threads(1):
            assert get() == 1
        assert get() == before
        with pytest.raises(RuntimeError):
            with kernels.blas_threads(1):
                raise RuntimeError("inside")
        assert get() == before


class TestWorkerCount:
    def test_zero_means_every_usable_cpu(self, monkeypatch):
        monkeypatch.delenv("HGCT_THREADS", raising=False)
        cpus = len(os.sched_getaffinity(0))
        assert kernels.worker_count(0, 10_000) == cpus
        assert kernels.worker_count(3, 10_000) == 3

    def test_capped_by_jobs_and_env(self, monkeypatch):
        monkeypatch.delenv("HGCT_THREADS", raising=False)
        assert kernels.worker_count(8, 5) == 5
        assert kernels.worker_count(8, 0) == 1
        monkeypatch.setenv("HGCT_THREADS", "2")
        assert kernels.worker_count(8, 5) == 2
        assert kernels.worker_count(1, 5) == 1
        monkeypatch.setenv("HGCT_THREADS", "0")
        assert kernels.worker_count(8, 5) == 1

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("HGCT_THREADS", "two")
        with pytest.raises(ConfigError, match="HGCT_THREADS"):
            kernels.worker_count(2, 5)
        monkeypatch.delenv("HGCT_THREADS")
        with pytest.raises(ConfigError, match="threads"):
            kernels.worker_count(-1, 5)
