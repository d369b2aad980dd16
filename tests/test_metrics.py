import numpy as np
import pytest

import oracles
from baselines import run_suite, scene_batch, sweep_theta
from hgct.compat import CompatConfig
from hgct.geom import CorrSet, RigidTransform, random_rotation
from hgct.hgnn import init_params
from hgct.metrics import (MetricThresholds, PairResult, aggregate, evaluate_scene,
                          inlier_metrics)
from hgct.pipeline import PipelineConfig
from hgct.train import SynthConfig, gen_scene


def _pr(re, te, success, ip=0.5, ir=0.5, f1=0.5, runtime=0.1):
    return PairResult(re_deg=re, te_m=te, success=success, ip=ip, ir=ir,
                      f1=f1, runtime_s=runtime)


class TestInlierMetrics:
    def test_gt_estimate_perfect(self):
        sc = gen_scene(SynthConfig(n_corrs=50, inlier_ratio=0.4,
                                   noise_sigma=0.01, seed=1))
        ip, ir, f1 = inlier_metrics(sc.gt, sc, sc.gt, 0.1)
        assert ip == 1.0 and ir == 1.0 and f1 == 1.0

    def test_empty_prediction_zeroes(self, rng):
        sc = gen_scene(SynthConfig(n_corrs=30, inlier_ratio=0.5,
                                   noise_sigma=0.01, seed=2))
        far = RigidTransform(random_rotation(rng), np.array([50.0, 50, 50]))
        ip, ir, f1 = inlier_metrics(far, sc, sc.gt, 0.1)
        assert ip == 0.0 and ir == 0.0 and f1 == 0.0

    def test_half_overlap_matches_set_arithmetic(self):
        # constructed case: prediction captures only the first half of the
        # true inliers, plus one spurious point
        src = np.zeros((6, 3))
        src[:, 0] = np.arange(6)
        tgt = src.copy()
        tgt[2:4, 1] = 0.05   # true inliers 0,1 plus borderline 2,3
        tgt[4:, 1] = 10.0    # 4,5 outliers under both transforms
        cs = CorrSet(src, tgt, gt=oracles.identity())
        shifted = RigidTransform(np.eye(3), np.array([0.0, 0.05, 0.0]))
        # under gt (theta 0.04): true inliers {0,1}; under shifted: {2,3}
        ip, ir, f1 = inlier_metrics(shifted, cs, cs.gt, 0.04)
        assert ip == 0.0 and ir == 0.0 and f1 == 0.0
        ip, ir, f1 = inlier_metrics(cs.gt, cs, cs.gt, 0.06)
        # theta 0.06: true = pred = {0,1,2,3}
        assert (ip, ir, f1) == (1.0, 1.0, 1.0)

    def test_f1_harmonic_bound(self, rng):
        for _ in range(50):
            sc = gen_scene(SynthConfig(n_corrs=40, inlier_ratio=0.3,
                                       noise_sigma=0.02,
                                       seed=int(rng.integers(1e6))))
            t = RigidTransform(random_rotation(rng, 5.0), rng.normal(size=3) * 0.05)
            ip, ir, f1 = inlier_metrics(t, sc, sc.gt, 0.1)
            if ip + ir > 0:
                assert f1 <= 2 * min(ip, ir) + 1e-12
            else:
                assert f1 == 0.0


class TestAggregate:
    def test_all_success_zero_error(self):
        th = MetricThresholds()
        s = aggregate([_pr(0.0, 0.0, True)] * 4, th)
        assert s["rr"] == 1.0 and s["mean_re_deg"] == 0.0

    def test_no_success_absent_means(self):
        th = MetricThresholds()
        s = aggregate([_pr(90.0, 3.0, False)] * 3, th)
        assert s["rr"] == 0.0
        assert s["mean_re_deg"] is None and s["mean_te_m"] is None

    def test_mixed_matches_manual(self):
        th = MetricThresholds()
        results = [_pr(1.0, 0.01, True), _pr(2.0, 0.02, True),
                   _pr(50.0, 1.0, False)]
        s = aggregate(results, th)
        assert s["rr"] == pytest.approx(2 / 3)
        assert s["mean_re_deg"] == pytest.approx(1.5)
        assert s["mean_te_m"] == pytest.approx(0.015)
        assert s["mean_runtime_s"] == pytest.approx(0.1)

    def test_permutation_invariant(self, rng):
        th = MetricThresholds()
        results = [_pr(float(i), 0.01 * i, i % 2 == 0) for i in range(1, 8)]
        a = aggregate(results, th)
        order = rng.permutation(len(results))
        b = aggregate([results[i] for i in order], th)
        assert a == b

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([], MetricThresholds())

    def test_rr_monotone_in_thresholds(self):
        results = [_pr(1.0, 0.01, None) for _ in range(5)]
        # recompute success under two threshold settings
        tight = MetricThresholds(re_thresh_deg=0.5, te_thresh=0.005)
        loose = MetricThresholds(re_thresh_deg=2.0, te_thresh=0.02)
        for r in results:
            r.success = r.re_deg <= tight.re_thresh_deg and r.te_m <= tight.te_thresh
        rr_tight = aggregate(results, tight)["rr"]
        for r in results:
            r.success = r.re_deg <= loose.re_thresh_deg and r.te_m <= loose.te_thresh
        rr_loose = aggregate(results, loose)["rr"]
        assert rr_loose >= rr_tight


class TestSuiteAndSweep:
    def _suite(self):
        return scene_batch(SynthConfig(n_corrs=60, inlier_ratio=1.0,
                                       noise_sigma=0.0), 4, seed0=30)

    def test_run_suite_perfect_scenes(self):
        params = init_params(channels=8, seed=0)
        results = run_suite(self._suite(), params, CompatConfig(sigma_d=0.1),
                            PipelineConfig(), MetricThresholds())
        assert len(results) == 4
        assert all(r.success for r in results)

    def test_sweep_theta_shapes_and_default_delta(self):
        params = init_params(channels=8, seed=0)
        rows = sweep_theta(self._suite(), params, [0.05, 0.15, 0.2], "inlier",
                           CompatConfig(sigma_d=0.1), PipelineConfig(),
                           MetricThresholds())
        assert len(rows) == 4
        assert rows[0]["theta"] == 0.1 and rows[0]["delta_pp"] == 0.0
        assert [r["theta"] for r in rows[1:]] == [0.05, 0.15, 0.2]

    def test_sweep_cmp_uses_override(self):
        params = init_params(channels=8, seed=0)
        rows = sweep_theta(self._suite(), params, [0.9], "cmp",
                           CompatConfig(sigma_d=0.1), PipelineConfig(),
                           MetricThresholds())
        assert rows[0]["theta"] == "dynamic"
        assert len(rows) == 2

    def test_sweep_rejects_bad_which(self):
        with pytest.raises(ValueError):
            sweep_theta(self._suite(), init_params(channels=4, seed=0),
                        [0.1], "bogus")

    def test_evaluate_scene_needs_gt(self):
        sc = gen_scene(SynthConfig(n_corrs=60, inlier_ratio=1.0,
                                   noise_sigma=0.0, seed=3))
        result = evaluate_scene(CorrSet(sc.src, sc.tgt), init_params(channels=8, seed=0),
                                CompatConfig(), PipelineConfig(), MetricThresholds())
        assert result.error == "pair evaluation needs a ground-truth transform"
        assert not result.success and result.re_deg == float("inf")

    def test_pipeline_failures_count_as_misses(self, rng):
        # a scene whose compatibility graph is empty registers as a failure
        src = np.zeros((10, 3))
        src[:, 0] = np.linspace(0.0, 1.0, 10)
        broken = CorrSet(src, rng.uniform(40, 50, (10, 3)),
                         gt=oracles.identity())
        good = gen_scene(SynthConfig(n_corrs=60, inlier_ratio=1.0,
                                     noise_sigma=0.0, seed=3))
        params = init_params(channels=8, seed=0)
        results = run_suite([good, broken], params,
                            CompatConfig(sigma_d=0.01), PipelineConfig(),
                            MetricThresholds())
        assert results[0].success
        assert not results[1].success
        assert aggregate(results, MetricThresholds())["rr"] == 0.5
