import numpy as np
import pytest

import oracles
from baselines import (evaluate_hypothesis, hypothesis_correctness, ransac_baseline,
                       standard_nms_seeds)
from hgct import kernels
from hgct.compat import CompatConfig, build_compat_graph
from hgct.errors import DegenerateInput
from hgct.geom import (CorrSet, RigidTransform, pose_errors, random_rotation,
                       residuals)
from hgct.hgnn import init_params
from hgct.hypergraph import hyperedge_precision, init_hypergraph
from hgct.pipeline import (MAX_WINDOWS, WINDOW_STEP, Hypothesis, HypothesisOrigin,
                           PipelineConfig, gf_adjacency, gf_nms, gf_score,
                           initial_hypotheses, nms_local_maxima, refine_hypotheses,
                           register)
from hgct.train import SynthConfig, gen_scene


def _perfect_scene(n=60, seed=0):
    return gen_scene(SynthConfig(n_corrs=n, inlier_ratio=1.0, noise_sigma=0.0,
                                 seed=seed))


class TestGfAdjacency:
    def test_symmetric_h_unchanged(self, rng):
        h = rng.uniform(size=(6, 6)) < 0.5
        h = np.triu(h) | np.triu(h, 1).T
        assert np.array_equal(gf_adjacency(h), h)

    def test_one_directional_edge_dropped(self):
        h = np.zeros((3, 3), dtype=bool)
        h[1, 2] = True
        a = gf_adjacency(h)
        assert not a[1, 2] and not a[2, 1]

    def test_matches_elementwise_and(self, rng):
        h = rng.uniform(size=(8, 8)) < 0.4
        a = gf_adjacency(h)
        expected = np.array([[h[i, j] and h[j, i] for j in range(8)] for i in range(8)])
        assert a.dtype == bool and np.array_equal(a, expected)

    def test_idempotent(self, rng):
        h = rng.uniform(size=(7, 7)) < 0.5
        a = gf_adjacency(h)
        assert np.array_equal(gf_adjacency(a), a)


class TestGfScore:
    def test_complete_k3_all_zero(self):
        a = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(gf_score(a), np.zeros(3))

    def test_star_s3(self):
        # center 0 with leaves 1..3: raw = (6, -2, -2, -2) -> minmax
        a = np.zeros((4, 4))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        s = gf_score(a)
        assert s[0] == 1.0
        assert np.array_equal(s[1:], np.zeros(3))

    def test_empty_graph_zero(self):
        assert np.array_equal(gf_score(np.zeros((5, 5))), np.zeros(5))

    def test_range(self, rng):
        a = (rng.uniform(size=(9, 9)) < 0.5).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        s = gf_score(a)
        assert np.all((s >= 0) & (s <= 1))


class TestNms:
    def test_dominant_score_first(self, rng):
        pts = rng.uniform(-1, 1, (20, 3))
        s = np.full(20, 0.1)
        s[7] = 0.9
        picks = nms_local_maxima(s, pts, radius=0.05, max_picks=5)
        assert picks[0] == 7

    def test_suppression_radius(self):
        pts = np.array([[0.0, 0, 0], [0.01, 0, 0], [1.0, 0, 0]])
        s = np.array([0.9, 0.8, 0.7])
        picks = nms_local_maxima(s, pts, radius=0.1, max_picks=3)
        assert picks == [0, 2]  # index 1 suppressed by index 0

    def test_standard_nms_fills_by_index(self):
        pts = np.array([[0.0, 0, 0], [0.01, 0, 0], [0.02, 0, 0], [1.0, 0, 0]])
        s = np.array([0.5, 0.9, 0.4, 0.3])
        seeds = standard_nms_seeds(s, pts, radius=0.1, n_seeds=3)
        assert seeds[0] == 1 and seeds[1] == 3  # maxima first
        assert seeds[2] == 0  # fill by ascending index

    def test_capped_scan_is_uncapped_prefix(self, rng):
        pts = rng.uniform(-1, 1, (120, 3))
        s = np.round(rng.uniform(size=120), 1)  # tied scores go to the lower index
        order = np.lexsort((np.arange(120), -s))
        full = kernels.nms_select(pts, order, 0.2, len(pts))
        picks = [int(i) for i in order if full[i]]
        for cap in range(len(picks) + 2):
            assert nms_local_maxima(s, pts, 0.2, cap) == picks[:cap]


class TestGfNms:
    def test_tie_break_ascending_index(self):
        n = 20
        pts = np.arange(n * 3, dtype=float).reshape(n, 3)  # well separated
        s = np.full(n, 0.5)
        cfg = PipelineConfig(nms_radius=0.1)
        seeds = gf_nms(np.zeros((n, n), dtype=bool), s, CorrSet(pts, pts), cfg)
        n_s = max(6, round(0.2 * n))
        assert seeds == list(range(n_s))

    def test_count_and_distinct(self, rng):
        for n in (10, 37, 80):
            pts = rng.uniform(-1, 1, (n, 3))
            s = rng.uniform(size=n)
            h = rng.uniform(size=(n, n)) < 0.3
            seeds = gf_nms(h, s, CorrSet(pts, pts), PipelineConfig())
            n_s = min(n, max(6, int(np.floor(0.2 * n + 0.5))))
            assert len(seeds) == n_s
            assert len(set(seeds)) == n_s

    def test_deterministic(self, rng):
        pts = rng.uniform(-1, 1, (30, 3))
        s = rng.uniform(size=30)
        h = rng.uniform(size=(30, 30)) < 0.3
        cs = CorrSet(pts, pts)
        a = gf_nms(h, s, cs, PipelineConfig())
        b = gf_nms(h, s, cs, PipelineConfig())
        assert a == b


class TestEvaluate:
    def test_perfect_scene_scores_n(self):
        sc = _perfect_scene(n=40)
        assert evaluate_hypothesis(sc.gt, sc, 0.1) == pytest.approx(40.0, abs=1e-9)

    def test_boundary_residual_contributes_zero(self):
        cs = CorrSet(np.zeros((1, 3)), np.array([[0.1, 0.0, 0.0]]))
        assert evaluate_hypothesis(oracles.identity(), cs, 0.1) == 0.0

    def test_half_residual_contributes_half(self):
        cs = CorrSet(np.zeros((1, 3)), np.array([[0.05, 0.0, 0.0]]))
        assert evaluate_hypothesis(oracles.identity(), cs, 0.1) == (
            pytest.approx(0.5, abs=1e-12))

    def test_score_bounds_and_monotonicity(self, rng):
        sc = gen_scene(SynthConfig(n_corrs=50, inlier_ratio=0.5, seed=4))
        score = evaluate_hypothesis(sc.gt, sc, 0.1)
        assert 0.0 <= score <= 50.0
        # inflating every residual (larger theta shrink) can only lower phi
        assert evaluate_hypothesis(sc.gt, sc, 0.05) <= score


class TestInitialHypotheses:
    def test_perfect_data_recovers_gt(self):
        sc = _perfect_scene(n=50, seed=2)
        x = np.random.default_rng(0).normal(size=(50, 8))
        hypos = initial_hypotheses(sc, list(range(10)), x, PipelineConfig(), {})
        assert hypos
        for h in hypos:
            re, te = pose_errors(h.transform, sc.gt)
            assert re < 1e-7 and te < 1e-9

    def test_knn_clamped_to_whole_set(self):
        sc = _perfect_scene(n=10, seed=3)
        x = np.random.default_rng(1).normal(size=(10, 4))
        hypos = initial_hypotheses(sc, [0], x, PipelineConfig(knn_k=50), {})
        assert len(hypos) == 1

    def test_retains_best_by_rescoring_oracle(self, rng):
        sc = gen_scene(SynthConfig(n_corrs=60, inlier_ratio=0.4,
                                   noise_sigma=0.01, seed=5))
        x = rng.normal(size=(60, 8))
        cfg = PipelineConfig()
        seeds = list(range(12))
        diag = {}
        kept = initial_hypotheses(sc, seeds, x, cfg, diagnostics=diag)
        # rebuild every candidate score independently and compare the cutoff
        all_scores = []
        for seed in seeds:
            d = np.sum((x - x[seed]) ** 2, axis=1)
            order = np.lexsort((np.arange(60), d))[:cfg.knn_k]
            t = oracles.single_fit(sc.src[order], sc.tgt[order])
            r = residuals(t, sc.src, sc.tgt)
            all_scores.append(np.sum(np.maximum(0.0, 1.0 - r / cfg.theta_inlier)))
        expected_top = sorted(all_scores, reverse=True)[:len(kept)]
        got = sorted((h.score for h in kept), reverse=True)
        assert np.allclose(got, expected_top, atol=1e-9)

    def test_n_init_count(self):
        sc = _perfect_scene(n=100, seed=6)
        x = np.random.default_rng(2).normal(size=(100, 8))
        hypos = initial_hypotheses(sc, list(range(20)), x, PipelineConfig(), {})
        # N_s = 20, N_init = round(0.1 * 20) = 2
        assert len(hypos) == 2
        assert all(h.origin is HypothesisOrigin.INITIAL for h in hypos)

    def test_knn_subsets_match_full_sort_with_duplicate_features(self, rng):
        # duplicated feature rows tie the KNN distances; duplicated
        # correspondences make some subsets rank-deficient
        sc = gen_scene(SynthConfig(n_corrs=60, inlier_ratio=0.5,
                                   noise_sigma=0.01, seed=14))
        src, tgt = sc.src.copy(), sc.tgt.copy()
        src[40:], tgt[40:] = src[40], tgt[40]
        sc = CorrSet(src, tgt)
        x = np.round(rng.normal(size=(12, 4)), 1)[rng.integers(0, 12, 60)]
        x[40:] = 7.0
        cfg = PipelineConfig(knn_k=8, ninit_frac=1.0)
        seeds = list(range(0, 60, 3))
        diag = {}
        got = initial_hypotheses(sc, seeds, x, cfg, diagnostics=diag)

        ref = []
        for seed in seeds:
            subset = oracles.knn_subset_loop(x, seed, cfg.knn_k)
            fit = oracles.kabsch_fit_loop(sc.src[subset], sc.tgt[subset])
            if fit is not None:
                ref.append((seed,) + fit)
        assert diag["n_degenerate_seeds"] == len(seeds) - len(ref) > 0
        assert diag["n_seed_candidates"] == len(ref)
        scores = oracles.mae_scores_loop(np.stack([r[1] for r in ref]),
                                         np.stack([r[2] for r in ref]),
                                         sc.src, sc.tgt, cfg.theta_inlier)
        order = sorted(range(len(ref)), key=lambda i: (-scores[i], i))
        assert len(got) == len(ref)
        for h, i in zip(got, order):
            assert h.seed_index == ref[i][0]
            assert np.array_equal(h.transform.R, ref[i][1])
            assert np.array_equal(h.transform.t, ref[i][2])
            assert h.score == scores[i]


class TestRefine:
    def _initial_for(self, sc, seed_idx):
        return [Hypothesis(transform=sc.gt, score=0.0,
                           origin=HypothesisOrigin.INITIAL, seed_index=seed_idx)]

    def test_exact_window_count_at_six_members(self):
        sc = _perfect_scene(n=30, seed=7)
        h = np.zeros((30, 30))
        h[:6, 0] = 1.0
        out = refine_hypotheses(sc, h, self._initial_for(sc, 0),
                                PipelineConfig(), {})
        refined = [x for x in out if x.origin is HypothesisOrigin.REFINED]
        assert len(refined) == 1

    def test_window_cap_at_96_members(self):
        sc = _perfect_scene(n=96, seed=8)
        h = np.zeros((96, 96))
        h[:, 0] = 1.0
        out = refine_hypotheses(sc, h, self._initial_for(sc, 0),
                                PipelineConfig(), {})
        refined = [x for x in out if x.origin is HypothesisOrigin.REFINED]
        assert len(refined) == 31  # windows k = 0..30

    def test_small_hyperedge_yields_no_refined(self):
        sc = _perfect_scene(n=30, seed=9)
        h = np.zeros((30, 30))
        h[:4, 0] = 1.0
        out = refine_hypotheses(sc, h, self._initial_for(sc, 0),
                                PipelineConfig(), {})
        assert len(out) == 1  # never fewer than the initial set

    def test_noise_free_first_window_recovers_gt(self):
        sc = _perfect_scene(n=40, seed=10)
        h = np.zeros((40, 40))
        h[:12, 0] = 1.0
        out = refine_hypotheses(sc, h, self._initial_for(sc, 0),
                                PipelineConfig(), {})
        refined = [x for x in out if x.origin is HypothesisOrigin.REFINED]
        re, te = pose_errors(refined[0].transform, sc.gt)
        assert re < 1e-7 and te < 1e-9

    def test_returns_at_least_initial(self, rng):
        sc = gen_scene(SynthConfig(n_corrs=50, inlier_ratio=0.3, seed=11))
        h = rng.uniform(size=(50, 50)) < 0.3
        initial = self._initial_for(sc, 5)
        out = refine_hypotheses(sc, h, initial, PipelineConfig(), {})
        assert len(out) >= len(initial)

    def test_windows_match_per_window_fits(self, rng):
        # duplicated correspondences make some windows rank-deficient: they
        # are left out and counted
        sc = gen_scene(SynthConfig(n_corrs=80, inlier_ratio=0.4,
                                   noise_sigma=0.01, seed=15))
        src, tgt = sc.src.copy(), sc.tgt.copy()
        src[50:], tgt[50:] = src[50], tgt[50]
        sc = CorrSet(src, tgt, gt=sc.gt)
        h = rng.uniform(size=(80, 80)) < 0.7
        h[:, 3] = True
        initial = [Hypothesis(sc.gt, 0.0, HypothesisOrigin.INITIAL, seed)
                   for seed in (3, 11, 50)]
        cfg = PipelineConfig()
        diag = {}
        out = refine_hypotheses(sc, h, initial, cfg, diagnostics=diag)

        ref, degenerate = [], 0
        for hyp in initial:
            members = np.flatnonzero(h[:, hyp.seed_index] > 0)
            r = residuals(hyp.transform, sc.src[members], sc.tgt[members])
            members = members[np.lexsort((members, r))]
            k = 0
            while (WINDOW_STEP * k + cfg.minimal_size <= members.size
                   and k <= MAX_WINDOWS):
                window = members[WINDOW_STEP * k: WINDOW_STEP * k + cfg.minimal_size]
                fit = oracles.kabsch_fit_loop(sc.src[window], sc.tgt[window])
                if fit is None:
                    degenerate += 1
                else:
                    ref.append((hyp.seed_index,) + fit)
                k += 1
        assert diag["n_degenerate_windows"] == degenerate > 0
        assert diag["n_refined"] == len(ref)
        scores = oracles.mae_scores_loop(np.stack([r[1] for r in ref]),
                                         np.stack([r[2] for r in ref]),
                                         sc.src, sc.tgt, cfg.theta_inlier)
        refined = out[len(initial):]
        assert out[:len(initial)] == initial and len(refined) == len(ref)
        for hyp, (seed, rot, tr), score in zip(refined, ref, scores):
            assert hyp.origin is HypothesisOrigin.REFINED and hyp.seed_index == seed
            assert np.array_equal(hyp.transform.R, rot)
            assert np.array_equal(hyp.transform.t, tr)
            assert hyp.score == score


class TestRansac:
    def test_budget_one_perfect_data(self):
        sc = _perfect_scene(n=20, seed=12)
        t = ransac_baseline(sc, budget=1, theta_inlier=0.1, seed=0)
        re, te = pose_errors(t, sc.gt)
        assert re < 1e-7 and te < 1e-9

    def test_deterministic(self):
        sc = gen_scene(SynthConfig(n_corrs=80, inlier_ratio=0.2, seed=13))
        a = ransac_baseline(sc, budget=20, theta_inlier=0.1, seed=4)
        b = ransac_baseline(sc, budget=20, theta_inlier=0.1, seed=4)
        assert np.array_equal(a.R, b.R) and np.array_equal(a.t, b.t)

    def test_success_rate_matches_closed_form(self):
        # 1000 noise-free trials at inlier ratio 0.05, budget 10; success iff
        # an all-inlier triple is sampled, so the rate follows
        # 1 - (1 - p^3)^budget up to Monte-Carlo error
        n, ratio, budget, trials = 400, 0.05, 10, 1000
        hits = 0
        for trial in range(trials):
            sc = gen_scene(SynthConfig(n_corrs=n, inlier_ratio=ratio,
                                       noise_sigma=0.0, seed=20000 + trial))
            t = ransac_baseline(sc, budget=budget, theta_inlier=0.1,
                                seed=trial)
            re, te = pose_errors(t, sc.gt)
            if re <= 1.0 and te <= 0.02:
                hits += 1
        p_theory = 1.0 - (1.0 - ratio ** 3) ** budget
        expected = trials * p_theory
        band = 4.0 * np.sqrt(trials * p_theory) + 1.0
        assert abs(hits - expected) <= band
        assert hits / trials < 0.02  # direction: success probability is low

    def test_matches_per_sample_fits(self):
        sc = gen_scene(SynthConfig(n_corrs=40, inlier_ratio=0.3, seed=16))
        src, tgt = sc.src.copy(), sc.tgt.copy()
        src[20:], tgt[20:] = src[20], tgt[20]  # degenerate samples
        sc = CorrSet(src, tgt)
        rng = np.random.default_rng(9)
        fits = [oracles.kabsch_fit_loop(sc.src[idx], sc.tgt[idx])
                for idx in (rng.choice(40, size=3, replace=False) for _ in range(60))]
        fits = [f for f in fits if f is not None]
        assert len(fits) < 60
        scores = oracles.mae_scores_loop(np.stack([f[0] for f in fits]),
                                         np.stack([f[1] for f in fits]),
                                         sc.src, sc.tgt, 0.1)
        best = fits[int(np.argmax(scores))]
        got = ransac_baseline(sc, budget=60, theta_inlier=0.1, seed=9)
        assert np.array_equal(got.R, best[0]) and np.array_equal(got.t, best[1])


class TestCorrectness:
    def test_all_at_gt(self):
        sc = _perfect_scene(n=20, seed=14)
        hypos = [Hypothesis(sc.gt, 1.0, HypothesisOrigin.INITIAL, 0)] * 3
        assert hypothesis_correctness(hypos, sc.gt, 5.0, 0.05) == 1.0

    def test_none_within(self, rng):
        sc = _perfect_scene(n=20, seed=15)
        bad = RigidTransform(random_rotation(rng, 180.0), np.array([9.0, 9, 9]))
        hypos = [Hypothesis(bad, 1.0, HypothesisOrigin.INITIAL, 0)] * 3
        assert hypothesis_correctness(hypos, sc.gt, 5.0, 0.05) == 0.0

    def test_mixed_matches_counting_loop(self, rng):
        sc = _perfect_scene(n=20, seed=16)
        hypos = []
        for i in range(10):
            if i % 3 == 0:
                hypos.append(Hypothesis(sc.gt, 1.0, HypothesisOrigin.INITIAL, i))
            else:
                bad = RigidTransform(random_rotation(rng, 180.0),
                                     rng.normal(size=3) * 5)
                hypos.append(Hypothesis(bad, 0.0, HypothesisOrigin.REFINED, i))
        frac = hypothesis_correctness(hypos, sc.gt, 1.0, 0.01)
        manual = sum(1 for h in hypos
                     if pose_errors(h.transform, sc.gt)[0] <= 1.0
                     and pose_errors(h.transform, sc.gt)[1] <= 0.01) / 10
        assert frac == manual


class TestRegister:
    def test_perfect_scene_exact_recovery(self):
        sc = _perfect_scene(n=60, seed=17)
        params = init_params(channels=8, seed=0)
        t, diag = register(sc, params, CompatConfig(sigma_d=0.1),
                           PipelineConfig())
        re, te = pose_errors(t, sc.gt)
        assert re < 1e-6 and te < 1e-9
        assert diag["n_hypotheses"] >= diag["n_initial"]
        assert diag["best_score"] == pytest.approx(60.0, abs=1e-6)

    def test_diagnostics_fields(self):
        sc = _perfect_scene(n=40, seed=18)
        params = init_params(channels=8, seed=0)
        _, diag = register(sc, params, CompatConfig(sigma_d=0.1),
                           PipelineConfig())
        for key in ("seeds", "n_seeds", "n_initial", "n_hypotheses",
                    "best_score", "timings_ms", "hyperedge_precision_before",
                    "hyperedge_precision_after", "re_deg", "te_m"):
            assert key in diag

    def test_precision_before_is_that_of_the_initial_hypergraph(self):
        # register takes it right after the graph build, before the network
        # frees H^0
        cc = CompatConfig()
        params = init_params(channels=8, seed=0)
        for seed in range(3):
            sc = gen_scene(SynthConfig(n_corrs=150, inlier_ratio=0.2 + 0.1 * seed,
                                       seed=seed))
            _, diag = register(sc, params, cc, PipelineConfig())
            h0 = init_hypergraph(build_compat_graph(sc, cc).w_h0)
            assert diag["hyperedge_precision_before"] == hyperedge_precision(h0, sc.labels)

    def test_rigid_motion_invariance(self, rng):
        # moving both clouds by a global motion G leaves RE/TE against the
        # conjugated ground truth unchanged (noise-free: both are ~0)
        sc = _perfect_scene(n=50, seed=19)
        params = init_params(channels=8, seed=1)
        cc, pc = CompatConfig(sigma_d=0.1), PipelineConfig()
        t1, _ = register(sc, params, cc, pc)
        g = RigidTransform(random_rotation(rng), rng.normal(size=3))
        moved = CorrSet(oracles.apply(g, sc.src), oracles.apply(g, sc.tgt),
                        gt=oracles.compose(oracles.compose(g, sc.gt), oracles.inverse(g)),
                        labels=sc.labels)
        t2, _ = register(moved, params, cc, pc)
        re1, te1 = pose_errors(t1, sc.gt)
        re2, te2 = pose_errors(t2, moved.gt)
        assert abs(re1 - re2) < 1e-8 and abs(te1 - te2) < 1e-8

    # ROADMAP item 1's gate; the fix for fault (a) removes the mark
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="fault (a): top-K ties make H^4's mutual "
                       "adjacency regular on the inliers, so every graph-filter seed is "
                       "an outlier (0 of 40 inlier seeds, RE 76.31 deg)")
    def test_fault_a_scene_registers(self):
        sc = gen_scene(SynthConfig(n_corrs=200, inlier_ratio=0.3, noise_sigma=0.0,
                                   seed=8))
        t, _ = register(sc, init_params(32, 0), CompatConfig(), PipelineConfig())
        re, te = pose_errors(t, sc.gt)
        assert re <= 5.0 and te <= 0.05

    def test_too_small_input_raises(self):
        sc = _perfect_scene(n=10, seed=20)
        small = CorrSet(sc.src[:4], sc.tgt[:4])
        params = init_params(channels=4, seed=0)
        with pytest.raises(DegenerateInput, match="minimal_size = 6"):
            register(small, params, CompatConfig(), PipelineConfig())

    def test_empty_graph_propagates(self, rng):
        from hgct.errors import EmptyGraph
        src = rng.uniform(-1, 1, (10, 3))
        tgt = rng.uniform(50, 60, (10, 3)) * np.arange(1, 11)[:, None]
        params = init_params(channels=4, seed=0)
        with pytest.raises(EmptyGraph):
            register(CorrSet(src, tgt), params,
                     CompatConfig(sigma_d=0.001), PipelineConfig())

    @staticmethod
    def _peak_square_arrays(n, inlier_ratio=0.3):
        """tracemalloc peak of one warm register, in N x N float64 arrays."""
        import tracemalloc
        sc = gen_scene(SynthConfig(n_corrs=n, inlier_ratio=inlier_ratio, seed=1))
        params = init_params(channels=32, seed=0)
        cc, pc = CompatConfig(), PipelineConfig()
        register(sc, params, cc, pc)  # warm-up outside the measurement
        tracemalloc.start()
        try:
            register(sc, params, cc, pc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8.0 * n * n)

    def test_peak_memory_is_bounded(self):
        # register frees every N x N array after its last read, builds the
        # graph in place, keeps w_h0 sparse, reuses H^0's buffer and streams
        # the network's score arrays and log bias in row blocks. At N=600
        # the peak is the graph build's: the score matrix and a block of 256
        # rows, 43 % of N x N (measured 1.55; 2.15 with a float64 H^t and
        # 16 bytes per w_h0 entry, 2.76 when the log bias was dense)
        assert self._peak_square_arrays(600) <= 1.65

    def test_peak_memory_at_n2000(self):
        # at N=2000 the peak is the graph build's: the score matrix, its
        # boolean support and the sparse w_h0, 12 bytes per entry (measured
        # 1.38; 1.59 with a float64 H^t and 16 bytes per w_h0 entry, 2.18
        # when the log bias was dense and the SOG product a second array)
        assert self._peak_square_arrays(2000) <= 1.45

    def test_peak_memory_at_n2000_dense_graph(self):
        # at 70 % inliers w_h0 holds 49 % of N x N: the graph build's score
        # matrix, support and w_h0 at 1.5 N^2 per unit of density (measured
        # 2.01; 2.99 with a float64 H^t and 16 bytes per w_h0 entry)
        assert self._peak_square_arrays(2000, inlier_ratio=0.7) <= 2.1

    @pytest.mark.parametrize("seed", [1, 4, 6])
    def test_labelled_scene_with_empty_initial_hypergraph(self, seed):
        # a graph with edges but no triangle: the SOG weights and H^0 are
        # empty, the network still runs, and the precision of an empty
        # hypergraph is undefined, so it is reported as None
        rng = np.random.default_rng(seed)
        src = rng.uniform(-2, 2, (12, 3))
        tgt = src + rng.normal(0, 0.15, (12, 3))
        params = init_params(8, 0)
        cc, pc = CompatConfig(sigma_d=0.1), PipelineConfig()
        assert not np.any(oracles.dense(build_compat_graph(CorrSet(src, tgt), cc).w_h0))
        t_plain, diag_plain = register(CorrSet(src, tgt), params, cc, pc)
        labelled = CorrSet(src, tgt, labels=np.ones(12, dtype=bool))
        t, diag = register(labelled, params, cc, pc)
        assert diag["hyperedge_precision_before"] is None
        assert diag["hyperedge_precision_after"] is None
        assert np.array_equal(t.R, t_plain.R) and np.array_equal(t.t, t_plain.t)
        assert diag["best_score"] == diag_plain["best_score"] > 0

    def test_all_degenerate_seeds_raise_no_hypothesis(self):
        from hgct.errors import NoHypothesis
        # collinear source points: every minimal subset is rank-deficient,
        # but the translation-consistent pairs keep the graph non-empty
        src = np.zeros((10, 3))
        src[:, 0] = np.linspace(0.0, 1.0, 10)
        cs = CorrSet(src, src + np.array([0.5, -0.2, 0.1]))
        params = init_params(channels=4, seed=0)
        with pytest.raises(NoHypothesis):
            register(cs, params, CompatConfig(sigma_d=0.1), PipelineConfig())

    def test_millimetre_scene_raises_no_hypothesis(self):
        # the thresholds are in metres: on a scene in millimetres every
        # residual exceeds theta_inlier and the best score is 0
        from hgct.errors import NoHypothesis
        params = init_params(channels=32, seed=0)
        for seed in range(2):
            sc = gen_scene(SynthConfig(n_corrs=200, seed=seed))
            mm = CorrSet(1000.0 * sc.src, 1000.0 * sc.tgt,
                         gt=RigidTransform(sc.gt.R, 1000.0 * sc.gt.t), labels=sc.labels)
            with pytest.raises(NoHypothesis, match="metres"):
                register(mm, params, CompatConfig(), PipelineConfig())
            _, diag = register(sc, params, CompatConfig(), PipelineConfig())
            assert diag["best_score"] > 0 and diag["re_deg"] < 1.0
