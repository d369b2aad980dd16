import importlib
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import oracles
from baselines import scene_batch
from hgct import autodiff as av
from hgct import kernels
from hgct.compat import CompatConfig
from hgct.errors import HgctError, NonFinite
from hgct.geom import residuals
from hgct.hgnn import init_params, forward
from hgct.hypergraph import gt_hypergraph
from hgct.train import (GRADCHECK_TOL, Adam, SynthConfig, TrainConfig, gen_scene,
                        gradient_check, joint_loss, loss_class, loss_graph,
                        loss_match, prepare_scene, train)

# the module: the package's `train` attribute is the function
train_module = importlib.import_module("hgct.train")


def _bce_loop(p, y):
    p = np.clip(p, 1e-7, 1 - 1e-7)
    return float(np.mean([-(yi * np.log(pi) + (1 - yi) * np.log(1 - pi))
                          for pi, yi in zip(p.reshape(-1), y.reshape(-1))]))


class TestGenScene:
    def test_noise_free_full_inlier_residuals_zero(self):
        sc = gen_scene(SynthConfig(n_corrs=50, inlier_ratio=1.0,
                                   noise_sigma=0.0, seed=3))
        r = residuals(sc.gt, sc.src, sc.tgt)
        assert np.max(r) < 1e-12
        assert np.all(sc.labels)

    def test_exact_inlier_count(self):
        sc = gen_scene(SynthConfig(n_corrs=1000, inlier_ratio=0.05, seed=1))
        assert int(np.sum(sc.labels)) == 50

    def test_determinism(self):
        a = gen_scene(SynthConfig(n_corrs=40, seed=9))
        b = gen_scene(SynthConfig(n_corrs=40, seed=9))
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.tgt, b.tgt)
        assert np.array_equal(a.labels, b.labels)

    def test_gt_is_valid_rigid(self):
        sc = gen_scene(SynthConfig(n_corrs=20, seed=5))
        assert oracles.is_valid(sc.gt, tol=1e-12)

    def test_inlier_pairs_compatible_monte_carlo(self):
        # with sigma_d = 6 * noise_sigma, inlier pairs stay compatible
        # (gamma > 0) in at least 99 of 100 seeded scenes
        noise = 0.01
        ok = 0
        for seed in range(100):
            sc = gen_scene(SynthConfig(n_corrs=50, inlier_ratio=0.2,
                                       noise_sigma=noise, seed=seed))
            idx = np.flatnonzero(sc.labels)
            inliers = oracles.permuted(sc, idx)
            g = kernels.gamma_matrix(inliers.src, inliers.tgt, 6.0 * noise)
            off = ~np.eye(len(idx), dtype=bool)
            if np.all(g[off] > 0):
                ok += 1
        assert ok >= 99

    def test_scene_batch_curriculum(self):
        scenes = scene_batch(SynthConfig(n_corrs=30), 4, seed0=0,
                             inlier_ratios=[0.1, 0.5])
        counts = [int(s.labels.sum()) for s in scenes]
        assert counts == [3, 15, 3, 15]


class TestLossClass:
    def test_half_everywhere_is_ln2(self):
        s = np.full(10, 0.5)
        labels = np.array([True] * 4 + [False] * 6)
        assert loss_class(av.wrap(s), labels).value == pytest.approx(np.log(2), abs=1e-12)

    def test_perfect_prediction_hits_clamp_floor(self):
        labels = np.array([True, False, True])
        s = labels.astype(float)
        val = loss_class(av.wrap(s), labels).value
        assert 0 < val < 1.1e-7  # -log(1 - 1e-7) per term

    def test_matches_scalar_loop(self, rng):
        s = rng.uniform(0.01, 0.99, 20)
        labels = rng.uniform(size=20) < 0.4
        assert loss_class(av.wrap(s), labels).value == pytest.approx(
            _bce_loop(s, labels.astype(float)), abs=1e-12)

    def test_permutation_invariant(self, rng):
        s = rng.uniform(0.01, 0.99, 15)
        labels = rng.uniform(size=15) < 0.5
        perm = rng.permutation(15)
        assert loss_class(av.wrap(s), labels).value == pytest.approx(
            loss_class(av.wrap(s[perm]), labels[perm]).value, abs=1e-12)


class TestLossMatch:
    def test_identical_features_all_inliers(self):
        x = np.tile([0.3, 0.4], (5, 1))
        assert loss_match(av.wrap(x), np.ones(5, dtype=bool), av.wrap(1.0)).value == 0.0

    def test_identical_features_all_outliers(self):
        # eta = 1 everywhere, eta* = 0 everywhere (diagonal included since
        # labels are false) -> every one of the N^2 terms is 1
        x = np.tile([0.3, 0.4], (2, 1))
        assert loss_match(av.wrap(x), np.zeros(2, dtype=bool),
                          av.wrap(1.0)).value == pytest.approx(1.0)

    def test_matches_double_loop(self, rng):
        x = rng.normal(size=(7, 4))
        labels = rng.uniform(size=7) < 0.5
        sigma = 1.3
        n = 7
        acc = 0.0
        for i in range(n):
            for j in range(n):
                d2 = float(np.sum((x[i] - x[j]) ** 2))
                eta = max(0.0, 1.0 - d2 / sigma ** 2)
                eta_star = 1.0 if (labels[i] and labels[j]) else 0.0
                acc += (eta - eta_star) ** 2
        assert loss_match(av.wrap(x), labels, av.wrap(sigma)).value == pytest.approx(
            acc / n ** 2, abs=1e-12)

    def test_eta_bounds_and_symmetry(self, rng):
        # reconstruct eta inside the loss by comparing against a direct eval
        x = rng.normal(size=(6, 3))
        sq = np.sum(x * x, axis=1)
        d = np.maximum(0.0, sq[:, None] + sq[None, :] - 2 * x @ x.T)
        eta = np.maximum(0.0, 1.0 - d / 0.81)
        assert np.all((eta >= 0) & (eta <= 1 + 1e-12))
        assert np.allclose(eta, eta.T)


class TestLossGraph:
    def test_exact_match_hits_clamp_floor(self):
        h_star = gt_hypergraph([True, False, True])
        val = loss_graph(av.wrap(h_star.copy()), h_star).value
        assert 0 < val < 1.1e-7

    def test_half_everywhere_is_ln2(self, rng):
        h_star = (rng.uniform(size=(5, 5)) < 0.5).astype(float)
        w = np.full((5, 5), 0.5)
        assert loss_graph(av.wrap(w), h_star).value == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_loop(self, rng):
        w = rng.uniform(size=(6, 6))
        h_star = (rng.uniform(size=(6, 6)) < 0.3).astype(float)
        assert loss_graph(av.wrap(w), h_star).value == pytest.approx(_bce_loop(w, h_star),
                                                                     abs=1e-12)

    def test_row_mean_equals_total_mean(self, rng):
        # per-row mean BCE averaged over rows == grand mean for square input
        w = rng.uniform(size=(4, 4))
        h_star = (rng.uniform(size=(4, 4)) < 0.5).astype(float)
        rows = [_bce_loop(w[i], h_star[i]) for i in range(4)]
        assert loss_graph(av.wrap(w), h_star).value == pytest.approx(np.mean(rows), abs=1e-12)


class TestJointLoss:
    def test_components_positive_finite(self):
        sc = gen_scene(SynthConfig(n_corrs=20, inlier_ratio=0.5, seed=2))
        ps = prepare_scene(sc, 0.1, 0.1)
        params = init_params(channels=8, seed=0)
        tr = forward(ps.corrs, ps.hg0, ps.w_h0, params)
        total, comps = joint_loss(tr, ps.labels, params)
        for key in ("class", "match", "graph"):
            assert comps[key] >= 0 and np.isfinite(comps[key])
        assert comps["total"] == pytest.approx(
            comps["class"] + comps["match"] + comps["graph"], abs=1e-12)


class TestPrepareScene:
    def test_holds_two_square_arrays(self):
        # a prepared scene keeps H^0 and w_h0 and nothing else of size N x N:
        # W_H^0 is never built
        import tracemalloc
        n = 600
        sc = gen_scene(SynthConfig(n_corrs=n, inlier_ratio=0.3, seed=1))
        prepare_scene(sc, 0.1, 0.1)  # warm-up outside the measurement
        tracemalloc.start()
        try:
            ps = prepare_scene(sc, 0.1, 0.1)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ps.hg0.shape == ps.w_h0.shape == (n, n)
        assert held / (8.0 * n * n) <= 2.05


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = init_params(channels=4, seed=0)
        before = params.flat()
        opt = Adam(params)
        opt.step(params, {n: np.zeros_like(params.value(n))
                          for n in params.names}, lr=1e-3)
        assert np.array_equal(params.flat(), before)

    def test_step_moves_params(self):
        params = init_params(channels=4, seed=0)
        before = params.flat()
        opt = Adam(params)
        grads = {n: np.ones_like(params.value(n)) for n in params.names}
        opt.step(params, grads, lr=1e-3)
        assert not np.array_equal(params.flat(), before)


class TestTrainLoop:
    def _scenes(self, n_scenes=4, n=30):
        return scene_batch(SynthConfig(n_corrs=n, inlier_ratio=0.4,
                                       noise_sigma=0.01), n_scenes, seed0=10)

    def test_lr_zero_keeps_params_bitwise(self):
        scenes = self._scenes()
        params0 = init_params(channels=8, seed=1)
        tc = TrainConfig(epochs=2, lr=0.0, batch=2, seed=0)
        out = train(scenes, tc, params0)
        assert np.array_equal(out.flat(), params0.flat())

    def test_seed_determinism(self):
        scenes = self._scenes()
        tc = TrainConfig(epochs=2, lr=1e-3, batch=2, seed=5)
        a = train(scenes, tc, init_params(channels=8, seed=1))
        b = train(scenes, tc, init_params(channels=8, seed=1))
        assert np.array_equal(a.flat(), b.flat())

    def test_loss_decreases_on_small_run(self):
        scenes = self._scenes(n_scenes=6, n=40)
        tc = TrainConfig(epochs=8, lr=3e-3, batch=3, seed=0)
        hist = []
        train(scenes, tc, init_params(channels=8, seed=1), history=hist)
        assert hist[-1]["total"] < hist[0]["total"]

    def test_csv_log_schema(self, tmp_path):
        scenes = self._scenes(n_scenes=2)
        log = tmp_path / "train.csv"
        tc = TrainConfig(epochs=2, lr=1e-3, batch=2, seed=0)
        train(scenes, tc, init_params(channels=4, seed=1), log_csv=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == ("epoch,mean_loss_class,mean_loss_match,"
                            "mean_loss_graph,mean_loss_total,wall_seconds")
        assert len(lines) == 3

    def test_empty_scene_stream_raises(self):
        with pytest.raises(ValueError):
            train([], TrainConfig(), init_params(channels=4, seed=0))

    def test_graph_config_must_carry_the_training_sigma_d(self):
        # the graph is built from cc: a different tc.sigma_d would be ignored
        scenes = self._scenes(n_scenes=1)
        tc = TrainConfig(epochs=1, batch=1, seed=0, sigma_d=0.3)
        with pytest.raises(ValueError, match="sigma_d"):
            train(scenes, tc, init_params(channels=4, seed=1), cc=CompatConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf propagates
    def test_nonfinite_abort_names_scene(self):
        from hgct.errors import NonFinite
        scenes = self._scenes(n_scenes=2)
        params = init_params(channels=4, seed=1)
        params.var("input_lift.w").value[0, 0] = np.inf
        with pytest.raises(NonFinite, match="scene"):
            train(scenes, TrainConfig(epochs=1, batch=1, seed=0), params)


class TestGradientCheck:
    def test_small_instance_passes(self):
        rep = gradient_check(seed=0)  # the default seed; criterion 2 runs seed 3
        assert rep["max_rel_err"] < GRADCHECK_TOL
        assert rep["n_params"] == 3842


@pytest.fixture
def alarm():
    """Fails the test instead of letting it hang past `seconds`."""
    def on_alarm(signum, frame):
        raise TimeoutError("train did not return")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield lambda seconds: signal.alarm(seconds)
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestParallelTrain:
    def _scenes(self, n_scenes):
        return scene_batch(SynthConfig(n_corrs=30, inlier_ratio=0.4,
                                       noise_sigma=0.01), n_scenes, seed0=20)

    def _train(self, scenes, **tc_fields):
        history = []
        params = train(scenes, TrainConfig(lr=1e-3, seed=3, **tc_fields),
                       init_params(channels=8, seed=1), history=history)
        return params.flat(), history

    # uneven splits, an empty part, a short last chunk, threads above the batch
    @pytest.mark.parametrize("n_scenes,batch,epochs,threads", [
        (7, 5, 3, 2), (7, 5, 2, 3), (6, 2, 2, 4), (5, 6, 2, 2)])
    def test_bit_identical_to_serial(self, n_scenes, batch, epochs, threads):
        scenes = self._scenes(n_scenes)
        serial = self._train(scenes, epochs=epochs, batch=batch, threads=1)
        parallel = self._train(scenes, epochs=epochs, batch=batch, threads=threads)
        assert np.array_equal(parallel[0], serial[0])
        assert parallel[1] == serial[1]
        assert not multiprocessing.active_children()

    def test_worker_nonfinite_carries_serial_message(self, monkeypatch):
        scenes = self._scenes(4)
        # with batch 2 and two processes the worker computes the second scene
        # of each chunk
        target = int(np.random.default_rng(0).permutation(4)[1])
        computed_here = []

        def forward_failing_on_target(corrs, *args, **kwargs):
            idx = next(i for i, s in enumerate(scenes) if s is corrs)
            computed_here.append(idx)
            if idx == target:
                raise NonFinite("injected")
            return forward(corrs, *args, **kwargs)

        monkeypatch.setattr(train_module, "forward", forward_failing_on_target)
        messages = []
        for threads in (1, 2):
            computed_here.clear()
            with pytest.raises(NonFinite) as err:
                train(scenes, TrainConfig(epochs=1, batch=2, seed=0, threads=threads),
                      init_params(channels=4, seed=1))
            messages.append(str(err.value))
        assert messages == [f"scene {target}: injected"] * 2
        assert target not in computed_here  # the worker raised it
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("where", ["_scene_grads", "_serve"])
    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch, alarm, where):
        # the worker exits while computing, or before it reads its first message
        parent = os.getpid()
        module = kernels if where == "_serve" else train_module
        original = getattr(module, where)

        def exit_in_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return original(*args)

        monkeypatch.setattr(module, where, exit_in_worker)
        alarm(60)
        t0 = time.perf_counter()
        with pytest.raises(HgctError, match=r"train worker process exited \(exit code 3\)"):
            train(self._scenes(4), TrainConfig(epochs=2, batch=2, threads=2),
                  init_params(channels=4, seed=1))
        assert time.perf_counter() - t0 < 30
        assert not multiprocessing.active_children()

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            TrainConfig(threads=-1)
