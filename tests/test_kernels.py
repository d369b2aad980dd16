import ast
import multiprocessing
import os
import pathlib
import time

import numpy as np
import pytest

import oracles
from hgct import kernels
from hgct.errors import ConfigError, HgctError
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
        keep = kernels.nms_select(pts, order, 0.5, len(pts))
        assert keep[order[0]]

    def test_nms_no_two_kept_within_radius(self, rng):
        pts = rng.uniform(-1, 1, (50, 3))
        keep = kernels.nms_select(pts, np.arange(50), 0.4, len(pts))
        kept = np.flatnonzero(keep)
        for a in range(len(kept)):
            for b in range(a + 1, len(kept)):
                assert np.linalg.norm(pts[kept[a]] - pts[kept[b]]) > 0.4

    def test_nms_cap_is_uncapped_prefix(self, rng):
        pts = rng.uniform(-1, 1, (80, 3))
        order = rng.permutation(80)
        full = kernels.nms_select(pts, order, 0.3, len(pts))
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
    def test_zero_means_every_usable_cpu(self):
        cpus = len(os.sched_getaffinity(0))
        assert kernels.worker_count(0, 10_000) == cpus
        assert kernels.worker_count(3, 10_000) == 3

    def test_capped_by_jobs(self):
        assert kernels.worker_count(8, 5) == 5
        assert kernels.worker_count(8, 0) == 1
        assert kernels.worker_count(1, 5) == 1

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError, match="threads"):
            kernels.worker_count(-1, 5)

    def test_serial_without_fork_or_in_a_daemon(self, monkeypatch):
        assert kernels.worker_count(3, 4) == 3
        assert kernels.worker_count(3, 2) == 2
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert kernels.worker_count(3, 4) == 1
        monkeypatch.undo()
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert kernels.worker_count(3, 4) == 1


def _jobs_with_pid(part, failures):
    """(job, pid) per job of the part; raises failures[job] for a listed job."""
    out = []
    for job in part:
        if int(job) in failures:
            raise failures[int(job)]
        out.append((int(job), os.getpid()))
    return out


class TestFanOut:
    def test_results_in_job_order(self):
        with kernels.fan_out("test", _jobs_with_pid, 3, 7) as run:
            # parts of 3, 2, 2 jobs; then 1, 1, 0
            for n_jobs in (7, 2, 6):
                got = run(list(range(10, 10 + n_jobs)), {})
                assert [job for job, _ in got] == list(range(10, 10 + n_jobs))
                assert got[0][1] == os.getpid()  # this process takes the first part
            assert len({pid for _, pid in got}) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failures, raised, message", [
        ({4: HgctError("job 4 failed")}, HgctError, "job 4 failed"),
        ({5: ValueError("job 5 failed")}, ValueError, "job 5 failed"),
        # the first failing job in job order, as in a serial run
        ({3: ValueError("job 3"), 1: HgctError("job 1")}, HgctError, "job 1"),
        ({5: ValueError("job 5"), 3: HgctError("job 3")}, HgctError, "job 3"),
    ])
    def test_a_job_exception_reaches_the_caller(self, failures, raised, message):
        with kernels.fan_out("test", _jobs_with_pid, 2, 6) as run:
            with pytest.raises(raised, match=message):
                run(range(6), failures)
            assert [job for job, _ in run(range(6), {})] == list(range(6))
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_one_error(self):
        parent = os.getpid()

        def die_in_worker(part, payload):
            if os.getpid() != parent:
                os._exit(9)
            return list(part)

        t0 = time.perf_counter()
        with pytest.raises(HgctError, match=r"test worker process exited \(exit code 9\)"):
            with kernels.fan_out("test", die_in_worker, 2, 4) as run:
                run(range(4), None)
        assert time.perf_counter() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_every_process_runs_one_blas_thread(self):
        fns = kernels._openblas_thread_fns()
        if fns is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, _ = fns
        before = get()
        parent = os.getpid()

        def blas_and_os_threads(part, _):
            # a forked worker that set the count would start OpenBLAS's pool
            in_worker = os.getpid() != parent and os.path.isdir("/proc/self/task")
            threads = len(os.listdir("/proc/self/task")) if in_worker else None
            return [(get(), threads) for _ in part]

        with kernels.fan_out("test", blas_and_os_threads, 2, 4) as run:
            got = run(range(4), None)
        assert [blas for blas, _ in got] == [1] * 4
        if os.path.isdir("/proc/self/task"):
            assert [threads for _, threads in got[2:]] == [1, 1]
        assert get() == before


def test_only_kernels_uses_processes():
    """One module forks: no other imports multiprocessing, and nothing in
    src/hgct imports concurrent.futures."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "hgct"
    importers = {}
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                importers.setdefault(module.split(".")[0], set()).add(path.name)
    assert importers["multiprocessing"] == {"kernels.py"}
    assert "concurrent" not in importers
