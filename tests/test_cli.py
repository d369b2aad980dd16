import argparse
import dataclasses
import importlib
import json
import multiprocessing
import os

import numpy as np
import pytest

import hgct.cli
import oracles
from baselines import run_suite
from hgct.cli import build_parser, main
from hgct.config import RunConfig, parse_config
from hgct.geom import CorrSet
from hgct.hgnn import init_params, load_checkpoint, save_checkpoint
from hgct.metrics import aggregate
from hgct.sceneio import read_dataset, read_scene, write_scene
from hgct.train import SynthConfig, gen_scene, train

DEMO_SCENE = os.path.join(os.path.dirname(__file__), "..", "data", "demo_scene.txt")


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.fixture
def small_dataset(tmp_path):
    cfg = _write_config(tmp_path, "n_scenes = 2\nn_corrs = 40\n"
                                  "inlier_ratio = 1.0\nnoise_sigma = 0.0\n")
    out = str(tmp_path / "data")
    assert main(["gen", "--config", cfg, "--out", out]) == 0
    return out


class TestGen:
    def test_single_scene_and_manifest(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "n_scenes = 1\nn_corrs = 20\n")
        out = str(tmp_path / "data")
        assert main(["gen", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "scene_0000.txt"))
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "n_scenes = 2\nn_corrs = 15\n")
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        main(["gen", "--config", cfg, "--out", out1])
        main(["gen", "--config", cfg, "--out", out2])
        for name in os.listdir(out1):
            with open(os.path.join(out1, name), "rb") as f1, \
                 open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_missing_out_fails(self, tmp_path, capsys):
        assert main(["gen"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_scenes_fails(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "n_scenes = 0\n")
        out = tmp_path / "data"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: n_scenes must be >= 1, got 0\n"
        assert not out.exists()


class TestRegister:
    def test_demo_scene_prints_matrix_and_errors(self, small_dataset, capsys):
        scene = os.path.join(small_dataset, "scene_0000.txt")
        assert main(["register", scene]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines[0].split()) == 4  # 4x4 matrix rows
        assert any(line.startswith("RE_deg=") for line in lines)

    def test_shipped_demo_fixture(self, capsys):
        assert main(["register", DEMO_SCENE]) == 0
        out = capsys.readouterr().out
        re_line = [l for l in out.splitlines() if l.startswith("RE_deg=")][0]
        re_deg = float(re_line.split()[0].split("=")[1])
        assert re_deg < 5.0  # registers even untrained

    def test_diagnostics_json(self, small_dataset, tmp_path, capsys):
        scene = os.path.join(small_dataset, "scene_0000.txt")
        diag_path = str(tmp_path / "diag.json")
        assert main(["register", scene, "--out", diag_path]) == 0
        with open(diag_path) as f:
            diag = json.load(f)
        assert "seeds" in diag and "timings_ms" in diag

    def test_missing_scene_errors(self, capsys):
        assert main(["register", "/nonexistent/scene.txt"]) == 2


class TestErrors:
    """Bad input ends in one `error: ...` line and exit status 2."""

    def _expect_error(self, argv, capsys, fragment):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert fragment in err

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "sigma_d = -1\n")
        self._expect_error(["register", "--config", cfg, DEMO_SCENE], capsys,
                           "sigma_d must be positive")

    @pytest.mark.parametrize("setting", ["theta_inlier = -0.1", "theta_inlier = nan",
                                         "nms_radius = -1"])
    def test_distance_setting_not_positive(self, tmp_path, capsys, setting):
        cfg = _write_config(tmp_path, setting + "\n")
        self._expect_error(["register", "--config", cfg, DEMO_SCENE], capsys,
                           setting.split()[0] + " must be positive")

    # the gradient check and the checkpoint have no config keys: the check
    # runs at fixed settings, and --checkpoint names the file
    @pytest.mark.parametrize("command, setting, fragment", [
        ("register", "channels = 0", "channels must be >= 1"),
        ("gradcheck", "gradcheck_n = 8", "line 1: unknown key 'gradcheck_n'"),
        ("gradcheck", "gradcheck_channels = 0", "line 1: unknown key 'gradcheck_channels'"),
        ("gradcheck", "gradcheck_step = 0", "line 1: unknown key 'gradcheck_step'"),
        ("gradcheck", "gradcheck_step = inf", "line 1: unknown key 'gradcheck_step'"),
        ("gradcheck", "gradcheck_tol = nan", "line 1: unknown key 'gradcheck_tol'"),
        ("register", "checkpoint = model.ckpt", "line 1: unknown key 'checkpoint'"),
        ("register", "knn_k = 0", "knn_k must be >= minimal_size"),
        ("register", "max_iters = -1", "max_iters must be >= 0"),
    ])
    def test_network_and_gradcheck_keys(self, tmp_path, capsys, command, setting,
                                        fragment):
        cfg = _write_config(tmp_path, setting + "\n")
        argv = [command, "--config", cfg] + ([DEMO_SCENE] if command == "register" else [])
        self._expect_error(argv, capsys, fragment)

    def test_checkpoint_bad_magic(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"NOT-A-CHECKPOINT" + bytes(64))
        self._expect_error(["register", DEMO_SCENE, "--checkpoint", str(ckpt)],
                           capsys, "bad magic")

    def test_scene_row_with_nan(self, small_dataset, tmp_path, capsys):
        with open(os.path.join(small_dataset, "scene_0000.txt")) as f:
            lines = f.read().splitlines()
        row = lines[2 + 5].split()  # header and gt line come first
        row[0] = "nan"
        lines[2 + 5] = " ".join(row)
        scene = tmp_path / "nan_scene.txt"
        scene.write_text("\n".join(lines) + "\n")
        self._expect_error(["register", str(scene)], capsys, "row 5 has a non-finite")


class TestBench:
    def test_bench_writes_csv_and_json(self, small_dataset, tmp_path, capsys):
        out = str(tmp_path / "bench")
        assert main(["bench", small_dataset, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["n_pairs"] == 2
        assert summary["rr"] == 1.0
        csv_text = open(os.path.join(out, "results.csv")).read().splitlines()
        assert csv_text[0].startswith("scene,re_deg")
        assert len(csv_text) == 3

    def test_failed_pairs_count_in_rr(self, tmp_path, capsys):
        # one good scene and one whose compatibility graph is empty
        rng = np.random.default_rng(12345)
        src = np.zeros((10, 3))
        src[:, 0] = np.linspace(0.0, 1.0, 10)
        broken = CorrSet(src, rng.uniform(40, 50, (10, 3)),
                         gt=oracles.identity())
        good = gen_scene(SynthConfig(n_corrs=60, inlier_ratio=1.0,
                                     noise_sigma=0.0, seed=3))
        data = tmp_path / "data"
        data.mkdir()
        write_scene(good, data / "scene_0000.txt")
        write_scene(broken, data / "scene_0001.txt")
        cfg_text = "sigma_d = 0.01\n"
        cfg = _write_config(tmp_path, cfg_text)
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", cfg, str(data), "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["n_pairs"] == 2
        assert summary["rr"] == 0.5
        assert summary["n_failures"] == 1
        with open(os.path.join(out, "results.csv")) as f:
            rows = f.read().splitlines()
        assert rows[2].split(",")[:4] == ["scene_0001.txt", "", "", "error"]

        run_cfg = parse_config(cfg_text)
        suite = run_suite([read_scene(p) for p in sorted(data.iterdir())],
                          init_params(run_cfg.channels, run_cfg.seed),
                          run_cfg.compat_config(), run_cfg.pipeline_config(),
                          run_cfg.thresholds())
        assert aggregate(suite, run_cfg.thresholds())["rr"] == summary["rr"]

        (data / "scene_0000.txt").unlink()
        assert main(["bench", "--config", cfg, str(data), "--out", out]) == 2
        assert "every pair failed" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unreadable_scene_is_a_failed_pair(self, tmp_path, capsys, threads):
        cfg = _write_config(tmp_path, f"n_scenes = 3\nn_corrs = 40\nthreads = {threads}\n"
                                      "inlier_ratio = 1.0\nnoise_sigma = 0.0\n")
        data = str(tmp_path / "data")
        assert main(["gen", "--config", cfg, "--out", data]) == 0
        bad = os.path.join(data, "scene_0001.txt")
        with open(bad) as f:
            lines = f.read().splitlines()
        row = lines[2 + 5].split()  # header and gt line come first
        row[0] = "nan"
        lines[2 + 5] = " ".join(row)
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", cfg, data, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["n_pairs"] == 3
        assert summary["n_failures"] == 1
        assert summary["rr"] == pytest.approx(2 / 3)
        with open(os.path.join(out, "results.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        assert [r[0] for r in rows] == ["scene_0000.txt", "scene_0001.txt",
                                        "scene_0002.txt"]
        assert rows[1][3] == "error"
        assert rows[0][3] == rows[2][3] == "1"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_too_small_scene_is_a_failed_pair(self, tmp_path, capsys, threads):
        # 4 correspondences, below minimal_size = 6
        cfg = _write_config(tmp_path, f"n_scenes = 3\nn_corrs = 40\nthreads = {threads}\n"
                                      "inlier_ratio = 1.0\nnoise_sigma = 0.0\n")
        data = str(tmp_path / "data")
        assert main(["gen", "--config", cfg, "--out", data]) == 0
        small = os.path.join(data, "scene_0001.txt")
        corrs = read_scene(small)
        write_scene(CorrSet(corrs.src[:4], corrs.tgt[:4], gt=corrs.gt), small)
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", cfg, data, "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert (summary["n_pairs"], summary["n_failures"]) == (3, 1)
        with open(os.path.join(out, "results.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        assert [r[3] for r in rows] == ["1", "error", "1"]

    def test_serial_bench_loads_checkpoint_once(self, small_dataset, tmp_path,
                                                capsys, monkeypatch):
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_params(channels=8, seed=0), ckpt)
        calls = []
        load = hgct.cli.load_checkpoint

        def counting_load(path):
            calls.append(path)
            return load(path)

        monkeypatch.setattr(hgct.cli, "load_checkpoint", counting_load)
        assert main(["bench", small_dataset, "--checkpoint", ckpt,
                     "--out", str(tmp_path / "bench")]) == 0
        assert calls == [ckpt]

    def test_empty_dataset_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", str(empty)]) == 2
        assert "no scenes found" in capsys.readouterr().err

    def test_worker_pool_matches_serial(self, small_dataset, tmp_path,
                                        capsys, monkeypatch):
        serial = str(tmp_path / "serial")
        pooled = str(tmp_path / "pooled")
        cfg = _write_config(tmp_path, "threads = 2\n"
                                      "inlier_ratio = 1.0\nnoise_sigma = 0.0\n")
        main(["bench", small_dataset, "--out", serial])
        assert main(["bench", "--config", cfg, small_dataset,
                     "--out", pooled]) == 0
        a = json.load(open(os.path.join(serial, "summary.json")))
        b = json.load(open(os.path.join(pooled, "summary.json")))
        a.pop("mean_runtime_s")
        b.pop("mean_runtime_s")
        assert a == b

    def test_pool_results_csv_matches_serial(self, small_dataset, tmp_path, capsys):
        rows = {}
        for threads in (1, 2):
            cfg = _write_config(tmp_path, f"threads = {threads}\n")
            out = str(tmp_path / f"bench{threads}")
            assert main(["bench", "--config", cfg, small_dataset, "--out", out]) == 0
            with open(os.path.join(out, "results.csv")) as f:
                rows[threads] = [line.split(",")[:-1] for line in f.read().splitlines()]
        assert rows[1] == rows[2]

    def test_dead_worker_is_one_error_line(self, small_dataset, tmp_path, capsys,
                                           monkeypatch):
        # this process scores the first scene, the worker the second
        parent = os.getpid()
        evaluate = hgct.cli.evaluate_scene

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(9)
            return evaluate(*args)

        monkeypatch.setattr(hgct.cli, "evaluate_scene", die_in_worker)
        cfg = _write_config(tmp_path, "threads = 2\n")
        assert main(["bench", "--config", cfg, small_dataset,
                     "--out", str(tmp_path / "bench")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "bench worker process exited" in err[0] and "exit code 9" in err[0]
        assert multiprocessing.active_children() == []

    def test_report_merges_summaries(self, small_dataset, tmp_path, capsys):
        out = str(tmp_path / "bench")
        main(["bench", small_dataset, "--out", out])
        capsys.readouterr()
        assert main(["report", os.path.join(out, "summary.json")]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].startswith("run,n_pairs,rr")
        assert len(text.splitlines()) == 2


class TestTrain:
    def test_train_writes_checkpoint_and_log(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "n_scenes = 2\nn_corrs = 30\nepochs = 2\n"
                                      "batch = 2\nchannels = 4\nlr = 0.001\n")
        data = str(tmp_path / "data")
        main(["gen", "--config", cfg, "--out", data])
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", cfg, data, "--out", ckpt]) == 0
        assert os.path.exists(ckpt)
        log = ckpt + ".train.csv"
        assert os.path.exists(log)
        lines = open(log).read().strip().splitlines()
        assert lines[0].startswith("epoch,mean_loss_class")
        assert len(lines) == 3

    def test_train_builds_the_configured_graph(self, tmp_path, capsys):
        text = ("n_scenes = 2\nn_corrs = 30\nepochs = 2\nbatch = 2\nchannels = 4\n"
                "lr = 0.001\ngraph_order = fog\nk1_frac = 0.3\n")
        cfg = _write_config(tmp_path, text)
        data = str(tmp_path / "data")
        main(["gen", "--config", cfg, "--out", data])
        ckpt = str(tmp_path / "model.ckpt")
        assert main(["train", "--config", cfg, data, "--out", ckpt]) == 0
        run_cfg = parse_config(text)
        want = train(read_dataset(data), run_cfg.train_config(),
                     init_params(channels=run_cfg.channels, seed=run_cfg.seed),
                     cc=run_cfg.compat_config())
        assert np.array_equal(load_checkpoint(ckpt).flat(), want.flat())

    def test_register_with_checkpoint(self, small_dataset, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_params(channels=8, seed=0), ckpt)
        scene = os.path.join(small_dataset, "scene_0000.txt")
        cfg = _write_config(tmp_path, "channels = 8\n")
        assert main(["register", "--config", cfg, scene,
                     "--checkpoint", ckpt]) == 0


class TestGradcheck:
    def test_pass_line(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "seed = 3\n")  # criterion 2's seed
        assert main(["gradcheck", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS max_rel_err=")
        assert out.rstrip().endswith(" n_params=3842")

    @pytest.mark.parametrize("argv, config, seed", [
        ([], None, 0), (["--config"], "seed = 2\n", 2)])
    def test_seed_reaches_the_check(self, tmp_path, capsys, monkeypatch,
                                    argv, config, seed):
        seen = {}

        def spy(**kwargs):
            seen.update(kwargs)
            return {"max_rel_err": 0.0, "worst_param": "conf.b[0]", "n_params": 1}

        # by module path: the package re-exports the function train.train
        monkeypatch.setattr(importlib.import_module("hgct.train"), "gradient_check", spy)
        if config is not None:
            argv = argv + [_write_config(tmp_path, config)]
        assert main(["gradcheck"] + argv) == 0
        assert seen == {"seed": seed}


class TestDefaults:
    def test_defaults_printed(self, capsys):
        assert main(["defaults"]) == 0
        out = capsys.readouterr().out
        assert "sigma_d = 0.1" in out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "nonsense = 1\n")
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "nonsense" in capsys.readouterr().err


def _subparsers():
    """{command: its parser} of build_parser()."""
    action, = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestFlags:
    # positional arguments each command needs before its flags are checked
    POSITIONAL = {"train": ["data"], "register": ["scene.txt"], "bench": ["data"],
                  "report": ["summary.json"]}

    @pytest.mark.parametrize("command, flag", [
        ("defaults", "--config"), ("defaults", "--seed"), ("defaults", "--out"),
        ("report", "--config"), ("report", "--seed"), ("gradcheck", "--out"),
        ("gen", "--seed"), ("train", "--seed"), ("register", "--seed"),
        ("bench", "--seed"), ("gradcheck", "--seed")])
    def test_flag_the_command_never_reads_is_a_usage_error(self, command, flag, capsys):
        argv = [command, flag, "3"] + self.POSITIONAL.get(command, [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_flag_is_a_path_not_a_config_key(self):
        keys = {f.name for f in dataclasses.fields(RunConfig)}
        flags = []
        for command, parser in _subparsers().items():
            for action in parser._actions:
                if action.option_strings and action.dest != "help":
                    assert action.dest not in keys, (command, action.option_strings)
                    flags.append(action.option_strings[0])
        assert set(flags) == {"--config", "--out", "--log", "--checkpoint"}
        assert len(flags) == 13
