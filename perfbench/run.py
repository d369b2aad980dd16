"""Benchmark of the hgct registration pipeline and its training loop.

Run from the repository root:

    python3 perfbench/run.py --workload register-n200 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop (one caller, one scene at a time, one process)
that repeats whole rounds until --seconds have passed. A round reads and
registers every registration scene file, then makes one train() call:

  register-n200   113 files at N=200; train() on 6 scenes, 2 epochs
  register-n2000  3 files at N=2000; train() on 6 scenes, 2 epochs
  train-n200      10 files at N=200; train() on 12 scenes, 4 epochs

So every metric and every layer is measured on every workload, in different
proportions. The benchmark writes its scenes itself, as HGCT-CORR v1 files,
and the program sees only those files.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 the layers' public functions are wrapped
in spans and the JSON holds the per-layer metrics. The lines before it
describe the run. Exit status 2 means the program's sources were not found.
"""

import time

T_START = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

from scenes import (is_rotation, make_scene, rotation_error_deg,  # noqa: E402
                    translation_error_m, truncated_mae, write_scene_file)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

PARAM_SEED = 0          # the network is fixed; --seed varies the scenes
CHANNELS = 32
SETUP_REPS = 7          # set-up is repeated and its median reported
MISS_RE_DEG = 5.0       # a registration beyond either limit is a failed operation
MISS_TE_M = 0.05
EXACT_RE_DEG = 1e-6     # noise-free, all-inlier scenes must be recovered this closely
EXACT_TE_M = 1e-9
NOISE_M = 0.01
CURRICULUM = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class SceneSpec:
    n: int
    inlier_ratio: float
    noise_m: float
    key: Tuple[int, ...]   # seed sequence of the scene's generator


@dataclass(frozen=True)
class Workload:
    name: str
    reg_n: int
    reg_ratios: Tuple[float, ...]               # one noisy scene each
    noise_free: Tuple[Tuple[float, int], ...]   # (inlier ratio, count)
    with_fault_a: bool      # add FAULT_A_SCENE to every round
    train_scenes: int
    train_epochs: int


# The registration scenes do not depend on --seed; the training scenes do.
# With untrained parameters about one noisy scene in 1500 is registered far
# off (FOUND fault (a) in CHANGES.md: every graph-filter seed is an outlier),
# so scenes drawn from the seed would make the share of failed operations
# change with the seed. A fixed set fails the same way in every run, and
# FAULT_A_SCENE, one such scene, keeps the fault counted in `failed`.
FAULT_A_SCENE = SceneSpec(200, 0.3, NOISE_M, (77, 3, 200))

WORKLOADS = {w.name: w for w in [
    # 100 noisy scenes at 10..50 % inliers, 8 noise-free ones at 30 % and 4
    # noise-free all-inlier ones (exact recovery).
    Workload("register-n200", 200, (0.1, 0.2, 0.3, 0.4, 0.5) * 20,
             ((0.3, 8), (1.0, 4)), True, 6, 2),
    Workload("register-n2000", 2000, (0.05, 0.1, 0.3), (), False, 6, 2),
    Workload("train-n200", 200, (0.1, 0.2, 0.3, 0.4, 0.5) * 2, (), False, 12, 4),
]}


def register_specs(w: Workload) -> List[SceneSpec]:
    specs = [SceneSpec(w.reg_n, r, NOISE_M, (1, w.reg_n, i))
             for i, r in enumerate(w.reg_ratios)]
    for ratio, count in w.noise_free:
        specs += [SceneSpec(w.reg_n, ratio, 0.0, (2, w.reg_n, int(100 * ratio), i))
                  for i in range(count)]
    return specs + [FAULT_A_SCENE] * w.with_fault_a


def train_specs(w: Workload, seed: int) -> List[SceneSpec]:
    return [SceneSpec(200, CURRICULUM[i % len(CURRICULUM)], NOISE_M, (3, seed, i))
            for i in range(w.train_scenes)]


class Program:
    """The modules of the program under test, imported from <root>/src."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "hgct", "__init__.py")):
            raise FileNotFoundError(f"program sources not found under {src}")
        sys.path.insert(0, src)
        # by module path: the package re-exports the function train.train
        # under the name of its module
        for name in ("autodiff", "compat", "hgnn", "kernels", "pipeline", "sceneio",
                     "train"):
            setattr(self, name, importlib.import_module(f"hgct.{name}"))
        self.error = importlib.import_module("hgct.errors").HgctError


def blas_description() -> str:
    """BLAS library and, for OpenBLAS, its thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{name}, {fn()} threads"
    return f"{name}, threads unknown"


class Run:
    """One workload in one process: set-up, timed rounds, output checks."""

    def __init__(self, prog: Program, w: Workload, seed: int):
        self.prog, self.w, self.seed = prog, w, seed
        self.dir = os.path.join(OUT_DIR, f"{w.name}-seed{seed}")
        self.cc = prog.compat.CompatConfig()
        self.pc = prog.pipeline.PipelineConfig()
        self.tc = prog.train.TrainConfig(epochs=w.train_epochs, lr=1e-3, lr_decay=0.99,
                                         batch=6, seed=seed)
        self.errors: List[str] = []   # failed output checks: the run is not correct
        self.attempted = 0
        self.failed = 0
        self.reg_s: List[float] = []  # register() wall times
        self.reg_busy_s = 0.0         # read_scene + register wall time
        self.re_deg: List[float] = []
        self.te_m: List[float] = []
        self.steps_per_s: List[float] = []   # one per train() call

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Generate and write every scene, save and load the checkpoint, warm
        up; returns the wall time."""
        t0 = time.perf_counter()
        prog = self.prog
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.reg_items = self._write(register_specs(self.w), "reg")
        self.train_items = self._write(train_specs(self.w, self.seed), "train")
        ckpt = os.path.join(self.dir, "params.ckpt")
        prog.hgnn.save_checkpoint(prog.hgnn.init_params(channels=CHANNELS, seed=PARAM_SEED),
                                  ckpt)
        self.params = prog.hgnn.load_checkpoint(ckpt)
        warm = prog.sceneio.read_scene(self.train_items[0][0])
        prog.pipeline.register(warm, self.params, self.cc, self.pc)
        return time.perf_counter() - t0

    def _write(self, specs: List[SceneSpec], tag: str):
        items = []
        for i, spec in enumerate(specs):
            scene = make_scene(np.random.default_rng(spec.key), spec.n, spec.inlier_ratio,
                               spec.noise_m)
            path = os.path.join(self.dir, f"{tag}_{i:04d}.txt")
            write_scene_file(scene, path)
            items.append((path, scene, spec))
        return items

    # -- registration -----------------------------------------------------

    def register_round(self) -> None:
        for path, scene, spec in self.reg_items:
            self.register_one(path, scene, spec)

    def register_one(self, path: str, scene, spec: SceneSpec) -> None:
        prog = self.prog
        self.attempted += 1
        t0 = time.perf_counter()
        corrs = prog.sceneio.read_scene(path)
        t1 = time.perf_counter()
        try:
            transform, diag = prog.pipeline.register(corrs, self.params, self.cc, self.pc)
        except prog.error as err:
            self.failed += 1
            print(f"failed: {os.path.basename(path)}: register raised {err!r}")
            return
        t2 = time.perf_counter()
        self.reg_s.append(t2 - t1)
        self.reg_busy_s += t2 - t0

        self._check_read(path, corrs, scene)
        if not is_rotation(transform.R):
            self.errors.append(f"{path}: returned R is not a rotation")
        own = truncated_mae(transform.R, transform.t, scene.src, scene.tgt,
                            self.pc.theta_inlier)
        if abs(diag["best_score"] - own) > 1e-9 * max(1.0, abs(own)):
            self.errors.append(f"{path}: best_score {diag['best_score']!r} != {own!r}")
        re = rotation_error_deg(transform.R, scene.rot)
        te = translation_error_m(transform.t, scene.trans)
        if spec.noise_m == 0.0 and spec.inlier_ratio == 1.0 and not (
                re < EXACT_RE_DEG and te < EXACT_TE_M):
            self.errors.append(f"{path}: exact scene recovered to {re} deg, {te} m")
        if re > MISS_RE_DEG or te > MISS_TE_M:
            self.failed += 1
            print(f"miss: {os.path.basename(path)} ratio={spec.inlier_ratio} "
                  f"noise={spec.noise_m} RE={re:.3f} deg TE={te:.4f} m")
            return
        self.re_deg.append(re)
        self.te_m.append(te)

    def _check_read(self, path: str, corrs, scene) -> None:
        same = (np.array_equal(corrs.src, scene.src) and np.array_equal(corrs.tgt, scene.tgt)
                and corrs.labels is not None and np.array_equal(corrs.labels, scene.labels)
                and corrs.gt is not None and np.array_equal(corrs.gt.R, scene.rot)
                and np.array_equal(corrs.gt.t, scene.trans) and corrs.feat is None)
        if not same:
            self.errors.append(f"{path}: read_scene differs from what was written")

    # -- training ---------------------------------------------------------

    def train_round(self) -> None:
        prog = self.prog
        self.attempted += 1
        scenes = []
        for path, scene, _ in self.train_items:
            corrs = prog.sceneio.read_scene(path)
            self._check_read(path, corrs, scene)
            scenes.append(corrs)
        history: List[dict] = []
        t0 = time.perf_counter()
        try:
            trained = prog.train.train(scenes, self.tc, self.params, history=history)
        except prog.error as err:
            self.failed += 1
            print(f"failed: train raised {err!r}")
            return
        self.steps_per_s.append(len(scenes) * self.tc.epochs / (time.perf_counter() - t0))
        totals = [h["total"] for h in history]
        if len(totals) != self.tc.epochs or not all(math.isfinite(v) for v in totals):
            self.errors.append(f"train: non-finite or missing epoch losses {totals}")
        elif not totals[-1] < totals[0]:
            self.errors.append(f"train: loss did not fall, {totals}")
        if not np.all(np.isfinite(trained.flat())):
            self.errors.append("train: non-finite parameters")

    def gradient_agrees(self, step: float = 1e-6, rtol: float = 1e-4) -> Tuple[float, float]:
        """Central difference of the joint loss along a random unit direction
        in parameter space against the tape's directional derivative."""
        prog = self.prog
        corrs = prog.sceneio.read_scene(self.train_items[0][0])
        ps = prog.train.prepare_scene(corrs, self.tc.sigma_d, self.tc.theta_inlier)
        params = self.params.copy()
        names = params.names
        trace = prog.hgnn.forward(ps.corrs, ps.hg0, ps.w_h0, params)
        total, _ = prog.train.joint_loss(trace, ps.labels, params)
        grads = prog.autodiff.grad(total, [params.var(n) for n in names])
        rng = np.random.default_rng((4, self.seed))
        direction = {n: rng.normal(size=params.value(n).shape) for n in names}
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        analytic = sum(float(np.sum(g * direction[n])) for n, g in zip(names, grads)) / norm
        base = {n: params.value(n).copy() for n in names}

        def loss_at(eps: float) -> float:
            for n in names:
                params.var(n).value = base[n] + (eps / norm) * direction[n]
            with prog.autodiff.no_grad():
                tr = prog.hgnn.forward(ps.corrs, ps.hg0, ps.w_h0, params)
                value, _ = prog.train.joint_loss(tr, ps.labels, params)
            return float(value.value)

        fd = (loss_at(step) - loss_at(-step)) / (2.0 * step)
        if abs(fd - analytic) > rtol * max(abs(fd), abs(analytic), 1e-6):
            self.errors.append(f"gradient: finite difference {fd!r} vs tape {analytic!r}")
        return fd, analytic


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of the
    samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: List[float], q: float = 90.0, min_beyond: int = 10
                    ) -> Optional[float]:
    """The q-th percentile when at least `min_beyond` samples lie beyond it,
    else None: with fewer, it would be no tail."""
    value = percentile(samples, q)
    return value if sum(1 for s in samples if s > value) >= min_beyond else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(prog: Program, w: Workload, seed: int, seconds: float, trace: bool,
            import_s: float) -> dict:
    run = Run(prog, w, seed)
    setups = [run.setup() for _ in range(SETUP_REPS)]
    fd, analytic = run.gradient_agrees()
    print(f"gradient check: finite difference {fd:.9g}, tape {analytic:.9g}")

    tracer = None
    if trace:
        from layers import install
        from tracer import Tracer
        tracer = Tracer()
        install(tracer, prog)
    try:
        start = time.perf_counter()
        ends = []
        while not ends or ends[-1] - start < seconds:
            run.register_round()
            run.train_round()
            ends.append(time.perf_counter())
        rounds, loop_s = len(ends), ends[-1] - start
        round_s = [b - a for a, b in zip([start] + ends, ends)]
    finally:
        if tracer is not None:
            tracer.restore()

    ms = [1000.0 * s for s in run.reg_s]
    p90 = tail_percentile(ms)
    metrics = {
        "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
        "register_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "scenes_per_s": {"value": len(run.reg_s) / run.reg_busy_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "train_scene_steps_per_s": {"value": statistics.median(run.steps_per_s),
                                    "unit": "1/s"},
        "re_deg_mean": {"value": statistics.fmean(run.re_deg), "unit": "deg"},
        "te_mm_mean": {"value": 1000.0 * statistics.fmean(run.te_m), "unit": "mm"},
    }
    print(f"workload {w.name} seed {seed}: {rounds} rounds in {loop_s:.2f} s; "
          f"round times (s): {', '.join(f'{r:.3f}' for r in round_s)}")
    print(f"backend: numba={prog.kernels.NUMBA_ENABLED}; BLAS: {blas_description()}")
    print(f"register samples {len(ms)}; p90 "
          + (f"{p90:.4f} ms" if p90 is not None else "not reported (fewer than 10 beyond)")
          + f"; train() calls {len(run.steps_per_s)}")
    print(f"set-up repetitions (s): {', '.join(f'{s:.4f}' for s in setups)}; "
          f"import {import_s:.4f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for err in run.errors[:20]:
        print(f"check failed: {err}")
    print(f"attempted {run.attempted}, failed {run.failed}")

    if tracer is not None:
        from layers import layer_metrics
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{w.name}-seed{seed}.json")
        tracer.write(trace_path)
        print(f"trace: {len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
        metrics = layer_metrics(tracer)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    shutil.rmtree(run.dir, ignore_errors=True)
    return {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        prog = Program()
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    result = measure(prog, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
