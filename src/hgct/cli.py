"""Command-line front end.

Commands: gen (synthetic dataset), train (checkpoint from a dataset),
register (one scene), bench (metrics over a dataset), gradcheck
(finite-difference verification), report (merge bench summaries).

Run parameters come from the config file, and every flag is a path:
--config (gen, train, register, bench, gradcheck), --out (gen, train,
register, bench, report), --log (train) and --checkpoint (register, bench);
defaults takes none. Exit code 0 on success; failures print one
`error: <message>` line on stderr and exit nonzero.
"""

import argparse
import csv
import json
import os
import sys

from .config import RunConfig, default_config_text, load_config
from .errors import HgctError
from .hgnn import init_params, load_checkpoint, save_checkpoint
from .kernels import set_blas_threads, worker_count
from .metrics import aggregate, evaluate_scene, failed_pair
from .pipeline import register
from .sceneio import dataset_files, read_dataset, read_scene, write_dataset
from .train import train


def _load_run_config(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def _params_for(cfg: RunConfig, checkpoint):
    if checkpoint:
        return load_checkpoint(checkpoint)
    return init_params(channels=cfg.channels, seed=cfg.seed)


def cmd_gen(args) -> int:
    cfg = _load_run_config(args)
    if not args.out:
        raise HgctError("gen requires --out <directory>")
    names = write_dataset(args.out, cfg.synth_config(), cfg.n_scenes, cfg.seed)
    print(f"wrote {len(names)} scenes to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    scenes = read_dataset(args.dataset)
    out = args.out or "model.ckpt"
    log_path = args.log or out + ".train.csv"
    params = train(scenes, cfg.train_config(),
                   init_params(channels=cfg.channels, seed=cfg.seed),
                   log_csv=log_path, cc=cfg.compat_config())
    save_checkpoint(params, out)
    print(f"wrote checkpoint {out} ({params.n_params()} parameters); "
          f"log: {log_path}")
    return 0


def cmd_register(args) -> int:
    cfg = _load_run_config(args)
    corrs = read_scene(args.scene)
    params = _params_for(cfg, args.checkpoint)
    transform, diag = register(corrs, params, cfg.compat_config(),
                               cfg.pipeline_config())
    for row in transform.matrix4():
        print(" ".join(format(v, " .9f") for v in row))
    if corrs.gt is not None:
        print(f"RE_deg={diag['re_deg']:.6f} TE_m={diag['te_m']:.6f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(diag, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"diagnostics: {args.out}")
    return 0


_worker_args = None  # evaluate_scene's arguments after the scene, per pool worker


def _init_worker(*stage_args) -> None:
    global _worker_args
    _worker_args = stage_args
    set_blas_threads(1)  # for the worker's life: the workers share the cores


def _bench_scene(scene_path, *stage_args):
    """Read and score one scene; a file that cannot be read is a failed pair."""
    try:
        corrs = read_scene(scene_path)
    except (HgctError, OSError, ValueError) as err:
        return failed_pair(str(err))
    return evaluate_scene(corrs, *stage_args)


def _bench_in_worker(scene_path):
    return _bench_scene(scene_path, *_worker_args)


def cmd_bench(args) -> int:
    cfg = _load_run_config(args)
    scene_paths = dataset_files(args.dataset)
    # params and stage configs are built once and handed to each worker once
    stage_args = (_params_for(cfg, args.checkpoint), cfg.compat_config(),
                  cfg.pipeline_config(), cfg.thresholds())
    workers = worker_count(cfg.threads, len(scene_paths))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                     initargs=stage_args) as pool:
                results = list(pool.map(_bench_in_worker, scene_paths))
        except BrokenProcessPool as err:
            raise HgctError(f"a bench worker process exited: {err}") from None
    else:
        results = [_bench_scene(p, *stage_args) for p in scene_paths]

    failures = [r.error for r in results if r.error is not None]
    if len(failures) == len(results):
        raise HgctError("every pair failed: " + failures[0])
    summary = aggregate(results, cfg.thresholds())
    summary["n_failures"] = len(failures)

    out = args.out or "bench"
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "results.csv")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["scene", "re_deg", "te_m", "success", "ip", "ir", "f1",
                         "runtime_s"])
        for path, r in zip(scene_paths, results):
            scene = os.path.basename(path)
            if r.error is not None:
                writer.writerow([scene, "", "", "error", "", "", "", ""])
            else:
                writer.writerow([scene, f"{r.re_deg:.6f}", f"{r.te_m:.6f}",
                                 int(r.success), f"{r.ip:.4f}", f"{r.ir:.4f}",
                                 f"{r.f1:.4f}", f"{r.runtime_s:.4f}"])
    json_path = os.path.join(out, "summary.json")
    with open(json_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"RR={summary['rr']:.4f} over {summary['n_pairs']} pairs; "
          f"wrote {csv_path} and {json_path}")
    return 0


def cmd_gradcheck(args) -> int:
    from .train import GRADCHECK_TOL, gradient_check

    report = gradient_check(seed=_load_run_config(args).seed)
    ok = report["max_rel_err"] < GRADCHECK_TOL
    status = "PASS" if ok else "FAIL"
    print(f"{status} max_rel_err={report['max_rel_err']:.3e} "
          f"worst={report['worst_param']} n_params={report['n_params']}")
    return 0 if ok else 1


def cmd_report(args) -> int:
    rows = []
    for path in args.results:
        with open(path) as f:
            summary = json.load(f)
        rows.append((os.path.basename(os.path.dirname(path)) or path, summary))
    header = ["run", "n_pairs", "rr", "mean_re_deg", "mean_te_m", "mean_f1",
              "mean_runtime_s"]
    print(",".join(header))
    lines = [",".join(header)]
    for name, s in rows:
        def cell(key):
            v = s.get(key)
            return "" if v is None else (f"{v:.4f}" if isinstance(v, float) else str(v))
        line = ",".join([name] + [cell(k) for k in header[1:]])
        print(line)
        lines.append(line)
    if args.out:
        with open(args.out, "w", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    return 0


def cmd_defaults(args) -> int:
    print(default_config_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgct",
        description="Rigid registration from 3D correspondences via learned "
                    "dynamic hypergraph constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"--config": dict(help="key = value configuration file"),
              "--out": dict(default=None, help="output path")}

    def common(p, *flags):
        for flag in flags or shared:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a checkpoint on a dataset")
    common(p)
    p.add_argument("dataset", help="dataset directory from `hgct gen`")
    p.add_argument("--log", default=None, help="training log CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("register", help="register one scene file")
    common(p)
    p.add_argument("scene", help="HGCT-CORR scene file")
    p.add_argument("--checkpoint", default=None, help="trained checkpoint")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("bench", help="run registration metrics over a dataset")
    common(p)
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--checkpoint", default=None, help="trained checkpoint")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    common(p, "--config")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="merge bench summary JSON files")
    common(p, "--out")
    p.add_argument("results", nargs="+", help="summary.json files")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("defaults", help="print the default configuration")
    p.set_defaults(func=cmd_defaults)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HgctError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
