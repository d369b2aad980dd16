"""Scene file format (HGCT-CORR v1) and dataset directory layout.

A scene file is plain text:

    HGCT-CORR v1 n=<N> feat_dim=<D> has_gt=<0|1> has_labels=<0|1>
    [12 ground-truth numbers: row-major 3x3 rotation, then translation]
    N data rows: xs ys zs xt yt zt [label] [f1 .. fD]

Floats are written with shortest round-trip precision so a write/read cycle
reproduces the arrays bit for bit. A dataset directory holds numbered scene
files plus a JSON manifest.
"""

import json
import os
from dataclasses import asdict, replace
from typing import List

import numpy as np

from .errors import ConfigError
from .geom import CorrSet, RigidTransform
from .train import SynthConfig, gen_scene

FORMAT_TAG = "HGCT-CORR v1"
MANIFEST_NAME = "manifest.json"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def scene_to_text(corrs: CorrSet) -> str:
    n = len(corrs)
    feat_dim = 0 if corrs.feat is None else corrs.feat.shape[1]
    has_gt = int(corrs.gt is not None)
    has_labels = int(corrs.labels is not None)
    lines = [f"{FORMAT_TAG} n={n} feat_dim={feat_dim} has_gt={has_gt} "
             f"has_labels={has_labels}"]
    if corrs.gt is not None:
        gt_vals = list(corrs.gt.R.reshape(-1)) + list(corrs.gt.t)
        lines.append(" ".join(_fmt(v) for v in gt_vals))
    for i in range(n):
        parts = [_fmt(v) for v in corrs.src[i]] + [_fmt(v) for v in corrs.tgt[i]]
        if corrs.labels is not None:
            parts.append(str(int(corrs.labels[i])))
        if corrs.feat is not None:
            parts.extend(_fmt(v) for v in corrs.feat[i])
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def scene_from_text(text: str, origin: str = "<string>") -> CorrSet:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(FORMAT_TAG):
        raise ConfigError(f"{origin}: not a {FORMAT_TAG} file")
    header = lines[0][len(FORMAT_TAG):].split()
    try:
        kv = dict(item.split("=", 1) for item in header)
        n = int(kv["n"])
        feat_dim = int(kv["feat_dim"])
        has_gt = bool(int(kv["has_gt"]))
        has_labels = bool(int(kv["has_labels"]))
        if n < 0 or feat_dim < 0:
            raise ValueError("negative size")
    except (KeyError, ValueError) as err:
        raise ConfigError(f"{origin}: malformed header: {lines[0]!r}") from err

    row = 1
    gt = None
    if has_gt:
        if row >= len(lines):
            raise ConfigError(f"{origin}: missing ground-truth line")
        vals = lines[row].split()
        if len(vals) != 12:
            raise ConfigError(f"{origin}: line {row + 1}: expected 12 gt numbers")
        try:
            vals = np.array([float(v) for v in vals])
        except ValueError:
            raise ConfigError(f"{origin}: line {row + 1}: the ground truth has a field "
                              f"that is not a number") from None
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{origin}: line {row + 1}: the ground truth has a "
                             f"non-finite number")
        gt = RigidTransform(vals[:9].reshape(3, 3), vals[9:])
        row += 1

    expected = 6 + int(has_labels) + feat_dim
    parts = [line.split() for line in lines[row:row + n]]
    if len(parts) < n:
        raise ConfigError(f"{origin}: expected {n} data rows, file ends at {len(parts)}")
    for i, fields in enumerate(parts):
        if len(fields) != expected:
            raise ConfigError(f"{origin}: line {row + i + 1}: expected {expected} "
                              f"fields, got {len(fields)}")
    for line_no in range(row + n, len(lines)):
        if lines[line_no].strip():
            raise ConfigError(f"{origin}: line {line_no + 1}: text after the {n} "
                              f"data rows")
    try:
        data = np.array(parts, dtype=np.float64).reshape(n, expected)
    except ValueError:
        i = next(i for i, fields in enumerate(parts) if not _numbers(fields))
        raise ConfigError(f"{origin}: line {row + i + 1}: row {i} has a field that "
                          f"is not a number") from None
    bad = np.flatnonzero(~np.isfinite(data[:, :6]).all(axis=1))
    if bad.size:
        raise ValueError(f"{origin}: line {row + bad[0] + 1}: row {bad[0]} has a non-finite "
                         f"coordinate")
    labels = None
    if has_labels:
        lab = data[:, 6]
        bad = np.flatnonzero(~np.isfinite(lab) | (lab != np.floor(lab)))
        if bad.size:
            raise ConfigError(f"{origin}: line {row + bad[0] + 1}: row {bad[0]} has a "
                              f"label that is not an integer")
        labels = lab != 0
    feat = data[:, expected - feat_dim:] if feat_dim else None
    return CorrSet(data[:, 0:3], data[:, 3:6], feat=feat, gt=gt, labels=labels)


def _numbers(fields: List[str]) -> bool:
    try:
        np.array(fields, dtype=np.float64)
    except ValueError:
        return False
    return True


def write_scene(corrs: CorrSet, path) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(scene_to_text(corrs))


def read_scene(path) -> CorrSet:
    with open(path, "r") as f:
        return scene_from_text(f.read(), origin=str(path))


def scene_filename(index: int) -> str:
    return f"scene_{index:04d}.txt"


def write_dataset(out_dir, synth: SynthConfig, n_scenes: int, seed: int) -> List[str]:
    """Write n_scenes deterministic scene files plus manifest.json."""
    if n_scenes < 1:
        raise ValueError(f"n_scenes must be >= 1, got {n_scenes}")
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for i in range(n_scenes):
        cfg = replace(synth, seed=seed + i)
        name = scene_filename(i)
        write_scene(gen_scene(cfg), os.path.join(out_dir, name))
        names.append(name)
    manifest = {
        "format": FORMAT_TAG,
        "n_scenes": n_scenes,
        "seed": seed,
        "files": names,
        "synth": asdict(synth),
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return names


def dataset_files(dir_path) -> List[str]:
    """Paths of a dataset's scenes: the manifest's `files` when it exists,
    else the sorted scene_*.txt files. ConfigError when there are none."""
    manifest_path = os.path.join(dir_path, MANIFEST_NAME)
    names = []
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            names = json.load(f).get("files", [])
    elif os.path.isdir(dir_path):
        names = sorted(name for name in os.listdir(dir_path)
                       if name.startswith("scene_") and name.endswith(".txt"))
    if not names:
        raise ConfigError("no scenes found")
    return [os.path.join(dir_path, name) for name in names]


def read_dataset(dir_path) -> List[CorrSet]:
    """Load every scene of a dataset directory (see dataset_files)."""
    return [read_scene(path) for path in dataset_files(dir_path)]
