"""The benchmark's own scenes, file writer and pose-error formulas.

Nothing here imports the program under test: scenes are generated and written
as HGCT-CORR v1 files by this module, and the outputs of the program are
judged with formulas written here.

Scene model: inlier sources uniform in the cube [-1, 1]^3, targets
R src + t plus isotropic Gaussian noise; outlier sources and targets drawn
independently in the same cube (targets moved by the same pose). Positions of
inliers among the rows are shuffled; labels mark the planted inliers.
"""

import math
from dataclasses import dataclass

import numpy as np

FORMAT_TAG = "HGCT-CORR v1"


@dataclass(frozen=True)
class Scene:
    src: np.ndarray      # (N, 3)
    tgt: np.ndarray      # (N, 3)
    labels: np.ndarray   # (N,) bool, planted inliers
    rot: np.ndarray      # (3, 3) planted rotation
    trans: np.ndarray    # (3,) planted translation, meters


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation from a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def make_scene(rng: np.random.Generator, n: int, inlier_ratio: float,
               noise_m: float) -> Scene:
    """One scene with exactly round(inlier_ratio * n) planted inliers."""
    n_in = max(3, min(n, int(math.floor(inlier_ratio * n + 0.5))))
    rot = random_rotation(rng)
    trans = rng.uniform(-1.0, 1.0, 3)
    src_in = rng.uniform(-1.0, 1.0, (n_in, 3))
    tgt_in = src_in @ rot.T + trans
    if noise_m > 0:
        tgt_in = tgt_in + rng.normal(0.0, noise_m, (n_in, 3))
    order = rng.permutation(n)
    src_out = rng.uniform(-1.0, 1.0, (n - n_in, 3))
    tgt_out = rng.uniform(-1.0, 1.0, (n - n_in, 3)) @ rot.T + trans
    src = np.concatenate([src_in, src_out])[order]
    tgt = np.concatenate([tgt_in, tgt_out])[order]
    labels = (np.arange(n) < n_in)[order]
    return Scene(src=src, tgt=tgt, labels=labels, rot=rot, trans=trans)


def scene_text(scene: Scene) -> str:
    """HGCT-CORR v1 text with ground truth and labels, no features.

    repr() gives the shortest string that parses back to the same double, so
    a reader recovers every array bit for bit.
    """
    n = len(scene.src)
    lines = [f"{FORMAT_TAG} n={n} feat_dim=0 has_gt=1 has_labels=1"]
    gt = list(scene.rot.reshape(-1)) + list(scene.trans)
    lines.append(" ".join(repr(float(v)) for v in gt))
    for s, t, lab in zip(scene.src.tolist(), scene.tgt.tolist(), scene.labels.tolist()):
        lines.append(" ".join(repr(v) for v in s + t) + (" 1" if lab else " 0"))
    return "\n".join(lines) + "\n"


def write_scene_file(scene: Scene, path: str) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(scene_text(scene))


def rotation_error_deg(rot_est: np.ndarray, rot_gt: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees.

    Uses ||R_est - R_gt||_F = 2 sqrt(2) sin(angle / 2), which stays accurate
    near zero, where the arccos of the trace loses about 1e-6 degrees.
    """
    d = np.asarray(rot_est, dtype=np.float64) - np.asarray(rot_gt, dtype=np.float64)
    half = min(1.0, math.sqrt(float(np.sum(d * d))) / (2.0 * math.sqrt(2.0)))
    return math.degrees(2.0 * math.asin(half))


def translation_error_m(t_est: np.ndarray, t_gt: np.ndarray) -> float:
    d = np.asarray(t_est, dtype=np.float64) - np.asarray(t_gt, dtype=np.float64)
    return math.sqrt(float(d @ d))


def truncated_mae(rot: np.ndarray, trans: np.ndarray, src: np.ndarray,
                  tgt: np.ndarray, theta_m: float) -> float:
    """Fitness sum_i max(0, 1 - r_i / theta), r_i = ||R src_i + t - tgt_i||."""
    r = np.sqrt(np.sum((src @ np.asarray(rot).T + trans - tgt) ** 2, axis=1))
    return float(np.sum(np.maximum(0.0, 1.0 - r / theta_m)))


def is_rotation(rot: np.ndarray, tol: float = 1e-9) -> bool:
    rot = np.asarray(rot, dtype=np.float64)
    return (rot.shape == (3, 3)
            and np.allclose(rot.T @ rot, np.eye(3), rtol=0.0, atol=tol)
            and abs(float(np.linalg.det(rot)) - 1.0) <= tol)
