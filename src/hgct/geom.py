"""Core geometric types, the SVD rigid solver, residuals, and pose-error metrics."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInput

# Relative singular-value cutoff below which the cross-covariance is treated
# as rank-deficient (collinear or coincident points).
RANK_EPS = 1e-12


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (3x3, orthonormal, det +1) and translation (3-vector, meters)."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3))

    def matrix4(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.R
        m[:3, 3] = self.t
        return m


class CorrSet:
    """A correspondence set stored as flat arrays.

    src, tgt: (N, 3) float64, all finite (ValueError names the first
    non-finite row). feat: optional (N, D). gt: optional ground-truth
    RigidTransform. labels: optional boolean inlier flags.
    """

    def __init__(self, src, tgt, feat=None, gt: Optional[RigidTransform] = None,
                 labels=None):
        self.src = np.ascontiguousarray(src, dtype=np.float64)
        self.tgt = np.ascontiguousarray(tgt, dtype=np.float64)
        if self.src.shape != self.tgt.shape or self.src.ndim != 2 or self.src.shape[1] != 3:
            raise ValueError("src/tgt must both be (N, 3)")
        bad = ~(np.isfinite(self.src).all(axis=1) & np.isfinite(self.tgt).all(axis=1))
        if bad.any():
            raise ValueError(f"non-finite src/tgt coordinate in row {int(np.argmax(bad))}")
        self.feat = None if feat is None else np.ascontiguousarray(feat, dtype=np.float64)
        if self.feat is not None and len(self.feat) != len(self.src):
            raise ValueError("feat length mismatch")
        self.gt = gt
        self.labels = None if labels is None else np.asarray(labels, dtype=bool)
        if self.labels is not None and len(self.labels) != len(self.src):
            raise ValueError("labels length mismatch")

    def __len__(self) -> int:
        return len(self.src)


def _as_points(pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (N, 3) point array")
    return pts


def kabsch_svd(src, tgt):
    """Rigid fits of a stack of paired point sets, one SVD call for all.

    Per fit: centroids, 3x3 cross-covariance, SVD; if det(U V^T) < 0 the
    last singular column is negated (reflection fix).

    Input:
        - src, tgt: (M, K, 3) paired point sets, K >= 3
    Returns:
        (R (M, 3, 3), t (M, 3), ok (M,) bool). ok is False where the
        centered cross-covariance has rank < 2 (collinear or coincident
        points); R and t are meaningless there.
    Raises:
        DegenerateInput if K < 3.
    """
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if src.shape != tgt.shape or src.ndim != 3 or src.shape[2] != 3:
        raise ValueError("src/tgt must both be (M, K, 3)")
    m, k = src.shape[:2]
    if k < 3:
        raise DegenerateInput(f"need >= 3 point pairs, got {k}")
    if m == 0:
        return np.empty((0, 3, 3)), np.empty((0, 3)), np.empty(0, dtype=bool)
    w = np.full((m, k), 1.0 / k)

    c_src = np.matmul(w[:, None, :], src)  # (M, 1, 3)
    c_tgt = np.matmul(w[:, None, :], tgt)
    ps = src - c_src
    pt = tgt - c_tgt
    # maps source deviations to target side
    cov = np.matmul((pt * w[:, :, None]).transpose(0, 2, 1), ps)
    u, s, vt = np.linalg.svd(cov)
    ok = ~((s[:, 0] <= 0.0) | (s[:, 1] < RANK_EPS * s[:, 0]))
    flip = np.linalg.det(np.matmul(u, vt)) < 0.0
    u[flip, :, -1] = -u[flip, :, -1]
    rots = np.matmul(u, vt)
    trans = c_tgt[:, 0] - np.matmul(rots, c_src.transpose(0, 2, 1))[:, :, 0]
    return rots, trans, ok


def residuals(transform: RigidTransform, src, tgt) -> np.ndarray:
    """Vectorized residuals for (N, 3) src/tgt arrays."""
    d = _as_points(src) @ transform.R.T + transform.t - _as_points(tgt)
    return np.sqrt(np.sum(d * d, axis=1))


def rotation_error_deg(r_est, r_gt) -> float:
    """Geodesic rotation error of R_gt^T R_est in degrees.

    The angle satisfies cos = (trace - 1)/2 and sin = ||skew part||; it is
    evaluated with atan2 because the bare arccos of the clamped trace has a
    ~1.5e-6 degree quantization floor in double precision near zero, which
    would swamp exact-recovery measurements.
    """
    r_est = np.asarray(r_est, dtype=np.float64)
    r_gt = np.asarray(r_gt, dtype=np.float64)
    m = r_gt.T @ r_est
    cos_t = np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0)
    sin_t = 0.5 * np.sqrt((m[2, 1] - m[1, 2]) ** 2 + (m[0, 2] - m[2, 0]) ** 2
                          + (m[1, 0] - m[0, 1]) ** 2)
    return float(np.degrees(np.arctan2(sin_t, cos_t)))


def translation_error(t_est, t_gt) -> float:
    """Euclidean distance between translations, in meters."""
    d = np.asarray(t_est, dtype=np.float64) - np.asarray(t_gt, dtype=np.float64)
    return float(np.sqrt(d @ d))


def pose_errors(est: RigidTransform, gt: RigidTransform):
    return rotation_error_deg(est.R, gt.R), translation_error(est.t, gt.t)


def random_rotation(rng, max_angle_deg: float = 180.0) -> np.ndarray:
    """Rotation by a uniform angle in [0, max] about a uniform random axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(0.0, max_angle_deg))
    return rotation_about_axis(axis, angle)


def rotation_about_axis(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues' formula for a unit axis and angle in radians."""
    axis = np.asarray(axis, dtype=np.float64)
    kx, ky, kz = axis
    k_cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * k_cross + (1.0 - np.cos(angle_rad)) * (k_cross @ k_cross)


def inlier_labels(corrs: CorrSet, gt: RigidTransform, theta_inlier: float) -> np.ndarray:
    """Inlier flags: residual under the ground-truth transform below theta_inlier."""
    return residuals(gt, corrs.src, corrs.tgt) < theta_inlier
