"""Hot numeric kernels with optional numba acceleration.

Every kernel has a pure-numpy implementation; when numba is importable the
@njit version is used instead. Set ``HGCT_NUMBA=0`` in the environment to
force the numpy path (``benchmarks/bench_kernels.py`` times both).

Kernels here are deliberately free of package types: plain float64 arrays in,
plain arrays out, so the numba and numpy paths stay drop-in interchangeable.
"""

import os

import numpy as np


def _numba_requested() -> bool:
    flag = os.environ.get("HGCT_NUMBA", "").strip().lower()
    return flag not in ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------

def gamma_matrix_numpy(src, tgt, sigma_d):
    """Pairwise compatibility scores max(0, 1 - d^2/sigma_d^2), zero diagonal.

    d is the rigid distance: | ||src_i-src_j|| - ||tgt_i-tgt_j|| |.
    src, tgt: (N, 3) float64. Returns (N, N) float64, exactly symmetric.
    """
    tmp = np.empty((len(src), len(src)))

    def pdist(p):
        # one accumulator, summed as (dx*dx + dy*dy) + dz*dz
        acc = np.subtract.outer(p[:, 0], p[:, 0])
        acc *= acc
        for k in (1, 2):
            d = np.subtract.outer(p[:, k], p[:, k], out=tmp)
            d *= d
            acc += d
        return np.sqrt(acc, out=acc)

    g = pdist(src)
    g -= pdist(tgt)
    np.abs(g, out=g)
    g *= g
    g /= sigma_d * sigma_d
    np.subtract(1.0, g, out=g)
    np.maximum(0.0, g, out=g)
    np.fill_diagonal(g, 0.0)
    return g


MAE_CHUNK = 16  # transforms scored per (chunk, N, 3) broadcast


def mae_scores_numpy(rots, trans, src, tgt, theta):
    """Truncated-residual fitness for a batch of rigid transforms.

    rots: (M, 3, 3), trans: (M, 3). Score_m = sum_i max(0, 1 - r_mi/theta)
    with r_mi the Euclidean residual of correspondence i under transform m.
    Returns (M,) float64. Transforms are scored MAE_CHUNK at a time; each
    score is bit-identical to scoring its transform alone.
    """
    out = np.empty(len(rots), dtype=np.float64)
    for lo in range(0, len(rots), MAE_CHUNK):
        hi = lo + MAE_CHUNK
        d = src @ rots[lo:hi].transpose(0, 2, 1) + trans[lo:hi, None, :] - tgt
        r = np.sqrt(np.sum(d ** 2, axis=2))
        out[lo:hi] = np.sum(np.maximum(0.0, 1.0 - r / theta), axis=1)
    return out


def nms_select_numpy(points, order, radius, max_keep=-1):
    """Greedy non-maximum suppression over 3D points.

    order: candidate indices, highest priority first. A candidate is kept if
    no previously kept point lies within `radius`. The scan stops once
    max_keep points are kept (no cap if negative); the kept points are the
    first max_keep of the uncapped scan. Returns a boolean mask over the full
    point set (True = kept local maximum).
    """
    n = len(points)
    keep = np.zeros(n, dtype=np.bool_)
    suppressed = np.zeros(n, dtype=np.bool_)
    r2 = radius * radius
    kept = 0
    for idx in order:
        if kept == max_keep:
            break
        if suppressed[idx]:
            continue
        keep[idx] = True
        kept += 1
        d = points - points[idx]
        close = d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2 <= r2
        suppressed |= close
    return keep


# ---------------------------------------------------------------------------
# numba implementations (same contracts)
# ---------------------------------------------------------------------------

_HAVE_NUMBA = False
if _numba_requested():
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is an optional extra
        _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @njit(cache=True)
    def gamma_matrix_numba(src, tgt, sigma_d):
        n = src.shape[0]
        g = np.zeros((n, n), dtype=np.float64)
        s2 = sigma_d * sigma_d
        for i in range(n):
            for j in range(i + 1, n):
                dx = src[i, 0] - src[j, 0]
                dy = src[i, 1] - src[j, 1]
                dz = src[i, 2] - src[j, 2]
                ds = np.sqrt(dx * dx + dy * dy + dz * dz)
                dx = tgt[i, 0] - tgt[j, 0]
                dy = tgt[i, 1] - tgt[j, 1]
                dz = tgt[i, 2] - tgt[j, 2]
                dt = np.sqrt(dx * dx + dy * dy + dz * dz)
                d = abs(ds - dt)
                v = 1.0 - (d * d) / s2
                if v > 0.0:
                    g[i, j] = v
                    g[j, i] = v
        return g

    @njit(cache=True)
    def mae_scores_numba(rots, trans, src, tgt, theta):
        m = rots.shape[0]
        n = src.shape[0]
        out = np.zeros(m, dtype=np.float64)
        for k in range(m):
            acc = 0.0
            for i in range(n):
                px = (rots[k, 0, 0] * src[i, 0] + rots[k, 0, 1] * src[i, 1]
                      + rots[k, 0, 2] * src[i, 2] + trans[k, 0] - tgt[i, 0])
                py = (rots[k, 1, 0] * src[i, 0] + rots[k, 1, 1] * src[i, 1]
                      + rots[k, 1, 2] * src[i, 2] + trans[k, 1] - tgt[i, 1])
                pz = (rots[k, 2, 0] * src[i, 0] + rots[k, 2, 1] * src[i, 1]
                      + rots[k, 2, 2] * src[i, 2] + trans[k, 2] - tgt[i, 2])
                r = np.sqrt(px * px + py * py + pz * pz)
                v = 1.0 - r / theta
                if v > 0.0:
                    acc += v
            out[k] = acc
        return out

    @njit(cache=True)
    def nms_select_numba(points, order, radius, max_keep=-1):
        n = points.shape[0]
        keep = np.zeros(n, dtype=np.bool_)
        suppressed = np.zeros(n, dtype=np.bool_)
        r2 = radius * radius
        kept = 0
        for k in range(order.shape[0]):
            if kept == max_keep:
                break
            idx = order[k]
            if suppressed[idx]:
                continue
            keep[idx] = True
            kept += 1
            for j in range(n):
                dx = points[j, 0] - points[idx, 0]
                dy = points[j, 1] - points[idx, 1]
                dz = points[j, 2] - points[idx, 2]
                if dx * dx + dy * dy + dz * dz <= r2:
                    suppressed[j] = True
        return keep


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

NUMBA_ENABLED = _HAVE_NUMBA

if _HAVE_NUMBA:
    _gamma = gamma_matrix_numba
    _mae = mae_scores_numba
    _nms = nms_select_numba
else:
    _gamma = gamma_matrix_numpy
    _mae = mae_scores_numpy
    _nms = nms_select_numpy


def gamma_matrix(src, tgt, sigma_d):
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    return _gamma(src, tgt, float(sigma_d))


def mae_scores(rots, trans, src, tgt, theta):
    rots = np.ascontiguousarray(rots, dtype=np.float64)
    trans = np.ascontiguousarray(trans, dtype=np.float64)
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    return _mae(rots, trans, src, tgt, float(theta))


def nms_select(points, order, radius, max_keep=None):
    """Greedy NMS mask; with max_keep, the scan stops after that many picks."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    return _nms(points, order, float(radius), -1 if max_keep is None else int(max_keep))


def implementations():
    """Both paths by name, for benchmarks and cross-checks."""
    impls = {
        "numpy": {
            "gamma_matrix": gamma_matrix_numpy,
            "mae_scores": mae_scores_numpy,
            "nms_select": nms_select_numpy,
        }
    }
    if _HAVE_NUMBA:
        impls["numba"] = {
            "gamma_matrix": gamma_matrix_numba,
            "mae_scores": mae_scores_numba,
            "nms_select": nms_select_numba,
        }
    return impls


def warmup():
    """Trigger JIT compilation on tiny inputs (no-op on the numpy path)."""
    pts = np.zeros((4, 3))
    gamma_matrix(pts, pts, 1.0)
    mae_scores(np.eye(3)[None], np.zeros((1, 3)), pts, pts, 1.0)
    nms_select(pts, np.arange(4), 1.0)
