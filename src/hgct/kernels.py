"""Hot numeric kernels: plain float64 arrays in, plain arrays out.

There is one implementation, in numpy; `NUMBA_ENABLED` names the backend
that ran (always False) for reports.
"""

import numpy as np

NUMBA_ENABLED = False

GAMMA_ROWS = 32  # rows of the score matrix computed per block (cache-sized)


def gamma_matrix_numpy(src, tgt, sigma_d):
    """Pairwise compatibility scores max(0, 1 - d^2/sigma_d^2), zero diagonal.

    d is the rigid distance: | ||src_i-src_j|| - ||tgt_i-tgt_j|| |.
    src, tgt: (N, 3) float64. Returns (N, N) float64, exactly symmetric.
    Computed GAMMA_ROWS rows at a time so each block's passes stay in cache.
    """
    n = len(src)
    g = np.empty((n, n))
    tmp = np.empty((min(GAMMA_ROWS, n), n))
    dist_tgt = np.empty_like(tmp)

    def pdist(p, rows, out, scratch):
        # one accumulator, summed as (dx*dx + dy*dy) + dz*dz
        np.subtract.outer(p[rows, 0], p[:, 0], out=out)
        out *= out
        for k in (1, 2):
            np.subtract.outer(p[rows, k], p[:, k], out=scratch)
            scratch *= scratch
            out += scratch
        np.sqrt(out, out=out)

    for lo in range(0, n, GAMMA_ROWS):
        rows = slice(lo, lo + GAMMA_ROWS)
        block = g[rows]
        b = len(block)
        pdist(src, rows, block, tmp[:b])
        pdist(tgt, rows, dist_tgt[:b], tmp[:b])
        block -= dist_tgt[:b]
        np.abs(block, out=block)
        block *= block
        block /= sigma_d * sigma_d
        np.subtract(1.0, block, out=block)
        np.maximum(0.0, block, out=block)
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


def gamma_matrix(src, tgt, sigma_d):
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    return gamma_matrix_numpy(src, tgt, float(sigma_d))


def mae_scores(rots, trans, src, tgt, theta):
    rots = np.ascontiguousarray(rots, dtype=np.float64)
    trans = np.ascontiguousarray(trans, dtype=np.float64)
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    return mae_scores_numpy(rots, trans, src, tgt, float(theta))


def nms_select(points, order, radius, max_keep=None):
    """Greedy NMS mask; with max_keep, the scan stops after that many picks."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    return nms_select_numpy(points, order, float(radius),
                            -1 if max_keep is None else int(max_keep))
