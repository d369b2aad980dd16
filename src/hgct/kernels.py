"""Hot numeric kernels: plain float64 arrays in, plain arrays out, and the
process and BLAS thread budget they run with.

There is one implementation, in numpy; `NUMBA_ENABLED` names the backend
that ran (always False) for reports.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

from .errors import ConfigError

NUMBA_ENABLED = False

# thread-count symbols of the OpenBLAS builds numpy bundles, {} = get or set
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


@functools.lru_cache(maxsize=None)
def _openblas_thread_fns():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _OPENBLAS_SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            set_ = getattr(lib, pattern.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def set_blas_threads(n: int) -> int:
    """Set numpy's OpenBLAS to `n` threads and return the previous count;
    returns 0 and changes nothing where that OpenBLAS is not found.

    Processes that each take a share of the cores use one thread each: with
    OpenBLAS's default of one thread per core they oversubscribe the cores.
    """
    fns = _openblas_thread_fns()
    if fns is None:
        return 0
    get, set_ = fns
    previous = get()
    set_(n)
    return previous


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block with numpy's OpenBLAS on `n` threads (see
    set_blas_threads) and restore the previous count after it."""
    previous = set_blas_threads(n)
    try:
        yield
    finally:
        if previous:
            set_blas_threads(previous)


def worker_count(threads: int, jobs: int) -> int:
    """Processes to run `jobs` independent jobs on: `threads`, or every CPU
    this process may run on when it is 0, capped by `jobs`; at least 1."""
    if threads < 0:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    if threads > 0:
        workers = threads
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, jobs))


GAMMA_ROWS = 32  # rows of the score matrix computed per block (cache-sized)


def gamma_matrix(src, tgt, sigma_d):
    """Pairwise compatibility scores max(0, 1 - d^2/sigma_d^2), zero diagonal.

    d is the rigid distance: | ||src_i-src_j|| - ||tgt_i-tgt_j|| |.
    src, tgt: (N, 3), read as float64. Returns (N, N) float64, exactly
    symmetric.
    Computed GAMMA_ROWS rows at a time so each block's passes stay in cache.
    Each block is computed only from its first row's column on and mirrored
    into the lower triangle: (a - b)^2 and (b - a)^2 are the same float, so
    the mirrored entries are the ones a full computation would give.
    """
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    sigma_d = float(sigma_d)
    n = len(src)
    g = np.empty((n, n))
    buf = np.empty(3 * min(GAMMA_ROWS, n) * n)

    def pdist(p, rows, cols, out, scratch):
        # one accumulator, summed as (dx*dx + dy*dy) + dz*dz
        np.subtract.outer(p[rows, 0], p[cols, 0], out=out)
        out *= out
        for k in (1, 2):
            np.subtract.outer(p[rows, k], p[cols, k], out=scratch)
            scratch *= scratch
            out += scratch
        np.sqrt(out, out=out)

    for lo in range(0, n, GAMMA_ROWS):
        rows, cols = slice(lo, lo + GAMMA_ROWS), slice(lo, n)
        b, m = min(GAMMA_ROWS, n - lo), n - lo
        # contiguous scratch: the passes run much slower on strided views of g
        block, dist_tgt, tmp = buf[:3 * b * m].reshape(3, b, m)
        pdist(src, rows, cols, block, tmp)
        pdist(tgt, rows, cols, dist_tgt, tmp)
        block -= dist_tgt
        np.abs(block, out=block)
        block *= block
        block /= sigma_d * sigma_d
        np.subtract(1.0, block, out=block)
        np.maximum(0.0, block, out=block)
        g[rows, cols] = block
        g[rows, :lo] = g[:lo, rows].T
    np.fill_diagonal(g, 0.0)
    return g


MAE_CHUNK = 16  # transforms scored per (chunk, N, 3) broadcast


def mae_scores(rots, trans, src, tgt, theta):
    """Truncated-residual fitness for a batch of rigid transforms.

    rots: (M, 3, 3), trans: (M, 3). Score_m = sum_i max(0, 1 - r_mi/theta)
    with r_mi the Euclidean residual of correspondence i under transform m.
    Returns (M,) float64. Transforms are scored MAE_CHUNK at a time; each
    score is bit-identical to scoring its transform alone.
    """
    rots = np.ascontiguousarray(rots, dtype=np.float64)
    trans = np.ascontiguousarray(trans, dtype=np.float64)
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    theta = float(theta)
    out = np.empty(len(rots), dtype=np.float64)
    for lo in range(0, len(rots), MAE_CHUNK):
        hi = lo + MAE_CHUNK
        d = src @ rots[lo:hi].transpose(0, 2, 1) + trans[lo:hi, None, :] - tgt
        x, y, z = d[..., 0], d[..., 1], d[..., 2]
        r = np.sqrt(x * x + y * y + z * z)
        out[lo:hi] = np.sum(np.maximum(0.0, 1.0 - r / theta), axis=1)
    return out


def nms_select(points, order, radius, max_keep: int):
    """Greedy non-maximum suppression over 3D points.

    order: candidate indices, highest priority first. A candidate is kept if
    no previously kept point lies within `radius`. The scan stops once
    max_keep points are kept; the kept points are the first max_keep of an
    uncapped scan. Returns a boolean mask over the full point set (True =
    kept local maximum).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    radius = float(radius)
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
