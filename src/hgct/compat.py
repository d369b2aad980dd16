"""Pairwise rigid-distance compatibility and first-/second-order graph construction.

The compatibility score of a correspondence pair is a truncated quadratic in
their rigid distance. A per-input threshold theta_cmp is derived from the
top-K score statistics of the whole set, so the graph density adapts to the
inlier ratio instead of relying on a fixed cutoff.

The build holds one N x N float array, the score matrix: it is thresholded
in place, and the second-order product is written over it in row blocks.
What it returns is sparse: the support of the thresholded scores as
booleans, and the initial weights as SparseWeights, 16 bytes per nonzero
entry. Those are 6-14 % of N x N on the benchmark's N=2000 scenes, but all
of it when every correspondence is an inlier, where the sparse form takes
twice the memory of a dense array.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import kernels
from .errors import EmptyGraph
from .geom import CorrSet


class GraphOrder(str, Enum):
    FOG = "fog"  # first order: gamma weights used directly
    SOG = "sog"  # second order: gamma reinforced through shared neighbors


def check_positive(cfg, *names: str) -> None:
    """Raise ValueError unless every named field of cfg is a finite number
    above 0 (so NaN and infinities fail too)."""
    for name in names:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


K1_FRAC = 0.1  # top-K fraction of N feeding the dynamic threshold


@dataclass(frozen=True)
class CompatConfig:
    sigma_d: float = 0.1          # meters; sensitivity to distance difference
    graph_order: GraphOrder = GraphOrder.SOG
    theta_cmp_override: Optional[float] = None  # fixed theta_cmp for robustness sweeps

    def __post_init__(self):
        check_positive(self, "sigma_d")


@dataclass(frozen=True)
class SparseWeights:
    """An (n, n) float64 array held as its listed entries: `index`, their
    increasing flat indices (row * n + column), and `value`. Every other
    entry is `fill`."""
    n: int
    index: np.ndarray     # (nnz,) int64
    value: np.ndarray     # (nnz,) float64
    fill: float = 0.0

    def add_rows(self, lo: int, block: np.ndarray) -> None:
        """Add rows lo .. lo + len(block) of the array into the C-contiguous
        `block`, in place. Each entry takes one addition, block + fill or
        block + value, so the sums are those of adding a dense array."""
        n = self.n
        a, b = np.searchsorted(self.index, (lo * n, (lo + len(block)) * n))
        local = self.index[a:b] - lo * n
        flat = block.reshape(-1)
        listed = flat[local]
        flat += self.fill
        flat[local] = listed + self.value[a:b]


def sparse_weights(w: np.ndarray) -> SparseWeights:
    """The nonzero entries of the square array w (NaN included) as SparseWeights."""
    w = np.asarray(w, dtype=np.float64)
    index = np.flatnonzero(w != 0)  # several times faster than on the floats
    return SparseWeights(len(w), index, w.reshape(-1)[index])


@dataclass(frozen=True)
class CompatGraph:
    w_gamma: np.ndarray   # (N, N) bool: the support of the thresholded scores
    w_h0: SparseWeights   # the initial hyperedge weights
    theta_cmp: float      # the threshold actually applied


def round_half_up(x: float) -> int:
    """round() with ties away from zero, as used for all count parameters."""
    return int(np.floor(x + 0.5))


ROW_BLOCK = 256  # rows per block of the threshold's top-K and of the SOG product
MIRROR_ROWS = 64  # rows per block when mirroring the SOG product in place


def dynamic_threshold(gamma: np.ndarray, k1_frac: float) -> float:
    """Mean of each row's K1 largest off-diagonal scores, K1 = max(1, round(k1_frac*N)).

    The diagonal is excluded from the top-K. The normalizer is K1*N even when a
    row has fewer than K1 off-diagonal entries. The graph build passes K1_FRAC.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    n = gamma.shape[0]
    if n == 0:
        raise ValueError("empty score matrix")
    k1 = max(1, round_half_up(k1_frac * n))
    if n == 1:
        return 0.0
    # every row's off-diagonal entries in column order, one after the other:
    # dropping the first entry of each (n + 1)-long run of the flat array
    # drops the diagonal. Row i's n - 1 entries are positions i*(n-1) ..
    # (i+1)*(n-1) - 1 of this (n - 1, n) view read flat; each block of rows
    # copies the view rows that hold its run into one reused buffer
    off = gamma.reshape(-1)[:-1].reshape(n - 1, n + 1)[:, 1:]
    k_eff = min(k1, n - 1)
    top = np.empty((n, k_eff))
    buf = np.empty((min(ROW_BLOCK, n) + 1) * n)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        first, last = lo * (n - 1), hi * (n - 1)
        r0, r1 = first // n, -(-last // n)
        np.copyto(buf[:(r1 - r0) * n].reshape(r1 - r0, n), off[r0:r1])
        block = buf[first - r0 * n:last - r0 * n].reshape(hi - lo, n - 1)
        np.negative(block, out=block)
        block.partition(k_eff - 1, axis=1)
        np.negative(block[:, :k_eff], out=top[lo:hi])
    return float(np.sum(top) / (k1 * n))


def _second_order_inplace(w: np.ndarray) -> None:
    """Overwrite the symmetric w with w * (w @ w), exactly symmetric with a
    zero diagonal.

    The product is computed and multiplied in upper-triangle blocks of
    ROW_BLOCK rows: block [lo, hi) is w[lo:hi] @ w[lo:].T times w[lo:hi, lo:],
    which reads only rows from lo on, and those still hold w (the first
    block, w[:hi] @ w, is the gemm's own first rows). BLAS rounds some
    entries of a product differently on the two sides of the diagonal, so
    the strict upper triangle is then mirrored onto the lower one, a block of
    rows at a time. (A syrk, w @ w.T, is exactly symmetric too, but at most
    sizes it differs from the gemm's upper triangle by an ulp, which would
    change outputs.)
    """
    n = len(w)
    for lo in range(0, n, ROW_BLOCK):
        hi = lo + ROW_BLOCK
        w[lo:hi, lo:] *= w[:hi] @ w if lo == 0 else w[lo:hi] @ w[lo:].T
    for lo in range(0, n, MIRROR_ROWS):
        hi = lo + MIRROR_ROWS
        w[lo:hi, :lo] = w[:lo, lo:hi].T
        diag = w[lo:hi, lo:hi]
        diag[...] = np.triu(diag, 1)
        diag += diag.T


def build_compat_graph(corrs: CorrSet, cfg: CompatConfig) -> CompatGraph:
    """Threshold the score matrix and derive the initial hyperedge weights.

    SOG: w_h0 = w_gamma * (w_gamma @ w_gamma) elementwise; FOG: w_h0 = w_gamma.
    Entries with gamma >= theta_cmp are kept (boundary scores survive, so a
    noise-free set where every score saturates at 1 keeps its graph). The
    score matrix is thresholded into w_gamma, and the SOG product written
    over it, in place; the graph keeps only w_gamma's support and the
    nonzero entries of w_h0, so no N x N float array outlives the call.

    Raises EmptyGraph when no off-diagonal entry survives.
    """
    n = len(corrs)
    if n < 3:
        raise ValueError("need at least 3 correspondences")
    gamma = kernels.gamma_matrix(corrs.src, corrs.tgt, cfg.sigma_d)
    if cfg.theta_cmp_override is not None:
        theta = float(cfg.theta_cmp_override)
    else:
        theta = dynamic_threshold(gamma, K1_FRAC)
    w = gamma  # thresholded in place; a NaN theta keeps nothing
    np.copyto(w, 0.0, where=~(w >= theta))
    np.fill_diagonal(w, 0.0)
    support = w > 0
    if not support.any():
        raise EmptyGraph("no compatible correspondence pair survives theta_cmp"
                         f"={theta:.6g}")
    if cfg.graph_order is GraphOrder.SOG:
        _second_order_inplace(w)
    return CompatGraph(w_gamma=support, w_h0=sparse_weights(w), theta_cmp=theta)
