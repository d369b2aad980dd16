"""Pairwise rigid-distance compatibility and first-/second-order graph construction.

The compatibility score of a correspondence pair is a truncated quadratic in
their rigid distance. A per-input threshold theta_cmp is derived from the
top-K score statistics of the whole set, so the graph density adapts to the
inlier ratio instead of relying on a fixed cutoff.

The build holds one N x N float array, the score matrix: it is thresholded
in place, and the second-order product is written over it in row blocks.
What it returns is the support of the thresholded scores as booleans, one
byte per entry, and the initial weights as SparseWeights, 12 bytes per
nonzero entry (an int32 column and a float64 value) plus a row pointer per
row. The nonzero entries are 6-14 % of N x N on the benchmark's N=2000
scenes; at every density the sparse form takes at most 1.5 times the
memory of a dense array.
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
ROW_BLOCK = 256  # rows per block of the threshold's top-K, the SOG product and w_h0
MIRROR_ROWS = 64  # rows per block when mirroring the SOG product in place


@dataclass(frozen=True)
class CompatConfig:
    sigma_d: float = 0.1          # meters; sensitivity to distance difference
    graph_order: GraphOrder = GraphOrder.SOG
    theta_cmp_override: Optional[float] = None  # fixed theta_cmp for robustness sweeps

    def __post_init__(self):
        check_positive(self, "sigma_d")


@dataclass(frozen=True)
class SparseWeights:
    """An (n, n) float64 array held as its listed entries, row by row: row
    i's are `column[indptr[i]:indptr[i + 1]]`, increasing, with values
    `value[indptr[i]:indptr[i + 1]]`. Every other entry is `fill`."""
    n: int
    indptr: np.ndarray    # (n + 1,) int64
    column: np.ndarray    # (nnz,) int32
    value: np.ndarray     # (nnz,) float64
    fill: float = 0.0

    def positions(self, lo: int, hi: int) -> np.ndarray:
        """The flat positions of the listed entries of rows lo .. hi in
        those rows, (row - lo) * n + column, in order: entries
        indptr[lo] .. indptr[hi]."""
        return (_row_starts(self.indptr, lo, hi, self.n)
                + self.column[self.indptr[lo]:self.indptr[hi]])

    def add_rows(self, lo: int, block: np.ndarray) -> None:
        """Add rows lo .. lo + len(block) of the array into the C-contiguous
        `block`, in place. Each entry takes one addition, block + fill or
        block + value, so the sums are those of adding a dense array."""
        hi = lo + len(block)
        local = self.positions(lo, hi)
        flat = block.reshape(-1)
        listed = flat[local]
        flat += self.fill
        flat[local] = listed + self.value[self.indptr[lo]:self.indptr[hi]]


def sparse_weights(w: np.ndarray) -> SparseWeights:
    """The nonzero entries of the square array w (NaN included) as
    SparseWeights, filled ROW_BLOCK rows at a time: a first pass counts
    each row's entries, a second writes them, so no temporary is larger
    than a block."""
    w = np.asarray(w, dtype=np.float64)
    n = len(w)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, n, ROW_BLOCK):
        indptr[lo + 1:lo + ROW_BLOCK + 1] = np.count_nonzero(w[lo:lo + ROW_BLOCK] != 0,
                                                             axis=1)
    np.cumsum(indptr, out=indptr)
    column = np.empty(indptr[-1], dtype=np.int32)
    value = np.empty(indptr[-1])
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        block = w[lo:hi]
        listed = np.flatnonzero(block != 0)
        a, b = indptr[lo], indptr[hi]
        np.take(block.reshape(-1), listed, out=value[a:b])
        # a flat position less its row's start is its column (a remainder
        # by n takes several times longer)
        np.subtract(listed, _row_starts(indptr, lo, hi, n), out=column[a:b],
                    casting="unsafe")
    return SparseWeights(n, indptr, column, value)


def _row_starts(indptr: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """(row - lo) * n for each listed entry of rows lo .. hi of an (n, n)
    array with row pointers indptr: its row's start in those rows read
    flat."""
    return np.repeat(np.arange(0, (hi - lo) * n, n), np.diff(indptr[lo:hi + 1]))


@dataclass(frozen=True)
class CompatGraph:
    w_gamma: np.ndarray   # (N, N) bool: the support of the thresholded scores
    w_h0: SparseWeights   # the initial hyperedge weights
    theta_cmp: float      # the threshold actually applied


def round_half_up(x: float) -> int:
    """round() with ties away from zero, as used for all count parameters."""
    return int(np.floor(x + 0.5))


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
