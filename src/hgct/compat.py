"""Pairwise rigid-distance compatibility and first-/second-order graph construction.

The compatibility score of a correspondence pair is a truncated quadratic in
their rigid distance. A per-input threshold theta_cmp is derived from the
top-K score statistics of the whole set, so the graph density adapts to the
inlier ratio instead of relying on a fixed cutoff.
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
class CompatGraph:
    w_gamma: np.ndarray   # (N, N) thresholded compatibility scores
    w_h0: np.ndarray      # (N, N) initial hyperedge weights
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
    # row i's off-diagonal entries in column order, as one copy: dropping the
    # first entry of each (n + 1)-long run of the flat array drops the diagonal
    off = gamma.reshape(-1)[:-1].reshape(n - 1, n + 1)[:, 1:].copy().reshape(n, n - 1)
    k_eff = min(k1, n - 1)
    np.negative(off, out=off)
    off.partition(k_eff - 1, axis=1)
    top = -off[:, :k_eff]
    return float(np.sum(top) / (k1 * n))


MIRROR_ROWS = 64  # rows per block when mirroring the SOG product in place


def _symmetric_square(w: np.ndarray) -> np.ndarray:
    """w @ w for a symmetric w, made exactly symmetric with a zero diagonal.

    BLAS rounds some entries of a product differently on the two sides of the
    diagonal, so the strict upper triangle is mirrored onto the lower one, in
    place and a block of rows at a time. (A syrk, w @ w.T, is exactly
    symmetric too, but at most sizes it differs from the gemm's upper
    triangle by an ulp, which would change outputs.)
    """
    prod = w @ w
    n = len(prod)
    for lo in range(0, n, MIRROR_ROWS):
        hi = lo + MIRROR_ROWS
        prod[lo:hi, :lo] = prod[:lo, lo:hi].T
        diag = prod[lo:hi, lo:hi]
        diag[...] = np.triu(diag, 1)
        diag += diag.T
    return prod


def build_compat_graph(corrs: CorrSet, cfg: CompatConfig) -> CompatGraph:
    """Threshold the score matrix and derive the initial hyperedge weights.

    SOG: w_h0 = w_gamma * (w_gamma @ w_gamma) elementwise; FOG: w_h0 = w_gamma.
    Entries with gamma >= theta_cmp are kept (boundary scores survive, so a
    noise-free set where every score saturates at 1 keeps its graph).

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
    w_gamma = gamma  # thresholded in place; a NaN theta keeps nothing
    np.copyto(w_gamma, 0.0, where=~(w_gamma >= theta))
    np.fill_diagonal(w_gamma, 0.0)
    if not np.any(w_gamma > 0):
        raise EmptyGraph("no compatible correspondence pair survives theta_cmp"
                         f"={theta:.6g}")
    if cfg.graph_order is GraphOrder.SOG:
        w_h0 = _symmetric_square(w_gamma)
        w_h0 *= w_gamma
    else:
        w_h0 = w_gamma.copy()
    return CompatGraph(w_gamma=w_gamma, w_h0=w_h0, theta_cmp=theta)
