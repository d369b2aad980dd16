"""Hypergraph incidence structure and the hyperedge-precision metric.

Vertices and hyperedges are both indexed by correspondence index: hyperedge j
collects the vertices whose initial weight to j is positive, plus j itself, so
the incidence matrix is square (N x N, row = vertex, column = hyperedge).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoEdges


@dataclass(frozen=True)
class Hypergraph:
    h: np.ndarray     # (N, N) binary incidence, float64 holding {0, 1}
    w_h: np.ndarray   # (N, N) nonnegative weights, zero where h is zero

    @property
    def n(self) -> int:
        return self.h.shape[0]


def init_hypergraph(w_h0: np.ndarray) -> Hypergraph:
    """Incidence from the positive support of the initial weights w_h0 (a
    CompatGraph's), plus self-membership.

    Every non-isolated vertex i is added to its own hyperedge with weight 1 so
    that hypothesis sampling over e_i always contains the seed. Isolated
    vertices keep an all-zero row and column.
    """
    h = (w_h0 > 0).astype(np.float64)
    w_h = w_h0.copy()
    non_isolated = h.sum(axis=1) > 0
    idx = np.flatnonzero(non_isolated)
    h[idx, idx] = 1.0
    w_h[idx, idx] = 1.0
    return Hypergraph(h=h, w_h=w_h)


def gt_hypergraph(labels) -> np.ndarray:
    """Ground-truth incidence: h*(i, j) = 1 iff i and j are both inliers."""
    lab = np.asarray(labels, dtype=bool).astype(np.float64)
    return np.outer(lab, lab)


def hyperedge_precision(h: np.ndarray, labels) -> float:
    """Mean inlier fraction over the non-empty hyperedges (columns) of the
    incidence h, in [0, 1].

    Empty hyperedges are excluded from the mean (a 0/0 term is undefined).
    Raises NoEdges when every hyperedge is empty.
    """
    lab = np.asarray(labels, dtype=bool)
    sizes = h.sum(axis=0)
    nonempty = sizes > 0
    if not np.any(nonempty):
        raise NoEdges("every hyperedge is empty")
    inlier_counts = lab.astype(np.float64) @ h  # exact integer sums
    fractions = inlier_counts[nonempty] / sizes[nonempty]
    return float(np.mean(fractions))
