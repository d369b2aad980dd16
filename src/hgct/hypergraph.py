"""The initial hypergraph's incidence and the hyperedge-precision metric.

Vertices and hyperedges are both indexed by correspondence index: hyperedge j
collects the vertices whose initial weight to j is positive, plus j itself, so
the incidence matrix is square (N x N, row = vertex, column = hyperedge). The
initial hyperedge weights W_H^0 are never stored: they equal the initial
weights w_h0 except for a 1 on the diagonal of every vertex in its own
hyperedge, and the network reads them only as column sums (see hgnn.forward).
"""

import numpy as np

from .errors import NoEdges


def init_hypergraph(w_h0: np.ndarray) -> np.ndarray:
    """The (N, N) float64 incidence H^0: the positive support of the initial
    weights w_h0 (a CompatGraph's), plus self-membership.

    Every non-isolated vertex i is added to its own hyperedge so that
    hypothesis sampling over e_i always contains the seed. Isolated vertices
    keep an all-zero row and column.
    """
    h = (w_h0 > 0).astype(np.float64)
    idx = np.flatnonzero(h.sum(axis=1) > 0)
    h[idx, idx] = 1.0
    return h


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
