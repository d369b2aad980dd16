"""The initial hypergraph's incidence and the hyperedge-precision metric.

Vertices and hyperedges are both indexed by correspondence index: hyperedge j
collects the vertices whose initial weight to j is positive, plus j itself, so
the incidence matrix is square (N x N, row = vertex, column = hyperedge). The
initial weights w_h0 are held sparse (compat.SparseWeights), and the initial
hyperedge weights W_H^0 are never stored: they equal w_h0 except for a 1 on
the diagonal of every vertex in its own hyperedge, and the network reads
them only as column sums (see hgnn.forward).
"""

import numpy as np

from .compat import SparseWeights
from .errors import NoEdges


def init_hypergraph(w_h0: SparseWeights) -> np.ndarray:
    """The (N, N) float64 incidence H^0: the positive entries of the initial
    weights w_h0 (a CompatGraph's), plus self-membership.

    Every non-isolated vertex i is added to its own hyperedge so that
    hypothesis sampling over e_i always contains the seed. Isolated vertices
    keep an all-zero row and column.
    """
    n = w_h0.n
    # first, so that it can take the block the graph build's score matrix
    # has just freed before a smaller array splits that block
    h = np.zeros((n, n))
    members = w_h0.index[w_h0.value > 0]
    h.reshape(-1)[members] = 1.0
    # row i's members are members[bounds[i]:bounds[i + 1]]
    bounds = np.searchsorted(members, np.arange(n + 1) * n)
    idx = np.flatnonzero(np.diff(bounds))
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
