"""The initial hypergraph's incidence and the hyperedge-precision metric.

Vertices and hyperedges are both indexed by correspondence index: hyperedge j
collects the vertices whose initial weight to j is positive, plus j itself, so
the incidence matrix is square (N x N, row = vertex, column = hyperedge) and
held as booleans, one byte per membership. The initial weights w_h0 are held
sparse (compat.SparseWeights), and the initial hyperedge weights W_H^0 are
never stored: they equal w_h0 except for a 1 on the diagonal of every vertex
in its own hyperedge, and the network reads them only as column sums (see
hgnn.forward).
"""

import numpy as np

from .compat import ROW_BLOCK, SparseWeights
from .errors import NoEdges


def init_hypergraph(w_h0: SparseWeights) -> np.ndarray:
    """The (N, N) boolean incidence H^0: the positive entries of the initial
    weights w_h0 (a CompatGraph's), plus self-membership.

    Every non-isolated vertex i is added to its own hyperedge so that
    hypothesis sampling over e_i always contains the seed. Isolated vertices
    keep an all-false row and column.
    """
    n = w_h0.n
    h = np.zeros((n, n), dtype=bool)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        block = h[lo:hi]
        positive = w_h0.value[w_h0.indptr[lo]:w_h0.indptr[hi]] > 0
        block.reshape(-1)[w_h0.positions(lo, hi)[positive]] = True
        rows = np.flatnonzero(block.any(axis=1))
        block[rows, lo + rows] = True
    return h


def gt_hypergraph(labels) -> np.ndarray:
    """Ground-truth incidence, as booleans: h*(i, j) iff i and j are both inliers."""
    lab = np.asarray(labels, dtype=bool)
    return np.outer(lab, lab)


def hyperedge_precision(h: np.ndarray, labels) -> float:
    """Mean inlier fraction over the non-empty hyperedges (columns) of the
    boolean incidence h, in [0, 1].

    Empty hyperedges are excluded from the mean (a 0/0 term is undefined).
    Raises NoEdges when every hyperedge is empty.
    """
    lab = np.asarray(labels, dtype=bool)
    sizes = np.count_nonzero(h, axis=0)
    nonempty = sizes > 0
    if not np.any(nonempty):
        raise NoEdges("every hyperedge is empty")
    inlier_counts = np.count_nonzero(h[lab], axis=0)
    fractions = inlier_counts[nonempty] / sizes[nonempty]
    return float(np.mean(fractions))
