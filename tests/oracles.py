"""Naive loop implementations used as independent oracles in tests.

Everything here recomputes the package's tensor contractions with explicit
index loops (plain dense affine maps may use numpy); none of it shares code
with the implementation under test. The exceptions:
`weighted_membership_precision`, a test-only metric with no counterpart in
the package; `nonlocal_apply`, a test entry point into the network's
attention block; `single_fit`, one (K, 3) fit through the package's
stacked solver; the `*_reference` and `*_chain` helpers, which keep the
allocating numpy expressions, float64 incidence products and unfused tape
ops that the package's in-place, boolean and blocked kernels must equal bit
for bit; `dense` and `dense_graph`, the arrays behind
the package's sparse initial weights and its graph's support (the latter
rescored through the package's `gamma_matrix`); the initial hyperedge
weights W_H^0, which the package never builds, and the test-only views of a
hypergraph's incidence h and weights w_h (degrees, weights, empty-edge
count, a debug listing); the per-correspondence types and scalar functions (Point3,
Correspondence, rigid_distance, compat_score, residual) and the rigid-motion
and permutation helpers (identity, apply, compose, inverse, is_valid,
permuted), which the package works without; and the tape-level row softmax
and grad-mode query at the end (softmax_rows, grad_enabled), which are
built on the package's kernels and which the network does not call.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from hgct import autodiff as av
from hgct import kernels
from hgct.compat import CompatGraph, SparseWeights, sparse_weights
from hgct.geom import CorrSet, RigidTransform, kabsch_svd
from hgct.hgnn import _log_bias, _nonlocal
from hgct.train import PROB_EPS


def rigid_distance_loop(si, ti, sj, tj):
    ds = np.sqrt(sum((si[k] - sj[k]) ** 2 for k in range(3)))
    dt = np.sqrt(sum((ti[k] - tj[k]) ** 2 for k in range(3)))
    return abs(ds - dt)


def gamma_loop(src, tgt, sigma_d):
    n = len(src)
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = rigid_distance_loop(src[i], tgt[i], src[j], tgt[j])
            g[i, j] = max(0.0, 1.0 - d * d / (sigma_d * sigma_d))
    return g


def dynamic_threshold_loop(gamma, k1_frac):
    n = gamma.shape[0]
    k1 = max(1, int(np.floor(k1_frac * n + 0.5)))
    total = 0.0
    for i in range(n):
        row = sorted((gamma[i, j] for j in range(n) if j != i), reverse=True)
        total += sum(row[:k1])
    return total / (k1 * n)


def dynamic_threshold_reference(gamma, k1_frac):
    """The threshold with a boolean-mask copy and a negated partitioned copy."""
    n = gamma.shape[0]
    k1 = max(1, int(np.floor(k1_frac * n + 0.5)))
    off = gamma[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    k_eff = min(k1, n - 1)
    top = -np.partition(-off, k_eff - 1, axis=1)[:, :k_eff]
    return float(np.sum(top) / (k1 * n))


def sog_weights_loop(w_gamma):
    n = w_gamma.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc += w_gamma[i, k] * w_gamma[k, j]
            out[i, j] = w_gamma[i, j] * acc
    return out


def degrees_loop(h):
    n = h.shape[0]
    dv = np.array([sum(h[i, j] for j in range(n)) for i in range(n)])
    de = np.array([sum(h[i, j] for i in range(n)) for j in range(n)])
    return dv, de


def edge_weights_loop(w_h):
    n = w_h.shape[0]
    return np.array([sum(w_h[i, j] for i in range(n)) for j in range(n)])


def hyperedge_precision_loop(h, labels):
    n = h.shape[0]
    fractions = []
    for j in range(n):
        members = [i for i in range(n) if h[i, j] > 0]
        if not members:
            continue
        good = sum(1 for i in members if labels[i])
        fractions.append(good / len(members))
    return sum(fractions) / len(fractions)


def weighted_membership_precision(h, w_h, labels):
    """Share of the weight on the support of h that sits on inlier-inlier memberships.

    A test-only metric for the final hypergraph: sum of w_h[i, j] over
    memberships (h[i, j] > 0) with both i and j inliers, divided by the sum
    over all memberships. Unlike the binary column mean, it rewards weight
    moved onto correct memberships even where the support cannot change.
    """
    lab = np.asarray(labels, dtype=bool)
    w = np.where(np.asarray(h) > 0, np.asarray(w_h, dtype=np.float64), 0.0)
    total = w.sum()
    if total <= 0:
        raise ValueError("no weight on the support of h")
    return float(w[np.ix_(lab, lab)].sum() / total)


def affine(x, w, b):
    return x @ w + b


def mlp_loop(z, w1, b1, w2, b2):
    hidden = np.maximum(0.0, affine(z, w1, b1))
    return affine(hidden, w2, b2)


def l2norm_rows_loop(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        nrm = np.sqrt(sum(v * v for v in x[i]))
        if nrm > 0:
            out[i] = x[i] / nrm
    return out


def sigmoid_scalar(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def nonlocal_loop(x, w, params, layer, channels):
    """Attention with log-weight bias, all contractions by explicit loops;
    w is an array or SparseWeights."""
    w = dense(w)
    n = x.shape[0]
    q = affine(x, params.value(f"nl.{layer}.theta.w"), params.value(f"nl.{layer}.theta.b"))
    k = affine(x, params.value(f"nl.{layer}.phi.w"), params.value(f"nl.{layer}.phi.b"))
    v = affine(x, params.value(f"nl.{layer}.g.w"), params.value(f"nl.{layer}.g.b"))
    out = np.zeros_like(x)
    for i in range(n):
        logits = np.zeros(n)
        for j in range(n):
            dot = sum(q[i, c] * k[j, c] for c in range(channels))
            logits[j] = dot / np.sqrt(channels) + np.log(w[i, j] + 1e-12)
        logits -= logits.max()
        weights = np.exp(logits)
        weights /= weights.sum()
        for j in range(n):
            out[i] += weights[j] * v[j]
    msg = affine(out, params.value(f"nl.{layer}.out.w"), params.value(f"nl.{layer}.out.b"))
    return x + msg


def nonlocal_apply(x, w, params, layer=0):
    """The network's attention block A @ g(X), biased by log(w + eps), run
    alone without the tape; `w` is any symmetric nonnegative matrix."""
    bias = _log_bias(sparse_weights(w))
    with av.no_grad():
        out = _nonlocal(av.wrap(np.asarray(x, dtype=np.float64)), bias, params, layer)
    return out.value


def conv_block_loop(x, y_prev, h, w_h, w_nl, params, layer, channels):
    """One convolution block (both stages) with loop-based aggregation."""
    n = x.shape[0]

    yhat = np.zeros((n, channels))
    for j in range(n):
        deg = sum(h[i, j] for i in range(n))
        if deg > 0:
            for i in range(n):
                if h[i, j] > 0:
                    yhat[j] += x[i]
            yhat[j] /= deg
    y = l2norm_rows_loop(mlp_loop(
        np.concatenate([y_prev, yhat], axis=1),
        params.value(f"mlp1.{layer}.w1"), params.value(f"mlp1.{layer}.b1"),
        params.value(f"mlp1.{layer}.w2"), params.value(f"mlp1.{layer}.b2")))

    we = edge_weights_loop(w_h)
    xhat = np.zeros((n, channels))
    for i in range(n):
        deg = sum(h[i, j] for j in range(n))
        if deg > 0:
            for j in range(n):
                if h[i, j] > 0:
                    xhat[i] += we[j] * y[j]
            xhat[i] /= deg
    xres = np.maximum(0.0, x + mlp_loop(
        xhat,
        params.value(f"mlp2.{layer}.w1"), params.value(f"mlp2.{layer}.b1"),
        params.value(f"mlp2.{layer}.w2"), params.value(f"mlp2.{layer}.b2")))
    x_next = l2norm_rows_loop(nonlocal_loop(xres, w_nl, params, layer, channels))
    return x_next, y


def update_block_loop(x_next, y, h, params, t_update, k2, channels):
    """Mask, sigmoid similarity, per-row top-K retention, by explicit loops."""
    n = x_next.shape[0]
    q = affine(x_next, params.value(f"upd.{t_update}.q.w"), params.value(f"upd.{t_update}.q.b"))
    k = affine(y, params.value(f"upd.{t_update}.k.w"), params.value(f"upd.{t_update}.k.b"))
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if h[i, j] > 0:
                dot = sum(q[i, c] * k[j, c] for c in range(channels))
                scores[i, j] = sigmoid_scalar(dot / np.sqrt(channels))
    h_new = np.zeros((n, n))
    w_new = np.zeros((n, n))
    for i in range(n):
        cand = [j for j in range(n) if h[i, j] > 0]
        cand.sort(key=lambda j: (-scores[i, j], j))
        for j in cand[:k2]:
            h_new[i, j] = 1.0
            w_new[i, j] = scores[i, j]
    return h_new, w_new


def topk_retention_loop(scores, support, k2):
    """Per row, the k2 supported entries first in (-score, column) order, as 0/1."""
    n, m = scores.shape
    mask = np.zeros((n, m))
    for i in range(n):
        cand = [j for j in range(m) if support[i, j] > 0]
        cand.sort(key=lambda j: (-scores[i, j], j))
        for j in cand[:k2]:
            mask[i, j] = 1.0
    return mask


def kabsch_fit_loop(src, tgt):
    """One unweighted rigid fit, step by step: (R, t), or None when the centered
    cross-covariance has rank < 2 (relative cutoff 1e-12)."""
    w = np.full(len(src), 1.0 / len(src))
    c_src = w @ src
    c_tgt = w @ tgt
    ps = src - c_src
    pt = tgt - c_tgt
    cov = (pt * w[:, None]).T @ ps
    u, s, vt = np.linalg.svd(cov)
    if s[0] <= 0.0 or s[1] < 1e-12 * s[0]:
        return None
    if np.linalg.det(u @ vt) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    rot = u @ vt
    return rot, c_tgt - rot @ c_src


def single_fit(src, tgt) -> RigidTransform:
    """One (K, 3) fit through the package's stacked solver, as a stack of one;
    fails the test when the fit is rank-deficient."""
    rots, trans, ok = kabsch_svd(np.asarray(src)[None], np.asarray(tgt)[None])
    assert ok[0], "rank-deficient fit"
    return RigidTransform(rots[0], trans[0])


def mae_scores_loop(rots, trans, src, tgt, theta):
    """Truncated-residual fitness, one transform at a time."""
    out = np.empty(len(rots))
    for m in range(len(rots)):
        r = np.sqrt(np.sum((src @ rots[m].T + trans[m] - tgt) ** 2, axis=1))
        out[m] = np.sum(np.maximum(0.0, 1.0 - r / theta))
    return out


def knn_subset_loop(x, seed, k):
    """The k rows of x nearest to row `seed` in squared distance, ties to the
    lower index, nearest first (one full sort)."""
    d = x - x[seed]
    dist = np.sum(d * d, axis=1)
    return np.lexsort((np.arange(len(x)), dist))[:k]


def softmax_rows_reference(a):
    """Row softmax as three allocating expressions."""
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid_reference(a):
    return 0.5 * (np.tanh(0.5 * a) + 1.0)


def scaled_scores_reference(q, k, scale, bias, activation):
    """activation(q k^T * scale + bias) as allocating expressions; no bias
    term when bias is None."""
    z = (q @ k.T) * scale
    if bias is not None:
        z = z + bias
    return softmax_rows_reference(z) if activation == "softmax" else sigmoid_reference(z)


def scaled_scores_chain(q, k, scale, bias, activation):
    """The tape ops that av.scaled_scores fuses: matmul -> mul -> add ->
    softmax_rows / sigmoid, without the add when bias is None."""
    z = av.mul(av.matmul(q, av.transpose(k)), scale)
    if bias is not None:
        z = av.add(z, bias)
    return softmax_rows(z) if activation == "softmax" else av.sigmoid(z)


def attention_chain(q, k, v, scale, bias):
    """The tape ops that av.attention fuses: the dense score chain (bias an
    (N, M) array, a sparse one made dense, or None), then av.matmul by v,
    whose VJP reads the score array."""
    bias = None if bias is None else dense(bias)
    return av.matmul(scaled_scores_chain(q, k, scale, bias, "softmax"), v)


def retained_sigmoid_chain(q, k, scale, mask):
    """The tape ops that av.retained_sigmoid fuses: the dense sigmoid score
    chain times the boolean mask (as float64), and its column sums."""
    w = av.mul(scaled_scores_chain(q, k, scale, None, "sigmoid"), mask)
    return w, av.vsum(w, axis=0)


def incidence_product_reference(h, a, transpose):
    """h^T @ a (transpose) or h @ a as one float64 gemm over the whole
    incidence h cast to floats."""
    hf = np.asarray(h, dtype=np.float64)
    return hf.T @ a if transpose else hf @ a


def incidence_product_chain(h, a, transpose):
    """The tape op that the conv's incidence product replaces: av.matmul by
    the incidence wrapped as a float64 constant."""
    hf = np.asarray(h, dtype=np.float64)
    return av.matmul(av.wrap(hf.T if transpose else hf), a)


def bce_mean_chain(p, target):
    """The graph and class losses' mean BCE with the 0/1 target as float64
    constants of av.mul, as the loss was before its target became boolean."""
    t = np.asarray(target, dtype=np.float64)
    p = av.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    pos = av.mul(av.log(p), t)
    neg = av.mul(av.log(av.sub(1.0, p)), 1.0 - t)
    return av.mul(av.vmean(av.add(pos, neg)), -1.0)


def sog_product_reference(w_gamma):
    """w_gamma * (w_gamma @ w_gamma), made exactly symmetric by mirroring the
    strict upper triangle of a general matrix product."""
    upper = np.triu(w_gamma @ w_gamma, 1)
    return w_gamma * (upper + upper.T)


def gamma_matrix_reference(src, tgt, sigma_d):
    """Compatibility scores with one temporary per coordinate difference."""
    def pdist(p):
        dx = p[:, None, 0] - p[None, :, 0]
        dy = p[:, None, 1] - p[None, :, 1]
        dz = p[:, None, 2] - p[None, :, 2]
        return np.sqrt(dx * dx + dy * dy + dz * dz)

    d = np.abs(pdist(src) - pdist(tgt))
    g = np.maximum(0.0, 1.0 - (d * d) / (sigma_d * sigma_d))
    np.fill_diagonal(g, 0.0)
    return g


# dense arrays behind sparse weights and a graph's support

def dense(w):
    """The (n, n) array that SparseWeights w holds; an array is returned as
    an array."""
    if not isinstance(w, SparseWeights):
        return np.asarray(w, dtype=np.float64)
    out = np.full((w.n, w.n), w.fill)
    rows = np.repeat(np.arange(w.n), np.diff(w.indptr))
    out[rows, w.column] = w.value
    return out


def dense_graph(g, corrs, sigma_d):
    """The CompatGraph g with dense values: w_gamma holds the scores on its
    support (recomputed by the package's gamma_matrix, which the graph build
    thresholds) and w_h0 the array of its SparseWeights."""
    w_gamma = np.where(g.w_gamma, kernels.gamma_matrix(corrs.src, corrs.tgt, sigma_d), 0.0)
    return CompatGraph(w_gamma=w_gamma, w_h0=dense(g.w_h0), theta_cmp=g.theta_cmp)


# the initial hyperedge weights, and test-only views of an incidence h and
# hyperedge weights w_h

def initial_weights(w_h0):
    """W_H^0: the initial weights w_h0 (an array or SparseWeights) with
    weight 1 on the diagonal of every non-isolated vertex, the
    self-membership that init_hypergraph adds to H^0."""
    w_h0 = dense(w_h0)
    w_h = w_h0.copy()
    idx = np.flatnonzero((w_h0 > 0).sum(axis=1) > 0)
    w_h[idx, idx] = 1.0
    return w_h


def init_hypergraph_reference(w_h0):
    """H^0 by the dense rule: the positive support of the array w_h0, plus
    self-membership of every vertex whose row is not empty."""
    h = (w_h0 > 0).astype(np.float64)
    idx = np.flatnonzero(h.sum(axis=1) > 0)
    h[idx, idx] = 1.0
    return h


def initial_edge_weights_reference(w, h0):
    """Column sums of W_H^0 from w, an array holding w_h0, which is left as
    it was: 1 is written on the self-memberships (the diagonal of H^0) for
    the sum of the whole array and restored after it."""
    self_members = np.flatnonzero(h0.diagonal())
    diagonal = w[self_members, self_members]
    w[self_members, self_members] = 1.0
    sums = w.sum(axis=0)
    w[self_members, self_members] = diagonal
    return sums


def vertex_degrees(h):
    """D(v_i): number of hyperedges containing vertex i (row sums)."""
    return h.sum(axis=1)


def hyperedge_degrees(h):
    """D(e_j): number of vertices in hyperedge j (column sums)."""
    return h.sum(axis=0)


def hyperedge_weights(w_h):
    """W(e_j): total weight mass of hyperedge j (column sums of w_h)."""
    return w_h.sum(axis=0)


def excluded_edge_count(h):
    """Number of empty hyperedges left out of the precision mean."""
    return int(np.sum(h.sum(axis=0) == 0))


def dump(h, w_h):
    """Debug listing: one line per hyperedge with sorted members and weights."""
    lines = []
    for j in range(h.shape[1]):
        members = np.flatnonzero(h[:, j] > 0)
        weights = " ".join(format(w_h[i, j], ".6g") for i in members)
        vs = " ".join(str(i) for i in members)
        lines.append(f"edge {j}: v=[{vs}] w=[{weights}]")
    return "\n".join(lines)


# per-correspondence types and scalar functions

@dataclass(frozen=True)
class Point3:
    """A 3D point in meters."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class Correspondence:
    """A putative match pairing a source point with a target point."""

    src: Point3
    tgt: Point3
    feat: Optional[np.ndarray] = None


def rigid_distance(c_i: Correspondence, c_j: Correspondence) -> float:
    """| ||p_i^s - p_j^s|| - ||p_i^t - p_j^t|| |; zero for two exact inliers."""
    ds = np.linalg.norm(c_i.src.as_array() - c_j.src.as_array())
    dt = np.linalg.norm(c_i.tgt.as_array() - c_j.tgt.as_array())
    return float(abs(ds - dt))


def compat_score(d: float, sigma_d: float) -> float:
    """Truncated quadratic compatibility max(0, 1 - d^2/sigma_d^2) in [0, 1]."""
    if sigma_d <= 0:
        raise ValueError("sigma_d must be positive")
    if d < 0:
        raise ValueError("rigid distance must be nonnegative")
    return float(max(0.0, 1.0 - (d * d) / (sigma_d * sigma_d)))


def residual(transform, c: Correspondence) -> float:
    """Euclidean reprojection distance ||R p_src + t - p_tgt|| in meters."""
    p = transform.R @ c.src.as_array() + transform.t - c.tgt.as_array()
    return float(np.sqrt(p @ p))


# rigid-motion and permutation helpers

def identity():
    return RigidTransform(np.eye(3), np.zeros(3))


def apply(g, pts):
    """g applied to an (N, 3) array (or a single 3-vector)."""
    pts = np.asarray(pts, dtype=np.float64)
    return pts @ g.R.T + g.t


def compose(g, other):
    """Apply `other` first, then `g`."""
    return RigidTransform(g.R @ other.R, g.R @ other.t + g.t)


def inverse(g):
    return RigidTransform(g.R.T, -g.R.T @ g.t)


def is_valid(g, tol=1e-9):
    ortho = np.max(np.abs(g.R.T @ g.R - np.eye(3))) <= tol
    det = abs(np.linalg.det(g.R) - 1.0) <= tol
    return bool(ortho and det and np.all(np.isfinite(g.t)))


def permuted(cs, perm):
    """cs with its rows (points, features, labels) in the order perm."""
    perm = np.asarray(perm)
    return CorrSet(cs.src[perm], cs.tgt[perm],
                   None if cs.feat is None else cs.feat[perm],
                   cs.gt,
                   None if cs.labels is None else cs.labels[perm])


# tape-level ops the network reaches only through av.scaled_scores, whose
# blocks the taped ops av.attention and av.retained_sigmoid finish

def softmax_rows(a):
    """Row softmax as one tape op: the in-place kernel on a copy of the
    input, and a VJP that reads the output."""
    a = av.wrap(a)
    s = a.value.copy()
    av._softmax_rows_inplace(s)
    return av._result(s, (a, lambda g: av._softmax_rows_vjp(g, s)))


def grad_enabled():
    """Whether the tape records, i.e. False inside av.no_grad()."""
    return av._GRAD_ENABLED
