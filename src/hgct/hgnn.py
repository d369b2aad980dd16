"""Dynamic hypergraph network: forward pass (taped for autodiff), checkpoint I/O.

Architecture (channel width C, 5 convolution layers, 4 structure updates):

  X^0   = l2norm(input_lift([src | tgt]))          per-correspondence 6-vector
  per layer t = 0..4:
    Yhat = De^-1 H^T X            (1/0 -> 0 for empty hyperedges)
    Y^t  = l2norm(mlp1_t([Y^{t-1} | Yhat]))        Y^{-1} is all zeros
    Xhat = Dv^-1 H We Y^t         We = column sums of W_H^t
    (H^0 = hypergraph.init_hypergraph(w_h0); W_H^0, w_h0 with 1 wherever
    H^0's diagonal is 1, is never built, only summed: see forward)
    X    = relu(X^t + mlp2_t(Xhat))
    X^{t+1} = l2norm(nonlocal_t(X, w_h0))          attention biased by log(w_h0 + eps)
  between layers (t = 0..3):
    S = sigmoid(q_t(X^{t+1}) k_t(Y^t)^T / sqrt(C))
    per vertex row: keep the K2(t) highest-S incident hyperedges,
    K2(t) = max(1, round(0.1 * (4 - t) * N)); kept sigmoid values become
    W_H^{t+1}, their support becomes H^{t+1}
  shat = sigmoid(conf_head(X^5))

The top-K selection is treated as constant support during differentiation:
gradients (autodiff.grad over the recorded tape) flow through the
retained sigmoid magnitudes only.

Memory: w_h0 comes sparse (compat.SparseWeights), and both passes build
the attention's log bias and W_H^0 from it one row block at a time, so
neither is an N x N array. Every H^t is an N x N boolean array, one byte
per membership: the conv's products H^T X and H (We Y), and their VJPs,
convert ROW_BLOCK columns or rows of it at a time to float64 in one reused
buffer (see _aggregate), and top-K writes H^{t+1} over the support
it reads. No score array is built: the attention (autodiff.attention) and
the update (autodiff.retained_sigmoid) compute their scores one row block
at a time into one reused buffer, and each block goes into its rows of the
attention's message, or of H^{t+1}, W_H^{t+1} and its column sums, before
the next is computed; their VJPs compute the same blocks again. Both passes
run these same operations, so they give the same bits. The default pass
keeps every layer and writes each H^{t+1} over a copy of H^t. The
inference pass, `forward(..., inference=True)`, which `pipeline.register`
runs, keeps only X^5, Y^4, H^4 and s_hat, builds no W_H^t, only its column
sums, and holds one N x N array, its boolean input H^0, whose buffer holds
H^1..H^4 in turn.

Checkpoint format: ASCII magic line b"HGCT-CKPT v1\n", then three
little-endian uint32 (channels, layer count, total parameter count), then all
parameters as little-endian float64 in the order given by `param_specs`
(sigma_f is stored last, as its log).
"""

import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import autodiff as av
from .compat import ROW_BLOCK, SparseWeights, round_half_up
from .errors import NonFinite
from .geom import CorrSet

N_LAYERS = 5
N_UPDATES = 4
NONLOCAL_EPS = 1e-12  # floor inside log(W + eps)

CKPT_MAGIC = b"HGCT-CKPT v1\n"


def param_specs(channels: int) -> List[Tuple[str, Tuple[int, ...]]]:
    """(name, shape) for every parameter, in serialization order."""
    c = channels
    specs: List[Tuple[str, Tuple[int, ...]]] = [
        ("input_lift.w", (6, c)), ("input_lift.b", (c,)),
    ]
    for t in range(N_LAYERS):
        specs += [
            (f"mlp1.{t}.w1", (2 * c, c)), (f"mlp1.{t}.b1", (c,)),
            (f"mlp1.{t}.w2", (c, c)), (f"mlp1.{t}.b2", (c,)),
            (f"mlp2.{t}.w1", (c, c)), (f"mlp2.{t}.b1", (c,)),
            (f"mlp2.{t}.w2", (c, c)), (f"mlp2.{t}.b2", (c,)),
        ]
        for proj in ("theta", "phi", "g", "out"):
            specs += [(f"nl.{t}.{proj}.w", (c, c)), (f"nl.{t}.{proj}.b", (c,))]
    for t in range(N_UPDATES):
        specs += [
            (f"upd.{t}.q.w", (c, c)), (f"upd.{t}.q.b", (c,)),
            (f"upd.{t}.k.w", (c, c)), (f"upd.{t}.k.b", (c,)),
        ]
    specs += [("conf.w", (c, 1)), ("conf.b", (1,)), ("log_sigma_f", ())]
    return specs


class HgnnParams:
    """All learnable tensors, keyed by name, values held as autodiff leaves."""

    def __init__(self, channels: int, tensors: Dict[str, av.Var]):
        self.channels = channels
        self.tensors = tensors

    @property
    def names(self) -> List[str]:
        return [name for name, _ in param_specs(self.channels)]

    def var(self, name: str) -> av.Var:
        return self.tensors[name]

    def value(self, name: str) -> np.ndarray:
        return self.tensors[name].value

    def n_params(self) -> int:
        return sum(v.value.size for v in self.tensors.values())

    def flat(self) -> np.ndarray:
        return np.concatenate([self.tensors[n].value.ravel() for n in self.names])

    def copy(self) -> "HgnnParams":
        tensors = {n: av.param(v.value.copy()) for n, v in self.tensors.items()}
        return HgnnParams(self.channels, tensors)


def init_params(channels: int = 32, seed: int = 0) -> HgnnParams:
    """He-initialized weights, zero biases, sigma_f = 1 stored as its log."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    rng = np.random.default_rng(seed)
    tensors: Dict[str, av.Var] = {}
    for name, shape in param_specs(channels):
        if name == "log_sigma_f":
            tensors[name] = av.param(0.0)
        elif name.endswith(".b"):
            tensors[name] = av.param(np.zeros(shape))
        else:
            fan_in = shape[0]
            tensors[name] = av.param(rng.normal(0.0, np.sqrt(2.0 / fan_in), shape))
    return HgnnParams(channels, tensors)


def save_checkpoint(params: HgnnParams, path) -> None:
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<III", params.channels, N_LAYERS, params.n_params()))
        for name in params.names:
            f.write(np.ascontiguousarray(params.value(name), dtype="<f8").tobytes())


def load_checkpoint(path) -> HgnnParams:
    """Read a checkpoint. The header is checked against `param_specs` and the
    file size before any parameter is read, so a bad header cannot make this
    allocate; a short file or trailing bytes raise ValueError."""
    with open(path, "rb") as f:
        magic = f.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic): {path}")
        header = f.read(12)
        if len(header) != 12:
            raise ValueError("truncated checkpoint")
        channels, layers, count = struct.unpack("<III", header)
        if layers != N_LAYERS:
            raise ValueError(f"checkpoint has {layers} layers; this build expects {N_LAYERS}")
        specs = param_specs(channels)
        sizes = [math.prod(shape) for _, shape in specs]
        if channels < 1 or sum(sizes) != count:
            raise ValueError(f"checkpoint header: {count} parameters do not match "
                             f"channels={channels}")
        body = os.fstat(f.fileno()).st_size - f.tell()
        if body < 8 * count:
            raise ValueError("truncated checkpoint")
        if body > 8 * count:
            raise ValueError(f"checkpoint has {body - 8 * count} trailing bytes")
        values = np.frombuffer(f.read(8 * count), dtype="<f8").astype(np.float64)
    ends = np.cumsum(sizes)
    tensors = {name: av.param(values[end - size:end].reshape(shape))
               for (name, shape), size, end in zip(specs, sizes, ends)}
    return HgnnParams(channels, tensors)


@dataclass
class ForwardTrace:
    """Per-layer states plus tape handles sufficient for backpropagation.

    An inference pass's trace holds only the last entry of xs, ys and hs
    (X^5, Y^4, H^4) and of x_vars and y_vars, and no W_H (whs and wh_vars are
    empty)."""

    xs: List[np.ndarray]        # X^0 .. X^5, each (N, C)
    ys: List[np.ndarray]        # Y^0 .. Y^4
    hs: List[np.ndarray]        # H^0 .. H^4, (N, N) bool; H^0 is hg0 itself
    whs: List[np.ndarray]       # W_H^1 .. W_H^4 (W_H^0 is never built)
    s_hat: np.ndarray           # (N,) confidence in (0, 1)
    w_nonlocal: np.ndarray      # always (0, 0): no pass keeps w_h0 (perfbench sums nbytes)
    x_vars: List[av.Var]
    y_vars: List[av.Var]
    wh_vars: List[av.Var]
    s_var: av.Var

    @property
    def x_final(self) -> np.ndarray:
        return self.xs[-1]

    @property
    def h_final(self) -> np.ndarray:
        return self.hs[-1]


def _affine(x: av.Var, params: HgnnParams, prefix: str) -> av.Var:
    return av.add(av.matmul(x, params.var(prefix + ".w")), params.var(prefix + ".b"))


def _mlp(x: av.Var, params: HgnnParams, prefix: str) -> av.Var:
    hidden = av.relu(av.add(av.matmul(x, params.var(prefix + ".w1")),
                            params.var(prefix + ".b1")))
    return av.add(av.matmul(hidden, params.var(prefix + ".w2")),
                  params.var(prefix + ".b2"))


def _safe_inv(v: np.ndarray) -> np.ndarray:
    return np.where(v > 0, 1.0 / np.where(v > 0, v, 1.0), 0.0)


def _log_bias(w_h0: SparseWeights) -> SparseWeights:
    """The attention's bias log(w_h0 + eps), sparse as w_h0 is and sharing
    its row pointers and columns: every unlisted entry is log(0 + eps)."""
    value = w_h0.value + NONLOCAL_EPS
    np.log(value, out=value)
    return SparseWeights(w_h0.n, w_h0.indptr, w_h0.column, value,
                         fill=float(np.log(0.0 + NONLOCAL_EPS)))


def _nonlocal(x: av.Var, log_bias: SparseWeights, params: HgnnParams, layer: int) -> av.Var:
    """x + out(softmax(theta(x) phi(x)^T / sqrt(C) + log_bias) g(x)), the
    attention one row block at a time (autodiff.attention)."""
    q = _affine(x, params, f"nl.{layer}.theta")
    k = _affine(x, params, f"nl.{layer}.phi")
    v = _affine(x, params, f"nl.{layer}.g")
    mixed = av.attention(q, k, v, 1.0 / np.sqrt(params.channels), log_bias)
    return av.add(x, _affine(mixed, params, f"nl.{layer}.out"))


def k2_schedule(n: int) -> List[int]:
    """Per-update retention counts: fractions 0.4, 0.3, 0.2, 0.1 of N."""
    return [max(1, round_half_up(0.1 * (N_LAYERS - (t + 1)) * n))
            for t in range(N_UPDATES)]


def _topk_retention(scores: np.ndarray, support: np.ndarray, k2: int) -> np.ndarray:
    """Per-row mask keeping the k2 highest-score entries within the boolean
    `support`, written over `support` and returned.

    Rows with at most k2 supported entries keep them all. Ties break toward
    the lower column index: a longer row keeps every supported entry above
    its k2-th largest supported score, then fills the remaining slots with
    the entries equal to that score, in column order. Supported scores are
    finite; the others are never read. The rule is per row, so it runs on
    the row blocks of autodiff.retained_sigmoid and its temporaries are
    block-sized; only the rows it prunes are written, each after its
    support is read.
    """
    rows = np.flatnonzero(np.count_nonzero(support, axis=1) > k2)
    if rows.size:
        s = np.where(support[rows], scores[rows], -np.inf)
        kth = np.partition(s, -k2, axis=1)[:, [-k2]]
        above = s > kth
        tie = s == kth
        room = k2 - np.count_nonzero(above, axis=1)
        support[rows] = above | (tie & (np.cumsum(tie, axis=1, dtype=np.int32)
                                        <= room[:, None]))
    return support


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"non-finite values in {name}")


def _update(x: av.Var, y: av.Var, h: np.ndarray, params: HgnnParams, t: int,
            k2: int, whole: bool) -> Tuple[Optional[av.Var], av.Var]:
    """Structure update t: H^{t+1}, written over h, and W_H^{t+1}, the
    sigmoid scores times H^{t+1} (autodiff.retained_sigmoid), returned with
    its column sums, the hyperedge weights of layer t+1; without `whole`
    only the sums are built, and None comes in W_H^{t+1}'s place.

    Top-K reads only scores on the support of H^t, and the product zeroes
    every other entry, so the scores need no off-support mask:
    sigmoid(z) * 0 and sigmoid(z - 1e30) * 0 are the same +0.0 for finite z
    (NaN for NaN z). A NaN entry of W_H^{t+1} makes its column's sum NaN, so
    the finiteness check reads the sums.
    """
    q = _affine(x, params, f"upd.{t}.q")
    k = _affine(y, params, f"upd.{t}.k")
    wh, we = av.retained_sigmoid(q, k, 1.0 / np.sqrt(params.channels), h,
                                 lambda s, rows: _topk_retention(s, rows, k2), whole)
    _check_finite(f"W_H^{t + 1}", we.value)
    return wh, we


def _initial_edge_weights(w_h0: SparseWeights, h0: np.ndarray) -> np.ndarray:
    """Column sums of W_H^0, which is w_h0 with 1 on the self-memberships
    (the diagonal of H^0). Each row block of W_H^0 is written into one
    reused buffer and added to the sums in row order (av.add_column_sums),
    so they are the sums of a W_H^0 array, bit for bit."""
    n = w_h0.n
    self_member = h0.diagonal()
    rows = max(1, av.SCORE_BLOCK // n)
    buf = np.empty((min(rows, n), n))
    sums = None
    for lo in range(0, n, rows):
        block = buf[:min(rows, n - lo)]
        block.fill(0.0)
        w_h0.add_rows(lo, block)
        members = np.flatnonzero(self_member[lo:lo + rows])
        block[members, lo + members] = 1.0
        sums = av.add_column_sums(sums, block)
    return sums


def _incidence_product(h: np.ndarray, a: np.ndarray, transpose: bool,
                       degrees: Optional[np.ndarray] = None) -> np.ndarray:
    """h^T @ a (transpose) or h @ a for the boolean incidence h, as float64
    gemms: ROW_BLOCK columns (transpose) or rows of h at a time are copied
    into one reused float64 buffer and multiplied by a. Each slab spans the
    whole inner dimension; with numpy's bundled OpenBLAS, slabs whose width
    is a multiple of 32 give the whole-array gemm's bits at every size
    tests/test_hgnn.py tries. With `degrees`, an (N,)
    array, the slabs' column (transpose) or row sums, the hyperedge or
    vertex degrees, are written into it: exact integer sums, by gemv."""
    n = len(h)
    out = np.empty((n, a.shape[1]))
    buf = np.empty(n * min(ROW_BLOCK, n))
    ones = np.ones(n)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        if transpose:  # an (N, b) copy: several times faster than a (b, N) one
            slab = buf[:n * (hi - lo)].reshape(n, hi - lo)
            np.copyto(slab, h[:, lo:hi])
            slab = slab.T
        else:
            slab = buf[:n * (hi - lo)].reshape(hi - lo, n)
            np.copyto(slab, h[lo:hi])
        np.matmul(slab, a, out=out[lo:hi])
        if degrees is not None:
            np.matmul(slab, ones, out=degrees[lo:hi])
    return out


def _aggregate(h: np.ndarray, a: av.Var, transpose: bool) -> av.Var:
    """De^-1 h^T a (transpose) or Dv^-1 h a, 1/0 -> 0 for an empty hyperedge
    or vertex. The product's VJP is the other product, which keeps h as
    booleans."""
    degrees = np.empty(len(h))
    product = av.linear(a, lambda v: _incidence_product(h, v, transpose, degrees),
                        lambda g: _incidence_product(h, g, not transpose))
    return av.mul(product, _safe_inv(degrees)[:, None])


def forward(corrs: CorrSet, hg0: np.ndarray, w_h0: SparseWeights,
            params: HgnnParams, inference: bool = False) -> ForwardTrace:
    """Run the network on one correspondence set.

    hg0 is the boolean incidence H^0 of the initial hypergraph
    (init_hypergraph of w_h0); w_h0 holds the initial weights (a
    CompatGraph's, or compat.sparse_weights of an array), from which the
    NonLocal attention's log bias is built and the layer-0 hyperedge weights
    are summed, a row block at a time. Neither pass modifies w_h0 or keeps
    it (w_nonlocal is an empty (0, 0) array).

    The default pass records the autodiff tape unless called under
    autodiff.no_grad(), keeps every layer and writes each H^{t+1} over a
    copy of H^t. An inference pass (inference=True) computes the same bits,
    but writes H^{t+1} over hg0, builds no W_H^t and keeps only the last
    layer: xs = [X^5], ys = [Y^4], hs = [H^4] (hg0 itself), the same for
    x_vars and y_vars, and empty whs and wh_vars. A tape's backward pass
    reads the H^t it overwrites, so under a tape it raises ValueError before
    it touches its arguments. Every layer is checked for non-finite values
    as it is computed, so NonFinite names the first bad one.
    """
    n = len(corrs)
    if n < 3:
        raise ValueError("need at least 3 correspondences")
    c = params.channels
    inp = np.concatenate([corrs.src, corrs.tgt], axis=1)
    x = av.l2norm_rows(_affine(av.wrap(inp), params, "input_lift"))
    if inference and x.track:
        raise ValueError("an inference pass records no tape: run it under "
                         "autodiff.no_grad()")
    h = hg0
    we = av.wrap(_initial_edge_weights(w_h0, h))
    log_bias = _log_bias(w_h0)
    k2s = k2_schedule(n)

    x_vars: List[av.Var] = []
    y_vars: List[av.Var] = []
    wh_vars: List[av.Var] = []
    hs: List[np.ndarray] = []

    def keep(layers: list, item, name: Optional[str] = None) -> None:
        if name is not None:
            _check_finite(name, item.value)
        if not inference:
            layers.append(item)

    y = av.wrap(np.zeros((n, c)))   # Y^{-1}
    keep(x_vars, x, "X^0")
    keep(hs, h)
    _check_finite("W_H^0", we.value)

    for t in range(N_LAYERS):
        yhat = _aggregate(h, x, True)
        y = av.l2norm_rows(_mlp(av.concat_cols(y, yhat), params, f"mlp1.{t}"))
        keep(y_vars, y, f"Y^{t}")

        xhat = _aggregate(h, av.mul(av.reshape(we, (n, 1)), y), False)
        xres = av.relu(av.add(x, _mlp(xhat, params, f"mlp2.{t}")))
        x = av.l2norm_rows(_nonlocal(xres, log_bias, params, t))
        keep(x_vars, x, f"X^{t + 1}")

        if t < N_UPDATES:
            if not inference:
                h = h.copy()
            wh, we = _update(x, y, h, params, t, k2s[t], not inference)
            keep(hs, h)
            keep(wh_vars, wh)  # None in an inference pass, which keeps no layer

    s_hat = av.reshape(av.sigmoid(_affine(x, params, "conf")), (n,))
    _check_finite("s_hat", s_hat.value)

    if inference:
        x_vars, y_vars, hs, wh_vars = [x], [y], [h], []
    return ForwardTrace(xs=[v.value for v in x_vars], ys=[v.value for v in y_vars],
                        hs=hs, whs=[v.value for v in wh_vars], s_hat=s_hat.value,
                        w_nonlocal=np.empty((0, 0)), x_vars=x_vars,
                        y_vars=y_vars, wh_vars=wh_vars, s_var=s_hat)
