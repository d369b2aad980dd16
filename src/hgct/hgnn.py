"""Dynamic hypergraph network: forward pass (taped for autodiff), checkpoint I/O.

Architecture (channel width C, 5 convolution layers, 4 structure updates):

  X^0   = l2norm(input_lift([src | tgt]))          per-correspondence 6-vector
  per layer t = 0..4:
    Yhat = De^-1 H^T X            (1/0 -> 0 for empty hyperedges)
    Y^t  = l2norm(mlp1_t([Y^{t-1} | Yhat]))        Y^{-1} is all zeros
    Xhat = Dv^-1 H We Y^t         We = column sums of W_H^t
    X    = relu(X^t + mlp2_t(Xhat))
    X^{t+1} = l2norm(nonlocal_t(X, W_nl))          W_nl = initial weight matrix
  between layers (t = 0..3):
    S = sigmoid(q_t(X^{t+1}) k_t(Y^t)^T / sqrt(C))
    per vertex row: keep the K2(t) highest-S incident hyperedges,
    K2(t) = max(1, round(0.1 * (4 - t) * N)); kept sigmoid values become
    W_H^{t+1}, their support becomes H^{t+1}
  shat = sigmoid(conf_head(X^5))

The top-K selection is treated as constant support during differentiation:
gradients (autodiff.gradients over the recorded tape) flow through the
retained sigmoid magnitudes only.

Memory: `forward(..., keep_layers=False)`, which `pipeline.register` uses,
keeps only X^5, Y^4, H^4 and s_hat in the trace and drops or reuses every
N x N array after its last read (see `forward`). The update writes W_H^{t+1}
into its score array, and top-K retention runs in row blocks.

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
from .compat import round_half_up
from .errors import NonFinite
from .geom import CorrSet
from .hypergraph import Hypergraph

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

    @property
    def sigma_f(self) -> float:
        return float(np.exp(self.tensors["log_sigma_f"].value))

    def n_params(self) -> int:
        return sum(v.value.size for v in self.tensors.values())

    def flat(self) -> np.ndarray:
        return np.concatenate([self.tensors[n].value.ravel() for n in self.names])

    def copy(self) -> "HgnnParams":
        tensors = {n: av.param(v.value.copy()) for n, v in self.tensors.items()}
        return HgnnParams(self.channels, tensors)


def init_params(channels: int = 32, seed: int = 0, sigma_f0: float = 1.0) -> HgnnParams:
    """He-initialized weights, zero biases, sigma_f stored as its log."""
    rng = np.random.default_rng(seed)
    tensors: Dict[str, av.Var] = {}
    for name, shape in param_specs(channels):
        if name == "log_sigma_f":
            tensors[name] = av.param(np.log(sigma_f0))
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

    A trace made with keep_layers=False holds only the last entry of xs, ys
    and hs (X^5, Y^4, H^4) and of x_vars and y_vars, no W_H (whs and
    wh_vars are empty, so wh_final raises IndexError) and an empty (0, 0)
    w_nonlocal."""

    xs: List[np.ndarray]        # X^0 .. X^5, each (N, C)
    ys: List[np.ndarray]        # Y^0 .. Y^4
    hs: List[np.ndarray]        # H^0 .. H^4, binary; H^0 is hg0.h itself
    whs: List[np.ndarray]       # W_H^0 .. W_H^4
    s_hat: np.ndarray           # (N,) confidence in (0, 1)
    w_nonlocal: np.ndarray      # attention bias source (initial weights)
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

    @property
    def wh_final(self) -> np.ndarray:
        return self.whs[-1]


def _affine(x: av.Var, params: HgnnParams, prefix: str) -> av.Var:
    return av.add(av.matmul(x, params.var(prefix + ".w")), params.var(prefix + ".b"))


def _mlp(x: av.Var, params: HgnnParams, prefix: str) -> av.Var:
    hidden = av.relu(av.add(av.matmul(x, params.var(prefix + ".w1")),
                            params.var(prefix + ".b1")))
    return av.add(av.matmul(hidden, params.var(prefix + ".w2")),
                  params.var(prefix + ".b2"))


def _safe_inv(v: np.ndarray) -> np.ndarray:
    return np.where(v > 0, 1.0 / np.where(v > 0, v, 1.0), 0.0)


def _nonlocal(x: av.Var, log_bias: np.ndarray, params: HgnnParams, layer: int) -> av.Var:
    c = params.channels
    q = _affine(x, params, f"nl.{layer}.theta")
    k = _affine(x, params, f"nl.{layer}.phi")
    v = _affine(x, params, f"nl.{layer}.g")
    attn = av.scaled_scores(q, k, 1.0 / np.sqrt(c), log_bias, "softmax")
    msg = _affine(av.matmul(attn, v), params, f"nl.{layer}.out")
    return av.add(x, msg)


def k2_schedule(n: int) -> List[int]:
    """Per-update retention counts: fractions 0.4, 0.3, 0.2, 0.1 of N."""
    return [max(1, round_half_up(0.1 * (N_LAYERS - (t + 1)) * n))
            for t in range(N_UPDATES)]


TOPK_BLOCK = 1 << 16  # elements per row block of _topk_retention's temporaries


def _topk_retention(scores: np.ndarray, support: np.ndarray, k2: int,
                    in_place: bool = False) -> np.ndarray:
    """Per-row mask keeping the k2 highest-score entries within `support`.

    Rows with at most k2 supported entries keep them all. Ties break toward
    the lower column index: a longer row keeps every supported entry above
    its k2-th largest supported score, then fills the remaining slots with
    the entries equal to that score, in column order. Supported scores are
    finite; the others are never read. The rule is per row, so it runs one
    block of rows at a time and its temporaries are block-sized. With
    in_place, the mask is written into `support` itself: each block's
    support is read before the block is written.
    """
    mask = support if in_place else np.empty(support.shape, dtype=support.dtype)
    step = max(1, TOPK_BLOCK // support.shape[1])
    for lo in range(0, len(mask), step):
        supp = support[lo:lo + step] > 0
        out = mask[lo:lo + step]
        out[...] = supp
        rows = np.flatnonzero(np.count_nonzero(supp, axis=1) > k2)
        if rows.size:
            s = np.where(supp[rows], scores[lo:lo + step][rows], -np.inf)
            kth = np.partition(s, -k2, axis=1)[:, [-k2]]
            above = s > kth
            tie = s == kth
            room = k2 - np.count_nonzero(above, axis=1)
            out[rows] = above | (tie & (np.cumsum(tie, axis=1, dtype=np.int32)
                                        <= room[:, None]))
    return mask


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"non-finite values in {name}")


def _update(x: av.Var, y: av.Var, h: np.ndarray, params: HgnnParams, t: int,
            k2: int, in_place: bool = False) -> Tuple[np.ndarray, av.Var]:
    """Structure update t: H^{t+1} and W_H^{t+1} from the sigmoid scores.

    W_H^{t+1} is the scores times the 0/1 retention mask, written into the
    score array, with or without a tape. Top-K reads only scores on the
    support of H^t, and the product zeroes every other entry, so the scores
    need no off-support mask: sigmoid(z) * 0 and sigmoid(z - 1e30) * 0 are
    the same +0.0 for finite z (NaN for NaN z). The sigmoid VJP
    g * s * (1 - s) reads only its output, so the gradients equal those of
    av.mul(scores, retention) bit for bit: where the mask is 1 nothing
    changes, and where it is 0, (g * 0) * s * (1 - s) and g * 0 * (1 - 0)
    are the same signed zero (NaN when g is not finite). With in_place,
    H^{t+1} is written into h.
    """
    q = _affine(x, params, f"upd.{t}.q")
    k = _affine(y, params, f"upd.{t}.k")
    s_full = av.scaled_scores(q, k, 1.0 / np.sqrt(params.channels), None, "sigmoid")
    retention = _topk_retention(s_full.value, h, k2, in_place)
    s_full.value *= retention
    return retention, s_full


class Handover:
    """An argument handed over to `forward`, which empties the holder as it
    reads it. CPython keeps a call's arguments alive until the call returns,
    so only through a holder can forward drop the last reference to an
    N x N input (hg0, w_h0) as soon as it has read it."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _received(arg):
    """arg itself, or the value of a Handover, which is emptied."""
    if isinstance(arg, Handover):
        value, arg.value = arg.value, None
        return value
    return arg


def forward(corrs: CorrSet, hg0: Hypergraph, w_h0: np.ndarray,
            params: HgnnParams, keep_layers: bool = True) -> ForwardTrace:
    """Run the network on one correspondence set.

    hg0 is the initial hypergraph; w_h0 is the raw initial weight matrix used
    as the NonLocal attention bias. Either may come in a Handover, which
    forward empties. Records the autodiff tape unless called under
    autodiff.no_grad(). With keep_layers=False the per-layer lists of the
    trace hold only the last layer (xs = [X^5], ys = [Y^4], hs = [H^4], the
    same for x_vars and y_vars; whs and wh_vars are empty) and w_nonlocal is
    empty, and every N x N array is dropped after its last read: w_h0 once
    the log bias exists, W_H^t once its column sums are taken, H^t once
    H^{t+1} exists. A handed-over w_h0 then becomes the log bias in place,
    and a handed-over H^0 holds H^1, then H^2 and on, unless a tape (which
    reads H^t) is recorded. Plain arguments are never modified. Every layer
    is checked for non-finite values as it is computed, so NonFinite
    names the first bad one.
    """
    n = len(corrs)
    if n < 3:
        raise ValueError("need at least 3 correspondences")
    c = params.channels
    # an argument handed over to a lean pass is forward's own to overwrite
    own_w, own_h = (isinstance(a, Handover) and not keep_layers for a in (w_h0, hg0))
    w_h0 = np.asarray(_received(w_h0), dtype=np.float64)
    log_bias = w_h0 if own_w else w_h0.copy()
    log_bias += NONLOCAL_EPS
    np.log(log_bias, out=log_bias)
    w_nonlocal = w_h0 if keep_layers else np.empty((0, 0))
    del w_h0
    hg0 = _received(hg0)
    h = hg0.h
    wh: Optional[av.Var] = av.wrap(hg0.w_h)
    del hg0
    k2s = k2_schedule(n)

    x_vars: List[av.Var] = []
    y_vars: List[av.Var] = []
    wh_vars: List[av.Var] = []
    hs: List[np.ndarray] = []

    def keep(layers: list, item, name: Optional[str] = None) -> None:
        if name is not None:
            _check_finite(name, item.value)
        if keep_layers:
            layers.append(item)

    inp = np.concatenate([corrs.src, corrs.tgt], axis=1)
    x = av.l2norm_rows(_affine(av.wrap(inp), params, "input_lift"))
    y = av.wrap(np.zeros((n, c)))   # Y^{-1}
    keep(x_vars, x, "X^0")
    keep(hs, h)
    keep(wh_vars, wh, "W_H^0")

    for t in range(N_LAYERS):
        de_inv = _safe_inv(h.sum(axis=0))
        yhat = av.mul(av.matmul(av.wrap(h.T), x), de_inv[:, None])
        y = av.l2norm_rows(_mlp(av.concat_cols(y, yhat), params, f"mlp1.{t}"))
        keep(y_vars, y, f"Y^{t}")

        we = av.vsum(wh, axis=0)
        if t < N_UPDATES or not keep_layers:
            wh = None  # read only for we; the update makes W_H^{t+1}, and
            # only the full trace keeps W_H^4
        dv_inv = _safe_inv(h.sum(axis=1))
        xhat = av.mul(av.matmul(av.wrap(h), av.mul(av.reshape(we, (n, 1)), y)),
                      dv_inv[:, None])
        xres = av.relu(av.add(x, _mlp(xhat, params, f"mlp2.{t}")))
        x = av.l2norm_rows(_nonlocal(xres, log_bias, params, t))
        keep(x_vars, x, f"X^{t + 1}")

        if t < N_UPDATES:
            # a tape reads H^t in the conv's backward pass
            h, wh = _update(x, y, h, params, t, k2s[t], own_h and not x.track)
            own_h = not keep_layers
            keep(hs, h)
            keep(wh_vars, wh, f"W_H^{t + 1}")

    s_hat = av.reshape(av.sigmoid(_affine(x, params, "conf")), (n,))
    _check_finite("s_hat", s_hat.value)

    if not keep_layers:
        x_vars, y_vars, hs, wh_vars = [x], [y], [h], []
    return ForwardTrace(xs=[v.value for v in x_vars], ys=[v.value for v in y_vars],
                        hs=hs, whs=[v.value for v in wh_vars], s_hat=s_hat.value,
                        w_nonlocal=w_nonlocal, x_vars=x_vars,
                        y_vars=y_vars, wh_vars=wh_vars, s_var=s_hat)

