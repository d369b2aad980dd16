"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Var holds a value and whether gradients flow to it. A tracked result also
holds its tape entry, a _Node: the entries of its tracked parents and one
VJP per parent. The tape is made of entries, not Vars, and each VJP
captures only the arrays and shapes it reads (an operand, an output or a
boolean mask), so every other array of the forward pass is freed as soon
as its Var is, while the tape lives. `grad` walks the entries once in
topological order, accumulating vector-Jacobian products. Only the ops the
network and losses actually need are provided. Constants (plain arrays,
untracked Vars) terminate gradient flow, which is how degree scalings
enter the graph as non-differentiable data; no VJP of a constant parent is
kept. A constant operand becomes a float64 Var, so a boolean one, such as
the incidence or a loss target, enters through `linear` instead, whose
VJP keeps it in its own form. Score arrays are computed one row block at
a time by `scaled_scores`, which streams and records nothing; the two
taped ops built on it, `attention` and `retained_sigmoid`, keep their
inputs instead of their (N, M) score array, and their VJPs compute the
same blocks again, so the tape holds no score array.
"""

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class _Node:
    """A tracked value's tape entry: its tracked parents' entries, and for
    each parent a VJP, g -> that parent's share of the gradient, or one
    function g -> every parent's share in parent order, for an op whose
    shares come from one recomputation (see attention). A leaf has none of
    either. A VJP captures only the arrays and shapes it reads, so any other
    array of the forward pass is freed once its Var is."""

    __slots__ = ("parents", "vjps")

    def __init__(self, parents: Tuple["_Node", ...] = (),
                 vjps: Union[Tuple[Callable[[np.ndarray], np.ndarray], ...],
                             Callable[[np.ndarray], Sequence[np.ndarray]]] = ()):
        self.parents = parents
        self.vjps = vjps


class Var:
    __slots__ = ("value", "track", "_node")

    def __init__(self, value, track: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.track = track
        self._node: Optional[_Node] = _Node() if track else None


def param(value) -> Var:
    """A leaf Var that participates in differentiation."""
    return Var(np.array(value, dtype=np.float64), track=True)


def wrap(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _tape(*edges) -> Optional[_Node]:
    """The tape entry of a value computed from the parents of `edges`, each
    a pair (parent Var, its VJP), or None when recording is off or no parent
    is tracked. The VJPs of untracked parents are dropped here, and with
    them whatever they captured."""
    if not _GRAD_ENABLED:
        return None
    live = [(p._node, vjp) for p, vjp in edges if p.track]
    if not live:
        return None
    parents, vjps = zip(*live)
    return _Node(parents, vjps)


def _result(value, *edges) -> Var:
    out = Var(value)
    out._node = _tape(*edges)
    out.track = out._node is not None
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    sa, sb = a.value.shape, b.value.shape
    return _result(a.value + b.value, (a, lambda g: _unbroadcast(g, sa)),
                   (b, lambda g: _unbroadcast(g, sb)))


def sub(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    sa, sb = a.value.shape, b.value.shape
    return _result(a.value - b.value, (a, lambda g: _unbroadcast(g, sa)),
                   (b, lambda g: _unbroadcast(-g, sb)))


def mul(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    x, y = a.value, b.value
    sa, sb = x.shape, y.shape
    return _result(x * y, (a, lambda g: _unbroadcast(g * y, sa)),
                   (b, lambda g: _unbroadcast(g * x, sb)))


def matmul(a, b) -> Var:
    a, b = wrap(a), wrap(b)
    x, y = a.value, b.value
    return _result(x @ y, (a, lambda g: g @ y.T), (b, lambda g: x.T @ g))


def linear(a, fn: Callable[[np.ndarray], np.ndarray],
           fn_t: Callable[[np.ndarray], np.ndarray]) -> Var:
    """fn(a) for a linear map fn whose coefficients are constants, and
    fn_t its transpose, the VJP. The constants enter in whatever form fn
    and fn_t capture them, such as a boolean mask or incidence, rather
    than as a float64 Var."""
    a = wrap(a)
    return _result(fn(a.value), (a, fn_t))


def transpose(a) -> Var:
    a = wrap(a)
    return _result(a.value.T, (a, lambda g: g.T))


def reshape(a, shape) -> Var:
    a = wrap(a)
    orig = a.value.shape
    return _result(a.value.reshape(shape), (a, lambda g: g.reshape(orig)))


def concat_cols(a, b) -> Var:
    """Concatenate two (N, C) blocks along axis 1."""
    a, b = wrap(a), wrap(b)
    wa = a.value.shape[1]
    return _result(np.concatenate([a.value, b.value], axis=1),
                   (a, lambda g: g[:, :wa]), (b, lambda g: g[:, wa:]))


def relu(a) -> Var:
    a = wrap(a)
    mask = a.value > 0
    return _result(np.where(mask, a.value, 0.0), (a, lambda g: g * mask))


def _sigmoid_inplace(s: np.ndarray) -> None:
    """s <- 0.5 * (tanh(s / 2) + 1), overflow-free."""
    s *= 0.5
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5


def _sigmoid_vjp(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    return g * s * (1.0 - s)


def sigmoid(a) -> Var:
    a = wrap(a)
    s = a.value.copy()
    _sigmoid_inplace(s)
    return _result(s, (a, lambda g: _sigmoid_vjp(g, s)))


def exp(a) -> Var:
    a = wrap(a)
    e = np.exp(a.value)
    return _result(e, (a, lambda g: g * e))


def log(a) -> Var:
    a = wrap(a)
    x = a.value
    return _result(np.log(x), (a, lambda g: g / x))


def clip(a, lo: float, hi: float) -> Var:
    a = wrap(a)
    inside = (a.value >= lo) & (a.value <= hi)
    return _result(np.clip(a.value, lo, hi), (a, lambda g: g * inside))


def vsum(a, axis=None) -> Var:
    a = wrap(a)
    shape = a.value.shape

    def vjp(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(gg, shape).copy()

    return _result(a.value.sum(axis=axis), (a, vjp))


def vmean(a) -> Var:
    """Mean over every entry."""
    a = wrap(a)
    return mul(vsum(a), 1.0 / a.value.size)


def l2norm_rows(a) -> Var:
    """Row-wise x / ||x||, zero rows mapped to zero."""
    a = wrap(a)
    norms = np.sqrt(np.sum(a.value * a.value, axis=1, keepdims=True))
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    y = a.value * inv

    def vjp(g):
        dot = np.sum(g * y, axis=1, keepdims=True)
        return (g - dot * y) * inv

    return _result(y, (a, vjp))


EXP_UNDERFLOW = -750.0  # np.exp is exactly +0.0 below this (it is from -745.14)


def _softmax_rows_inplace(s: np.ndarray) -> None:
    s -= s.max(axis=1, keepdims=True)
    # np.exp is many times slower where it underflows to 0 (nearly one-hot
    # attention rows are mostly such entries): they get exp(0), then 0
    under = s < EXP_UNDERFLOW
    np.putmask(s, under, 0.0)
    np.exp(s, out=s)
    np.putmask(s, under, 0.0)
    s /= s.sum(axis=1, keepdims=True)


def _softmax_rows_vjp(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    dot = np.sum(g * s, axis=1, keepdims=True)
    return s * (g - dot)


SCORE_BLOCK = 1 << 16  # elements per row block of score arrays (512 KB, cache-sized)

_ACTIVATIONS = {"softmax": _softmax_rows_inplace, "sigmoid": _sigmoid_inplace}


def scaled_scores(q: np.ndarray, k: np.ndarray, scale: float, bias, activation: str,
                  consume: Callable[[int, np.ndarray], None]) -> None:
    """activation(q k^T * scale + bias), with activation "softmax" (per row)
    or "sigmoid", streamed one block of about SCORE_BLOCK entries of rows at
    a time, so each block stays in cache. bias is None for no bias, or an
    (N, M) array held in a form that adds its own row blocks, such as
    compat.SparseWeights: bias.add_rows(first_row, block) adds them into the
    block in place.

    Each block is computed as q[rows] @ k^T into one reused (rows, M)
    buffer, finished in place and handed to consume(first_row, block)
    before the next block overwrites it; nothing is kept or recorded. In
    one block the scores are those of matmul -> mul -> add -> row softmax /
    sigmoid bit for bit; a row-blocked gemm may differ in the last bits.
    """
    finish = _ACTIVATIONS[activation]
    n, m = len(q), len(k)
    rows = max(1, SCORE_BLOCK // m)
    buf = np.empty((min(rows, n), m))
    for lo in range(0, n, rows):
        block = np.matmul(q[lo:lo + rows], k.T, out=buf[:min(rows, n - lo)])
        block *= scale
        if bias is not None:
            bias.add_rows(lo, block)
        finish(block)
        consume(lo, block)


def add_column_sums(sums: Optional[np.ndarray], block: np.ndarray) -> np.ndarray:
    """The column sums so far (None before the first row block) plus the
    block's, in row order, as numpy sums a whole array down axis 0: the
    sums so far are added into the block's first row, then it is summed."""
    if sums is not None:
        block[0] += sums
    return block.sum(axis=0)


def _fused(value: np.ndarray, parents: Sequence[Var],
           vjp: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Var:
    """A Var of an op whose VJP gives every parent's share from one
    recomputation, in parent order; its tape entry keeps the tracked ones."""
    out = Var(value)
    live = [p.track for p in parents] if _GRAD_ENABLED else []
    if any(live):
        out.track = True
        out._node = _Node(tuple(p._node for p in parents if p.track),
                          lambda g: [s for s, on in zip(vjp(g), live) if on])
    return out


def _logit_grads(qv: np.ndarray, kv: np.ndarray, scale: float, bias, activation: str,
                 logit_grad: Callable[[int, np.ndarray], np.ndarray]) -> List[np.ndarray]:
    """[dq, dk] of a taped score op: the forward pass's blocks are computed
    again, logit_grad(first_row, block) gives each block's gradient before
    the activation, and each block writes its rows of dq and adds its share
    of dk. In one block these are matmul's and transpose's VJPs."""
    dq = np.empty_like(qv)
    dk_t = None

    def back(lo: int, s: np.ndarray) -> None:
        nonlocal dk_t
        gl = logit_grad(lo, s)
        gl *= scale
        np.matmul(gl, kv, out=dq[lo:lo + len(gl)])
        part = qv[lo:lo + len(gl)].T @ gl
        dk_t = part if dk_t is None else dk_t + part

    scaled_scores(qv, kv, scale, bias, activation, back)
    return [dq, dk_t.T]


def attention(q, k, v, scale: float, bias) -> Var:
    """scaled_scores(q, k, scale, bias, "softmax") @ v, each block of scores
    multiplied into its rows and dropped. The tape keeps q, k, v and the
    bias; the VJP computes the blocks again and sums dv over them. In one
    block, value and gradients are those of matmul(scores, v) bit for bit."""
    q, k, v = wrap(q), wrap(k), wrap(v)
    qv, kv, vv = q.value, k.value, v.value
    out = np.empty((len(qv), vv.shape[1]))
    scaled_scores(qv, kv, scale, bias, "softmax",
                  lambda lo, s: np.matmul(s, vv, out=out[lo:lo + len(s)]))

    def vjp(g):
        dv = None

        def logit_grad(lo: int, s: np.ndarray) -> np.ndarray:
            nonlocal dv
            gs = g[lo:lo + len(s)]
            dv = s.T @ gs if dv is None else dv + s.T @ gs
            return _softmax_rows_vjp(gs @ vv.T, s)

        return _logit_grads(qv, kv, scale, bias, "softmax", logit_grad) + [dv]

    return _fused(out, (q, k, v), vjp)


def retained_sigmoid(q, k, scale: float, mask: np.ndarray,
                     retain: Callable[[np.ndarray, np.ndarray], None],
                     whole: bool = True) -> Tuple[Optional[Var], Var]:
    """W = sigmoid(q k^T * scale) * mask for the boolean (N, M) mask, and
    its column sums. retain(block, mask_rows) first writes each row block's
    rows of the mask from its scores, in place; then the block is multiplied
    by them, written into W and added to the sums (add_column_sums).

    Without `whole`, W is not built and nothing is recorded: None comes in
    its place. With it, the tape keeps q, k and the mask, and the VJP
    computes the blocks again and multiplies them by the mask: the sigmoid
    VJP g * s * (1 - s) reads only its output, so the gradients are those
    of av.mul(sigmoid(...), mask), bit for bit in one block. The sums' tape
    entry hands W their gradient broadcast down its rows, as a view."""
    q, k = wrap(q), wrap(k)
    qv, kv = q.value, k.value
    out = np.empty(mask.shape) if whole else None
    sums = None

    def keep(lo: int, s: np.ndarray) -> None:
        nonlocal sums
        rows = mask[lo:lo + len(s)]
        retain(s, rows)
        s *= rows
        if whole:
            out[lo:lo + len(s)] = s
        sums = add_column_sums(sums, s)

    scaled_scores(qv, kv, scale, None, "sigmoid", keep)
    if not whole:
        return None, Var(sums)

    def vjp(g):
        def logit_grad(lo: int, s: np.ndarray) -> np.ndarray:
            s *= mask[lo:lo + len(s)]
            return _sigmoid_vjp(g[lo:lo + len(s)], s)

        return _logit_grads(qv, kv, scale, None, "sigmoid", logit_grad)

    w, shape = _fused(out, (q, k), vjp), out.shape
    return w, _result(sums, (w, lambda g: np.broadcast_to(g, shape)))


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def _topo_order(root: _Node) -> List[_Node]:
    order: List[_Node] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def grad(output: Var, wrt: Sequence[Var]) -> List[np.ndarray]:
    """Gradients of a scalar output: d(output)/d(wrt), one array per entry
    of `wrt` (zeros for leaves the output does not reach)."""
    grads = {}
    if output.track:
        grads[id(output._node)] = np.ones(output.value.shape)
        for node in reversed(_topo_order(output._node)):
            if not node.vjps:
                continue  # leaf: keep its accumulated grad for collection below
            g = grads.pop(id(node), None)
            if g is None:
                continue
            g = np.asarray(g)
            shares = (node.vjps(g) if callable(node.vjps)
                      else (vjp(g) for vjp in node.vjps))
            for parent, pg in zip(node.parents, shares):
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
    # an untracked Var's _node is None, which is no key
    found = [grads.get(id(w._node)) for w in wrt]
    return [np.zeros_like(w.value) if g is None else np.asarray(g, dtype=np.float64)
            for w, g in zip(wrt, found)]
