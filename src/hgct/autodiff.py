"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Var wraps an ndarray and remembers how it was produced; `gradients` walks
the recorded graph once, accumulating vector-Jacobian products. Only the ops
the network and losses actually need are provided. Constants (plain arrays,
untracked Vars) terminate gradient flow, which is how fixed incidence masks
and degree scalings enter the graph as non-differentiable data.
"""

import contextlib
from typing import Iterable, List, Optional, Sequence, Tuple

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


class Var:
    __slots__ = ("value", "track", "_parents", "_vjp")

    def __init__(self, value, track: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.track = track
        self._parents: Tuple["Var", ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.value.shape


def param(value) -> Var:
    """A leaf Var that participates in differentiation."""
    return Var(np.array(value, dtype=np.float64), track=True)


def wrap(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _result(value, parents: Sequence[Var], vjp) -> Var:
    out = Var(value)
    if _GRAD_ENABLED and any(p.track for p in parents):
        out.track = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _tracked(*pairs) -> List[Tuple["Var", np.ndarray]]:
    """VJP pairs (parent, gradient) for the tracked parents only. Each
    gradient is given as a function, so a constant's is never computed."""
    return [(parent, grad_of()) for parent, grad_of in pairs if parent.track]


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

    def vjp(g):
        return _tracked((a, lambda: _unbroadcast(g, a.value.shape)),
                        (b, lambda: _unbroadcast(g, b.value.shape)))

    return _result(a.value + b.value, (a, b), vjp)


def sub(a, b) -> Var:
    a, b = wrap(a), wrap(b)

    def vjp(g):
        return _tracked((a, lambda: _unbroadcast(g, a.value.shape)),
                        (b, lambda: _unbroadcast(-g, b.value.shape)))

    return _result(a.value - b.value, (a, b), vjp)


def mul(a, b) -> Var:
    a, b = wrap(a), wrap(b)

    def vjp(g):
        return _tracked((a, lambda: _unbroadcast(g * b.value, a.value.shape)),
                        (b, lambda: _unbroadcast(g * a.value, b.value.shape)))

    return _result(a.value * b.value, (a, b), vjp)


def matmul(a, b) -> Var:
    a, b = wrap(a), wrap(b)

    def vjp(g):
        return _tracked((a, lambda: g @ b.value.T), (b, lambda: a.value.T @ g))

    return _result(a.value @ b.value, (a, b), vjp)


def transpose(a) -> Var:
    a = wrap(a)
    return _result(a.value.T, (a,), lambda g: ((a, g.T),))


def reshape(a, shape) -> Var:
    a = wrap(a)
    orig = a.value.shape
    return _result(a.value.reshape(shape), (a,), lambda g: ((a, g.reshape(orig)),))


def concat_cols(a, b) -> Var:
    """Concatenate two (N, C) blocks along axis 1."""
    a, b = wrap(a), wrap(b)
    wa = a.value.shape[1]

    def vjp(g):
        return ((a, g[:, :wa]), (b, g[:, wa:]))

    return _result(np.concatenate([a.value, b.value], axis=1), (a, b), vjp)


def relu(a) -> Var:
    a = wrap(a)
    mask = a.value > 0

    def vjp(g):
        return ((a, g * mask),)

    return _result(np.where(mask, a.value, 0.0), (a,), vjp)


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

    def vjp(g):
        return ((a, _sigmoid_vjp(g, s)),)

    return _result(s, (a,), vjp)


def exp(a) -> Var:
    a = wrap(a)
    e = np.exp(a.value)

    def vjp(g):
        return ((a, g * e),)

    return _result(e, (a,), vjp)


def log(a) -> Var:
    a = wrap(a)

    def vjp(g):
        return ((a, g / a.value),)

    return _result(np.log(a.value), (a,), vjp)


def clip(a, lo: float, hi: float) -> Var:
    a = wrap(a)
    inside = (a.value >= lo) & (a.value <= hi)

    def vjp(g):
        return ((a, g * inside),)

    return _result(np.clip(a.value, lo, hi), (a,), vjp)


def vsum(a, axis=None, keepdims=False) -> Var:
    a = wrap(a)
    shape = a.value.shape

    def vjp(g):
        if axis is None:
            return ((a, np.broadcast_to(g, shape).copy()),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(gg, shape).copy()),)

    return _result(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def vmean(a, axis=None, keepdims=False) -> Var:
    a = wrap(a)
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(vsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def l2norm_rows(a) -> Var:
    """Row-wise x / ||x||, zero rows mapped to zero."""
    a = wrap(a)
    norms = np.sqrt(np.sum(a.value * a.value, axis=1, keepdims=True))
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 0.0)
    y = a.value * inv

    def vjp(g):
        dot = np.sum(g * y, axis=1, keepdims=True)
        return ((a, (g - dot * y) * inv),)

    return _result(y, (a,), vjp)


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


SCORE_BLOCK = 1 << 16  # elements per row block of scaled_scores (512 KB, cache-sized)

_ACTIVATIONS = {"softmax": (_softmax_rows_inplace, _softmax_rows_vjp),
                "sigmoid": (_sigmoid_inplace, _sigmoid_vjp)}


def scaled_scores(q, k, scale: float, bias: Optional[np.ndarray], activation: str) -> Var:
    """activation(q k^T * scale + bias), with activation "softmax" (per row)
    or "sigmoid", in one (N, M) array. bias is an (N, M) array, or None for
    no bias.

    The result is bit-identical to matmul -> mul -> add -> row softmax /
    sigmoid (matmul -> mul -> sigmoid without a bias): the same operations
    in the same order, done in place, one block of rows at a time so each
    block stays in cache. The VJP uses the chain's expressions too, so
    gradients are bit-identical as well.
    """
    q, k = wrap(q), wrap(k)
    finish, act_vjp = _ACTIVATIONS[activation]
    s = q.value @ k.value.T
    rows = max(1, SCORE_BLOCK // s.shape[1])
    for lo in range(0, len(s), rows):
        block = s[lo:lo + rows]
        block *= scale
        if bias is not None:
            block += bias[lo:lo + rows]
        finish(block)

    def vjp(g):
        gl = act_vjp(g, s)
        gl *= scale
        return ((q, gl @ k.value), (k, (q.value.T @ gl).T))

    return _result(s, (q, k), vjp)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def _topo_order(roots: Iterable[Var]) -> List[Var]:
    order: List[Var] = []
    seen = set()
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.track:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def gradients(outputs: Sequence[Var], seeds: Sequence[np.ndarray],
              wrt: Sequence[Var]) -> List[np.ndarray]:
    """Vector-Jacobian products: d(sum_k seeds_k . outputs_k)/d(wrt).

    Returns one array per entry of `wrt` (zeros for unreachable leaves).
    """
    grads = {}
    for out, seed in zip(outputs, seeds):
        if not out.track:
            continue
        g = np.broadcast_to(np.asarray(seed, dtype=np.float64), out.value.shape)
        key = id(out)
        grads[key] = grads.get(key, 0.0) + g
    for node in reversed(_topo_order(outputs)):
        if node._vjp is None:
            continue  # leaf: keep its accumulated grad for collection below
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in node._vjp(np.asarray(g)):
            if not parent.track:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return [np.asarray(grads.get(id(w), np.zeros_like(w.value)), dtype=np.float64)
            for w in wrt]


def grad(output: Var, wrt: Sequence[Var]) -> List[np.ndarray]:
    """Gradients of a scalar output."""
    return gradients([output], [np.ones(())], wrt)
