"""Dense tensors with reverse-mode automatic differentiation.

The engine is a Wengert list: while a :class:`Tape` is active, every
operation appends a record holding its inputs, its output, and a backward
rule. Records are appended in execution order, which makes the list
topological by construction; :func:`backward` walks it once in reverse and
accumulates gradients additively into each leaf's ``grad`` buffer, emptying
each record as it passes; the emptied records stay, so the count holds.

Rules of the house:

- ``float64`` is the default dtype; tests and oracles rely on it. Training
  runs in its stage's ``precision`` (``float32`` by default) and switches
  the default through :func:`set_default_dtype` while it runs.
- Every operation checks its output for NaN/Inf and raises
  :class:`~moerec.errors.NumericError` rather than letting poison propagate.
- The hot chains run as fused ops, one record each. For the transformer:
  :func:`add_rows` (the token and position embeddings), :func:`rms_norm`,
  the block sublayers :func:`attention_sublayer` and :func:`moe_sublayer`,
  and :func:`weighted_nll` (the language-model loss). For the variational
  preference model: :func:`concat_rows` (the embedding-pair gather),
  :func:`mlp` (the two-layer tanh network, which shares its body with the
  experts), :func:`gaussian_sample` (the reparameterized draw),
  :func:`bce_with_logits` (the reconstruction loss) and :func:`mixture_kl`
  (the closed-form KL to a Gaussian mixture); :func:`weighted_means` mixes
  either stage's loss terms. Their forwards and gradients equal those of
  the op chains they replace, bit for bit, and they also check the
  intermediates that their output would hide. The chains, and the
  structural ops only they use, are in moerec.verify.
- The transformer sublayers compute only what is read. attention_sublayer
  can start its query side at a position, so that a loss over late rows
  runs no queries, router or experts for the earlier ones, and
  moe_sublayer gathers each pair's row itself and sums each row's k pairs
  with a fixed fan-in (:func:`_fan_in_sums`) instead of a scatter.
- Gradient accumulation never clears anything implicitly: call
  :func:`zero_grad` (or ``Tensor.zero_grad``, or an optimizer's
  ``zero_grad``) between optimization steps. An optimizer's parameters
  take their gradients in place, in the views of its flat store
  (:mod:`moerec.optim`).
- Operations executed with no active tape compute values only, so frozen
  models run without graph bookkeeping.
- Ids (rows, tokens, gates, experts, targets) are integer arrays, and
  ``_row_ids`` alone turns them into int64, here and in the models: a
  boolean mask or a float id raises ShapeError rather than selecting the
  wrong rows. ``VaeGmm.encode`` takes 1-d id arrays, never a scalar id.
- Broadcasting follows numpy; backward rules reduce gradients back to each
  input's shape. Only the patterns the model needs (bias rows, per-row
  scales, scalars) are exercised by tests.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import NumericError, ShapeError, TapeError

_DTYPES = {"float64": np.float64, "float32": np.float32}
_default_dtype = np.float64


def set_default_dtype(name: str) -> None:
    """Switch the dtype used for newly created tensors ('float64'/'float32')."""
    global _default_dtype
    if name not in _DTYPES:
        raise ValueError(f"unknown dtype {name!r}; expected one of {sorted(_DTYPES)}")
    _default_dtype = _DTYPES[name]


def default_dtype() -> np.dtype:
    return np.dtype(_default_dtype)


def _check_finite(arr: np.ndarray, op: str) -> None:
    """Raise NumericError when `arr` holds a NaN or an infinity.

    An isfinite pass, unlike a sum, cannot overflow, so huge finite values
    (say ``[1e308, 1e308]``) pass with no RuntimeWarning. An array of one
    value, or a large one whose strides are all 0 and so repeats one
    value, has that value alone checked; for a small broadcast the pass
    costs less than the question.
    """
    if arr.size == 1 or arr.size > 1024 and not any(arr.strides):
        finite = math.isfinite(arr.item(0))
    else:
        finite = np.logical_and.reduce(np.isfinite(arr), axis=None)
    if not finite:
        raise NumericError(f"non-finite values produced by {op}")


class Tensor:
    """N-dimensional array of reals, optionally tracked for gradients."""

    # store_grad: the gradient view of the optimizer store that holds this
    # tensor (see moerec.optim), which backward may add into in place
    __slots__ = ("data", "grad", "requires_grad", "store_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_default_dtype)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.store_grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, have shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Untracked view of the same values (no copy)."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = out.store_grad = None
        out.requires_grad = False
        return out

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic sugar; scalars and ndarrays lift to constant tensors.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return pow_const(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        if isinstance(key, (list, np.ndarray)):
            return take_rows(self, key)
        return slice_view(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    @property
    def T(self):
        return transpose(self)


def _parameter(rng, shape: tuple, init: Callable) -> Tensor:
    """A trainable tensor holding ``init(shape)``. Without an `rng`, `init`
    is not called: the tensor is a stand-in of `shape` whose read-only
    array holds no memory (every stride 0), for a model whose every
    parameter a checkpoint's array then replaces
    (:func:`~moerec.checkpoint.restore_params`)."""
    if rng is not None:
        return Tensor(init(shape), requires_grad=True)
    out = Tensor.__new__(Tensor)
    out.data = np.ndarray(shape, _default_dtype, bytes(8), strides=(0,) * len(shape))
    out.grad = out.store_grad = None
    out.requires_grad = True
    return out


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class _Record:
    __slots__ = ("inputs", "out", "backward")

    def __init__(self, inputs: tuple, out: Tensor, backward: Callable):
        self.inputs = inputs
        self.out = out
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of operations; inputs always precede their consumers."""

    def __init__(self):
        self.records: list[_Record] = []
        self._output_ids: set[int] = set()
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def backward(self, loss: Tensor) -> None:
        backward(self, loss)


def _make(out_data: np.ndarray, op: str, inputs: tuple, backward_fn: Callable) -> Tensor:
    """Wrap an op result; record it when a tape is active and grads flow."""
    _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = out.store_grad = None
    out.requires_grad = False
    if _TAPE_STACK:
        for t in inputs:
            if t.requires_grad:
                tape = _TAPE_STACK[-1]
                tape.records.append(_Record(inputs, out, backward_fn))
                tape._output_ids.add(id(out))
                out.requires_grad = True
                break
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: fills ``grad`` on every requires_grad leaf under `loss`.

    Leaf gradients accumulate additively (across fan-out and across tapes).
    The sweep empties each record as it passes: it takes the output's
    gradient and drops the record's inputs, output and rule, so every
    activation and intermediate gradient is freed once its producer's rule
    has run. The emptied records stay, so ``len(tape.records)`` keeps its
    count, and a tape can be swept once. A gradient that an optimizer store
    owns (``grad is store_grad``) takes each addition in place; any other is
    replaced by a fresh sum, since the sweep may have handed the same array
    to several inputs (the backward of ``a + b``).
    """
    if tape._spent:
        raise TapeError("tape already swept; build a fresh tape per backward")
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, have shape {loss.shape}")
    if id(loss) not in tape._output_ids:
        raise TapeError("loss is not an output recorded on this tape")
    tape._spent = True
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g, rec.out.grad = rec.out.grad, None
        inputs, rule = rec.inputs, rec.backward
        rec.inputs = rec.out = rec.backward = None
        if g is None:
            continue
        for tensor, gin in zip(inputs, rule(g)):
            if gin is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                tensor.grad = gin
            elif tensor.grad is tensor.store_grad:
                np.add(tensor.grad, gin, out=tensor.grad)
            else:
                tensor.grad = tensor.grad + gin


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# --- elementwise ---

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, "add", (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, "sub", (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data, "mul", (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    return _make(out, "div", (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def pow_const(a: Tensor, p: float) -> Tensor:
    out = a.data ** p
    return _make(out, "pow", (a,), lambda g: (g * p * a.data ** (p - 1),))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _make(out, "log", (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)
    return _make(out, "sqrt", (a,), lambda g: (g * 0.5 / out,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def _clamp(x: np.ndarray, lo: float, hi: float) -> tuple:
    """(``np.clip(x, lo, hi)`` without its Python wrapper, NaN kept; the mask of (lo, hi))."""
    return np.minimum(np.maximum(x, lo), hi), (x > lo) & (x < hi)


# --- linear algebra and shape ---

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    return _make(a.data @ b.data, "matmul", (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


def _group_parts(groups: np.ndarray, count: int) -> list:
    """(group, rows) for each nonempty group of `count`, for row i times
    ``w[groups[i]]`` (the router's gates, the experts); `rows` is a slice
    when `groups` is sorted, else the group's row indices in input order.
    The ids are int64 in [0, count), as each caller has checked them.
    A decode step groups a few dozen ids at most, so plain Python sorts out
    up to 32 sorted ids; the rest take ndarray methods and a ufunc
    reduction, none with a Python-level wrapper."""
    small = groups.size <= 32
    if small:
        ids = groups.tolist()
        if ids == sorted(ids):
            starts = [i for i in range(len(ids)) if i == 0 or ids[i] != ids[i - 1]]
            return [(ids[a], slice(a, b)) for a, b in zip(starts, starts[1:] + [len(ids)])]
    if not small and np.logical_and.reduce(groups[1:] >= groups[:-1]):
        edges = groups.searchsorted(np.arange(count + 1)).tolist()
        return [(g, slice(a, b)) for g, (a, b) in enumerate(zip(edges, edges[1:])) if a < b]
    order = groups.argsort(kind="stable")
    edges = groups[order].searchsorted(np.arange(count + 1)).tolist()
    return [(g, order[a:b]) for g, (a, b) in enumerate(zip(edges, edges[1:])) if a < b]


def _group_sums(shape: tuple, g: np.ndarray, parts: list, groups: np.ndarray) -> np.ndarray:
    """Row sums of `g` per group into a zero (count, width) array, equal to
    ``_index_add(shape, groups, g)`` bit for bit: an axis-0 sum of rows at
    least two wide adds them in order, here in float64 like the scatter.
    A one-wide column would be summed pairwise, so it keeps the scatter."""
    if shape[1] == 1:
        return _index_add(shape, groups, g)
    out = np.zeros(shape, dtype=g.dtype)
    g = np.ascontiguousarray(g, dtype=np.float64)
    for group, rows in parts:
        out[group] = g[rows].sum(axis=0)
    return out


def _grouped_forward(x: np.ndarray, w: np.ndarray, parts: list) -> np.ndarray:
    if len(parts) == 1:                  # one group, sliced: every row
        return x @ w[parts[0][0]]
    out = np.empty((x.shape[0], w.shape[2]), dtype=np.promote_types(x.dtype, w.dtype))
    for g, rows in parts:              # a slice of rows is a view: written in place
        if isinstance(rows, slice):
            np.matmul(x[rows], w[g], out=out[rows])
        else:
            out[rows] = x[rows] @ w[g]
    return out


def _grouped_backward(grad: np.ndarray, x: np.ndarray, w: np.ndarray,
                      parts: list) -> tuple:
    gx = np.empty_like(x)
    gw = np.zeros_like(w) if len(parts) < w.shape[0] else np.empty_like(w)
    for g, rows in parts:
        picked = grad[rows]
        if isinstance(rows, slice):
            np.matmul(picked, w[g].T, out=gx[rows])
        else:
            gx[rows] = picked @ w[g].T
        np.matmul(x[rows].T, picked, out=gw[g])
    return gx, gw


# --- fused transformer ops ---
#
# Each fused op replaces a chain of tape ops with one record and an
# analytic backward rule. The forward runs the chain's numpy expressions in
# the chain's order, and the backward adds up each input's gradient terms in
# the order of the chain's reverse sweep, so results are bit-identical to
# it. Each also checks the intermediates whose overflow the output would
# hide (a mean-square, the attention scores, a hidden pre-activation), so a
# fused op raises NumericError wherever the chain did. The chains themselves
# are kept as oracles in moerec.verify (reference_rms_norm and friends).

def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """``x / sqrt(mean(x*x, axis=-1) + 1e-6) * gain``.

    The backward rule is the chain's, step by step. `x` enters the chain
    three times (the division and both factors of the square), so the
    record lists it three times: its gradient then accumulates in the
    chain's order, and gradients stay bit-identical to it.
    """
    out, back = _rms_parts(x.data, gain.data)
    return _make(out, "rms_norm", (gain, x, x, x), back)


def _rms_parts(x: np.ndarray, gain: np.ndarray) -> tuple:
    """:func:`rms_norm` on arrays: its output and its backward rule."""
    # ndarray.mean's sum and division, without its Python-level wrapper
    mean_sq = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    _check_finite(mean_sq, "rms_norm")
    scale = np.sqrt(mean_sq + 1e-6)
    normed = x / scale

    def back(g):
        g_normed = g * gain                 # the chain's steps, in place on (n, m) arrays
        g_scale = -g_normed
        g_scale *= x
        g_scale /= scale * scale
        g_scale = np.add.reduce(g_scale, axis=-1, keepdims=True) * 0.5 / scale / x.shape[-1]
        g_square = g_scale * x
        g_normed /= scale
        return _unbroadcast(g * normed, gain.shape), g_normed, g_square, g_square

    return normed * gain, back


def _router_parts(rows: np.ndarray, weights: np.ndarray, gates: np.ndarray) -> tuple:
    """(scores, backward rule) of ``softmax(rows[i] @ weights[gates[i]])``
    for each row i; the rule takes the scores' gradient to those of (rows,
    weights) on the forward's grouping by gate. Only the logits are
    checked: finite logits keep every score in [0, 1]."""
    parts = _group_parts(gates, weights.shape[0])
    logits = _grouped_forward(rows, weights, parts)
    _check_finite(logits, "router logits")
    # ndarray.max's and ndarray.sum's reductions, without their Python wrappers
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    scores = e / np.add.reduce(e, axis=-1, keepdims=True)

    def back(g):
        g_logits = (g - (g * scores).sum(axis=-1, keepdims=True)) * scores
        return _grouped_backward(g_logits, rows, weights, parts)

    return scores, back


def _kv_buffers(batch: int, positions: int, m: int, heads: int, dtype) -> tuple:
    """Empty buffers of a block's KV cache, head-major: keys (batch, heads,
    head_dim, positions), already transposed; values (batch, heads, positions, head_dim)."""
    keys = np.empty((batch, heads, m // heads, positions), dtype)
    return keys, np.empty(keys.shape[:2] + keys.shape[:1:-1], dtype)


def _attention_parts(q: np.ndarray, kt: np.ndarray, vh: np.ndarray, offset: int) -> tuple:
    """(output, backward rule) of causal attention of (B, L, m) queries over
    S keys `kt` and values `vh` in :func:`_kv_buffers`' layout (views of a
    cache are read in place) into (B*L, m) rows. Query i sees keys 0 to
    ``offset + i``; scores per head are scaled by ``1/sqrt(m // heads)``."""
    batch, length, m = q.shape
    heads, dh, keys = kt.shape[1:]
    qh = np.ascontiguousarray(q.reshape(batch, length, heads, dh).transpose(0, 2, 1, 3))
    scale = 1.0 / math.sqrt(dh)
    scores = qh @ kt
    scores *= scale
    if keys > offset + 1:                # else every query sees every key
        # 1e9 off the scores of the keys after each query's position, by
        # ufuncs, which have no Python wrapper (np.triu and np.full have)
        later = np.less.outer(np.arange(offset, offset + length), np.arange(keys))
        scores -= np.multiply(later, 1e9, dtype=qh.dtype)
    _check_finite(scores, "attention scores")
    # ndarray.max's and ndarray.sum's reductions, without their Python wrappers
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    mixed = probs @ vh
    out = np.ascontiguousarray(mixed.transpose(0, 2, 1, 3)).reshape(batch * length, m)

    def back(g):
        gm = g.reshape(batch, length, heads, dh).transpose(0, 2, 1, 3)
        gp = gm @ vh.swapaxes(-1, -2)
        gs = gp * probs
        np.subtract(gp, np.add.reduce(gs, axis=-1, keepdims=True), out=gs)
        gs *= probs
        gs *= scale
        gq = gs @ kt.swapaxes(-1, -2)
        gk = (qh.swapaxes(-1, -2) @ gs).transpose(0, 1, 3, 2)
        gv = probs.swapaxes(-1, -2) @ gm
        return tuple(t.transpose(0, 2, 1, 3).reshape(batch, -1, m) for t in (gq, gk, gv))

    return out, back


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``tanh(x @ w1 + b1) @ w2 + b2`` over the rows of `x`: the two-layer
    network of the experts of :func:`moe_sublayer` with a single expert,
    whose biases broadcast over the rows and take the row sums as their
    gradients."""
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.shape[1] != w1.shape[0] or b1.shape != w1.shape[1:]
            or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(f"mlp shapes incompatible: x {x.shape}, w1 {w1.shape}, "
                         f"b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}")
    inputs = (x, w1, b1, w2, b2)
    out, back = _tanh_mlp("mlp", tuple(t.data for t in inputs), np.matmul,
                          lambda g, a, w: (g @ w.T, a.T @ g),
                          lambda b: b, lambda shape, g: g.sum(axis=0))
    return _make(out, "mlp", inputs, back)


def _tanh_mlp(op: str, arrays: tuple, layer: Callable, layer_back: Callable,
              bias: Callable, bias_back: Callable) -> tuple:
    """(output, backward rule) of :func:`mlp` and of the experts of
    :func:`moe_sublayer` on the arrays (x, w1, b1, w2, b2).
    ``layer(x, w)`` multiplies rows by a weight and ``layer_back(g, x, w)``
    returns its (x, w) gradients; ``bias(b)`` is the bias added to the rows
    and ``bias_back(shape, g)`` reduces a row gradient to it."""
    x, w1, b1, w2, b2 = arrays
    pre = layer(x, w1)
    pre += bias(b1)
    _check_finite(pre, f"{op} hidden layer")
    hidden = np.tanh(pre, out=pre)
    out = layer(hidden, w2)
    out += bias(b2)

    def back(g):
        gh, gw2 = layer_back(g, hidden, w2)
        gpre = hidden * hidden
        np.subtract(1.0, gpre, out=gpre)
        gpre *= gh
        gx, gw1 = layer_back(gpre, x, w1)
        return gx, gw1, bias_back(b1.shape, gpre), gw2, bias_back(b2.shape, g)

    return out, back


# --- fused transformer sublayers, built on the bodies above ---

def attention_sublayer(x: Tensor, gain: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                       wo: Tensor, heads: int, batch: int, kv: tuple = None,
                       offset: int = 0, start: int = 0) -> Tensor:
    """``x + attention(q, k, v) @ wo`` over the (batch*L, m) rows `x` of
    `batch` sequences, ``q = rms_norm(x, gain) @ wq`` and k, v alike, with
    the causal multi-head attention of :func:`_attention_parts`. With `kv`,
    a KV cache block's (keys, values) buffers holding `offset` of their P
    positions, the new keys and values are written in after them and the
    attention reads the buffers in place; that path is inference-only: it
    raises TapeError under a recording tape.

    With `start`, the query side runs only for positions ``start..L-1`` of
    each sequence: the queries, the attention mix, `wo` and the residual.
    The result holds those batch*(L-start) rows, and query i sees keys
    ``0..offset+start+i``. Keys and values still cover all L positions, so
    the rows below `start` get gradient only through them: no residual term
    and no query term."""
    inputs = (x, wo, wv, wk, wq, gain, x, x, x)
    n, m = x.data.shape if x.data.ndim == 2 else (-1, -1)
    length = n // batch if batch > 0 and n % batch == 0 else -1
    if (length < 1 or not 0 <= start < length or m % heads or gain.data.shape != (m,)
            or not wq.data.shape == wk.data.shape == wv.data.shape == wo.data.shape == (m, m)
            or kv is not None
            and (kv[0].shape[:3] != (batch, heads, m // heads) or offset + length > kv[0].shape[3]
                 or kv[1].shape != kv[0].shape[:2] + kv[0].shape[:1:-1])):
        raise ShapeError(f"attention_sublayer shapes incompatible: x {x.shape} of {batch} "
                         f"sequences, {heads} heads, weights {wq.shape}, offset {offset}, "
                         f"start {start}")
    if kv is not None and _TAPE_STACK and any(t.requires_grad for t in inputs):
        raise TapeError("cached attention is inference-only: it writes keys and values "
                        "in place, which a tape cannot differentiate")

    def tail(a: np.ndarray) -> np.ndarray:           # positions start.. of each sequence
        return a.reshape(batch, length, -1)[:, start:]

    normed, norm_back = _rms_parts(x.data, gain.data)
    k, v = normed @ wk.data, normed @ wv.data
    cut = tail(normed).reshape(-1, m) if start else normed
    q = cut @ wq.data
    split = (batch, length, heads, m // heads)          # to the cache's head-major layout
    keys, values = k.reshape(split).transpose(0, 2, 3, 1), v.reshape(split).transpose(0, 2, 1, 3)
    if kv is None:
        keys, values = np.ascontiguousarray(keys), np.ascontiguousarray(values)
    else:
        kv[0][..., offset:offset + length], kv[1][:, :, offset:offset + length] = keys, values
        keys, values = kv[0][..., :offset + length], kv[1][:, :, :offset + length]
    mixed, attention_back = _attention_parts(q.reshape(batch, length - start, m), keys,
                                             values, offset + start)
    _check_finite(mixed, "attention")

    def back(g):
        gq, gk, gv = (t.reshape(-1, m) for t in attention_back(g @ wo.data.T))
        g_normed = gv @ wv.data.T + gk @ wk.data.T
        tail(g_normed)[...] += (gq @ wq.data.T).reshape(batch, length - start, m)
        g_residual = g
        if start:
            g_residual = np.zeros_like(x.data)
            tail(g_residual)[...] = g.reshape(batch, length - start, m)
        return (g_residual, mixed.T @ g, normed.T @ gv, normed.T @ gk, cut.T @ gq,
                *norm_back(g_normed))

    residual = tail(x.data).reshape(-1, m) if start else x.data
    return _make(residual + mixed @ wo.data, "attention_sublayer", inputs, back)


def moe_sublayer(h: Tensor, gain: Tensor, router: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor, selected: np.ndarray, k: int, norm: tuple,
                 route: tuple) -> Tensor:
    """``h + sum_j p[r, e] * ffn_e(y[r])`` over row r's k experts ``e =
    selected[r*k + j]``, for ``y = rms_norm(h, gain)``, ``p = softmax(y[r]
    @ router[gates[r]])`` and ``ffn_e(y) = tanh(y @ w1[e] + b1[e]) @ w2[e]
    + b2[e]`` of the stacked bank. The caller ran the norm and the router to
    pick the experts and hands them in: `norm` is :func:`_rms_parts`'s (y,
    backward rule) and `route` is :func:`_router_parts`'s (p, backward rule)
    of y. The n*k pairs run in expert-sorted groups; each row sums its k
    weighted pairs, and the row gather's gradient its pairs' terms, by the
    :func:`_fan_in_sums` of an (n, k) slot table. The rule adds the chain's
    terms in its reverse-sweep order: y gets the experts' term plus the
    router's, and `h` the residual's, then the norm's three (so the record
    lists `h` four times)."""
    count = w1.data.shape[0]
    selected = _row_ids(selected, count)
    normed, norm_back = norm
    scores, route_back = route
    n, m = h.data.shape if h.data.ndim == 2 else (-1, -1)
    if (k < 1 or selected.shape != (n * k,) or normed.shape != (n, m)
            or scores.shape != (n, count) or router.data.shape[1:] != (m, count)
            or w1.data.ndim != 3 or w1.data.shape[1] != m
            or b1.data.shape != (count, w1.data.shape[2])
            or w2.data.shape != b1.data.shape + (m,) or b2.data.shape != (count, m)):
        raise ShapeError(f"moe_sublayer shapes incompatible: h {h.shape}, router {router.shape}, "
                         f"w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}, "
                         f"scores {scores.shape}, {selected.shape} expert ids for k={k}")
    order = selected.argsort(kind="stable")
    row_of = order // k
    slots = row_of.argsort(kind="stable").reshape(n, k)
    experts = selected[order]
    arrays = (normed.take(row_of, axis=0), w1.data, b1.data, w2.data, b2.data)
    parts = _group_parts(experts, count)
    ffn, ffn_back = _tanh_mlp("moe_sublayer", arrays,
                              lambda x, w: _grouped_forward(x, w, parts),
                              lambda g, x, w: _grouped_backward(g, x, w, parts),
                              lambda b: b.take(experts, axis=0),
                              lambda shape, g: _group_sums(shape, g, parts, experts))
    weight = scores[row_of, experts].reshape(-1, 1)

    def back(g):
        g_pairs = g[row_of]
        g_weight = np.add.reduce(g_pairs * ffn, axis=1)      # to weight's (n*k, 1), flat
        g_pairs *= weight
        g_rows, *g_bank = ffn_back(g_pairs)
        g_normed = _fan_in_sums(g_rows, slots)
        g_routed, g_router = route_back(_index_add(scores.shape, (row_of, experts), g_weight))
        return (g, *g_bank, g_router, *norm_back(g_normed + g_routed))

    return _make(h.data + _fan_in_sums(ffn * weight, slots), "moe_sublayer",
                 (h, w1, b1, w2, b2, router, gain, h, h, h), back)


def weighted_nll(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """``-sum_i w_i * log_softmax(logits)[i, t_i]``: the weighted negative
    log-likelihood of target ``t_i`` under row i of (n, V) logits, for
    constant weights, which take the logits' dtype. It replaces a
    log-softmax, a pick of one target per row, the weight product, the sum
    and the negation; its backward rule is
    ``g * w_i * (softmax_i - onehot(t_i))``."""
    targets = _row_ids(targets, logits.shape[1] if logits.data.ndim == 2 else None)
    w = np.asarray(weights, dtype=logits.data.dtype)
    if (logits.data.ndim != 2 or logits.data.size == 0
            or targets.shape != logits.shape[:1] or w.shape != targets.shape):
        raise ShapeError(f"weighted_nll shapes incompatible: logits {logits.shape}, "
                         f"targets {targets.shape}, weights {w.shape}")
    x = logits.data
    logp = x - x.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    _check_finite(logp, "weighted_nll log_softmax")
    rows = np.arange(targets.size)
    out = np.asarray(-(logp[rows, targets] * w).sum())

    def back(g):
        picked = (-g) * w                    # gradient of each picked log-probability
        grad = np.exp(logp)
        grad *= picked[:, None]
        np.negative(grad, out=grad)
        grad[rows, targets] += picked
        return (grad,)

    return _make(out, "weighted_nll", (logits,), back)


def add_rows(a: Tensor, rows_a: np.ndarray, b: Tensor, rows_b: np.ndarray) -> Tensor:
    """``a[rows_a] + b[rows_b]``, as the token and position embeddings are
    summed; indices may repeat."""
    rows_a, rows_b = np.asarray(rows_a), np.asarray(rows_b)
    if (a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]
            or rows_a.ndim != 1 or rows_a.shape != rows_b.shape):
        raise ShapeError(f"add_rows shapes incompatible: {a.shape} rows {rows_a.shape}, "
                         f"{b.shape} rows {rows_b.shape}")
    rows_a, rows_b = _row_ids(rows_a, a.data.shape[0]), _row_ids(rows_b, b.data.shape[0])
    return _make(a.data[rows_a] + b.data[rows_b], "add_rows", (a, b),
                 lambda g: (_index_add(a.shape, rows_a, g), _index_add(b.shape, rows_b, g)))


# --- fused ops of the variational preference model ---

def concat_rows(a: Tensor, rows_a: np.ndarray, b: Tensor, rows_b: np.ndarray) -> Tensor:
    """``concat([a[rows_a], b[rows_b]], axis=1)``: rows gathered from two
    tables and joined side by side; indices may repeat."""
    if (a.data.ndim != 2 or b.data.ndim != 2 or np.ndim(rows_a) != 1
            or np.shape(rows_a) != np.shape(rows_b)):
        raise ShapeError(f"concat_rows shapes incompatible: {a.shape} rows {np.shape(rows_a)}, "
                         f"{b.shape} rows {np.shape(rows_b)}")
    rows_a, rows_b = _row_ids(rows_a, a.shape[0]), _row_ids(rows_b, b.shape[0])
    out = np.concatenate([a.data[rows_a], b.data[rows_b]], axis=1)
    width = a.shape[1]
    return _make(out, "concat_rows", (a, b),
                 lambda g: (_index_add(a.shape, rows_a, g[:, :width]),
                            _index_add(b.shape, rows_b, g[:, width:])))


def gaussian_sample(mu: Tensor, log_var: Tensor, eps: np.ndarray,
                    lo: float, hi: float) -> Tensor:
    """``mu + eps * exp(clip(log_var, lo, hi) * 0.5)`` for constant noise
    `eps`; the clamp passes gradient only strictly inside (lo, hi)."""
    noise = np.asarray(eps, dtype=_default_dtype)
    if mu.shape != log_var.shape or noise.shape != mu.shape:
        raise ShapeError(f"gaussian_sample shapes incompatible: mu {mu.shape}, "
                         f"log_var {log_var.shape}, eps {noise.shape}")
    clamped, inside = _clamp(log_var.data, lo, hi)
    with np.errstate(over="ignore"):
        sigma = np.exp(clamped * 0.5)
    out = mu.data + noise * sigma
    return _make(out, "gaussian_sample", (mu, log_var),
                 lambda g: (g, g * noise * sigma * 0.5 * inside))


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy ``softplus(x) - x * t`` of logits `x`
    against constant targets `t`; a (B, 1) column of logits reads as (B,)."""
    t = np.asarray(targets, dtype=_default_dtype)
    if logits.size != t.size or t.ndim != 1:
        raise ShapeError(f"bce_with_logits shapes incompatible: logits {logits.shape}, "
                         f"targets {t.shape}")
    x = logits.data.reshape(t.shape)
    sig = 1.0 / (1.0 + np.exp(-_clamp(x, -500, 500)[0]))
    with np.errstate(invalid="ignore"):                 # a NaN logit raises below
        out = np.asarray((np.logaddexp(0.0, x) - x * t).mean())

    def back(g):
        gm = np.full(t.shape, g / t.size)
        return (((-gm) * t + gm * sig).reshape(logits.shape),)

    return _make(out, "bce_with_logits", (logits,), back)


def mixture_kl(mu: Tensor, log_var: Tensor, gamma: np.ndarray, pi_logits: Tensor,
               means: Tensor, log_vars: Tensor, bounds: tuple, prior_bounds: tuple) -> Tensor:
    """Per-row closed-form KL from ``N(mu, diag exp(clip(log_var, *bounds)))``
    with constant cluster responsibilities `gamma` (B, K) to a diagonal
    Gaussian mixture with weights ``softmax(pi_logits)``, component `means`
    (K, D) and component log-variances ``clip(log_vars, *prior_bounds)``;
    see :func:`moerec.vae.kl_closed_form_batch` for the formula.

    The forward runs the expressions of the op chain it replaces, in its
    order, and the backward rule adds up each input's gradient terms in
    the order in which the chain's reverse sweep reached them.
    """
    rows, dims = mu.shape if mu.data.ndim == 2 else (-1, -1)
    clusters = pi_logits.shape[0] if pi_logits.data.ndim == 1 else -1
    if (rows < 0 or clusters < 0 or log_var.shape != mu.shape
            or means.shape != (clusters, dims) or log_vars.shape != means.shape
            or np.shape(gamma) != (rows, clusters)):
        raise ShapeError(f"mixture_kl shapes incompatible: mu {mu.shape}, log_var "
                         f"{log_var.shape}, gamma {np.shape(gamma)}, pi_logits "
                         f"{pi_logits.shape}, means {means.shape}, log_vars {log_vars.shape}")
    weights = np.asarray(gamma, dtype=_default_dtype)
    pmu, m = means.data, mu.data
    post_log_var, inside = _clamp(log_var.data, *bounds)
    prior_log_var, prior_inside = _clamp(log_vars.data, *prior_bounds)
    with np.errstate(over="ignore"):
        inv_var = np.exp(-prior_log_var)
        var = np.exp(post_log_var)
    inv_var_t = inv_var.T.copy()
    m_iv = pmu * inv_var
    m_iv_t = m_iv.T.copy()
    mu_sq = m * m
    maha = ((mu_sq @ inv_var_t - (m @ m_iv_t) * 2.0) + (pmu * m_iv).sum(axis=1))
    comp = (weights * ((var @ inv_var_t + maha) + prior_log_var.sum(axis=1))).sum(axis=1) * 0.5

    shifted = pi_logits.data - pi_logits.data.max()
    log_pi = shifted - np.log(np.exp(shifted).sum(keepdims=True))
    gamma = np.asarray(gamma)
    g_log_g = np.where(gamma > 0, gamma * np.log(np.maximum(gamma, 1e-300)), 0.0)
    cat = (np.asarray(g_log_g.sum(axis=1), dtype=_default_dtype)
           - (weights @ log_pi.reshape(-1, 1))[:, 0])
    out = ((comp + cat) + post_log_var.sum(axis=1) * -0.5) - 0.5 * dims

    def back(g):
        # gradients of the chain's intermediates: g_s of the (B, K) bracket
        # ratio + maha + sum log vbar; g_q of the (K,) sums over components,
        # broadcast over D; g_cross of mu @ m_iv.T; g_sq of both var and
        # mu * mu, whose products with inv_var.T share it
        g_s = (g * 0.5)[:, None] * weights
        g_q = g_s.sum(axis=0)[:, None]
        g_cross = (-g_s) * 2.0
        g_sq = g_s @ inv_var_t.T
        g_mu = g_cross @ m_iv_t.T + g_sq * m + g_sq * m
        g_log_var = ((g * -0.5)[:, None] + g_sq * var) * inside
        g_log_pi = (weights.T @ (-g)[:, None]).reshape(clusters)
        g_pi = g_log_pi - np.exp(log_pi) * g_log_pi.sum(keepdims=True)
        g_m_iv = g_q * pmu + (m.T @ g_cross).T
        g_means = g_q * m_iv + g_m_iv * inv_var
        g_inv_var = ((mu_sq.T @ g_s).T + g_m_iv * pmu) + (var.T @ g_s).T
        g_log_vars = (g_q - g_inv_var * inv_var) * prior_inside
        return g_mu, g_log_var, g_pi, g_means, g_log_vars

    return _make(out, "mixture_kl", (mu, log_var, pi_logits, means, log_vars), back)


def weighted_means(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """``sum_i w_i * mean(t_i)``, added in order, each constant weight cast to
    the default dtype as a lifted constant is: either stage's loss mix."""
    if not terms or len(terms) != len(weights):
        raise ShapeError(f"weighted_means: {len(terms)} terms, {len(weights)} weights")
    scales = [np.asarray(w, dtype=_default_dtype) for w in weights]
    parts = [t.data.mean() * w for t, w in zip(terms, scales)]
    return _make(np.asarray(sum(parts[1:], parts[0])), "weighted_means", tuple(terms),
                 lambda g: tuple(np.full(t.shape, g * w / t.size) for t, w in zip(terms, scales)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, have shape {a.shape}")
    return _make(a.data.T.copy(), "transpose", (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    return _make(a.data.reshape(shape), "reshape", (a,),
                 lambda g: (g.reshape(a.shape),))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        gx = g
        if axis is not None and not keepdims:
            gx = np.expand_dims(gx, axis)
        return (np.broadcast_to(gx, a.shape).copy()
                if np.ndim(gx) else np.full(a.shape, gx),)

    return _make(np.asarray(out), "sum", (a,), back)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def back(g):
        gx = g
        if axis is not None and not keepdims:
            gx = np.expand_dims(gx, axis)
        scaled = gx / count
        return (np.broadcast_to(scaled, a.shape).copy()
                if np.ndim(scaled) else np.full(a.shape, scaled),)

    return _make(np.asarray(out), "mean", (a,), back)


def slice_view(a: Tensor, key) -> Tensor:
    """Basic indexing only (ints and slices); the backward rule assigns into
    a zero buffer, which is only correct when the key selects each element
    at most once. Use take_rows for array indexing."""
    parts = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis
               for p in parts):
        raise ShapeError("advanced indexing is not supported here; use take_rows")
    out = a.data[key]

    def back(g):
        gx = np.zeros_like(a.data)
        gx[key] = g
        return (gx,)

    return _make(np.ascontiguousarray(out), "slice", (a,), back)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows (axis 0) by integer index; duplicates allowed."""
    idx = _row_ids(idx, a.shape[0])
    out = a.data[idx]
    return _make(out, "take_rows", (a,), lambda g: (_index_add(a.shape, idx, g),))


def _row_ids(idx, bound: int = None, error: type = ShapeError) -> np.ndarray:
    """`idx` as int64, the one conversion of caller-supplied ids. A nonempty
    index that is not integer (a boolean mask, a float) raises ShapeError
    rather than selecting the wrong rows, and an id outside [0, bound)
    raises `error`."""
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        raise ShapeError(f"ids must be integers, have dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    # a negative id reads as a huge unsigned one, so one maximum checks both ends
    if (bound is not None and idx.size
            and np.maximum.reduce(idx.view(np.uint64), axis=None) >= bound):
        raise error(f"id outside [0, {bound}): {idx.min()}..{idx.max()}")
    return idx


def _index_add(shape: tuple, idx, values: np.ndarray) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, values)`` in one ``np.bincount``.

    `idx` indexes axis 0, or the leading axes when it is a tuple of index
    arrays. bincount adds the weights in input order into float64
    accumulators, so float64 results equal ``np.add.at`` bit for bit. A
    float32 result is that float64 sum rounded once: ``np.add.at`` on a
    float64 copy, cast back.
    """
    values = np.asarray(values)
    lead = len(idx) if isinstance(idx, tuple) else 1
    flat = np.ravel_multi_index(idx, shape[:lead]) if isinstance(idx, tuple) else idx
    inner = math.prod(shape[lead:])
    if inner != 1:
        flat = (flat[:, None] * inner + np.arange(inner)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=math.prod(shape)
                       ).reshape(shape).astype(values.dtype, copy=False)


def _fan_in_sums(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``_index_add((n,) + values.shape[1:], ids, values)`` for ids that name
    each of the n rows k times, where row r of the (n, k) `slots` lists the
    positions of r's ids in input order (a stable argsort of the ids). The k
    values of each row are added in that order into float64 zeros and the
    sum is rounded once, as bincount adds them; a row of ``-0.0`` values
    sums to ``+0.0`` there too."""
    out = np.add(values.take(slots[:, 0], axis=0), 0.0, dtype=np.float64)
    for j in range(1, slots.shape[1]):
        out += values.take(slots[:, j], axis=0)
    return out.astype(values.dtype, copy=False)
