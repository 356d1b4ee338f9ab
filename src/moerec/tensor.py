"""Dense tensors with reverse-mode automatic differentiation.

The engine is a Wengert list: while a :class:`Tape` is active, every
operation appends a record holding its inputs, its output, and a backward
rule. Records are appended in execution order, which makes the list
topological by construction; :func:`backward` walks it once in reverse and
accumulates gradients additively into each leaf's ``grad`` buffer.

Rules of the house:

- ``float64`` is the default dtype; tests and oracles rely on it. Training
  may switch to ``float32`` through :func:`set_default_dtype`.
- Every operation checks its output for NaN/Inf and raises
  :class:`~moerec.errors.NumericError` rather than letting poison propagate.
- The transformer's hot chains run as fused ops, one record each:
  :func:`rms_norm`, :func:`attention` (head split, scaled causal scores,
  softmax, mix and head merge) and :func:`expert_ffn` (a grouped two-layer
  expert). Their forwards and gradients equal the chains' bit for bit, and
  they also check the intermediates that their output would hide.
- Gradient accumulation never clears anything implicitly: call
  :func:`zero_grad` (or ``Tensor.zero_grad``) between optimization steps.
- Operations executed with no active tape compute values only, so frozen
  models run without graph bookkeeping.
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

    A finite sum proves every element finite, so the full scan runs only
    when the sum is not finite. A finite array whose sum overflows (say
    ``[1e308, 1e308]``) takes the scan and passes; numpy may emit an
    overflow RuntimeWarning for that sum.
    """
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


class Tensor:
    """N-dimensional array of reals, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_default_dtype)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

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
        out.grad = None
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
            return take_rows(self, np.asarray(key, dtype=np.int64))
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


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make(out_data: np.ndarray, op: str, inputs: tuple, backward_fn: Callable) -> Tensor:
    """Wrap an op result; record it when a tape is active and grads flow."""
    _check_finite(out_data, op)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    tape = _active_tape()
    tracked = tape is not None and any(t.requires_grad for t in inputs)
    out.requires_grad = tracked
    if tracked:
        tape.records.append(_Record(inputs, out, backward_fn))
        tape._output_ids.add(id(out))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: fills ``grad`` on every requires_grad leaf under `loss`.

    Leaf gradients accumulate additively (across fan-out and across tapes);
    intermediate buffers are released afterwards. A tape can be swept once.
    """
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, have shape {loss.shape}")
    if id(loss) not in tape._output_ids:
        raise TapeError("loss is not an output recorded on this tape")
    if tape._spent:
        raise TapeError("tape already swept; build a fresh tape per backward")
    tape._spent = True
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g = rec.out.grad
        if g is None:
            continue
        for tensor, gin in zip(rec.inputs, rec.backward(g)):
            if gin is None or not tensor.requires_grad:
                continue
            tensor.grad = gin if tensor.grad is None else tensor.grad + gin
    for rec in tape.records:
        rec.out.grad = None


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


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow."""
    out = np.logaddexp(0.0, a.data)
    sig = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500)))
    return _make(out, "softplus", (a,), lambda g: (g * sig,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only strictly inside."""
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)
    return _make(out, "clip", (a,), lambda g: (g * inside,))


# --- linear algebra and shape ---

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    return _make(a.data @ b.data, "matmul", (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: ``a[i] @ b[i]`` over equal leading dimensions."""
    if (a.data.ndim < 3 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"bmm shapes incompatible: {a.shape} @ {b.shape}")
    return _make(a.data @ b.data, "bmm", (a, b),
                 lambda g: (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder the axes (``np.transpose``); the result is contiguous."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"permute axes {axes} do not match shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _make(np.ascontiguousarray(a.data.transpose(axes)), "permute", (a,),
                 lambda g: (g.transpose(inverse),))


def grouped_matmul(x: Tensor, w: Tensor, groups: np.ndarray) -> Tensor:
    """Row i of the result is ``x[i] @ w[groups[i]]`` for a (G, p, q) stack
    `w`. The rows of each group run as one matmul; groups may be empty and
    rows may come in any order, though rows sorted by group are sliced
    rather than gathered."""
    groups = np.asarray(groups, dtype=np.int64)
    if (x.data.ndim != 2 or w.data.ndim != 3 or x.shape[1] != w.shape[1]
            or groups.shape != x.shape[:1]):
        raise ShapeError(f"grouped_matmul shapes incompatible: {x.shape} @ {w.shape} "
                         f"with {groups.shape} group ids")
    parts = _group_parts(groups, w.shape[0])
    out = _grouped_forward(x.data, w.data, parts)
    return _make(out, "grouped_matmul", (x, w),
                 lambda grad: _grouped_backward(grad, x.data, w.data, parts))


def _group_parts(groups: np.ndarray, count: int) -> list:
    """(group, rows) for each nonempty group of `count`; `rows` is a slice
    when `groups` is sorted, else the group's row indices in input order."""
    if groups.size and (groups.min() < 0 or groups.max() >= count):
        raise ShapeError(f"group id outside [0, {count})")
    counts = np.bincount(groups, minlength=count)
    ends = np.cumsum(counts)
    ordered = bool(np.all(groups[1:] >= groups[:-1]))
    order = None if ordered else np.argsort(groups, kind="stable")
    return [(g, slice(e - c, e) if ordered else order[e - c:e])
            for g, (c, e) in enumerate(zip(counts, ends)) if c]


def _grouped_forward(x: np.ndarray, w: np.ndarray, parts: list) -> np.ndarray:
    out = np.empty((x.shape[0], w.shape[2]), dtype=np.result_type(x, w))
    for g, rows in parts:
        out[rows] = x[rows] @ w[g]
    return out


def _grouped_backward(grad: np.ndarray, x: np.ndarray, w: np.ndarray,
                      parts: list) -> tuple:
    gx = np.empty_like(x)
    gw = np.zeros_like(w)
    for g, rows in parts:
        gx[rows] = grad[rows] @ w[g].T
        gw[g] = x[rows].T @ grad[rows]
    return gx, gw


# --- fused transformer ops ---
#
# Each replaces a chain of the ops above with one record and an analytic
# backward rule. The forward runs the chain's numpy expressions in the
# chain's order, so results are bit-identical to it, and checks the
# intermediates whose overflow the output would hide (a mean-square, the
# attention scores, an expert pre-activation), so a fused op raises
# NumericError wherever the chain did. The chains themselves are kept as
# oracles in moerec.verify (reference_rms_norm and friends).

def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """``x / sqrt(mean(x*x, axis=-1) + 1e-6) * gain``.

    The backward rule is the chain's, step by step. `x` enters the chain
    three times (the division and both factors of the square), so the
    record lists it three times: its gradient then accumulates in the
    chain's order, and gradients stay bit-identical to it.
    """
    mean_sq = (x.data * x.data).mean(axis=-1, keepdims=True)
    _check_finite(mean_sq, "rms_norm")
    scale = np.sqrt(mean_sq + 1e-6)
    normed = x.data / scale
    out = normed * gain.data

    def back(g):
        g_normed = g * gain.data
        g_scale = _unbroadcast(-g_normed * x.data / (scale * scale), scale.shape)
        g_square = np.broadcast_to(g_scale * 0.5 / scale / x.shape[-1], x.shape) * x.data
        return (_unbroadcast(g * normed, gain.shape), g_normed / scale,
                g_square, g_square)

    return _make(out, "rms_norm", (gain, x, x, x), back)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, offset: int) -> Tensor:
    """Causal multi-head attention of (B, L, m) queries over (B, S, m) keys
    and values; returns (B*L, m) rows, sequence-major.

    Query i sits at position ``offset + i`` and sees keys 0 to
    ``offset + i``. Heads split the model width into `heads` slices of
    ``dh = m // heads``; scores are scaled by ``1/sqrt(dh)`` and masked
    with -1e9 before the softmax.
    """
    if (q.data.ndim != 3 or k.data.ndim != 3 or k.shape != v.shape
            or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]
            or q.shape[2] % heads or offset + q.shape[1] > k.shape[1]):
        raise ShapeError(f"attention shapes incompatible: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, {heads} heads, offset {offset}")
    batch, length, m = q.shape
    keys = k.shape[1]
    dh = m // heads
    qh = np.ascontiguousarray(q.data.reshape(batch, length, heads, dh).transpose(0, 2, 1, 3))
    kt = np.ascontiguousarray(k.data.reshape(batch, keys, heads, dh).transpose(0, 2, 3, 1))
    vh = np.ascontiguousarray(v.data.reshape(batch, keys, heads, dh).transpose(0, 2, 1, 3))
    scale = 1.0 / math.sqrt(dh)
    mask = np.triu(np.full((length, keys), -1e9, dtype=qh.dtype), k=offset + 1)
    scores = (qh @ kt) * scale + mask
    _check_finite(scores, "attention scores")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    mixed = probs @ vh
    out = np.ascontiguousarray(mixed.transpose(0, 2, 1, 3)).reshape(batch * length, m)

    def back(g):
        gm = g.reshape(batch, length, heads, dh).transpose(0, 2, 1, 3)
        gp = gm @ vh.swapaxes(-1, -2)
        gs = (gp - (gp * probs).sum(axis=-1, keepdims=True)) * probs * scale
        gq = gs @ kt.swapaxes(-1, -2)
        gk = (qh.swapaxes(-1, -2) @ gs).transpose(0, 1, 3, 2)
        gv = probs.swapaxes(-1, -2) @ gm
        return tuple(t.transpose(0, 2, 1, 3).reshape(batch, -1, m) for t in (gq, gk, gv))

    return _make(out, "attention", (q, k, v), back)


def expert_ffn(rows: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
               experts: np.ndarray) -> Tensor:
    """Row i through expert ``e = experts[i]`` of stacked two-layer experts:
    ``tanh(x @ w1[e] + b1[e]) @ w2[e] + b2[e]`` for `w1` (E, m, h), `b1`
    (E, h), `w2` (E, h, m) and `b2` (E, m). Rows of one expert run as one
    matmul per layer, grouped as in :func:`grouped_matmul`."""
    experts = np.asarray(experts, dtype=np.int64)
    count = w1.shape[0]
    if (rows.data.ndim != 2 or w1.data.ndim != 3 or w2.data.ndim != 3
            or experts.shape != rows.shape[:1] or rows.shape[1] != w1.shape[1]
            or b1.shape != (count, w1.shape[2]) or w2.shape[:2] != b1.shape
            or b2.shape != (count, w2.shape[2])):
        raise ShapeError(f"expert_ffn shapes incompatible: rows {rows.shape}, w1 {w1.shape}, "
                         f"b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}, "
                         f"{experts.shape} expert ids")
    parts = _group_parts(experts, count)
    pre = _grouped_forward(rows.data, w1.data, parts) + b1.data[experts]
    _check_finite(pre, "expert_ffn hidden layer")
    hidden = np.tanh(pre)
    out = _grouped_forward(hidden, w2.data, parts) + b2.data[experts]

    def back(g):
        gh, gw2 = _grouped_backward(g, hidden, w2.data, parts)
        gpre = gh * (1.0 - hidden * hidden)
        gx, gw1 = _grouped_backward(gpre, rows.data, w1.data, parts)
        return (gx, gw1, _index_add(b1.shape, experts, gpre), gw2,
                _index_add(b2.shape, experts, g))

    return _make(out, "expert_ffn", (rows, w1, b1, w2, b2), back)


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; rows sum to one."""
    if a.data.size == 0:
        raise ShapeError("softmax of an empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _make(out, "softmax", (a,), back)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if a.data.size == 0:
        raise ShapeError("log_softmax of an empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def back(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, "log_softmax", (a,), back)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, "concat", tuple(tensors), back)


def slice_view(a: Tensor, key) -> Tensor:
    """Basic indexing only (ints and slices); the backward rule assigns into
    a zero buffer, which is only correct when the key selects each element
    at most once. Use take_rows / gather_pairs for array indexing."""
    parts = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis
               for p in parts):
        raise ShapeError("advanced indexing is not supported here; "
                         "use take_rows or gather_pairs")
    out = a.data[key]

    def back(g):
        gx = np.zeros_like(a.data)
        gx[key] = g
        return (gx,)

    return _make(np.ascontiguousarray(out), "slice", (a,), back)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows (axis 0) by integer index; duplicates allowed."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"row index out of range for shape {a.shape}")
    out = a.data[idx]
    return _make(out, "take_rows", (a,), lambda g: (_index_add(a.shape, idx, g),))


def scatter_rows(rows: Tensor, idx: np.ndarray, n: int) -> Tensor:
    """Inverse of take_rows: add `rows` into a fresh (n, …) zero tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    out = _index_add((n,) + rows.shape[1:], idx, rows.data)
    return _make(out, "scatter_rows", (rows,), lambda g: (g[idx],))


def gather_pairs(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Pick a[rows[i], cols[i]] for each i; returns a vector."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = a.data[rows, cols]
    return _make(out, "gather_pairs", (a,),
                 lambda g: (_index_add(a.shape, (rows, cols), g),))


def _index_add(shape: tuple, idx, values: np.ndarray) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, values)`` in one ``np.bincount``.

    `idx` indexes axis 0, or the leading axes when it is a tuple of index
    arrays. bincount adds the weights in input order into float64
    accumulators, so float64 results equal ``np.add.at`` bit for bit.
    Narrower dtypes keep ``np.add.at``: accumulating them in float64 would
    round differently.
    """
    values = np.asarray(values)
    if values.dtype != np.float64:
        out = np.zeros(shape, dtype=values.dtype)
        np.add.at(out, idx, values)
        return out
    lead = len(idx) if isinstance(idx, tuple) else 1
    flat = np.ravel_multi_index(idx, shape[:lead]) if isinstance(idx, tuple) else idx
    inner = math.prod(shape[lead:])
    if inner != 1:
        flat = (flat[:, None] * inner + np.arange(inner)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)
