"""AdamW over a flat parameter store, plus global-norm gradient clipping; a
step's one pass of squared sums serves its finiteness proof, clip and norm."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import TrainingError
from .tensor import Tensor

CHUNK_BYTES = 1 << 18   # bytes per array per pass of the update: six such arrays fit in L2


def global_norm(grads: Sequence[np.ndarray], sums: Sequence[float] = None) -> float:
    """The square root of the grads' squared sums ``float((g * g).sum())``
    (or of `sums`, a caller's copy of them) added in order; when the squares
    overflow, the grads are summed again relative to their largest magnitude."""
    with np.errstate(over="ignore"):
        total = math.sqrt(sum(sums if sums is not None else [float((g * g).sum()) for g in grads]))
        if not math.isfinite(total):    # the squares overflow: sum them relative to the largest
            big = max(float(np.abs(g).max(initial=0.0)) for g in grads)
            total = big * math.sqrt(sum(float(((g / big) ** 2).sum()) for g in grads))
    return total


def clip_grad_norm(grads: List[np.ndarray], max_norm: float, norm: float = None) -> float:
    """Scale all grads in place so the global L2 norm is at most `max_norm`.

    Returns the scale that was applied (1.0 when no clipping was needed,
    including the all-zero case). Grads may be views of one buffer (the
    backward of ``a + b`` hands both inputs the same one): every element
    is scaled once. `norm` is their :func:`global_norm`, for a caller that
    has it. A NaN or nonpositive `max_norm` is a ValueError.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = global_norm(grads) if norm is None else norm
    if total <= max_norm:
        return 1.0
    scale = max_norm / total
    by_buffer: Dict[int, List[np.ndarray]] = {}
    for g in grads:
        root = g
        while isinstance(root.base, np.ndarray):
            root = root.base
        by_buffer.setdefault(id(root), []).append(g)
    for group in by_buffer.values():
        # views of one buffer are all read before any of them is written
        sources = [g.copy() for g in group] if len(group) > 1 else group
        for g, source in zip(group, sources):
            np.multiply(source, scale, out=g)
    return scale


class AdamW:
    """Bias-corrected adaptive moments with decoupled weight decay.

    Update per parameter p with gradient g:
        m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
        p <- p*(1 - lr*weight_decay) - lr * m_hat / (sqrt(v_hat) + eps)

    One (4, n) store in the parameters' one dtype holds the values, grads and
    moments, and each ``data``, ``grad``, ``m`` and ``v`` is a view into a row
    of it (the multi-tensor layout of NVIDIA Apex and PyTorch). A step copies
    in any ``data`` or ``grad`` replaced from outside (``None`` is zeros),
    then updates the rows in place, `CHUNK_BYTES` a row at a time, with two rows
    of scratch made once per step.
    """

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr, self.eps, self.weight_decay = lr, eps, weight_decay
        self.b1, self.b2 = betas
        self.step_count = 0
        self._names = sorted(self.params)
        dtypes = sorted({p.data.dtype.name for p in self.params.values()})
        if len(dtypes) > 1:
            raise TrainingError(f"AdamW parameters of several dtypes: {', '.join(dtypes)}")
        bounds = np.cumsum([0] + [self.params[n].data.size for n in self._names]).tolist()
        self._store = np.zeros((4, bounds[-1]), dtypes[0] if dtypes else None)
        self.m, self.v, self._views = {}, {}, []
        for name, start, stop in zip(self._names, bounds, bounds[1:]):
            p = self.params[name]
            data, grad, self.m[name], self.v[name] = \
                self._store[:, start:stop].reshape((4,) + p.data.shape)
            self._views.append((p, data, grad))
        self._grads = [grad for _, _, grad in self._views]
        self._widest = max((g.size for g in self._grads), default=0)
        self._grad_norm = None
        self._adopt()

    def _adopt(self) -> None:
        """Point each data and grad at its view, copying in a replacement."""
        for p, data, grad in self._views:
            if p.data is not data:
                data[...] = p.data
                p.data = data
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
                p.grad = p.store_grad = grad

    def zero_grad(self) -> None:
        self._store[1].fill(0.0)
        for p, _, grad in self._views:
            p.grad = p.store_grad = grad

    @property
    def grad_norm(self) -> Optional[float]:
        """The last step's global gradient norm before clipping; None before the first."""
        return self._grad_norm

    def step(self, clip_norm: float | None = None) -> float:
        """One update over all parameters; returns the clip scale applied."""
        self._adopt()
        # one pass squares each gradient into scratch and sums it, as
        # global_norm does: a finite total proves every element finite (a
        # non-finite one sends the check to the elements), and it is the norm
        squares = np.empty(self._widest, self._store.dtype)
        with np.errstate(over="ignore"):
            sums = [float(np.multiply(g, g, out=squares[:g.size].reshape(g.shape)).sum())
                    for g in self._grads]
        if not math.isfinite(sum(sums)):
            bad = [n for n, g in zip(self._names, self._grads) if not np.isfinite(g).all()]
            if bad:
                raise TrainingError(f"non-finite gradient on parameter {bad[0]!r}")
            with np.errstate(over="ignore"):    # unclipped, an inf v would stop its element
                bad = [n for n, g in zip(self._names, self._grads)
                       if clip_norm is None and np.isinf(g * (1.0 - self.b2) * g).any()]
            if bad:
                raise TrainingError(f"unclipped gradient on parameter {bad[0]!r} overflows "
                                    f"its second moment")
        self._grad_norm = global_norm(self._grads, sums)
        scale = 1.0 if clip_norm is None else clip_grad_norm(
            [self._store[1]], clip_norm, self._grad_norm)
        self.step_count += 1
        c1 = 1.0 - self.b1 ** self.step_count
        c2 = 1.0 - self.b2 ** self.step_count
        lr, b1, b2, decay = self.lr, self.b1, self.b2, self.lr * self.weight_decay
        # made per step, so it holds no memory through the backward sweep
        chunk = CHUNK_BYTES // self._store.itemsize
        scratch = np.empty((2, min(chunk, self._store.shape[1])), self._store.dtype)
        for start in range(0, self._store.shape[1], chunk):
            p, g, m, v = self._store[:, start:start + chunk]
            a, b = scratch[:, :p.size]
            m *= b1
            m += np.multiply(g, 1.0 - b1, a)
            v *= b2
            np.multiply(g, 1.0 - b2, a)
            a *= g
            v += a
            # a = (m / c1) / (sqrt(v / c2) + eps), the update
            np.divide(m, c1, a)
            np.sqrt(np.divide(v, c2, b), b)
            b += self.eps
            a /= b
            if decay:
                p -= np.multiply(p, decay, b)
            a *= lr
            p -= a
        return scale
