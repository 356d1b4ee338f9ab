"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from .errors import TrainingError
from .tensor import Tensor


def clip_grad_norm(grads: List[np.ndarray], max_norm: float) -> float:
    """Scale all grads in place so the global L2 norm is at most `max_norm`.

    Returns the scale that was applied (1.0 when no clipping was needed,
    including the all-zero case). Grads may be views of one buffer (the
    backward of ``a + b`` hands both inputs the same one): every element
    is scaled once.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total <= max_norm or total == 0.0:
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

    The update runs in place: every temporary lives in one scratch buffer
    of twice the largest parameter's size, viewed per parameter and made
    once per step, so that it holds no memory between steps.
    """

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._names = sorted(self.params)
        arrays = [p.data for p in self.params.values()]
        self._scratch_shape = (2, max((a.size for a in arrays), default=0))
        self._scratch_dtype = np.result_type(*arrays) if arrays else np.float64

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def gradients(self) -> List[np.ndarray]:
        """Grad buffers in parameter order; missing grads count as zeros."""
        out = []
        for name in self._names:
            p = self.params[name]
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            out.append(p.grad)
        return out

    def step(self, clip_norm: float | None = None) -> float:
        """One update over all parameters; returns the clip scale applied."""
        for name in self._names:
            g = self.params[name].grad
            # a finite sum proves every element finite (see tensor._check_finite)
            if g is not None and not math.isfinite(g.sum()) and not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient on parameter {name!r}")
        scale = 1.0
        if clip_norm is not None:
            scale = clip_grad_norm(self.gradients(), clip_norm)
        self.step_count += 1
        c1 = 1.0 - self.b1 ** self.step_count
        c2 = 1.0 - self.b2 ** self.step_count
        lr, b1, b2 = self.lr, self.b1, self.b2
        scratch = np.empty(self._scratch_shape, dtype=self._scratch_dtype)
        for name in self._names:
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            a = scratch[0, :m.size].reshape(m.shape)
            b = scratch[1, :m.size].reshape(m.shape)
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
            if self.weight_decay:
                p.data -= np.multiply(p.data, lr * self.weight_decay, b)
            a *= lr
            p.data -= a
        return scale
