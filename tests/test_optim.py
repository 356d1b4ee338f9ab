"""Optimizer semantics: clipping, decay, convergence."""

import numpy as np
import pytest

from moerec import Tape, Tensor
from moerec.errors import TrainingError
from moerec.optim import AdamW, clip_grad_norm
from moerec.rng import Rng


def test_clip_scale_applied():
    grads = [np.array([0.6, 0.0]), np.array([0.0])]  # global norm 0.6
    scale = clip_grad_norm(grads, 0.3)
    assert scale == pytest.approx(0.5)
    assert np.allclose(grads[0], [0.3, 0.0])


def test_clip_no_op_below_threshold():
    grads = [np.array([0.1])]
    assert clip_grad_norm(grads, 0.3) == 1.0
    assert grads[0][0] == 0.1


def test_clip_zero_gradients_safe():
    grads = [np.zeros(4)]
    assert clip_grad_norm(grads, 0.3) == 1.0


def test_clip_never_increases_norm():
    for seed in range(10):
        grads = [Rng(seed).normal(5), Rng(seed + 100).normal(3)]
        before = np.sqrt(sum(np.sum(g * g) for g in grads))
        clip_grad_norm(grads, 0.25)
        after = np.sqrt(sum(np.sum(g * g) for g in grads))
        assert after <= before + 1e-12
        assert after <= 0.25 + 1e-12


def test_clip_scales_aliased_gradients_once():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        tape.backward((a + b).sum())
    assert np.shares_memory(a.grad, b.grad)      # the backward of + aliases them
    assert clip_grad_norm([a.grad, b.grad], 1.0) == pytest.approx(0.5)
    assert np.allclose(a.grad, [0.5, 0.5]) and np.allclose(b.grad, [0.5, 0.5])


def test_clip_scales_overlapping_views_once():
    buf = np.arange(1.0, 7.0)
    grads = [buf[:3], buf.reshape(2, 3)[1], buf.reshape(3, 2), buf[::2]]
    expected = [g.copy() for g in grads]
    scale = clip_grad_norm(grads, 1.0)
    for g, before in zip(grads, expected):
        assert np.array_equal(g, before * scale)


def test_adamw_decay_only_path():
    p = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    p.grad = np.zeros(2)
    opt.step()
    assert np.allclose(p.data, np.array([2.0, -1.0]) * (1 - 0.1 * 0.5))


def test_adamw_descent_direction():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    with Tape() as tape:
        tape.backward((p * p).sum() * 0.5)
    opt.step()
    assert p.data[0] < 1.0


def test_adamw_converges_on_quadratic():
    # minimize 0.5 * ||p - 3||^2; optimum loss is 0
    p = Tensor(np.array([0.0, 0.0, 0.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    target = Tensor(np.array([3.0, 3.0, 3.0]))
    for _ in range(200):
        opt.zero_grad()
        with Tape() as tape:
            diff = p - target
            tape.backward((diff * diff).sum() * 0.5)
        opt.step()
    final = 0.5 * np.sum((p.data - 3.0) ** 2)
    assert final < 1e-3


def test_adamw_rejects_nonfinite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingError) as err:
        opt.step()
    assert "p" in str(err.value)


def test_adamw_step_counter_and_moment_shapes():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.01)
    assert opt.m["p"].shape == (2, 3)
    p.grad = np.ones((2, 3))
    opt.step()
    opt.step()
    assert opt.step_count == 2


class ReferenceAdamW:
    """The update as written before it ran in place: fresh temporaries for
    every product, quotient and square root."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = dict(params)
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.b1, self.b2 = betas
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, clip_norm):
        grads = []
        for name, p in sorted(self.params.items()):
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            grads.append(p.grad)
        scale = clip_grad_norm(grads, clip_norm)
        self.step_count += 1
        c1 = 1.0 - self.b1 ** self.step_count
        c2 = 1.0 - self.b2 ** self.step_count
        for name, p in sorted(self.params.items()):
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update
        return scale


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_in_place_adamw_matches_the_reference_update(dtype, weight_decay):
    from moerec import tensor as T
    shapes = {"w": (7, 5), "b": (5,), "c": (1,), "stack": (3, 4, 2)}
    T.set_default_dtype(dtype)
    try:
        init = {k: Rng(1).normal(int(np.prod(s))).reshape(s) for k, s in shapes.items()}
        ours = {k: Tensor(a, requires_grad=True) for k, a in init.items()}
        theirs = {k: Tensor(a, requires_grad=True) for k, a in init.items()}
        opt = AdamW(ours, lr=0.05, weight_decay=weight_decay)
        ref = ReferenceAdamW(theirs, lr=0.05, weight_decay=weight_decay)
        for step in range(40):
            for k, s in shapes.items():
                if (step + len(k)) % 5 == 0:
                    continue                       # this parameter gets no gradient
                g = Rng(100 + step).normal(int(np.prod(s))).reshape(s).astype(dtype)
                ours[k].grad, theirs[k].grad = g.copy(), g.copy()
            scales = opt.step(clip_norm=0.5), ref.step(clip_norm=0.5)
            assert scales[0] == scales[1] < 1.0    # clipping is active on every step
            opt.zero_grad()
            for p in theirs.values():
                p.grad = None
    finally:
        T.set_default_dtype("float64")
    for k in shapes:
        assert ours[k].data.dtype == np.dtype(dtype)
        assert np.array_equal(ours[k].data, theirs[k].data), k
