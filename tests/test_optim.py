"""Optimizer semantics: clipping, decay, convergence."""

import math
import warnings

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


@pytest.mark.parametrize("dtype,big", [("float32", 1e20), ("float64", 1e200)])
def test_clip_of_finite_grads_whose_squares_overflow(dtype, big):
    """The squared norm overflows the dtype, the norm does not: the grads are
    scaled to the bound, not zeroed, and no overflow warning escapes."""
    grads = [np.array([big, 1.0], dtype), np.array([-big], dtype)]
    norm = big * math.sqrt(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scale = clip_grad_norm(grads, 0.3)
    assert scale == pytest.approx(0.3 / norm, rel=1e-6)
    assert np.allclose(grads[0], [0.3 / math.sqrt(2.0), 0.3 / norm], rtol=1e-5, atol=0)
    assert np.allclose(grads[1], [-0.3 / math.sqrt(2.0)], rtol=1e-5, atol=0)


def test_a_clipped_step_takes_finite_grads_whose_sum_overflows():
    p = Tensor(np.zeros(2))
    p.data = p.data.astype(np.float32)
    opt = AdamW({"p": p}, lr=0.1)
    p.grad = np.array([3e38, 3e38], np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scale = opt.step(clip_norm=0.3)
    assert scale == pytest.approx(0.3 / (3e38 * math.sqrt(2.0)), rel=1e-6)
    assert np.allclose(p.data, [-0.1, -0.1], rtol=1e-5)


@pytest.mark.parametrize("dtype,big", [("float64", 1e200), ("float32", 1e22)])
def test_an_unclipped_step_refuses_finite_grads_whose_second_moment_overflows(dtype, big):
    # unclipped, (1 - b2) * g * g reads inf: that element's second moment
    # would stay inf, and m / sqrt(inf) = 0 would never move it again
    p, q = Tensor(np.ones(2)), Tensor(np.ones(3))
    p.data, q.data = p.data.astype(dtype), q.data.astype(dtype)    # Tensor casts to float64
    opt = AdamW({"p": p, "q": q}, lr=0.1)
    p.grad, q.grad = np.array([1.0, 1.0], dtype), np.array([0.0, big, 0.0], dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match="parameter 'q' overflows its second moment"):
            opt.step()
        assert np.array_equal(p.data, [1.0, 1.0]) and np.array_equal(q.data, [1.0, 1.0, 1.0])
        assert opt.step_count == 0 and not opt.m["q"].any() and not opt.v["q"].any()
        opt.step(clip_norm=1.0)                 # the clipped step takes the same gradient
    assert np.isfinite(opt.v["q"]).all() and q.data[1] < 1.0
    # squares whose sum alone overflows leave every second moment finite
    r = Tensor(np.zeros(2))
    opt = AdamW({"r": r}, lr=0.1)
    r.grad = np.array([1e154, 1e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.step()
    assert np.allclose(r.data, [-0.1, -0.1]) and np.isfinite(opt.v["r"]).all()


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


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_clip_refuses_a_nan_or_nonpositive_bound_at_both_entry_points(bad):
    # a NaN bound once passed the check and scaled every gradient, and then
    # every parameter, by NaN
    grads = [np.array([3.0, 4.0]), np.array([1.0])]
    with pytest.raises(ValueError, match="max_norm must be positive"):
        clip_grad_norm(grads, bad)
    assert np.array_equal(grads[0], [3.0, 4.0]) and np.array_equal(grads[1], [1.0])
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    p.grad = np.array([3.0, 4.0])
    with pytest.raises(ValueError, match="max_norm must be positive"):
        opt.step(clip_norm=bad)
    assert np.array_equal(p.data, [1.0, 2.0]) and opt.step_count == 0


@pytest.mark.parametrize("dtype,big", [("float64", 1e200), ("float32", 3e38)])
def test_adamw_keeps_the_pre_clip_norm_read_only(dtype, big):
    p = Tensor(np.zeros(2, dtype), requires_grad=True)
    q = Tensor(np.zeros((1, 2), dtype), requires_grad=True)
    opt = AdamW({"p": p, "q": q}, lr=0.1)
    assert opt.grad_norm is None
    with pytest.raises(AttributeError):
        opt.grad_norm = 1.0
    p.grad, q.grad = np.array([3.0, 0.0], dtype), np.array([[4.0, 0.0]], dtype)
    opt.step(clip_norm=1.0)
    assert opt.grad_norm == 5.0 and p.grad[0] == pytest.approx(0.6)
    p.grad[...], q.grad[...] = 0.0, [[4.0, 0.0]]
    opt.step()                                 # unclipped steps keep it too
    assert opt.grad_norm == 4.0
    p.grad[...] = [big, big]                   # squares past the dtype's range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.step(clip_norm=1.0)
    assert opt.grad_norm == pytest.approx(math.hypot(big, big, 4.0), rel=1e-6)


def test_adamw_step_counter_and_moment_shapes():
    p = Tensor(np.zeros((2, 3)), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.01)
    assert opt.m["p"].shape == (2, 3)
    p.grad = np.ones((2, 3))
    opt.step()
    opt.step()
    assert opt.step_count == 2


def test_adamw_refuses_parameters_of_two_dtypes():
    params = {"a": Tensor(np.zeros(2)), "b": Tensor(np.zeros(3))}
    params["b"].data = params["b"].data.astype(np.float32)
    with pytest.raises(TrainingError, match="several dtypes: float32, float64"):
        AdamW(params)


class ReferenceAdamW:
    """The per-tensor update, written before the flat store and the in-place
    update: fresh temporaries for every product, quotient and square root,
    and the grads that backward leaves on each tensor."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = dict(params)
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.b1, self.b2 = betas
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, clip_norm):
        grads = []
        for name, p in sorted(self.params.items()):
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            grads.append(p.grad)
        self.norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
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
            assert opt.grad_norm == ref.norm       # the pre-clip norm, name-ordered
            opt.zero_grad()
            for p in theirs.values():
                p.grad = None
    finally:
        T.set_default_dtype("float64")
    for k in shapes:
        assert ours[k].data.dtype == np.dtype(dtype)
        assert np.array_equal(ours[k].data, theirs[k].data), k


# --- the flat parameter store ------------------------------------------------

def assert_in_store(opt):
    """Each parameter's data and grad, and its two moments, are views of
    rows 0-3 of one (4, n) store, which they tile without overlap."""
    tensors = list(opt.params.values())
    store = tensors[0].data.base
    assert store.shape == (4, sum(p.data.size for p in tensors))
    covered = np.zeros(store.shape, dtype=int)
    for name, p in opt.params.items():
        assert p.grad is p.store_grad
        for row, view in enumerate((p.data, p.grad, opt.m[name], opt.v[name])):
            assert view.base is store and view.flags.c_contiguous
            offset = view.__array_interface__["data"][0] - store.__array_interface__["data"][0]
            start = offset // store.itemsize - row * store.shape[1]
            assert 0 <= start <= store.shape[1] - view.size
            covered[row, start:start + view.size] += 1
    assert np.all(covered == 1)


class StageStopped(Exception):
    pass


def recording_adamw(monkeypatch, cls=AdamW, stop_after=None):
    """Patch training's optimizer with `cls`, recording every instance and
    checking the store right after each is built; with `stop_after`, the
    stage ends by StageStopped after that many steps of one optimizer."""
    from moerec import training
    built = []

    class Recording(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if cls is AdamW:
                assert_in_store(self)
            built.append(self)

        def step(self, *args, **kwargs):
            scale = super().step(*args, **kwargs)
            if stop_after is not None and self.step_count >= stop_after:
                raise StageStopped
            return scale

    monkeypatch.setattr(training, "AdamW", Recording)
    return built


def test_stage1_parameters_live_in_the_store_of_the_last_optimizer(monkeypatch):
    from tests.test_training import small_corpus, small_run
    from moerec.training import train_stage1, vae_config_from
    split, _ = small_corpus()
    run = small_run()
    built = recording_adamw(monkeypatch)
    vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    warm, joint = built
    shared = set(warm.params) & set(joint.params)
    assert shared and shared == set(warm.params)    # the warm-up tensors are shared
    assert all(warm.params[k] is joint.params[k] for k in shared)
    assert_in_store(joint)
    assert joint.params == vae.params()


def test_stage2_repacks_the_stage1_tensors_into_its_store(monkeypatch):
    from tests.test_training import small_corpus, small_run
    from moerec.training import train_stage1, train_stage2, vae_config_from
    split, _ = small_corpus()
    run = small_run()
    vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
    before = {k: p.data.copy() for k, p in vae.params().items()}
    built = recording_adamw(monkeypatch, stop_after=1)
    with pytest.raises(StageStopped):
        train_stage2(split, vae, run, run.stage2())
    (opt,) = built
    assert all(opt.params[k] is p for k, p in vae.params().items())
    assert_in_store(opt)
    assert any(not np.array_equal(before[k], p.data) for k, p in vae.params().items())


def test_store_add_never_writes_through_an_aliased_grad():
    p = Tensor(np.zeros(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1)
    with Tape() as tape:
        tape.backward((p + q).sum())              # hands p and q one array
    assert p.grad is p.store_grad and not np.shares_memory(p.grad, q.grad)
    with Tape() as tape:
        tape.backward((q + p).sum())
    assert np.array_equal(p.grad, [2.0] * 3) and np.array_equal(q.grad, [2.0] * 3)
    # a grad reset from outside is no longer the store's: p and q alias again
    p.zero_grad()
    q.zero_grad()
    with Tape() as tape:
        tape.backward((p + q).sum())
    assert np.shares_memory(p.grad, q.grad)
    with Tape() as tape:
        tape.backward((p * 3.0).sum())
    assert np.array_equal(q.grad, [1.0] * 3) and np.array_equal(p.grad, [4.0] * 3)
    opt.step()
    assert p.grad is p.store_grad and np.array_equal(p.grad, [4.0] * 3)
    assert np.array_equal(q.grad, [1.0] * 3)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_grads_replaced_from_outside_match_the_reference(dtype):
    from moerec import tensor as T
    shapes = {"w": (3, 4), "b": (3,), "u": (2, 3)}
    T.set_default_dtype(dtype)
    try:
        init = {k: Rng(2).normal(int(np.prod(s))).reshape(s) for k, s in shapes.items()}
        ours = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        theirs = {k: Tensor(a.copy(), requires_grad=True) for k, a in init.items()}
        x = Tensor(Rng(3).normal(10).reshape(5, 2))
        opt = AdamW(ours, lr=0.05, weight_decay=0.01)
        ref = ReferenceAdamW(theirs, lr=0.05, weight_decay=0.01)
        for step in range(24):
            for i, (params, optimizer) in enumerate(((ours, opt), (theirs, ref))):
                optimizer.zero_grad()
                how = step % 4
                if i == 0 and how == 1:
                    params["w"].zero_grad()               # None: backward assigns
                elif i == 0 and how == 2:
                    params["b"].grad = np.zeros(3, dtype)  # a fresh array to add to
                for _ in range(2):                         # two micro-batches
                    with Tape() as tape:
                        h = (x @ params["u"] + params["b"]) @ params["w"]
                        tape.backward((h * h).mean() * 0.5)
                if how == 3:
                    params["u"].grad = None                # no gradient this step
                optimizer.step(clip_norm=0.5)
            for k in shapes:
                assert np.array_equal(ours[k].data, theirs[k].data), (step, k)
    finally:
        T.set_default_dtype("float64")


def test_smoke_training_with_the_store_equals_the_reference_optimizer(monkeypatch):
    from tests.test_training import small_corpus, small_run
    from moerec.training import train_stage1, train_stage2, vae_config_from
    split, _ = small_corpus()
    run = small_run(s2_epochs=2)
    finals = []
    for cls in (AdamW, ReferenceAdamW):
        with monkeypatch.context() as patch:
            recording_adamw(patch, cls)
            vae, _ = train_stage1(split, vae_config_from(run, split), run.stage1())
            built = recording_adamw(patch, cls, stop_after=20)
            with pytest.raises(StageStopped):
                train_stage2(split, vae, run, run.stage2())
        (opt,) = built
        assert opt.step_count == 20
        finals.append({k: p.data.tobytes() for k, p in opt.params.items()})
    assert finals[0].keys() == finals[1].keys()
    for k in finals[0]:
        assert finals[0][k] == finals[1][k], k
