"""Tape mechanics, op semantics, and backward rules for the tensor engine."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from moerec import Tape, Tensor, grad_check
from moerec.config import RunConfig
from moerec.data import SynthSpec, generate_synthetic, normalized_ratings, split_records
from moerec.errors import NumericError, ShapeError, TapeError
from moerec.moe import LanguageModel, Vocab
from moerec.optim import AdamW
from moerec.rng import Rng
from moerec import tensor as T
from moerec.training import (
    ExplainerBundle,
    _stage2_loss,
    lm_config_from,
    prepare_sequence,
    vae_config_from,
)
from moerec.verify import (
    bmm,
    clip,
    concat,
    fused_cases,
    fused_gap,
    fused_grad_error,
    gather_pairs,
    grouped_matmul,
    log_softmax,
    permute,
    reference_attention,
    reference_attention_sublayer,
    reference_expert_ffn,
    reference_kl_closed_form_batch,
    reference_mlp,
    reference_rms_norm,
    reference_weighted_nll,
    scatter_rows,
    softmax,
    softplus,
    tanh,
    taped_run,
)
from moerec.vae import LOG_VAR_MAX, LOG_VAR_MIN, GmmPrior, VaeGmm, elbo_loss


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[2.0, 3.0], [4.0, 5.0]])
    out = eye @ m
    assert np.array_equal(out.data, m.data)


def test_matmul_known_product():
    # frozen from a naive triple loop: [[19,22],[43,50]]
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def test_matmul_random_against_triple_loop():
    rng = Rng(3)
    a = rng.normal(12).reshape(3, 4)
    b = rng.normal(20).reshape(4, 5)
    assert np.allclose((Tensor(a) @ Tensor(b)).data, naive_matmul(a, b), atol=1e-12)


def test_matmul_zeros():
    z = Tensor(np.zeros((2, 3)))
    any_ = Tensor(Rng(1).normal(12).reshape(3, 4))
    assert np.array_equal((z @ any_).data, np.zeros((2, 4)))


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError) as err:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_softmax_symmetry_and_analytic():
    out = softmax(Tensor([1.0, 1.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)
    out = softmax(Tensor([0.0, np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)
    a = Rng(8).normal(6)
    base = softmax(Tensor(a)).data
    shifted = softmax(Tensor(a + 123.456)).data
    assert np.max(np.abs(base - shifted)) <= 1e-12


def test_softmax_sums_to_one():
    for seed in range(20):
        x = Rng(seed).normal(9)
        assert abs(softmax(Tensor(x)).data.sum() - 1.0) <= 1e-12


def test_softmax_empty_is_error():
    with pytest.raises(ShapeError):
        softmax(Tensor(np.zeros(0)))


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = x.sum()
        tape.backward(loss)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square_at_three():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = (x * x).sum()
        tape.backward(loss)
    assert np.allclose(x.grad, [6.0])


def test_backward_fanout_accumulates():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = x * 3.0
        loss = (y + y + x).sum()  # d/dx = 3 + 3 + 1
        tape.backward(loss)
    assert np.allclose(x.grad, [7.0])


def test_backward_additive_across_tapes():
    x = Tensor([1.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            tape.backward((x * x).sum())
    assert np.allclose(x.grad, [4.0])
    x.zero_grad()
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
        with pytest.raises(TapeError):
            tape.backward(y)


def test_backward_rejects_foreign_loss():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        pass_through = x * 1.0  # recorded
    loose = Tensor(3.0)
    with pytest.raises(TapeError):
        tape.backward(loose)


def test_tape_single_sweep_visits_each_rule_once():
    x = Tensor([1.0, 2.0], requires_grad=True)
    calls = []
    with Tape() as tape:
        y = x * x
        z = y.sum()
        for rec in tape.records:
            original = rec.backward
            rec.backward = (lambda fn, marker: lambda g: calls.append(marker) or fn(g))(
                original, id(rec)
            )
        tape.backward(z)
    assert len(calls) == len(set(calls)) == 2
    with pytest.raises(TapeError):
        tape.backward(z)


def test_ops_outside_tape_are_untracked():
    x = Tensor([1.0], requires_grad=True)
    y = x * 2.0
    assert y.requires_grad is False


def test_tape_records_are_topologically_ordered():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        a = x * 2.0
        b = a + x
        c = (b * a).sum()
    produced_at = {id(rec.out): i for i, rec in enumerate(tape.records)}
    for i, rec in enumerate(tape.records):
        for inp in rec.inputs:
            if id(inp) in produced_at:
                assert produced_at[id(inp)] < i


def test_slice_rejects_advanced_tuple_indexing():
    x = Tensor(np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        T.slice_view(x, (np.array([0, 0]), np.array([1, 1])))


def test_row_indices_must_be_integers():
    # a cast to int64 would read the mask as rows 1, 0, 1 and 1.9 as row 1
    x = Tensor(np.arange(6.0).reshape(3, 2))
    for bad in (np.array([True, False, True]), [1.9], np.array([0.0, 2.0])):
        with pytest.raises(ShapeError):
            x[bad]
        with pytest.raises(ShapeError):
            T.take_rows(x, bad)
    for rows_a, rows_b in ((np.array([2.7]), np.array([0.2])), ([2], [0.0])):
        with pytest.raises(ShapeError):
            T.concat_rows(x, rows_a, x, rows_b)
    assert np.array_equal(x[[2, 0]].data, x.data[[2, 0]])
    assert np.array_equal(x[np.array([1], dtype=np.uint8)].data, x.data[[1]])
    assert x[[]].shape == (0, 2) and T.concat_rows(x, [], x, []).shape == (0, 4)


def _id_entry_points() -> dict:
    """name -> (call with one id array, valid ids, out-of-range ids, the
    class those raise) for each op and model entry point that takes ids."""
    from moerec.errors import ConfigError, TableLookupError
    from moerec.moe import (BOS, EOS, ExpertBank, GateRouter, LanguageModel, LmConfig,
                            decompose_experts)
    from moerec.vae import VaeConfig, VaeGmm, elbo_loss

    rng = Rng(3)
    x, w = Tensor(rng.normal(6).reshape(3, 2)), Tensor(rng.normal(12).reshape(2, 2, 3))
    router = GateRouter(2, decompose_experts(2, 4, 1, active=1, gates=2), Rng(0))
    # a bank of three experts, k = 2, and the front of its sublayer over x
    three = decompose_experts(3, 3, 1, active=2, gates=2)
    expert_bank, three_router = ExpertBank(2, three, Rng(1)), GateRouter(2, three, Rng(2))
    gain, row_gates = Tensor(np.ones(2)), np.array([1, 0, 1])
    norm = T._rms_parts(x.data, gain.data)
    front = (three_router, gain, norm, three_router.scores(row_gates, norm[0]))
    moe = decompose_experts(2, 8, 2, active=2, gates=2)
    lm = LanguageModel(LmConfig(vocab_size=20, model_dim=8, blocks=1, heads=2, context=16,
                                moe=moe), Rng(0))
    vae = VaeGmm(VaeConfig(n_users=6, n_items=5, d_emb=4, latent_dim=3, hidden=6,
                           clusters=2), Rng(0))
    pair = np.array([0, 1, 2])
    return {
        "grouped_matmul": (lambda ids: grouped_matmul(x, w, ids),
                           np.array([1, 0, 1]), np.array([1, 2, 0]), ShapeError),
        "weighted_nll": (lambda ids: T.weighted_nll(x, ids, np.ones(3)),
                         np.array([0, 1, 1]), np.array([0, 2, 1]), ShapeError),
        "moe_sublayer": (lambda ids: T.moe_sublayer(
                             x, gain, three_router.weights, expert_bank.w1, expert_bank.b1,
                             expert_bank.w2, expert_bank.b2, ids, 2, *front[2:]),
                         np.array([0, 2, 1, 2, 0, 1]), np.array([0, 2, 1, 3, 0, 1]),
                         ShapeError),
        "ExpertBank.run": (lambda ids: expert_bank.run(x, ids, *front),
                           np.array([0, 2, 1, 2, 0, 1]), np.array([0, 2, 1, 3, 0, 1]),
                           ShapeError),
        "GateRouter.scores": (lambda ids: router.scores(ids, x.data),
                              np.array([1, 0, 1]), np.array([1, 2, 0]), ConfigError),
        "forward_rows.tokens": (lambda ids: lm.forward_rows(ids, np.array([1])),
                                np.array([[4, 5, 6]]), np.array([[4, 5, 20]]), ShapeError),
        "forward_rows.gates": (lambda ids: lm.forward_rows(np.array([[4, 5], [6, 7]]), ids),
                               np.array([1, 0]), np.array([1, 2]), ConfigError),
        "generate.gate": (lambda ids: lm.generate([[BOS, 4, 5], [BOS, 6, 7]], ids, max_len=2),
                          np.array([1, 0]), np.array([1, 2]), ConfigError),
        "generate.banned": (lambda ids: lm.generate([[BOS, 4, 5]], [1], max_len=2,
                                                    banned=ids),
                            np.array([1, 2, 6]), np.array([1, 20, 6]), ShapeError),
        "batched_nll": (lambda ids: lm.batched_nll([ids], [3], np.array([1])),
                        np.array([BOS, 4, 5, 6, EOS]), np.array([BOS, 4, 20, 6, EOS]),
                        ShapeError),
        "VaeGmm.encode": (lambda ids: vae.encode(ids, pair),
                          np.array([0, 6, 2]), np.array([0, 7, 2]), TableLookupError),
        "VaeGmm.gates": (lambda ids: vae.gates(pair, ids),
                         np.array([4, 0, 5]), np.array([4, 0, 6]), TableLookupError),
        "elbo_loss": (lambda ids: elbo_loss(vae, ids, pair, np.array([0.2, 0.5, 0.9]), 0.1,
                                            Rng(0)),
                      np.array([0, 1, 2]), np.array([-1, 1, 2]), TableLookupError),
    }


@pytest.mark.parametrize("kind", ["mask", "float"])
@pytest.mark.parametrize("entry", sorted(_id_entry_points()))
def test_ids_must_be_integers_at_every_entry_point(entry, kind):
    # a cast to int64 would read a mask as ids 0 and 1 and truncate a float id
    call, valid, _, _ = _id_entry_points()[entry]
    call(valid)
    bad = valid % 2 == 0 if kind == "mask" else valid.astype(np.float64)
    with pytest.raises(ShapeError, match="must be integers"):
        call(bad)


@pytest.mark.parametrize("entry", sorted(_id_entry_points()))
def test_out_of_range_ids_raise_the_documented_class(entry):
    call, _, out_of_range, error = _id_entry_points()[entry]
    with pytest.raises(error):
        call(out_of_range)


@pytest.mark.parametrize("gates", [[1], [1, 0, 1]])
def test_forward_rows_takes_one_gate_per_sequence(gates):
    from moerec.moe import LanguageModel, LmConfig, decompose_experts

    lm = LanguageModel(LmConfig(vocab_size=20, model_dim=8, blocks=1, heads=2, context=16,
                                moe=decompose_experts(2, 8, 2, active=2, gates=2)), Rng(0))
    with pytest.raises(ShapeError, match="gates for 2 sequences"):
        lm.forward_rows(np.array([[4, 5], [6, 7]]), np.array(gates))


def test_empty_id_arrays_stay_valid():
    from moerec.vae import VaeConfig, VaeGmm

    w = Tensor(np.ones((2, 2, 3)))
    assert grouped_matmul(Tensor(np.zeros((0, 2))), w, []).shape == (0, 3)
    vae = VaeGmm(VaeConfig(n_users=6, n_items=5, d_emb=4, latent_dim=3, hidden=6,
                           clusters=2), Rng(0))
    mu, log_var = vae.encode(np.array([], dtype=np.int64), [])
    assert mu.shape == log_var.shape == (0, 3)


def test_nonfinite_raises():
    with pytest.raises(NumericError):
        T.log(Tensor([0.0]))
    with pytest.raises(NumericError):
        Tensor([np.inf])
    with pytest.raises(NumericError):
        T.exp(Tensor([1000.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_element_raises_wherever_it_sits(bad):
    for shape, where in (((16, 64), (7, 33)), ((1,), (0,)), ((3, 4), (2, 3))):
        arr = np.ones(shape)
        arr[where] = bad
        with pytest.raises(NumericError):
            Tensor(arr)
        with pytest.raises(NumericError):
            T.neg(Tensor(np.ones(shape))) * Tensor(arr)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_zero_stride_arrays_are_checked_by_their_one_value(bad):
    # a broadcast scalar repeats one value, and the whole pass over it
    # raises or passes as that value does
    with pytest.raises(NumericError):
        Tensor(np.broadcast_to(bad, (300, 4)))
    with pytest.raises(NumericError):
        T._check_finite(np.broadcast_to(bad, (5,)), "a broadcast")
    T._check_finite(np.broadcast_to(1.5, (300, 4)), "a broadcast")
    T._check_finite(np.broadcast_to(bad, (0, 4)), "an empty broadcast")
    assert Tensor(np.broadcast_to(bad, (3, 0))).shape == (3, 0)


def test_finite_array_with_overflowing_sum_passes():
    # the check takes no sum, so values whose sum overflows pass
    big = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        assert np.array_equal(Tensor(big).data, big)
        assert np.array_equal((Tensor(big) * 1.0).data, big)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_check_warns_nothing_where_the_sum_overflows(dtype):
    # under the default error state, and in the CI's -W error::RuntimeWarning
    # form, values whose sum overflows pass with no warning at all, while a
    # NaN or an infinity among them still raises
    big = np.array([np.finfo(dtype).max * 0.9] * 2, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T._check_finite(big, "huge values")
        T._check_finite(np.broadcast_to(big[0], (40, 40)), "a huge broadcast")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError):
                T._check_finite(np.append(big, dtype(bad)), "huge values")


def test_composite_backward_matches_grad_check():
    w = Tensor(Rng(5).normal(12).reshape(4, 3))

    def f(x):
        h = softmax(x.reshape(2, 2) @ Tensor(Rng(9).normal(4).reshape(2, 2)))
        return -(T.log(h) * Tensor([[0.3, 0.7], [0.5, 0.5]])).sum()

    x = Tensor(Rng(6).normal(4))
    assert grad_check(f, x) <= 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_grad_check_sweep_all_ops(seed):
    rng = Rng(1000 + seed)
    c6 = Tensor(rng.normal(6))
    cp6 = Tensor(rng.uniform(6) + 0.5)
    c32 = Tensor(rng.normal(6).reshape(3, 2))
    c2 = Tensor(rng.normal(2))
    c13 = Tensor(rng.normal(3).reshape(1, 3))
    c22 = Tensor(rng.normal(4).reshape(2, 2))
    c42 = Tensor(rng.normal(8).reshape(4, 2))
    cases = {
        "add": lambda x: (x + c6).sum(),
        "mul": lambda x: (x * c6).sum(),
        "div": lambda x: (x / cp6).sum(),
        "rdiv": lambda x: (c6 / (x * x + 1.0)).sum(),
        "exp": lambda x: T.exp(x).sum(),
        "log": lambda x: T.log(x * x + 1.0).sum(),
        "sqrt": lambda x: T.sqrt(x * x + 0.5).sum(),
        "tanh": lambda x: tanh(x).sum(),
        "sigmoid": lambda x: T.sigmoid(x).mean(),
        "softplus": lambda x: softplus(x).sum(),
        "pow": lambda x: ((x * x + 1.0) ** 1.5).sum(),
        "softmax": lambda x: (softmax(x) * c6).sum(),
        "log_softmax": lambda x: (log_softmax(x) * c6).sum(),
        "matmul": lambda x: (x.reshape(2, 3) @ c32).sum(),
        "transpose": lambda x: (x.reshape(2, 3).T * c32).sum(),
        "mean_axis": lambda x: (x.reshape(2, 3).mean(axis=1) * c2).sum(),
        "sum_keepdims": lambda x: (x.reshape(2, 3).sum(axis=0, keepdims=True) * c13).sum(),
        "slice": lambda x: (x.reshape(2, 3)[:, 1:] * c22).sum(),
        "take_rows": lambda x: (x.reshape(3, 2)[np.array([0, 2, 2])] * c32).sum(),
        "concat": lambda x: concat([x.reshape(2, 3), x.reshape(2, 3) * 2.0], axis=0).sum(),
        "clip": lambda x: clip(x * 3.0, -1.0, 1.0).sum(),
        "scatter_rows": lambda x: (scatter_rows(x.reshape(3, 2), np.array([1, 0, 1]), 4)
                                   * c42).sum(),
        "gather_pairs": lambda x: gather_pairs(x.reshape(2, 3),
                                                 np.array([0, 1, 1]),
                                                 np.array([2, 0, 0])).sum(),
        "bmm": lambda x: (bmm(x.reshape(2, 1, 3), c32.reshape(2, 3, 1))
                          * c2.reshape(2, 1, 1)).sum(),
        "bmm_right": lambda x: (bmm(c6.reshape(2, 1, 3), x.reshape(2, 3, 1))
                                * c2.reshape(2, 1, 1)).sum(),
        "permute": lambda x: (permute(x.reshape(1, 2, 3), (2, 0, 1))
                              * c32.reshape(3, 1, 2)).sum(),
        # three groups, the middle one empty
        "grouped_matmul": lambda x: (grouped_matmul(
            x.reshape(3, 2), c6.reshape(3, 2, 1), np.array([2, 0, 2])) * c32[:, :1]).sum(),
        "grouped_matmul_stack": lambda x: (grouped_matmul(
            c32, x.reshape(3, 2, 1), np.array([2, 0, 2])) * c32[:, 1:]).sum(),
    }
    for name, f in cases.items():
        x = Tensor(Rng(seed).normal(6) * 0.7)
        err = grad_check(f, x)
        assert err <= 1e-4, f"{name}: grad error {err}"


def test_grad_check_quadratic_tight():
    x = Tensor(Rng(17).normal(5))
    err = grad_check(lambda t: (t * t).sum() * 0.5, x)
    assert err <= 1e-10


def test_grad_check_detects_scaled_gradient():
    # an identity op whose backward rule doubles the upstream gradient,
    # wrapped around the whole function: analytic = 2 * true gradient
    def bad_double(a):
        return T._make(a.data.copy(), "bad_double", (a,), lambda g: (2.0 * g,))

    x = Tensor(np.array([2.0, 3.0]))
    err = grad_check(lambda t: bad_double((t * t).sum() * 0.5), x)
    assert 0.9 < err < 1.1


def test_broadcast_bias_and_row_scale():
    w = Tensor(Rng(21).normal(6).reshape(2, 3))

    def f_bias(b):
        return ((w + b) * (w + b)).sum()

    assert grad_check(f_bias, Tensor(Rng(22).normal(3))) <= 1e-6

    def f_scale(s):
        return (w * s.reshape(2, 1)).sum()

    assert grad_check(f_scale, Tensor(Rng(23).normal(2))) <= 1e-6


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        y = x * x
        loss = (y.detach() * x).sum()  # only the direct x factor sees gradient
        tape.backward(loss)
    assert np.allclose(x.grad, [4.0])


def test_float32_mode_roundtrip():
    T.set_default_dtype("float32")
    try:
        t = Tensor([1.0, 2.0])
        assert t.data.dtype == np.float32
        out = (t * t).sum()
        assert out.data.dtype == np.float32
    finally:
        T.set_default_dtype("float64")
    assert Tensor([1.0]).data.dtype == np.float64


def test_bmm_matches_per_matrix_matmul_and_checks_shapes():
    a = Rng(40).normal(2 * 3 * 4 * 5).reshape(2, 3, 4, 5)
    b = Rng(41).normal(2 * 3 * 5 * 2).reshape(2, 3, 5, 2)
    out = bmm(Tensor(a), Tensor(b)).data
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], a[i, j] @ b[i, j])
    with pytest.raises(ShapeError):
        bmm(Tensor(a), Tensor(b[:1]))
    with pytest.raises(ShapeError):
        bmm(Tensor(a[0, 0]), Tensor(b[0, 0]))


def test_permute_is_contiguous_transpose():
    a = Rng(42).normal(24).reshape(2, 3, 4)
    out = permute(Tensor(a), (1, 2, 0)).data
    assert np.array_equal(out, a.transpose(1, 2, 0)) and out.flags.c_contiguous
    with pytest.raises(ShapeError):
        permute(Tensor(a), (0, 0, 1))


def test_grouped_matmul_matches_row_loop_in_any_order():
    x = Rng(43).normal(7 * 3).reshape(7, 3)
    w = Rng(44).normal(4 * 3 * 2).reshape(4, 3, 2)
    for groups in (np.array([0, 0, 1, 3, 3, 3, 3]), np.array([3, 0, 3, 1, 0, 3, 3])):
        out = grouped_matmul(Tensor(x), Tensor(w), groups).data
        expected = np.stack([x[i] @ w[g] for i, g in enumerate(groups)])
        assert np.max(np.abs(out - expected)) <= 1e-15
    empty = grouped_matmul(Tensor(np.zeros((0, 3))), Tensor(w), np.zeros(0, dtype=np.int64))
    assert empty.shape == (0, 2)
    with pytest.raises(ShapeError):
        grouped_matmul(Tensor(x), Tensor(w), np.full(7, 4))
    with pytest.raises(ShapeError):
        grouped_matmul(Tensor(x), Tensor(w), np.zeros(6, dtype=np.int64))


def test_grouped_matmul_empty_group_gets_zero_gradient():
    w = Tensor(Rng(45).normal(3 * 2 * 2).reshape(3, 2, 2), requires_grad=True)
    x = Tensor(Rng(46).normal(8).reshape(4, 2), requires_grad=True)
    with Tape() as tape:
        tape.backward(grouped_matmul(x, w, np.array([0, 2, 2, 0])).sum())
    assert np.all(w.grad[1] == 0.0) and np.all(w.grad[0] != 0.0)


def add_at_in_float64(shape, idx, values):
    """The scatter's reference: ``np.add.at`` into float64 zeros, on a float64
    copy of `values`, rounded once to their dtype."""
    out = np.zeros(shape)
    np.add.at(out, idx, np.asarray(values, dtype=np.float64))
    return out.astype(values.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_index_add_equals_add_at_with_duplicates(dtype):
    rng = Rng(47)
    values = (rng.normal(300 * 4) * 10.0 ** (rng.integers(300 * 4, 12) - 6)).astype(dtype)
    rows = rng.integers(300, 9)
    cols = rng.integers(300, 4)
    for idx, part in ((rows, values.reshape(300, 4)), ((rows, cols), values[:300])):
        expected = add_at_in_float64((9, 4), idx, part)
        if dtype == np.float64:              # the reference is np.add.at itself
            direct = np.zeros((9, 4))
            np.add.at(direct, idx, part)
            assert direct.tobytes() == expected.tobytes()
        got = T._index_add((9, 4), idx, part)
        assert got.dtype == dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fan_in_sums_equal_the_index_scatter(dtype, k):
    # moe_sublayer sums each row's k pairs through a fixed fan-in; the ids
    # come in a shuffled order, so a row's pairs are not adjacent
    rng = Rng(49 + k)
    n, width = 40, 5
    ids = np.repeat(np.arange(n), k)[np.argsort(rng.uniform(n * k))]
    values = (rng.normal(n * k * width) * 10.0 ** (rng.integers(n * k * width, 12) - 6))
    values = values.reshape(n * k, width).astype(dtype)
    values[ids == 3] = -0.0                 # bincount's zero start makes this +0.0
    slots = np.argsort(ids, kind="stable").reshape(n, k)
    got = T._fan_in_sums(values, slots)
    want = add_at_in_float64((n, width), ids, values)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.tobytes() == want.tobytes() == T._index_add((n, width), ids, values).tobytes()
    assert not np.signbit(got[3]).any()


def test_float32_index_add_rounds_once_not_per_addition():
    # 1 + 2**-24 is a float32 tie, so each float32 addition of 2**-24 to
    # 1.0 rounds back to 1.0; summed in float64 first, they survive
    values = np.array([1.0] + [2.0 ** -24] * 4, dtype=np.float32)
    rows = np.zeros(5, dtype=np.int64)
    per_addition = np.zeros(1, dtype=np.float32)
    np.add.at(per_addition, rows, values)
    got = T._index_add((1,), rows, values)
    assert per_addition[0] == 1.0
    assert got.dtype == np.float32 and got[0] == np.float32(1.0 + 2.0 ** -22)


# --- fused ops against the chains they replace ---

FUSED = fused_cases(5)


def body_cases(seed: int) -> dict:
    """name -> (the body as one recorded op, its reference chain, input
    arrays) for two bodies inside the sublayer ops, each input drawn from a
    substream named after its case as in fused_cases: the causal attention
    of attention_sublayer (tensor._attention_parts), two sequences of three
    queries after no cached keys and after two, under 1, 2 and 4 heads; and
    the grouped tanh experts of moe_sublayer (tensor._tanh_mlp on the
    grouped layers), expert groups in no order, one of four experts getting
    no rows."""
    def normal(*shape) -> np.ndarray:
        return rng.normal(int(np.prod(shape))).reshape(shape)

    def attention(q, k, v, heads, offset):
        split = k.shape[:2] + (heads, k.shape[2] // heads)
        out, back = T._attention_parts(q.data, k.data.reshape(split).transpose(0, 2, 3, 1).copy(),
                                       v.data.reshape(split).transpose(0, 2, 1, 3).copy(), offset)
        return T._make(out, "attention", (q, k, v), back)

    def expert_ffn(*stacks):
        parts = T._group_parts(experts, stacks[1].shape[0])
        out, back = T._tanh_mlp("expert_ffn", tuple(t.data for t in stacks),
                                lambda x, w: T._grouped_forward(x, w, parts),
                                lambda g, x, w: T._grouped_backward(g, x, w, parts),
                                lambda b: b.take(experts, axis=0),
                                lambda shape, g: T._group_sums(shape, g, parts, experts))
        return T._make(out, "expert_ffn", stacks, back)

    cases = {}
    for heads in (1, 2, 4):
        for offset in (0, 2):
            name = f"attention.h{heads}.o{offset}"
            rng = Rng(seed).substream(name)
            cases[name] = (
                lambda q, k, v, h=heads, o=offset: attention(q, k, v, h, o),
                lambda q, k, v, h=heads, o=offset: reference_attention(q, k, v, h, o),
                [normal(2, 3, 8), normal(2, offset + 3, 8), normal(2, offset + 3, 8)])
    experts = np.array([2, 0, 2, 3, 0, 3])
    rng = Rng(seed).substream("expert_ffn")
    cases["expert_ffn"] = (
        expert_ffn, lambda *stacks: reference_expert_ffn(*stacks, experts),
        [normal(6, 4), normal(4, 4, 3), normal(4, 3), normal(4, 3, 4), normal(4, 4)])
    return cases


# the fused ops' cases and the bodies', which the same three checks hold to
CASES = {**FUSED, **body_cases(5)}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_op_matches_its_reference_chain(name, dtype):
    fused, reference, inputs = CASES[name]
    T.set_default_dtype(dtype)
    try:
        same, gap = fused_gap(fused, reference, [a.astype(dtype) for a in inputs], seed=6)
    finally:
        T.set_default_dtype("float64")
    assert same, f"{name}: forward differs from the chain"
    assert gap <= 1e-12, f"{name}: gradient gap {gap}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_op_grad_check_every_input(name):
    fused, _, inputs = CASES[name]
    for wrt in range(len(inputs)):
        err = fused_grad_error(fused, inputs, wrt, seed=7)
        assert err <= 1e-4, f"{name}, input {wrt}: grad error {err}"


def test_each_fused_case_draws_from_its_own_substream():
    # a case's first input is the first draw of the substream named after it,
    # whatever cases come before it
    for name in ("rms_norm", "attention_sublayer.h1", "attention_sublayer.h4.s2", "mlp"):
        first = FUSED[name][2][0]
        want = Rng(5).substream(name).normal(first.size).reshape(first.shape)
        assert np.array_equal(first, want * (3.0 if name == "rms_norm" else 1.0)), name


def test_moe_sublayer_empty_expert_gets_zero_gradient():
    fused, _, inputs = FUSED["moe_sublayer"]     # expert 1 gets no rows
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    with Tape() as tape:
        tape.backward(fused(*leaves).sum())
    for stack in leaves[3:]:
        assert np.all(stack.grad[1] == 0.0) and np.all(stack.grad[[0, 2, 3]] != 0.0)
    # through the softmax, every logit of both gates gets gradient
    assert np.all(leaves[2].grad != 0.0)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("groups", [
    [0, 0, 1, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4],          # sorted, 2 is empty
    [3, 0, 4, 3, 1, 3, 3, 0, 3, 3, 1, 3, 3, 3, 1, 3],          # unsorted, 2 is empty
    [1] * 40 + [0] * 3,                                         # long unsorted run
], ids=["sorted", "unsorted", "long"])
@pytest.mark.parametrize("width", [1, 2, 7, 33])
def test_expert_bias_group_sums_equal_the_index_scatter(dtype, groups, width):
    groups = np.array(groups)
    g = Rng(len(groups) + width).normal(len(groups) * width)
    g = g.reshape(len(groups), width).astype(dtype)
    shape = (5, width)
    got = T._group_sums(shape, g, T._group_parts(groups, 5), groups)
    want = add_at_in_float64(shape, groups, g)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.tobytes() == want.tobytes() == T._index_add(shape, groups, g).tobytes()
    assert np.all(got[2] == 0.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_op_raises_on_a_nan_input_like_its_chain(name):
    fused, reference, inputs = CASES[name]
    for wrt in range(len(inputs)):
        for fn in (fused, reference):
            args = [Tensor(a) for a in inputs]
            args[wrt].data = np.array(inputs[wrt])
            args[wrt].data.flat[0] = np.nan
            with pytest.raises(NumericError):
                fn(*args)


def test_rms_norm_raises_where_the_squares_overflow():
    # x / sqrt(inf) is a finite 0, so only the mean-square shows the overflow
    x, gain = Tensor(np.full((2, 4), 1e200)), Tensor(np.ones(4))
    for fn in (T.rms_norm, reference_rms_norm):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            fn(x, gain)


def test_attention_raises_where_the_scores_overflow():
    # the first key scores -inf for both queries, which the softmax (and
    # the causal mask, for query 0) turns into a zero weight
    x, gain, w = Tensor(np.eye(2, 4)), Tensor(np.ones(4)), Tensor(np.eye(4))
    wq = Tensor(np.full((4, 4), 1e200))
    wk = Tensor(np.vstack([np.full((1, 4), -1e200), np.zeros((3, 4))]))
    for fn in (T.attention_sublayer, reference_attention_sublayer):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            fn(x, gain, wq, wk, w, w, 2, 1)


def moe_case():
    """The tensors of FUSED["moe_sublayer"], three rows over a bank of four
    experts, and the fronts that tensor.moe_sublayer takes: the norm's and
    the router's arrays and rules under the case's gates 1, 0, 1."""
    args = [Tensor(a) for a in FUSED["moe_sublayer"][2]]
    norm = T._rms_parts(args[0].data, args[1].data)
    return args, norm, T._router_parts(norm[0], args[2].data, np.array([1, 0, 1]))


def test_moe_sublayer_raises_where_the_hidden_layer_overflows():
    # the norm holds rows of ones near 1, so a first layer of 1e308 sums
    # past the float range; tanh maps an infinite pre-activation to a finite 1
    fused, reference, inputs = FUSED["moe_sublayer"]
    args = [Tensor(np.ones(a.shape)) for a in inputs[:2]] + [Tensor(a) for a in inputs[2:]]
    args[3] = Tensor(np.full(inputs[3].shape, 1e308))
    for fn in (fused, reference):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            fn(*args)


def test_fused_ops_check_shapes():
    x, gain, w = Tensor(np.zeros((6, 8))), Tensor(np.ones(8)), Tensor(np.zeros((8, 8)))
    # head-major buffers of 2 sequences, 2 heads of 4 and 5 positions: keys
    # (batch, heads, head_dim, positions), values (batch, heads, positions, head_dim)
    kv = (np.zeros((2, 2, 4, 5)), np.zeros((2, 2, 5, 4)))
    T.attention_sublayer(x, gain, w, w, w, w, 2, 2, kv, 2)
    for heads, batch, cache, offset in ((3, 2, None, 0),      # 3 heads do not divide 8
                                        (2, 4, None, 0),      # 6 rows are not 4 sequences
                                        (2, 2, kv, 3),        # 3 + 3 positions over 5
                                        (2, 3, kv, 0),        # the buffers hold 2 sequences
                                        (4, 2, kv, 0),        # the buffers hold 2 heads
                                        (2, 2, kv[::-1], 0),  # values where keys go
                                        (2, 2, kv[:1] * 2, 0)):   # keys where values go
        with pytest.raises(ShapeError):
            T.attention_sublayer(x, gain, w, w, w, w, heads, batch, cache, offset)
    (h, gain, router, w1, b1, w2, b2), norm, route = moe_case()
    selected = np.array([3, 0, 2, 3, 0, 2])
    T.moe_sublayer(h, gain, router, w1, b1, w2, b2, selected, 2, norm, route)
    for bank, scores in (((w1, b1, w2, b1), route),                   # b1 where b2 goes
                         ((w1, b2, w2, b2), route),                   # b2 where b1 goes
                         ((w2, b1, w1, b2), route),                   # w1 and w2 swapped
                         ((w1, Tensor(b1.data[:3]), w2, b2), route),  # 3 biases for 4 experts
                         ((w1, b1, w2, b2), (np.ones((3, 5)), route[1]))):   # 5 scores a row
        with pytest.raises(ShapeError):
            T.moe_sublayer(h, gain, router, *bank, selected, 2, norm, scores)


def test_mlp_raises_where_the_hidden_layer_overflows():
    # tanh maps an infinite pre-activation to a finite 1
    _, _, inputs = FUSED["mlp"]
    args = ([Tensor(np.full(inputs[0].shape, 1e200)), Tensor(np.full(inputs[1].shape, 1e200))]
            + [Tensor(a) for a in inputs[2:]])
    for fn in (T.mlp, reference_mlp):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            fn(*args)


@pytest.mark.parametrize("wrt,value", [(0, 1e200)])
def test_mixture_kl_raises_where_its_terms_overflow(wrt, value):
    # mu * mu overflows; the chain stops at that op
    fused, reference, inputs = FUSED["mixture_kl"]
    args = [Tensor(a) for a in inputs]
    args[wrt] = Tensor(np.full(inputs[wrt].shape, value))
    for fn in (fused, reference):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            fn(*args)


@pytest.mark.parametrize("value,bound", [(1000.0, LOG_VAR_MAX), (-1000.0, LOG_VAR_MIN)])
def test_mixture_kl_reads_a_log_variance_past_its_clamp_as_the_bound(value, bound):
    # the KL clamps the posterior log-variance as the draw does, so a value
    # past a bound gives the bound's KL and no gradient
    fused, reference, inputs = FUSED["mixture_kl"]
    for fn in (fused, reference):
        runs = []
        for log_var in (value, bound):
            arrays = [np.array(a) for a in inputs]
            arrays[1][2, 0] = log_var
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            runs.append(taped_run(lambda: fn(*leaves), leaves, weight_seed=8))
        (past, past_grads), (at, at_grads) = runs
        assert np.array_equal(past, at)
        assert past_grads[1][2, 0] == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(past_grads, at_grads))


def test_weighted_nll_gradient_is_weighted_softmax_minus_onehot():
    # rows 0 and 2 share target 1; row 3 weighs nothing and gets no gradient
    logits = Tensor(Rng(48).normal(4 * 5).reshape(4, 5) * 2.0, requires_grad=True)
    targets, weights = np.array([1, 4, 1, 0]), np.array([0.5, 0.25, 2.0, 0.0])
    with Tape() as tape:
        loss = T.weighted_nll(logits, targets, weights) * 3.0
        tape.backward(loss)
    p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expected = 3.0 * weights[:, None] * (p - np.eye(5)[targets])
    assert np.max(np.abs(logits.grad - expected)) <= 1e-14
    assert np.all(logits.grad[3] == 0.0)
    assert loss.item() == pytest.approx(
        -3.0 * np.sum(weights * np.log(p[np.arange(4), targets])), abs=1e-12)


def test_weighted_nll_raises_where_the_log_softmax_overflows():
    # finite logits whose shifted value is -inf: the chain's log_softmax
    # output holds it even though the picked targets stay finite
    logits = Tensor(np.array([[1e308, -1e308, 0.0], [0.5, 0.25, 0.0]]))
    targets, weights = np.array([0, 2]), np.array([0.5, 0.5])
    for fn in (T.weighted_nll, reference_weighted_nll):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            fn(logits, targets, weights)


def test_weighted_nll_checks_shapes_and_targets():
    logits = Tensor(np.zeros((3, 4)))
    for targets, weights in ((np.array([0, 1]), np.ones(3)), (np.array([0, 1, 2]), np.ones(2)),
                             (np.array([0, 4, 1]), np.ones(3)), (np.array([0, -1, 1]), np.ones(3))):
        with pytest.raises(ShapeError):
            T.weighted_nll(logits, targets, weights)
    with pytest.raises(ShapeError):
        T.weighted_nll(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=np.int64), np.zeros(0))


def test_weighted_nll_weights_take_the_logits_dtype():
    T.set_default_dtype("float32")
    try:
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
    finally:
        T.set_default_dtype("float64")
    with Tape() as tape:
        loss = T.weighted_nll(logits, np.array([0, 2]), np.array([0.5, 0.5]))
        tape.backward(loss)
    assert loss.data.dtype == np.float32 and logits.grad.dtype == np.float32


@pytest.mark.parametrize("bad", [-1, 4])
def test_group_ids_outside_the_range_raise(bad):
    (h, gain, router, w1, b1, w2, b2), norm, route = moe_case()      # four experts
    ids = np.array([0, 1, 2, 3, bad, 0])
    with pytest.raises(ShapeError):
        T.moe_sublayer(h, gain, router, w1, b1, w2, b2, ids, 2, norm, route)
    with pytest.raises(ShapeError):
        grouped_matmul(Tensor(np.repeat(h.data, 2, axis=0)), w1, ids)


def test_mixture_kl_raises_where_the_mixture_log_weights_overflow():
    # a log-weight of -inf meets only zero responsibilities: 0 * -inf is NaN
    fused, reference, inputs = FUSED["mixture_kl"]
    args = [Tensor(a) for a in inputs]
    args[2] = Tensor(np.array([1e308, -1e308, 0.0]))
    gamma = np.array([[0.4, 0.0, 0.6], [1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    prior = GmmPrior(*args[2:])
    for fn in (lambda: T.mixture_kl(*args[:2], gamma, *args[2:], (LOG_VAR_MIN, LOG_VAR_MAX),
                                    (-9.0, 10.0)),
               lambda: reference_kl_closed_form_batch(*args[:2], gamma, prior)):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            fn()


def test_vae_fused_ops_check_shapes():
    a, b = Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        T.concat_rows(a, np.array([0, 4]), b, np.array([0, 1]))     # row 4 of 4
    with pytest.raises(ShapeError):
        T.concat_rows(a, np.array([0, -1]), b, np.array([0, 1]))
    with pytest.raises(ShapeError):
        T.concat_rows(a, np.array([0, 1]), b, np.array([0]))
    with pytest.raises(ShapeError):
        T.mlp(a, Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)), Tensor(np.zeros((5, 2))),
              Tensor(np.zeros(2)))
    with pytest.raises(ShapeError):
        T.gaussian_sample(a, Tensor(np.zeros((4, 2))), np.zeros((4, 3)), -1.0, 1.0)
    with pytest.raises(ShapeError):
        T.bce_with_logits(Tensor(np.zeros((4, 1))), np.zeros(3))
    _, _, inputs = FUSED["mixture_kl"]
    args = [Tensor(x) for x in inputs]
    with pytest.raises(ShapeError):
        T.mixture_kl(args[0], args[1], np.full((4, 2), 0.5), *args[2:],
                     (LOG_VAR_MIN, LOG_VAR_MAX), (-9.0, 10.0))
    for terms, weights in (((a, b), (1.0,)), ((), ())):
        with pytest.raises(ShapeError):
            T.weighted_means(terms, weights)


# --- the reverse sweep empties each record as it passes ---

def reference_sweep(tape: Tape, loss: Tensor) -> None:
    """The reverse sweep that keeps every record whole to the end and drops
    the intermediate gradients only after the whole sweep."""
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g = rec.out.grad
        if g is None:
            continue
        for tensor, gin in zip(rec.inputs, rec.backward(g)):
            if gin is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                tensor.grad = gin
            elif tensor.grad is tensor.store_grad:
                np.add(tensor.grad, gin, out=tensor.grad)
            else:
                tensor.grad = tensor.grad + gin
    for rec in tape.records:
        rec.out.grad = None


def default_losses(precision: str) -> tuple:
    """(params, {"stage1": loss, "stage2": loss}) of an untrained default-size
    model with a 3-component prior, built in `precision`; each loss is a
    closure over one default-size batch of the default corpus."""
    caller = T.default_dtype().name
    T.set_default_dtype(precision)
    try:
        run = RunConfig()
        split = split_records(generate_synthetic(SynthSpec(seed=1))[0], seed=1)
        vae = VaeGmm(vae_config_from(run, split), Rng(3))
        rng, k, d = Rng(4), run.clusters, run.latent_dim
        vae.prior = GmmPrior(rng.normal(k), rng.normal(k * d).reshape(k, d),
                             rng.normal(k * d).reshape(k, d) * 0.3)
        vocab = Vocab.build(split.train, list(split.user_index), list(split.item_index))
        lm = LanguageModel(lm_config_from(run, len(vocab)), Rng(5))
    finally:
        T.set_default_dtype(caller)
    bundle = ExplainerBundle(vae, lm, vocab, split.user_index, split.item_index)

    def batch(size):
        records = split.train[:size]
        return (split.user_ids(records), split.item_ids(records),
                normalized_ratings(records), records)

    users, items, ratings, _ = batch(run.s1_batch)
    stage1 = lambda: elbo_loss(vae, users, items, ratings, run.beta, Rng(9))  # noqa: E731
    users2, items2, ratings2, records = batch(run.s2_batch)
    prepared = [prepare_sequence(vocab, r, run.context) for r in records]
    stage2 = lambda: _stage2_loss(bundle, users2, items2, ratings2, prepared,  # noqa: E731
                                  run.stage2(), Rng(9))
    return bundle.params(), {"stage1": stage1, "stage2": stage2}


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_the_emptying_sweep_gives_the_reference_gradients(precision):
    params, losses = default_losses(precision)
    opt = AdamW(params)             # the grads land in the store, as in training
    for name, loss_fn in losses.items():
        grads = []
        for sweep in (T.backward, reference_sweep):
            opt.zero_grad()
            with Tape() as tape:
                loss = loss_fn()
            sweep(tape, loss)
            grads.append({n: p.grad.copy() for n, p in params.items()})
        for n, got in grads[0].items():
            want = grads[1][n]
            assert got.dtype == want.dtype == np.dtype(precision), (name, n)
            assert got.tobytes() == want.tobytes(), (name, n)


def test_the_sweep_frees_each_intermediate_while_the_tape_lives():
    params, losses = default_losses("float32")
    with Tape() as tape:
        loss = losses["stage2"]()
    count = len(tape.records)
    produced = [weakref.ref(rec.out.data) for rec in tape.records[:-1]
                if isinstance(rec.out.data, np.ndarray)]     # numpy scalars take none
    assert len(produced) > count // 2
    assert all(ref() is not None for ref in produced)
    tape.backward(loss)
    assert [i for i, ref in enumerate(produced) if ref() is not None] == []
    assert len(tape.records) == count
    assert all(p.grad is not None for p in params.values())
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_a_stage2_backward_stays_within_1mb_of_the_forward_live_size():
    params, losses = default_losses("float32")
    opt = AdamW(params)
    opt.zero_grad()
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = losses["stage2"]()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < 1 << 20, (live, peak)
