"""The tape ops that the runtime calls, pinned over one small end-to-end run.

An op that gains or loses its last runtime caller fails this test until the
pinned lists, and the op's home, are updated: ops only the oracles use live
in moerec.verify, not in moerec.tensor.
"""

import inspect
import sys

from moerec import tensor as T
from moerec.cli import main

# what both training stages, checkpoints, evaluation and decoding call
RUNTIME_OPS = {
    "add_rows", "attention_sublayer", "backward", "bce_with_logits", "concat_rows",
    "default_dtype", "gaussian_sample", "matmul", "mixture_kl", "mlp", "moe_sublayer",
    "rms_norm", "set_default_dtype", "sigmoid", "slice_view", "take_rows", "weighted_means",
    "weighted_nll",
}
# the elementwise algebra behind Tensor's operators, which the oracles and
# grad_check use but the runtime does not
OPERATOR_ALGEBRA = {"add", "sub", "mul", "div", "neg", "pow_const", "exp", "log", "sqrt",
                    "reshape", "transpose", "tsum", "tmean"}
# exported for callers that run their own optimization steps
UNCALLED_API = {"zero_grad"}


def public_functions() -> dict:
    return {name: fn for name, fn in vars(T).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == T.__name__}


def test_runtime_calls_exactly_the_pinned_ops(tmp_path, monkeypatch):
    functions = public_functions()
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    # every module that bound an op by name calls it through the counter too
    names = {id(fn): name for name, fn in functions.items()}
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "moerec"]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in names:
                monkeypatch.setattr(module, attr, counted(names[id(obj)], obj))

    data, cfg = tmp_path / "corpus.jsonl", tmp_path / "run.cfg"
    spec = tmp_path / "synth.cfg"
    spec.write_text("planted_clusters = 2\nn_users = 16\nn_items = 8\n"
                    "records_per_user = 5\nseed = 3\n", encoding="utf-8")
    cfg.write_text(
        "precision = float32\nclusters = 2\nd_emb = 8\nlatent_dim = 4\nenc_hidden = 8\n"
        "model_dim = 8\nblocks = 1\nheads = 2\ncontext = 32\nbase_experts = 2\n"
        "base_hidden = 8\nfactor = 2\ns1_epochs = 2\ns1_warmup_epochs = 1\n"
        "s1_batch = 16\ns2_epochs = 1\ns2_batch = 8\nseed = 3\n", encoding="utf-8")
    s1, s2 = tmp_path / "stage1.ckpt", tmp_path / "stage2.ckpt"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    common = ["--data", str(data), "--config", str(cfg)]
    assert main(["train", "--stage", "1", "--out", str(s1), *common]) == 0
    assert main(["train", "--stage", "2", "--out", str(s2), "--stage1-checkpoint", str(s1),
                 *common]) == 0
    assert main(["evaluate", "--checkpoint", str(s2), "--data", str(data),
                 "--out", str(tmp_path / "report")]) == 0
    assert main(["generate", "--checkpoint", str(s2), "--user", "u0001", "--item", "i0002",
                 "--rating", "4", "--mode", "sample", "--seed", "2"]) == 0

    assert called == RUNTIME_OPS, (
        f"newly called: {sorted(called - RUNTIME_OPS)}; "
        f"no longer called: {sorted(RUNTIME_OPS - called)}")
    unpinned = set(functions) - RUNTIME_OPS - OPERATOR_ALGEBRA - UNCALLED_API
    assert not unpinned, f"public tensor functions with no runtime caller: {sorted(unpinned)}"
