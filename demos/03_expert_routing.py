"""Fine-grained experts and cluster gates, from the inside.

Shows the parameter-count identity behind expert splitting, how a gate
scores and selects experts, that only the selected experts ever run, and
how the rows of a mixed-gate batch are grouped by expert.
"""

import numpy as np

from moerec import Rng, Tensor, decompose_experts, top_k_select
from moerec import tensor as T
from moerec.moe import ExpertBank, GateRouter, _moe_rows, expert_weight_count

# Splitting 6 experts of width 4096 by a factor of 2 yields 12 experts of
# width 2048 with the exact same number of weight parameters.
cfg = decompose_experts(6, 4096, 2, active=2, gates=3)
print(f"{cfg.base_experts} experts of width {cfg.base_hidden} ->",
      f"{cfg.expert_count} experts of width {cfg.expert_hidden}")
for model_dim in (64, 4096):
    before = expert_weight_count(model_dim, 6, 4096)
    after = expert_weight_count(model_dim, 12, 2048)
    print(f"  model_dim {model_dim}: {before} == {after}: {before == after}")

# A desk-sized bank: the experts are stacked tensors, and the gates' routing
# matrices one (gates, model_dim, experts) tensor over the shared bank.
cfg = decompose_experts(3, 16, 2, active=2, gates=3)
bank = ExpertBank(8, cfg, Rng(0))
router = GateRouter(8, cfg, Rng(1))
print(f"stacked experts w1 {bank.w1.shape}, w2 {bank.w2.shape};",
      f"routing matrices {router.weights.shape}")
x = Tensor(Rng(2).normal(8).reshape(1, 8))

for gate in range(3):
    scores = router.scores(gate, x).data[0]
    picked = top_k_select(scores, 2)
    print(f"gate {gate}: scores {scores.round(3)} -> experts {picked}")

# Only the top-k experts are evaluated; the counter proves it. A batch of
# rows under mixed gates runs through the bank in one call, its (row,
# expert) pairs sorted by expert.
rows = Tensor(Rng(3).normal(5 * 8).reshape(5, 8))
row_gates = np.array([0, 2, 1, 0, 2])
bank.eval_count = 0
_moe_rows(bank, router, row_gates, rows, k=2)
print(f"expert evaluations for 5 rows with k=2: {bank.eval_count}")
selected = top_k_select(router.scores(row_gates, rows).data, 2).reshape(-1)
print("experts of the pairs, grouped:", np.sort(selected, kind="stable"))

# Raw softmax scores weight the selected outputs (no renormalization), so
# with identical experts the output factorizes through the score mass.
for part in ("w1", "b1", "w2", "b2"):
    stack = getattr(bank, part).data
    stack[1:] = stack[0]
scores = router.scores(0, x).data[0]
picked = top_k_select(scores, 2)
single = T.expert_ffn(x, bank.w1, bank.b1, bank.w2, bank.b2, np.array([0])).data[0]
combined = _moe_rows(bank, router, 0, x, k=2).data[0]
print("factorization holds:",
      np.allclose(combined, scores[picked].sum() * single))

# Selection is invariant to shifting every routing logit by a constant.
logits = Rng(5).normal(6)
print("shift-invariant selection:",
      np.array_equal(top_k_select(logits, 3), top_k_select(logits + 1e6, 3)))
