"""A walk through the tensor engine: tapes, gradients, and the checker.

Everything downstream (the preference model, the expert-routed language
model, both training stages) is built on the few dozen operations shown
here, so it pays to see the machinery bare.
"""

import numpy as np

from moerec import Rng, Tape, Tensor, grad_check
from moerec import tensor as T
from moerec.verify import softmax

# Tensors wrap float64 numpy arrays. Only tensors created with
# requires_grad=True accumulate gradients.
w = Tensor(Rng(0).normal(6).reshape(2, 3), requires_grad=True)
x = Tensor([[1.0, 2.0], [3.0, 4.0]])
print("w =\n", w.data)

# Operations executed inside a Tape are recorded in execution order; the
# backward sweep walks that record once, in reverse.
with Tape() as tape:
    h = T.sigmoid(x @ w)         # (2, 3)
    probs = softmax(h, axis=-1)
    loss = -(T.log(probs) * Tensor([[1, 0, 0], [0, 1, 0.0]])).sum()
    tape.backward(loss)

print("loss =", loss.item())
print("dloss/dw =\n", w.grad)

# Gradients accumulate additively across tapes until cleared, so a training
# loop clears them after each optimizer step.
first = w.grad.copy()
with Tape() as tape:
    tape.backward((x @ w).sum())
print("accumulated twice?", not np.allclose(w.grad, first))
w.zero_grad()

# The finite-difference checker is the standing oracle for every backward
# rule: it perturbs each coordinate and compares slopes.
err = grad_check(lambda t: (softmax(t) * Tensor([0.2, 0.5, 0.3])).sum(),
                 Tensor(Rng(1).normal(3)))
print(f"softmax grad check: max relative error {err:.2e}")

# A deliberately broken rule is caught immediately.
def doubled_backward(a):
    return T._make(a.data.copy(), "bad", (a,), lambda g: (2.0 * g,))

err = grad_check(lambda t: doubled_backward((t * t).sum() * 0.5),
                 Tensor(np.array([2.0, 3.0])))
print(f"a doubled gradient shows error ~1: {err:.3f}")

# Randomness is counter-based and fully reproducible: the same seed always
# yields the same stream, and labeled substreams never collide.
print("seeded draws repeat:",
      np.array_equal(Rng(42).normal(4), Rng(42).normal(4)))
print("substreams differ:",
      not np.array_equal(Rng(42).substream("a").normal(4),
                         Rng(42).substream("b").normal(4)))
