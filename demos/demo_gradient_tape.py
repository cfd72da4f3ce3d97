"""A quick tour of the reverse-mode tape: build a loss, pull gradients back,
then cross-check them against central differences.

The loss has the model's shape: the matcher records a batch of groups, each
a left entity against its candidates, as one tape node and `training.siamese_loss` records their mean contrastive loss
as one more, each with a hand-written backward."""

import numpy as np

from synmatch import autodiff as ad
from synmatch import matcher, training

rng = np.random.default_rng(0)

# encoded contexts, three each, of an anchor, a synonym and a non-synonym
# whose contexts look much like the anchor's, stacked in one matrix, and the
# bilinear matching matrix
A = rng.normal(size=(3, 4))
params = {"E": np.vstack([A, rng.normal(size=(3, 4)), A + 0.3 * rng.normal(size=(3, 4))]),
          "W": np.eye(4)}
anchor = np.array([[0, 1, 2], [0, 1, 2]])      # two groups, each of the anchor
others = np.array([[[3, 4, 5]], [[6, 7, 8]]])  # against one candidate
labels = np.array([[1.0], [0.0]])              # synonym, non-synonym
margin = 0.75


def loss_builder(v):
    s = matcher.pair_score_vars(v["E"], v["W"], False, (anchor, others))
    # (1 - s)^2 / 4 for the synonym pair, max(s - margin, 0)^2 for the other
    return training.siamese_loss(s, labels, margin)


value, grads = ad.grad(loss_builder, params)
print("loss value:", value)
for name, g in grads.items():
    print(f"grad {name}: shape {g.shape}, norm {np.linalg.norm(g):.6f}")

# the same gradients by nudging each entry and re-evaluating
report = ad.finite_diff_check(loss_builder, params, eps=1e-5)
print(report)
assert report.max_rel_error < 1e-4

# the loss node's backward is one line per score:
# (-(1 - s) y / 2 + 2 max(s - margin, 0) (1 - y)) / n
# the matcher's node takes Vars: the parameters go in as constant leaves
leaves = {name: ad.Var(p) for name, p in params.items()}
s = matcher.pair_score_vars(leaves["E"], leaves["W"], False, (anchor, others)).value
_, g = ad.grad(lambda v: training.siamese_loss(v["s"], labels, margin), {"s": s})
closed = (-(1 - s) * labels / 2 + 2 * np.maximum(s - margin, 0) * (1 - labels)) / len(s)
print("scores:", s.ravel(), "dloss/ds:", g["s"].ravel())
assert np.allclose(g["s"], closed, rtol=0, atol=1e-15)
