"""A quick tour of the reverse-mode tape: build a loss, pull gradients back,
then cross-check them against central differences.

The loss has the model's shape: the matcher records a pair's score as one
tape node with a hand-written backward, and the tape's elementwise ops turn
scores into a loss."""

import numpy as np

from synmatch import autodiff as ad
from synmatch import matcher

rng = np.random.default_rng(0)

# encoded contexts of an anchor, a synonym and a non-synonym whose contexts
# look much like the anchor's, and the bilinear matching matrix
A = rng.normal(size=(3, 4))
params = {"A": A, "S": rng.normal(size=(4, 4)),
          "N": A[:2] + 0.3 * rng.normal(size=(2, 4)), "W": np.eye(4)}
margin = 0.75


def loss_builder(v):
    s_pos = matcher.pair_score_vars(v["A"], v["S"], v["W"])
    s_neg = matcher.pair_score_vars(v["A"], v["N"], v["W"])
    # contrastive terms: (1 - s)^2 / 4 for the synonym pair, and
    # max(s - margin, 0)^2 for the other
    return ad.sum_all(ad.scale(ad.square(1.0 - s_pos), 0.25)
                      + ad.square(ad.relu(s_neg - margin)))


value, grads = ad.grad(loss_builder, params)
print("loss value:", value)
for name, g in grads.items():
    print(f"grad {name}: shape {g.shape}, norm {np.linalg.norm(g):.6f}")

# the same gradients by nudging each entry and re-evaluating
report = ad.finite_diff_check(loss_builder, params, eps=1e-5)
print(report)
assert report.max_rel_error < 1e-4

# relu passes gradient only where its input was positive
M = rng.normal(size=(3, 5))
_, g = ad.grad(lambda v: ad.sum_all(ad.relu(v["M"])), {"M": M})
print("relu routes (1 where the input was positive):")
print(g["M"])
assert np.array_equal(g["M"], (M > 0).astype(float))
