"""A quick tour of the reverse-mode tape: build a loss, pull gradients back,
then cross-check them against central differences."""

import numpy as np

from synmatch import autodiff as ad

rng = np.random.default_rng(0)

# two parameters of a toy bilinear score
W = rng.normal(size=(4, 4))
x = rng.normal(size=(1, 4))
y = rng.normal(size=(1, 4))

params = {"W": W, "x": x}


def loss_builder(v):
    # s = x W y^T / |x|, loss = (1 - s)^2
    s = ad.matmul(ad.matmul(v["x"], v["W"]), ad.transpose(ad.lift(y)))
    s = ad.div(s, ad.sqrt(ad.sum_all(ad.square(v["x"]))))
    return ad.square(ad.lift(np.ones((1, 1))) - s)


value, grads = ad.grad(loss_builder, params)
print("loss value:", value)
for name, g in grads.items():
    print(f"grad {name}: shape {g.shape}, norm {np.linalg.norm(g):.6f}")

# the same gradients by nudging each entry and re-evaluating
report = ad.finite_diff_check(loss_builder, params, eps=1e-5)
print(report)
assert report.max_rel_error < 1e-6

# softmax rows/columns are the workhorses of the matcher; their rows sum to 1
M = ad.lift(rng.normal(size=(3, 5)))
sm = ad.softmax_rows(M)
print("softmax row sums:", sm.value.sum(axis=1))

# max_axis picks a single winner per row, so its gradient is a one-hot route
picked = ad.max_axis(M, axis=1)
_, g = ad.grad(lambda v: ad.sum_all(ad.max_axis(v["M"], axis=1)), {"M": M.value})
print("winner routes per row (1 where the max lived):")
print(g["M"])
