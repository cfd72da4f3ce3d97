"""Minimal reverse-mode gradient tape over dense float64 matrices.

Every tape value is a 2-D numpy float64 array; scalars are 1x1 matrices.
`Var` wraps one matrix as a node in an operation graph. This module has no
ops: the encoder, the matcher and each training loss record a batch as one
node with a hand-written backward, so a training graph is the seven weight
leaves and three or four nodes above them. `backward` replays the graph in
reverse topological order and accumulates gradients.
`grad` evaluates a scalar loss builder over a named parameter set and returns
every gradient; `finite_diff_check` verifies those gradients against central
differences.

Gradients are accumulated in a per-call table rather than on the nodes, so
`Var`s are immutable after construction and independent graphs can be
evaluated concurrently. Building and differentiating the same loss twice
yields bitwise identical results. A recorded graph is differentiated once:
the encoder's node writes its gradients over the values it saved.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError


def as_matrix(x):
    """Coerce `x` to a 2-D float64 array; scalars become 1x1."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeError(f"expected matrix, got array of shape {a.shape}")
    return a


class Var:
    """One node of the recorded operation graph.

    `parents` are the input nodes; `backward_fn`, given the output gradient,
    returns one gradient array per parent (already reduced to the parent's
    shape). Leaf nodes have no backward_fn.
    """

    __slots__ = ("value", "parents", "backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = value if isinstance(value, np.ndarray) and value.ndim == 2 \
            and value.dtype == np.float64 else as_matrix(value)
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        if self.value.size != 1:
            raise ShapeError(f"item() on non-scalar of shape {self.shape}")
        return float(self.value[0, 0])


def lift(x):
    """Wrap `x` as a constant leaf unless it already is a Var."""
    return x if isinstance(x, Var) else Var(x)


# ---------------------------------------------------------------------------
# gradient evaluation

def _topo_order(root):
    order = []
    state = {}  # id -> 1 visiting, 2 done
    stack = [root]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            for p in node.parents:
                if state.get(id(p), 0) == 0:
                    stack.append(p)
        else:
            stack.pop()
            if st == 1:
                state[id(node)] = 2
                order.append(node)
    return order  # inputs before consumers


def backward(loss, wrt):
    """Gradients of scalar `loss` with respect to each Var in `wrt`."""
    if loss.value.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    order = _topo_order(loss)
    # every node is replayed: the model's nodes all lead to parameters
    grads = {id(loss): np.ones_like(loss.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None or node.backward_fn is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return [grads.get(id(w), np.zeros_like(w.value)) for w in wrt]


def grad(loss_builder, params):
    """Evaluate `loss_builder` over named parameters and differentiate.

    `loss_builder` receives a dict name -> Var and must return a scalar Var.
    Returns (loss value, dict name -> gradient array). Raises NumericError if
    the loss is not finite.
    """
    names = list(params)
    leaves = {name: Var(np.array(params[name], dtype=np.float64, copy=True))
              for name in names}
    loss = loss_builder(leaves)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"loss is not finite: {value}")
    gs = backward(loss, [leaves[name] for name in names])
    return value, dict(zip(names, gs))


@dataclass
class FiniteDiffReport:
    """Worst-case disagreement between tape gradients and central differences."""
    max_rel_error: float
    worst_param: str | None
    worst_index: tuple | None
    entries: int

    def __str__(self):
        where = f"{self.worst_param}{list(self.worst_index)}" if self.worst_param else "-"
        return f"max rel error {self.max_rel_error:.3e} at {where} ({self.entries} entries)"


def finite_diff_check(loss_builder, params, eps=1e-4, floor=1e-3):
    """Compare tape gradients against central differences, entry by entry.

    Relative error per entry is |ad - fd| / (|ad| + |fd| + floor); the floor
    keeps entries too small for the step size to resolve from dominating.
    Returns a FiniteDiffReport with the worst entry and its parameter name.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
    _, gs = grad(loss_builder, base)

    def value_at(p):
        out = loss_builder({k: Var(v) for k, v in p.items()})
        return out.item()

    worst = FiniteDiffReport(0.0, None, None, 0)
    for name, arr in base.items():
        ad = gs[name]
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            f_plus = value_at(base)
            arr[idx] = orig - eps
            f_minus = value_at(base)
            arr[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(ad[idx] - fd) / (abs(ad[idx]) + abs(fd) + floor)
            worst.entries += 1
            if rel > worst.max_rel_error:
                worst.max_rel_error = rel
                worst.worst_param = name
                worst.worst_index = idx
    return worst
