"""Minimal reverse-mode gradient tape over dense float matrices.

Every tape value is a 2-D numpy float array, kept as given; `Var` refuses
anything else with a ShapeError, and a scalar loss is a 1x1 matrix.  The
tape keeps each value's dtype: a model's float32 weights give float32 nodes
and gradients, and `finite_diff_check` differentiates in float64.
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


class Var:
    """One node of the recorded operation graph.

    `parents` are the input nodes; `backward_fn`, given the output gradient,
    returns one gradient array per parent (already reduced to the parent's
    shape). Leaf nodes have no backward_fn.
    """

    __slots__ = ("value", "parents", "backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        if not (isinstance(value, np.ndarray) and value.ndim == 2 and value.dtype.kind == "f"):
            raise ShapeError(f"a tape value is a 2-D float ndarray, got {type(value).__name__}"
                             f" of shape {np.shape(value)}, dtype {getattr(value, 'dtype', None)}")
        self.value = value
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        if self.value.size != 1:
            raise ShapeError(f"item() on non-scalar of shape {self.shape}")
        return float(self.value[0, 0])


# ---------------------------------------------------------------------------
# gradient evaluation

def _topo_order(root):
    """`root` and its inputs, inputs first: a depth-first walk, parents last to first."""
    return _visit(root, set(), [])


def _visit(node, seen, order):
    # not a closure: one that calls itself is a reference cycle, which would
    # keep the tape's saved activations alive until the cyclic collector runs
    seen.add(id(node))
    for p in reversed(node.parents):
        if id(p) not in seen:
            _visit(p, seen, order)
    order.append(node)
    return order


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
    the loss is not finite.  Each leaf is a copy of its parameter in the
    parameter's own dtype, so its gradient comes back in that dtype.
    """
    names = list(params)
    leaves = {name: Var(np.array(params[name], copy=True))
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


def finite_diff_check(loss_builder, params, eps=1e-4):
    """Compare tape gradients against central differences, entry by entry.

    Relative error per entry is |ad - fd| / (|ad| + |fd| + 1e-3); the floor
    1e-3 keeps entries too small for the step size to resolve from dominating.
    The check runs on float64 copies of the parameters, whatever their dtype,
    so the differences resolve steps far below float32's precision.
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
            rel = abs(ad[idx] - fd) / (abs(ad[idx]) + abs(fd) + 1e-3)
            worst.entries += 1
            if rel > worst.max_rel_error:
                worst.max_rel_error = rel
                worst.worst_param = name
                worst.worst_index = idx
    return worst
