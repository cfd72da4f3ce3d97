"""Reference implementations that tests compare the library against.

The tape ops here compose the matcher's score from small recorded steps, each
with its textbook backward; `test_matcher` checks the matcher's hand-written
backward against them, and `sum_all`, `square` and `mul` reduce the encoder's
and the matcher's outputs to the scalar a gradient check needs. Binary ops
take two operands of one shape. `cosine` is
the per-row reference for the KNN scan. The library's tape has no ops: every
node it records has a hand-written backward.
"""

import numpy as np

from synmatch import autodiff as ad
from synmatch import matcher
from synmatch.errors import ShapeError


def _binary(a, b):
    a, b = ad.lift(a), ad.lift(b)
    if a.shape != b.shape:
        raise ShapeError(f"operand shapes differ: {a.shape} and {b.shape}")
    return a, b


def mul(a, b):
    a, b = _binary(a, b)
    return ad.Var(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def div(a, b):
    a, b = _binary(a, b)
    return ad.Var(a.value / b.value, (a, b),
                  lambda g: (g / b.value, -g * a.value / (b.value * b.value)))


def square(a):
    a = ad.lift(a)
    return ad.Var(a.value * a.value, (a,), lambda g: (2.0 * a.value * g,))


def sum_all(a):
    a = ad.lift(a)
    return ad.Var(np.array([[a.value.sum()]]), (a,),
                  lambda g: (np.full_like(a.value, g[0, 0]),))


def sqrt(a):
    a = ad.lift(a)
    y = np.sqrt(a.value)
    return ad.Var(y, (a,), lambda g: (g / (2.0 * y),))


def matmul(a, b):
    """Row-major matrix product; raises ShapeError naming both shapes."""
    if not isinstance(a, ad.Var) and not isinstance(b, ad.Var):
        a2, b2 = ad.as_matrix(a), ad.as_matrix(b)
        if a2.shape[1] != b2.shape[0]:
            raise ShapeError(f"cannot multiply {a2.shape} by {b2.shape}")
        return a2 @ b2
    a, b = ad.lift(a), ad.lift(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return ad.Var(a.value @ b.value, (a, b),
                  lambda g: (g @ b.value.T, a.value.T @ g))


def transpose(a):
    a = ad.lift(a)
    return ad.Var(a.value.T.copy(), (a,), lambda g: (g.T.copy(),))


def max_axis(a, axis):
    """Max along an axis (keepdims). Gradient flows to the first maximum."""
    a = ad.lift(a)
    idx = np.argmax(a.value, axis=axis)
    out = np.take_along_axis(a.value, np.expand_dims(idx, axis), axis=axis)

    def backward(g):
        z = np.zeros_like(a.value)
        np.put_along_axis(z, np.expand_dims(idx, axis), g, axis=axis)
        return (z,)

    return ad.Var(out, (a,), backward)


def _softmax(a, axis):
    a = ad.lift(a)
    y = matcher._softmax(a.value, axis)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return ad.Var(y, (a,), backward)


def softmax_rows(x):
    """Softmax over each row: the matcher's forward, recorded with a backward
    when x is a Var."""
    if isinstance(x, ad.Var):
        return _softmax(x, axis=1)
    return matcher._softmax(ad.as_matrix(x), axis=1)


def softmax_cols(x):
    """Softmax over each column; see softmax_rows."""
    if isinstance(x, ad.Var):
        return _softmax(x, axis=0)
    return matcher._softmax(ad.as_matrix(x), axis=0)


def cosine(u, v):
    """Cosine similarity; either vector having zero norm gives 0."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))
