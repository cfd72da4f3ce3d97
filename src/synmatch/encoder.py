"""Context encoders: entity-anchored bidirectional LSTM and a plain Bi-LSTM.

A context window is encoded into a single d_CE vector.  The anchored variant
runs the forward cell from the start of the window up to the entity token and
the backward cell from the end of the window down to the entity token, then
concatenates the two states taken at the entity position.  The plain variant
runs both cells over the whole window and concatenates the final states.

Each direction keeps its four gates stacked in the order i, f, o, g:
`enc.{fw,bw}.Wx` (d_embed, 4 d_h), `Wh` (d_h, 4 d_h) and `b` (1, 4 d_h).
The forward splits each weight once per call into four contiguous gate
blocks and halves those of i, f and o (exact: 0.5 is a power of two), so one
tanh covers a step's gate values and s 0.5 + 0.5 gives the sigmoids, as
sigmoid(x) = 0.5 (1 + tanh(x / 2)).  A step keeps its gate values gate by
gate: step t's (4, n[t], d_h) block fills the flat range that rows
offs[t]:offs[t + 1] of a row-major (rows, 4 d_h) array would, so the gate
math runs on contiguous memory, and the step's input and recurrent products
are one stacked matmul each, a gemm per gate.  One numpy forward loop serves
inference (`encode_batch`) and training (`encode_batch_vars`, one tape node
whose backward runs backpropagation through time by hand).  The word
embeddings are frozen: the node's parents, and its gradients, are the six
weights.  The states are one running buffer in both modes: each step
overwrites the leading rows of the step before, and a row's state is written
out at its stop step.  For training the forward keeps the gate values A and
the cells C of every packed step; inference keeps only the running cells,
so its memory grows with the windows, not with their length.  The backward
recomputes tanh(C), works out each step's gate derivatives gate by gate in
a scratch block, and writes them, the pre-activation gradients dZ, row by
row over the step's gate values in A; the recurrent dZ Wh^T and the weight
gradients thus read a row-major (rows, 4 d_h) dZ, and a node can be
backpropagated only once.  Before its o gate goes, step t rebuilds its
states o tanh(c) over the cells of step t + 1, which are spent by then, so
the rows of every step after the first hold the states they follow and
dWh is one product over them.
A one-row step goes to gemm as two rows, so a window encodes to the same
bits in any batch, for inference and training alike.

The encoder computes in its weights' dtype (`model_dtype`): float32 for a
trained model, float64 for the gradient check.  Its callers pass the
embedding table in that dtype (`training.train` and `evaluation.Scorer`
cast it once); a table of another dtype is cast per call.  Every buffer the
forward and the backward make is of that dtype, so float32 weights run
sgemm and float32 tanh.

Each direction steps only the (step, row) pairs it uses: a row stops at its
stop step (the entity token for the anchored variant, the window's end for
the plain one) and is never padded past it.  The batch is packed the way
variable-length RNN libraries pack sequences.  Rows are sorted by stop step,
longest first, so the n[t] rows still running at step t are always the
leading n[t]; step t's rows sit at offs[t]:offs[t + 1] of a time-major packed
array of sum(stop + 1) rows, with offs = cumsum(n).  The forward steps these
blocks in order and backpropagation walks them in reverse, where the rows
whose stop step is t, places n[t + 1]:n[t], join the gradient.
"""

from itertools import chain
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import DataError, ShapeError, SynmatchError

DIRECTIONS = ("fw", "bw")
PARAM_NAMES = tuple(f"enc.{d}.{part}" for d in DIRECTIONS for part in ("Wx", "Wh", "b"))


def model_dtype(weights):
    """The float dtype a model with these weights computes in: their common
    type, float32 at least (integer weights compute in float64)."""
    return np.result_type(*weights, np.float32)


def _in_model_dtype(W, emb):
    """The weights W and the embedding matrix in W's `model_dtype`; a
    matrix already in it is used as it is, not copied."""
    dtype = model_dtype(W)
    return [w.astype(dtype, copy=False) for w in W], np.asarray(emb, dtype=dtype)


def init_encoder_params(d_embed, d_ce, rng):
    """Fresh stacked float64 LSTM weights for both directions.

    Weights are uniform in [-0.08, 0.08], drawn gate by gate (Wx then Wh for
    each of i, f, o, g); biases start at zero except the forget gate's, which
    starts at 1.0 so early training does not wipe the cell state.
    """
    if d_ce % 2 != 0:
        raise ShapeError(f"d_ce must be even, got {d_ce}")
    d_h = d_ce // 2
    params = {}
    for direction in DIRECTIONS:
        wx, wh = [], []
        for _ in range(4):
            wx.append(rng.uniform(-0.08, 0.08, size=(d_embed, d_h)))
            wh.append(rng.uniform(-0.08, 0.08, size=(d_h, d_h)))
        b = np.zeros((1, 4 * d_h))
        b[:, d_h:2 * d_h] = 1.0
        params[f"enc.{direction}.Wx"] = np.concatenate(wx, axis=1)
        params[f"enc.{direction}.Wh"] = np.concatenate(wh, axis=1)
        params[f"enc.{direction}.b"] = b
    return params


class _Packing(NamedTuple):
    """Packed, length-sorted layout of one direction (see the module notes)."""

    order: np.ndarray   # order[j]: the input row in sorted place j
    n: np.ndarray       # n[t]: rows with stop >= t, the leading n[t] sorted rows
    offs: np.ndarray    # step t occupies packed rows offs[t]:offs[t + 1]
    step: np.ndarray    # time step of each packed row
    rank: np.ndarray    # sorted place of each packed row within its step


def _pack(stop):
    # stable, so rows with equal stops keep their input order
    order = np.argsort(-stop, kind="stable")
    n = np.bincount(stop)[::-1].cumsum()[::-1]
    offs = np.concatenate(([0], np.cumsum(n)))
    step = np.repeat(np.arange(len(n)), n)
    rank = np.arange(offs[-1]) - offs[step]
    return _Packing(order, n, offs, step, rank)


def _forward(E, tok, pk, Wx, Wh, b, save):
    """Run one direction over its packed token ids; returns the (B, d_h)
    state at each row's stop step and the saved values `_backward` needs,
    every step's gate values and cells, or None without `save`, when only
    the running state and cell are kept."""
    n, offs = np.append(pk.n, 0), pk.offs
    d_h = Wh.shape[0]
    w = 4 * d_h
    dtype = Wx.dtype
    half = np.array([0.5, 0.5, 0.5, 1.0], dtype)[:, None, None]
    # each weight as four contiguous (k, d_h) gate blocks, i, f, o halved
    Wx, Wh, b = (np.ascontiguousarray(W.reshape(len(W), 4, d_h).transpose(1, 0, 2)) * half
                 for W in (Wx, Wh, b))
    # step t's gate values and cell sit at base[t]:base[t] + n[t]; without
    # save each step overwrites the leading rows of the step before
    base = offs if save else np.zeros_like(offs)
    # A holds each step's (4, n[t], d_h) pre-activations (i, f, o halved) at
    # the flat range of its rows, then in place its gate values
    A = np.empty((len(tok) if save else n[0]) * w, dtype)
    C = np.empty((len(A) // w, d_h), dtype)    # cell after each step
    H = np.empty((n[0], d_h), dtype)           # the live rows' state
    S = np.empty((n[0], d_h), dtype)           # the live rows' f c, then tanh(c)
    Z = np.empty(max(n[0], 2) * w, dtype)      # the live rows' x Wx, then h Wh
    for t in range(len(n) - 1):
        a = A[base[t] * w:(base[t] + n[t]) * w].reshape(4, n[t], d_h)
        c, h, s = C[base[t]:base[t] + n[t]], H[:n[t]], S[:n[t]]
        x = E[tok[offs[t]:offs[t + 1]]]
        hp = h
        if n[t] == 1:
            # numpy sends a one-row product to gemv, which rounds unlike gemm;
            # as two rows it goes to gemm, so every row of every batch gets
            # the bits it gets in any other batch
            x = np.repeat(x, 2, axis=0)
            hp = np.repeat(h, 2, axis=0)
        z = Z[:len(x) * w].reshape(4, len(x), d_h)
        np.add(np.matmul(x[None], Wx, out=z)[:, :n[t]], b, out=a)
        if t:
            a += np.matmul(hp[None], Wh, out=z)[:, :n[t]]
        np.tanh(a, out=a)
        a[:3] *= 0.5
        a[:3] += 0.5
        i, f, o, g = a
        if t:
            np.multiply(f, C[base[t - 1]:base[t - 1] + n[t]], out=s)
        np.multiply(i, g, out=c)
        if t:
            c += s
        np.tanh(c, out=s)
        np.multiply(o, s, out=h)
    # rows n[t + 1]:n[t] of H, those that stop at t, hold their state at t
    out = np.empty_like(H)
    out[pk.order] = H
    return out, ((tok, A, C, pk) if save else None)


def _backward(dout, saved, E, Wh):
    """Backpropagation through time for one direction, walking the packed
    steps in reverse.

    dout is the (B, d_h) gradient of the selected states.  Each step's gate
    derivatives are worked out gate by gate in a scratch block; its
    pre-activation gradients dZ then overwrite its gate values in the saved
    A row by row, so A reads as the row-major (rows, 4 d_h) dZ from which
    dWx, dWh and db, the returned gradients, are summed.  Step t first
    writes its states o tanh(c) over the spent cells of the step t + 1 rows
    that follow them, the states dWh takes.
    """
    tok, A, C, pk = saved
    offs = pk.offs
    n = np.append(pk.n, 0)
    d_h = Wh.shape[0]
    w = 4 * d_h
    # the leading n[t] rows are live at step t; rows n[t + 1]:n[t], those
    # that stop at t, join there with their output gradient and no cell
    # gradient, since later steps write only rows below n[t + 1]
    dh = dout[pk.order]
    dc = np.zeros_like(dh)
    D = np.empty(len(pk.order) * w, A.dtype)   # the live rows' gate derivatives
    for t in range(len(n) - 2, -1, -1):
        now = slice(offs[t], offs[t + 1])
        h, c = dh[:n[t]], dc[:n[t]]
        block = A[offs[t] * w:offs[t + 1] * w]
        a, d = block.reshape(4, n[t], d_h), D[:len(block)].reshape(4, n[t], d_h)
        i, f, o, g = a
        di, df, do, dg = d
        np.subtract(1.0, a[:3], out=d[:3])
        d[:3] *= a[:3]                     # s (1 - s) for i, f, o
        np.multiply(g, g, out=dg)
        np.subtract(1.0, dg, out=dg)       # 1 - g^2
        tc = np.tanh(C[now])
        # step t + 1's cells are spent: their rows take the states they follow
        np.multiply(o[:n[t + 1]], tc[:n[t + 1]], out=C[offs[t + 1]:offs[t + 1] + n[t + 1]])
        c += h * o * (1.0 - tc * tc)
        di *= c * g
        if t:
            df *= c * C[offs[t - 1]:offs[t - 1] + n[t]]
        else:
            df[...] = 0.0                  # the cell starts at zero
        do *= h * tc
        dg *= c * i
        c *= f
        # dZ row by row over the step's gate values
        np.copyto(block.reshape(n[t], 4, d_h), d.transpose(1, 0, 2))
        if t:
            np.matmul(block.reshape(n[t], w), Wh.T, out=h)
    A = A.reshape(-1, w)
    dWx = E[tok].T @ A
    dWh = C[offs[1]:].T @ A[offs[1]:]      # the states that steps 1 on follow
    return dWx, dWh, A.sum(axis=0, keepdims=True)


def _encode(windows, weights, E, variant, save=True):
    """Both directions over the batch: (B, d_CE) encodings and, per direction,
    the values its backward needs (None without `save`)."""
    if variant not in ("anchored", "bilstm"):
        raise DataError(f"unknown encoder variant {variant!r}")
    if not windows:
        return np.zeros((0, 2 * weights[1].shape[0]), E.dtype), ()
    lengths = np.array([len(w) for w in windows], dtype=np.intp)
    t_e = np.array([w.entity_pos for w in windows], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(w.token_ids for w in windows),
                       dtype=np.intp, count=int(lengths.sum()))
    first = np.cumsum(lengths) - lengths   # each window's first token in flat
    last = first + lengths - 1
    if variant == "anchored":
        fw_stop = t_e                  # forward halts on the entity token
        bw_stop = lengths - 1 - t_e    # ditto walking in from the right
    else:
        fw_stop = lengths - 1
        bw_stop = lengths - 1
    outs, saved = [], []
    # the forward direction reads each window from its first token on, the
    # backward one from its last token down
    for stop, start, sign, W in ((fw_stop, first, 1, weights[:3]),
                                 (bw_stop, last, -1, weights[3:])):
        pk = _pack(stop)
        tok = flat[start[pk.order[pk.rank]] + sign * pk.step]
        out, direction = _forward(E, tok, pk, *W, save=save)
        outs.append(out)
        saved.append(direction)
    return np.concatenate(outs, axis=1), tuple(saved)


def encode_batch_vars(windows, params, emb, variant="anchored"):
    """Encode a batch of ContextWindows into a (B, d_CE) Var: one tape node
    whose parents are the six weights.

    `params` maps names to Vars (training) or arrays; `emb` is the frozen
    (vocab, d_embed) embedding matrix, best passed in the weights' dtype
    (another is cast per call).  variant
    is "anchored" (stop each direction at the entity token) or "bilstm" (run
    to the ends and keep the final states).
    """
    weights = [ad.lift(params[name]) for name in PARAM_NAMES]
    W, E = _in_model_dtype([w.value for w in weights], emb)
    out, saved = _encode(windows, W, E, variant)
    if not windows:
        return ad.Var(out)

    def backward(g):
        nonlocal saved
        if saved is None:
            raise SynmatchError("encoder node replayed: its saved gates now hold dZ")
        directions, saved = saved, None
        d_h = W[1].shape[0]
        grads = []
        for k, direction in enumerate(directions):
            grads += _backward(g[:, k * d_h:(k + 1) * d_h], direction, E, W[3 * k + 1])
        return grads

    return ad.Var(out, tuple(weights), backward)


def encode_batch(windows, params, emb, variant="anchored"):
    """Encode a batch for inference: plain (B, d_CE) array out, no tape."""
    W, E = _in_model_dtype([np.asarray(params[name]) for name in PARAM_NAMES], emb)
    return _encode(windows, W, E, variant, save=False)[0]
