"""Context encoders: entity-anchored bidirectional LSTM and a plain Bi-LSTM.

A context window is encoded into a single d_CE vector.  The anchored variant
runs the forward cell from the start of the window up to the entity token and
the backward cell from the end of the window down to the entity token, then
concatenates the two states taken at the entity position.  The plain variant
runs both cells over the whole window and concatenates the final states.

Each direction keeps its four gates stacked in the order i, f, o, g:
`enc.{fw,bw}.Wx` (d_embed, 4 d_h), `Wh` (d_h, 4 d_h) and `b` (1, 4 d_h).
Each step adds its rows' input projection x Wx to h Wh.  The forward halves
the i, f, o columns of the weights (exact: 0.5 is a power of two), so one
tanh covers a step's gate block and s 0.5 + 0.5 gives the sigmoids, as
sigmoid(x) = 0.5 (1 + tanh(x / 2)).  One numpy forward loop serves inference
(`encode_batch`) and training (`encode_batch_vars`, one tape node whose
backward runs backpropagation through time by hand).  The word embeddings
are frozen: the node's parents, and its gradients, are the six weights.  For
training the forward keeps the gate values A, the states H and the cells C of
every packed step; the backward recomputes tanh(C) and writes each step's
pre-activation gradients dZ over its gate values in A, so a node can be
backpropagated only once.
Inference keeps only the running state: each step overwrites the leading
rows of the step before, and a row's state is written out at its stop step,
so its memory grows with the windows, not with their length.

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
from .errors import ShapeError, SynmatchError

DIRECTIONS = ("fw", "bw")
PARAM_NAMES = tuple(f"enc.{d}.{part}" for d in DIRECTIONS for part in ("Wx", "Wh", "b"))


def init_encoder_params(d_embed, d_ce, rng):
    """Fresh stacked LSTM weights for both directions.

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


def _gates(a, d_h):
    """Views of the four stacked gate blocks i, f, o, g (faster than np.split)."""
    return a[:, :d_h], a[:, d_h:2 * d_h], a[:, 2 * d_h:3 * d_h], a[:, 3 * d_h:]


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
    state at each row's stop step and the saved values `_backward` needs, or
    None without `save`, when only the running state is kept."""
    n, offs = np.append(pk.n, 0), pk.offs
    d_h = Wh.shape[0]
    half = np.repeat([0.5, 1.0], (3 * d_h, d_h))
    Wx, Wh, b = Wx * half, Wh * half, b * half
    # step t's rows sit at base[t]:base[t] + n[t]; without save each step
    # overwrites the leading rows of the step before
    base = offs if save else np.zeros_like(offs)
    # A holds the pre-activations (i, f, o halved), then in place the gate values
    A = np.empty((len(tok) if save else n[0], 4 * d_h))
    H = np.empty((len(A), d_h))            # state after each step
    C = np.empty_like(H)                   # cell after each step
    S = np.empty((n[0], d_h))              # the live rows' f c, then tanh(c)
    out = np.empty((len(pk.order), d_h))
    for t in range(len(n) - 1):
        now = slice(base[t], base[t] + n[t])
        a, c, h, s = A[now], C[now], H[now], S[:n[t]]
        x = E[tok[offs[t]:offs[t + 1]]]
        if n[t] == 1 and len(tok) > 1:
            # numpy sends a one-row product to gemv, which rounds unlike gemm;
            # two rows keep each row equal to its row of one whole product
            a[...] = (np.repeat(x, 2, axis=0) @ Wx)[:1]
        else:
            np.matmul(x, Wx, out=a)
        a += b
        if t:
            prev = slice(base[t - 1], base[t - 1] + n[t])
            a += H[prev] @ Wh
        np.tanh(a, out=a)
        a[:, :3 * d_h] *= 0.5
        a[:, :3 * d_h] += 0.5
        i, f, o, g = _gates(a, d_h)
        if t:
            np.multiply(f, C[prev], out=s)
        np.multiply(i, g, out=c)
        if t:
            c += s
        np.tanh(c, out=s)
        np.multiply(o, s, out=h)
        out[pk.order[n[t + 1]:n[t]]] = h[n[t + 1]:]   # the rows that stop at t
    return out, ((tok, A, H, C, pk) if save else None)


def _backward(dout, saved, E, Wh):
    """Backpropagation through time for one direction, walking the packed
    steps in reverse.

    dout is the (B, d_h) gradient of the selected states.  Each step's
    pre-activation gradients dZ overwrite its gate values in the saved A,
    from which dWx, dWh and db, the returned gradients, are summed.
    """
    tok, A, H, C, pk = saved
    offs = pk.offs
    n = np.append(pk.n, 0)
    d_h = Wh.shape[0]
    dout = dout[pk.order]
    dh = np.empty((len(pk.order), d_h))    # leading n[t] rows are live at step t
    dc = np.empty_like(dh)
    D = np.empty((len(pk.order), 4 * d_h))  # the live rows' gate derivatives
    for t in range(len(n) - 2, -1, -1):
        now = slice(offs[t], offs[t + 1])
        # the rows whose stop step is t join here, with no cell gradient yet
        dh[n[t + 1]:n[t]] = dout[n[t + 1]:n[t]]
        dc[n[t + 1]:n[t]] = 0.0
        h, c, a, d = dh[:n[t]], dc[:n[t]], A[now], D[:n[t]]
        i, f, o, g = _gates(a, d_h)
        di, df, do, dg = _gates(d, d_h)
        np.subtract(1.0, a[:, :3 * d_h], out=d[:, :3 * d_h])
        d[:, :3 * d_h] *= a[:, :3 * d_h]   # s (1 - s) for i, f, o
        np.multiply(g, g, out=dg)
        np.subtract(1.0, dg, out=dg)       # 1 - g^2
        tc = np.tanh(C[now])
        c += h * o * (1.0 - tc * tc)
        di *= c * g
        if t:
            df *= c * C[offs[t - 1]:offs[t - 1] + n[t]]
        else:
            df[...] = 0.0                  # the cell starts at zero
        do *= h * tc
        dg *= c * i
        c *= f
        a[...] = d                         # dZ over the step's gate values
        if t:
            np.matmul(a, Wh.T, out=h)
    dWx = E[tok].T @ A
    # packed row p of step t >= 1 follows packed row p - n[t - 1]
    later = slice(offs[1], None)
    dWh = H[np.arange(offs[1], offs[-1]) - n[pk.step[later] - 1]].T @ A[later]
    return dWx, dWh, A.sum(axis=0, keepdims=True)


def _encode(windows, weights, E, variant, save=True):
    """Both directions over the batch: (B, d_CE) encodings and, per direction,
    the values its backward needs (None without `save`)."""
    if variant not in ("anchored", "bilstm"):
        raise ValueError(f"unknown encoder variant {variant!r}")
    if not windows:
        return np.zeros((0, 2 * weights[1].shape[0])), ()
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
    (vocab, d_embed) embedding matrix.  variant is "anchored" (stop each
    direction at the entity token) or "bilstm" (run to the ends and keep the
    final states).
    """
    weights = [ad.lift(params[name]) for name in PARAM_NAMES]
    W = [w.value for w in weights]
    E = np.asarray(emb, dtype=float)
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
    W = [np.asarray(params[name], dtype=float) for name in PARAM_NAMES]
    return _encode(windows, W, np.asarray(emb, dtype=float), variant, save=False)[0]
