"""Context encoders: entity-anchored bidirectional LSTM and a plain Bi-LSTM.

A context window is encoded into a single d_CE vector.  The anchored variant
runs the forward cell from the start of the window up to the entity token and
the backward cell from the end of the window down to the entity token, then
concatenates the two states taken at the entity position.  The plain variant
runs both cells over the whole window and concatenates the final states.

Each direction keeps its four gates stacked in the order i, f, o, g:
`enc.{fw,bw}.Wx` (d_embed, 4 d_h), `Wh` (d_h, 4 d_h) and `b` (1, 4 d_h).
The input projection X Wx is one product over all steps; only h Wh runs
inside the time loop.  All windows step together, and each row's state is
picked at its own stop step, so padding past a row's stop step never reaches
the output.  One numpy forward serves inference (`encode_batch`) and training
(`encode_batch_vars`, one tape node whose backward runs backpropagation
through time by hand).
"""

import numpy as np

from . import autodiff as ad
from .corpus import PAD
from .errors import ShapeError

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


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _forward(E, ids, stop, Wx, Wh, b):
    """Run one direction over the (B, L) id matrix; returns the (B, d_h)
    state at each row's stop step and the saved values `_backward` needs.

    Steps past a row's own stop index cannot influence its selected state, so
    the loop only runs to max(stop).
    """
    B = ids.shape[0]
    T = int(stop.max()) + 1
    d_h = Wh.shape[0]
    tok = ids[:, :T].T                     # (T, B), time-major
    X = E[tok]                             # (T, B, d_embed)
    # A holds the pre-activations, then (in place) the gate values i, f, o, g
    A = (X.reshape(T * B, -1) @ Wx).reshape(T, B, 4 * d_h)
    H = np.zeros((T + 1, B, d_h))          # H[t + 1] is the state after step t
    C = np.zeros((T + 1, B, d_h))
    TC = np.empty((T, B, d_h))             # tanh of the cell after step t
    for t in range(T):
        a = A[t]
        a += H[t] @ Wh
        a += b
        a[:, :3 * d_h] = _sigmoid(a[:, :3 * d_h])
        np.tanh(a[:, 3 * d_h:], out=a[:, 3 * d_h:])
        i, f, o, g = np.split(a, 4, axis=1)
        C[t + 1] = f * C[t] + i * g
        np.tanh(C[t + 1], out=TC[t])
        np.multiply(o, TC[t], out=H[t + 1])
    return H[stop + 1, np.arange(B)], (tok, X, A, H, C, TC, stop)


def _backward(dout, saved, Wh):
    """Backpropagation through time for one direction.

    dout is the (B, d_h) gradient of the selected states.  Returns the
    (T·B, 4 d_h) pre-activation gradients with dWx, dWh and db.
    """
    _, X, A, H, C, TC, stop = saved
    T, B, d_h = TC.shape
    dZ = np.empty_like(A)
    dh = np.zeros((B, d_h))
    dc = np.zeros((B, d_h))
    for t in range(T - 1, -1, -1):
        picked = stop == t
        dh[picked] += dout[picked]
        i, f, o, g = np.split(A[t], 4, axis=1)
        dc += dh * o * (1.0 - TC[t] * TC[t])
        di, df, do, dg = np.split(dZ[t], 4, axis=1)
        np.multiply(dc * g, i * (1.0 - i), out=di)
        np.multiply(dc * C[t], f * (1.0 - f), out=df)
        np.multiply(dh * TC[t], o * (1.0 - o), out=do)
        np.multiply(dc * i, 1.0 - g * g, out=dg)
        dc *= f
        dh = dZ[t] @ Wh.T
    dZ = dZ.reshape(T * B, -1)
    dWx = X.reshape(T * B, -1).T @ dZ
    dWh = H[:T].reshape(T * B, -1).T @ dZ
    return dZ, dWx, dWh, dZ.sum(axis=0, keepdims=True)


def _id_matrix(windows):
    B = len(windows)
    L = max(len(w) for w in windows)
    ids = np.full((B, L), PAD, dtype=np.intp)
    rev = np.full((B, L), PAD, dtype=np.intp)
    for b, w in enumerate(windows):
        ids[b, :len(w)] = w.token_ids
        rev[b, :len(w)] = w.token_ids[::-1]
    return ids, rev


def _encode(windows, weights, E, variant):
    """Both directions over the batch: (B, d_CE) encodings and, per direction,
    the values its backward needs."""
    if variant not in ("anchored", "bilstm"):
        raise ValueError(f"unknown encoder variant {variant!r}")
    if not windows:
        return np.zeros((0, 2 * weights[1].shape[0])), ()
    lengths = np.array([len(w) for w in windows], dtype=np.intp)
    t_e = np.array([w.entity_pos for w in windows], dtype=np.intp)
    ids, rev_ids = _id_matrix(windows)
    if variant == "anchored":
        fw_stop = t_e                  # forward halts on the entity token
        bw_stop = lengths - 1 - t_e    # ditto walking in from the right
    else:
        fw_stop = lengths - 1
        bw_stop = lengths - 1
    fw, fw_saved = _forward(E, ids, fw_stop, *weights[:3])
    bw, bw_saved = _forward(E, rev_ids, bw_stop, *weights[3:])
    return np.concatenate([fw, bw], axis=1), (fw_saved, bw_saved)


def encode_batch_vars(windows, params, emb, variant="anchored"):
    """Encode a batch of ContextWindows into a (B, d_CE) Var: one tape node.

    `params` maps names to Vars (training) or arrays; `emb` is the
    (vocab, d_embed) embedding matrix, again Var or array, and receives a
    gradient only when it is a Var.  variant is "anchored" (stop each
    direction at the entity token) or "bilstm" (run to the ends and keep the
    final states).
    """
    weights = [ad.lift(params[name]) for name in PARAM_NAMES]
    W = [w.value for w in weights]
    trains_emb = isinstance(emb, ad.Var)
    E = emb.value if trains_emb else np.asarray(emb, dtype=float)
    out, saved = _encode(windows, W, E, variant)
    if not windows:
        return ad.Var(out)
    parents = tuple(weights) + ((emb,) if trains_emb else ())

    def backward(g):
        d_h = W[1].shape[0]
        grads = []
        dE = np.zeros_like(E) if trains_emb else None
        for k, direction in enumerate(saved):
            dZ, dWx, dWh, db = _backward(g[:, k * d_h:(k + 1) * d_h], direction, W[3 * k + 1])
            grads += [dWx, dWh, db]
            if trains_emb:
                tok = direction[0]
                dX = (dZ @ W[3 * k].T).reshape(*tok.shape, -1)
                np.add.at(dE, tok, dX)
        return grads + ([dE] if trains_emb else [])

    return ad.Var(out, parents, backward)


def encode_batch(windows, params, emb, variant="anchored"):
    """Encode a batch for inference: plain (B, d_CE) array out, no tape."""
    W = [np.asarray(params[name], dtype=float) for name in PARAM_NAMES]
    return _encode(windows, W, np.asarray(emb, dtype=float), variant)[0]
