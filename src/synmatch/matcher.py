"""Bilateral matching between two sets of encoded contexts.

Given H (P x d_CE) for one entity and G (Q x d_CE) for another, a single
bilinear logit matrix L = H W_BM G^T drives both matching directions: a
softmax down each column gives the H-side match strengths for each g_q, a
softmax along each row gives the G-side strengths for each h_p.  An optional
leaky unit joins each softmax pool as one extra slot so uninformative
contexts can dump their probability mass somewhere harmless; the leak never
participates in aggregation.

Each context's informativeness is its best match strength on the other side;
the global context vector is the informativeness-weighted sum of the context
encodings, and the final score is the cosine of the two global vectors.

The leak slot is None (off) or a (1, d_CE) vector l: a zero constant for the
fixed unit, whose bilinear logits are then exactly 0, or the trainable
parameter.  One numpy forward serves inference (`match_score`) and training
(`pair_score_vars`, one tape node with a hand-written backward).  Both score
a batch of B pairs at once, and either side may be one entity broadcast
against the other's B.
"""

import logging
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError

log = logging.getLogger(__name__)


@dataclass
class MatchResult:
    """One pair's result; a batched call gives every field a leading B axis."""
    m_fwd: np.ndarray           # (P, Q), column p-softmax, leak slot removed
    m_bwd: np.ndarray           # (P, Q), row q-softmax, leak slot removed
    leak_fwd: np.ndarray        # (Q,) leak share per column; zeros when no leaky
    leak_bwd: np.ndarray        # (P,) leak share per row
    a_h: np.ndarray             # (P,) informativeness of each h_p
    a_g: np.ndarray             # (Q,)
    h_bar: np.ndarray           # (d_CE,) global context for H
    g_bar: np.ndarray
    score: float                # (B,) array when batched


def _check_dims(H, G, w_bm, leak):
    if H.ndim != 3 or G.ndim != 3 or H.shape[1] < 1 or G.shape[1] < 1:
        raise ShapeError(f"need non-empty context stacks, got {H.shape} and {G.shape}")
    if H.shape[0] != G.shape[0] and 1 not in (H.shape[0], G.shape[0]):
        raise ShapeError(f"pair counts differ: {H.shape} vs {G.shape}")
    d = H.shape[2]
    if G.shape[2] != d:
        raise ShapeError(f"context dims differ: {H.shape} vs {G.shape}")
    if w_bm.shape != (d, d):
        raise ShapeError(f"bilinear matrix is {w_bm.shape}, expected {(d, d)}")
    if leak is not None and leak.shape != (1, d):
        raise ShapeError(f"leak vector is {leak.shape}, expected {(1, d)}")


def _dots(x, y):
    """Row-wise dot products of (B, d) arrays; a stacked (1, d) @ (d, 1)
    matmul, which rounds like the single-pair `x @ y`."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _norms(h_bar, g_bar):
    """Global-context norms, 1 in pairs with a zero side, and the other pairs."""
    nh = np.sqrt(_dots(h_bar, h_bar))
    ng = np.sqrt(_dots(g_bar, g_bar))
    live = (nh != 0.0) & (ng != 0.0)
    return np.where(live, nh, 1.0), np.where(live, ng, 1.0), live


def _softmax(x, axis):
    """Softmax along `axis`, stabilised by max subtraction."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _match(H, G, w_bm, leak):
    """Match, aggregate and score float stacks H (B or 1, P, d) and G (B or 1,
    Q, d); leak is None or (1, d_CE)."""
    _check_dims(H, G, w_bm, leak)
    P, Q = H.shape[1], G.shape[1]
    B = max(H.shape[0], G.shape[0])
    Gt = G.transpose(0, 2, 1)
    HW = H @ w_bm
    L = HW @ Gt
    if leak is None:
        m_fwd = _softmax(L, axis=1)
        m_bwd = _softmax(L, axis=2)
        leak_fwd, leak_bwd = np.zeros((B, Q)), np.zeros((B, P))
    else:
        leak_row = np.broadcast_to(leak @ w_bm @ Gt, (B, 1, Q))  # leak slot logits
        leak_col = np.broadcast_to(HW @ leak.T, (B, P, 1))
        fwd = _softmax(np.concatenate([L, leak_row], axis=1), axis=1)
        bwd = _softmax(np.concatenate([L, leak_col], axis=2), axis=2)
        m_fwd, m_bwd = fwd[:, :P], bwd[:, :, :Q]
        leak_fwd, leak_bwd = fwd[:, P], bwd[:, :, Q]
    # a context's weight is its strongest match on the other side; the
    # weights are used as-is, with no renormalisation, and the leak shares
    # never enter
    a_h = m_bwd.max(axis=2)
    a_g = m_fwd.max(axis=1)
    h_bar = (a_h[:, None, :] @ H)[:, 0]
    g_bar = (a_g[:, None, :] @ G)[:, 0]
    nh, ng, live = _norms(h_bar, g_bar)
    if not live.all():
        log.warning("zero-norm global context in %d of %d pairs; score set to 0",
                    int((~live).sum()), B)
    raw = np.where(live, _dots(h_bar, g_bar) / (nh * ng), 0.0)
    if not np.isfinite(raw).all():
        raise NumericError(f"match score is not finite: {raw[~np.isfinite(raw)]}")
    score = np.clip(raw, -1.0, 1.0)  # keep rounding inside [-1, 1]
    return MatchResult(m_fwd, m_bwd, leak_fwd, leak_bwd, a_h, a_g, h_bar, g_bar, score)


def match_score(H, G, w_bm, leak=None):
    """Full pipeline: match, aggregate, score. Returns a complete MatchResult.

    H (P, d) and G (Q, d) score one pair.  Stacks H (B, P, d) and G (B, Q, d),
    either of which may be (1, ., d), score B pairs: every field of the
    result then has a leading B axis.
    """
    H, G, w_bm = (np.asarray(x, dtype=float) for x in (H, G, w_bm))
    leak = None if leak is None else np.asarray(leak, dtype=float)
    if H.ndim != 2 or G.ndim != 2:
        return _match(H, G, w_bm, leak)
    r = _match(H[None], G[None], w_bm, leak)
    one = {f.name: getattr(r, f.name)[0] for f in fields(r)}
    return MatchResult(**dict(one, score=float(one["score"])))


def _score_backward(r, H, G, w_bm, leak, g):
    """Gradients of the scores r.score weighted by g (B, 1), from the saved
    forward result r: dH (B, P, d) and dG (B, Q, d) per pair, and dW and dl
    summed over the batch."""
    B, P, Q = r.m_fwd.shape
    H, G = np.broadcast_to(H, (B,) + H.shape[1:]), np.broadcast_to(G, (B,) + G.shape[1:])
    nh, ng, live = _norms(r.h_bar, r.g_bar)
    nh, ng, s = nh[:, None], ng[:, None], r.score[:, None]
    # zero-norm pairs score a constant 0, so they pass back no gradient
    up = np.where(live, g.reshape(B), 0.0)[:, None]
    # cosine: ds/dh = (g_hat - s h_hat) / |h|, and symmetrically for g_bar
    gh = up * (r.g_bar / ng - s * r.h_bar / nh) / nh
    gg = up * (r.h_bar / nh - s * r.g_bar / ng) / ng
    # weighted sums, then max: each weight's gradient goes to its first maximum
    dm_bwd = (np.arange(Q) == r.m_bwd.argmax(axis=2)[:, :, None]) * (H @ gh[:, :, None])
    dm_fwd = ((np.arange(P)[:, None] == r.m_fwd.argmax(axis=1)[:, None, :])
              * (G @ gg[:, :, None]).transpose(0, 2, 1))
    # softmaxes over the leak-stacked logits; the leak slots get no upstream
    # gradient, so only the shared dot term reaches their logits
    c_f = (dm_fwd * r.m_fwd).sum(axis=1)
    c_b = (dm_bwd * r.m_bwd).sum(axis=2)
    dL = r.m_fwd * (dm_fwd - c_f[:, None, :]) + r.m_bwd * (dm_bwd - c_b[:, :, None])
    # bilinear products [H; l] W [G; l]^T; the (P, Q) corner l W l^T is unused
    if leak is None:
        Hx, Gx, dLx = H, G, dL
    else:
        Hx = np.concatenate([H, np.broadcast_to(leak, (B, 1, leak.shape[1]))], axis=1)
        Gx = np.concatenate([G, np.broadcast_to(leak, (B, 1, leak.shape[1]))], axis=1)
        dLx = np.zeros((B, P + 1, Q + 1))
        dLx[:, :P, :Q] = dL
        dLx[:, P, :Q] = -r.leak_fwd * c_f
        dLx[:, :P, Q] = -r.leak_bwd * c_b
    dHx = dLx @ (Gx @ w_bm.T)
    dGx = dLx.transpose(0, 2, 1) @ (Hx @ w_bm)
    d = w_bm.shape[0]
    dW = Hx.reshape(-1, d).T @ (dLx @ Gx).reshape(-1, d)
    dH = dHx[:, :P] + r.a_h[:, :, None] * gh[:, None, :]
    dG = dGx[:, :Q] + r.a_g[:, :, None] * gg[:, None, :]
    dl = (dHx[:, P:] + dGx[:, Q:]).sum(axis=0)
    return dH, dG, dW, dl


def pair_score_vars(Hv, Gv, wv, leak=None, rows=None):
    """Differentiable match-aggregate-score for a batch of pairs: one tape node.

    Pair b matches rows h_rows[b] of Hv against rows g_rows[b] of Gv, where
    rows = (h_rows, g_rows) are index arrays (B or 1, P) and (B or 1, Q); the
    result is the (B, 1) column of scores.  Without rows, Hv and Gv are one
    pair.  leak is None, a (1, d_CE) array (held constant) or a (1, d_CE) Var.
    """
    Hv, Gv, wv = ad.lift(Hv), ad.lift(Gv), ad.lift(wv)
    parents = (Hv, Gv, wv)
    if isinstance(leak, ad.Var):
        parents += (leak,)
        leak = leak.value
    elif leak is not None:
        leak = np.asarray(leak, dtype=float)
    if rows is None:
        rows = (np.arange(Hv.shape[0])[None], np.arange(Gv.shape[0])[None])
    h_rows, g_rows = (np.asarray(x, dtype=np.intp) for x in rows)
    H, G = Hv.value[h_rows], Gv.value[g_rows]
    r = _match(H, G, wv.value, leak)

    def backward(g):
        dH, dG, dW, dl = _score_backward(r, H, G, wv.value, leak, g)
        dHv, dGv = np.zeros_like(Hv.value), np.zeros_like(Gv.value)
        np.add.at(dHv, np.broadcast_to(h_rows, dH.shape[:2]), dH)
        np.add.at(dGv, np.broadcast_to(g_rows, dG.shape[:2]), dG)
        return (dHv, dGv, dW, dl)[:len(parents)]

    return ad.Var(r.score[:, None], parents, backward)
