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
(`pair_score_vars`, one tape node with a hand-written backward).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError

log = logging.getLogger(__name__)


@dataclass
class MatchResult:
    m_fwd: np.ndarray           # (P, Q), column p-softmax, leak slot removed
    m_bwd: np.ndarray           # (P, Q), row q-softmax, leak slot removed
    leak_fwd: np.ndarray        # (Q,) leak share per column; zeros when no leaky
    leak_bwd: np.ndarray        # (P,) leak share per row
    a_h: np.ndarray             # (P,) informativeness of each h_p
    a_g: np.ndarray             # (Q,)
    h_bar: np.ndarray           # (d_CE,) global context for H
    g_bar: np.ndarray
    score: float


def _check_dims(H, G, w_bm, leak):
    if H.ndim != 2 or G.ndim != 2 or H.shape[0] < 1 or G.shape[0] < 1:
        raise ShapeError(f"need non-empty context matrices, got {H.shape} and {G.shape}")
    d = H.shape[1]
    if G.shape[1] != d:
        raise ShapeError(f"context dims differ: {H.shape} vs {G.shape}")
    if w_bm.shape != (d, d):
        raise ShapeError(f"bilinear matrix is {w_bm.shape}, expected {(d, d)}")
    if leak is not None and leak.shape != (1, d):
        raise ShapeError(f"leak vector is {leak.shape}, expected {(1, d)}")


def _match(H, G, w_bm, leak):
    """Match, aggregate and score float arrays; leak is None or (1, d_CE)."""
    _check_dims(H, G, w_bm, leak)
    P, Q = H.shape[0], G.shape[0]
    HW = H @ w_bm
    L = HW @ G.T
    if leak is None:
        m_fwd = ad.softmax_cols(L)
        m_bwd = ad.softmax_rows(L)
        leak_fwd, leak_bwd = np.zeros(Q), np.zeros(P)
    else:
        leak_row = leak @ w_bm @ G.T        # (1, Q) logits of the leak slot
        leak_col = HW @ leak.T              # (P, 1)
        fwd = ad.softmax_cols(np.concatenate([L, leak_row], axis=0))
        bwd = ad.softmax_rows(np.concatenate([L, leak_col], axis=1))
        m_fwd, m_bwd, leak_fwd, leak_bwd = fwd[:P], bwd[:, :Q], fwd[P], bwd[:, Q]
    # a context's weight is its strongest match on the other side; the
    # weights are used as-is, with no renormalisation, and the leak shares
    # never enter
    a_h = m_bwd.max(axis=1)
    a_g = m_fwd.max(axis=0)
    h_bar = a_h @ H
    g_bar = a_g @ G
    nh = np.linalg.norm(h_bar)
    ng = np.linalg.norm(g_bar)
    if nh == 0.0 or ng == 0.0:
        log.warning("zero-norm global context; score set to 0")
        score = 0.0
    else:
        raw = float(h_bar @ g_bar / (nh * ng))
        if not math.isfinite(raw):
            raise NumericError(f"match score is not finite: {raw}")
        score = min(1.0, max(-1.0, raw))  # keep rounding inside [-1, 1]
    return MatchResult(m_fwd, m_bwd, leak_fwd, leak_bwd, a_h, a_g, h_bar, g_bar, score)


def match_score(H, G, w_bm, leak=None):
    """Full pipeline: match, aggregate, score. Returns a complete MatchResult."""
    leak = None if leak is None else np.asarray(leak, dtype=float)
    return _match(np.asarray(H, dtype=float), np.asarray(G, dtype=float),
                  np.asarray(w_bm, dtype=float), leak)


def _score_backward(r, H, G, w_bm, leak, g):
    """Gradients of r.score (scaled by the 1x1 output gradient g) for H, G,
    w_bm and leak, from the saved forward result r."""
    nh = np.linalg.norm(r.h_bar)
    ng = np.linalg.norm(r.g_bar)
    if nh == 0.0 or ng == 0.0:
        zero = np.zeros((1, H.shape[1]))
        return np.zeros_like(H), np.zeros_like(G), np.zeros_like(w_bm), zero
    # cosine: ds/dh = (g_hat - s h_hat) / |h|, and symmetrically for g_bar
    gh = g[0, 0] * (r.g_bar / ng - r.score * r.h_bar / nh) / nh
    gg = g[0, 0] * (r.h_bar / nh - r.score * r.g_bar / ng) / ng
    # weighted sums, then max: each weight's gradient goes to its first maximum
    P, Q = r.m_fwd.shape
    dm_bwd = np.zeros((P, Q))
    dm_bwd[np.arange(P), r.m_bwd.argmax(axis=1)] = H @ gh
    dm_fwd = np.zeros((P, Q))
    dm_fwd[r.m_fwd.argmax(axis=0), np.arange(Q)] = G @ gg
    # softmaxes over the leak-stacked logits; the leak slots get no upstream
    # gradient, so only the shared dot term reaches their logits
    c_f = (dm_fwd * r.m_fwd).sum(axis=0)
    c_b = (dm_bwd * r.m_bwd).sum(axis=1)
    dL = r.m_fwd * (dm_fwd - c_f) + r.m_bwd * (dm_bwd - c_b[:, None])
    # bilinear products [H; l] W [G; l]^T; the (P, Q) corner l W l^T is unused
    if leak is None:
        Hx, Gx, dLx = H, G, dL
    else:
        Hx, Gx = np.vstack([H, leak]), np.vstack([G, leak])
        dLx = np.zeros((P + 1, Q + 1))
        dLx[:P, :Q] = dL
        dLx[P, :Q] = -r.leak_fwd * c_f
        dLx[:P, Q] = -r.leak_bwd * c_b
    dHx = dLx @ (Gx @ w_bm.T)
    dGx = dLx.T @ (Hx @ w_bm)
    dW = Hx.T @ dLx @ Gx
    dH = dHx[:P] + np.outer(r.a_h, gh)
    dG = dGx[:Q] + np.outer(r.a_g, gg)
    dl = dHx[P:] + dGx[Q:]
    return dH, dG, dW, dl


def pair_score_vars(Hv, Gv, wv, leak=None):
    """Differentiable match-aggregate-score for one entity pair: one tape node.

    leak is None, a (1, d_CE) array (held constant) or a (1, d_CE) Var.
    """
    Hv, Gv, wv = ad.lift(Hv), ad.lift(Gv), ad.lift(wv)
    parents = (Hv, Gv, wv)
    if isinstance(leak, ad.Var):
        parents += (leak,)
        leak = leak.value
    elif leak is not None:
        leak = np.asarray(leak, dtype=float)
    r = _match(Hv.value, Gv.value, wv.value, leak)

    def backward(g):
        return _score_backward(r, Hv.value, Gv.value, wv.value, leak, g)[:len(parents)]

    return ad.Var(r.score, parents, backward)
