"""Bilateral matching between two sets of encoded contexts.

Given H (P x d_CE) for one entity and G (Q x d_CE) for another, a single
bilinear logit matrix L = H W_BM G^T drives both matching directions: a
softmax down each column gives the H-side match strengths for each g_q, a
softmax along each row gives the G-side strengths for each h_p.  An optional
leaky unit joins each softmax pool as one extra slot so uninformative
contexts can dump their probability mass somewhere harmless; the leak never
participates in aggregation.  The leak slot's logit is a constant 0 (the
bilinear logit of a zero vector), so it passes no gradient back.

Each context's informativeness is its best match strength on the other side;
the global context vector is the informativeness-weighted sum of the context
encodings, and the final score is the cosine of the two global vectors.

One numpy forward serves inference (`match_score`) and training
(`pair_score_vars`, one tape node with a hand-written backward); both take
`leaky`, a bool, and compute in their inputs' dtype, float32 for the model's
encodings.  The forward takes groups only: N left entities H (N, P, d),
each against its own K candidates G (N, K, Q, d), B = N K pairs; a training
batch is N groups of one candidate (pairs) or two (triplets).  numpy runs
the logits and the aggregations as one (P, d) @ (d, Q) and one (1, P) @
(P, d) product per pair whatever the grouping, so every pair keeps its
bits, and the backward sums the columns in order, as one node per column
would.  The forward takes the projected left side H W_BM from its caller:
`pair_score_vars` computes it once per call and its backward reuses it, and
`match_score` takes the one its caller holds (`evaluation.Scorer` projects
each entity when it encodes it).  numpy takes a stack's product as one
(P, d) @ (d, d) gemm per entity, so a projection held per entity has the
bits of one taken in the batch.

The softmaxes reduce over axes of P or Q, a few to a few dozen terms, and
numpy is slow at a reduction over such an axis when it is the innermost one
(one short inner loop per result) but fast when it is the outermost of a
contiguous array (one long elementwise pass per term).  So the forward runs
the column softmax (over P) in a (P, B, Q) layout and the row softmax (over
Q) in a (Q, B, P) layout, the leak slot a zero slab after the logits:
- Every max (the softmax shifts, and the weights a_h and a_g) runs over the
  pooled axis.  A max is exact in any order, and a zero's sign cannot
  change exp of the shift.
- Every softmax sum adds its pool term by term, in pool order, the leak
  slot last, and the backward's dot terms add theirs the same way.
  `_pool_sum` writes that loop, so the order holds for every shape; numpy's
  own sum over an axis is pairwise for some shapes.
- a_h and a_g are the largest exp over the softmax's sum, max(e) / z: IEEE
  division is correctly rounded and so keeps the order, and this equals
  max(e / z).
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericError, ShapeError

log = logging.getLogger(__name__)


@dataclass
class MatchResult:
    """The results of B pairs, pair b in row b of every field."""
    m_fwd: np.ndarray           # (B, P, Q), column p-softmax, leak slot removed
    m_bwd: np.ndarray           # (B, P, Q), row q-softmax, leak slot removed
    leak_fwd: np.ndarray        # (B, Q) leak share per column; zeros when no leaky
    leak_bwd: np.ndarray        # (B, P) leak share per row
    a_h: np.ndarray             # (B, P) informativeness of each h_p
    a_g: np.ndarray             # (B, Q)
    h_bar: np.ndarray           # (B, d_CE) global context for H
    g_bar: np.ndarray           # (B, d_CE)
    score: np.ndarray           # (B,)


def _check_dims(H, HW, G):
    if H.ndim != 3 or G.ndim != 4 or H.shape[1] < 1 or G.shape[2] < 1:
        raise ShapeError(f"need groups of non-empty context stacks, got {H.shape} and "
                         f"{G.shape}")
    if H.shape[0] != G.shape[0]:
        raise ShapeError(f"group counts differ: {H.shape} vs {G.shape}")
    if G.shape[3] != H.shape[2]:
        raise ShapeError(f"context dims differ: {H.shape} vs {G.shape}")
    if HW.shape != H.shape:
        raise ShapeError(f"projected side is {HW.shape}, expected {H.shape}")


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


def _pool_sum(e):
    """The sum of a stack over its first axis, term by term, in order."""
    z = e[0].copy()
    for x in e[1:]:
        z += x
    return z


def _pool_exp(Lt, leaky):
    """exp of logits Lt laid out with the pooled axis first, each pool shifted
    by its max, the leak slot a zero slab after the logits."""
    e = np.zeros((len(Lt) + 1 if leaky else len(Lt),) + Lt.shape[1:], Lt.dtype)
    e[:len(Lt)] = Lt
    e -= e.max(axis=0)
    return np.exp(e, out=e)


def _match(H, HW, G, leaky):
    """Match, aggregate and score float groups H (N, P, d) and G (N, K, Q, d),
    with or without the leak slot; HW is H @ w_bm.  Returns the MatchResult,
    every field with a leading axis of the B = N K pairs, and the global-context
    norms from `_norms`, which the backward takes as they are."""
    L = HW[:, None] @ G.transpose(0, 1, 3, 2)
    N, K, P, Q = L.shape
    B = N * K
    L = L.reshape(B, P, Q)
    # the column softmax, over P, in the (P, B, Q) layout, and the row
    # softmax, over Q, in the (Q, B, P) layout
    ec = _pool_exp(L.transpose(1, 0, 2), leaky)
    zc = _pool_sum(ec)
    er = _pool_exp(L.transpose(2, 0, 1), leaky)
    zr = _pool_sum(er)
    m_fwd = (ec[:P] / zc).transpose(1, 0, 2)
    m_bwd = (er[:Q] / zr).transpose(1, 2, 0)
    if leaky:
        leak_fwd, leak_bwd = ec[P] / zc, er[Q] / zr
    else:
        leak_fwd, leak_bwd = np.zeros((B, Q), L.dtype), np.zeros((B, P), L.dtype)
    # a context's weight is its strongest match on the other side; the
    # weights are used as-is, with no renormalisation, and the leak shares
    # never enter
    a_h = er[:Q].max(axis=0) / zr
    a_g = ec[:P].max(axis=0) / zc
    d = H.shape[2]
    h_bar = (a_h.reshape(N, K, 1, P) @ H[:, None]).reshape(B, d)
    g_bar = (a_g.reshape(N, K, 1, Q) @ G).reshape(B, d)
    nh, ng, live = _norms(h_bar, g_bar)
    if not live.all():
        log.warning("zero-norm global context in %d of %d pairs; score set to 0",
                    int((~live).sum()), B)
    raw = np.where(live, _dots(h_bar, g_bar) / (nh * ng), 0.0)
    if not np.isfinite(raw).all():
        raise NumericError(f"match score is not finite: {raw[~np.isfinite(raw)]}")
    score = np.minimum(np.maximum(raw, -1.0), 1.0)  # keep rounding inside [-1, 1]
    return (MatchResult(m_fwd, m_bwd, leak_fwd, leak_bwd, a_h, a_g, h_bar, g_bar, score),
            (nh, ng, live))


def match_score(H, HW, G, leaky=False):
    """Full pipeline: match, aggregate, score. Returns a complete MatchResult.

    Groups H (N, P, d) and G (N, K, Q, d) score each H[n] against its K
    candidates G[n], B = N K pairs, query n's in rows n K to (n + 1) K.  HW,
    shaped like H, is H @ w_bm as the caller holds it; it is used as given,
    so it must be that product.  The three are taken in their common float
    dtype, float32 at least: float32 encodings score in float32.
    """
    H, HW, G = (np.asarray(x) for x in (H, HW, G))
    dtype = np.result_type(H, HW, G, np.float32)
    H, HW, G = (x.astype(dtype, copy=False) for x in (H, HW, G))
    _check_dims(H, HW, G)
    return _match(H, HW, G, leaky)[0]


def _score_backward(r, norms, H, HW, G, w_bm, g):
    """Gradients of the scores r.score weighted by g (B, 1), from the saved
    forward result r, its norms and its pairs' inputs H (B, P, d), HW = H @
    w_bm and G (B, Q, d): dH and dG per pair, and dW summed over the batch."""
    B, P, Q = r.m_fwd.shape
    nh, ng, live = norms
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
    # softmaxes: a leak slot has no upstream gradient, so it drops out of the
    # dot terms c, and its logit is a constant, so nothing flows past it
    c_f = _pool_sum((dm_fwd * r.m_fwd).transpose(1, 0, 2))
    c_b = _pool_sum((dm_bwd * r.m_bwd).transpose(2, 0, 1))
    dL = r.m_fwd * (dm_fwd - c_f[:, None, :]) + r.m_bwd * (dm_bwd - c_b[:, :, None])
    # bilinear products H W G^T
    d = w_bm.shape[0]
    dW = H.reshape(-1, d).T @ (dL @ G).reshape(-1, d)
    dH = dL @ (G @ w_bm.T) + r.a_h[:, :, None] * gh[:, None, :]
    dG = dL.transpose(0, 2, 1) @ HW + r.a_g[:, :, None] * gg[:, None, :]
    return dH, dG, dW


def pair_score_vars(Ev, wv, leaky, rows):
    """One tape node of (N, K) scores: group n matches rows left[n] of Var Ev
    against rows cands[n, k] of each of its K candidates under Var wv, rows =
    (left, cands) being index arrays (N, P) and (N, K, Q)."""
    left, cands = (np.asarray(x, dtype=np.intp) for x in rows)
    H, G = Ev.value[left], Ev.value[cands]
    d = Ev.shape[1]
    if wv.shape != (d, d):
        raise ShapeError(f"bilinear matrix is {wv.shape}, expected {(d, d)}")
    HW = H @ wv.value
    _check_dims(H, HW, G)
    r, norms = _match(H, HW, G, leaky)
    N, K = G.shape[:2]

    def backward(g):
        # column k's pairs are rows k::K: its left share, then its candidates'
        dE, dW = np.zeros_like(Ev.value), np.zeros_like(wv.value)
        for k in range(K):
            rk = MatchResult(*(x[k::K] for x in vars(r).values()))
            dH, dG, dWk = _score_backward(rk, [x[k::K] for x in norms], H, HW, G[:, k],
                                          wv.value, g[:, k:k + 1])
            for at, share in ((left, dH), (cands[:, k], dG)):
                part = np.zeros_like(Ev.value)
                np.add.at(part, at, share)
                dE = dE + part
            dW = dWk if k == 0 else dW + dWk
        return dE, dW

    return ad.Var(r.score.reshape(N, K), (Ev, wv), backward)
