"""Reference implementations that tests compare the library against.

The tape ops here compose the matcher's score from small recorded steps, each
with its textbook backward; `test_matcher` checks the matcher's hand-written
backward against them, and `sum_all`, `square` and `mul` reduce the encoder's
and the matcher's outputs to the scalar a gradient check needs. Binary ops
take two operands of one shape.  The ops take Vars, arrays or scalars:
`lift` wraps anything but a Var as a constant leaf through `as_matrix`, since
the library's `Var` takes a 2-D float array only. `cosine` is
the per-row reference for the KNN scan, and `nearest_neighbors` is the KNN
scan as it was written with a Python loop over the universe and the results:
the library's scan must return the same (id, cosine) lists, bit for bit.
`save_embeddings` writes an embedding file one value at a time: the
library, which formats each row with one format string, must write the same
bytes. `read_corpus_lines` reads a corpus as ingest did, one line of the
file at a time with a set of the lines seen: the library, which reads blocks
of lines and assigns token ids in the same pass, must keep the same lines
in the same order. The
library's tape has no ops: every node it records has a hand-written backward.
`retrieve_contexts` cuts windows as the library did when it built every line's
tuple up front: the library, which builds a line only when it cuts from it,
must return the same windows under the same random stream. `match_pair`
scores one pair as a group of one, projecting the left side itself, and
returns the pair's own fields.  `pair_score` composes one pair's score, the
leak slot included, from the tape ops here, and `stack_rows` puts two
operands' rows in one matrix, as `pair_score_vars` takes its encodings. `entity_scores` scores held encodings one
pair at a time with `match_pair`: the library, which keeps each left
entity's projection, must return the same scores, bit for bit. `match` is the
matcher's forward as it was written with one softmax per direction, each
max and sum taken along its own axis of the (B, P, Q) logit stack and the
leak slot concatenated as a zero logit row and column; it shares `_dots`
and `_norms` with the library. The library's forward, which takes its
reductions over other layouts, must return the same MatchResult, bit for
bit. `_softmax` is that forward's softmax, which the tape ops here record;
its sum is a written loop over the pool axis, term by term in pool order,
the order the library's `_pool_sum` writes.
`evaluate` is the evaluation as it ran one ranking query at a time: each
query shortlisted alone by the reference scan, its candidates scored as one
group in one matcher call, and the evaluation pairs as groups of one in
calls of 64; the library, which shortlists every query in one scan and
scores whole queries per matcher call, must report the same fields, bit for
bit. `average_precision`, `precision_at`, `recall_at` and `f1_at` are the
rank metrics as they were written one function and one walk each: the
library's `rank_metrics`, one walk for all, must return their bits.
`lstm_forward` and `lstm_backward` are the encoder's training forward and
BPTT for one direction as they were written to save every step's states H
and gather, for dWh, the states each packed row follows: the library, which
saves no states and rebuilds them in spent cell rows, must return the same
outputs and gradients, bit for bit.
"""

import dataclasses
import logging

import numpy as np

from synmatch import autodiff as ad
from synmatch import corpus, evaluation, matcher
from synmatch.errors import MetricError, NumericError, ShapeError
from synmatch.matcher import MatchResult, _dots, _norms
from synmatch.rng import stream_rng

log = logging.getLogger(__name__)


def as_matrix(x):
    """`x` as a 2-D float array, float64 unless it already is one; scalars
    become 1x1 and vectors one row."""
    a = np.asarray(x)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    if a.ndim > 2:
        raise ShapeError(f"expected matrix, got array of shape {a.shape}")
    return a.reshape(1, -1) if a.ndim < 2 else a


def lift(x):
    """`x` as a tape node: a Var as given, anything else a constant leaf."""
    return x if isinstance(x, ad.Var) else ad.Var(as_matrix(x))


def _binary(a, b):
    a, b = lift(a), lift(b)
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
    a = lift(a)
    return ad.Var(a.value * a.value, (a,), lambda g: (2.0 * a.value * g,))


def sum_all(a):
    a = lift(a)
    return ad.Var(np.array([[a.value.sum()]]), (a,),
                  lambda g: (np.full_like(a.value, g[0, 0]),))


def sqrt(a):
    a = lift(a)
    y = np.sqrt(a.value)
    return ad.Var(y, (a,), lambda g: (g / (2.0 * y),))


def matmul(a, b):
    """Row-major matrix product; raises ShapeError naming both shapes."""
    if not isinstance(a, ad.Var) and not isinstance(b, ad.Var):
        a2, b2 = as_matrix(a), as_matrix(b)
        if a2.shape[1] != b2.shape[0]:
            raise ShapeError(f"cannot multiply {a2.shape} by {b2.shape}")
        return a2 @ b2
    a, b = lift(a), lift(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return ad.Var(a.value @ b.value, (a, b),
                  lambda g: (g @ b.value.T, a.value.T @ g))


def stack_rows(a, b):
    """The rows of a, then those of b, as one matrix."""
    a, b = lift(a), lift(b)
    n = a.shape[0]
    return ad.Var(np.vstack([a.value, b.value]), (a, b), lambda g: (g[:n], g[n:]))


def transpose(a):
    a = lift(a)
    return ad.Var(a.value.T.copy(), (a,), lambda g: (g.T.copy(),))


def max_axis(a, axis):
    """Max along an axis (keepdims). Gradient flows to the first maximum."""
    a = lift(a)
    idx = np.argmax(a.value, axis=axis)
    out = np.take_along_axis(a.value, np.expand_dims(idx, axis), axis=axis)

    def backward(g):
        z = np.zeros_like(a.value)
        np.put_along_axis(z, np.expand_dims(idx, axis), g, axis=axis)
        return (z,)

    return ad.Var(out, (a,), backward)


def _softmax(x, axis):
    """Softmax along `axis`, stabilised by max subtraction; the sum adds the
    terms one at a time, in order along the axis."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    terms = np.moveaxis(e, axis, 0)
    z = terms[0].copy()
    for t in terms[1:]:
        z += t
    return e / np.expand_dims(z, axis)


def match(H, HW, G, leaky):
    """Match, aggregate and score float stacks H (B or 1, P, d) and G (B or 1,
    Q, d), with or without the leak slot; HW is H @ w_bm."""
    P, Q = H.shape[1], G.shape[1]
    B = max(H.shape[0], G.shape[0])
    L = HW @ G.transpose(0, 2, 1)
    if not leaky:
        m_fwd = _softmax(L, axis=1)
        m_bwd = _softmax(L, axis=2)
        leak_fwd, leak_bwd = np.zeros((B, Q)), np.zeros((B, P))
    else:
        # the leak slot: a zero logit row under L and a zero column beside it
        fwd = _softmax(np.concatenate([L, np.zeros((B, 1, Q))], axis=1), axis=1)
        bwd = _softmax(np.concatenate([L, np.zeros((B, P, 1))], axis=2), axis=2)
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


def match_pair(H, G, W, leaky=False):
    """match_score of one pair H (P, d) and G (Q, d) as a group of one, with
    each field the pair's own: a (P, Q) m_fwd, a float score.  H and G are
    taken in W's float dtype: float64, or the model's float32."""
    H, G = (np.asarray(x, dtype=np.result_type(W, np.float32)) for x in (H, G))
    r = matcher.match_score(H[None], H[None] @ W, G[None, None], leaky)
    one = {f.name: getattr(r, f.name)[0] for f in dataclasses.fields(r)}
    return MatchResult(**dict(one, score=float(one["score"])))


def _softmax_op(a, axis):
    a = lift(a)
    y = _softmax(a.value, axis)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return ad.Var(y, (a,), backward)


def softmax_rows(x):
    """Softmax over each row: the matcher's forward, recorded with a backward
    when x is a Var."""
    if isinstance(x, ad.Var):
        return _softmax_op(x, axis=1)
    return _softmax(as_matrix(x), axis=1)


def softmax_cols(x):
    """Softmax over each column; see softmax_rows."""
    if isinstance(x, ad.Var):
        return _softmax_op(x, axis=0)
    return _softmax(as_matrix(x), axis=0)


def pair_score(H, G, W, leaky=False):
    """One pair's score composed from the tape ops above: the logits H W G^T,
    a softmax over each row and each column, the weights, the global
    contexts and their cosine.  The leak slot, when leaky, is a zero logit
    column or row that constant [I | 0] and [I; 0] products append before a
    softmax and take off after it.  A pair with a zero-norm global context
    scores a constant 0, which passes no gradient back."""
    L = matmul(matmul(H, W), transpose(G))
    P, Q = L.shape
    if leaky:
        cols, rows = np.eye(Q, Q + 1), np.eye(P + 1, P)
        m_bwd = matmul(softmax_rows(matmul(L, cols)), cols.T)
        m_fwd = matmul(rows.T, softmax_cols(matmul(rows, L)))
    else:
        m_bwd, m_fwd = softmax_rows(L), softmax_cols(L)
    h = matmul(transpose(max_axis(m_bwd, axis=1)), H)
    g = matmul(max_axis(m_fwd, axis=0), G)
    norms = mul(sqrt(sum_all(square(h))), sqrt(sum_all(square(g))))
    if norms.item() == 0.0:
        return lift(0.0)
    return div(sum_all(mul(h, g)), norms)


def cosine(u, v):
    """Cosine similarity; either vector having zero norm gives 0."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def nearest_neighbors(table, qid, k, universe):
    """(id, cosine) of qid's top-k rows in universe: the reference scan."""
    q = table.matrix[int(qid)]
    ids = np.array([eid for eid in universe if eid != qid], dtype=np.intp)
    rows = table.matrix[ids]
    norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(q)
    dots = rows @ q
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms != 0.0)
    best = np.lexsort((ids, -cos))[:k]
    return [(int(ids[j]), float(cos[j])) for j in best]


def save_embeddings(path, tokens, matrix):
    """The embedding file as it was written one row and one value at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % matrix.shape)
        for tok, row in zip(tokens, matrix):
            fh.write(tok + " " + " ".join("%.6f" % x for x in row) + "\n")


def read_corpus_lines(path):
    """The corpus's distinct non-empty lines as token tuples, first occurrences
    in file order, read line by line."""
    seen = set()
    lines = []
    with corpus.open_text(path) as fh:
        for raw in fh:
            toks = tuple(raw.split())
            if not toks or toks in seen:
                continue
            seen.add(toks)
            lines.append(toks)
    return lines


def retrieve_contexts(data, eid, P, T, rng):
    """P windows of token id eid, cut by window_around from every line's
    tuple; occurrences are found by a scan of those tuples, in corpus order."""
    lines = corpus.unflatten(data.tokens, data.line_start)
    occ = [(li, pos) for li, line in enumerate(lines) for pos, t in enumerate(line) if t == eid]
    picks = rng.choice(len(occ), size=P, replace=len(occ) < P)
    return [corpus.window_around(lines[occ[i][0]], occ[i][1], T) for i in picks]


def entity_scores(enc, rows, w_bm, leaky, left, right):
    """Scores of the pairs (left[i], right[i]), or (left[0], right[i]) when
    left is one id: each pair matched alone on the encodings enc[rows[id]],
    with no projection held."""
    left = list(left) * len(right) if len(left) == 1 else left
    return [match_pair(enc[rows[a]], enc[rows[b]], w_bm, leaky).score
            for a, b in zip(left, right)]


def average_precision(ranked, relevant):
    """AP with the standard denominator: the number of relevant items."""
    if not relevant:
        raise MetricError("average precision needs at least one relevant item")
    hits = 0
    total = 0.0
    for i, item in enumerate(ranked, start=1):
        if item in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def precision_at(ranked, relevant, k):
    if k < 1:
        raise MetricError(f"K must be positive, got {k}")
    return sum(1 for item in ranked[:k] if item in relevant) / k


def recall_at(ranked, relevant, k):
    if not relevant:
        raise MetricError("recall needs at least one relevant item")
    return sum(1 for item in ranked[:k] if item in relevant) / len(relevant)


def f1_at(ranked, relevant, k):
    p = precision_at(ranked, relevant, k)
    r = recall_at(ranked, relevant, k)
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def evaluate(params, config, data, table, split="test", seed=0, ks=(1, 5, 10), knn_k=50):
    """The EvalReport of evaluation.evaluate, one ranking query at a time."""
    store = data.store
    pairs = evaluation.make_eval_pairs(store, split, stream_rng(seed, "eval", 1))
    entity_ids = sorted(store.entities(split))
    # hold every entity of the split, each scored against itself
    evaluation._scorer(params, config, data, table.matrix, seed)(
        entity_ids, [[eid] for eid in entity_ids])
    held = data.scorer
    rows, enc, hw = held.row_of, held.enc, held.hw

    def score(left, right):
        """One query's candidates as one group, or pairs as groups of one."""
        li = np.array([rows[eid] for eid in left], dtype=np.intp)
        ri = np.array([rows[eid] for eid in right], dtype=np.intp)
        scores = []
        for i in range(0, len(ri), 64):
            if len(li) == 1:
                lo, G = li, enc[ri[i:i + 64]][None]
            else:
                lo, G = li[i:i + 64], enc[ri[i:i + 64]][:, None]
            scores.append(matcher.match_score(enc[lo], hw[lo], G, config.leaky).score)
        return np.concatenate(scores)

    scores = score([p.a for p in pairs], [p.b for p in pairs])
    auc_value = evaluation.auc([(s, p.label) for s, p in zip(scores, pairs)])
    ap_values, p_at, r_at, f1 = [], {k: [] for k in ks}, {k: [] for k in ks}, {k: [] for k in ks}
    for qid in entity_ids:
        relevant = set(store.synsets[store.synset_of(qid)]) - {qid}
        if not relevant:
            continue
        cand_ids = [eid for eid, _ in nearest_neighbors(table, qid, knn_k, entity_ids)]
        ranked_ids = []
        if cand_ids:
            ids, cand_scores = np.array(cand_ids), score([qid], cand_ids)
            ranked_ids = ids[np.lexsort((ids, -cand_scores))].tolist()
        ap_values.append(average_precision(ranked_ids, relevant))
        for k in ks:
            p_at[k].append(precision_at(ranked_ids, relevant, k))
            r_at[k].append(recall_at(ranked_ids, relevant, k))
            f1[k].append(f1_at(ranked_ids, relevant, k))
    mean = lambda xs: float(np.mean(xs))
    return evaluation.EvalReport(
        auc=float(auc_value), map=mean(ap_values),
        p_at_k={k: mean(v) for k, v in p_at.items()},
        r_at_k={k: mean(v) for k, v in r_at.items()},
        f1_at_k={k: mean(v) for k, v in f1.items()})


def lstm_forward(E, tok, pk, Wx, Wh, b):
    """The encoder's training forward for one direction as it was written to
    keep the states H beside the gate values A and the cells C of every
    packed step: returns the (B, d_h) states at the stop steps and
    (tok, A, H, C, pk) for `lstm_backward`."""
    n, offs = np.append(pk.n, 0), pk.offs
    d_h = Wh.shape[0]
    w = 4 * d_h
    half = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]
    Wx, Wh, b = (np.ascontiguousarray(W.reshape(len(W), 4, d_h).transpose(1, 0, 2)) * half
                 for W in (Wx, Wh, b))
    A = np.empty(len(tok) * w)
    H = np.empty((len(tok), d_h))
    C = np.empty_like(H)
    S = np.empty((n[0], d_h))
    Z = np.empty(max(n[0], 2) * w)
    out = np.empty((len(pk.order), d_h))
    for t in range(len(n) - 1):
        now = slice(offs[t], offs[t] + n[t])
        a = A[offs[t] * w:(offs[t] + n[t]) * w].reshape(4, n[t], d_h)
        c, h, s = C[now], H[now], S[:n[t]]
        x = E[tok[offs[t]:offs[t + 1]]]
        if t:
            prev = slice(offs[t - 1], offs[t - 1] + n[t])
            hp = H[prev]
        if n[t] == 1:
            x = np.repeat(x, 2, axis=0)
            hp = np.repeat(hp, 2, axis=0) if t else None
        z = Z[:len(x) * w].reshape(4, len(x), d_h)
        np.add(np.matmul(x[None], Wx, out=z)[:, :n[t]], b, out=a)
        if t:
            a += np.matmul(hp[None], Wh, out=z)[:, :n[t]]
        np.tanh(a, out=a)
        a[:3] *= 0.5
        a[:3] += 0.5
        i, f, o, g = a
        if t:
            np.multiply(f, C[prev], out=s)
        np.multiply(i, g, out=c)
        if t:
            c += s
        np.tanh(c, out=s)
        np.multiply(o, s, out=h)
        out[pk.order[n[t + 1]:n[t]]] = h[n[t + 1]:]
    return out, (tok, A, H, C, pk)


def lstm_backward(dout, saved, E, Wh):
    """BPTT over `lstm_forward`'s saved values, dWh from a gather of the
    states each packed row follows: returns dWx, dWh and db."""
    tok, A, H, C, pk = saved
    offs = pk.offs
    n = np.append(pk.n, 0)
    d_h = Wh.shape[0]
    w = 4 * d_h
    dout = dout[pk.order]
    dh = np.empty((len(pk.order), d_h))
    dc = np.empty_like(dh)
    D = np.empty(len(pk.order) * w)
    for t in range(len(n) - 2, -1, -1):
        now = slice(offs[t], offs[t + 1])
        dh[n[t + 1]:n[t]] = dout[n[t + 1]:n[t]]
        dc[n[t + 1]:n[t]] = 0.0
        h, c = dh[:n[t]], dc[:n[t]]
        block = A[offs[t] * w:offs[t + 1] * w]
        a, d = block.reshape(4, n[t], d_h), D[:len(block)].reshape(4, n[t], d_h)
        i, f, o, g = a
        di, df, do, dg = d
        np.subtract(1.0, a[:3], out=d[:3])
        d[:3] *= a[:3]
        np.multiply(g, g, out=dg)
        np.subtract(1.0, dg, out=dg)
        tc = np.tanh(C[now])
        c += h * o * (1.0 - tc * tc)
        di *= c * g
        if t:
            df *= c * C[offs[t - 1]:offs[t - 1] + n[t]]
        else:
            df[...] = 0.0
        do *= h * tc
        dg *= c * i
        c *= f
        np.copyto(block.reshape(n[t], 4, d_h), d.transpose(1, 0, 2))
        if t:
            np.matmul(block.reshape(n[t], w), Wh.T, out=h)
    A = A.reshape(-1, w)
    dWx = E[tok].T @ A
    # packed row p of step t >= 1 follows packed row p - n[t - 1]
    later = slice(offs[1], None)
    dWh = H[np.arange(offs[1], offs[-1]) - n[pk.step[later] - 1]].T @ A[later]
    return dWx, dWh, A.sum(axis=0, keepdims=True)
