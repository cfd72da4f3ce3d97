"""Synonym discovery and the evaluation harness.

Discovery is the four-step inference pipeline: sample contexts for the query,
shortlist candidates by embedding cosine, rescore each candidate with the
full context-matching model, keep those above a threshold.

Evaluation reports AUC over labeled entity pairs plus ranking metrics
(MAP, P@K, R@K, F1@K, read off one hits matrix of all queries) over
per-entity discovery runs against held-out synsets.  `evaluate`, `discover`
and `discover_many` rank through one multi-query shortlist-then-rerank,
`knn_rerank`, which works on (queries x k) arrays: one KNN scan gives every
query's shortlist as id and cosine arrays, the shortlists of one length
form one 2-D id array, the matcher scores it in calls of whole queries, each
query's encodings and projection against a stack of its own candidates, as
many queries with as many candidates as fit in SCORE_BYTES (1 MiB, 2**18
float32 values, chosen from a measured grid: see its comment), and up to
SCORE_SLICE candidates of a query a call, and one lexsort orders all its
rows.  numpy still runs one product per pair, so a query scores the same
bits alone, grouped or sliced, and a one-query discover runs the same code.
All context sampling is keyed by (seed, entity), so a metric run is a pure
function of (model, data, seed).  A `Scorer` holds one model's windows,
encodings and projections, their rows found by id in one intp array, and
each score call draws and encodes, in one batch, only the entities it
names that are not held yet.  discover, score and evaluate calls find their
Scorer on data.scorer, kept for one model at a time, so repeated calls on
one CorpusData encode each entity once; the Scorer refers back to its
corpus weakly, so the pair forms no reference cycle and a corpus is freed
when its last reference goes.  The model is recognised by its seven weights,
compared bit for bit with the Scorer's copies, so a weight changed in place
between calls is seen.  The embedding matrix is compared by identity
only: the encodings are kept on the assumption that it is not written in
place between calls; nothing in this package writes it.

Each entity is projected when it is encoded, enc[e] @ w_bm, and the
projection is held read-only beside its encodings under the same row: the
matcher takes it in place of multiplying again, with the same bits.  Both
are held in the model's dtype, float32 for a trained model, and cost
entities x P x d_ce floats each, 10 MB for 500 entities at the paper config.
"""

import math
import numbers
import weakref
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import corpus, embeddings, encoder, matcher
from .errors import DataError, MetricError
from .rng import check_seed, stream_rng


# ---------------------------------------------------------------------------
# metrics

def auc(scored):
    """Rank-based (Mann-Whitney) AUC over (score, label) pairs; ties count half.
    Each label equals 0 or 1 (True and False do); any other is a MetricError."""
    scores = np.array([s for s, _ in scored], dtype=float)
    labels = np.array([y for _, y in scored])
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != len(labels):
        bad = labels[(labels != 1) & (labels != 0)]
        raise MetricError(f"AUC labels must be 0 or 1, got {list(dict.fromkeys(bad.tolist()))}")
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"AUC needs both classes, got {n_pos} positives "
                          f"and {n_neg} negatives")
    if np.isnan(scores).any():
        raise MetricError(f"AUC cannot rank NaN scores ({int(np.isnan(scores).sum())} "
                          f"of {len(scores)})")
    # ranks are 1-based; tied scores share the average of their group's ranks
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    ranks = ((last - counts + 1 + last) / 2.0)[group]
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def rank_metrics(ranked, relevant, ks):
    """AP and {k: (P@k, R@k, F1@k)} of each row of ranked, an (n, L) array of
    ids best first, against relevant[i], the ids relevant to row i; each
    value an (n,) float64 array.  AP has the number of relevant items as its
    denominator.  Each relevant collection is taken once as a set, so a
    repeat counts once; a row that names an id twice is a MetricError, and
    each k is an integer (a bool is not one) of at least 1.

    Every metric is read off the (n, L) hits matrix with the bits of one walk
    down each list: AP adds its hit precisions along each row with np.cumsum,
    in rank order where np.sum would pair them, and the 0.0 it adds at a miss
    changes no bit."""
    ks, relevant = tuple(ks), [set(r) for r in relevant]
    ranked = np.asarray(ranked)
    n_relevant = np.array([len(r) for r in relevant])
    if not n_relevant.all():
        raise MetricError("rank metrics need at least one relevant item")
    if not all(corpus.is_integer(k) and k >= 1 for k in ks):
        raise MetricError(f"K must be positive integers, got {ks!r}")
    by_id = np.sort(ranked, axis=1)
    repeats = by_id[:, 1:] == by_id[:, :-1]
    if repeats.any():
        row, col = np.argwhere(repeats)[0]
        raise MetricError(f"ranked list {row} names {by_id[row, col]} more than once")
    n, L = ranked.shape
    # each row's relevant ids, padded to the widest set; `known` marks the real ones
    known = np.arange(n_relevant.max(initial=0)) < n_relevant[:, None]
    targets = np.zeros(known.shape, ranked.dtype)
    targets[known] = list(chain.from_iterable(relevant))
    hits = np.zeros(ranked.shape, dtype=bool)
    for j in range(targets.shape[1]):       # one pass per place in the widest set
        hits |= (ranked == targets[:, j:j + 1]) & known[:, j:j + 1]
    found = np.cumsum(hits, axis=1)          # hits in the first 1, 2, ..., L
    precision = np.where(hits, found / np.arange(1, L + 1), 0.0)
    ap = (np.cumsum(precision, axis=1)[:, -1] if L else np.zeros(n)) / n_relevant
    at_k = {}
    for k in ks:
        h = found[:, min(k, L) - 1] if L else np.zeros(n)
        p, r = h / k, h / n_relevant
        at_k[k] = (p, r, np.divide(2.0 * p * r, p + r, out=np.zeros(n), where=p + r != 0.0))
    return ap, at_k


@dataclass
class EvalReport:
    auc: float
    map: float
    p_at_k: dict = field(default_factory=dict)
    r_at_k: dict = field(default_factory=dict)
    f1_at_k: dict = field(default_factory=dict)

    def to_text(self):
        lines = [f"auc {self.auc:.6f}", f"map {self.map:.6f}"]
        for k in sorted(self.p_at_k):
            lines.append(f"p@{k} {self.p_at_k[k]:.6f}")
            lines.append(f"r@{k} {self.r_at_k[k]:.6f}")
            lines.append(f"f1@{k} {self.f1_at_k[k]:.6f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pair construction and scoring

def make_eval_pairs(store, split, rng):
    """Labeled pairs for one split: every within-synset pair as a positive,
    the same number of seeded cross-synset negatives."""
    positives = [corpus.TrainingPair(a, b, 1)
                 for a, b in corpus._positive_pool(store, split)]
    entities = store.entities(split)
    negatives = []
    seen = set()
    tries = 0
    while len(negatives) < len(positives) and tries < 100 * (len(positives) + 1):
        tries += 1
        a = entities[rng.integers(len(entities))]
        b = entities[rng.integers(len(entities))]
        if a == b or store.are_synonyms(a, b):
            continue
        key = (min(a, b), max(a, b))
        if key in seen and tries < 20 * (len(positives) + 1):
            continue  # prefer distinct pairs while the space allows
        seen.add(key)
        negatives.append(corpus.TrainingPair(a, b, 0))
    return positives + negatives


def eval_contexts(data, entity_ids, P, T, seed):
    """Context windows per entity, a tuple each, drawn from stream_rng(seed,
    "eval", 0, entity): a pure function of (corpus, seed, P, T, entity).  An
    entity with no occurrence raises NoContextError."""
    return {eid: tuple(corpus.retrieve_contexts(data, eid, P, T,
                                                stream_rng(seed, "eval", 0, int(eid))))
            for eid in entity_ids}


def stack_windows(ctx, ids):
    """All windows ctx[id] of the ids, in order, and rows[id]: their indices."""
    windows, rows = [], {}
    for eid in ids:
        rows[eid] = np.arange(len(windows), len(windows) + len(ctx[eid]))
        windows.extend(ctx[eid])
    return windows, rows


# A matcher call takes whole queries, as many as fit in SCORE_BYTES and at
# least one, and at most SCORE_SLICE candidates of each.  A query's encodings
# and projection and its K candidates' encodings are (K + 2) x P x d_ce
# values of the held dtype: the budget is in bytes, as cache blocking is, so a
# float32 model stacks 2**18 values a call and a float64 one 2**17.  At P 5,
# d_ce 32 a float32 call takes 31 queries of 50 candidates.  At the paper
# config (P 20, d_ce 256) a call takes one query of up to 64 candidates, 1.0
# MiB at 50 and 1.3 MiB at 64, or 17 evaluation pairs.  Measured over
# 512 KiB, 1, 2 and 4 MiB, the fastest of 60 in-process evaluates at two
# seeds: train_paper 3.63 / 2.90-2.94 / 2.82-2.83 / 2.70-2.76 ms (19 / 7 / 4
# / 3 matcher calls), serve_rank 6.02-6.12 / 5.95-6.05 / 5.91-5.94 /
# 5.78-5.84 ms, train_tier1 2.01-2.02 / 1.92-1.93 / 1.91-1.94 / 1.88-1.92
# ms; a paper-config discover of 50 candidates is one call at each.  Past
# 1 MiB the gain is 2-5%, while an evaluate's tracemalloc peak grows 1.6 ->
# 5.5 MB on train_paper and the stacks outgrow the 2 MiB L2 of a core (a
# 2-vCPU Xeon VM, numpy 2.4.6 / OpenBLAS, one BLAS thread).
SCORE_BYTES = 2**20
SCORE_SLICE = 64


WEIGHT_NAMES = encoder.PARAM_NAMES + ("match.w_bm",)


def _weights_dtype(params):
    """The dtype the seven scoring weights are held and scored in, the
    encoder's `model_dtype` of them: float32 for a trained model."""
    return encoder.model_dtype([np.asarray(params[name]) for name in WEIGHT_NAMES])


def _held_copies(params):
    """Read-only copies of the seven scoring weights, by name, all in
    `_weights_dtype`."""
    dtype = _weights_dtype(params)
    held = {name: np.array(params[name], dtype=dtype) for name in WEIGHT_NAMES}
    for w in held.values():
        w.flags.writeable = False
    return held


def _same_weights(params, held):
    """Whether the weights in params have the held copies' dtype and, in it,
    equal them bit for bit, shapes included, compared as integer views of
    the same width (int32 for float32): -0.0 differs from 0.0, NaNs with
    equal payloads match."""
    dtype = _weights_dtype(params)
    ints = f"i{dtype.itemsize}"
    for name, w in held.items():
        x = np.asarray(params[name], dtype=dtype)
        if (x.dtype != w.dtype or x.shape != w.shape
                or np.count_nonzero(x.view(ints) != w.view(ints))):
            return False
    return True


def _model_key(config, seed):
    """What a Scorer's scores depend on besides its weights and emb."""
    return (config.encoder, config.leaky, seed, config.contexts_per_entity,
            config.max_context_len)


class Scorer:
    """One model's scores of entity pairs, for checked ids: score(left, right),
    where left is n ids and right an (n, K) array whose row i holds the
    candidates of left[i], gives the (n, K) model scores; left and right of
    unequal lengths are a DataError.

    It encodes and projects with read-only copies of the seven weights (the
    encoder's six and match.w_bm) taken when it is made, in their
    `_weights_dtype`, and holds its encodings and scores in that dtype; it
    casts emb to that dtype once, and keeps emb itself as `_scorer`'s identity
    key.  It keeps a copy of `windows`, by entity, and a call draws the
    windows of the other entities it names (`eval_contexts`) from its corpus,
    held by a weak reference, before it encodes any.  A call encodes the
    entities it names that are not held yet in one batch and projects them
    at once, enc[e] @ w_bm; the encoder gives an entity the same bits in any
    batch.  The encodings and the projections are two read-only (entities,
    P, d_ce) arrays whose rows `row_of`, an intp array over the embedding
    table's ids (-1 for an entity not held), looks up.  An emb whose vectors
    are not as wide as the encoder's input is a DataError naming both widths.

    One matcher call takes as many whole queries as fit in SCORE_BYTES of the
    held dtype, at least one, each query's encodings and projection against
    its own candidates, and a query of more than SCORE_SLICE candidates is
    scored in slices of that many.  A pair's score has the same bits however
    its query is grouped or sliced; K = 0 makes no matcher call.  A Scorer
    whose corpus is gone still scores the entities whose windows it holds;
    one that would draw windows raises DataError."""

    def __init__(self, params, config, data, emb, seed, windows=None):
        check_seed(seed)
        self.key = _model_key(config, seed)
        # weakly: the corpus holds its scorer as data.scorer
        self.data = weakref.ref(data)
        self.weights = _held_copies(params)
        dtype = self.weights["match.w_bm"].dtype
        self.emb, self.E = emb, np.asarray(emb, dtype)   # the key, and cast once
        width = self.weights["enc.fw.Wx"].shape[0]
        if self.E.shape[-1] != width:
            raise DataError(f"the embedding table has {self.E.shape[-1]}-wide vectors, "
                            f"but the model expects {width}")
        self.windows = dict(windows or {})
        self.row_of = np.full(len(self.E), -1, dtype=np.intp)
        self.enc = self.hw = np.empty(0, dtype)

    def __call__(self, left, right):
        left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
        if len(left) != len(right):
            raise DataError(f"{len(left)} left entities but {len(right)} candidate lists")
        variant, leaky, seed, P, T = self.key
        row_of, weights = self.row_of, self.weights
        named = np.concatenate([left, right.ravel()])
        missing = named[row_of[named] < 0]
        if len(missing):
            missing = np.unique(missing).tolist()
            draw = [eid for eid in missing if eid not in self.windows]
            if draw:
                data = self.data()
                if data is None:
                    raise DataError(f"this Scorer's corpus is gone: cannot draw windows "
                                    f"for entities {draw}")
                self.windows.update(eval_contexts(data, draw, P, T, seed))
            new = encoder.encode_batch([w for eid in missing for w in self.windows[eid]],
                                       weights, self.E, variant).reshape(len(missing), P, -1)
            d = new.shape[2]
            # a stacked product: one (P, d) @ (d, d) gemm per entity, as in the matcher
            for name, block in (("enc", new), ("hw", new @ weights["match.w_bm"])):
                held = np.concatenate([getattr(self, name).reshape(-1, P, d), block])
                held.flags.writeable = False
                setattr(self, name, held[:])        # a view: cannot be made writeable
            row_of[missing] = np.arange(len(self.enc) - len(missing), len(self.enc))
        enc, hw = self.enc, self.hw
        li, ri = row_of[left], row_of[right]
        scores = np.empty(ri.shape, enc.dtype)
        if scores.size:
            n, K = ri.shape
            width = min(K, SCORE_SLICE)
            entity = P * enc.shape[-1]          # values of one entity's encodings
            per_call = max(1, SCORE_BYTES // ((width + 2) * entity * enc.itemsize))
            for at in range(0, n, per_call):
                lb = li[at:at + per_call]
                for j in range(0, K, width):
                    rb = ri[at:at + per_call, j:j + width]
                    r = matcher.match_score(enc[lb], hw[lb], enc[rb], leaky)
                    scores[at:at + per_call, j:j + width] = r.score.reshape(rb.shape)
        return scores


def _scorer(params, config, data, emb, seed):
    """data.scorer if it has this model's key, emb object and weights, bit for
    bit, or else a new Scorer stored there; the seed is checked first."""
    check_seed(seed)
    held = data.scorer
    if (held is None or held.key != _model_key(config, seed) or held.emb is not emb
            or not _same_weights(params, held.weights)):
        held = data.scorer = Scorer(params, config, data, emb, seed)
    return held


def score_pair(params, config, data, emb, a, b, seed=0):
    """Score one entity pair, each a name or an id: resolve, sample, encode, match."""
    score = _scorer(params, config, data, emb, seed)
    a, b = corpus.entity_ids([a, b], data.vocab, len(data.vocab)).tolist()
    return float(score([a], [[b]])[0, 0])


# ---------------------------------------------------------------------------
# discovery

@dataclass
class DiscoveryResult:
    query: int
    ranked: list                # (candidate id, model score), best first
    candidates: list            # (id, embedding cosine)
    accepted: list              # the ranked (id, score) strictly above threshold


def knn_rerank(table, queries, k, universe, score):
    """Shortlist each query's k embedding neighbors in universe, then rerank
    the shortlists of each length as one (n, K) id array: one call
    score(query ids, shortlist ids) and one lexsort a length, empty
    shortlists unscored.  Returns the NeighborLists and, for each length in
    the order first met, (the positions of its queries, their (n, K)
    candidate ids and model scores, each row best first), equal scores
    (-0.0 equals 0.0) toward the smaller id."""
    shortlists = embeddings.nearest_neighbors(table, queries, k, universe)
    by_length = {}
    for i, nl in enumerate(shortlists):
        by_length.setdefault(len(nl.ids), []).append(i)
    groups = []
    for K, members in by_length.items():
        ids = np.array([shortlists[i].ids for i in members])
        scores = np.empty(ids.shape)
        if K:
            scores = score([shortlists[i].query for i in members], ids)
            # flat positions of each row's order in the contiguous (n, K) arrays
            order = np.lexsort((ids, -scores), axis=-1) + np.arange(0, ids.size, K)[:, None]
            ids, scores = ids.take(order), scores.take(order)
        groups.append((members, ids, scores))
    return shortlists, groups


def discover_many(params, config, data, table, queries, k=50, threshold=0.8,
                  seed=0, universe=None):
    """KNN-then-rerank synonym discovery for each query entity; one
    DiscoveryResult per query, each as `discover` gives it alone.

    Candidates come from cosine neighbors in the embedding space (cheap),
    the model score reranks them (expensive but accurate), and candidates
    strictly above the threshold are accepted.  Every query is shortlisted
    first, then all shortlists are reranked in one score call, which encodes
    the queries and candidates not held yet in one batch.  The KNN passes the
    queries through `corpus.entity_ids` together; k is an integer >= 1.
    """
    corpus.check_count("k", k, 1)
    if (isinstance(threshold, bool) or not isinstance(threshold, numbers.Real)
            or not -math.inf < threshold < math.inf):
        raise DataError(f"threshold must be a finite real number, got {threshold!r}")
    if universe is None:
        universe = data.store.entities()
    score = _scorer(params, config, data, table.matrix, seed)
    shortlists, groups = knn_rerank(table, queries, k, universe, score)
    ranked = [None] * len(shortlists)
    for members, ids, scores in groups:
        for i, id_row, score_row in zip(members, ids.tolist(), scores.tolist()):
            ranked[i] = list(zip(id_row, score_row))
    return [DiscoveryResult(nl.query, r, nl.neighbors, [(c, s) for c, s in r if s > threshold])
            for nl, r in zip(shortlists, ranked)]


def discover(params, config, data, table, query, k=50, threshold=0.8,
             seed=0, universe=None):
    """`discover_many` for one query entity: its DiscoveryResult."""
    return discover_many(params, config, data, table, [query], k, threshold, seed,
                         universe)[0]


# ---------------------------------------------------------------------------
# full evaluation

def evaluate(params, config, data, table, split="test", seed=0,
             ks=(1, 5, 10), knn_k=50, threshold=0.8):
    """EvalReport over one split: pair AUC plus per-entity ranking metrics.

    Ranking metrics run the discovery pipeline for every entity of the split
    that has at least one synonym there, against the split's entities as the
    candidate universe, all queries in one `knn_rerank` and their metrics
    from one `rank_metrics` call.  The report ranks candidates and accepts
    none, so it does not depend on `threshold`, which is taken only for
    callers that pass discover's keywords.  knn_k is an integer of at least 1.
    """
    ks = tuple(ks)      # read by rank_metrics and by the means
    corpus.check_count("knn_k", knn_k, 1)
    store = data.store
    pairs = make_eval_pairs(store, split, stream_rng(seed, "eval", 1))
    if not pairs:
        raise MetricError(f"split {split!r} yields no evaluation pairs")
    entity_ids = sorted(store.entities(split))
    score = _scorer(params, config, data, table.matrix, seed)
    # every split entity is held before any is scored: one without context
    # fails here, even one that no pair and no shortlist names
    score(entity_ids, [[]] * len(entity_ids))

    scores = score([p.a for p in pairs], [[p.b] for p in pairs])[:, 0]
    auc_value = auc([(s, p.label) for s, p in zip(scores, pairs)])

    synonyms = {qid: set(store.synsets[store.synset_of(qid)]) - {qid} for qid in entity_ids}
    queries = [qid for qid in entity_ids if synonyms[qid]]
    if not queries:
        raise MetricError(f"split {split!r} has no entity with a synonym")
    # every query is in the universe: one shortlist length, one group in query order
    _, [(_, ranked, _)] = knn_rerank(table, queries, knn_k, entity_ids, score)
    ap, at = rank_metrics(ranked, [synonyms[qid] for qid in queries], ks)

    mean = lambda xs: float(np.mean(xs))
    at_k = lambda j: {k: mean(at[k][j]) for k in ks}
    return EvalReport(auc=float(auc_value), map=mean(ap),
                      p_at_k=at_k(0), r_at_k=at_k(1), f1_at_k=at_k(2))
