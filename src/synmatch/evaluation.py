"""Synonym discovery and the evaluation harness.

Discovery is the four-step inference pipeline: sample contexts for the query,
shortlist candidates by embedding cosine, rescore each candidate with the
full context-matching model, keep those above a threshold.

Evaluation reports AUC over labeled entity pairs plus ranking metrics
(MAP, P@K, R@K, F1@K) over per-entity discovery runs against held-out
synsets.  All context sampling is keyed by (seed, entity), so a metric run
is a pure function of (model, data, seed).
"""

from dataclasses import dataclass, field

import numpy as np

from . import corpus, embeddings, encoder, matcher
from .errors import DataError, MetricError
from .rng import stream_rng


# ---------------------------------------------------------------------------
# metrics

def auc(scored):
    """Rank-based (Mann-Whitney) AUC over (score, label) pairs; ties count half."""
    scores = np.array([s for s, _ in scored], dtype=float)
    labels = np.array([y for _, y in scored], dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
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
    """Context windows per entity, keyed by (seed, entity) for reproducibility."""
    out = {}
    for eid in entity_ids:
        rng = stream_rng(seed, "eval", 0, int(eid))
        out[eid] = corpus.retrieve_contexts(data, eid, P, T, rng)
    return out


def stack_windows(ctx, ids):
    """All windows ctx[id] of the ids, in order, and rows[id]: their indices."""
    windows, rows = [], {}
    for eid in ids:
        rows[eid] = np.arange(len(windows), len(windows) + len(ctx[eid]))
        windows.extend(ctx[eid])
    return windows, rows


# pairs per matcher call when scoring many: bounds the stacked contexts
# (at the paper config, 64 pairs are 2.6 MB a side)
SCORE_SLICE = 64


def entity_scorer(params, config, ctx, emb):
    """Encode every entity's windows in one pass; returns score(left, right),
    the model scores of pairs (left[i], right[i]), SCORE_SLICE pairs per
    matcher call, where left may be one id matched against every right id."""
    windows, rows = stack_windows(ctx, sorted(ctx))
    enc = encoder.encode_batch(windows, params, emb, config.encoder)

    def score(left, right):
        h_rows = np.stack([rows[eid] for eid in left])
        g_rows = np.stack([rows[eid] for eid in right])
        return np.concatenate([
            matcher.match_score(enc[h_rows if len(h_rows) == 1 else h_rows[i:i + SCORE_SLICE]],
                                enc[g_rows[i:i + SCORE_SLICE]], params["match.w_bm"],
                                config.leaky).score
            for i in range(0, len(g_rows), SCORE_SLICE)])

    return score


def score_pair(params, config, data, emb, a, b, seed=0):
    """Score one entity pair from scratch: sample contexts, encode, match."""
    ida, idb = data.entity_id(a), data.entity_id(b)
    ctx = eval_contexts(data, {ida, idb}, config.contexts_per_entity,
                        config.max_context_len, seed)
    return float(entity_scorer(params, config, ctx, emb)([ida], [idb])[0])


# ---------------------------------------------------------------------------
# discovery

@dataclass
class DiscoveryResult:
    query: int
    ranked: list                # (candidate id, model score), best first
    threshold: float
    candidates: list = field(default_factory=list)  # (id, embedding cosine)
    accepted: list = field(default_factory=list)

    def __post_init__(self):
        if not self.accepted:
            self.accepted = [(c, s) for c, s in self.ranked if s > self.threshold]


def knn_rerank(table, qid, k, universe, score):
    """Shortlist qid's k embedding neighbors in universe and rerank them by
    score(candidate ids); returns the neighbors and [(id, score)], best first."""
    neighbors = embeddings.nearest_neighbors(table, qid, k, universe)
    cand_ids = [eid for eid, _ in neighbors.neighbors]
    scores = score(cand_ids) if cand_ids else []
    ranked = sorted(zip(cand_ids, map(float, scores)), key=lambda t: (-t[1], t[0]))
    return neighbors, ranked


def discover(params, config, data, table, query, k=50, threshold=0.8,
             seed=0, universe=None):
    """KNN-then-rerank synonym discovery for one query entity.

    Candidates come from cosine neighbors in the embedding space (cheap),
    the model score reranks them (expensive but accurate), and candidates
    strictly above the threshold are accepted.
    """
    if k < 1:
        raise DataError(f"discover needs k of at least 1 candidate, got {k}")
    qid = data.entity_id(query)
    if universe is None:
        universe = data.store.entities()

    def score(cand_ids):
        ctx = eval_contexts(data, [qid] + cand_ids, config.contexts_per_entity,
                            config.max_context_len, seed)
        return entity_scorer(params, config, ctx, table.matrix)([qid], cand_ids)

    neighbors, ranked = knn_rerank(table, qid, k, universe, score)
    return DiscoveryResult(qid, ranked, threshold,
                           candidates=list(neighbors.neighbors))


# ---------------------------------------------------------------------------
# full evaluation

def evaluate(params, config, data, table, split="test", seed=0,
             ks=(1, 5, 10), knn_k=50, threshold=0.8):
    """EvalReport over one split: pair AUC plus per-entity ranking metrics.

    Ranking metrics run the discovery pipeline for every entity of the split
    that has at least one synonym there, against the split's entities as the
    candidate universe.  The report ranks candidates and accepts none, so it
    does not depend on `threshold`, which is taken only for callers that pass
    discover's keywords.
    """
    if knn_k < 1:
        raise DataError(f"knn_k must be at least 1, got {knn_k}")
    store = data.store
    pairs = make_eval_pairs(store, split, stream_rng(seed, "eval", 1))
    if not pairs:
        raise MetricError(f"split {split!r} yields no evaluation pairs")
    entity_ids = sorted(store.entities(split))
    ctx = eval_contexts(data, entity_ids, config.contexts_per_entity,
                        config.max_context_len, seed)
    score = entity_scorer(params, config, ctx, table.matrix)

    scores = score([p.a for p in pairs], [p.b for p in pairs])
    auc_value = auc([(s, p.label) for s, p in zip(scores, pairs)])

    ap_values = []
    p_at = {k: [] for k in ks}
    r_at = {k: [] for k in ks}
    f1_at_scores = {k: [] for k in ks}
    for qid in entity_ids:
        si = store.synset_of(qid)
        relevant = set(store.synsets[si]) - {qid}
        if not relevant:
            continue
        _, reranked = knn_rerank(table, qid, knn_k, entity_ids,
                                 lambda cand_ids: score([qid], cand_ids))
        ranked_ids = [eid for eid, _ in reranked]
        ap_values.append(average_precision(ranked_ids, relevant))
        for k in ks:
            p_at[k].append(precision_at(ranked_ids, relevant, k))
            r_at[k].append(recall_at(ranked_ids, relevant, k))
            f1_at_scores[k].append(f1_at(ranked_ids, relevant, k))
    if not ap_values:
        raise MetricError(f"split {split!r} has no entity with a synonym")

    mean = lambda xs: float(np.mean(xs))
    return EvalReport(
        auc=float(auc_value),
        map=mean(ap_values),
        p_at_k={k: mean(v) for k, v in p_at.items()},
        r_at_k={k: mean(v) for k, v in r_at.items()},
        f1_at_k={k: mean(v) for k, v in f1_at_scores.items()},
    )
