import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from synmatch import cli, corpus, embeddings, encoder, evaluation, matcher, synthetic, training
from synmatch.errors import DataError, MetricError, NoContextError, UnknownEntityError
from synmatch.rng import stream_rng

import oracles as ref


def auc_pair_oracle(scored):
    """O(n^2) Mann-Whitney pair counting; ties count one half."""
    pos = [s for s, y in scored if y == 1]
    neg = [s for s, y in scored if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_perfect_separation():
    scored = [(0.9, 1), (0.8, 1), (0.3, 0), (0.1, 0)]
    assert evaluation.auc(scored) == 1.0


def test_auc_worked_example():
    scored = [(0.9, 1), (0.8, 0), (0.7, 1), (0.6, 0)]
    assert evaluation.auc(scored) == 0.75


def test_auc_random_labels_near_half():
    rng = stream_rng(0, "eval")
    scored = [(float(s), int(y)) for s, y in
              zip(rng.normal(size=10_000), rng.integers(2, size=10_000))]
    assert abs(evaluation.auc(scored) - 0.5) < 0.05


def test_auc_equals_pair_oracle_exactly():
    rng = stream_rng(1, "eval")
    for trial in range(30):
        n = int(rng.integers(5, 201))
        # coarse grid of score values forces plenty of ties
        scores = rng.integers(0, 7, size=n) / 4.0
        labels = rng.integers(2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scored = list(zip(scores.tolist(), labels.tolist()))
        assert evaluation.auc(scored) == auc_pair_oracle(scored)


def test_auc_invariant_under_monotone_transform():
    rng = stream_rng(2, "eval")
    scores = rng.normal(size=300)
    labels = rng.integers(2, size=300)
    labels[0], labels[1] = 0, 1
    base = evaluation.auc(list(zip(scores, labels)))
    assert evaluation.auc(list(zip(scores ** 3, labels))) == base
    assert evaluation.auc(list(zip(2.0 * scores + 7.0, labels))) == base


def test_auc_rejects_nan_scores():
    # a NaN has no rank: it would sort above every score
    with pytest.raises(MetricError, match=r"NaN scores \(1 of 4\)"):
        evaluation.auc([(float("nan"), 1), (0.2, 0), (0.5, 1), (0.1, 0)])


def test_auc_single_class_errors():
    with pytest.raises(MetricError):
        evaluation.auc([(0.4, 1), (0.2, 1)])


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_auc_refuses_a_label_other_than_zero_or_one(bad):
    # a 2 counted as neither class made the AUC 2.0; a 0.5 was cast to 0
    with pytest.raises(MetricError, match=rf"labels must be 0 or 1, got \[{bad}\]"):
        evaluation.auc([(0.9, 1), (0.8, bad), (0.1, 0)])


def test_auc_takes_bools_and_floats_as_labels():
    scored = [(0.9, 1), (0.8, 0), (0.7, 1), (0.6, 0)]
    for cast in (bool, float):
        assert evaluation.auc([(s, cast(y)) for s, y in scored]) == 0.75


def one_list(ranked, relevant, ks):
    """rank_metrics of one ranked list, as Python floats: (AP, {k: (P, R, F1)})."""
    ap, at = evaluation.rank_metrics([ranked], [relevant], ks)
    return float(ap[0]), {k: tuple(float(x[0]) for x in v) for k, v in at.items()}


def test_rank_metrics_take_relevant_items_once_as_a_set():
    want = one_list([3, 4, 5], {4}, (1, 2))
    assert want == (0.5, {1: (0.0, 0.0, 0.0), 2: (0.5, 1.0, 2 / 3)})
    for relevant in ([4, 4], (x for x in [4, 4]), iter({4})):
        assert one_list([3, 4, 5], relevant, (1, 2)) == want


@pytest.mark.parametrize("ranked", [[5, 5, 5], [3, 5, 4, 5]])
def test_rank_metrics_refuse_a_ranked_list_that_repeats_an_item(ranked):
    # counted at every place, [5, 5, 5] against {5} gave AP 3.0 and R@3 3.0
    with pytest.raises(MetricError, match="ranked list 0 names 5 more than once"):
        evaluation.rank_metrics([ranked], [{5}], (3,))
    with pytest.raises(MetricError, match="ranked list 1 names 5 more than once"):
        evaluation.rank_metrics([[1, 2, 3] + [4] * (len(ranked) - 3), ranked], [{5}, {5}], ())


def test_average_precision_examples():
    assert one_list([5], {5}, ())[0] == 1.0
    ap = one_list([7, 3, 9, 4], {7, 9}, ())[0]
    assert ap == (1 / 1 + 2 / 3) / 2
    assert ap == pytest.approx(0.8333, abs=1e-4)


def test_average_precision_needs_relevant():
    with pytest.raises(MetricError):
        one_list([1, 2], set(), (1,))
    with pytest.raises(MetricError, match="at least one relevant item"):
        evaluation.rank_metrics([[1, 2], [3, 4]], [{1}, set()], (1,))
    for k in (0, -1):
        with pytest.raises(MetricError, match="K must be positive"):
            one_list([1, 2], {1}, (1, k))


def test_precision_recall_f1_at_k():
    ranked = [1, 2, 3, 4]
    relevant = {1, 3}
    _, at = one_list(ranked, relevant, (1, 3, 4))
    assert at[1][0] == 1.0
    assert at[4][1] == 1.0
    assert at[1][1] == 0.5
    p, r = 2 / 3, 1.0
    assert at[3][2] == pytest.approx(2 * p * r / (p + r))
    assert one_list([9, 8], {1}, (2,))[1][2][2] == 0.0


def test_rank_metric_monotonicity():
    rng = stream_rng(3, "eval")
    for _ in range(20):
        n = int(rng.integers(3, 30))
        ranked = list(rng.permutation(n))
        relevant = set(rng.choice(n, size=max(1, n // 3), replace=False).tolist())
        _, at = one_list(ranked, relevant, range(1, n + 1))
        recalls = [at[k][1] for k in range(1, n + 1)]
        weighted = [k * at[k][0] for k in range(1, n + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(weighted, weighted[1:]))


def test_rank_metrics_keep_the_reference_bits():
    # the hits matrix gives the bits of one walk per metric, k within and past
    # the list, for a list alone and for rows of one length together
    rng = stream_rng(4, "eval")
    cases = []
    for _ in range(200):
        n = int(rng.integers(0, 40))
        ranked = rng.permutation(60)[:n].tolist()
        relevant = set(rng.choice(60, size=int(rng.integers(1, 12)), replace=False).tolist())
        ks = sorted(set(rng.integers(1, 50, size=4).tolist()))
        ap, at = one_list(ranked, relevant, ks)
        assert ap.hex() == ref.average_precision(ranked, relevant).hex()
        assert list(at) == ks
        for k in ks:
            want = (ref.precision_at(ranked, relevant, k), ref.recall_at(ranked, relevant, k),
                    ref.f1_at(ranked, relevant, k))
            assert [x.hex() for x in at[k]] == [float(x).hex() for x in want], k
        cases.append((ranked, relevant))
    ks = (1, 5, 10, 45)
    for n in {len(ranked) for ranked, _ in cases}:
        rows = [(ranked, relevant) for ranked, relevant in cases if len(ranked) == n]
        ap, at = evaluation.rank_metrics(np.array([r for r, _ in rows]).reshape(len(rows), n),
                                         [rel for _, rel in rows], ks)
        assert all(x.shape == (len(rows),) for v in at.values() for x in v)
        for i, row in enumerate(rows):
            assert ap[i].hex() == one_list(*row, ks)[0].hex()
            assert all([float(x[i]).hex() for x in at[k]] == [
                y.hex() for y in one_list(*row, ks)[1][k]] for k in ks)


def test_report_serialization():
    rep = evaluation.EvalReport(auc=0.9125, map=0.85,
                                p_at_k={1: 1.0, 5: 0.4},
                                r_at_k={1: 0.5, 5: 1.0},
                                f1_at_k={1: 2 / 3, 5: 0.5714285})
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0] == "auc 0.912500"
    assert lines[1] == "map 0.850000"
    assert "p@1 1.000000" in lines
    assert "r@5 1.000000" in lines
    assert text.endswith("\n")


def eval_store():
    groups = [(10, 11, 12), (20, 21), (30, 31), (40, 41, 42)]
    split = {0: "test", 1: "test", 2: "test", 3: "train"}
    return corpus.SynsetStore(synsets=groups, split=split)


def test_make_eval_pairs_structure():
    store = eval_store()
    pairs = evaluation.make_eval_pairs(store, "test", stream_rng(4, "eval"))
    pos = [p for p in pairs if p.label == 1]
    neg = [p for p in pairs if p.label == 0]
    assert len(pos) == 3 + 1 + 1  # C(3,2) + C(2,2) + C(2,2)
    assert len(neg) == len(pos)
    test_entities = set(store.entities("test"))
    for p in pairs:
        assert {p.a, p.b} <= test_entities
        assert store.are_synonyms(p.a, p.b) == bool(p.label)


def test_make_eval_pairs_reproducible():
    store = eval_store()
    a = evaluation.make_eval_pairs(store, "test", stream_rng(5, "eval"))
    b = evaluation.make_eval_pairs(store, "test", stream_rng(5, "eval"))
    assert a == b


# ---------------------------------------------------------------------------
# scoring and discovery over a tiny ingested corpus

@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    lines = []
    words = {"red": "crimson scarlet ruby cherry", "blue": "azure navy cobalt teal"}
    for ent, vocab in (("sun", "red"), ("sol", "red"), ("sea", "blue"), ("mar", "blue")):
        toks = words[vocab].split()
        for i in range(6):
            lines.append(f"{toks[i % 4]} {ent} {toks[(i + 1) % 4]} filler{i}")
    (root / "corpus.txt").write_text("\n".join(lines) + "\n")
    (root / "synsets.tsv").write_text("sun\tsol\nsea\tmar\n")
    data = corpus.ingest(str(root / "corpus.txt"), str(root / "synsets.tsv"), min_count=5)
    data.store.split.update({0: "test", 1: "test"})

    rng = stream_rng(6, "init")
    vocab = data.vocab
    matrix = rng.normal(size=(len(vocab), 5))
    matrix[corpus.PAD] = 0.0
    table = embeddings.EmbeddingTable(matrix=matrix, vocab=vocab)
    config = training.TrainConfig(d_ce=8, contexts_per_entity=3, max_context_len=6,
                                  epochs=0).validate()
    params = training.init_model_params(config, table.dim, stream_rng(7, "init"))
    return data, table, config, params


def test_score_pair_self_is_one(tiny):
    data, table, config, params = tiny
    s = evaluation.score_pair(params, config, data, table.matrix, "sun", "sun", seed=3)
    assert s == pytest.approx(1.0, abs=1e-12)


def test_score_pair_reproducible_and_bounded(tiny):
    data, table, config, params = tiny
    for seed in range(5):
        s1 = evaluation.score_pair(params, config, data, table.matrix, "sun", "sea", seed=seed)
        s2 = evaluation.score_pair(params, config, data, table.matrix, "sun", "sea", seed=seed)
        assert s1 == s2
        assert -1.0 <= s1 <= 1.0


def record_calls(monkeypatch):
    """The (N, K) leading shape of the candidate stack of every matcher call."""
    calls, match_score = [], matcher.match_score

    def recorded(H, HW, G, *args, **kwargs):
        calls.append(G.shape[:2])
        return match_score(H, HW, G, *args, **kwargs)

    monkeypatch.setattr(matcher, "match_score", recorded)
    return calls


def held_ids(scorer):
    """The ids a Scorer holds encodings of, ascending."""
    return np.flatnonzero(scorer.row_of >= 0).tolist()


def score_lists(score, left, right):
    """score's rows for candidate lists of any lengths, called as knn_rerank
    calls it: once per length, in the order first met, all its queries in one
    (n, K) array; one score array per query."""
    by_length, out = {}, [None] * len(left)
    for i, cands in enumerate(right):
        by_length.setdefault(len(cands), []).append(i)
    for members in by_length.values():
        rows = score([left[i] for i in members], [right[i] for i in members])
        for i, row in zip(members, rows):
            out[i] = row
    return out


def test_entity_scorer_slices_score_like_single_pairs(tiny, monkeypatch):
    data, table, config, params = tiny
    ids = sorted(data.store.entities())
    left = [ids[i % 4] for i in range(7)]
    right = [ids[(i * 3 + 1) % 4] for i in range(7)]
    # queries of 1 to 7 candidates, an id may come twice
    lengths = (1, 2, 3, 4, 7, 3, 7)
    shortlists = [[ids[(i + j) % 4] for j in range(n)] for i, n in enumerate(lengths)]
    score = evaluation._scorer(params, config, data, table.matrix, 0)
    single = [score([a], [[b]])[0][0] for a, b in zip(left, right)]
    alone = [score([a], [cands])[0] for a, cands in zip(left, shortlists)]
    assert [x.tolist() for x in alone] == [[score([a], [[b]])[0][0] for b in cands]
                                           for a, cands in zip(left, shortlists)]
    calls = record_calls(monkeypatch)
    pairs, grouped = score(left, [[b] for b in right]), score_lists(score, left, shortlists)
    # one call per shortlist length: every query of a length in one call
    assert calls == [(7, 1), (1, 1), (1, 2), (2, 3), (1, 4), (2, 7)]
    # a bound of 8 entities' encodings and 6 candidates: 2 pairs a call, 1
    # query of 3 or 4 candidates, and a query of 7 in slices of 6 and 1
    monkeypatch.setattr(evaluation, "SCORE_BYTES", 8 * config.contexts_per_entity
                        * config.d_ce * params["match.w_bm"].itemsize)
    monkeypatch.setattr(evaluation, "SCORE_SLICE", 6)
    calls.clear()
    sliced_pairs = score(left, [[b] for b in right])
    sliced = score_lists(score, left, shortlists)
    assert calls == [(2, 1)] * 3 + [(1, 1)] + [(1, 1), (1, 2), (1, 3), (1, 3), (1, 4)] + [
        (1, 6), (1, 1)] * 2
    assert [x.tolist() for x in sliced_pairs] == [x.tolist() for x in pairs] == [
        [s] for s in single]
    assert [x.tolist() for x in sliced] == [x.tolist() for x in grouped] == [
        x.tolist() for x in alone]


def test_entity_scorer_scores_empty_shortlists_as_empty(tiny, monkeypatch):
    data, table, config, params = tiny
    ids = sorted(data.store.entities())
    score = evaluation._scorer(params, config, data, table.matrix, 0)
    left = [ids[0], ids[1], ids[2], ids[1]]
    right = [[], [ids[2], ids[3]], [], [ids[0]]]
    calls = record_calls(monkeypatch)
    got = score_lists(score, left, right)
    # the empty queries make no matcher call
    assert calls == [(1, 2), (1, 1)]
    assert [x.shape for x in got] == [(0,), (2,), (0,), (1,)]
    assert got[1].tolist() == score([ids[1]], [[ids[2], ids[3]]])[0].tolist()
    assert got[3].tolist() == score([ids[1]], [[ids[0]]])[0].tolist()
    assert [x.shape for x in score([ids[3]], [[]])] == [(0,)]


def test_scorer_refuses_left_and_right_of_different_lengths(tiny):
    data, table, config, params = tiny
    data = fresh_copy(data)
    a, b, c = sorted(data.store.entities())[:3]
    score = evaluation._scorer(params, config, data, table.matrix, 0)
    for left, right in (([a, b], [[c]]), ([a], [[b], [c]]), ([], [[]])):
        with pytest.raises(DataError, match=f"^{len(left)} left entities but {len(right)} "
                                            f"candidate lists$"):
            score(left, right)
    # refused before any window is drawn
    assert held_ids(score) == [] and score.windows == {}


def test_an_embedding_table_of_another_width_is_a_data_error(tiny):
    data, table, config, params = tiny
    data = fresh_copy(data)
    narrow = embeddings.EmbeddingTable(matrix=table.matrix[:, :4], vocab=table.vocab)
    calls = [lambda: evaluation.discover(params, config, data, narrow, "sun", k=2),
             lambda: evaluation.discover_many(params, config, data, narrow, ["sun", "sea"], k=2),
             lambda: evaluation.evaluate(params, config, data, narrow, knn_k=2),
             lambda: evaluation.score_pair(params, config, data, narrow.matrix, "sun", "sol")]
    for call in calls:
        with pytest.raises(DataError, match="^the embedding table has 4-wide vectors, "
                                            "but the model expects 5$"):
            call()
    # refused before a Scorer is kept
    assert data.scorer is None
    assert evaluation.score_pair(params, config, data, table.matrix, "sun", "sun") \
        == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("k", [0, -1])
def test_discover_rejects_k_below_one(tiny, k):
    data, table, config, params = tiny
    with pytest.raises(DataError, match="at least 1"):
        evaluation.discover(params, config, data, table, "sun", k=k)


@pytest.mark.parametrize("eid", ["vocab-size", 10**6, -1])
def test_bad_integer_id_is_an_unknown_entity(tiny, eid):
    data, table, config, params = tiny
    eid = len(data.vocab) if eid == "vocab-size" else eid
    with pytest.raises(UnknownEntityError, match=f"entity id {eid} outside"):
        corpus.entity_id(eid, data.vocab, len(data.vocab))
    with pytest.raises(UnknownEntityError, match=f"entity id {eid} outside"):
        evaluation.discover(params, config, data, table, eid, k=2)
    # a caller's universe is checked too, where the KNN scan reads it
    with pytest.raises(UnknownEntityError, match=f"entity id {eid} outside"):
        evaluation.discover(params, config, data, table, "sun", k=2,
                            universe=sorted(data.store.entities()) + [eid])
    empty = evaluation.discover(params, config, data, table, "sun", k=2, universe=[])
    assert empty.candidates == [] and empty.ranked == []
    for a, b in ((eid, "sun"), ("sun", eid)):
        with pytest.raises(UnknownEntityError, match=f"entity id {eid} outside"):
            evaluation.score_pair(params, config, data, table.matrix, a, b)


def test_discover_threshold_extremes(tiny):
    data, table, config, params = tiny
    low = evaluation.discover(params, config, data, table, "sun", k=10, threshold=-1.0)
    assert len(low.ranked) == 3  # whole universe minus the query
    assert low.accepted == low.ranked
    high = evaluation.discover(params, config, data, table, "sun", k=10, threshold=1.0)
    assert high.accepted == []
    # an integer too large for a float is a finite threshold too
    huge = evaluation.discover(params, config, data, table, "sun", k=10, threshold=10**400)
    assert huge.accepted == []


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -np.inf, True, "0.5", None])
def test_discover_rejects_a_threshold_that_is_not_finite(tiny, threshold):
    data, table, config, params = tiny
    with pytest.raises(DataError, match="threshold must be a finite real number"):
        evaluation.discover_many(params, config, data, table, ["sun"], k=2, threshold=threshold)


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), True, "1", None])
def test_a_seed_that_is_not_an_integer_is_a_data_error(tiny, seed):
    data, table, config, params = tiny
    # a fresh corpus: no memo keyed by an equal integer seed answers first
    data = fresh_copy(data)
    for call in (lambda: evaluation.evaluate(params, config, data, table, seed=seed),
                 lambda: evaluation.discover(params, config, data, table, "sun", k=2, seed=seed),
                 lambda: evaluation.score_pair(params, config, data, table.matrix, "sun", "sea",
                                               seed=seed),
                 lambda: training.train(dataclasses.replace(config, seed=seed), data, table)):
        # train's config check names the field's type
        with pytest.raises(DataError, match="seed must be (an integer|int), got"):
            call()


def test_a_warm_memo_refuses_a_seed_equal_to_an_integer_one(tiny):
    data, table, config, params = tiny
    data = fresh_copy(data)
    want = evaluation.discover(params, config, data, table, "sun", k=3, seed=1)
    pair = evaluation.score_pair(params, config, data, table.matrix, "sun", "sea", seed=1)
    sun = corpus.entity_id("sun", data.vocab, len(data.vocab))
    # 1.0 == True == 1, with equal hashes: each would find seed 1's memo entries
    for seed in (1.0, True, np.float64(1.0)):
        for call in (lambda: evaluation.discover(params, config, data, table, "sun", k=3,
                                                 seed=seed),
                     lambda: evaluation.score_pair(params, config, data, table.matrix, "sun",
                                                   "sea", seed=seed),
                     lambda: evaluation._scorer(params, config, data, table.matrix, seed),
                     lambda: evaluation.eval_contexts(data, [sun], 3, 6, seed)):
            with pytest.raises(DataError, match="seed must be an integer"):
                call()
    assert evaluation.discover(params, config, data, table, "sun", k=3,
                               seed=np.int64(1)) == want
    assert evaluation.score_pair(params, config, data, table.matrix, "sun", "sea",
                                 seed=np.int64(1)) == pair


@pytest.mark.parametrize("bad", ["5", 2.5, 5.0, True, None, 0, -1])
def test_knn_k_is_a_positive_integer(tiny, bad):
    data, table, config, params = tiny
    with pytest.raises(DataError, match="knn_k must be a positive integer"):
        evaluation.evaluate(params, config, data, table, knn_k=bad)


@pytest.mark.parametrize("bad", ["5", 2.5, 5.0, True, None])
def test_discover_k_is_a_positive_integer(tiny, bad):
    data, table, config, params = tiny
    with pytest.raises(DataError, match="k must be a positive integer"):
        evaluation.discover(params, config, data, table, "sun", k=bad)


@pytest.mark.parametrize("ks", [(2.5,), (1, 5.0), (True,), ("5",), (None,), (np.float64(2),)])
def test_a_cutoff_that_is_not_a_positive_integer_is_a_metric_error(tiny, ks):
    data, table, config, params = tiny
    with pytest.raises(MetricError, match="K must be positive integers"):
        one_list([1, 2], {1}, ks)
    with pytest.raises(MetricError, match="K must be positive integers"):
        evaluation.evaluate(params, config, data, table, ks=ks)


def test_numpy_integer_cutoffs_are_cutoffs(tiny):
    data, table, config, params = tiny
    want = evaluation.evaluate(params, config, data, table, ks=(1, 2))
    assert evaluation.evaluate(params, config, data, table,
                               ks=(np.int64(1), np.uint8(2))).to_text() == want.to_text()


def test_a_one_shot_iterable_of_cutoffs_gives_every_cutoff(tiny):
    data, table, config, params = tiny
    want = one_list([3, 4, 5], {4}, (1, 2))
    assert set(want[1]) == {1, 2}
    assert one_list([3, 4, 5], {4}, (k for k in (1, 2))) == want
    report = evaluation.evaluate(params, config, data, table, ks=(1, 5))
    assert len(report.to_text().splitlines()) == 8
    assert evaluation.evaluate(params, config, data, table,
                               ks=(k for k in (1, 5))).to_text() == report.to_text()


def test_discover_sorted_by_model_score(tiny):
    data, table, config, params = tiny
    res = evaluation.discover(params, config, data, table, "sun", k=10, threshold=0.0)
    scores = [s for _, s in res.ranked]
    assert scores == sorted(scores, reverse=True)
    for eid, s in res.ranked:
        direct = evaluation.score_pair(params, config, data, table.matrix,
                                       "sun", eid, seed=0)
        assert s == pytest.approx(direct, abs=1e-12)


def reranked(table, queries, k, universe, score):
    """knn_rerank's (NeighborList, [(id, score)] best first) per query."""
    shortlists, groups = evaluation.knn_rerank(table, queries, k, universe, score)
    ranked = [None] * len(shortlists)
    for members, ids, scores in groups:
        for i, id_row, score_row in zip(members, ids.tolist(), scores.tolist()):
            ranked[i] = list(zip(id_row, score_row))
    return list(zip(shortlists, ranked))


def test_knn_rerank_breaks_score_ties_toward_the_smaller_id():
    # row i's cosine to row 0 grows with i, so the KNN lists 9, 8, ..., 1:
    # a tie keeps that order unless the rerank puts the smaller id first
    matrix = np.array([[1.0, 0.0]] + [[1.0, 0.1 * (10 - i)] for i in range(1, 10)])
    table = embeddings.EmbeddingTable(matrix=matrix, vocab=None)
    model = {9: 0.1, 8: 0.5, 7: 0.9, 6: 0.5, 5: 0.0, 4: -0.3, 3: -0.0, 2: 0.2, 1: -1.0}
    calls = []

    def score(queries, shortlists):
        # query 0 reads the model; query 5 scores every candidate 0, odd ids as -0.0
        calls.append(list(queries))
        return np.array([[model[c] if q == 0 else -0.0 if c % 2 else 0.0 for c in cands]
                         for q, cands in zip(queries, shortlists.tolist())])

    (neighbors, ranked), (_, ranked5) = reranked(table, [0, 5], 9, range(10), score)
    assert calls == [[0, 5]]        # both queries reranked in one call
    assert [eid for eid, _ in neighbors.neighbors] == list(range(9, 0, -1))
    # -0.0 equals 0.0, so 3 goes before 5
    assert ranked == [(7, 0.9), (6, 0.5), (8, 0.5), (2, 0.2), (9, 0.1), (3, 0.0), (5, 0.0),
                      (4, -0.3), (1, -1.0)]
    assert np.signbit(ranked[5][1]) and not np.signbit(ranked[6][1])
    assert [eid for eid, _ in ranked5] == [0, 1, 2, 3, 4, 6, 7, 8, 9]
    assert all(type(eid) is int and type(s) is float for eid, s in ranked + ranked5)
    # an empty shortlist is not scored, and with no other query nothing is
    calls.clear()
    (_, empty), (_, alone) = reranked(table, [3, 0], 9, [3], score)
    assert calls == [[0]] and empty == [] and alone == [(3, 0.0)]
    [(nl, ranked)] = reranked(table, [0], 9, [], None)
    assert (nl.query, nl.neighbors, ranked) == (0, [], [])


def test_a_universe_that_names_an_entity_twice_is_a_data_error(tiny):
    # the parent ranked the repeated id at each of its places
    data, table, config, params = tiny
    sun, sol, sea, mar = (corpus.entity_id(e, data.vocab, len(data.vocab))
                          for e in ("sun", "sol", "sea", "mar"))
    universe = [sol, sea, mar, sea]
    for call in (lambda: evaluation.discover(params, config, data, table, sun, k=10,
                                             universe=universe),
                 lambda: evaluation.discover_many(params, config, data, table, [sun, sol],
                                                  k=10, universe=universe),
                 lambda: evaluation.knn_rerank(table, [sun], 10, universe, None)):
        with pytest.raises(DataError, match=f"^the universe names entity id {sea} more "
                                            f"than once$"):
            call()


def test_evaluate_report_shape(tiny):
    data, table, config, params = tiny
    rep = evaluation.evaluate(params, config, data, table, split="test",
                              seed=0, ks=(1, 2))
    assert 0.0 <= rep.auc <= 1.0
    assert 0.0 <= rep.map <= 1.0
    assert set(rep.p_at_k) == {1, 2}
    # every test entity has exactly one synonym, so per-query recall at 2 is
    # 0 or 1 and the mean over the 4 queries lands on a quarter
    assert rep.r_at_k[2] in (0.0, 0.25, 0.5, 0.75, 1.0)


# ---------------------------------------------------------------------------
# evaluation windows are drawn once per scorer, and a scorer is kept per CorpusData

def fresh_copy(data):
    """A CorpusData over the same corpus, with nothing drawn yet."""
    return corpus.CorpusData(vocab=data.vocab, tokens=data.tokens,
                             line_start=data.line_start, store=data.store)


def fresh_draws(data, ids, P, T, seed):
    return {eid: corpus.retrieve_contexts(data, eid, P, T, stream_rng(seed, "eval", 0, eid))
            for eid in ids}


def test_eval_contexts_equal_fresh_draws(tiny):
    data = fresh_copy(tiny[0])
    ids = sorted(data.store.entities())
    for seed in (0, 5):
        for P, T in ((3, 6), (8, 3)):
            want = fresh_draws(data, ids, P, T, seed)
            for _ in range(2):
                got = evaluation.eval_contexts(data, ids, P, T, seed)
                assert list(got) == ids
                assert {eid: list(w) for eid, w in got.items()} == want
                assert all(type(w) is tuple for w in got.values())
    assert data.scorer is None          # a pure draw: nothing is kept on the corpus


def count_retrievals(monkeypatch):
    calls = []
    retrieve = corpus.retrieve_contexts

    def counted(*args, **kwargs):
        calls.append(args[1])
        return retrieve(*args, **kwargs)

    monkeypatch.setattr(corpus, "retrieve_contexts", counted)
    return calls


def test_second_discover_draws_no_windows(tiny, monkeypatch):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    calls = count_retrievals(monkeypatch)
    first = evaluation.discover(params, config, data, table, "sun", k=10, threshold=0.0)
    assert len(calls) == 4                 # the query and its three candidates
    second = evaluation.discover(params, config, data, table, "sun", k=10, threshold=0.0)
    assert len(calls) == 4
    assert second.ranked == first.ranked and second.candidates == first.candidates
    # a corpus with nothing drawn yet ranks the same
    again = evaluation.discover(params, config, fresh_copy(data), table, "sun", k=10,
                                threshold=0.0)
    assert len(calls) == 8
    assert again.ranked == first.ranked and again.candidates == first.candidates


def test_memo_starts_empty_on_ingest_and_index_load(tiny, tmp_path):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    assert data.scorer is None
    evaluation.discover(params, config, data, table, "sun", k=10)
    assert len(held_ids(data.scorer)) == 4
    cli.save_index(str(tmp_path / "index.npz"), data)
    assert cli.load_index(str(tmp_path / "index.npz")).scorer is None
    memo = next(f for f in dataclasses.fields(corpus.CorpusData) if f.name == "scorer")
    assert not memo.init and not memo.repr and not memo.compare
    assert "scorer" not in repr(data)
    assert fresh_copy(data).scorer is None


def test_callers_cannot_change_stored_windows(tiny):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    ids = sorted(data.store.entities())
    P, T = config.contexts_per_entity, config.max_context_len
    want = fresh_draws(data, ids, P, T, 0)
    given = evaluation.eval_contexts(data, ids, P, T, 0)
    score = evaluation.Scorer(params, config, data, table.matrix, 0, given)
    # the scorer holds a copy of the dict it was given, of tuples of frozen windows
    given[ids[0]] = ()
    del given[ids[1]]
    windows = score.windows[ids[2]]
    with pytest.raises(AttributeError):
        windows.append(windows[0])
    with pytest.raises(TypeError):
        windows[0] = windows[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        windows[0].token_ids = ()
    assert {eid: list(w) for eid, w in score.windows.items()} == want


def test_entity_without_context_raises_every_call(tiny, monkeypatch):
    data = fresh_copy(tiny[0])
    calls = count_retrievals(monkeypatch)
    for attempt in (1, 2):
        with pytest.raises(NoContextError):
            evaluation.eval_contexts(data, [corpus.PAD], 3, 6, 0)
        assert len(calls) == attempt


# ---------------------------------------------------------------------------
# data.scorer holds one model at a time

def count_encoded(monkeypatch):
    """Windows encoded by each encoder.encode_batch call from now on."""
    calls = []
    encode = encoder.encode_batch

    def counted(windows, *args, **kwargs):
        calls.append(len(windows))
        return encode(windows, *args, **kwargs)

    monkeypatch.setattr(encoder, "encode_batch", counted)
    return calls


def test_second_discover_encodes_no_windows(tiny, monkeypatch):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    calls = count_encoded(monkeypatch)
    first = evaluation.discover(params, config, data, table, "sun", k=10, threshold=0.0)
    # the query and its three candidates, in one batch
    assert calls == [4 * config.contexts_per_entity]
    second = evaluation.discover(params, config, data, table, "sun", k=10, threshold=0.0)
    assert len(calls) == 1
    assert second.ranked == first.ranked and second.candidates == first.candidates


def test_evaluate_after_discovers_reports_as_on_a_fresh_index(tiny, tmp_path, monkeypatch):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    for query in ("sun", "mar", "sun"):
        evaluation.discover(params, config, data, table, query, k=2, threshold=0.0)
    calls = count_encoded(monkeypatch)
    report = evaluation.evaluate(params, config, data, table, split="test", ks=(1, 2))
    assert sum(calls) < 4 * config.contexts_per_entity   # some entities were held
    cli.save_index(str(tmp_path / "index.npz"), data)
    fresh = cli.load_index(str(tmp_path / "index.npz"))
    want = evaluation.evaluate(params, config, fresh, table, split="test", ks=(1, 2))
    assert report.to_text() == want.to_text()


def _change_weight_in_place(params, table, config):
    params["enc.bw.Wh"][1, 2] += 0.25
    return params, table, config


def _negate_a_zero_weight(params, table, config):
    assert params["enc.fw.b"][0, 0] == 0.0
    params["enc.fw.b"][0, 0] = -0.0      # the same value, another bit pattern
    return params, table, config


def _change_w_bm_in_place(params, table, config):
    params["match.w_bm"][0, 1] += 0.5          # the encoder untouched
    return params, table, config


MODEL_CHANGES = {
    "weight-in-place": _change_weight_in_place,
    "w_bm": _change_w_bm_in_place,
    "negative-zero": _negate_a_zero_weight,
    "embedding-object": lambda p, t, c: (p, dataclasses.replace(t, matrix=t.matrix.copy()), c),
    "P": lambda p, t, c: (p, t, dataclasses.replace(c, contexts_per_entity=2)),
    "T": lambda p, t, c: (p, t, dataclasses.replace(c, max_context_len=4)),
    "variant": lambda p, t, c: (p, t, dataclasses.replace(c, encoder="bilstm")),
    # the leak changes no encoding, but a held scorer matches with its own
    "leak": lambda p, t, c: (p, t, dataclasses.replace(c, leaky=not c.leaky)),
}


@pytest.mark.parametrize("change", sorted(MODEL_CHANGES) + ["seed"])
def test_model_change_encodes_again(tiny, monkeypatch, change):
    _, table, config, params = tiny
    params = {k: v.copy() for k, v in params.items()}
    data = fresh_copy(tiny[0])
    evaluation.discover(params, config, data, table, "sun", k=10)
    seed = 0
    if change == "seed":
        seed = 3
    else:
        params, table, config = MODEL_CHANGES[change](params, table, config)
    calls = count_encoded(monkeypatch)
    got = evaluation.discover(params, config, data, table, "sun", k=10, seed=seed)
    assert calls == [4 * config.contexts_per_entity]
    want = evaluation.discover(params, config, fresh_copy(data), table, "sun", k=10, seed=seed)
    assert got.ranked == want.ranked and got.candidates == want.candidates
    # a new scorer took the old one's place: its encodings and projections are gone
    held = data.scorer
    assert len(held_ids(held)) == len(held.enc) == len(held.hw) == 4


def test_scorer_keeps_the_weights_it_was_made_with(tiny, monkeypatch):
    _, table, config, params = tiny
    params = {k: v.copy() for k, v in params.items()}
    data = fresh_copy(tiny[0])
    ids = sorted(data.store.entities())
    other = fresh_copy(data)        # a Scorer holds its corpus weakly
    want = [x.tolist() for x in evaluation._scorer(
        params, config, other, table.matrix, 0)(ids, [ids] * 4)]
    score = evaluation._scorer(params, config, data, table.matrix, 0)
    score(ids[:2], [ids[:2]] * 2)               # two entities held
    for change in (_change_weight_in_place, _change_w_bm_in_place):
        change(params, table, config)
    # the other two are encoded and projected with the weights as they were
    assert [x.tolist() for x in score(ids, [ids] * 4)] == want
    # the changed weights get a new scorer on data; the first keeps its own
    # encodings and encodes nothing again
    calls = count_encoded(monkeypatch)
    changed = evaluation._scorer(params, config, data, table.matrix, 0)(ids, [ids] * 4)
    assert [x.tolist() for x in changed] != want
    assert [x.tolist() for x in score(ids, [ids] * 4)] == want
    assert calls == [4 * config.contexts_per_entity]


def test_weights_copied_to_new_arrays_encode_nothing(tiny, monkeypatch):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    first = evaluation.discover(params, config, data, table, "sun", k=10)
    copied = {name: w.copy() for name, w in params.items()}
    calls = count_encoded(monkeypatch)
    again = evaluation.discover(copied, config, data, table, "sun", k=10)
    assert calls == []
    assert again.ranked == first.ranked and again.candidates == first.candidates


def test_weight_check_compares_shapes_and_bits(tiny):
    params = tiny[3]
    held = evaluation._held_copies(params)
    assert evaluation._same_weights(params, held)
    for name in encoder.PARAM_NAMES + ("match.w_bm",):
        for other in (params[name].reshape(-1), params[name].reshape(1, -1).T,
                      np.negative(params[name]), params[name][:, :-1]):
            assert not evaluation._same_weights(dict(params, **{name: other}), held), name
    # one 0.0 turned to -0.0 differs; a NaN with an equal payload matches
    name = "match.w_bm"
    w = params[name].copy()
    w[0, 0] = 0.0
    flipped = w.copy()
    flipped[0, 0] = -0.0
    assert not evaluation._same_weights(dict(params, **{name: flipped}),
                                        evaluation._held_copies(dict(params, **{name: w})))
    w[0, 0] = np.nan
    nan_held = evaluation._held_copies(dict(params, **{name: w}))
    assert evaluation._same_weights(dict(params, **{name: w.copy()}), nan_held)
    # an integer-typed weight equal in value matches its float64 copy
    ints = np.arange(params[name].size).reshape(params[name].shape)
    int_held = evaluation._held_copies(dict(params, **{name: ints}))
    assert evaluation._same_weights(dict(params, **{name: ints}), int_held)
    assert evaluation._same_weights(dict(params, **{name: ints.astype(float)}), int_held)
    assert not evaluation._same_weights(dict(params, **{name: ints + 1}), int_held)


def test_entity_without_context_is_not_encoded(tiny, monkeypatch):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    sun = corpus.entity_id("sun", data.vocab, len(data.vocab))
    calls = count_encoded(monkeypatch)
    score = evaluation._scorer(params, config, data, table.matrix, 0)
    for _ in range(2):
        with pytest.raises(NoContextError):
            score([sun], [[corpus.PAD]])
    # the call draws every window before it encodes: sun is not encoded either
    assert calls == []
    assert held_ids(data.scorer) == []
    # evaluate draws the windows of every split entity before it scores any, so
    # a split entity with no context fails it though, at seed 5, no evaluation
    # pair and no shortlist of one candidate names it
    store = data.store
    data.store = corpus.SynsetStore(synsets=store.synsets + [(corpus.PAD,)],
                                    split={**store.split, len(store.synsets): "test"})
    pairs = evaluation.make_eval_pairs(data.store, "test", stream_rng(5, "eval", 1))
    assert corpus.PAD not in {eid for p in pairs for eid in (p.a, p.b)}
    queries = [eid for eid in data.store.entities("test") if eid != corpus.PAD]
    assert corpus.PAD not in {eid for nl in embeddings.nearest_neighbors(
        table, queries, 1, data.store.entities("test")) for eid, _ in nl.neighbors}
    with pytest.raises(NoContextError):
        evaluation.evaluate(params, config, data, table, split="test", seed=5, knn_k=1,
                            ks=(1,))
    assert calls == []


def test_callers_cannot_write_stored_encodings(tiny):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    evaluation.discover(params, config, data, table, "sun", k=10)
    held = data.scorer
    assert len(held_ids(held)) == len(held.enc) == len(held.hw) == 4
    for stored in (held.enc, held.hw, held.enc[0], held.hw[0]):
        with pytest.raises(ValueError):
            stored[0, 0] = 1.0
        with pytest.raises(ValueError):
            stored.flags.writeable = True
    # the seven weight copies the check compares with are read-only too
    assert sorted(held.weights) == sorted(encoder.PARAM_NAMES + ("match.w_bm",))
    for w in held.weights.values():
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


# ---------------------------------------------------------------------------
# each entity's projection enc[e] @ w_bm is made when it is encoded and kept beside it

@pytest.mark.parametrize("leaky", [False, True])
@pytest.mark.parametrize("d_ce, P", [(8, 3), (256, 20)])     # tiny, and paper-shaped
def test_entity_scorer_equals_unprojected_oracle(tiny, monkeypatch, d_ce, P, leaky):
    """In the model's float32 and in float64."""
    data, table, config, _ = tiny
    config = dataclasses.replace(config, d_ce=d_ce, contexts_per_entity=P, leaky=leaky)
    model = training.init_model_params(config, table.dim, stream_rng(8, "init"))
    model["match.w_bm"] = stream_rng(9, "init").normal(size=(d_ce, d_ce)) / np.sqrt(d_ce)
    ids = sorted(data.store.entities())
    # all at once, and over two calls: the second appends its rows to the held ones
    for dtype, arrivals in itertools.product((np.float32, np.float64), ([ids], [ids[:2], ids])):
        params = {name: w.astype(dtype) for name, w in model.items()}
        data = fresh_copy(data)
        score = evaluation._scorer(params, config, data, table.matrix, 0)
        for some in arrivals:
            score(some, [some] * len(some))
        held = data.scorer
        assert held_ids(held) == ids and len(held.hw) == len(ids)
        assert held.enc.dtype == held.hw.dtype == held.E.dtype == dtype

        def want(left, right):
            return ref.entity_scores(held.enc, held.row_of, params["match.w_bm"], leaky,
                                     left, right)

        # gathered left sides as pairs, then every id against all ids, at the
        # set bound and at one of 6 pairs or 3 such queries a matcher call
        left = [ids[i % 4] for i in range(14)]
        right = [ids[(i * 3 + i // 4) % 4] for i in range(len(left))]
        for n_bytes in (evaluation.SCORE_BYTES, 18 * P * d_ce * np.dtype(dtype).itemsize):
            monkeypatch.setattr(evaluation, "SCORE_BYTES", n_bytes)
            assert np.concatenate(score(left, [[b] for b in right])).tolist() == want(left,
                                                                                     right)
            assert [x.tolist() for x in score(ids, [ids] * 4)] == [want([a], ids) for a in ids]


# ---------------------------------------------------------------------------
# an evaluate's ranking queries, and a discover pass's queries, are scored in
# grouped matcher calls with the bits of one query at a time

@pytest.fixture(scope="module")
def tier1(tmp_path_factory):
    """A tier-1-shaped split: 40 synsets of 3 entities, 30 entities held out;
    d_ce 32, P 5, T 20."""
    root = tmp_path_factory.mktemp("tier1")
    paths = synthetic.generate(str(root), clusters=40, entities_per_cluster=3,
                               contexts_per_entity=30, tokens_per_context=12, noise=0.3,
                               seed=12)
    data = corpus.ingest(paths["corpus"], paths["synsets"])
    data.store = corpus.split_synsets(data.store, 0.0, 0.25, stream_rng(12, "ingest"))
    table = embeddings.load_embeddings(paths["embeddings"], data.vocab)
    config = training.TrainConfig(d_ce=32, contexts_per_entity=5, max_context_len=20).validate()
    return data, table, config


# e4 and e6 are twins: each occurs once, in lines alike but for it, and their
# embedding rows are equal, so their windows encode to the same bits and every
# query scores them alike
TWIN_LINES = ["w0 e0 w1 e1", "e1 w2 e2 w3", "w1 e3 e0 w2", "e2 w0 e5 w3 e7", "w3 e7 e3 w1 e5",
              "w0 w1 e4 w2 w3", "w0 w1 e6 w2 w3", "e5 w2 e1 e7"]


@pytest.fixture(scope="module")
def twins():
    """Eight test entities e0-e7 (ids 2-9) in four synsets of two, over the
    context words w0-w3; d_ce 4, P 2, T 4."""
    vocab = corpus.Vocabulary([f"e{i}" for i in range(8)] + [f"w{i}" for i in range(4)])
    lines = [[vocab.get(t) for t in line.split()] for line in TWIN_LINES]
    store = corpus.SynsetStore(synsets=[(2, 3), (4, 5), (6, 7), (8, 9)],
                               split=dict.fromkeys(range(4), "test"))
    data = corpus.CorpusData(vocab=vocab, tokens=np.array(sum(lines, []), dtype=np.int32),
                             line_start=np.cumsum([0] + [len(x) for x in lines], dtype=np.int64),
                             store=store)
    matrix = stream_rng(15, "init").normal(size=(len(vocab), 4))
    matrix[corpus.PAD] = 0.0
    matrix[vocab.get("e6")] = matrix[vocab.get("e4")]
    table = embeddings.EmbeddingTable(matrix=matrix, vocab=vocab)
    config = training.TrainConfig(d_ce=4, contexts_per_entity=2, max_context_len=4).validate()
    return data, table, config


def test_knn_rerank_orders_each_query_as_a_per_query_lexsort(twins):
    data, table, config = twins
    data = fresh_copy(data)
    score = evaluation._scorer(scoring_model(config, table), config, data, table.matrix, 0)
    e = lambda i: 2 + i
    # five entities, fewer than k + 1; e0 and e5 are outside, so their
    # shortlists hold 5 candidates and the others' 4
    universe, queries = [e(6), e(1), e(4), e(3), e(7)], [e(0), e(4), e(5), e(6), e(3)]
    calls = []

    def signed(q, c):
        # each query's scores as signed zeros, below its median -0.0: all tie
        calls.append(len(q))
        s = score(q, c)
        return np.copysign(0.0, s - np.median(s, axis=1, keepdims=True))

    for scorer in (score, signed):
        shortlists, groups = evaluation.knn_rerank(table, queries, 9, universe, scorer)
        assert [(members, ids.shape) for members, ids, _ in groups] == [
            ([0, 2], (2, 5)), ([1, 3, 4], (3, 4))]
        tied = 0
        for members, ids, scores in groups:
            for i, id_row, score_row in zip(members, ids, scores):
                nl, = embeddings.nearest_neighbors(table, [queries[i]], 9, universe)
                assert shortlists[i].query == queries[i]
                assert shortlists[i].neighbors == nl.neighbors
                alone = scorer([queries[i]], nl.ids[None])[0]
                order = np.lexsort((nl.ids, -alone))
                assert id_row.tolist() == nl.ids[order].tolist()
                assert score_row.tobytes() == alone[order].tobytes()
                tied += bool((score_row[1:] == score_row[:-1]).any())
        # the twins tie in the model's scores of e0, e5 and e3
        assert tied == (3 if scorer is score else 5)
    signs = np.signbit(signed([e(0)], [[e(6), e(1), e(4), e(3), e(7)]]))
    assert signs.any() and not signs.all()      # -0.0 and 0.0 in one query
    assert calls[:2] == [2, 3]      # one score call per shortlist length


def test_a_warm_evaluate_orders_each_shortlist_length_in_one_call(twins, monkeypatch):
    data, table, config = twins
    params = scoring_model(config, table)
    data = fresh_copy(data)
    first = evaluation.evaluate(params, config, data, table, knn_k=50)
    shapes, lexsort = [], np.lexsort

    def recorded(keys, axis=-1):
        shapes.append(np.shape(keys[0]))
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", recorded)
    again = evaluation.evaluate(params, config, data, table, knn_k=50)
    assert again.to_text() == first.to_text()
    # the KNN sorts each of the 8 queries' cosines alone; the rerank orders the
    # 8 queries' 7 candidates in one call
    assert shapes == [(7,)] * 8 + [(8, 7)]
    shapes.clear()
    e = lambda i: 2 + i
    evaluation.discover_many(params, config, data, table, [e(0), e(4), e(5), e(6), e(3)],
                             k=9, universe=[e(6), e(1), e(4), e(3), e(7)])
    assert [shape for shape in shapes if len(shape) == 2] == [(2, 5), (3, 4)]


def scoring_model(config, table):
    """Initial weights with a random match.w_bm, so that scores spread; all
    float32, as the model's are."""
    params = training.init_model_params(config, table.dim, stream_rng(13, "init"))
    w_bm = stream_rng(14, "init").normal(size=(config.d_ce,) * 2) / np.sqrt(config.d_ce)
    params["match.w_bm"] = w_bm.astype(np.float32)
    return params


def report_bits(report):
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {name: v.hex() if isinstance(v, float) else {k: x.hex() for k, x in v.items()}
            for name, v in values.items()}


@pytest.mark.parametrize("variant", ["anchored", "bilstm"])
@pytest.mark.parametrize("leaky", [False, True])
@pytest.mark.parametrize("split_data", ["tiny", "tier1", "twins"])
def test_evaluate_equals_per_query_oracle(request, monkeypatch, split_data, leaky, variant):
    data, table, config = request.getfixturevalue(split_data)[:3]
    config = dataclasses.replace(config, leaky=leaky, encoder=variant)
    params = scoring_model(config, table)
    data = fresh_copy(data)
    n = len(data.store.entities("test"))
    # bytes of one entity's encodings
    entity = config.contexts_per_entity * config.d_ce * params["match.w_bm"].itemsize
    for knn_k in (2, 50):                   # 50: more candidates than the split holds
        K = min(knn_k, n - 1)
        want = report_bits(ref.evaluate(params, config, data, table, knn_k=knn_k))
        # the set bounds, 3 queries a call, and 2 queries a call with every
        # query in two slices
        half = (K + 1) // 2
        for n_bytes, width in ((evaluation.SCORE_BYTES, evaluation.SCORE_SLICE),
                               (3 * (K + 2) * entity, evaluation.SCORE_SLICE),
                               (2 * (half + 2) * entity, half)):
            monkeypatch.setattr(evaluation, "SCORE_BYTES", n_bytes)
            monkeypatch.setattr(evaluation, "SCORE_SLICE", width)
            got = evaluation.evaluate(params, config, data, table, knn_k=knn_k)
            assert report_bits(got) == want, (knn_k, n_bytes, width)


def test_score_budget_is_in_bytes(tier1, monkeypatch):
    """One byte budget: a float64 model stacks half the queries a matcher call
    that a float32 model does, no call stacks more than the budget unless it
    holds one query larger than it, and scores keep their bits at budgets of
    1, 2 and 4 float32 queries of 3 candidates a call."""
    data, table, config = tier1
    model = scoring_model(config, table)
    ids = sorted(data.store.entities())
    # 16 queries of 3 candidates and 8 of 6, interleaved
    lengths = [6 if i % 3 == 0 else 3 for i in range(24)]
    left = ids[:24]
    right = [ids[30 + i:30 + i + n] for i, n in enumerate(lengths)]
    query = 5 * config.contexts_per_entity * config.d_ce * 4   # float32 bytes, 3 candidates
    stacks, match_score = [], matcher.match_score

    def recorded(H, HW, G, *args, **kwargs):
        stacks.append((len(G), H.nbytes + HW.nbytes + G.nbytes))
        return match_score(H, HW, G, *args, **kwargs)

    monkeypatch.setattr(matcher, "match_score", recorded)
    calls, over = {}, {}
    for dtype in (np.float32, np.float64):
        params = {name: w.astype(dtype) for name, w in model.items()}
        copy = fresh_copy(data)         # a Scorer holds its corpus weakly
        score = evaluation._scorer(params, config, copy, table.matrix, 0)
        bits = []
        for n_queries in (1, 2, 4):
            monkeypatch.setattr(evaluation, "SCORE_BYTES", n_queries * query)
            stacks.clear()
            bits.append([x.tobytes() for x in score_lists(score, left, right)])
            calls[dtype, n_queries] = len(stacks)
            big = [n for n, n_bytes in stacks if n_bytes > n_queries * query]
            assert set(big) <= {1}          # only a query larger than the budget, alone
            over[dtype, n_queries] = len(big)
        assert bits[0] == bits[1] == bits[2]
    # in budget units: a query of 3 candidates is 1 in float32 and 2 in
    # float64, a query of 6 is 8/5 and 16/5
    assert [calls[np.float32, n] for n in (1, 2, 4)] == [16 + 8, 8 + 8, 4 + 4]
    assert [calls[np.float64, n] for n in (1, 2, 4)] == [16 + 8, 16 + 8, 8 + 8]
    assert calls[np.float64, 4] == 2 * calls[np.float32, 4]
    assert [over[np.float32, n] for n in (1, 2, 4)] == [8, 0, 0]
    assert [over[np.float64, n] for n in (1, 2, 4)] == [24, 8, 0]


def test_corpus_is_freed_without_the_cycle_collector(tiny):
    """A corpus that has served discover, evaluate and score_pair goes when
    its last reference does; a Scorer kept past it scores what it holds and
    cannot draw more windows."""
    data, table, config, params = tiny
    data = fresh_copy(data)
    ids = sorted(data.store.entities())
    evaluation.discover(params, config, data, table, ids[0], k=2, threshold=0.0)
    evaluation.evaluate(params, config, data, table, split="test", ks=(1, 2))
    want = evaluation.score_pair(params, config, data, table.matrix, ids[0], ids[1])
    held, alive = data.scorer, weakref.ref(data)
    gc.disable()
    try:
        del data
        assert alive() is None
    finally:
        gc.enable()
    assert held([ids[0]], [[ids[1]]])[0].tolist() == [want]
    orphan = evaluation.Scorer(params, config, fresh_copy(tiny[0]), table.matrix, 0)
    with pytest.raises(DataError, match="corpus is gone"):
        orphan([ids[0]], [[ids[1]]])


def result_bits(result):
    return (result.query, [(eid, s.hex()) for eid, s in result.ranked],
            [(eid, c.hex()) for eid, c in result.candidates],
            [(eid, s.hex()) for eid, s in result.accepted])


@pytest.mark.parametrize("split_data", ["tiny", "tier1"])
def test_discover_many_equals_one_query_at_a_time(request, monkeypatch, split_data):
    data, table, config = request.getfixturevalue(split_data)[:3]
    params = scoring_model(config, table)
    test = sorted(data.store.entities("test"))
    universe = test[1:]
    # the first query is outside the universe, so its shortlist is one longer;
    # a query may come twice
    queries = [test[0]] + test[1::2] + [test[1]]
    # bytes of one entity's encodings
    entity = config.contexts_per_entity * config.d_ce * params["match.w_bm"].itemsize
    for k in (2, 50):
        K = min(k, len(universe))
        alone = [result_bits(evaluation.discover(params, config, fresh_copy(data), table, q,
                                                 k=k, threshold=0.0, universe=universe))
                 for q in queries]
        # the set bounds, 2 queries a call, and the longer query in two slices
        for n_bytes, width in ((evaluation.SCORE_BYTES, evaluation.SCORE_SLICE),
                               (2 * (K + 2) * entity, evaluation.SCORE_SLICE),
                               (2 * (K + 2) * entity, K)):
            monkeypatch.setattr(evaluation, "SCORE_BYTES", n_bytes)
            monkeypatch.setattr(evaluation, "SCORE_SLICE", width)
            got = evaluation.discover_many(params, config, fresh_copy(data), table, queries,
                                           k=k, threshold=0.0, universe=universe)
            assert [result_bits(r) for r in got] == alone, (k, n_bytes, width)


def test_evaluate_projects_each_left_entity_once(tiny, monkeypatch):
    _, table, config, params = tiny
    data = fresh_copy(tiny[0])
    first = evaluation.evaluate(params, config, data, table, split="test", ks=(1, 2))
    held = data.scorer
    pairs = evaluation.make_eval_pairs(data.store, "test", stream_rng(0, "eval", 1))
    lefts = {p.a for p in pairs} | set(data.store.entities("test"))   # every one is a query
    # one projected row per left entity: none was projected twice
    assert held_ids(held) == sorted(lefts) and len(held.hw) == len(lefts)
    hw = held.hw
    calls = count_encoded(monkeypatch)
    retrievals = count_retrievals(monkeypatch)
    again = evaluation.evaluate(params, config, data, table, split="test", ks=(1, 2))
    # nothing drawn, encoded or projected
    assert calls == [] and retrievals == [] and data.scorer is held and held.hw is hw
    assert again.to_text() == first.to_text()


# history.txt of the run below, as written when each epoch's validation
# encoded all of its windows in one batch of its own, by the float32 model
# (the float64 model wrote losses 6.699439970529e-02, 7.850567270028e-02
# and 6.043637145286e-02, within 1.5e-7 relative, at the same AUCs)
VALID_HISTORY = ("epoch=0 loss=6.699438972606e-02 valid_auc=0.888889\n"
                 "epoch=1 loss=7.850567106571e-02 valid_auc=0.888889\n"
                 "epoch=2 loss=6.043637129996e-02 valid_auc=0.888889\n")


def test_validation_encodes_once_an_epoch_and_keeps_its_history(tmp_path, capsys,
                                                                monkeypatch):
    root = str(tmp_path)
    assert cli.main(["synth", "--workdir", root, "--out", "data", "--clusters", "10",
                     "--noise", "0.9", "--contexts-per-entity", "10", "--vocab-size", "200",
                     "--seed", "11"]) == 0
    assert cli.main(["ingest", "--workdir", root, "--corpus", "data/corpus.txt",
                     "--synsets", "data/synsets.tsv", "--valid-frac", "0.25",
                     "--test-frac", "0.25", "--seed", "11"]) == 0
    valid = sorted(cli.load_index(str(tmp_path / "index.npz")).store.entities("valid"))
    calls = count_encoded(monkeypatch)
    retrievals = count_retrievals(monkeypatch)
    assert cli.main(["train", "--workdir", root, "--index", "index.npz",
                     "--embeddings", "data/embeddings.txt", "--d-ce", "8",
                     "--contexts-per-entity", "3", "--max-context-len", "13",
                     "--epochs", "3", "--seed", "11"]) == 0
    capsys.readouterr()
    # each epoch's new weights get a scorer of their own: all valid windows,
    # encoded once an epoch, but drawn once for the whole run
    assert len(calls) == 3 and len(set(calls)) == 1
    assert valid and sorted(eid for eid in retrievals if eid in valid) == valid
    assert (tmp_path / "history.txt").read_text() == VALID_HISTORY
