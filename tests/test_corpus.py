import dataclasses
import os
import re
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from synmatch import cli, corpus, embeddings, evaluation, synthetic, training
from synmatch.errors import DataError, NoContextError, SynmatchError, UnknownEntityError
from synmatch.rng import stream_rng

import oracles as ref


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def small_data(tmp_path):
    lines = []
    for i in range(6):
        lines.append(f"alpha sits near beta in sentence {i}")
    for i in range(5):
        lines.append(f"gamma appears with delta here {i}")
    lines.append("rare shows up once")
    corpus_path = write(tmp_path / "corpus.txt", "\n".join(lines) + "\n")
    synset_path = write(tmp_path / "synsets.tsv",
                        "alpha\tbeta\ngamma\tdelta\nrare\tghost\n")
    return corpus.ingest(corpus_path, synset_path, min_count=5)


def test_ingest_drops_low_frequency_entity(tmp_path):
    body = "\n".join(f"x marks spot number {i}" for i in range(4))
    extra = "\n".join(f"spot appears again {i}" for i in range(2))
    corpus_path = write(tmp_path / "c.txt", body + "\n" + extra + "\n")
    synset_path = write(tmp_path / "s.tsv", "x\tspot\n")
    data = corpus.ingest(corpus_path, synset_path, min_count=5)
    kept = {data.vocab.token(e) for ss in data.store.synsets for e in ss}
    assert "x" not in kept  # 4 occurrences < 5
    assert "spot" in kept   # 6 occurrences


def test_ingest_rejects_negative_min_count(tmp_path):
    corpus_path = write(tmp_path / "c.txt", "a b c\n")
    synset_path = write(tmp_path / "s.tsv", "a\tb\n")
    # the count check: an integer, not a bool, of at least 0
    for bad in (-5, "5", 2.5, True):
        with pytest.raises(DataError, match=re.escape(
                f"min_count must be a non-negative integer (at least 0), got {bad!r}")):
            corpus.ingest(corpus_path, synset_path, min_count=bad)
    assert len(corpus.ingest(corpus_path, synset_path, min_count=0).store) == 1


def test_ingest_dedupes_exact_lines(tmp_path):
    corpus_path = write(tmp_path / "c.txt", "a b c\na b c\nd e f\n")
    synset_path = write(tmp_path / "s.tsv", "")
    data = corpus.ingest(corpus_path, synset_path, min_count=1)
    assert len(data.lines) == 2


def test_ingest_empty_synset_file(tmp_path):
    corpus_path = write(tmp_path / "c.txt", "a b c\n")
    synset_path = write(tmp_path / "s.tsv", "")
    data = corpus.ingest(corpus_path, synset_path)
    assert len(data.store) == 0


def test_ingest_warns_on_absent_entity(tmp_path, caplog):
    corpus_path = write(tmp_path / "c.txt", "a b c\n" * 1 + "a x y\n" * 5)
    synset_path = write(tmp_path / "s.tsv", "a\tmissing\n")
    with caplog.at_level("WARNING"):
        data = corpus.ingest(corpus_path, synset_path, min_count=1)
    assert any("missing" in r.getMessage() for r in caplog.records)
    assert data.store.synsets == [(data.vocab.get("a"),)]


def test_min_count_invariant(small_data):
    counts = np.diff(small_data.occ_start)
    for ss in small_data.store.synsets:
        for e in ss:
            assert counts[e] >= 5


def dict_of_lists_ingest(path):
    """The per-token ingest loop the CSR index replaced, kept as its oracle:
    (id_to_token, lines, {token id: [(line, pos), ...]})."""
    id_to_token = [corpus.UNK_TOKEN, corpus.PAD_TOKEN]
    token_to_id = {t: i for i, t in enumerate(id_to_token)}
    lines, occurrences = [], {}
    for li, toks in enumerate(ref.read_corpus_lines(path)):
        ids = []
        for t in toks:
            if t not in token_to_id:
                token_to_id[t] = len(id_to_token)
                id_to_token.append(t)
            ids.append(token_to_id[t])
        lines.append(tuple(ids))
        for pos, tid in enumerate(ids):
            occurrences.setdefault(tid, []).append((li, pos))
    return id_to_token, lines, occurrences


def postings(data, tid):
    return data.occ[data.occ_start[tid]:data.occ_start[tid + 1]].tolist()


def test_csr_index_matches_dict_of_lists_oracle(tmp_path):
    rng = np.random.default_rng(11)
    words = ["<unk>", "<pad>"] + [f"w{i}" for i in range(40)]
    text = []
    for _ in range(300):
        line = " ".join(words[i] for i in rng.integers(len(words), size=rng.integers(1, 9)))
        text.append(line)
        if rng.random() < 0.2:
            text.append(line)               # exact duplicate, dropped
        if rng.random() < 0.05:
            text.append("   ")              # blank, dropped
    corpus_path = write(tmp_path / "c.txt", "\n".join(text) + "\n")
    synset_path = write(tmp_path / "s.tsv", "w0\tw1\n<unk>\tw2\n")
    id_to_token, lines, occurrences = dict_of_lists_ingest(corpus_path)
    data = corpus.ingest(corpus_path, synset_path, min_count=1)
    assert data.vocab.id_to_token == id_to_token
    assert data.vocab.get("<unk>") == corpus.UNK and data.vocab.get("<pad>") == corpus.PAD
    assert data.lines == lines and len(lines) < len([t for t in text if t.strip()])
    assert all(type(t) is int for line in data.lines for t in line)
    offsets = np.cumsum([0] + [len(line) for line in lines]).tolist()
    for tid in range(len(id_to_token)):
        want = [offsets[li] + pos for li, pos in occurrences.get(tid, [])]
        assert postings(data, tid) == want == np.flatnonzero(data.tokens == tid).tolist(), \
            id_to_token[tid]
    # literal <unk> is id 0 and keeps its occurrences, as before
    assert data.store.synsets == [(data.vocab.get("w0"), data.vocab.get("w1")),
                                  (corpus.UNK, data.vocab.get("w2"))]
    # retrieval makes the same draw as over the oracle's occurrence lists
    for tid in (corpus.UNK, corpus.PAD, data.vocab.get("w7")):
        occ = occurrences[tid]
        for P in (1, 3, len(occ), len(occ) + 4):
            got = corpus.retrieve_contexts(data, tid, P, 5, stream_rng(2, "eval", tid))
            rng = stream_rng(2, "eval", tid)
            want = [corpus.window_around(lines[occ[i][0]], occ[i][1], 5)
                    for i in rng.choice(len(occ), size=P, replace=len(occ) < P)]
            assert got == want
            assert all(type(w.entity_pos) is int for w in got)


def test_ingest_dedupes_across_read_blocks(tmp_path, monkeypatch):
    # "a b" and "c d" come back in later blocks, "a b" with other whitespace
    corpus_path = write(tmp_path / "c.txt", "a b\nc d\n\n  a   b\ne a\nc d\nb\n")
    synset_path = write(tmp_path / "s.tsv", "a\tc\n")
    id_to_token, lines, _ = dict_of_lists_ingest(corpus_path)
    assert len(lines) == 4
    # one block; two lines a block ("a b\n" is 4 characters, then the hint is passed);
    # one line a block
    for block in (corpus.READ_BLOCK, 5, 1):
        monkeypatch.setattr(corpus, "READ_BLOCK", block)
        data = corpus.ingest(corpus_path, synset_path, min_count=1)
        assert data.vocab.id_to_token == id_to_token and data.lines == lines
        assert data.line_start.tolist() == [0, 2, 4, 6, 7]


def test_occurrence_index_is_one_postings_array(small_data):
    assert np.array_equal(small_data.occ, np.argsort(small_data.tokens, kind="stable"))
    assert small_data.occ.dtype == np.int64
    per_token = {name for name, value in vars(small_data).items()
                 if isinstance(value, np.ndarray) and len(value) == len(small_data.tokens)}
    assert per_token == {"tokens", "occ"}


def test_ingest_empty_corpus(tmp_path):
    corpus_path = write(tmp_path / "c.txt", "\n  \n")
    data = corpus.ingest(corpus_path, write(tmp_path / "s.tsv", "a\n"))
    assert data.lines == [] and len(data.vocab) == 2 and len(data.store) == 0
    assert data.occ_start.tolist() == [0, 0, 0] and data.occ.tolist() == []
    with pytest.raises(NoContextError):
        corpus.retrieve_contexts(data, corpus.UNK, 3, 10, stream_rng(0, "eval"))


def test_window_whole_sentence():
    w = corpus.window_around(tuple(range(10, 17)), 3, T=50)
    assert w.token_ids == tuple(range(10, 17))
    assert w.entity_pos == 3


def test_window_right_edge_shift():
    # 100 tokens, entity at 90, T=50: the right side has only 9 tokens after
    # the entity, so the window slides left to cover indices 50..99
    sent = tuple(range(1000, 1100))
    w = corpus.window_around(sent, 90, T=50)
    assert len(w) == 50
    assert w.token_ids == sent[50:100]
    assert w.entity_pos == 40
    assert w.token_ids[w.entity_pos] == sent[90]


def test_window_left_edge_shift():
    sent = tuple(range(100))
    w = corpus.window_around(sent, 2, T=9)
    assert w.token_ids == sent[0:9]
    assert w.entity_pos == 2


def test_window_centering_budget():
    sent = tuple(range(100))
    w = corpus.window_around(sent, 50, T=9)
    # floor((9-1)/2) = 4 on the left, 4 on the right
    assert w.token_ids == sent[46:55]
    assert w.entity_pos == 4


def test_window_positions_by_enumeration():
    sent = tuple(range(60))
    for T in (1, 2, 3, 7, 50, 59, 60, 61):
        for pos in range(60):
            w = corpus.window_around(sent, pos, T)
            assert len(w) == min(T, 60)
            assert w.token_ids[w.entity_pos] == sent[pos]
            # windows are contiguous slices
            start = w.token_ids[0]
            assert w.token_ids == sent[start:start + len(w)]


def test_retrieve_single_occurrence_repeats(small_data):
    rng = stream_rng(0, "ingest")
    ws = corpus.retrieve_contexts(small_data, "rare", P=5, T=50, rng=rng)
    assert len(ws) == 5
    assert len({w.token_ids for w in ws}) == 1


def test_retrieve_without_replacement_when_enough(small_data):
    rng = stream_rng(0, "ingest")
    ws = corpus.retrieve_contexts(small_data, "alpha", P=6, T=50, rng=rng)
    # alpha occurs once on each of six lines, all distinct and shorter than T:
    # six distinct draws are six distinct whole lines
    assert len({w.token_ids for w in ws}) == 6
    assert {w.token_ids for w in ws} == set(small_data.lines[:6])


def test_retrieve_entity_pos_invariant(small_data):
    eid = small_data.vocab.get("gamma")
    rng = stream_rng(1, "ingest")
    for _ in range(100):
        for w in corpus.retrieve_contexts(small_data, eid, P=3, T=4, rng=rng):
            assert w.token_ids[w.entity_pos] == eid


def test_retrieve_reproducible(small_data):
    a = corpus.retrieve_contexts(small_data, "alpha", 4, 10, stream_rng(7, "eval"))
    b = corpus.retrieve_contexts(small_data, "alpha", 4, 10, stream_rng(7, "eval"))
    assert a == b


def test_retrieve_errors(small_data):
    with pytest.raises(UnknownEntityError):
        corpus.retrieve_contexts(small_data, "never_seen", 3, 10, stream_rng(0, "eval"))
    with pytest.raises(NoContextError):
        corpus.retrieve_contexts(small_data, corpus.PAD, 3, 10, stream_rng(0, "eval"))
    # ids outside the vocabulary, and a float or a bool, resolve through entity_id
    for eid in (len(small_data.vocab), -1, 66.7, True):
        with pytest.raises(UnknownEntityError):
            corpus.retrieve_contexts(small_data, eid, 3, 10, stream_rng(0, "eval"))
    for P, T, name in ((0, 10, "P"), (-1, 10, "P"), (2.0, 10, "P"), (3, 0, "T"), (3, -2, "T"),
                       (3, True, "T")):
        with pytest.raises(DataError, match=f"{name} must be a positive integer"):
            corpus.retrieve_contexts(small_data, "alpha", P, T, stream_rng(0, "eval"))


@pytest.mark.parametrize("bad", [2.7, 2.0, True, False, np.bool_(True), np.float64(2.0), None])
def test_entity_id_must_be_an_integer(small_data, bad):
    # 2.7 would read as 2, True as 1, which is PAD
    with pytest.raises(UnknownEntityError, match="not an integer"):
        corpus.entity_id(bad, small_data.vocab, len(small_data.vocab))


def test_entity_id_takes_python_and_numpy_integers(small_data):
    eid = small_data.vocab.get("alpha")
    for x in (eid, np.int64(eid), np.uint8(eid), np.intp(eid)):
        got = corpus.entity_id(x, small_data.vocab, len(small_data.vocab))
        assert got == eid and type(got) is int


SIX_IDS = corpus.Vocabulary(["w0", "w1", "w2", "w3"])


@st.composite
def small_corpora(draw):
    """A corpus of 1-8 lines over six token ids, one id among them, P and T:
    lines run shorter and longer than T, the id sits first or last on some
    lines, and P falls above and below its occurrence count."""
    ids = st.integers(0, len(SIX_IDS) - 1)
    eid = draw(ids)
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        line = draw(st.lists(ids, min_size=1, max_size=14))
        at = draw(st.sampled_from([None, 0, -1]))
        if at is not None:
            line[at] = eid
        lines.append(line)
    if not any(eid in line for line in lines):
        lines[-1][-1] = eid
    return corpus_case(lines, eid, draw(st.integers(1, 10)), draw(st.integers(1, 10)),
                       draw(st.integers(0, 3)))


def corpus_case(lines, eid, P, T, seed):
    line_start = np.cumsum([0] + [len(line) for line in lines], dtype=np.int64)
    tokens = np.array([t for line in lines for t in line], dtype=np.int32)
    data = corpus.CorpusData(vocab=SIX_IDS, tokens=tokens, line_start=line_start,
                             store=corpus.SynsetStore())
    return data, eid, P, T, seed


# w0 and w1 on every line, w2 on two, and w3, <unk> and <pad> on none
BOUNDARY = corpus_case([[2, 3, 4, 2], [3, 2], [4, 3, 2, 3, 3]], 2, 1, 1, 0)[0]
NAMES = ["w0", "w1", "w2", "w3", "<pad>", "w4", "", "W0"]
ENTITIES = st.one_of(
    st.sampled_from(NAMES), st.integers(-3, len(SIX_IDS) + 2), st.booleans(),
    st.integers(-3, len(SIX_IDS) + 2).map(float), st.floats(allow_nan=True),
    st.integers(0, len(SIX_IDS) + 2).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_))
COUNTS = st.one_of(st.integers(-2, 6), st.integers(-2, 6).map(np.int32),
                   st.integers(-2, 6).map(float), st.booleans(), st.just(float("nan")))


def resolves(x):
    """The id x names without a conversion, or None."""
    if isinstance(x, str):
        return SIX_IDS.get(x) if x in SIX_IDS else None
    ok = corpus.is_integer(x) and 0 <= x < len(SIX_IDS)
    return int(x) if ok else None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(entity=ENTITIES, P=COUNTS, T=COUNTS)
def test_retrieve_returns_windows_or_a_typed_error(entity, P, T):
    eid = resolves(entity)
    valid = (eid is not None and BOUNDARY.occ_start[eid] < BOUNDARY.occ_start[eid + 1]
             and all(corpus.is_integer(n) and n >= 1 for n in (P, T)))
    try:
        got = corpus.retrieve_contexts(BOUNDARY, entity, P, T, stream_rng(0, "eval"))
    except SynmatchError:
        assert not valid
        return
    assert valid and len(got) == P
    for w in got:
        assert w.token_ids[w.entity_pos] == eid and len(w.token_ids) <= T


# A model over eight ids: UNK and PAD, which never occur, and e0-e5 (ids 2-7),
# which all do, in three test synsets of two.  It backs the property tests of
# the library's other entry points; their memos fill as the examples run.
MODEL_VOCAB = corpus.Vocabulary([f"e{i}" for i in range(6)])


def boundary_model():
    lines = [[2, 3, 4], [5, 6, 7, 2], [3, 5, 7], [4, 6, 2, 3], [7, 6, 5, 4]]
    line_start = np.cumsum([0] + [len(line) for line in lines], dtype=np.int64)
    tokens = np.array([t for line in lines for t in line], dtype=np.int32)
    store = corpus.SynsetStore(synsets=[(2, 3), (4, 5), (6, 7)],
                               split={0: "test", 1: "test", 2: "test"})
    data = corpus.CorpusData(vocab=MODEL_VOCAB, tokens=tokens, line_start=line_start,
                             store=store)
    matrix = stream_rng(0, "init").normal(size=(len(MODEL_VOCAB), 4))
    table = embeddings.EmbeddingTable(matrix=matrix, vocab=MODEL_VOCAB)
    config = training.TrainConfig(d_ce=4, contexts_per_entity=2, max_context_len=4,
                                  epochs=0).validate()
    return data, table, config, training.init_model_params(config, table.dim, stream_rng(1, "init"))


MODEL = boundary_model()
N_MODEL = len(MODEL_VOCAB)
MODEL_IDS = st.one_of(
    st.sampled_from(["e0", "e3", "e5", "<unk>", "<pad>", "e6", ""]),
    st.integers(-2, N_MODEL + 1), st.integers(-2, N_MODEL + 1).map(np.int64),
    st.integers(-2, N_MODEL + 1).map(np.int16), st.integers(0, N_MODEL + 1).map(np.uint64),
    st.integers(0, N_MODEL + 1).map(np.uint8), st.sampled_from([2**63 + 5, 2**64 - 1, -2**63 - 1]),
    st.just(np.uint64(2**63 + 5)), st.booleans(), st.booleans().map(np.bool_),
    st.integers(-2, N_MODEL + 1).map(float), st.floats(allow_nan=True),
    st.integers(0, N_MODEL).map(np.float64))
# lists mix every kind above, now and then a nested list (ragged or not), which
# names no id; arrays are uint64 (values past 2**63 included) or int64
MODEL_SEQS = st.one_of(
    st.lists(MODEL_IDS, max_size=4),
    st.lists(st.one_of(MODEL_IDS, st.lists(MODEL_IDS, max_size=2)), min_size=1, max_size=3),
    st.lists(st.sampled_from([2, 3, 6, 7, N_MODEL, 2**63 + 5]), max_size=3).map(
        lambda ids: np.array(ids, dtype=np.uint64)),
    st.lists(st.integers(-2, N_MODEL + 1), max_size=3).map(
        lambda ids: np.array(ids, dtype=np.int64)))
MODEL_COUNTS = st.one_of(COUNTS, st.sampled_from(["3", None, 2**70]))
SEEDS = st.one_of(st.integers(0, 2), st.integers(0, 2).map(np.int64),
                  st.sampled_from([-1, 1.0, 1.5, True, False, np.float64(1.0), "1", None]))
THRESHOLDS = st.one_of(st.floats(allow_nan=True), st.integers(-2, 2), st.booleans(),
                       st.sampled_from(["0.5", None, np.float64(0.25)]))


def model_id(x):
    """The id x names in MODEL without a conversion, or None."""
    if isinstance(x, str):
        return MODEL_VOCAB.get(x) if x in MODEL_VOCAB else None
    ok = isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < N_MODEL
    return int(x) if ok else None


def model_ids(xs):
    """The ids a sequence names in MODEL, or None if one names none."""
    ids = [model_id(x) for x in xs]
    return None if None in ids else ids


def count_ok(n, floor):
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= floor


def no_context(*ids):
    """Whether UNK or PAD, which never occur, is among ids: a valid call that
    encodes one fails with NoContextError."""
    return bool({0, 1}.intersection(ids))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(queries=MODEL_SEQS, k=MODEL_COUNTS, universe=MODEL_SEQS)
@example(queries=[np.int16(2)], k=2, universe=[np.int16(2), 3, np.uint64(4)])
@example(queries=["e0"], k=np.int32(2), universe=["e1", "e2", 5])
@example(queries=[], k=2, universe=[True, 3])
@example(queries=[3], k=2, universe=np.array([2**63 + 5], dtype=np.uint64))
@example(queries=[2, [3, 4]], k=2, universe=[2, 3])
@example(queries=[2], k=2, universe=[[2], 3])
def test_knn_returns_neighbors_or_a_typed_error(queries, k, universe):
    data, table, _, _ = MODEL
    qids, uids = model_ids(queries), model_ids(universe)
    valid = qids is not None and uids is not None and count_ok(k, 0)
    try:
        got = embeddings.nearest_neighbors(table, queries, k, universe)
    except SynmatchError:
        assert not valid
        return
    assert valid and [nl.query for nl in got] == qids
    for nl in got:
        ids = [e for e, _ in nl.neighbors]
        assert all(type(e) is int for e in ids) and len(ids) == min(
            k, sum(u != nl.query for u in uids))
        assert set(ids) <= set(uids) - {nl.query}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(queries=st.one_of(MODEL_IDS, MODEL_SEQS), k=MODEL_COUNTS, threshold=THRESHOLDS,
       seed=SEEDS, universe=st.one_of(st.none(), MODEL_SEQS))
@example(queries="e0", k="5", threshold=0.5, seed=0, universe=None)
@example(queries=["e0"], k=2.5, threshold=0.5, seed=0, universe=None)
@example(queries=["e0", np.int64(5)], k=3, threshold=0.5, seed=1, universe=None)
@example(queries=["e0", np.int64(5)], k=3, threshold=0.5, seed=1.0, universe=None)
@example(queries=np.array([3], dtype=np.uint64), k=3, threshold=0.5, seed=True, universe=None)
@example(queries=[2, [3, 4]], k=3, threshold=0.5, seed=0, universe=None)
@example(queries=[[2], 3], k=3, threshold=0.5, seed=0, universe=None)
@example(queries=["e0"], k=3, threshold=0.5, seed=0, universe=[2, [3, 4]])
def test_discover_returns_results_or_a_typed_error(queries, k, threshold, seed, universe):
    data, table, config, params = MODEL
    many = isinstance(queries, (list, np.ndarray))
    qids = model_ids(queries if many else [queries])
    uids = data.store.entities() if universe is None else model_ids(universe)
    valid = (qids is not None and uids is not None and count_ok(k, 1) and count_ok(seed, 0)
             and not isinstance(threshold, (bool, str, type(None)))
             and -np.inf < threshold < np.inf)
    call = evaluation.discover_many if many else evaluation.discover
    try:
        got = call(params, config, data, table, queries, k=k, threshold=threshold, seed=seed,
                   universe=universe)
    except SynmatchError:
        assert not valid or no_context(*qids, *uids)
        return
    assert valid
    got = got if many else [got]
    assert [r.query for r in got] == qids
    for r in got:
        assert {e for e, _ in r.ranked} <= set(uids) - {r.query} and len(r.ranked) <= k
        assert all(s > threshold for _, s in r.accepted)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=MODEL_IDS, b=MODEL_IDS, seed=SEEDS)
@example(a="e0", b=5, seed=1)
@example(a="e0", b=5, seed=1.0)
@example(a="e0", b=5.0, seed=1)
def test_score_pair_returns_a_score_or_a_typed_error(a, b, seed):
    data, table, config, params = MODEL
    ia, ib = model_id(a), model_id(b)
    valid = ia is not None and ib is not None and count_ok(seed, 0)
    try:
        got = evaluation.score_pair(params, config, data, table.matrix, a, b, seed=seed)
    except SynmatchError:
        assert not valid or no_context(ia, ib)
        return
    assert valid and -1.0 <= got <= 1.0
    assert got == evaluation.score_pair(params, config, data, table.matrix, ia, ib,
                                        seed=int(seed))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(knn_k=MODEL_COUNTS, ks=st.lists(MODEL_COUNTS, max_size=3).map(tuple), seed=SEEDS)
@example(knn_k="5", ks=(1,), seed=0)
@example(knn_k=3, ks=(2.5,), seed=0)
@example(knn_k=3, ks=(True,), seed=0)
def test_evaluate_returns_a_report_or_a_typed_error(knn_k, ks, seed):
    data, table, config, params = MODEL
    valid = count_ok(knn_k, 1) and all(count_ok(k, 1) for k in ks) and count_ok(seed, 0)
    try:
        report = evaluation.evaluate(params, config, data, table, knn_k=knn_k, ks=ks, seed=seed)
    except SynmatchError:
        assert not valid
        return
    assert valid and set(report.p_at_k) == set(ks)
    assert 0.0 <= report.auc <= 1.0 and 0.0 <= report.map <= 1.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(groups=st.lists(st.tuples(MODEL_IDS, st.lists(MODEL_IDS, max_size=3)), max_size=3),
       seed=SEEDS)
@example(groups=[("e0", ["e3", 6])], seed=1)
@example(groups=[(2.0, [5])], seed=1)
@example(groups=[(2, [5])], seed=True)
def test_score_pair_scores_as_the_held_scorer_or_raises_a_typed_error(groups, seed):
    data, table, config, params = MODEL
    for a, cands in groups:
        for b in cands:
            ids = model_ids([a, b])
            valid = ids is not None and count_ok(seed, 0)
            try:
                got = evaluation.score_pair(params, config, data, table.matrix, a, b, seed)
            except SynmatchError:
                assert not valid or no_context(*ids)
                continue
            assert valid
            # the held Scorer's score of the ids a and b name
            score = evaluation._scorer(params, config, data, table.matrix, int(seed))
            assert got == float(score([ids[0]], [[ids[1]]])[0][0])


NOISES = st.one_of(st.floats(allow_nan=True), st.integers(-1, 2), st.booleans(),
                   st.sampled_from(["0.3", None, np.float64(0.3), np.float32(0.5),
                                    np.bool_(True)]))
VOCAB_SIZES = st.one_of(st.integers(-2, 60), st.integers(0, 60).map(np.int64),
                        st.sampled_from([True, 40.0, 40.5, "40", None]))


@st.composite
def generate_args(draw):
    """Tiny valid arguments of `synthetic.generate`, now and then one of them
    drawn from its strategy of good and bad values."""
    clusters = draw(st.integers(1, 3))
    # 8 signature tokens a cluster: a vocab_size of 8 * clusters leaves no background
    args = dict(clusters=clusters, entities_per_cluster=draw(st.integers(2, 3)),
                contexts_per_entity=draw(st.integers(1, 3)),
                vocab_size=8 * clusters + draw(st.integers(0, 30)),
                noise=draw(st.floats(0.0, 1.0)), embed_dim=draw(st.integers(1, 3)),
                tokens_per_context=draw(st.integers(0, 4)), seed=draw(st.integers(0, 2)))
    name = draw(st.one_of(st.none(), st.sampled_from(list(args))))
    if name is not None:
        args[name] = draw({"noise": NOISES, "vocab_size": VOCAB_SIZES,
                           "seed": SEEDS}.get(name, COUNTS))
    return args


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(args=generate_args())
@example(args=dict(clusters=2, entities_per_cluster=2, contexts_per_entity=1, vocab_size=16,
                   noise=0.5, embed_dim=1, tokens_per_context=0, seed=0))
@example(args=dict(clusters=1, entities_per_cluster=2, contexts_per_entity=1, vocab_size=9,
                   noise=True, embed_dim=1, tokens_per_context=1, seed=0))
@example(args=dict(clusters=1, entities_per_cluster=2, contexts_per_entity=1, vocab_size=9.0,
                   noise=0.5, embed_dim=1, tokens_per_context=1, seed=0))
def test_generate_writes_files_or_raises_a_typed_error(args):
    clusters, vocab_size, noise = args["clusters"], args["vocab_size"], args["noise"]
    floors = dict(clusters=1, entities_per_cluster=2, contexts_per_entity=1, vocab_size=1,
                  embed_dim=1, tokens_per_context=0, seed=0)
    valid = (all(count_ok(args[name], floor) for name, floor in floors.items())
             and not isinstance(noise, (bool, np.bool_, str, type(None))) and 0 <= noise <= 1
             and vocab_size > 8 * clusters)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "data")
        try:
            paths = synthetic.generate(out, **args)
        except SynmatchError:
            assert not valid and not os.path.exists(out)
            return
        assert valid
        lines = open(paths["corpus"]).read().splitlines()
        n_entities = clusters * args["entities_per_cluster"]
        assert len(lines) == n_entities * args["contexts_per_entity"]
        assert {len(line.split()) for line in lines} == {args["tokens_per_context"] + 1}
        header = open(paths["embeddings"]).readline().split()
        assert header == [str(vocab_size + n_entities), str(args["embed_dim"])]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=small_corpora())
# the entity first on line 0, first on a later line, last on the last line,
# alone on a one-token line, and all of those at once
@example(case=corpus_case([[2, 3, 4, 5], [3, 4]], 2, 3, 3, 0))
@example(case=corpus_case([[3, 4, 5], [4, 5], [2, 3, 4, 5]], 2, 2, 2, 1))
@example(case=corpus_case([[3, 4], [4, 5, 3, 2]], 2, 4, 3, 2))
@example(case=corpus_case([[3, 4], [2], [4, 5]], 2, 1, 5, 3))
@example(case=corpus_case([[2, 3, 4], [3, 2], [2], [4, 3, 2]], 2, 9, 2, 0))
def test_retrieve_matches_eager_line_oracle(case):
    data, eid, P, T, seed = case
    got = corpus.retrieve_contexts(data, eid, P, T, stream_rng(seed, "eval", eid))
    assert got == ref.retrieve_contexts(data, eid, P, T, stream_rng(seed, "eval", eid))
    assert all(type(t) is int for w in got for t in w.token_ids)
    assert all(type(w.entity_pos) is int for w in got)
    lines = data.lines
    for li, want in enumerate(lines):
        line = data.line(li)
        assert line == want and type(line) is tuple
        assert all(type(t) is int for t in line)
        assert data.line(li) is line


def test_lines_are_built_on_first_use_only(tmp_path, small_data):
    n_lines = len(small_data.line_start) - 1
    cli.save_index(str(tmp_path / "index.npz"), small_data)
    for data in (small_data, cli.load_index(str(tmp_path / "index.npz"))):
        assert data.line_slots == [None] * n_lines
        assert data.lines == small_data.lines
        assert data.line_slots == [None] * n_lines        # reading lines fills none
        ws = corpus.retrieve_contexts(data, "gamma", 3, 4, stream_rng(0, "eval"))
        filled = [li for li, line in enumerate(data.line_slots) if line is not None]
        # the same draw at a T above every line's length cuts the whole lines
        # drawn, which fills no other slot: three distinct lines, as ingest
        # keeps each line once, with the windows cut from them
        whole = corpus.retrieve_contexts(data, "gamma", 3, 50, stream_rng(0, "eval"))
        assert [li for li, line in enumerate(data.line_slots) if line is not None] == filled
        assert filled == sorted(data.lines.index(w.token_ids) for w in whole)
        assert len(filled) == 3
        assert ws == [corpus.window_around(w.token_ids, w.entity_pos, 4) for w in whole]
    spec = {f.name: f for f in dataclasses.fields(corpus.CorpusData)}
    for name in ("line_slots", "scorer"):
        assert not spec[name].repr and not spec[name].compare, name
    assert "line_slots" not in repr(small_data)


def make_store(n_synsets, size=3):
    groups = []
    nxt = 10
    for _ in range(n_synsets):
        groups.append(tuple(range(nxt, nxt + size)))
        nxt += size
    return corpus.SynsetStore(synsets=groups)


def test_split_counts():
    store = make_store(10)
    out = corpus.split_synsets(store, 0.2, 0.2, stream_rng(3, "ingest"))
    counts = {name: len(out.synset_ids(name)) for name in ("train", "valid", "test")}
    assert counts == {"train": 6, "valid": 2, "test": 2}


def test_split_disjoint_entities():
    store = make_store(10)
    out = corpus.split_synsets(store, 0.2, 0.2, stream_rng(4, "ingest"))
    train = set(out.entities("train"))
    assert train.isdisjoint(out.entities("test"))
    assert train.isdisjoint(out.entities("valid"))


def test_split_reproducible():
    store = make_store(12)
    a = corpus.split_synsets(store, 0.25, 0.25, stream_rng(5, "ingest"))
    b = corpus.split_synsets(store, 0.25, 0.25, stream_rng(5, "ingest"))
    assert a.split == b.split


def test_split_zero_fraction_allowed():
    store = make_store(4)
    out = corpus.split_synsets(store, 0.0, 0.25, stream_rng(6, "ingest"))
    assert len(out.synset_ids("valid")) == 0
    assert len(out.synset_ids("test")) == 1
    assert len(out.synset_ids("train")) == 3


def test_split_too_small_errors():
    store = make_store(3)
    with pytest.raises(DataError):
        corpus.split_synsets(store, 0.05, 0.05, stream_rng(0, "ingest"))


@pytest.mark.parametrize("bad", ["0.3", None, True, np.bool_(False), float("nan"), 1.0, -0.1])
def test_split_fraction_is_a_real_number_in_range(bad):
    store = make_store(10)
    for name, fracs in (("valid", (bad, 0.2)), ("test", (0.2, bad))):
        with pytest.raises(DataError, match=re.escape(
                f"{name} fraction must be a real number in [0, 1), got {bad!r}")):
            corpus.split_synsets(store, *fracs, stream_rng(0, "ingest"))
    # numpy reals and integers are fractions; 0 yields an empty split
    want = corpus.split_synsets(store, 0.2, 0.0, stream_rng(3, "ingest"))
    for fracs in ((np.float64(0.2), 0), (np.float32(0.2), np.int64(0))):
        assert corpus.split_synsets(store, *fracs, stream_rng(3, "ingest")) == want


def test_store_rejects_entity_in_two_synsets():
    with pytest.raises(DataError):
        corpus.SynsetStore(synsets=[(1, 2), (2, 3)])


@pytest.mark.parametrize("label", ["dev", "Train", None, 1])
def test_store_rejects_a_split_label_other_than_train_valid_or_test(label):
    # the index stores a split as its position in SPLITS: another label
    # could not be saved
    with pytest.raises(DataError, match=re.escape(f"synset 1 has split label {label!r}")):
        corpus.SynsetStore(synsets=[(1, 2), (3, 4)], split={0: "train", 1: label})
    for name in corpus.SPLITS:
        assert corpus.SynsetStore(synsets=[(1, 2)], split={0: name}).synset_ids(name) == [0]


def all_train(store):
    store = corpus.SynsetStore(synsets=list(store.synsets),
                               split={i: "train" for i in range(len(store.synsets))})
    return store


def test_sample_pairs_single_synset():
    """One synset gives positives, but no negative to draw beside them."""
    store = all_train(corpus.SynsetStore(synsets=[(5, 6)]))
    with pytest.raises(DataError, match="non-synonym"):
        corpus.sample_pairs(store, 2, stream_rng(0, "train"))


def test_sample_pairs_ratio():
    store = all_train(make_store(5))
    pairs = corpus.sample_pairs(store, 100, rng=stream_rng(1, "train"))
    assert len(pairs) == 100
    assert sum(p.label for p in pairs) == 50


@pytest.mark.parametrize("n, n_pos", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)])
def test_sample_pairs_never_draws_fewer_positives_than_negatives(n, n_pos):
    pairs = corpus.sample_pairs(all_train(make_store(5)), n, stream_rng(n, "train"))
    assert len(pairs) == n
    assert sum(p.label for p in pairs) == n_pos


def test_sample_pairs_negatives_never_synonyms():
    store = all_train(make_store(6))
    pairs = corpus.sample_pairs(store, 400, rng=stream_rng(2, "train"))
    for p in pairs:
        if p.label == 0:
            assert not store.are_synonyms(p.a, p.b)
        else:
            assert store.are_synonyms(p.a, p.b)


def test_sample_pairs_no_positives_errors():
    store = corpus.SynsetStore(synsets=[(1, 2)])  # no split assigned
    with pytest.raises(DataError):
        corpus.sample_pairs(store, 10, stream_rng(0, "train"))


def test_sample_triplets():
    store = all_train(make_store(6))
    trips = corpus.sample_triplets(store, 200, stream_rng(3, "train"))
    assert len(trips) == 200
    for t in trips:
        assert store.are_synonyms(t.anchor, t.positive)
        assert not store.are_synonyms(t.anchor, t.negative)
        assert t.anchor != t.positive


def test_streams_differ():
    a = stream_rng(0, "train").integers(1 << 30, size=8)
    b = stream_rng(0, "eval").integers(1 << 30, size=8)
    assert not np.array_equal(a, b)


WORDS = ["a", "b", "ent", "\u00e9t\u00e9", "<unk>", "<pad>", "x_1"]
# "\x0c", "\x1c" and "\x85" end a line for str.splitlines, not for file reads
SEPARATORS = [" ", "  ", "\t", "\u00a0", "\u2028", "\r", "\r\n", "\x0c", "\x1c", "\x85"]


@st.composite
def ingest_inputs(draw):
    """Corpus and synsets bytes: repeated, blank and special-token lines,
    odd whitespace, members absent from the corpus; some files hold bytes
    that are not UTF-8."""
    def text(line):
        return "".join(draw(line) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
                       for _ in range(draw(st.integers(0, 10))))
    words = st.lists(st.sampled_from(WORDS), max_size=6)
    corpus_text = text(words.map(lambda ws: draw(st.sampled_from(SEPARATORS)).join(ws)))
    members = st.sampled_from(WORDS + ["ghost", "a b", " a", ""])
    synsets_text = text(st.lists(members, max_size=4, unique=True).map("\t".join))
    blobs = []
    for t in (corpus_text, synsets_text):
        blob = t.encode("utf-8")
        if draw(st.integers(0, 9)) == 5:
            at = draw(st.integers(0, len(blob)))
            blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + blob[at:]
        blobs.append(blob)
    return blobs[0], blobs[1], draw(st.integers(1, 3))


def read_lines(blob):
    # what a text-mode read gives: universal newlines, then one line per "\n"
    return blob.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=ingest_inputs())
def test_ingest_matches_line_reading_or_raises_data_error(tmp_path, inputs):
    corpus_blob, synsets_blob, min_count = inputs
    (tmp_path / "c.txt").write_bytes(corpus_blob)
    (tmp_path / "s.tsv").write_bytes(synsets_blob)
    try:
        lines = [ln for ln in dict.fromkeys(tuple(ln.split()) for ln in read_lines(corpus_blob))
                 if ln]
        counts = Counter(t for ln in lines for t in ln)
        want = []
        for ln in read_lines(synsets_blob):
            kept = [m for m in ln.split("\t") if m and counts.get(m, 0) >= min_count]
            if kept:
                want.append(kept)
        flat = [m for kept in want for m in kept]
        problem = None if len(set(flat)) == len(flat) else "appears in synsets"
    except UnicodeDecodeError:
        problem = "not UTF-8"
    try:
        data = corpus.ingest(str(tmp_path / "c.txt"), str(tmp_path / "s.tsv"), min_count)
    except DataError as err:
        assert problem is not None and problem in str(err)
        return
    assert problem is None
    token = data.vocab.token
    assert [tuple(map(token, ln)) for ln in data.lines] == lines
    assert data.vocab.id_to_token == list(dict.fromkeys(
        [corpus.UNK_TOKEN, corpus.PAD_TOKEN] + [t for ln in lines for t in ln]))
    assert [[token(e) for e in ss] for ss in data.store.synsets] == want
    assert data.occ_start[-1] == len(data.tokens) == sum(map(len, lines))
