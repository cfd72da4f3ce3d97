import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synmatch import embeddings
from synmatch.corpus import PAD, UNK, Vocabulary
from synmatch.errors import DataError, UnknownEntityError

import oracles as ref


def make_vocab(tokens):
    return Vocabulary(tokens)


def row(table, token):
    return table.matrix[table.vocab.get(token)]


def test_load_with_header(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\napple 1 2 3\npear 4 5 6\n")
    vocab = make_vocab(["apple", "pear"])
    table = embeddings.load_embeddings(str(path), vocab)
    assert table.dim == 3
    assert np.array_equal(row(table, "apple"), [1, 2, 3])
    assert np.array_equal(row(table, "pear"), [4, 5, 6])
    with pytest.raises(UnknownEntityError):
        embeddings.nearest_neighbors(table, ["nope"], 1, [vocab.get("apple")])


def test_load_without_header(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("apple 1 2 3\npear 4 5 6\n")
    table = embeddings.load_embeddings(str(path), make_vocab(["apple", "pear"]))
    assert table.dim == 3
    assert np.array_equal(row(table, "apple"), [1, 2, 3])


def test_missing_token_gets_mean_and_pad_zero(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("apple 1 2 3\npear 3 4 5\n")
    vocab = make_vocab(["apple", "pear", "plum"])
    table = embeddings.load_embeddings(str(path), vocab)
    assert np.array_equal(row(table, "plum"), [2, 3, 4])   # mean of file rows
    assert np.array_equal(table.matrix[UNK], [2, 3, 4])
    assert np.array_equal(table.matrix[PAD], [0, 0, 0])


def test_dim_mismatch_cites_line(tmp_path):
    path = tmp_path / "emb.txt"
    rows = [f"w{i} 1 2 3" for i in range(6)] + ["w6 1 2"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError) as err:
        embeddings.load_embeddings(str(path), make_vocab([f"w{i}" for i in range(7)]))
    assert "line 7" in str(err.value)


@pytest.mark.parametrize("bad, line", [("abc", 3), ("nan", 2), ("-inf", 4), ("1e999", 2)])
def test_bad_value_cites_line(tmp_path, bad, line):
    rows = ["3 2", "a 1 2", "b 3 4", "c 5 6"]
    rows[line - 1] = rows[line - 1].rsplit(" ", 1)[0] + " " + bad
    path = tmp_path / "emb.txt"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError) as err:
        embeddings.load_embeddings(str(path), make_vocab(["a", "b", "c"]))
    assert f"line {line}:" in str(err.value)


def test_overflowing_mean_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1e308 1\nb 1e308 1\n")
    with pytest.raises(DataError, match="not finite"), np.errstate(over="ignore"):
        embeddings.load_embeddings(str(path), make_vocab(["a", "b", "c"]))


def loop_load_embeddings(path, vocab):
    """The per-value float() loader the block parser replaced, kept as its oracle."""
    vectors, total, n_read = {}, None, 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or (lineno == 1 and embeddings._parse_header(parts)):
                continue
            vec = np.array([float(x) for x in parts[1:]])
            total = (np.zeros(len(vec)) if total is None else total) + vec  # +0.0 first, as the loader
            n_read += 1
            if parts[0] in vocab:
                vectors[vocab.get(parts[0])] = vec
    unk_row = vectors.pop(UNK, total / n_read)
    pad_row = vectors.pop(PAD, np.zeros(len(total)))
    matrix = np.array([unk_row, pad_row] + [vectors.get(t, unk_row)
                                            for t in range(2, len(vocab))])
    return matrix


@pytest.mark.parametrize("dim", [1, 7])
def test_block_parser_matches_float_loop_bitwise(tmp_path, monkeypatch, dim):
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(50, dim)) * 10.0 ** rng.integers(-6, 6, size=(50, dim))
    tokens = [f"w{i % 40}" for i in range(50)]        # w0..w9 appear twice: last wins
    tokens[3], tokens[20], tokens[44] = "<unk>", "<pad>", "<pad>"
    path = tmp_path / "emb.txt"
    path.write_text(f"50 {dim}\n" + "".join(
        t + " " + " ".join(repr(float(x)) for x in row) + "\n"
        for t, row in zip(tokens, values)))
    for vocab in (make_vocab([f"w{i}" for i in range(0, 45, 2)] + ["zz"]),
                  make_vocab(["w1", "w2"])):
        want = loop_load_embeddings(str(path), vocab)
        for block in (4096, 7, 1):          # one block, a short last block, one row each
            monkeypatch.setattr(embeddings, "PARSE_BLOCK", block)
            got = embeddings.load_embeddings(str(path), vocab).matrix
            assert got.tobytes() == want.tobytes()
    path.write_text("".join(f"w{i} " + " ".join(repr(float(x)) for x in row) + "\n"
                            for i, row in enumerate(values)))
    vocab = make_vocab(["w1", "q"])
    assert embeddings.load_embeddings(str(path), vocab).matrix.tobytes() == \
        loop_load_embeddings(str(path), vocab).tobytes()


# float() takes these and numpy's C parser does not: digit separators and
# non-ASCII digits; then values that are not numbers or not finite
SPELLINGS = ["1_0", "2_5.5e-1", "\u0663", "\u0661\u0662.\u0665", "\uff17",
             "nan", "-inf", "1e999", "-1e999", "abc", "0x1p3", "1e-400", "-0.0", "+7", ".5"]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.floats(-1e6, 1e6).map(lambda x: "%.6f" % x))
TOKENS = ["<unk>", "<pad>", "a", "b", "c", "x"]


@st.composite
def embedding_texts(draw):
    """An embedding file's text: maybe a header, blank lines, repeated and
    special tokens; some files hold odd spellings or rows of the wrong width."""
    dim = draw(st.integers(1, 4))
    numbers = st.one_of(FLOATS, st.sampled_from(SPELLINGS)) if draw(st.booleans()) else FLOATS
    kinds = ["row", "row", "row", "blank"] + ["short", "long"] * draw(st.booleans())
    lines = [f"{draw(st.integers(0, 99))} {dim}"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        width = dim + {"row": 0, "short": -1, "long": 1}[kind]
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(sep.join([draw(st.sampled_from(TOKENS))]
                              + draw(st.lists(numbers, min_size=width, max_size=width))))
    return "".join(line + "\n" for line in lines)


def expected_error(text, block):
    """Start of the DataError a row-by-row reader raises for `text` read in
    blocks of `block` rows, or None when the file loads: per block the first
    row of the wrong width, else the first value float() rejects, else the
    first value that is not finite; then an empty file or an overflowing sum."""
    rows = [(n, line.split()) for n, line in enumerate(text.split("\n"), start=1)
            if line.split() and not (n == 1 and embeddings._parse_header(line.split()))]
    if not rows:
        return "no embedding vectors"
    dim = len(rows[0][1]) - 1
    if dim == 0:
        return f"line {rows[0][0]}: no values after token"
    for i in range(0, len(rows), block):
        chunk = rows[i:i + block]
        for n, parts in chunk:
            if len(parts) - 1 != dim:
                return f"line {n}: expected {dim} values, got {len(parts) - 1}"
        for n, parts in chunk:
            try:
                [float(x) for x in parts[1:]]
            except ValueError:
                return f"line {n}: "
        for n, parts in chunk:
            if not all(math.isfinite(float(x)) for x in parts[1:]):
                return f"line {n}: value is not finite"
    total = np.zeros(dim)
    for _, parts in rows:
        total += np.array([float(x) for x in parts[1:]])
    return None if np.isfinite(total).all() else "the vectors in"


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=embedding_texts())
def test_loader_matches_loop_or_raises_data_error(tmp_path, monkeypatch, text):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    vocab = make_vocab(["a", "b", "c", "zz"])
    with np.errstate(over="ignore"):
        for block in (1, 7, 4096):
            monkeypatch.setattr(embeddings, "PARSE_BLOCK", block)
            want = expected_error(text, block)
            if want is None:
                got = embeddings.load_embeddings(str(path), vocab).matrix
                assert got.tobytes() == loop_load_embeddings(str(path), vocab).tobytes()
            else:
                with pytest.raises(DataError) as err:
                    embeddings.load_embeddings(str(path), vocab)
                assert str(err.value).startswith(want)


def test_non_utf8_embedding_file_cites_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"3 2\na 1 2\n\nb 3 \xff4\nc 5 6\n")
    with pytest.raises(DataError, match=r"emb\.txt, line 4: not UTF-8"):
        embeddings.load_embeddings(str(path), make_vocab(["a", "b", "c"]))


def test_empty_file_errors(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("")
    with pytest.raises(DataError):
        embeddings.load_embeddings(str(path), make_vocab(["a"]))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vocab = make_vocab([f"tok{i}" for i in range(10)])
    src = tmp_path / "src.txt"
    lines = [f"tok{i} " + " ".join("%.8f" % x for x in rng.normal(size=5))
             for i in range(10)]
    src.write_text("\n".join(lines) + "\n")
    table = embeddings.load_embeddings(str(src), vocab)
    out = tmp_path / "out.txt"
    embeddings.save_embeddings(str(out), vocab.id_to_token, table.matrix)
    again = embeddings.load_embeddings(str(out), vocab)
    assert np.max(np.abs(again.matrix - table.matrix)) <= 1e-6


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (40, 3), (25, 16)])
def test_save_writes_the_reference_bytes(tmp_path, shape):
    rng = np.random.default_rng(shape)
    matrix = rng.normal(size=shape) * rng.choice([1e-7, 1.0, 1e3], size=shape)
    # signed zeros, values that round to a signed zero, and values at a rounding edge
    specials = [0.0, -0.0, 1e-7, -1e-7, 4.9999999e-7, -5.0000001e-7, 999.9999995,
                -999.9999995, 1e3, -1e3]
    flat = matrix.reshape(-1)
    flat[:len(specials)] = specials[:flat.size]
    tokens = [f"tok{i}" for i in range(shape[0])]
    embeddings.save_embeddings(str(tmp_path / "got.txt"), tokens, matrix)
    ref.save_embeddings(str(tmp_path / "want.txt"), tokens, matrix)
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def unit_table(vectors):
    vocab = make_vocab(sorted(vectors))
    dim = len(next(iter(vectors.values())))
    matrix = np.zeros((len(vocab), dim))
    for tok, vec in vectors.items():
        matrix[vocab.get(tok)] = vec
    return embeddings.EmbeddingTable(matrix=matrix, vocab=vocab)


def test_knn_duplicate_vector_ranks_first():
    table = unit_table({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
    ids = [table.vocab.get(t) for t in ("a", "b", "c")]
    nl, = embeddings.nearest_neighbors(table, ["a"], k=2, universe=ids)
    assert nl.neighbors[0][0] == table.vocab.get("b")
    assert nl.neighbors[0][1] == pytest.approx(1.0)


def test_knn_orthogonal_zero_similarity():
    table = unit_table({"a": [1, 0], "c": [0, 1]})
    nl, = embeddings.nearest_neighbors(table, ["a"], k=1,
                                       universe=[table.vocab.get("a"), table.vocab.get("c")])
    assert nl.neighbors == [(table.vocab.get("c"), 0.0)]


@pytest.mark.parametrize("bad", [-1, "vocab-size", 10**6])
def test_knn_universe_id_outside_vocabulary_rejected(bad):
    table = unit_table({"a": [1, 0], "b": [1, 1], "c": [0, 1]})
    bad = len(table.matrix) if bad == "vocab-size" else bad
    a, b, c = (table.vocab.get(t) for t in "abc")
    for universe in ([b, c, bad], [bad], np.array([bad, b])):
        with pytest.raises(UnknownEntityError, match=f"entity id {bad} outside"):
            embeddings.nearest_neighbors(table, ["a"], k=2, universe=universe)
    assert embeddings.nearest_neighbors(table, ["a"], k=2, universe=[])[0].neighbors == []
    assert embeddings.nearest_neighbors(table, ["a"], k=2, universe=[a])[0].neighbors == []



@pytest.mark.parametrize("bad", [-1, "vocab-size", 10**6])
def test_knn_query_id_outside_vocabulary_rejected(bad):
    table = unit_table({"a": [1, 0], "b": [1, 1], "c": [0, 1]})
    bad = len(table.matrix) if bad == "vocab-size" else bad
    universe = [table.vocab.get(t) for t in "abc"]
    # alone, or after a good query: nothing is returned for either
    for queries in ([bad], [np.intp(bad)], ["a", bad]):
        with pytest.raises(UnknownEntityError, match=f"entity id {bad} outside"):
            embeddings.nearest_neighbors(table, queries, k=2, universe=universe)


@pytest.mark.parametrize("bad", [2.9, 2.0, True, np.float64(2.0), np.bool_(True), None])
def test_knn_query_id_must_be_an_integer(bad):
    table = unit_table({"a": [1, 0], "b": [1, 1], "c": [0, 1]})
    universe = [table.vocab.get(t) for t in "abc"]
    with pytest.raises(UnknownEntityError):
        embeddings.nearest_neighbors(table, [bad], k=2, universe=universe)


@pytest.mark.parametrize("bad", [[2.7, 3], np.array([2.0, 3.0]), np.array([True, False]),
                                 [True, False], ["2", "3"], [True, 3], [3, np.True_],
                                 [np.int16(2), 3.0]])
def test_knn_universe_ids_must_be_integers(bad):
    table = unit_table({"a": [1, 0], "b": [1, 1], "c": [0, 1]})
    with pytest.raises(UnknownEntityError):
        embeddings.nearest_neighbors(table, ["a"], k=2, universe=bad)


def test_knn_takes_python_and_numpy_integers():
    table = unit_table({"a": [1, 0], "b": [1, 1], "c": [0, 1]})
    a, b, c = (table.vocab.get(t) for t in "abc")
    want = embeddings.nearest_neighbors(table, [a], k=2, universe=[a, b, c])
    # numpy makes float64 of np.uint64 mixed with signed integers; names are
    # ids too, in the universe as in the queries
    for query, universe, k in ((np.int64(a), np.array([a, b, c], dtype=np.uint8), np.int32(2)),
                               (np.intp(a), [np.int16(a), b, np.uint32(c)], 2),
                               (np.uint64(a), [np.int16(a), b, np.uint64(c)], 2),
                               ("a", ["a", b, "c"], np.uint64(2))):
        assert embeddings.nearest_neighbors(table, [query], k, universe) == want
    # an empty universe is valid whatever its dtype
    for universe in ([], (), np.array([]), np.array([], dtype=bool)):
        assert embeddings.nearest_neighbors(table, [a], 2, universe)[0].neighbors == []


def test_knn_names_a_uint64_id_as_given():
    # a cast to intp before the range check would name it -9223372036854775803
    table = unit_table({"a": [1, 0], "b": [1, 1], "c": [0, 1]})
    big = 2**63 + 5
    for universe in (np.array([big], dtype=np.uint64), [big], [np.uint64(big), 3]):
        with pytest.raises(UnknownEntityError, match=f"entity id {big} outside"):
            embeddings.nearest_neighbors(table, ["a"], k=2, universe=universe)
    with pytest.raises(UnknownEntityError, match=f"entity id {big} outside"):
        embeddings.nearest_neighbors(table, np.array([big], dtype=np.uint64), k=2, universe=[3])


def test_knn_takes_ids_0_and_1_but_not_bools():
    # numpy reads a bool among integers as 0 or 1, so those ids go one by one
    table = unit_table({"a": [1, 0], "b": [1, 1]})
    got = embeddings.nearest_neighbors(table, [np.int64(2)], k=3, universe=[0, 1, 2, 3])
    assert [e for e, _ in got[0].neighbors] == [3, 0, 1]
    assert got == embeddings.nearest_neighbors(table, [2], 3, np.arange(4, dtype=np.uint8))
    for universe in ([0, True, 3], [False, 2]):
        with pytest.raises(UnknownEntityError, match="is not an integer"):
            embeddings.nearest_neighbors(table, [2], k=3, universe=universe)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
def test_knn_k_must_be_an_integer(bad):
    table = unit_table({"a": [1, 0], "c": [0, 1]})
    universe = [table.vocab.get("a"), table.vocab.get("c")]
    with pytest.raises(DataError, match="non-negative integer"):
        embeddings.nearest_neighbors(table, ["a"], k=bad, universe=universe)


def test_knn_negative_k_rejected():
    table = unit_table({"a": [1, 0], "c": [0, 1]})
    universe = [table.vocab.get("a"), table.vocab.get("c")]
    assert embeddings.nearest_neighbors(table, ["a"], k=0, universe=universe)[0].neighbors == []
    with pytest.raises(DataError):
        embeddings.nearest_neighbors(table, ["a"], k=-1, universe=universe)


def test_knn_sorted_and_excludes_query():
    rng = np.random.default_rng(1)
    vocab = make_vocab([f"e{i}" for i in range(40)])
    matrix = rng.normal(size=(len(vocab), 8))
    table = embeddings.EmbeddingTable(matrix=matrix, vocab=vocab)
    universe = list(range(2, len(vocab)))
    nl, = embeddings.nearest_neighbors(table, ["e7"], k=14, universe=universe)
    assert len(nl.neighbors) == 14
    assert nl.query not in [eid for eid, _ in nl.neighbors]
    sims = [s for _, s in nl.neighbors]
    assert all(sims[i] >= sims[i + 1] for i in range(len(sims) - 1))
    # brute-force double check of the top hit
    best = max((eid for eid in universe if eid != nl.query),
               key=lambda eid: ref.cosine(matrix[nl.query], matrix[eid]))
    assert nl.neighbors[0][0] == best


def loop_nearest_neighbors(table, qid, k, universe):
    """The per-row reference scan: cosine descending, then smaller id."""
    q = table.matrix[qid]
    scored = [(eid, ref.cosine(q, table.matrix[eid]))
              for eid in universe if eid != qid]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def test_knn_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for trial in range(20):
        vocab = make_vocab([f"e{i}" for i in range(60)])
        matrix = rng.normal(size=(len(vocab), 5))
        # planted ties: duplicated rows, rows parallel to the query's, and
        # zero rows that all score 0 against everything
        matrix[10:14] = matrix[20]
        matrix[30] = matrix[7]
        matrix[31] = 2.0 * matrix[7]
        matrix[40:43] = 0.0
        table = embeddings.EmbeddingTable(matrix=matrix, vocab=vocab)
        universe = list(rng.permutation(np.arange(2, len(vocab))))
        for qid in (7, 20, 41, int(rng.integers(2, len(vocab)))):
            for k in (1, 5, 100):
                got, = embeddings.nearest_neighbors(table, [qid], k, universe)
                want = loop_nearest_neighbors(table, qid, k, universe)
                assert got.query == qid
                assert [e for e, _ in got.neighbors] == [e for e, _ in want]
                for (_, c1), (_, c2) in zip(got.neighbors, want):
                    assert abs(c1 - c2) <= 1e-12
        nl, = embeddings.nearest_neighbors(table, [41], 100, universe)
        assert all(c == 0.0 for _, c in nl.neighbors)   # zero-norm query


def test_knn_equals_reference_scan_exactly():
    rng = np.random.default_rng(5)
    vocab = make_vocab([f"e{i}" for i in range(50)])
    # from 8 columns on, the BLAS gives a row's dot product other bits when
    # the row sits elsewhere in the matrix, so each query needs its own rows
    # serve_rank's width is 16
    for dim in [7] * 6 + [16] * 3 + [50] * 3:
        matrix = rng.normal(size=(len(vocab), dim))
        # planted ties: duplicated and parallel rows, and zero rows
        matrix[10:14] = matrix[20]
        matrix[30], matrix[31] = matrix[7], 3.0 * matrix[7]
        matrix[40:43] = 0.0
        table = embeddings.EmbeddingTable(matrix=matrix, vocab=vocab)
        ids = rng.permutation(np.arange(2, len(vocab)))[:30]
        # each query alone, then all in one call: every query keeps its bits
        qids = [7, 20, 41, int(rng.integers(2, len(vocab)))]
        for queries in [[qid] for qid in qids] + [qids]:
            for members in (ids, ids[ids != queries[0]], np.append(ids, queries[0]), ids[:0]):
                universes = (members.tolist(), list(members), tuple(members.tolist()),
                             members)
                for universe in universes:
                    for k in (0, 1, 5, len(members) + 3):
                        got = embeddings.nearest_neighbors(table, queries, k, universe)
                        assert [nl.query for nl in got] == queries
                        for qid, nl in zip(queries, got):
                            assert nl.neighbors == ref.nearest_neighbors(table, qid, k,
                                                                         universe)
                            assert all(type(e) is int and type(c) is float
                                       for e, c in nl.neighbors)


def test_cosine_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        assert abs(ref.cosine(u, v) - ref.cosine(v, u)) < 1e-12


def test_cosine_zero_norm():
    assert ref.cosine(np.zeros(4), np.ones(4)) == 0.0
