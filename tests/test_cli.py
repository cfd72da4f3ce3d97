"""Command-line workflows: exit codes, output formats, determinism."""

import base64
import inspect
import json
import pickle
import re
import zipfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synmatch import cli, corpus, synthetic, training
from synmatch.errors import DataError

SUBCOMMANDS = ("ingest", "train", "evaluate", "score", "discover",
               "gradcheck", "synth")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def build_workspace(root, epochs="0", seed="3"):
    assert cli.main(["synth", "--workdir", str(root), "--out", "data",
                     "--clusters", "6", "--contexts-per-entity", "10",
                     "--vocab-size", "200", "--seed", seed]) == 0
    assert cli.main(["ingest", "--workdir", str(root),
                     "--corpus", "data/corpus.txt",
                     "--synsets", "data/synsets.tsv",
                     "--test-frac", "0.34", "--seed", seed]) == 0
    assert cli.main(["train", "--workdir", str(root), "--index", "index.npz",
                     "--embeddings", "data/embeddings.txt", "--d-ce", "8",
                     "--contexts-per-entity", "3", "--max-context-len", "13",
                     "--epochs", epochs, "--seed", seed]) == 0


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    build_workspace(root)
    return root


def model_args(work):
    return ["--workdir", str(work), "--index", "index.npz",
            "--checkpoint", "model.json", "--embeddings", "data/embeddings.txt"]


def test_help_exits_zero():
    for argv in [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["train"]) == 1                     # missing required flags
    for argv in (["ingest", "--corpus", "a", "--synsets", "b"], ["gradcheck"],
                 ["synth"]):
        rc, _, err = run(capsys, *argv, "--config", "c")   # config not read here
        assert rc == 1 and "--config" in err
    rc, _, err = run(capsys, "train", "--index", "x", "--embeddings", "y",
                     "--no-such-flag")
    assert rc == 1 and "no-such-flag" in err


def test_every_run_echoes_resolved_config(work, capsys):
    (work / "echo.cfg").write_text("d_ce=8\n")
    rc, out, _ = run(capsys, "score", *model_args(work), "ent0_0", "ent0_1",
                     "--seed", "3", "--config", "echo.cfg")
    assert rc == 0
    assert "# resolved config" in out
    assert "objective=siamese" in out
    # every path shown resolved, --config included
    for name, path in (("config", "echo.cfg"), ("index", "index.npz"),
                       ("checkpoint", "model.json"), ("embeddings", "data/embeddings.txt")):
        assert f"\n{name}={work}/{path}\n" in out


def test_every_run_echoes_its_seed(work, tmp_path, capsys):
    """train echoes the seed it trains with, --config's over --seed; evaluate,
    score and discover echo their --seed, not the checkpoint's (3)."""
    (tmp_path / "seed.cfg").write_text("seed=9\n")
    train = ["train", "--workdir", str(work), "--index", "index.npz",
             "--embeddings", "data/embeddings.txt", "--d-ce", "8", "--epochs", "0",
             "--checkpoint", str(tmp_path / "model.json"),
             "--history", str(tmp_path / "history.txt"), "--seed", "7"]
    runs = [("7", train), ("9", train + ["--config", str(tmp_path / "seed.cfg")]),
            ("5", ["evaluate", *model_args(work), "--out", str(tmp_path / "metrics.txt"),
                   "--seed", "5"]),
            ("5", ["score", *model_args(work), "ent0_0", "ent0_1", "--seed", "5"]),
            ("5", ["discover", *model_args(work), "ent0_0", "--seed", "5"])]
    for seed, argv in runs:
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert re.findall(r"^seed=.*$", out, re.M) == [f"seed={seed}"], argv[0]


def generate_keywords():
    return {name: p.default for name, p in inspect.signature(synthetic.generate).parameters.items()
            if name not in ("out_dir", "seed")}


def test_synth_flags_are_generate_keywords_with_its_defaults():
    args = vars(cli.build_parser().parse_args(["synth"]))
    flags = {k: v for k, v in args.items()
             if k not in ("subcommand", "func", "workdir", "seed", "out")}
    assert flags == generate_keywords()
    assert list(flags) == list(generate_keywords())      # in generate's order


def test_no_generate_keyword_defaults_to_a_bool():
    # its flag would take type=bool, which reads "--x False" as True
    assert not [k for k, v in generate_keywords().items() if isinstance(v, bool)]


def test_self_score_prints_one(work, capsys):
    rc, out, _ = run(capsys, "score", *model_args(work), "ent2_1", "ent2_1",
                     "--seed", "3")
    assert rc == 0
    assert out.splitlines()[-1] == "1.000000"


def test_score_unknown_entity_exits_two(work, capsys):
    rc, _, err = run(capsys, "score", *model_args(work), "ent0_0", "nope",
                     "--seed", "3")
    assert rc == 2
    assert "nope" in err


def test_discover_prints_candidates_then_accepted(work, capsys):
    rc, out, _ = run(capsys, "discover", *model_args(work), "ent0_0",
                     "--topk", "5", "--threshold", "0.5", "--seed", "3")
    assert rc == 0
    lines = out.splitlines()
    cand = lines.index("CANDIDATE ENTITIES (top 5 by embedding cosine)")
    final = lines.index("FINAL ENTITIES (model score > 0.500000)")
    assert cand < final
    entry = re.compile(r"^  \S+  -?\d\.\d{6}$")
    cand_rows = lines[cand + 1:final]
    assert len(cand_rows) == 5
    assert all(entry.match(row) for row in cand_rows)
    assert all(entry.match(row) for row in lines[final + 1:])
    # accepted scores all clear the threshold
    for row in lines[final + 1:]:
        assert float(row.split()[-1]) > 0.5


def test_discover_header_counts_the_candidates_listed(work, capsys):
    rc, out, _ = run(capsys, "discover", *model_args(work), "ent0_0",
                     "--topk", "100000", "--threshold", "0.5", "--seed", "3")
    assert rc == 0
    lines = out.splitlines()
    final = lines.index("FINAL ENTITIES (model score > 0.500000)")
    cand = lines.index("CANDIDATE ENTITIES (top 17 by embedding cosine)")
    assert final - cand - 1 == 17      # all 18 entities but the query


def blocks(out):
    """Discover output from the first candidates block on: the echo dropped."""
    return out[out.index("CANDIDATE ENTITIES"):]


def test_discover_many_queries_prints_each_block_as_alone(work, capsys):
    queries = ["ent3_2", "ent0_0", "ent5_1", "ent0_0"]
    flags = ["--topk", "4", "--threshold", "0.2", "--seed", "3"]
    rc, out, _ = run(capsys, "discover", *model_args(work), *queries, *flags)
    assert rc == 0
    assert out.count("# resolved config") == 1
    assert f"query={' '.join(queries)}\n" in out
    want = []
    for query in queries:
        rc, alone, _ = run(capsys, "discover", *model_args(work), query, *flags)
        assert rc == 0 and f"query={query}\n" in alone
        want.append(blocks(alone))
    assert blocks(out) == "".join(want)


def test_discover_unknown_query_prints_nothing(work, capsys):
    for queries in (["ent0_0", "ghost"], ["ghost", "ent0_0"]):
        rc, out, err = run(capsys, "discover", *model_args(work), *queries)
        assert rc == 2 and out == ""
        assert "ghost" in err


def test_discover_threshold_one_accepts_nothing(work, capsys):
    rc, out, _ = run(capsys, "discover", *model_args(work), "ent0_0",
                     "--topk", "5", "--threshold", "1.0", "--seed", "3")
    assert rc == 0
    assert out.splitlines()[-1].startswith("FINAL ENTITIES")


def test_evaluate_writes_report_file(work, capsys, tmp_path):
    out_file = tmp_path / "metrics.txt"
    rc, out, _ = run(capsys, "evaluate", *model_args(work),
                     "--out", str(out_file), "--seed", "3")
    assert rc == 0
    text = out_file.read_text()
    assert re.search(r"^auc \d\.\d{6}$", text, re.M)
    assert re.search(r"^map \d\.\d{6}$", text, re.M)
    assert re.search(r"^f1@10 \d\.\d{6}$", text, re.M)
    assert text in out


def test_train_evaluate_byte_identical_across_runs(tmp_path, capsys):
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        build_workspace(root, epochs="1")
        assert cli.main(["evaluate", *model_args(root), "--seed", "3"]) == 0
    capsys.readouterr()
    for fname in ("model.json", "history.txt", "metrics.txt"):
        assert (tmp_path / "a" / fname).read_bytes() == \
               (tmp_path / "b" / fname).read_bytes(), fname


def test_config_file_overrides_flags(work, capsys):
    cfg = work / "override.cfg"
    cfg.write_text("epochs=1\nlearning_rate=0.001\n")
    rc, out, _ = run(capsys, "train", "--workdir", str(work),
                     "--index", "index.npz", "--embeddings", "data/embeddings.txt",
                     "--checkpoint", "model_o.json", "--history", "hist_o.txt",
                     "--d-ce", "8", "--contexts-per-entity", "3",
                     "--max-context-len", "13", "--epochs", "7",
                     "--learning-rate", "0.5", "--seed", "3",
                     "--config", "override.cfg")
    assert rc == 0
    assert "epochs=1" in out and "learning_rate=0.001" in out
    assert len((work / "hist_o.txt").read_text().splitlines()) == 1


@pytest.mark.parametrize("command", ["evaluate", "score", "discover"])
def test_config_d_ce_other_than_checkpoint_exits_two(work, tmp_path, capsys, command):
    (tmp_path / "wide.cfg").write_text("d_ce=16\n")
    extra = {"evaluate": ["--out", str(tmp_path / "metrics.txt")],
             "score": ["ent0_0", "ent0_1"], "discover": ["ent0_0"]}[command]
    rc, out, err = run(capsys, command, *model_args(work), *extra,
                       "--config", str(tmp_path / "wide.cfg"))
    assert rc == 2 and out == ""
    assert "d_ce=16" in err and "d_ce=8" in err
    # the checkpoint's own width, restated, runs as without a config file
    (tmp_path / "same.cfg").write_text("d_ce=8\n")
    rc, out, _ = run(capsys, command, *model_args(work), *extra,
                     "--config", str(tmp_path / "same.cfg"))
    assert rc == 0 and "d_ce=8\n" in out


def test_config_file_unknown_key_exits_two(work, capsys):
    cfg = work / "bad.cfg"
    cfg.write_text("no_such_option=1\n")
    rc, _, err = run(capsys, "train", "--workdir", str(work),
                     "--index", "index.npz", "--embeddings", "data/embeddings.txt",
                     "--config", "bad.cfg")
    assert rc == 2
    assert "no_such_option" in err


def score_with_index(capsys, work, index):
    return run(capsys, "score", "--workdir", str(work), "--index", str(index),
               "--checkpoint", "model.json", "--embeddings", "data/embeddings.txt",
               "ent0_0", "ent0_1")


def test_corrupt_index_exits_two(work, tmp_path, capsys):
    bad = tmp_path / "bad.pkl"
    with open(bad, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    rc, _, err = score_with_index(capsys, work, bad)
    assert rc == 2 and "not a context index" in err
    bad.write_bytes(b"junk that is not a pickle")
    rc, _, err = score_with_index(capsys, work, bad)
    assert rc == 2
    for junk in (b"", b"PK\x03\x04 truncated zip", (work / "index.npz").read_bytes()[:300]):
        bad.write_bytes(junk)
        rc, _, err = score_with_index(capsys, work, bad)
        assert rc == 2 and "re-run `synmatch ingest`" in err and "Traceback" not in err


class _Hostile:
    """Unpickling this runs its __reduce__: it would create the marker file."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


def test_pickled_index_is_never_unpickled(work, tmp_path, capsys):
    marker = tmp_path / "marker"
    hostile = tmp_path / "index.pkl"
    with open(hostile, "wb") as fh:
        pickle.dump({"format": "synmatch-index", "version": 1,
                     "data": _Hostile(str(marker))}, fh)
    with pytest.raises(DataError, match="re-run `synmatch ingest`"):
        cli.load_index(str(hostile))
    rc, _, err = score_with_index(capsys, work, hostile)
    assert rc == 2 and "not a context index" in err
    assert not marker.exists()


def assert_same_index(got, want):
    assert got.vocab.id_to_token == want.vocab.id_to_token
    assert got.vocab.token_to_id == want.vocab.token_to_id
    assert got.lines == want.lines
    for name in ("tokens", "line_start", "occ_start", "occ"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.store.synsets == want.store.synsets
    assert got.store.split == want.store.split


def test_index_round_trip(work):
    data = cli.load_index(str(work / "index.npz"))
    assert len(data.store.split) == len(data.store) == 6
    again_path = work / "again.pkl"           # kept as given: no ".npz" appended
    cli.save_index(str(again_path), data)
    again = cli.load_index(str(again_path))
    assert_same_index(again, data)
    assert all(type(t) is int for line in again.lines for t in line)
    assert all(type(e) is int for members in again.store.synsets for e in members)
    with zipfile.ZipFile(again_path) as zf:                # nothing stored as a pickle
        assert sorted(zf.namelist()) == sorted(
            f"{key}.npy" for key in ["format", "version", *cli.INDEX_ARRAYS])


def test_index_without_split_round_trips(tmp_path):
    (tmp_path / "c.txt").write_text("a b c\nb c d\n")
    (tmp_path / "s.tsv").write_text("a\tb\nc\n")
    data = corpus.ingest(str(tmp_path / "c.txt"), str(tmp_path / "s.tsv"), min_count=1)
    cli.save_index(str(tmp_path / "i"), data)
    again = cli.load_index(str(tmp_path / "i"))
    assert again.store.synsets == data.store.synsets and again.store.split == {}


def rewrite_index(src, dst, **changes):
    with np.load(src, allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    arrays.update(changes)
    for key in [k for k, v in changes.items() if v is None]:
        del arrays[key]
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("change, why", [
    (dict(tokens=None), "'tokens' is missing"),
    (dict(split=None), "'split' is missing"),
    (dict(version=None), "no index version"),
    (dict(version=np.array(1)), "version 1 unsupported"),
    (dict(format=np.array("other")), "not a context index"),
    ("float tokens", "'tokens' is float64"),
    ("id past vocab", "line token id outside the vocabulary"),
    ("negative id", "line token id outside the vocabulary"),
    ("member past vocab", "synset token id outside the vocabulary"),
    ("offsets past end", "line offsets"),
    ("empty synset", "synset offsets"),
    ("split code 4", "one code in 0..3 per synset"),
    ("duplicate token", "hold no token twice"),
    ("object vocab", "not a context index file"),
])
def test_malformed_index_exits_two(work, tmp_path, capsys, change, why):
    src = work / "index.npz"
    with np.load(src, allow_pickle=False) as npz:
        tokens, vocab, line_start = npz["tokens"], npz["vocab"], npz["line_start"]
        members, starts = npz["synset_members"], npz["synset_start"]
    n_vocab = vocab.tobytes().count(b"\n") + 1
    edits = {
        "float tokens": dict(tokens=tokens.astype(np.float64)),
        "id past vocab": dict(tokens=np.where(np.arange(len(tokens)) == 5, n_vocab,
                                              tokens).astype(np.int32)),
        "negative id": dict(tokens=np.where(np.arange(len(tokens)) == 0, -1,
                                            tokens).astype(np.int32)),
        "member past vocab": dict(synset_members=np.full_like(members, n_vocab)),
        "offsets past end": dict(line_start=np.append(line_start[:-1], len(tokens) + 1)),
        "empty synset": dict(synset_start=np.insert(starts, 1, 0)),
        "split code 4": dict(split=np.full(len(starts) - 1, 4, dtype=np.int8)),
        "duplicate token": dict(vocab=np.frombuffer(b"<unk>\n<pad>\nx\nx", dtype=np.uint8)),
        "object vocab": dict(vocab=np.array(["<unk>", "<pad>"], dtype=object)),
    }
    bad = tmp_path / "bad.npz"
    rewrite_index(src, bad, **(edits[change] if isinstance(change, str) else change))
    with pytest.raises(DataError, match="re-run `synmatch ingest`") as err:
        cli.load_index(str(bad))
    assert why in str(err.value)
    rc, _, err = score_with_index(capsys, work, bad)
    assert rc == 2 and "Traceback" not in err


@pytest.fixture(scope="module")
def index_files(work, tmp_path_factory):
    """The saved index, and its file's bytes stored and deflated."""
    with np.load(work / "index.npz", allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    compressed = tmp_path_factory.mktemp("index") / "compressed.npz"
    np.savez_compressed(compressed, **arrays)
    return (cli.load_index(str(work / "index.npz")),
            ((work / "index.npz").read_bytes(), compressed.read_bytes()))


def test_damaged_index_raises_only_data_error(index_files, tmp_path):
    rng = np.random.default_rng(5)
    bad = tmp_path / "bad.npz"
    for base in index_files[1]:
        for trial in range(150):
            blob = bytearray(base[:rng.integers(len(base))] if trial % 3 == 0 else base)
            for _ in range(0 if trial % 3 == 0 else rng.integers(1, 4)):
                blob[rng.integers(len(blob))] = rng.integers(256)
            bad.write_bytes(bytes(blob))
            try:
                cli.load_index(str(bad))
            except DataError:
                pass


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.integers(0, 1), cut=st.booleans(), draws=st.data())
def test_damaged_index_loads_as_saved_or_raises_data_error(index_files, tmp_path, which,
                                                           cut, draws):
    saved, blobs = index_files
    blob = bytearray(blobs[which])
    if cut:
        del blob[draws.draw(st.integers(0, len(blob) - 1), label="cut at"):]
    if blob:
        spots = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
        for at, byte in draws.draw(st.lists(spots, min_size=0 if cut else 1, max_size=4),
                                   label="bytes set"):
            blob[at] = byte
    bad = tmp_path / "damaged.npz"
    bad.write_bytes(bytes(blob))
    try:
        loaded = cli.load_index(str(bad))
    except DataError:
        return
    assert_same_index(loaded, saved)


def test_ingest_writes_index_npz_by_default(work):
    assert (work / "index.npz").exists() and not (work / "index.pkl").exists()
    assert zipfile.is_zipfile(work / "index.npz")


def test_ingest_prints_the_number_of_lines_kept(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("a b c\na b c\n\n  \nb c d\nc d e a\n")
    (tmp_path / "s.tsv").write_text("a\tb\n")
    rc, out, _ = run(capsys, "ingest", "--workdir", str(tmp_path), "--corpus", "c.txt",
                     "--synsets", "s.tsv", "--min-count", "1")
    assert rc == 0
    kept = cli.load_index(str(tmp_path / "index.npz"))
    assert len(kept.lines) == 3 and len(kept.vocab) == 7
    assert "ingested 3 lines, vocabulary 7, 2 entities in 1 synsets\n" \
           "split train=1 valid=0 test=0\n" in out


def test_discover_rejects_nonpositive_topk(work, capsys):
    for topk in ("-1", "0"):
        rc, out, err = run(capsys, "discover", *model_args(work), "ent0_0",
                           "--topk", topk, "--seed", "3")
        assert rc == 2
        assert "Traceback" not in err and "at least 1" in err
        assert "CANDIDATE ENTITIES" not in out


def test_valid_split_without_negatives_fails_before_training(tmp_path, capsys, monkeypatch):
    # one valid synset: its three within-synset pairs are all positive
    assert cli.main(["synth", "--workdir", str(tmp_path), "--out", "data",
                     "--clusters", "6", "--seed", "3"]) == 0
    assert cli.main(["ingest", "--workdir", str(tmp_path), "--corpus", "data/corpus.txt",
                     "--synsets", "data/synsets.tsv", "--test-frac", "0.34",
                     "--valid-frac", "0.17", "--seed", "3"]) == 0

    def no_batches(*args, **kwargs):
        raise AssertionError("a training batch ran")

    monkeypatch.setattr(training.ad, "grad", no_batches)
    capsys.readouterr()
    rc, _, err = run(capsys, "train", "--workdir", str(tmp_path), "--index", "index.npz",
                     "--embeddings", "data/embeddings.txt", "--d-ce", "8",
                     "--epochs", "4", "--seed", "3")
    assert rc == 2
    assert "valid split" in err and "0 negative" in err and "Traceback" not in err
    assert not (tmp_path / "history.txt").exists()


@pytest.mark.parametrize("flag, value", [("--pairs-per-epoch", "-3"),
                                         ("--learning-rate", "nan")])
def test_bad_training_numbers_exit_two(work, capsys, flag, value):
    rc, _, err = run(capsys, "train", "--workdir", str(work), "--index", "index.npz",
                     "--embeddings", "data/embeddings.txt",
                     "--checkpoint", "model_bad.json", "--d-ce", "8",
                     "--epochs", "1", flag, value)
    assert rc == 2
    assert "Traceback" not in err and flag[2:].replace("-", "_") in err
    assert not (work / "model_bad.json").exists()


@pytest.mark.parametrize("knn_k", ["-1", "0"])
def test_evaluate_rejects_nonpositive_knn_k(work, capsys, knn_k):
    rc, _, err = run(capsys, "evaluate", *model_args(work), "--seed", "3",
                     "--knn-k", knn_k, "--out", "metrics_bad.txt")
    assert rc == 2
    assert "Traceback" not in err and "knn_k" in err
    assert not (work / "metrics_bad.txt").exists()


def test_missing_input_file_exits_two(capsys):
    rc, _, err = run(capsys, "evaluate", "--index", "/does/not/exist.pkl",
                     "--checkpoint", "x.json", "--embeddings", "y.txt")
    assert rc == 2
    assert "exist.pkl" in err


def test_nan_embeddings_exit_two(work, capsys):
    nan_file = work / "nan_emb.txt"
    nan_file.write_text("w0 " + " ".join(["0.5"] * 16) + "\nw1 " + " ".join(["nan"] * 16) + "\n")
    rc, _, err = run(capsys, "train", "--workdir", str(work),
                     "--index", "index.npz", "--embeddings", "nan_emb.txt",
                     "--checkpoint", "model_nan.json", "--d-ce", "8",
                     "--contexts-per-entity", "3", "--max-context-len", "13",
                     "--epochs", "1", "--seed", "3")
    assert rc == 2
    assert "line 2:" in err and "Traceback" not in err
    assert not (work / "model_nan.json").exists()
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                     "--checkpoint", "model.json", "--embeddings", "nan_emb.txt",
                     "ent0_0", "ent0_1", "--seed", "3")
    assert rc == 2
    assert "line 2:" in err and "Traceback" not in err


def test_non_numeric_embedding_exits_two(work, capsys):
    (work / "word_emb.txt").write_text("w0 " + " ".join(["0.5"] * 15) + " half\n")
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                     "--checkpoint", "model.json", "--embeddings", "word_emb.txt",
                     "ent0_0", "ent0_1", "--seed", "3")
    assert rc == 2
    assert "line 1:" in err and "half" in err and "Traceback" not in err


NOT_UTF8 = b"\xff\xfe"


def test_non_utf8_embeddings_exit_two(work, capsys):
    (work / "latin_emb.txt").write_bytes(
        b"w0 " + b" ".join([b"0.5"] * 16) + b"\nent0_0 1 2" + NOT_UTF8 + b" 3\n")
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                     "--checkpoint", "model.json", "--embeddings", "latin_emb.txt",
                     "ent0_0", "ent0_1")
    assert rc == 2
    assert "latin_emb.txt, line 2: not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("which", ["corpus", "synsets"])
def test_non_utf8_corpus_or_synsets_exit_two(work, tmp_path, capsys, which):
    paths = {"corpus": work / "data" / "corpus.txt", "synsets": work / "data" / "synsets.tsv"}
    bad = tmp_path / f"bad_{which}"
    text = paths[which].read_bytes().split(b"\n")
    bad.write_bytes(b"\n".join(text[:2] + [text[2] + NOT_UTF8] + text[3:]))
    paths[which] = bad
    rc, _, err = run(capsys, "ingest", "--workdir", str(tmp_path), "--corpus", str(paths["corpus"]),
                     "--synsets", str(paths["synsets"]), "--out", "index_bad.npz")
    assert rc == 2
    assert f"bad_{which}, line 3: not UTF-8" in err and "Traceback" not in err
    assert not (tmp_path / "index_bad.npz").exists()


def test_non_utf8_checkpoint_or_config_exits_two(work, capsys):
    (work / "model_latin.json").write_bytes(
        (work / "model.json").read_bytes().replace(b'"meta"', NOT_UTF8 + b'"meta"', 1))
    (work / "latin.cfg").write_bytes(b"epochs=1\n# caf" + NOT_UTF8 + b"\n")
    for checkpoint, extra, name in (("model_latin.json", [], "model_latin.json, line"),
                                    ("model.json", ["--config", "latin.cfg"], "latin.cfg, line 2")):
        rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                         "--checkpoint", checkpoint, "--embeddings", "data/embeddings.txt",
                         *extra, "ent0_0", "ent0_1")
        assert rc == 2
        assert name in err and "not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--index", "--embeddings", "--checkpoint"])
def test_directory_as_input_file_exits_two(work, capsys, flag):
    args = model_args(work)
    args[args.index(flag) + 1] = "data"
    rc, _, err = run(capsys, "score", *args, "ent0_0", "ent0_1")
    assert rc == 2
    assert "cannot read" in err and "Traceback" not in err


def test_checkpoint_missing_parameter_exits_two(work, capsys):
    blob = json.loads((work / "model.json").read_text())
    del blob["params"]["enc.bw.Wh"]
    (work / "model_lacking.json").write_text(json.dumps(blob))
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                     "--checkpoint", "model_lacking.json",
                     "--embeddings", "data/embeddings.txt", "ent0_0", "ent0_1")
    assert rc == 2
    assert "Traceback" not in err and "enc.bw.Wh" in err


def test_embedding_width_mismatch_exits_two(work, capsys):
    (work / "narrow_emb.txt").write_text("w0 " + " ".join(["0.5"] * 8) + "\n")
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                     "--checkpoint", "model.json", "--embeddings", "narrow_emb.txt",
                     "ent0_0", "ent0_1")
    assert rc == 2
    assert "Traceback" not in err and "8-wide" in err


def test_synth_bad_size_exits_two(tmp_path, capsys):
    rc, _, err = run(capsys, "synth", "--workdir", str(tmp_path), "--embed-dim", "-1")
    assert rc == 2 and "embed_dim" in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
    MemoryError()])
def test_out_of_memory_exits_two_in_one_line(tmp_path, capsys, monkeypatch, exc):
    def too_big(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.synthetic, "generate", too_big)
    rc, _, err = run(capsys, "synth", "--workdir", str(tmp_path), "--embed-dim", "100000000000")
    assert rc == 2
    assert err.startswith("not enough memory: ") and err.count("\n") == 1
    assert str(exc) in err and "Traceback" not in err


def test_negative_min_count_exits_two(work, tmp_path, capsys):
    rc, _, err = run(capsys, "ingest", "--corpus", str(work / "data/corpus.txt"),
                     "--synsets", str(work / "data/synsets.tsv"),
                     "--out", str(tmp_path / "index.npz"), "--min-count", "-5")
    assert rc == 2
    assert "min_count must be a non-negative integer (at least 0), got -5" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_train_flags_cover_every_config_field():
    args = cli.build_parser().parse_args(["train", "--index", "x", "--embeddings", "y"])
    defaults = training.TrainConfig()
    for f in fields(training.TrainConfig):
        if f.name != "seed":
            assert getattr(args, f.name) == getattr(defaults, f.name), f.name


def test_gradcheck_passes_and_reports_worst_error(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--seed", "0")
    assert rc == 0
    m = re.search(r"worst relative error (\S+)", out)
    assert m and float(m.group(1)) < 1e-4
    assert out.count("max rel error") == 8


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_negative_seed_exits_two(work, tmp_path, capsys, command):
    paths = ["--corpus", str(work / "data/corpus.txt"), "--synsets", str(work / "data/synsets.tsv"),
             "--out", str(tmp_path / "index.npz")]
    argv = {"ingest": paths,
            "train": ["--workdir", str(work), "--index", "index.npz",
                      "--embeddings", "data/embeddings.txt", "--d-ce", "8",
                      "--checkpoint", str(tmp_path / "model.json"), "--epochs", "1"],
            "evaluate": model_args(work) + ["--out", str(tmp_path / "metrics.txt")],
            "score": model_args(work) + ["ent0_0", "ent0_1"],
            "discover": model_args(work) + ["ent0_0"],
            "gradcheck": [],
            "synth": ["--workdir", str(tmp_path)]}[command]
    rc, _, err = run(capsys, command, *argv, "--seed=-1")
    assert rc == 2
    assert "seed must be non-negative, got -1" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_negative_seed_in_config_or_checkpoint_exits_two(work, capsys):
    (work / "negseed.cfg").write_text("seed=-4\n")
    blob = json.loads((work / "model.json").read_text())
    blob["config"]["seed"] = -4
    (work / "model_negseed.json").write_text(json.dumps(blob))
    for checkpoint, extra in (("model.json", ["--config", "negseed.cfg"]),
                              ("model_negseed.json", [])):
        rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                         "--checkpoint", checkpoint, "--embeddings", "data/embeddings.txt",
                         *extra, "ent0_0", "ent0_1")
        assert rc == 2
        assert "seed must be non-negative, got -4" in err and "Traceback" not in err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["evaluate", "discover"])
def test_non_finite_threshold_exits_two(work, tmp_path, capsys, command, threshold):
    extra = {"evaluate": ["--out", str(tmp_path / "metrics.txt")], "discover": ["ent0_0"]}
    if command == "evaluate":
        # the report does not depend on a threshold, so evaluate takes none
        for value in (threshold, "0.5"):
            rc, _, err = run(capsys, command, *model_args(work), *extra[command],
                             f"--threshold={value}", "--seed", "3")
            assert rc == 1 and "unrecognized arguments: --threshold" in err
        assert not any(tmp_path.iterdir())
        return
    rc, out, err = run(capsys, command, *model_args(work), *extra[command],
                       f"--threshold={threshold}", "--seed", "3")
    assert rc == 2
    assert f"--threshold must be a finite number, got {threshold}" in err
    assert "Traceback" not in err and "FINAL ENTITIES" not in out
    assert not any(tmp_path.iterdir())


# one (1, 8) parameter of zeros, as a checkpoint stores it
EMBED_TABLE = {"shape": [1, 8], "data": base64.b64encode(bytes(32)).decode("ascii")}


def _set(path, value):
    def edit(blob):
        node = blob
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return blob
    return edit


@pytest.mark.parametrize("edit, named", [
    pytest.param(_set(("params", "match.w_bm", "data"), "abc"), "match.w_bm", id="bad-base64"),
    pytest.param(lambda blob: [blob], "not a model checkpoint", id="top-level-list"),
    pytest.param(_set(("params", "embed.table"), EMBED_TABLE), "unexpected ['embed.table']",
                 id="embedding-table"),
    pytest.param(_set(("config", "d_ce"), "x"), "d_ce must be int", id="d_ce-string"),
    pytest.param(_set(("config", "leaky"), "no"), "leaky must be bool", id="leaky-string"),
    pytest.param(_set(("params", "match.w_bm"), [8, 8]), "parameter match.w_bm", id="entry-list"),
    pytest.param(_set(("params", "match.w_bm", "shape"), [8, "8"]), "match.w_bm",
                 id="shape-not-integer"),
])
def test_damaged_checkpoint_exits_two(work, capsys, edit, named):
    blob = edit(json.loads((work / "model.json").read_text()))
    (work / "model_damaged.json").write_text(json.dumps(blob))
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                     "--checkpoint", "model_damaged.json",
                     "--embeddings", "data/embeddings.txt", "ent0_0", "ent0_1")
    assert rc == 2
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("optimizer", "rmsprop"), ("leaky_trainable", True),
                                        ("resample_contexts", False),
                                        ("fine_tune_embeddings", True), ("neg_ratio", 0.5),
                                        ("clip_norm", 1.0), ("clip_norm", True)])
def test_retired_checkpoint_key_at_another_value_exits_two(work, capsys, key, value):
    """The config keys of options earlier versions offered are unknown keys
    of a version 3 checkpoint: exit 2 naming the key."""
    blob = json.loads((work / "model.json").read_text())
    blob["config"][key] = value
    if key == "leaky_trainable":   # as the trainable leak was saved
        blob["params"]["match.leak"] = {"shape": [1, 8], "data": "A" * 88}
    if key == "fine_tune_embeddings":   # as the tuned table was saved
        blob["params"]["embed.table"] = EMBED_TABLE
    (work / "model_retired.json").write_text(json.dumps(blob))
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.npz",
                     "--checkpoint", "model_retired.json",
                     "--embeddings", "data/embeddings.txt", "ent0_0", "ent0_1")
    assert rc == 2
    assert f"unknown keys: [{key!r}]" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, flag", [("optimizer", "adam", "--optimizer=adam"),
                                              ("leaky_trainable", "false", "--no-leaky-trainable"),
                                              ("resample_contexts", "true", "--resample-contexts"),
                                              ("fine_tune_embeddings", "false",
                                               "--no-fine-tune-embeddings"),
                                              ("neg_ratio", "1.0", "--neg-ratio=1.0"),
                                              ("clip_norm", "5.0", "--clip-norm=5.0")])
def test_retired_keys_are_unknown_to_config_files_and_flags(work, tmp_path, capsys,
                                                            key, value, flag):
    (tmp_path / "retired.cfg").write_text(f"{key}={value}\n")
    train = ["train", "--workdir", str(work), "--index", "index.npz",
             "--embeddings", "data/embeddings.txt", "--checkpoint", str(tmp_path / "m.json"),
             "--history", str(tmp_path / "h.txt")]
    rc, _, err = run(capsys, *train, "--config", str(tmp_path / "retired.cfg"))
    assert rc == 2 and f"unknown key {key!r}" in err
    rc, _, err = run(capsys, *train, flag)
    assert rc == 1 and f"unrecognized arguments: {flag}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["retired.cfg"]


# Flag values for the CLI fuzz test.  No width or count here is both valid
# and large: such a value would allocate for real.
COUNTS = ["0", "1", "2", "3", "-1", "+4", "1_0", "7", "50", "2.5", "a", "9" * 30]
WIDTHS = ["-2", "0", "1", "2", "7", "8", "+4", "1_0", "x", ""]
REALS = ["0", "0.5", "-0.0", "1", "-1", "0.001", "1e308", "1e-320", "nan", "inf", "-inf", "x"]
NAMES = ["ent0_0", "ent0_1", "ent3_2", "ent5_1", "<pad>", "<unk>", "ghost", "", "-x", "ent0_0 "]
SEEDS = ["0", "3", "-1", "+7", "9" * 30, "1e3"]
# synth sizes: at most 10 each, so the largest corpus is 10^4 short lines
SIZES = ["0", "1", "2", "3", "-1", "+4", "1_0", "2.5", "a", ""]
# ingest inputs, relative to the workdir; --out never takes a fuzzed value
PATHS = ["data/corpus.txt", "data/synsets.tsv", "data/embeddings.txt", "index.npz",
         "nowhere.txt", ""]
MODEL_FLAGS = {"--seed": SEEDS}
FUZZ_FLAGS = {
    "score": MODEL_FLAGS,
    "discover": dict(MODEL_FLAGS, **{"--topk": COUNTS,
                                     "--threshold": REALS}),
    "evaluate": dict(MODEL_FLAGS, **{"--split": ["train", "valid", "test", "dev", ""],
                                     "--ks": ["1,5,10", "3", "", ",", "0", "-1", "1,,2", "a",
                                              "1, 2", "9" * 30],
                                     "--knn-k": COUNTS}),
    "train": {"--seed": SEEDS, "--d-ce": WIDTHS, "--contexts-per-entity": COUNTS,
              "--max-context-len": COUNTS, "--batch-size": COUNTS,
              "--pairs-per-epoch": COUNTS, "--learning-rate": REALS, "--margin": REALS,
              "--objective": ["siamese", "triplet", "contrastive", ""],
              "--encoder": ["anchored", "bilstm", "gru"], "--leaky": [None],
              "--no-leaky": [None], "--epochs": ["0"]},
    "ingest": {"--seed": SEEDS, "--corpus": PATHS, "--synsets": PATHS, "--min-count": COUNTS,
               "--valid-frac": REALS + ["0.25", "0.6"], "--test-frac": REALS + ["0.25", "0.6"]},
    "synth": {"--seed": SEEDS, "--noise": REALS,
              **dict.fromkeys(["--clusters", "--entities-per-cluster", "--contexts-per-entity",
                               "--vocab-size", "--embed-dim", "--tokens-per-context"], SIZES)},
}


@st.composite
def cli_args(draw, command):
    """Arguments of any command but gradcheck, `train` at `--epochs 0`:
    fuzzed flags, now and then one that belongs to another command."""
    table = FUZZ_FLAGS[command]
    others = sorted({f for flags in FUZZ_FLAGS.values() for f in flags} - set(table))
    names = draw(st.lists(st.sampled_from(sorted(table)), max_size=4))
    if draw(st.integers(0, 7)) == 0:
        names.append(draw(st.sampled_from(others)))
    argv = []
    for name in names:
        values = table.get(name, COUNTS)
        value = draw(st.sampled_from(values))
        argv.append(name if value is None else f"{name}={value}")
    positional = {"score": 2, "discover": 1}.get(command, 0)
    return draw(st.lists(st.sampled_from(NAMES), min_size=positional,
                         max_size=positional)) + argv


@pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draws=st.data())
def test_fuzzed_flags_exit_zero_to_three_without_traceback(work, tmp_path, capsys, command,
                                                           draws):
    argv = draws.draw(cli_args(command), label="arguments")
    outputs = {"train": ["--checkpoint", str(tmp_path / "model.json"),
                         "--history", str(tmp_path / "history.txt"), "--epochs", "0",
                         "--workdir", str(work), "--index", "index.npz",
                         "--embeddings", "data/embeddings.txt"],
               "evaluate": ["--out", str(tmp_path / "metrics.txt")] + model_args(work),
               "ingest": ["--workdir", str(work), "--corpus", "data/corpus.txt",
                          "--synsets", "data/synsets.tsv", "--out", str(tmp_path / "index.npz")],
               "synth": ["--workdir", str(tmp_path), "--out", "synth", "--clusters", "3",
                         "--contexts-per-entity", "4", "--vocab-size", "60", "--embed-dim", "4"]}
    rc, _, err = run(capsys, command, *outputs.get(command, model_args(work)), *argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert (rc == 0) != bool(err.strip())
