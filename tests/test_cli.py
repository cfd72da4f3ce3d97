"""Command-line workflows: exit codes, output formats, determinism."""

import base64
import json
import pickle
import re
import zipfile
from dataclasses import fields

import numpy as np
import pytest

from synmatch import cli, corpus, training
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
    rc, out, _ = run(capsys, "score", *model_args(work), "ent0_0", "ent0_1",
                     "--seed", "3")
    assert rc == 0
    assert "# resolved config" in out
    assert "objective=siamese" in out
    assert f"index={work}/index.npz" in out             # paths shown resolved


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


def test_index_round_trip(work):
    data = cli.load_index(str(work / "index.npz"))
    assert len(data.store.split) == len(data.store) == 6
    again_path = work / "again.pkl"           # kept as given: no ".npz" appended
    cli.save_index(str(again_path), data)
    again = cli.load_index(str(again_path))
    assert again.vocab.id_to_token == data.vocab.id_to_token
    assert again.vocab.token_to_id == data.vocab.token_to_id
    assert again.lines == data.lines
    assert all(type(t) is int for line in again.lines for t in line)
    for name in ("tokens", "line_start", "occ_start", "occ_line", "occ_pos"):
        assert np.array_equal(getattr(again, name), getattr(data, name)), name
    assert again.store.synsets == data.store.synsets
    assert all(type(e) is int for members in again.store.synsets for e in members)
    assert again.store.split == data.store.split
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


def test_damaged_index_raises_only_data_error(work, tmp_path):
    with np.load(work / "index.npz", allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    compressed = tmp_path / "compressed.npz"
    np.savez_compressed(compressed, **arrays)
    rng = np.random.default_rng(5)
    bad = tmp_path / "bad.npz"
    for base in ((work / "index.npz").read_bytes(), compressed.read_bytes()):
        for trial in range(150):
            blob = bytearray(base[:rng.integers(len(base))] if trial % 3 == 0 else base)
            for _ in range(0 if trial % 3 == 0 else rng.integers(1, 4)):
                blob[rng.integers(len(blob))] = rng.integers(256)
            bad.write_bytes(bytes(blob))
            try:
                cli.load_index(str(bad))
            except DataError:
                pass


def test_ingest_writes_index_npz_by_default(work):
    assert (work / "index.npz").exists() and not (work / "index.pkl").exists()
    assert zipfile.is_zipfile(work / "index.npz")


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


@pytest.mark.parametrize("flag, value", [
    ("--pairs-per-epoch", "-3"), ("--clip-norm", "nan"), ("--learning-rate", "nan"),
    ("--neg-ratio", "1e308")])   # finite, but the pairs per epoch it asks for are not
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
EMBED_TABLE = {"shape": [1, 8], "data": base64.b64encode(bytes(64)).decode("ascii")}


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
                                        ("fine_tune_embeddings", True)])
def test_retired_checkpoint_key_at_another_value_exits_two(work, capsys, key, value):
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
    assert f"checkpoint config key {key}=" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, flag", [("optimizer", "adam", "--optimizer=adam"),
                                              ("leaky_trainable", "false", "--no-leaky-trainable"),
                                              ("resample_contexts", "true", "--resample-contexts"),
                                              ("fine_tune_embeddings", "false",
                                               "--no-fine-tune-embeddings")])
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
