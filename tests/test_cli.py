"""Command-line workflows: exit codes, output formats, determinism."""

import json
import pickle
import re

import pytest

from synmatch import cli

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
    assert cli.main(["train", "--workdir", str(root), "--index", "index.pkl",
                     "--embeddings", "data/embeddings.txt", "--d-ce", "8",
                     "--contexts-per-entity", "3", "--max-context-len", "13",
                     "--epochs", epochs, "--seed", seed]) == 0


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    build_workspace(root)
    return root


def model_args(work):
    return ["--workdir", str(work), "--index", "index.pkl",
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
    assert cli.main(["ingest", "--corpus", "a", "--synsets", "b",
                     "--config", "c"]) == 1             # config not accepted here
    rc, _, err = run(capsys, "train", "--index", "x", "--embeddings", "y",
                     "--no-such-flag")
    assert rc == 1 and "no-such-flag" in err


def test_every_run_echoes_resolved_config(work, capsys):
    rc, out, _ = run(capsys, "score", *model_args(work), "ent0_0", "ent0_1",
                     "--seed", "3")
    assert rc == 0
    assert "# resolved config" in out
    assert "objective=siamese" in out
    assert f"index={work}/index.pkl" in out             # paths shown resolved


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
                     "--index", "index.pkl", "--embeddings", "data/embeddings.txt",
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
                     "--index", "index.pkl", "--embeddings", "data/embeddings.txt",
                     "--config", "bad.cfg")
    assert rc == 2
    assert "no_such_option" in err


def test_corrupt_index_exits_two(work, tmp_path, capsys):
    bad = tmp_path / "bad.pkl"
    with open(bad, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    rc, _, err = run(capsys, "score", "--workdir", str(work),
                     "--index", str(bad), "--checkpoint", "model.json",
                     "--embeddings", "data/embeddings.txt", "a", "b")
    assert rc == 2 and "not a context index" in err
    bad.write_bytes(b"junk that is not a pickle")
    rc, _, err = run(capsys, "score", "--workdir", str(work),
                     "--index", str(bad), "--checkpoint", "model.json",
                     "--embeddings", "data/embeddings.txt", "a", "b")
    assert rc == 2


@pytest.mark.parametrize("flag, value", [
    ("--pairs-per-epoch", "-3"), ("--clip-norm", "nan"), ("--learning-rate", "nan")])
def test_bad_training_numbers_exit_two(work, capsys, flag, value):
    rc, _, err = run(capsys, "train", "--workdir", str(work), "--index", "index.pkl",
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


def test_nan_embeddings_exit_three(work, capsys):
    nan_file = work / "nan_emb.txt"
    nan_file.write_text("w0 " + " ".join(["nan"] * 16) + "\n")
    rc, _, err = run(capsys, "train", "--workdir", str(work),
                     "--index", "index.pkl", "--embeddings", "nan_emb.txt",
                     "--checkpoint", "model_nan.json", "--d-ce", "8",
                     "--contexts-per-entity", "3", "--max-context-len", "13",
                     "--epochs", "1", "--seed", "3")
    assert rc == 3
    assert "numeric" in err
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.pkl",
                     "--checkpoint", "model.json", "--embeddings", "nan_emb.txt",
                     "ent0_0", "ent0_1", "--seed", "3")
    assert rc == 3
    assert "numeric" in err


def test_checkpoint_missing_parameter_exits_two(work, capsys):
    blob = json.loads((work / "model.json").read_text())
    del blob["params"]["enc.bw.Wh"]
    (work / "model_lacking.json").write_text(json.dumps(blob))
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.pkl",
                     "--checkpoint", "model_lacking.json",
                     "--embeddings", "data/embeddings.txt", "ent0_0", "ent0_1")
    assert rc == 2
    assert "Traceback" not in err and "enc.bw.Wh" in err


def test_embedding_width_mismatch_exits_two(work, capsys):
    (work / "narrow_emb.txt").write_text("w0 " + " ".join(["0.5"] * 8) + "\n")
    rc, _, err = run(capsys, "score", "--workdir", str(work), "--index", "index.pkl",
                     "--checkpoint", "model.json", "--embeddings", "narrow_emb.txt",
                     "ent0_0", "ent0_1")
    assert rc == 2
    assert "Traceback" not in err and "8-wide" in err


def test_gradcheck_passes_and_reports_worst_error(capsys):
    rc, out, _ = run(capsys, "gradcheck", "--seed", "0")
    assert rc == 0
    m = re.search(r"worst relative error (\S+)", out)
    assert m and float(m.group(1)) < 1e-4
    assert out.count("max rel error") == 8
