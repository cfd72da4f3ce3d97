"""Synthetic corpus generator: structure, signal, determinism."""

from collections import Counter

import numpy as np
import pytest

from synmatch import corpus, embeddings, synthetic
from synmatch.errors import DataError


def gen(tmp_path, **kw):
    args = dict(clusters=6, entities_per_cluster=3, contexts_per_entity=10,
                vocab_size=200, noise=0.3, embed_dim=16, seed=3)
    args.update(kw)
    return synthetic.generate(str(tmp_path / "data"), **args), args


def test_file_shapes(tmp_path):
    paths, args = gen(tmp_path)
    lines = open(paths["corpus"]).read().splitlines()
    assert len(lines) == 6 * 3 * 10
    synsets = [ln.split("\t") for ln in open(paths["synsets"]).read().splitlines()]
    assert len(synsets) == 6
    assert all(len(row) == 3 for row in synsets)
    emb_lines = open(paths["embeddings"]).read().splitlines()
    # non-entity vocabulary plus one vector per entity
    assert emb_lines[0] == f"{200 + 18} 16"
    assert len(emb_lines) == 1 + 200 + 18


def test_each_entity_occurs_once_per_line(tmp_path):
    paths, _ = gen(tmp_path)
    lines = [ln.split() for ln in open(paths["corpus"]).read().splitlines()]
    counts = {}
    for toks in lines:
        ents = [t for t in toks if t.startswith("ent")]
        assert len(ents) == 1
        counts[ents[0]] = counts.get(ents[0], 0) + 1
    assert set(counts.values()) == {10}
    assert len(counts) == 18


def test_noise_zero_uses_only_cluster_signature(tmp_path):
    paths, _ = gen(tmp_path, noise=0.0)
    for toks in (ln.split() for ln in open(paths["corpus"]).read().splitlines()):
        ent = next(t for t in toks if t.startswith("ent"))
        cluster = ent[len("ent"):].split("_")[0]
        for t in toks:
            if t is not ent:
                assert t.startswith(f"c{cluster}t"), (ent, t)


def test_noise_one_uses_only_background(tmp_path):
    paths, _ = gen(tmp_path, noise=1.0)
    for toks in (ln.split() for ln in open(paths["corpus"]).read().splitlines()):
        assert sum(t.startswith("w") for t in toks) == len(toks) - 1


@pytest.mark.parametrize("T", [0, 1])
def test_short_contexts(tmp_path, T):
    paths, _ = gen(tmp_path, tokens_per_context=T)
    lines = [ln.split() for ln in open(paths["corpus"]).read().splitlines()]
    assert len(lines) == 6 * 3 * 10
    assert all(len(toks) == T + 1 and sum(t.startswith("ent") for t in toks) == 1
               for toks in lines)
    per_entity = Counter(t for toks in lines for t in toks if t.startswith("ent"))
    assert len(per_entity) == 18 and set(per_entity.values()) == {10}


def test_every_entity_slot_occurs(tmp_path):
    paths, _ = gen(tmp_path, tokens_per_context=12)
    slots = [next(i for i, t in enumerate(ln.split()) if t.startswith("ent"))
             for ln in open(paths["corpus"]).read().splitlines()]
    assert set(slots) == set(range(13))


def test_background_share_follows_noise(tmp_path):
    paths, _ = gen(tmp_path, contexts_per_entity=20, tokens_per_context=12)
    toks = [t for ln in open(paths["corpus"]).read().splitlines() for t in ln.split()
            if not t.startswith("ent")]
    assert len(toks) == 6 * 3 * 20 * 12
    assert abs(sum(t.startswith("w") for t in toks) / len(toks) - 0.3) <= 0.03


def test_embeddings_unit_norm_and_cluster_signal(tmp_path):
    paths, _ = gen(tmp_path)
    vecs = {}
    with open(paths["embeddings"]) as fh:
        next(fh)
        for ln in fh:
            parts = ln.split()
            vecs[parts[0]] = np.array([float(x) for x in parts[1:]])
    for v in vecs.values():
        assert abs(np.linalg.norm(v) - 1.0) < 1e-4
    same = float(vecs["ent0_0"] @ vecs["ent0_1"])
    cross = np.mean([float(vecs["ent0_0"] @ vecs[f"ent{c}_0"]) for c in range(1, 6)])
    assert same > cross + 0.3
    sig = float(vecs["ent0_0"] @ vecs["c0t0"])
    assert sig > cross + 0.3


def test_generate_is_deterministic(tmp_path):
    p1, _ = gen(tmp_path / "a")
    p2, _ = gen(tmp_path / "b")
    for key in ("corpus", "synsets", "embeddings"):
        assert open(p1[key]).read() == open(p2[key]).read()


def test_seed_changes_output(tmp_path):
    p1, _ = gen(tmp_path / "a", seed=3)
    p2, _ = gen(tmp_path / "b", seed=4)
    assert open(p1["corpus"]).read() != open(p2["corpus"]).read()


def test_rejects_bad_parameters(tmp_path):
    with pytest.raises(DataError):
        gen(tmp_path, noise=1.5)
    with pytest.raises(DataError):
        gen(tmp_path, entities_per_cluster=1)
    with pytest.raises(DataError):
        gen(tmp_path, vocab_size=40)  # 6 clusters of signature tokens need more


@pytest.mark.parametrize("field, value", [
    ("embed_dim", -1), ("embed_dim", 0), ("contexts_per_entity", 0),
    ("tokens_per_context", -1), ("clusters", 0), ("entities_per_cluster", 1),
    ("contexts_per_entity", 2.5), ("embed_dim", True), ("clusters", 2.0),
    ("vocab_size", 2000.5), ("vocab_size", "2000"), ("noise", "0.3"), ("noise", None),
    ("noise", True), ("noise", float("nan"))])
def test_rejects_sizes_that_write_unusable_files(tmp_path, field, value):
    with pytest.raises(DataError, match=field):
        gen(tmp_path, **{field: value})
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("field, value", [
    ("contexts_per_entity", 2**70), ("tokens_per_context", 2**70), ("embed_dim", 2**70),
    ("contexts_per_entity", np.int64(2**61)), ("vocab_size", 2**70)])
def test_rejects_sizes_numpy_cannot_allocate(tmp_path, field, value):
    with pytest.raises(DataError, match=f"{field}={value}"):
        gen(tmp_path, **{"clusters": 2, "vocab_size": 40, field: value})
    assert not (tmp_path / "data").exists()


def test_ingest_keeps_every_generated_entity(tmp_path):
    paths, _ = gen(tmp_path)
    data = corpus.ingest(paths["corpus"], paths["synsets"])
    assert len(data.store.entities()) == 18
    assert len(data.store) == 6
    table = embeddings.load_embeddings(paths["embeddings"], data.vocab)
    assert table.matrix.shape == (len(data.vocab), 16)
    assert np.all(table.matrix[corpus.PAD] == 0.0)
