import base64
import copy
import dataclasses
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synmatch import autodiff as ad
from synmatch import corpus, embeddings, encoder, evaluation, training
from synmatch.errors import DataError, NumericError
from synmatch.rng import stream_rng
from test_matcher import single_context_score


# ---------------------------------------------------------------------------
# losses

def siamese(s, y, margin):
    return training.siamese_loss(s, y, margin).item()


def triplet(s_pos, s_neg, margin):
    return training.triplet_loss(s_pos, s_neg, margin).item()


def test_siamese_trivial_zeros_exact():
    v = np.array([1.0, 2.0, 3.0])
    assert siamese(single_context_score(v, v), 1, margin=0.75) == 0.0
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])  # cosine 0 <= margin
    assert siamese(single_context_score(u, w), 0, margin=0.75) == 0.0
    assert siamese(0.74, 0, margin=0.75) == 0.0


def test_siamese_positive_at_zero_similarity():
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert siamese(single_context_score(u, w), 1, margin=0.75) == 0.25


def test_triplet_examples():
    assert triplet(1.0, -1.0, 0.75) == 0.0
    assert triplet(0.3, 0.3, 0.75) == 0.75
    assert triplet(0.2, 0.5, 0.75) == pytest.approx(1.05, abs=1e-12)
    h = np.array([1.0, 0.0])
    assert triplet(single_context_score(h, h), single_context_score(h, -h), 0.75) == 0.0
    assert triplet(single_context_score(h, h), single_context_score(h, h), 0.75) == 0.75


def test_losses_nonnegative_everywhere():
    rng = stream_rng(0, "train")
    for _ in range(200):
        s, s2 = rng.uniform(-1, 1, size=2)
        y = int(rng.integers(2))
        m = float(rng.uniform(0.05, 1.0))
        assert siamese(s, y, m) >= 0.0
        assert triplet(s, s2, m) >= 0.0


def test_losses_are_the_mean_of_their_terms():
    s = np.array([[0.9], [0.2], [-0.4], [0.8]])
    y = np.array([[1.0], [1.0], [0.0], [0.0]])
    per_pair = [siamese(v, label, 0.5) for v, label in zip(s[:, 0], y[:, 0])]
    assert siamese(s, y, 0.5) == pytest.approx(np.mean(per_pair), abs=1e-15)
    assert per_pair == pytest.approx([0.0025, 0.16, 0.0, 0.09], abs=1e-15)
    s_neg = np.array([[0.1], [0.6], [0.95], [-0.2]])
    per_triplet = [triplet(a, b, 0.5) for a, b in zip(s[:, 0], s_neg[:, 0])]
    assert triplet(s, s_neg, 0.5) == pytest.approx(np.mean(per_triplet), abs=1e-15)
    assert per_triplet == pytest.approx([0.0, 0.9, 1.85, 0.0], abs=1e-15)


def test_loss_gradients_match_central_differences():
    # both labels on both sides of the margin, and hinges on and off; no
    # score sits within the step of a kink
    s = np.array([[0.9], [0.2], [-0.4], [0.8], [0.3], [0.62]])
    y = np.array([[1.0], [1.0], [0.0], [0.0], [0.0], [1.0]])
    s_neg = np.array([[0.1], [0.6], [0.95], [-0.2], [0.5], [-0.9]])
    margin = 0.5
    report = ad.finite_diff_check(
        lambda v: training.siamese_loss(v["s"], y, margin), {"s": s}, eps=1e-6)
    assert report.max_rel_error < 1e-8, str(report)
    report = ad.finite_diff_check(
        lambda v: training.triplet_loss(v["pos"], v["neg"], margin),
        {"pos": s, "neg": s_neg}, eps=1e-6)
    assert report.max_rel_error < 1e-8, str(report)
    # the closed forms, divided by the number of scores
    _, g = ad.grad(lambda v: training.siamese_loss(v["s"], y, margin), {"s": s})
    want = (-(1 - s) * y / 2 + 2 * np.maximum(s - margin, 0) * (1 - y)) / len(s)
    assert np.max(np.abs(g["s"] - want)) < 1e-15
    _, g = ad.grad(lambda v: training.triplet_loss(v["pos"], v["neg"], margin),
                   {"pos": s, "neg": s_neg})
    active = (s_neg - s + margin > 0) / len(s)
    assert np.array_equal(g["neg"], active) and np.array_equal(g["pos"], -active)


# ---------------------------------------------------------------------------
# optimizer

def test_adam_matches_hand_stepped_oracle():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p0 = np.array([[1.0, -2.0], [3.0, 0.5]])
    opt = training.Adam(lr)
    params = {"p": p0.copy()}
    # oracle: textbook bias-corrected update, tracked independently
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    expect = p0.copy()
    for t in range(1, 4):
        g = params["p"].copy()  # gradient of 0.5*||p||^2
        opt.step(params, {"p": g})
        g_o = expect.copy()
        m = b1 * m + (1 - b1) * g_o
        v = b2 * v + (1 - b2) * g_o * g_o
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        expect = expect - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.max(np.abs(params["p"] - expect)) < 1e-12, f"step {t}"


def test_adam_descends_a_quadratic():
    opt = training.Adam(0.1)
    params = {"p": np.array([[3.0, -4.0, 5.0]])}
    start = float((params["p"] ** 2).sum())
    for _ in range(80):
        opt.step(params, {"p": params["p"].copy()})
    assert float((params["p"] ** 2).sum()) < 0.5 * start


def test_clip_gradients():
    grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
    norm = training.clip_gradients(grads, 5.0)
    assert norm == 5.0
    assert grads["a"][0, 0] == 3.0  # exactly at the cap: untouched
    grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
    training.clip_gradients(grads, 1.0)
    total = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
    assert total == pytest.approx(1.0, abs=1e-12)
    grads = {"a": np.array([[0.3]])}
    training.clip_gradients(grads, 0.0)  # disabled
    assert grads["a"][0, 0] == 0.3


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("max_norm", [5.0, 0.0])
def test_clip_gradients_rejects_non_finite_norm(bad, max_norm):
    grads = {"w": np.array([bad, 1.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        with pytest.raises(NumericError, match="gradient norm"):
            training.clip_gradients(grads, max_norm)
    assert grads["w"][1] == 1.0             # nothing was scaled
    # finite gradients whose squared norm overflows are refused too
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericError):
        training.clip_gradients({"w": np.array([1e200, 1.0])}, max_norm)


# ---------------------------------------------------------------------------
# config text format

def test_config_text_round_trip():
    cfg = training.TrainConfig(objective="triplet", d_ce=32, epochs=7,
                               leaky=False, learning_rate=0.01)
    again = training.parse_config_text(cfg.to_text())
    assert again == cfg


def test_config_parse_overrides_and_comments():
    base = training.TrainConfig()
    text = "# comment\n\nd_ce=64\nleaky=false\nmargin=0.5\n"
    cfg = training.parse_config_text(text, base)
    assert cfg.d_ce == 64 and cfg.leaky is False and cfg.margin == 0.5
    assert cfg.objective == base.objective


def test_config_parse_errors():
    with pytest.raises(DataError) as err:
        training.parse_config_text("nonsense=1\n")
    assert "unknown key" in str(err.value)
    with pytest.raises(DataError) as err:
        training.parse_config_text("d_ce\n")
    assert "line 1" in str(err.value)
    with pytest.raises(DataError):
        training.parse_config_text("leaky=maybe\n")
    with pytest.raises(DataError):
        training.parse_config_text("epochs=three\n")


# pieces the config texts below are built from
CONFIG_KEYS = [f.name for f in dataclasses.fields(training.TrainConfig)] + [
    "optimizer", "Leaky", "d ce", "", "#d_ce"]
CONFIG_VALUES = ["", "0", "1", "-1", "2", "7", "64", " 8 ", "+3", "1_000", "0x10", "9" * 5000,
                 "\uff18", "0.5", "-0.0", "1e-3", "1e400", "-1e400", "nan", "inf", "true",
                 "FALSE", "yes", "off", "maybe", "siamese", "triplet", "anchored", "bilstm",
                 "gru", "adam", "a=b", "\u00e9"]
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(["=", " = ", "=="]),
              st.sampled_from(CONFIG_VALUES)).map("".join),
    st.sampled_from(["", "  ", "# comment", "#", "d_ce", "=", "d_ce: 8"]),
    st.text(max_size=12))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(CONFIG_LINES, max_size=6),
       newline=st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
def test_config_text_validates_and_round_trips_or_raises_data_error(lines, newline):
    try:
        config = training.parse_config_text(newline.join(lines)).validate()
    except DataError:
        return
    assert training.parse_config_text(config.to_text()) == config


def test_config_validation():
    bad = [dict(objective="cosface"), dict(encoder="gru"),
           dict(d_ce=7), dict(d_ce=0), dict(margin=0.0), dict(learning_rate=-1.0),
           dict(batch_size=0), dict(contexts_per_entity=0), dict(max_context_len=0),
           dict(epochs=-1), dict(neg_ratio=-0.5)]
    for kw in bad:
        with pytest.raises(DataError):
            training.TrainConfig(**kw).validate()
    training.TrainConfig(learning_rate=0.0).validate()  # 0 is a usable no-op rate
    training.TrainConfig(margin=1).validate()  # an int is a float value


@pytest.mark.parametrize("field, value", [
    ("d_ce", "x"), ("d_ce", 8.0), ("epochs", True), ("leaky", "no"), ("leaky", 1),
    ("leaky", None), ("objective", 5), ("margin", "0.5"),
    ("learning_rate", False), ("seed", [0])])
def test_config_validation_checks_each_value_type(field, value):
    with pytest.raises(DataError) as err:
        training.TrainConfig(**{field: value}).validate()
    assert str(err.value).startswith(f"{field} must be ")


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("margin", float("nan")), ("margin", float("inf")),
    ("clip_norm", float("nan")), ("clip_norm", float("-inf")),
    ("neg_ratio", float("nan")), ("neg_ratio", float("inf")),
    ("pairs_per_epoch", -3)])
def test_config_validation_rejects_nonfinite_and_negative_counts(field, value):
    with pytest.raises(DataError) as err:
        training.TrainConfig(**{field: value}).validate()
    assert field in str(err.value)


# ---------------------------------------------------------------------------
# toy dataset helpers

CLUSTER_TOKENS = {
    "X": "xa xb xc xd xe xf".split(),
    "Y": "ya yb yc yd ye yf".split(),
}


def write_toy(root, groups):
    """groups: list of (synset entity names, cluster key). 6 contexts each."""
    lines = []
    synset_rows = []
    for members, cluster in groups:
        toks = CLUSTER_TOKENS[cluster]
        synset_rows.append("\t".join(members))
        for ent in members:
            for i in range(6):
                lines.append(f"{toks[i]} {toks[(i + 2) % 6]} {ent} "
                             f"{toks[(i + 3) % 6]} {toks[(i + 5) % 6]}")
    (root / "corpus.txt").write_text("\n".join(lines) + "\n")
    (root / "synsets.tsv").write_text("\n".join(synset_rows) + "\n")
    return corpus.ingest(str(root / "corpus.txt"), str(root / "synsets.tsv"))


def toy_setup(tmp_path, seed=0, **overrides):
    groups = [(("e1", "e2"), "X"), (("e3", "e4"), "Y"),
              (("e5", "e6"), "X"), (("e7", "e8"), "Y")]
    data = write_toy(tmp_path, groups)
    assert len(data.store) == 4
    data.store.split.update({0: "train", 1: "train", 2: "valid", 3: "valid"})
    rng = stream_rng(seed, "init", 99)
    matrix = rng.normal(scale=0.5, size=(len(data.vocab), 6))
    matrix[corpus.PAD] = 0.0
    # entity tokens carry no signal of their own; only surrounding context
    # tokens distinguish the clusters, so held-out entities transfer cleanly
    for eid in data.store.entities():
        matrix[eid] = 0.0
    table = embeddings.EmbeddingTable(matrix=matrix, vocab=data.vocab)
    kw = dict(objective="siamese", d_ce=8, contexts_per_entity=3,
              max_context_len=8, batch_size=8, learning_rate=0.05,
              epochs=30, seed=seed, pairs_per_epoch=24)
    kw.update(overrides)
    config = training.TrainConfig(**kw).validate()
    return data, table, config


def test_train_separates_toy_clusters(tmp_path):
    data, table, config = toy_setup(tmp_path)
    params, history = training.train(config, data, table)
    assert len(history) == config.epochs
    first, last = history[0]["loss"], history[-1]["loss"]
    assert last < first
    assert last < 0.1 * first
    best_auc = max(h["valid_auc"] for h in history)
    assert best_auc == 1.0


def test_train_deterministic(tmp_path):
    data, table, config = toy_setup(tmp_path, epochs=4)
    p1, h1 = training.train(config, data, table)
    p2, h2 = training.train(config, data, table)
    assert h1 == h2
    assert sorted(p1) == sorted(p2)
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_contexts_are_resampled_every_epoch(tmp_path, monkeypatch):
    data, table, config = toy_setup(tmp_path, epochs=6, pairs_per_epoch=1)
    build = training.batch_loss_builder
    batches = []  # per batch (here one per epoch): entity -> its windows

    def recording(items, contexts, *args):
        batches.append({eid: list(contexts[eid])
                        for item in items for eid in training._item_entities(item)})
        return build(items, contexts, *args)

    monkeypatch.setattr(training, "batch_loss_builder", recording)
    training.train(config, data, table)
    first = {}
    for windows in batches:
        for eid, wins in windows.items():
            assert len(wins) == config.contexts_per_entity
            first.setdefault(eid, wins)
    assert not all(first[eid] == wins for windows in batches for eid, wins in windows.items())


def test_train_zero_learning_rate_keeps_parameters(tmp_path):
    data, table, config = toy_setup(tmp_path, epochs=1, learning_rate=0.0)
    params, _ = training.train(config, data, table)
    fresh = training.init_model_params(config, table, stream_rng(config.seed, "init"))
    assert sorted(params) == sorted(fresh)
    for k in params:
        assert np.array_equal(params[k], fresh[k])


def test_train_without_split_uses_everything(tmp_path):
    data, table, config = toy_setup(tmp_path, epochs=1)
    data.store.split.clear()
    params, history = training.train(config, data, table)
    assert history[0]["valid_auc"] is None
    assert "match.w_bm" in params


def test_train_aborts_with_diagnostics_on_nonfinite_loss(tmp_path):
    data, table, config = toy_setup(tmp_path, epochs=1)
    table.matrix[5:] = np.nan
    with pytest.raises(NumericError) as err:
        training.train(config, data, table)
    msg = str(err.value)
    assert "epoch 0" in msg and "batch" in msg and "match.w_bm" in msg


def test_train_aborts_on_non_finite_gradient_norm(tmp_path, monkeypatch):
    data, table, config = toy_setup(tmp_path, epochs=2)
    real_grad = training.ad.grad
    calls = []

    def grad(builder, params):
        value, grads = real_grad(builder, params)
        calls.append(value)
        if len(calls) == 5:                 # 3 batches an epoch: epoch 1, batch 1
            grads["match.w_bm"][0, 0] = np.inf
        return value, grads

    monkeypatch.setattr(training.ad, "grad", grad)
    steps = []
    monkeypatch.setattr(training.Adam, "step", lambda self, p, g: steps.append(g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            training.train(config, data, table)
    msg = str(err.value)
    assert "gradient norm is inf" in msg and "epoch 1, batch 1" in msg and "match.w_bm" in msg
    assert len(steps) == 4                  # no step on the bad gradient


def test_auto_items_per_epoch(tmp_path):
    data, table, config = toy_setup(tmp_path)
    store = data.store
    assert training._auto_items_per_epoch(store, config) == 4  # 2 pairs * (1+1)
    triplet = training.TrainConfig(objective="triplet").validate()
    assert training._auto_items_per_epoch(store, triplet) == 2


# ---------------------------------------------------------------------------
# full-model gradient fidelity (small grid; the acceptance suite runs all)

def test_full_model_gradcheck(tmp_path):
    groups = [(("e1", "e2"), "X"), (("e3", "e4"), "Y")]
    data = write_toy(tmp_path, groups)
    data.store.split.update({0: "train", 1: "train"})
    rng = stream_rng(2, "init")
    matrix = rng.normal(scale=0.5, size=(len(data.vocab), 3))
    matrix[corpus.PAD] = 0.0
    table = embeddings.EmbeddingTable(matrix=matrix, vocab=data.vocab)
    for objective in training.OBJECTIVES:
        config = training.TrainConfig(
            objective=objective, d_ce=4, contexts_per_entity=2, max_context_len=5,
            leaky=True, seed=3).validate()
        params = training.init_model_params(config, table, stream_rng(3, "init"))
        ep_rng = stream_rng(3, "train")
        if objective == "triplet":
            items = corpus.sample_triplets(data.store, 2, ep_rng)
        else:
            items = corpus.sample_pairs(data.store, 2, 1.0, ep_rng)
        ctx = {eid: corpus.retrieve_contexts(data, eid, 2, 5, ep_rng)
               for item in items for eid in training._item_entities(item)}
        builder = training.batch_loss_builder(items, ctx, config, table.matrix)
        report = ad.finite_diff_check(builder, params, eps=1e-5)
        assert report.max_rel_error < 1e-4, f"{objective}: {report}"


@pytest.mark.parametrize("objective", training.OBJECTIVES)
def test_batch_tape_size_does_not_grow_with_the_batch(tmp_path, objective):
    data, table, config = toy_setup(tmp_path, objective=objective)
    params = training.init_model_params(config, table, stream_rng(3, "init"))
    counts = []
    for n in (2, 16):
        rng = stream_rng(3, "train", n)
        if objective == "triplet":
            items = corpus.sample_triplets(data.store, n, rng)
        else:
            items = corpus.sample_pairs(data.store, n, 1.0, rng)
        ctx = {eid: corpus.retrieve_contexts(data, eid, 3, 8, rng)
               for item in items for eid in training._item_entities(item)}
        builder = training.batch_loss_builder(items, ctx, config, table.matrix)
        loss = builder({name: ad.Var(value) for name, value in params.items()})
        counts.append(len(ad._topo_order(loss)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("objective", training.OBJECTIVES)
def test_batch_tape_is_weights_encoder_matchers_and_loss(tmp_path, objective):
    """7 weight leaves, 1 encoder node, 1 matcher node per role pair (2 for
    triplets) and 1 loss node: 10 nodes for a siamese batch, 11 for a triplet
    batch."""
    data, table, config = toy_setup(tmp_path, objective=objective)
    params = training.init_model_params(config, table, stream_rng(3, "init"))
    rng = stream_rng(3, "train")
    if objective == "triplet":
        items = corpus.sample_triplets(data.store, 4, rng)
    else:
        items = corpus.sample_pairs(data.store, 4, 1.0, rng)
    ctx = {eid: corpus.retrieve_contexts(data, eid, 3, 8, rng)
           for item in items for eid in training._item_entities(item)}
    leaves = {name: ad.Var(value) for name, value in params.items()}
    loss = training.batch_loss_builder(items, ctx, config, table.matrix)(leaves)
    order = ad._topo_order(loss)
    assert len(order) == (11 if objective == "triplet" else 10)
    assert {id(n) for n in order if not n.parents} == {id(v) for v in leaves.values()}
    assert len(leaves) == 7
    matchers = loss.parents
    assert len(matchers) == (2 if objective == "triplet" else 1)
    (enc,) = {id(m.parents[0]): m.parents[0] for m in matchers}.values()
    assert all(m.parents[1] is enc and m.parents[2] is leaves["match.w_bm"] for m in matchers)
    assert enc.parents == tuple(leaves[name] for name in encoder.PARAM_NAMES)


# ---------------------------------------------------------------------------
# checkpoints

def make_small_model(seed=5):
    config = training.TrainConfig(d_ce=6).validate()

    class Table:
        dim = 4
        matrix = stream_rng(seed, "init", 1).normal(size=(11, 4))

    params = training.init_model_params(config, Table(), stream_rng(seed, "init"))
    return params, config


def test_checkpoint_round_trip_exact(tmp_path):
    params, config = make_small_model()
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(str(path), params, config, meta={"vocab_size": 11})
    loaded, cfg2, meta = training.load_checkpoint(str(path))
    assert cfg2 == config
    assert meta == {"vocab_size": 11}
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    params, config = make_small_model()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    training.save_checkpoint(str(p1), params, config)
    loaded, cfg, meta = training.load_checkpoint(str(p1))
    training.save_checkpoint(str(p2), loaded, cfg, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_corrupted_shape_names_field(tmp_path):
    params, config = make_small_model()
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(str(path), params, config)
    blob = json.loads(path.read_text())
    blob["params"]["match.w_bm"]["shape"] = [6, 7]
    path.write_text(json.dumps(blob))
    with pytest.raises(DataError) as err:
        training.load_checkpoint(str(path))
    assert "match.w_bm" in str(err.value)


def test_checkpoint_v1_is_unsupported(tmp_path):
    """Version 1 kept one LSTM matrix per gate; such a file is refused."""
    params, config = make_small_model()
    d_h = config.d_ce // 2
    v1 = {k: v for k, v in params.items() if not k.startswith("enc.")}
    for name in encoder.PARAM_NAMES:
        for k, gate in enumerate("ifog"):
            v1[f"{name}_{gate}"] = params[name][:, k * d_h:(k + 1) * d_h]
    path = tmp_path / "v1.ckpt"
    training.save_checkpoint(str(path), v1, config)
    blob = json.loads(path.read_text())
    blob["version"] = 1
    path.write_text(json.dumps(blob))
    with pytest.raises(DataError, match=r"checkpoint version 1 unsupported \(expected 2\)"):
        training.load_checkpoint(str(path))


def _drop(name):
    def edit(params, config):
        del params[name]
        return config
    return edit


def _put(name, shape):
    def edit(params, config):
        params[name] = np.zeros(shape)
        return config
    return edit


def _claim(**retired):
    """Save the config with `retired` keys set, as an earlier version wrote them."""
    def edit(params, config):
        return SimpleNamespace(to_dict=lambda: {**config.to_dict(), **retired})
    return edit


@pytest.mark.parametrize("edit, named", [
    pytest.param(_drop("enc.bw.Wh"), "enc.bw.Wh", id="missing"),
    pytest.param(_put("match.extra", (6, 6)), "match.extra", id="unexpected"),
    pytest.param(_put("embed.table", (11, 4)), "embed.table", id="table-not-fine-tuned"),
    pytest.param(_put("match.leak", (1, 6)), "match.leak", id="leak-not-trainable"),
    pytest.param(_claim(fine_tune_embeddings=True), "fine_tune_embeddings", id="table-missing"),
    pytest.param(_put("enc.fw.Wh", (4, 12)), "enc.fw.Wh", id="wh-shape"),
    pytest.param(_put("enc.bw.Wx", (5, 12)), "enc.bw.Wx", id="directions-disagree"),
    pytest.param(_put("enc.fw.b", (12,)), "enc.fw.b", id="bias-rank"),
    pytest.param(_put("match.w_bm", (6, 7)), "match.w_bm", id="w_bm-shape"),
    pytest.param(_put("match.leak", (6,)), "match.leak", id="leak-shape"),
])
def test_checkpoint_params_must_fit_config(tmp_path, edit, named):
    params, config = make_small_model()
    config = edit(params, config)
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(str(path), params, config)
    with pytest.raises(DataError) as err:
        training.load_checkpoint(str(path))
    assert named in str(err.value)


def test_checkpoint_fine_tuned_table_checks_width(tmp_path):
    """Embeddings are frozen: a checkpoint that fine-tuned them, as written
    when that was an option, is refused whatever its table's width."""
    params, config = make_small_model()
    path = tmp_path / "model.ckpt"
    fine_tuned = _claim(fine_tune_embeddings=True)(params, config)
    for width in (4, 3):
        params["embed.table"] = np.ones((11, width))
        training.save_checkpoint(str(path), params, fine_tuned)
        with pytest.raises(DataError, match="fine_tune_embeddings=True is no longer supported"):
            training.load_checkpoint(str(path))


def test_checkpoint_rejects_wrong_format_and_version(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(DataError):
        training.load_checkpoint(str(path))
    path.write_text(json.dumps({"format": training.CHECKPOINT_FORMAT, "version": 99}))
    with pytest.raises(DataError):
        training.load_checkpoint(str(path))
    path.write_text("{broken")
    with pytest.raises(DataError):
        training.load_checkpoint(str(path))


def test_loaded_model_scores_identically(tmp_path):
    data, table, config = toy_setup(tmp_path, epochs=2)
    params, _ = training.train(config, data, table)
    before = evaluation.score_pair(params, config, data, table.matrix, "e1", "e3", seed=4)
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(str(path), params, config)
    loaded, cfg, _ = training.load_checkpoint(str(path))
    after = evaluation.score_pair(loaded, cfg, data, table.matrix, "e1", "e3", seed=4)
    assert before == after


def test_checkpoint_naming_retired_keys_at_their_values_loads(tmp_path):
    """A checkpoint written while the optimizer, the trainable leak, fixed
    contexts and fine-tuned embeddings were options holds their keys; at the
    values now fixed it loads as if they were absent."""
    data, table, config = toy_setup(tmp_path, epochs=2)
    params, _ = training.train(config, data, table)
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(str(path), params, config)
    fresh = path.read_bytes()
    blob = json.loads(fresh)
    blob["config"].update(training.RETIRED_KEYS)
    path.write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n")
    loaded, cfg, _ = training.load_checkpoint(str(path))
    assert cfg == config
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert loaded[k].tobytes() == params[k].tobytes() and loaded[k].shape == params[k].shape
    before = evaluation.score_pair(params, config, data, table.matrix, "e1", "e3", seed=4)
    assert evaluation.score_pair(loaded, cfg, data, table.matrix, "e1", "e3", seed=4) == before
    training.save_checkpoint(str(path), loaded, cfg)
    assert path.read_bytes() == fresh


# values and keys the mutations below put into a checkpoint's JSON
JSON_VALUES = [None, True, False, 0, 1, -1, 2, 6, 7, 0.5, 6.0, -0.0, float("nan"), 10 ** 30,
               "", "x", "adam", "rmsprop", "abc", "AAAAAAAAAAA=", "\u00e9", [], [6], [6, 6],
               [6, -6], [True, 6], [6, 6.0], {}, {"shape": [], "data": "AAAAAAAAAAA="}]
JSON_KEYS = list(training.RETIRED_KEYS) + ["match.leak", "d_ce", "leaky", "shape", "data",
                                           "format", "version", "config", "bogus"]


def _slots(node):
    """(container, key) of every value inside a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_loads_as_stated_or_raises_data_error(tmp_path, data):
    values = st.sampled_from(JSON_VALUES).map(copy.deepcopy)
    params, config = make_small_model()
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(str(path), params, config)
    blob = json.loads(path.read_text())
    # up to three edits: drop, replace, add or shorten a value anywhere
    for _ in range(data.draw(st.integers(0, 3))):
        slots = list(_slots(blob))
        node, key = data.draw(st.sampled_from(slots))
        op = data.draw(st.sampled_from(["drop", "replace", "add", "shorten"]))
        if op == "drop":
            del node[key]
        elif op == "add":
            target = data.draw(st.sampled_from(
                [blob] + [n[k] for n, k in slots if isinstance(n[k], dict)]))
            target[data.draw(st.sampled_from(JSON_KEYS))] = data.draw(values)
        elif op == "shorten" and isinstance(node[key], (str, list)):
            node[key] = node[key][:data.draw(st.integers(0, len(node[key])))]
        else:
            node[key] = data.draw(values)
    text = json.dumps(blob, sort_keys=True)
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    path.write_text(text)
    try:
        loaded, cfg, _ = training.load_checkpoint(str(path))
    except DataError:
        return
    stated = json.loads(text)
    kept = {k: v for k, v in stated.get("config", {}).items() if k not in training.RETIRED_KEYS}
    assert cfg == training.TrainConfig(**kept)
    assert all(type(getattr(cfg, k)) is type(v) for k, v in kept.items())
    assert sorted(loaded) == sorted(stated["params"])
    for name, entry in stated["params"].items():
        want = np.frombuffer(base64.b64decode(entry["data"]), "<f8").reshape(entry["shape"])
        assert loaded[name].shape == want.shape and loaded[name].tobytes() == want.tobytes()
