import base64
import copy
import dataclasses
import json
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from synmatch import autodiff as ad
from synmatch import corpus, embeddings, encoder, evaluation, matcher, training
from synmatch.errors import DataError, NumericError
from synmatch.rng import stream_rng
from test_matcher import single_context_score


# ---------------------------------------------------------------------------
# losses

def scores(*columns):
    """Columns of scores, each a score or a column of them, side by side as
    the (n, k) float64 Var a loss takes."""
    return ad.Var(np.hstack([np.array(c, dtype=np.float64).reshape(-1, 1) for c in columns]))


def siamese(s, y, margin):
    return training.siamese_loss(scores(s), y, margin).item()


def triplet(s_pos, s_neg, margin):
    return training.triplet_loss(scores(s_neg, s_pos), margin).item()


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
    groups = np.hstack([s_neg, s])              # each row (s_neg, s_pos)
    report = ad.finite_diff_check(
        lambda v: training.triplet_loss(v["s"], margin), {"s": groups}, eps=1e-6)
    assert report.max_rel_error < 1e-8, str(report)
    # the closed forms, divided by the number of scores
    _, g = ad.grad(lambda v: training.siamese_loss(v["s"], y, margin), {"s": s})
    want = (-(1 - s) * y / 2 + 2 * np.maximum(s - margin, 0) * (1 - y)) / len(s)
    assert np.max(np.abs(g["s"] - want)) < 1e-15
    _, g = ad.grad(lambda v: training.triplet_loss(v["s"], margin), {"s": groups})
    active = (s_neg - s + margin > 0) / len(s)
    assert np.array_equal(g["s"][:, :1], active) and np.array_equal(g["s"][:, 1:], -active)


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
    assert training.CLIP_NORM == 5.0
    grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
    norm = training.clip_gradients(grads)
    assert norm == 5.0
    assert grads["a"][0, 0] == 3.0  # exactly at the cap: untouched
    grads = {"a": np.array([[30.0]]), "b": np.array([[40.0]])}
    assert training.clip_gradients(grads) == 50.0
    total = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
    assert total == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("finite", [5.0, 0.0])   # the other entry: at the cap, or zero
def test_clip_gradients_rejects_non_finite_norm(bad, finite):
    grads = {"w": np.array([bad, finite])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        with pytest.raises(NumericError, match="gradient norm"):
            training.clip_gradients(grads)
    assert grads["w"][1] == finite          # nothing was scaled
    # finite gradients whose squared norm overflows are refused too
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericError):
        training.clip_gradients({"w": np.array([1e200, finite])})


# ---------------------------------------------------------------------------
# config text format

def config_text(config):
    """The key=value lines of every field of config, booleans as true/false."""
    return "".join(f"{name}={str(value).lower() if isinstance(value, bool) else value}\n"
                   for name, value in config.to_dict().items())


def test_config_text_round_trip():
    cfg = training.TrainConfig(objective="triplet", d_ce=32, epochs=7,
                               leaky=False, learning_rate=0.01)
    again = training.parse_config_text(config_text(cfg))
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
    assert training.parse_config_text(config_text(config)) == config


def test_config_validation():
    bad = [dict(objective="cosface"), dict(encoder="gru"),
           dict(d_ce=7), dict(d_ce=0), dict(margin=0.0), dict(learning_rate=-1.0),
           dict(batch_size=0), dict(contexts_per_entity=0), dict(max_context_len=0),
           dict(epochs=-1)]
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
    fresh = training.init_model_params(config, table.dim, stream_rng(config.seed, "init"))
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
    assert training._auto_items_per_epoch(store, config) == 4  # 2 pairs, 1 negative each
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
        params = training.init_model_params(config, table.dim, stream_rng(3, "init"))
        ep_rng = stream_rng(3, "train")
        if objective == "triplet":
            items = corpus.sample_triplets(data.store, 2, ep_rng)
        else:
            items = corpus.sample_pairs(data.store, 2, ep_rng)
        ctx = {eid: corpus.retrieve_contexts(data, eid, 2, 5, ep_rng)
               for item in items for eid in training._item_entities(item)}
        builder = training.batch_loss_builder(items, ctx, config, table.matrix)
        report = ad.finite_diff_check(builder, params, eps=1e-5)
        assert report.max_rel_error < 1e-4, f"{objective}: {report}"


@pytest.mark.parametrize("objective", training.OBJECTIVES)
def test_batch_tape_size_does_not_grow_with_the_batch(tmp_path, objective):
    data, table, config = toy_setup(tmp_path, objective=objective)
    params = training.init_model_params(config, table.dim, stream_rng(3, "init"))
    counts = []
    for n in (2, 16):
        rng = stream_rng(3, "train", n)
        if objective == "triplet":
            items = corpus.sample_triplets(data.store, n, rng)
        else:
            items = corpus.sample_pairs(data.store, n, rng)
        ctx = {eid: corpus.retrieve_contexts(data, eid, 3, 8, rng)
               for item in items for eid in training._item_entities(item)}
        builder = training.batch_loss_builder(items, ctx, config, table.matrix)
        loss = builder({name: ad.Var(value) for name, value in params.items()})
        counts.append(len(ad._topo_order(loss)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("objective", training.OBJECTIVES)
def test_batch_tape_is_weights_encoder_matchers_and_loss(tmp_path, objective):
    """7 weight leaves, 1 encoder node, 1 matcher node and 1 loss node: 10
    nodes for either objective.  The matcher scores every item as a group,
    of one candidate for a pair and of two for a triplet."""
    data, table, config = toy_setup(tmp_path, objective=objective)
    params = training.init_model_params(config, table.dim, stream_rng(3, "init"))
    rng = stream_rng(3, "train")
    if objective == "triplet":
        items = corpus.sample_triplets(data.store, 4, rng)
    else:
        items = corpus.sample_pairs(data.store, 4, rng)
    ctx = {eid: corpus.retrieve_contexts(data, eid, 3, 8, rng)
           for item in items for eid in training._item_entities(item)}
    leaves = {name: ad.Var(value) for name, value in params.items()}
    loss = training.batch_loss_builder(items, ctx, config, table.matrix)(leaves)
    order = ad._topo_order(loss)
    assert len(order) == 10
    assert {id(n) for n in order if not n.parents} == {id(v) for v in leaves.values()}
    assert len(leaves) == 7
    (match,) = loss.parents
    assert match.shape == (4, 2 if objective == "triplet" else 1)
    enc, w_bm = match.parents
    assert w_bm is leaves["match.w_bm"]
    assert enc.parents == tuple(leaves[name] for name in encoder.PARAM_NAMES)


# ---------------------------------------------------------------------------
# the model's dtype

@pytest.mark.parametrize("objective", training.OBJECTIVES)
def test_training_keeps_the_model_float32(tmp_path, monkeypatch, objective):
    """One epoch with the gradient clip firing on every batch keeps every
    model array float32: the weights, the gradients before and after the
    clip, Adam's m and v, the encoder's saved gate values A and cells C, the
    pair scores, the loss node and the validation scores."""
    data, table, config = toy_setup(tmp_path, objective=objective, epochs=1)
    monkeypatch.setattr(training, "CLIP_NORM", 1e-6)      # every batch is clipped
    seen, clipped = {}, []

    def note(what, *arrays):
        seen.setdefault(what, set()).update(np.asarray(a).dtype for a in arrays)

    def after(module, name, look):
        """Call look(result, *args) after each call of module.name."""
        real = getattr(module, name)

        def wrapped(*args, **kw):
            out = real(*args, **kw)
            look(out, *args)
            return out
        monkeypatch.setattr(module, name, wrapped)

    def saved(out, *args):
        if out[1] is not None:                  # training: (tok, A, C, packing)
            note("A and C", *out[1][1:3])

    def backward(grads, loss, wrt):
        note("loss node", loss.value)
        note("gradients", *grads)

    def clip(norm, grads):
        clipped.append(norm > training.CLIP_NORM)
        note("clipped gradients", *grads.values())

    def step(out, opt, params, grads):
        note("Adam m and v", *opt.m.values(), *opt.v.values())
        note("weights", *params.values())

    after(encoder, "_forward", saved)
    after(matcher, "pair_score_vars", lambda out, *args: note("scores", out.value))
    after(matcher, "match_score", lambda out, *args: note("validation scores", out.score))
    after(ad, "backward", backward)
    after(training, "clip_gradients", clip)
    after(training.Adam, "step", step)
    params, history = training.train(config, data, table)
    note("weights", *params.values())
    assert clipped and all(clipped) and history[0]["valid_auc"] is not None
    assert seen == dict.fromkeys(
        ["A and C", "scores", "loss node", "gradients", "clipped gradients", "Adam m and v",
         "weights", "validation scores"], {np.dtype(np.float32)})


def test_training_casts_the_embedding_table_once(tmp_path, monkeypatch):
    """Every encoder call of a run, its training batches and its validation
    scoring alike, gets one table already in the weights' float32: the run
    casts it once, and no call copies it.  The caller's table is untouched."""
    data, table, config = toy_setup(tmp_path, epochs=2)
    before = table.matrix.copy()
    seen, encode = [], encoder._encode

    def recording(windows, weights, E, variant, save=True):
        seen.append((E, save))
        return encode(windows, weights, E, variant, save)

    monkeypatch.setattr(encoder, "_encode", recording)
    training.train(config, data, table)
    assert {save for _, save in seen} == {True, False}
    E = seen[0][0]
    assert E.dtype == np.float32 and all(e is E for e, _ in seen)
    assert table.matrix.dtype == np.float64 and np.array_equal(table.matrix, before)


def test_float32_gradients_match_float64_to_float32_rounding(tmp_path):
    """The float32 model's loss and gradients of one fixed batch equal those
    the same code takes from the same weights in float64, to float32
    rounding: the loss within 16 float32 epsilons (2**-19) relative, and
    each gradient within 64 epsilons (2**-17) of its largest entry, for both
    objectives, both encoders and the leak on and off.  (Measured: at most
    3.4 and 5.5 epsilons.)"""
    eps = float(np.finfo(np.float32).eps)
    for objective in training.OBJECTIVES:
        for variant in training.ENCODERS:
            for leaky in (False, True):
                case = tmp_path / f"{objective}-{variant}-{leaky}"
                case.mkdir()
                data, table, config = toy_setup(case, objective=objective, encoder=variant,
                                                leaky=leaky)
                rng = stream_rng(3, "train")
                sample = corpus.sample_triplets if objective == "triplet" else corpus.sample_pairs
                items = sample(data.store, 8, rng)
                ctx = {eid: corpus.retrieve_contexts(data, eid, 3, 8, rng)
                       for item in items for eid in training._item_entities(item)}
                builder = training.batch_loss_builder(items, ctx, config, table.matrix)
                params = training.init_model_params(config, table.dim, stream_rng(3, "init"))
                loss32, g32 = ad.grad(builder, params)
                loss64, g64 = ad.grad(builder, {k: w.astype(np.float64)
                                                for k, w in params.items()})
                assert abs(loss32 - loss64) <= 16 * eps * abs(loss64)
                for name, g in g64.items():
                    assert g32[name].dtype == np.float32 and g.dtype == np.float64
                    assert np.abs(g32[name] - g).max() <= 64 * eps * np.abs(g).max(), name


# ---------------------------------------------------------------------------
# checkpoints

def make_small_model(seed=5):
    config = training.TrainConfig(d_ce=6).validate()
    params = training.init_model_params(config, 4, stream_rng(seed, "init"))
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
    with pytest.raises(DataError, match=r"checkpoint version 1 unsupported \(expected 3\)"):
        training.load_checkpoint(str(path))


def as_version_2(blob):
    """The checkpoint blob as version 2 wrote it: float64 data blocks."""
    blob["version"] = 2
    for entry in blob["params"].values():
        values = np.frombuffer(base64.b64decode(entry["data"]), "<f4").astype("<f8")
        entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    return blob


def test_checkpoint_v2_is_unsupported(tmp_path):
    """Version 2 held float64 blocks; such a file is refused, as version 1 is."""
    params, config = make_small_model()
    path = tmp_path / "v2.ckpt"
    training.save_checkpoint(str(path), params, config)
    path.write_text(json.dumps(as_version_2(json.loads(path.read_text()))))
    with pytest.raises(DataError, match=r"checkpoint version 2 unsupported \(expected 3\)"):
        training.load_checkpoint(str(path))


def _drop(name):
    def edit(params, config):
        del params[name]
        return config
    return edit


def _put(name, shape):
    def edit(params, config):
        params[name] = np.zeros(shape, np.float32)
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
        params["embed.table"] = np.ones((11, width), np.float32)
        training.save_checkpoint(str(path), params, fine_tuned)
        with pytest.raises(DataError, match=r"unknown keys: \['fine_tune_embeddings'\]"):
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


# values and keys the mutations below put into a checkpoint's JSON
JSON_VALUES = [None, True, False, 0, 1, -1, 2, 5, 6, 7, 0.5, 1.0, 5.0, 6.0, -0.0, float("nan"),
               10 ** 30,
               "", "x", "adam", "rmsprop", "abc", "AAAAAAAAAAA=", "\u00e9", [], [6], [6, 6],
               [6, -6], [True, 6], [6, 6.0], {}, {"shape": [], "data": "AAAAAAAAAAA="},
               {"shape": [], "data": "AAAAAA=="}]
# among them the config keys of options earlier versions offered
JSON_KEYS = ["optimizer", "leaky_trainable", "resample_contexts", "fine_tune_embeddings",
             "neg_ratio", "clip_norm", "match.leak", "d_ce", "leaky", "shape", "data",
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
    # a weight of another dtype is refused on save, by name, and nothing is written
    name = data.draw(st.sampled_from(sorted(params)))
    dtype = data.draw(st.sampled_from([np.float32, np.float64, np.float16, np.int64]))
    path.unlink(missing_ok=True)      # the path is shared by every example
    if dtype is not np.float32:
        with pytest.raises(DataError, match=f"float32; not so: \\['{re.escape(name)}'\\]"):
            training.save_checkpoint(str(path), dict(params, **{name: params[name].astype(dtype)}),
                                     config)
        assert not path.exists()
    training.save_checkpoint(str(path), params, config)
    blob = json.loads(path.read_text())
    if data.draw(st.integers(0, 4)) == 0:
        blob = as_version_2(blob)
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
    assert stated["version"] == 3       # version 1 and 2 files are refused
    kept = stated.get("config", {})
    assert cfg == training.TrainConfig(**kept)
    assert all(type(getattr(cfg, k)) is type(v) for k, v in kept.items())
    assert sorted(loaded) == sorted(stated["params"])
    for name, entry in stated["params"].items():
        want = np.frombuffer(base64.b64decode(entry["data"]), "<f4").reshape(entry["shape"])
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == want.shape and loaded[name].tobytes() == want.tobytes()
