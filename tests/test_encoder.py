import numpy as np
import pytest

from synmatch import autodiff as ad
from synmatch import encoder
from synmatch.corpus import PAD, ContextWindow
from synmatch.errors import ShapeError
from synmatch.rng import stream_rng

D_EMBED = 3
D_CE = 8
VOCAB = 20


@pytest.fixture
def setup():
    rng = stream_rng(0, "init")
    params = encoder.init_encoder_params(D_EMBED, D_CE, rng)
    emb = rng.normal(size=(VOCAB, D_EMBED))
    emb[PAD] = 0.0
    return params, emb


def window(ids, pos):
    return ContextWindow(tuple(ids), pos, source_line=0)


def rand_window(rng, min_len=1, max_len=9):
    n = int(rng.integers(min_len, max_len + 1))
    ids = rng.integers(2, VOCAB, size=n)
    return window(ids, int(rng.integers(n)))


def test_init_shapes_and_biases(setup):
    params, _ = setup
    d_h = D_CE // 2
    assert sorted(params) == sorted(encoder.PARAM_NAMES)
    # blocks are drawn gate by gate (Wx, then Wh, for i, f, o, g) and stacked
    rng = stream_rng(0, "init")
    for direction in ("fw", "bw"):
        wx = params[f"enc.{direction}.Wx"]
        wh = params[f"enc.{direction}.Wh"]
        assert wx.shape == (D_EMBED, 4 * d_h)
        assert wh.shape == (d_h, 4 * d_h)
        for k in range(4):
            block = slice(k * d_h, (k + 1) * d_h)
            assert np.array_equal(wx[:, block], rng.uniform(-0.08, 0.08, size=(D_EMBED, d_h)))
            assert np.array_equal(wh[:, block], rng.uniform(-0.08, 0.08, size=(d_h, d_h)))
        want = np.zeros((1, 4 * d_h))
        want[:, d_h:2 * d_h] = 1.0       # forget-gate block starts at 1
        assert np.array_equal(params[f"enc.{direction}.b"], want)
        assert np.all(np.abs(wx) <= 0.08)


def test_init_odd_dce_rejected():
    with pytest.raises(ShapeError):
        encoder.init_encoder_params(D_EMBED, 7, stream_rng(0, "init"))


def test_entity_at_start_forward_sees_only_entity(setup):
    params, emb = setup
    d_h = D_CE // 2
    a = encoder.encode_batch([window([5, 6, 7], 0)], params, emb, "anchored")[0]
    b = encoder.encode_batch([window([5, 8, 9, 10], 0)], params, emb, "anchored")[0]
    c = encoder.encode_batch([window([5], 0)], params, emb, "anchored")[0]
    assert np.array_equal(a[:d_h], c[:d_h])
    assert np.array_equal(b[:d_h], c[:d_h])
    assert not np.array_equal(a[d_h:], c[d_h:])  # suffixes differ


def test_forward_half_ignores_suffix_edits(setup):
    params, emb = setup
    d_h = D_CE // 2
    rng = stream_rng(1, "init")
    for _ in range(100):
        w = rand_window(rng, min_len=2)
        if w.entity_pos == len(w) - 1:
            continue
        edit_at = int(rng.integers(w.entity_pos + 1, len(w)))
        ids = list(w.token_ids)
        ids[edit_at] = int(rng.integers(2, VOCAB))
        w2 = window(ids, w.entity_pos)
        h1 = encoder.encode_batch([w], params, emb, "anchored")[0]
        h2 = encoder.encode_batch([w2], params, emb, "anchored")[0]
        assert np.array_equal(h1[:d_h], h2[:d_h])


def test_backward_half_ignores_prefix_edits(setup):
    params, emb = setup
    d_h = D_CE // 2
    rng = stream_rng(2, "init")
    for _ in range(100):
        w = rand_window(rng, min_len=2)
        if w.entity_pos == 0:
            continue
        edit_at = int(rng.integers(0, w.entity_pos))
        ids = list(w.token_ids)
        ids[edit_at] = int(rng.integers(2, VOCAB))
        w2 = window(ids, w.entity_pos)
        h1 = encoder.encode_batch([w], params, emb, "anchored")[0]
        h2 = encoder.encode_batch([w2], params, emb, "anchored")[0]
        assert np.array_equal(h1[d_h:], h2[d_h:])


def test_full_equals_anchored_on_length_one(setup):
    params, emb = setup
    w = window([7], 0)
    assert np.array_equal(encoder.encode_batch([w], params, emb, "bilstm")[0],
                          encoder.encode_batch([w], params, emb, "anchored")[0])


def test_full_differs_from_anchored_with_suffix(setup):
    params, emb = setup
    rng = stream_rng(3, "init")
    for _ in range(20):
        w = rand_window(rng, min_len=3)
        if w.entity_pos == len(w) - 1:
            continue
        full = encoder.encode_batch([w], params, emb, "bilstm")[0]
        anch = encoder.encode_batch([w], params, emb, "anchored")[0]
        assert not np.allclose(full, anch)


def test_output_length(setup):
    params, emb = setup
    w = window([4, 5, 6], 1)
    assert encoder.encode_batch([w], params, emb, "anchored")[0].shape == (D_CE,)
    assert encoder.encode_batch([w], params, emb, "bilstm")[0].shape == (D_CE,)


def test_batch_matches_individual_encodes(setup):
    params, emb = setup
    rng = stream_rng(4, "init")
    for variant in ("anchored", "bilstm"):
        windows = [rand_window(rng) for _ in range(7)]
        batch = encoder.encode_batch(windows, params, emb, variant)
        assert batch.shape == (7, D_CE)
        for p, w in enumerate(windows):
            single = encoder.encode_batch([w], params, emb, variant)[0]
            assert np.max(np.abs(batch[p] - single)) < 1e-12


def test_batch_identical_windows_identical_rows(setup):
    params, emb = setup
    w = window([3, 9, 4, 11], 2)
    batch = encoder.encode_batch([w, w, w], params, emb)
    assert np.array_equal(batch[0], batch[1])
    assert np.array_equal(batch[1], batch[2])


def test_empty_batch(setup):
    params, emb = setup
    out = encoder.encode_batch([], params, emb)
    assert out.shape == (0, D_CE)


def test_hidden_states_bounded(setup):
    params, emb = setup
    rng = stream_rng(5, "init")
    windows = [rand_window(rng) for _ in range(30)]
    out = encoder.encode_batch(windows, params, emb)
    assert np.all(np.abs(out) < 1.0)


def test_unknown_variant_rejected(setup):
    params, emb = setup
    with pytest.raises(ValueError):
        encoder.encode_batch([window([3], 0)], params, emb, variant="gru")


def test_gradients_match_finite_differences(setup):
    _, emb = setup
    rng = stream_rng(6, "init")
    params = encoder.init_encoder_params(D_EMBED, 4, rng)
    params["embed.table"] = emb.copy()
    windows = [window([4, 5, 6, 7], 1), window([8, 9, 10], 2)]

    def builder(v):
        enc = {k: v[k] for k in v if k.startswith("enc.")}
        out = encoder.encode_batch_vars(windows, enc, v["embed.table"])
        return ad.sum_all(ad.square(out))

    report = ad.finite_diff_check(builder, params, eps=1e-4)
    assert report.max_rel_error < 1e-4, str(report)


def test_encode_batch_vars_is_one_tape_node(setup):
    params, emb = setup
    leaves = {k: ad.Var(v) for k, v in params.items()}
    emb_var = ad.Var(emb)
    out = encoder.encode_batch_vars([window([4, 5, 6], 1), window([7, 8], 0)], leaves, emb_var)
    inner = [node for node in ad._topo_order(out) if node.parents]
    assert inner == [out]
    assert len(out.parents) == 7      # six weights and the embedding matrix


def test_padding_rows_get_no_gradient(setup):
    _, emb = setup
    rng = stream_rng(7, "init")
    params = encoder.init_encoder_params(D_EMBED, 4, rng)
    params["embed.table"] = emb.copy()
    # ragged batch: the short window is padded up to length 5 internally
    windows = [window([4, 5, 6, 7, 8], 2), window([9, 10], 1)]

    def builder(v):
        enc = {k: v[k] for k in v if k.startswith("enc.")}
        out = encoder.encode_batch_vars(windows, enc, v["embed.table"])
        return ad.sum_all(ad.square(out))

    _, gs = ad.grad(builder, params)
    assert np.all(gs["embed.table"][PAD] == 0.0)
    used = {t for w in windows for t in w.token_ids}
    unused = set(range(VOCAB)) - used - {PAD}
    for tid in unused:
        assert np.all(gs["embed.table"][tid] == 0.0)
    for tid in used:
        assert np.any(gs["embed.table"][tid] != 0.0)
