import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synmatch import autodiff as ad
from synmatch import encoder
from synmatch.corpus import PAD, ContextWindow
from synmatch.errors import DataError, ShapeError, SynmatchError
from synmatch.rng import stream_rng

import oracles as ref

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
    return ContextWindow(tuple(ids), pos)


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
    leaves = {k: ad.Var(v) for k, v in params.items()}
    for encode, weights in ((encoder.encode_batch, params),
                            (encoder.encode_batch_vars, leaves)):
        with pytest.raises(DataError, match="unknown encoder variant 'gru'"):
            encode([window([3], 0)], weights, emb, variant="gru")


def test_gradients_match_finite_differences(setup):
    _, emb = setup
    rng = stream_rng(6, "init")
    params = encoder.init_encoder_params(D_EMBED, 4, rng)
    windows = [window([4, 5, 6, 7], 1), window([8, 9, 10], 2)]

    def builder(v):
        return ref.sum_all(ref.square(encoder.encode_batch_vars(windows, v, emb)))

    report = ad.finite_diff_check(builder, params, eps=1e-4)
    assert report.max_rel_error < 1e-4, str(report)


def test_encode_batch_vars_is_one_tape_node(setup):
    params, emb = setup
    leaves = {k: ad.Var(v) for k, v in params.items()}
    out = encoder.encode_batch_vars([window([4, 5, 6], 1), window([7, 8], 0)], leaves, emb)
    inner = [node for node in ad._topo_order(out) if node.parents]
    assert inner == [out]
    # the six weights, in PARAM_NAMES order; the embeddings are frozen
    assert out.parents == tuple(leaves[name] for name in encoder.PARAM_NAMES)
    assert len(out.backward_fn(np.ones(out.shape))) == 6


def test_replaying_an_encoder_node_raises(setup):
    # the node's backward writes its gradients over the saved gate values
    params, emb = setup
    leaves = {k: ad.Var(v) for k, v in params.items()}
    out = encoder.encode_batch_vars([window([4, 5, 6], 1), window([7, 8], 0)], leaves, emb)
    loss = ref.sum_all(ref.square(out))
    first = ad.backward(loss, list(leaves.values()))
    assert all(np.all(np.isfinite(g)) for g in first)
    with pytest.raises(SynmatchError, match="replayed"):
        ad.backward(loss, list(leaves.values()))


def test_tape_holds_one_gate_block_per_direction():
    B, T, d_h = 16, 30, 32
    rng = stream_rng(11, "init")
    params = encoder.init_encoder_params(D_EMBED, 2 * d_h, rng)
    emb = rng.normal(size=(VOCAB, D_EMBED))
    windows = [window(rng.integers(2, VOCAB, size=T), 0) for _ in range(B)]
    W = [params[name] for name in encoder.PARAM_NAMES]
    N = B * T                         # packed rows of each bilstm direction
    out, saved = encoder._encode(windows, W, emb, "bilstm")
    for k, direction in enumerate(saved):
        arrays = [x for x in direction if isinstance(x, np.ndarray)]
        states = [x for x in arrays if x.shape == (N, d_h)]
        assert len(states) == 1       # C alone: no H, no tanh(C)
        # the gate values (sigmoids and tanh): one flat block, each step's gate by gate
        gates = [x for x in arrays if x.size >= N * 4 * d_h]
        assert [x.shape for x in gates] == [(N * 4 * d_h,)]
        assert np.all((gates[0] >= -1.0) & (gates[0] <= 1.0))
        # every row stops at the last step, whose o tanh(c) is the output
        o = gates[0][-B * 4 * d_h:].reshape(4, B, d_h)[2]
        assert np.array_equal(o * np.tanh(states[0][-B:]), out[:, k * d_h:(k + 1) * d_h])
    leaves = {k: ad.Var(v) for k, v in params.items()}
    out = encoder.encode_batch_vars(windows, leaves, emb, "bilstm")
    g = np.ones_like(out.value)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out.backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # no second (N, 4 d_h) block for dZ beside the saved gate values, and no
    # (N, d_h) gather of the states for dWh
    assert peak < 1.5 * N * d_h * 8


def test_inference_keeps_only_the_running_state():
    B, d_h = 16, 32
    rng = stream_rng(11, "init")
    params = encoder.init_encoder_params(D_EMBED, 2 * d_h, rng)
    emb = rng.normal(size=(VOCAB, D_EMBED))
    peaks = {}
    for T in (30, 60):
        windows = [window(rng.integers(2, VOCAB, size=T), 0) for _ in range(B)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            encoder.encode_batch(windows, params, emb, "bilstm")
            peaks[T] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    # below one (N, d_h) block of states, and not growing with the window length
    assert peaks[60] < B * 60 * d_h * 8
    assert peaks[60] < 1.25 * peaks[30]


def test_padding_rows_get_no_gradient(setup):
    # a ragged batch: a short window beside a long one gets the weight
    # gradients it gets alone, so no step past its end contributes
    _, emb = setup
    rng = stream_rng(7, "init")
    params = encoder.init_encoder_params(D_EMBED, 4, rng)
    windows = [window([4, 5, 6, 7, 8], 2), window([9, 10], 1)]
    for variant in ("anchored", "bilstm"):
        def gradients(batch):
            return ad.grad(lambda v: ref.sum_all(ref.square(
                encoder.encode_batch_vars(batch, v, emb, variant))), params)[1]

        together = gradients(windows)
        alone = [gradients([w]) for w in windows]
        for name in params:
            diff = together[name] - alone[0][name] - alone[1][name]
            assert np.max(np.abs(diff)) <= 1e-12, (variant, name)


# ---------------------------------------------------------------------------
# packed layout against the padded reference

def padded_direction(E, ids, stop, Wx, Wh, b, dout):
    """Reference LSTM direction with padding: every row steps to max(stop) + 1
    over the (B, L) id matrix and its state is picked at its own stop step.
    Returns the (B, d_h) states and, for upstream gradient dout, the
    gradients of Wx, Wh and b."""
    B, T, d_h = len(ids), int(stop.max()) + 1, Wh.shape[0]
    tok = ids[:, :T].T
    X = E[tok]
    acts, Hs, Cs = [], [np.zeros((B, d_h))], [np.zeros((B, d_h))]
    for t in range(T):
        a = X[t] @ Wx + Hs[t] @ Wh + b
        a = np.concatenate([1.0 / (1.0 + np.exp(-a[:, :3 * d_h])), np.tanh(a[:, 3 * d_h:])], axis=1)
        i, f, o, g = np.split(a, 4, axis=1)
        Cs.append(f * Cs[t] + i * g)
        Hs.append(o * np.tanh(Cs[t + 1]))
        acts.append(a)
    out = np.stack(Hs)[stop + 1, np.arange(B)]
    dWx, dWh, db = np.zeros_like(Wx), np.zeros_like(Wh), np.zeros_like(b)
    dh, dc = np.zeros((B, d_h)), np.zeros((B, d_h))
    for t in range(T - 1, -1, -1):
        dh = dh + np.where((stop == t)[:, None], dout, 0.0)
        i, f, o, g = np.split(acts[t], 4, axis=1)
        tc = np.tanh(Cs[t + 1])
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([dc * g * i * (1 - i), dc * Cs[t] * f * (1 - f),
                             dh * tc * o * (1 - o), dc * i * (1 - g * g)], axis=1)
        dWx += X[t].T @ dz
        dWh += Hs[t].T @ dz
        db += dz.sum(axis=0, keepdims=True)
        dc = dc * f
        dh = dz @ Wh.T
    return out, (dWx, dWh, db)


def padded_encode(windows, params, E, variant, G):
    """Reference encodings and the gradients of sum(out * G)."""
    lengths = np.array([len(w) for w in windows])
    t_e = np.array([w.entity_pos for w in windows])
    ids = np.full((len(windows), lengths.max()), PAD)
    rev = np.full((len(windows), lengths.max()), PAD)
    for r, w in enumerate(windows):
        ids[r, :len(w)] = w.token_ids
        rev[r, :len(w)] = w.token_ids[::-1]
    if variant == "anchored":
        stops = (t_e, lengths - 1 - t_e)
    else:
        stops = (lengths - 1, lengths - 1)
    d_h = params["enc.fw.Wh"].shape[0]
    outs, grads = [], {}
    for k, (direction, id_matrix) in enumerate((("fw", ids), ("bw", rev))):
        names = [f"enc.{direction}.{part}" for part in ("Wx", "Wh", "b")]
        out, direction_grads = padded_direction(
            E, id_matrix, stops[k], *[params[n] for n in names], G[:, k * d_h:(k + 1) * d_h])
        outs.append(out)
        grads.update(zip(names, direction_grads))
    return np.concatenate(outs, axis=1), grads


def packed_encode(windows, params, E, variant, G):
    leaves = {k: ad.Var(v) for k, v in params.items()}
    out = encoder.encode_batch_vars(windows, leaves, E, variant)
    assert np.array_equal(out.value, encoder.encode_batch(windows, params, E, variant))
    gs = ad.backward(ref.sum_all(ref.mul(out, G)), list(leaves.values()))
    return out.value, dict(zip(leaves, gs))


def oracle_batches():
    rng = stream_rng(8, "init")
    mixed = [rand_window(rng) for _ in range(12)]
    stop0 = [window([4, 5, 6], 0), window([7], 0), window([8, 9], 1), window([3, 4, 5, 6], 3)]
    equal = [window(list(rng.integers(2, VOCAB, size=5)), 2) for _ in range(4)]
    return {"mixed": mixed, "stop0": stop0, "equal": equal,
            "single": [window([5, 9, 12, 3], 1)],
            "ones": [window([5], 0), window([9], 0), window([12], 0)],
            "duplicates": [mixed[0], mixed[1], mixed[0], mixed[0], mixed[2]]}


def assert_packed_matches_padded_reference(params, emb, variant, windows):
    G = stream_rng(9, "init").normal(size=(len(windows), 2 * params["enc.fw.Wh"].shape[0]))
    want_out, want = padded_encode(windows, params, emb, variant, G)
    got_out, got = packed_encode(windows, params, emb, variant, G)
    assert np.max(np.abs(got_out - want_out)) <= 1e-12
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name


@pytest.mark.parametrize("variant", ["anchored", "bilstm"])
@pytest.mark.parametrize("batch", sorted(oracle_batches()))
def test_packed_matches_padded_reference(setup, variant, batch):
    params, emb = setup
    assert_packed_matches_padded_reference(params, emb, variant, oracle_batches()[batch])


@pytest.mark.parametrize("variant", ["anchored", "bilstm"])
@pytest.mark.parametrize("batch", sorted(oracle_batches()))
def test_packed_matches_padded_reference_at_d_ce_32(setup, variant, batch):
    # the width of tier-1 training and the benchmarks (d_h = 16)
    _, emb = setup
    params = encoder.init_encoder_params(D_EMBED, 32, stream_rng(13, "init"))
    assert_packed_matches_padded_reference(params, emb, variant, oracle_batches()[batch])


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def assert_direction_keeps_the_reference_bits(params, emb, variant, windows):
    # the library's saved values against the reference that saves H
    W = [params[name] for name in encoder.PARAM_NAMES]
    d_h = W[1].shape[0]
    dout = stream_rng(14, "init").normal(size=(len(windows), 2 * d_h))
    out, saved = encoder._encode(windows, W, emb, variant)
    for k, direction in enumerate(saved):
        cols = slice(k * d_h, (k + 1) * d_h)
        tok, pk = direction[0], direction[-1]
        want_out, want = ref.lstm_forward(emb, tok, pk, *W[3 * k:3 * k + 3])
        got = [out[:, cols], *encoder._backward(dout[:, cols], direction, emb, W[3 * k + 1])]
        wanted = [want_out, *ref.lstm_backward(dout[:, cols], want, emb, W[3 * k + 1])]
        for name, x, y in zip(("out", "dWx", "dWh", "db"), got, wanted):
            assert x.shape == y.shape and np.array_equal(bits(x), bits(y)), (k, name)


def test_oracle_batches_hold_the_edge_steps(setup):
    params, emb = setup
    W = [params[name] for name in encoder.PARAM_NAMES]
    # a recurrent step with one live row (the two-row gemm path) ...
    packs = [direction[-1] for variant in ("anchored", "bilstm")
             for windows in oracle_batches().values()
             for direction in encoder._encode(windows, W, emb, variant)[1]]
    assert any(len(pk.n) > 1 and pk.n[-1] == 1 for pk in packs)
    # ... and a batch whose rows all stop at step 0, so no row follows another
    assert any(len(pk.n) == 1 for pk in packs)


@pytest.mark.parametrize("d_ce", [4, 32])
@pytest.mark.parametrize("variant", ["anchored", "bilstm"])
@pytest.mark.parametrize("batch", sorted(oracle_batches()))
def test_direction_keeps_the_reference_bits(setup, d_ce, variant, batch):
    _, emb = setup
    params = encoder.init_encoder_params(D_EMBED, d_ce, stream_rng(15, "init"))
    assert_direction_keeps_the_reference_bits(params, emb, variant, oracle_batches()[batch])


@pytest.mark.parametrize("variant", ["anchored", "bilstm"])
def test_direction_keeps_the_reference_bits_at_d_h_128(variant):
    # the width of the paper config, d_ce 256
    rng = stream_rng(16, "init")
    params = encoder.init_encoder_params(EXACT_EMBED, 256, rng)
    emb = rng.normal(size=(VOCAB, EXACT_EMBED))
    assert_direction_keeps_the_reference_bits(params, emb, variant, oracle_batches()["mixed"])


@pytest.mark.parametrize("variant", ["anchored", "bilstm"])
def test_permuting_windows_permutes_rows(setup, variant):
    params, emb = setup
    rng = stream_rng(10, "init")
    windows = [rand_window(rng) for _ in range(15)]
    perm = rng.permutation(len(windows))
    out = encoder.encode_batch(windows, params, emb, variant)
    shuffled = encoder.encode_batch([windows[p] for p in perm], params, emb, variant)
    assert np.max(np.abs(shuffled - out[perm])) <= 1e-12


# Wide enough that gemv and gemm round differently (at D_CE = 8 they rarely do).
EXACT_EMBED, EXACT_CE = 16, 32


@st.composite
def exact_windows(draw):
    """1-8 windows of 1-9 tokens; the entity often sits first or last."""
    windows = []
    for _ in range(draw(st.integers(1, 8))):
        ids = draw(st.lists(st.integers(2, VOCAB - 1), min_size=1, max_size=9))
        pos = draw(st.sampled_from([0, len(ids) - 1, draw(st.integers(0, len(ids) - 1))]))
        windows.append(window(ids, pos))
    return windows


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(windows=exact_windows(), draws=st.data())
def test_rows_encode_to_the_same_bits_in_any_batch(windows, draws):
    """In float64 and in the model's float32 (dgemm and sgemm), with the
    float64 embeddings the model keeps.  OpenBLAS's sgemv rounds as its
    sgemm does at inner widths 8 to 32, so float32 runs at d_h 64, where a
    one-row step sent to sgemv would round differently."""
    rng = stream_rng(12, "init")
    weights = encoder.init_encoder_params(EXACT_EMBED, EXACT_CE, rng)
    emb = rng.normal(size=(VOCAB, EXACT_EMBED))
    wide = encoder.init_encoder_params(EXACT_EMBED, 4 * EXACT_CE, rng)
    perm = draws.draw(st.permutations(range(len(windows))), label="permutation")
    cuts = draws.draw(st.sets(st.integers(1, len(windows) - 1)) if len(windows) > 1
                      else st.just(set()), label="cuts")
    bounds = [0, *sorted(cuts), len(windows)]
    shuffled = [windows[p] for p in perm]
    for (dtype, model), variant in itertools.product(
            ((np.float64, weights), (np.float32, wide)), ("anchored", "bilstm")):
        params = {name: w.astype(dtype) for name, w in model.items()}
        whole = encoder.encode_batch(windows, params, emb, variant)
        assert whole.dtype == dtype
        assert encoder.encode_batch(shuffled, params, emb, variant).tobytes() == \
            whole[perm].tobytes()
        parts = [encoder.encode_batch(shuffled[a:b], params, emb, variant)
                 for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate(parts).tobytes() == whole[perm].tobytes()
        for k, w in enumerate(windows):
            assert encoder.encode_batch([w], params, emb, variant).tobytes() == \
                whole[k:k + 1].tobytes()
        leaves = {name: ad.Var(w) for name, w in params.items()}
        trained = encoder.encode_batch_vars(windows, leaves, emb, variant)
        assert trained.value.tobytes() == whole.tobytes()
