import math

import numpy as np
import pytest

from synmatch import autodiff as ad
from synmatch import matcher
from synmatch.errors import NumericError, ShapeError
from synmatch.rng import stream_rng

import oracles as ref


def scalar_match_oracle(H, G, W, leak_vec=None):
    """Per-pair evaluation of the matching softmaxes with plain floats."""
    P, Q = H.shape[0], G.shape[0]
    logit = lambda u, v: float(u @ W @ v)
    m_fwd = np.zeros((P, Q))
    leak_fwd = np.zeros(Q)
    for q in range(Q):
        denom = sum(math.exp(logit(H[p], G[q])) for p in range(P))
        if leak_vec is not None:
            leak_term = math.exp(logit(leak_vec, G[q]))
            denom += leak_term
            leak_fwd[q] = leak_term / denom
        for p in range(P):
            m_fwd[p, q] = math.exp(logit(H[p], G[q])) / denom
    m_bwd = np.zeros((P, Q))
    leak_bwd = np.zeros(P)
    for p in range(P):
        denom = sum(math.exp(logit(H[p], G[q])) for q in range(Q))
        if leak_vec is not None:
            leak_term = math.exp(logit(H[p], leak_vec))
            denom += leak_term
            leak_bwd[p] = leak_term / denom
        for q in range(Q):
            m_bwd[p, q] = math.exp(logit(H[p], G[q])) / denom
    return m_fwd, m_bwd, leak_fwd, leak_bwd


def rand_instance(seed, P=5, Q=4, d=8):
    rng = stream_rng(seed, "init")
    return rng.normal(size=(P, d)), rng.normal(size=(Q, d)), rng.normal(size=(d, d))


def test_single_pair_no_leaky():
    H, G, W = rand_instance(0, P=1, Q=1)
    res = matcher.match_score(H, G, W)
    assert np.array_equal(res.m_fwd, [[1.0]])
    assert np.array_equal(res.m_bwd, [[1.0]])
    assert np.array_equal(res.h_bar, H[0])
    assert np.array_equal(res.g_bar, G[0])
    assert res.a_h[0] == 1.0 and res.a_g[0] == 1.0


def test_zero_logits_with_leaky_split_evenly():
    rng = stream_rng(1, "init")
    H = rng.normal(size=(2, 6))
    G = rng.normal(size=(3, 6))
    res = matcher.match_score(H, G, np.zeros((6, 6)), leaky=True)
    assert np.allclose(res.m_fwd, 1 / 3, atol=1e-15)
    assert np.allclose(res.leak_fwd, 1 / 3, atol=1e-15)
    assert np.allclose(res.m_bwd, 1 / 4, atol=1e-15)
    assert np.allclose(res.leak_bwd, 1 / 4, atol=1e-15)


def test_matrix_form_equals_scalar_form():
    H, G, W = rand_instance(2)
    res = matcher.match_score(H, G, W)
    m_fwd, m_bwd, _, _ = scalar_match_oracle(H, G, W)
    assert np.max(np.abs(res.m_fwd - m_fwd)) < 1e-12
    assert np.max(np.abs(res.m_bwd - m_bwd)) < 1e-12


def test_matrix_form_equals_scalar_form_with_leaky():
    for seed in range(5):
        rng = stream_rng(seed, "init")
        P, Q = rng.integers(1, 9, size=2)
        H = rng.normal(size=(P, 6))
        G = rng.normal(size=(Q, 6))
        W = rng.normal(size=(6, 6))
        res = matcher.match_score(H, G, W, leaky=True)
        m_fwd, m_bwd, leak_fwd, leak_bwd = scalar_match_oracle(H, G, W, np.zeros(6))
        assert np.max(np.abs(res.m_fwd - m_fwd)) < 1e-12
        assert np.max(np.abs(res.m_bwd - m_bwd)) < 1e-12
        assert np.max(np.abs(res.leak_fwd - leak_fwd)) < 1e-12
        assert np.max(np.abs(res.leak_bwd - leak_bwd)) < 1e-12


def test_stochasticity_without_leaky():
    H, G, W = rand_instance(3)
    res = matcher.match_score(H, G, W)
    assert np.max(np.abs(res.m_fwd.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(res.m_bwd.sum(axis=1) - 1.0)) < 1e-12


def test_stochasticity_with_leaky():
    H, G, W = rand_instance(4)
    res = matcher.match_score(H, G, W, leaky=True)
    assert np.max(np.abs(res.m_fwd.sum(axis=0) + res.leak_fwd - 1.0)) < 1e-12
    assert np.max(np.abs(res.m_bwd.sum(axis=1) + res.leak_bwd - 1.0)) < 1e-12


def test_aggregation_matches_oracle():
    H, G, W = rand_instance(5)
    res = matcher.match_score(H, G, W)
    P, Q = H.shape[0], G.shape[0]
    a_h = np.array([max(res.m_bwd[p, q] for q in range(Q)) for p in range(P)])
    a_g = np.array([max(res.m_fwd[p, q] for p in range(P)) for q in range(Q)])
    h_bar = sum(a_h[p] * H[p] for p in range(P))
    g_bar = sum(a_g[q] * G[q] for q in range(Q))
    assert np.max(np.abs(res.a_h - a_h)) < 1e-15
    assert np.max(np.abs(res.a_g - a_g)) < 1e-15
    assert np.max(np.abs(res.h_bar - h_bar)) < 1e-12
    assert np.max(np.abs(res.g_bar - g_bar)) < 1e-12


def test_duplicate_contexts_aggregate_parallel():
    rng = stream_rng(6, "init")
    row = rng.normal(size=8)
    H = np.tile(row, (4, 1))
    G = rng.normal(size=(3, 8))
    res = matcher.match_score(H, G, rng.normal(size=(8, 8)))
    cross = np.linalg.norm(np.outer(res.h_bar, row) - np.outer(row, res.h_bar))
    assert cross < 1e-12  # h_bar is a multiple of the repeated row


def single_context_score(u, v):
    """Score of one context against one: both weights are 1, so this is the
    plain cosine of u and v."""
    return matcher.match_score(np.atleast_2d(u), np.atleast_2d(v), np.eye(len(u))).score


def test_score_trivial_directions():
    v = np.array([1.0, 2.0, 2.0])
    assert single_context_score(v, v.copy()) == pytest.approx(1.0, abs=1e-12)
    assert single_context_score(v, -v) == pytest.approx(-1.0, abs=1e-12)
    assert single_context_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_zero_norm_score_warns(caplog):
    # one all-zero context gives a zero-norm global context on that side
    params = {"H": np.zeros((1, 4)), "G": np.ones((2, 4)), "W": np.eye(4)}

    def zero_norm_warnings():
        msgs = [r.getMessage() for r in caplog.records]
        caplog.clear()
        return sum("zero-norm" in m for m in msgs)

    with caplog.at_level("WARNING"):
        assert matcher.match_score(params["H"], params["G"], params["W"]).score == 0.0
        assert zero_norm_warnings() == 1
        value, grads = ad.grad(
            lambda v: matcher.pair_score_vars(v["H"], v["G"], v["W"]), params)
        assert value == 0.0
        assert zero_norm_warnings() == 1
    for name, g in grads.items():
        assert np.array_equal(g, np.zeros_like(params[name])), name


def test_nonfinite_score_raises():
    H, G, W = rand_instance(17)
    H[1, 2] = np.nan
    with pytest.raises(NumericError):
        matcher.match_score(H, G, W)
    with pytest.raises(NumericError):
        matcher.pair_score_vars(ad.Var(H), ad.Var(G), ad.Var(W), leaky=True)


def test_swap_symmetry_with_transposed_bilinear():
    for seed in range(10):
        H, G, W = rand_instance(seed, P=6, Q=3)
        for leaky in (False, True):
            ab = matcher.match_score(H, G, W, leaky)
            ba = matcher.match_score(G, H, W.T, leaky)
            assert abs(ab.score - ba.score) < 1e-12
            assert np.max(np.abs(ab.m_fwd - ba.m_bwd.T)) < 1e-12
            assert np.max(np.abs(ab.m_bwd - ba.m_fwd.T)) < 1e-12


def test_swap_symmetry_with_symmetric_bilinear():
    rng = stream_rng(11, "init")
    H = rng.normal(size=(4, 8))
    G = rng.normal(size=(5, 8))
    A = rng.normal(size=(8, 8))
    W = A + A.T
    ab = matcher.match_score(H, G, W)
    ba = matcher.match_score(G, H, W)
    assert abs(ab.score - ba.score) < 1e-12


def test_leaky_unit_dampens_uninformative_context():
    # all-positive G rows and identity W; the junk context scores at least 10
    # below the leak slot's zero logit against every g_q
    rng = stream_rng(12, "init")
    d = 6
    G = rng.uniform(0.5, 1.0, size=(3, d))
    H = rng.uniform(0.2, 0.9, size=(4, d))
    junk = -3.5 * np.ones((1, d))
    W = np.eye(d)
    assert np.all(junk @ W @ G.T < -10.0)  # just below the leak's zero logit

    def g_bar(H_rows, leaky):
        return matcher.match_score(H_rows, G, W, leaky).g_bar

    H_plus = np.concatenate([H, junk], axis=0)
    drift_plain = np.linalg.norm(g_bar(H_plus, False) - g_bar(H, False))
    drift_leaky = np.linalg.norm(g_bar(H_plus, True) - g_bar(H, True))
    assert drift_leaky < drift_plain


def test_dimension_mismatches_rejected():
    rng = stream_rng(13, "init")
    H = rng.normal(size=(3, 8))
    with pytest.raises(ShapeError):
        matcher.match_score(H, rng.normal(size=(2, 6)), np.eye(8))
    with pytest.raises(ShapeError):
        matcher.match_score(H, rng.normal(size=(2, 8)), np.eye(7))
    with pytest.raises(ShapeError):
        matcher.match_score(np.zeros((0, 8)), H, np.eye(8))


def test_gradients_through_full_match_pipeline():
    rng = stream_rng(16, "init")
    params = {
        "H": rng.normal(size=(4, 6)),
        "G": rng.normal(size=(3, 6)),
        "W": rng.normal(size=(6, 6)),
    }
    for leaky in (False, True):
        def builder(v):
            return matcher.pair_score_vars(v["H"], v["G"], v["W"], leaky)
        report = ad.finite_diff_check(builder, params, eps=1e-5)
        assert report.max_rel_error < 1e-4, str(report)


def test_pair_score_is_one_tape_node():
    H, G, W = (ad.Var(x) for x in rand_instance(19))
    inputs = {id(v) for v in (H, G, W)}
    for leaky in (False, True):
        s = matcher.pair_score_vars(H, G, W, leaky)
        added = [n for n in ad._topo_order(s) if id(n) not in inputs]
        assert len(added) <= 2


# ---------------------------------------------------------------------------
# batches of pairs: the per-pair calls above are the reference

def batch_instance(seed, b_h, b_g, P, Q, d=6):
    rng = stream_rng(seed, "init", b_h, b_g, P, Q)
    return rng.normal(size=(b_h, P, d)), rng.normal(size=(b_g, Q, d)), rng.normal(size=(d, d))


@pytest.mark.parametrize("b_h,b_g,P,Q", [(1, 1, 5, 4), (6, 6, 5, 3), (6, 6, 4, 4),
                                         (1, 7, 4, 6), (5, 1, 3, 3)])
def test_batched_match_equals_per_pair_loop(b_h, b_g, P, Q):
    H, G, W = batch_instance(21, b_h, b_g, P, Q)
    B = max(b_h, b_g)
    for leaky in (False, True):
        got = matcher.match_score(H, G, W, leaky)
        assert got.score.shape == (B,) and got.m_fwd.shape == (B, P, Q), leaky
        for b in range(B):
            Hb, Gb = H[min(b, b_h - 1)], G[min(b, b_g - 1)]
            want = matcher.match_score(Hb, Gb, W, leaky)
            assert abs(got.score[b] - want.score) < 1e-12, leaky
            for field in ("m_fwd", "m_bwd", "leak_fwd", "leak_bwd", "a_h", "a_g"):
                diff = np.max(np.abs(getattr(got, field)[b] - getattr(want, field)))
                assert diff < 1e-12, (leaky, field)
            oracle = scalar_match_oracle(Hb, Gb, W, np.zeros(W.shape[0]) if leaky else None)
            for field, ref in zip(("m_fwd", "m_bwd", "leak_fwd", "leak_bwd"), oracle):
                assert np.max(np.abs(getattr(got, field)[b] - ref)) < 1e-12, (leaky, field)


def test_batch_pair_counts_must_agree():
    H, G, W = batch_instance(22, 3, 2, 3, 3)
    with pytest.raises(ShapeError):
        matcher.match_score(H, G, W)


def test_zero_norm_pair_in_batch_scores_zero_alone(caplog):
    H, G, W = batch_instance(23, 3, 3, 4, 4)
    H[1] = 0.0
    with caplog.at_level("WARNING"):
        got = matcher.match_score(H, G, W)
    assert sum("zero-norm" in r.getMessage() for r in caplog.records) == 1
    assert got.score[1] == 0.0
    for b in (0, 2):
        assert got.score[b] == matcher.match_score(H[b], G[b], W).score
    H[2, 1, 3] = np.nan
    with pytest.raises(NumericError):
        matcher.match_score(H, G, W)
    with pytest.raises(NumericError):
        matcher.pair_score_vars(ad.Var(H.reshape(-1, 6)), ad.Var(G.reshape(-1, 6)),
                                ad.Var(W), False, (np.arange(12).reshape(3, 4),) * 2)


def batched_setup(seed=24, d=6, P=3):
    """Eight entities of P rows in one matrix E, six pairs that reuse them."""
    rng = stream_rng(seed, "init")
    params = {"E": rng.normal(size=(8 * P, d)), "W": rng.normal(size=(d, d))}
    ents = np.arange(8 * P).reshape(8, P)
    h_rows = ents[[0, 0, 1, 2, 3, 3]]
    g_rows = ents[[4, 1, 1, 5, 6, 0]]
    weights = rng.normal(size=(6, 1))
    return params, h_rows, g_rows, weights


@pytest.mark.parametrize("leak_key", [None, "zero"])   # no leak slot; the zero leak
@pytest.mark.parametrize("broadcast", [False, True])
def test_batched_pair_score_vars_gradients(leak_key, broadcast):
    params, h_rows, g_rows, weights = batched_setup()
    leaky = leak_key == "zero"
    if broadcast:
        h_rows = h_rows[:1]          # entity 0 against every G entity

    def builder(v):
        s = matcher.pair_score_vars(v["E"], v["E"], v["W"], leaky, (h_rows, g_rows))
        return ref.sum_all(ref.mul(weights, s))

    report = ad.finite_diff_check(builder, params, eps=1e-5)
    assert report.max_rel_error < 1e-4, str(report)

    # reference: one single-pair node per pair, gradients summed by hand; the
    # second round zeroes entity 1, so the pairs using it score a constant 0
    for zeroed in (False, True):
        if zeroed:
            params["E"][3:6] = 0.0
        _, got = ad.grad(builder, params)
        want = {name: np.zeros_like(value) for name, value in params.items()}
        for b in range(len(g_rows)):
            hr = h_rows[min(b, len(h_rows) - 1)]
            pair = {"H": params["E"][hr], "G": params["E"][g_rows[b]], "W": params["W"]}
            _, g = ad.grad(lambda v: ref.mul(matcher.pair_score_vars(
                v["H"], v["G"], v["W"], leaky), weights[b, 0]), pair)
            np.add.at(want["E"], hr, g["H"])
            np.add.at(want["E"], g_rows[b], g["G"])
            want["W"] += g["W"]
        for name in params:
            assert np.max(np.abs(got[name] - want[name])) < 1e-12, (zeroed, name)
        if zeroed:
            assert np.array_equal(got["E"][3:6], np.zeros((3, 6)))


def test_batched_pair_score_vars_is_one_tape_node():
    params, h_rows, g_rows, _ = batched_setup()
    E, W = ad.Var(params["E"]), ad.Var(params["W"])
    s = matcher.pair_score_vars(E, E, W, False, (h_rows, g_rows))
    assert s.shape == (len(g_rows), 1)
    assert len(ad._topo_order(s)) == 3


def test_tied_maxima_route_gradient_to_first():
    # duplicate rows tie for the max match; the analytic backward must pick
    # the first maximum, as the composite reference ops (ref.max_axis) do
    def tape_reference(v):
        L = ref.matmul(ref.matmul(v["H"], v["W"]), ref.transpose(v["G"]))
        a_h = ref.max_axis(ref.softmax_rows(L), axis=1)
        a_g = ref.max_axis(ref.softmax_cols(L), axis=0)
        h = ref.matmul(ref.transpose(a_h), v["H"])
        g = ref.matmul(a_g, v["G"])
        norms = ref.mul(ref.sqrt(ref.sum_all(ref.square(h))),
                        ref.sqrt(ref.sum_all(ref.square(g))))
        return ref.div(ref.sum_all(ref.mul(h, g)), norms)

    H, G, W = rand_instance(20, P=3, Q=3)
    for params in ({"H": np.vstack([H[0], H[0]]), "G": G, "W": W},
                   {"H": H, "G": np.vstack([G[0], G[0]]), "W": W}):
        want_value, want = ad.grad(tape_reference, params)
        got_value, got = ad.grad(
            lambda v: matcher.pair_score_vars(v["H"], v["G"], v["W"]), params)
        assert abs(got_value - want_value) < 1e-12
        for name in params:
            assert np.max(np.abs(got[name] - want[name])) < 1e-10, name
