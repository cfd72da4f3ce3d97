import dataclasses
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


def pair_rows(H, G):
    """pair_score_vars' rows for one pair, every row of H against every row of
    G, with H's rows and then G's stacked in one matrix."""
    P, Q = H.shape[0], G.shape[0]
    return np.arange(P)[None], P + np.arange(Q)[None, None]


def pair_vars(H, G, W, leaky):
    """pair_score_vars of the one pair H, G: a (1, 1) score Var."""
    return matcher.pair_score_vars(ref.stack_rows(H, G), W, leaky, pair_rows(H, G))


def test_single_pair_no_leaky():
    H, G, W = rand_instance(0, P=1, Q=1)
    res = ref.match_pair(H, G, W)
    assert np.array_equal(res.m_fwd, [[1.0]])
    assert np.array_equal(res.m_bwd, [[1.0]])
    assert np.array_equal(res.h_bar, H[0])
    assert np.array_equal(res.g_bar, G[0])
    assert res.a_h[0] == 1.0 and res.a_g[0] == 1.0


def test_zero_logits_with_leaky_split_evenly():
    rng = stream_rng(1, "init")
    H = rng.normal(size=(2, 6))
    G = rng.normal(size=(3, 6))
    res = ref.match_pair(H, G, np.zeros((6, 6)), leaky=True)
    assert np.allclose(res.m_fwd, 1 / 3, atol=1e-15)
    assert np.allclose(res.leak_fwd, 1 / 3, atol=1e-15)
    assert np.allclose(res.m_bwd, 1 / 4, atol=1e-15)
    assert np.allclose(res.leak_bwd, 1 / 4, atol=1e-15)


def test_matrix_form_equals_scalar_form():
    H, G, W = rand_instance(2)
    res = ref.match_pair(H, G, W)
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
        res = ref.match_pair(H, G, W, leaky=True)
        m_fwd, m_bwd, leak_fwd, leak_bwd = scalar_match_oracle(H, G, W, np.zeros(6))
        assert np.max(np.abs(res.m_fwd - m_fwd)) < 1e-12
        assert np.max(np.abs(res.m_bwd - m_bwd)) < 1e-12
        assert np.max(np.abs(res.leak_fwd - leak_fwd)) < 1e-12
        assert np.max(np.abs(res.leak_bwd - leak_bwd)) < 1e-12


def test_stochasticity_without_leaky():
    H, G, W = rand_instance(3)
    res = ref.match_pair(H, G, W)
    assert np.max(np.abs(res.m_fwd.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(res.m_bwd.sum(axis=1) - 1.0)) < 1e-12


def test_stochasticity_with_leaky():
    H, G, W = rand_instance(4)
    res = ref.match_pair(H, G, W, leaky=True)
    assert np.max(np.abs(res.m_fwd.sum(axis=0) + res.leak_fwd - 1.0)) < 1e-12
    assert np.max(np.abs(res.m_bwd.sum(axis=1) + res.leak_bwd - 1.0)) < 1e-12


def test_aggregation_matches_oracle():
    H, G, W = rand_instance(5)
    res = ref.match_pair(H, G, W)
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
    res = ref.match_pair(H, G, rng.normal(size=(8, 8)))
    cross = np.linalg.norm(np.outer(res.h_bar, row) - np.outer(row, res.h_bar))
    assert cross < 1e-12  # h_bar is a multiple of the repeated row


def single_context_score(u, v):
    """Score of one context against one: both weights are 1, so this is the
    plain cosine of u and v."""
    return ref.match_pair(np.atleast_2d(u), np.atleast_2d(v), np.eye(len(u))).score


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
        assert ref.match_pair(params["H"], params["G"], params["W"]).score == 0.0
        assert zero_norm_warnings() == 1
        value, grads = ad.grad(lambda v: pair_vars(v["H"], v["G"], v["W"], False), params)
        assert value == 0.0
        assert zero_norm_warnings() == 1
    for name, g in grads.items():
        assert np.array_equal(g, np.zeros_like(params[name])), name


def test_nonfinite_score_raises():
    for case in ("nan in H", "inf in G", "logit overflow"):
        H, G, W = rand_instance(17)
        if case == "nan in H":
            H[1, 2] = np.nan
        elif case == "inf in G":
            G[2, 1] = np.inf
        else:
            H[1], G[2] = 1e200, 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(H @ W @ G.T).all(), case
            for leaky in (False, True):
                with pytest.raises(NumericError):
                    ref.match_pair(H, G, W, leaky)
                with pytest.raises(NumericError):
                    pair_vars(ad.Var(H), ad.Var(G), ad.Var(W), leaky)


def test_swap_symmetry_with_transposed_bilinear():
    for seed in range(10):
        H, G, W = rand_instance(seed, P=6, Q=3)
        for leaky in (False, True):
            ab = ref.match_pair(H, G, W, leaky)
            ba = ref.match_pair(G, H, W.T, leaky)
            assert abs(ab.score - ba.score) < 1e-12
            assert np.max(np.abs(ab.m_fwd - ba.m_bwd.T)) < 1e-12
            assert np.max(np.abs(ab.m_bwd - ba.m_fwd.T)) < 1e-12


def test_swap_symmetry_with_symmetric_bilinear():
    rng = stream_rng(11, "init")
    H = rng.normal(size=(4, 8))
    G = rng.normal(size=(5, 8))
    A = rng.normal(size=(8, 8))
    W = A + A.T
    ab = ref.match_pair(H, G, W)
    ba = ref.match_pair(G, H, W)
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
        return ref.match_pair(H_rows, G, W, leaky).g_bar

    H_plus = np.concatenate([H, junk], axis=0)
    drift_plain = np.linalg.norm(g_bar(H_plus, False) - g_bar(H, False))
    drift_leaky = np.linalg.norm(g_bar(H_plus, True) - g_bar(H, True))
    assert drift_leaky < drift_plain


def test_dimension_mismatches_rejected():
    rng = stream_rng(13, "init")
    H = rng.normal(size=(2, 3, 8))
    HW, G = H @ np.eye(8), rng.normal(size=(2, 4, 5, 8))
    assert matcher.match_score(H, HW, G).score.shape == (8,)
    for args in (
            (H, HW, rng.normal(size=(2, 4, 5, 6))),          # context dims differ
            (H[:, :0], HW[:, :0], G),                          # no contexts on a side
            (H, HW, G[:, :, :0]),
            # the retired forms: one 2-D pair, a 2-D H, and pair stacks with a 3-D G
            (H[0], HW[0], G[0, 0]), (H[0], HW[0], G[0]), (H, HW, G[:, 0]),
            (H[:1], HW[:1], G[:, 0]),
            # a held projection must be shaped like the side it projects
            (H, HW.transpose(0, 2, 1), G), (H, HW[:1], G), (H, HW[0], G),
            # groups: each query has its own candidates, never one stack broadcast
            (H, HW, G[:1]), (H[:1], HW[:1], G)):
        with pytest.raises(ShapeError):
            matcher.match_score(*args)
    # pair_score_vars projects its left side: the bilinear matrix must be d x d
    for W in (np.eye(7), np.ones((8, 7))):
        with pytest.raises(ShapeError):
            pair_vars(ad.Var(H[0]), ad.Var(G[0, 0]), ad.Var(W), False)


def test_gradients_through_full_match_pipeline():
    rng = stream_rng(16, "init")
    params = {
        "H": rng.normal(size=(4, 6)),
        "G": rng.normal(size=(3, 6)),
        "W": rng.normal(size=(6, 6)),
    }
    for leaky in (False, True):
        def builder(v):
            return pair_vars(v["H"], v["G"], v["W"], leaky)
        report = ad.finite_diff_check(builder, params, eps=1e-5)
        assert report.max_rel_error < 1e-4, str(report)


def test_pair_score_is_one_tape_node():
    H, G, W = rand_instance(19)
    E, W = ad.Var(np.vstack([H, G])), ad.Var(W)
    inputs = {id(v) for v in (E, W)}
    for leaky in (False, True):
        s = matcher.pair_score_vars(E, W, leaky, pair_rows(H, G))
        added = [n for n in ad._topo_order(s) if id(n) not in inputs]
        assert len(added) == 1


# ---------------------------------------------------------------------------
# groups of pairs: the one-pair calls above are the reference

def group_instance(seed, N, K, P, Q, d=6):
    """N queries H (N, P, d), each with its own K candidates G (N, K, Q, d)."""
    rng = stream_rng(seed, "init", N, K, P, Q)
    return rng.normal(size=(N, P, d)), rng.normal(size=(N, K, Q, d)), rng.normal(size=(d, d))


@pytest.mark.parametrize("N,K,P,Q", [(1, 1, 5, 4), (6, 6, 5, 3), (6, 6, 4, 4),
                                     (1, 7, 4, 6), (5, 1, 3, 3), (1, 9, 20, 21),
                                     (9, 9, 21, 20), (4, 1, 8, 8)])
def test_batched_match_equals_per_pair_loop(N, K, P, Q):
    H, G, W = group_instance(21, N, K, P, Q)
    for leaky in (False, True):
        got = matcher.match_score(H, H @ W, G, leaky)
        assert got.score.shape == (N * K,) and got.m_fwd.shape == (N * K, P, Q), leaky
        for b in range(N * K):
            Hb, Gb = H[b // K], G[b // K, b % K]
            want = ref.match_pair(Hb, Gb, W, leaky)
            assert got.score[b] == want.score, leaky
            for field in ("m_fwd", "m_bwd", "leak_fwd", "leak_bwd", "a_h", "a_g"):
                assert np.array_equal(getattr(got, field)[b], getattr(want, field)), (leaky, field)
            oracle = scalar_match_oracle(Hb, Gb, W, np.zeros(W.shape[0]) if leaky else None)
            for field, exact in zip(("m_fwd", "m_bwd", "leak_fwd", "leak_bwd"), oracle):
                assert np.max(np.abs(getattr(got, field)[b] - exact)) < 1e-12, (leaky, field)


def bit_instance(seed, N, K, P, Q, scale, d=6):
    """Groups whose logits hold exact ties and all-negative rows and columns.

    h_1 repeats h_0 when P > 2, and g_1 repeats g_0 when Q > 2.  The first
    two coordinates carry an offset through an identity block of W: h_{P-1}
    gets -50 against every g, and g_{Q-1} -50 against every h, so their
    logits are all negative and the leak slot holds the row's and the
    column's max.  W is scaled by scale.
    """
    rng = stream_rng(seed, "init", N, K, P, Q)
    H, G = rng.normal(size=(N, P, d)), rng.normal(size=(N, K, Q, d))
    W = rng.normal(size=(d, d))
    H[..., :2], G[..., :2] = (0.0, 1.0), (1.0, 0.0)
    H[:, -1, 0], G[:, :, -1, 1] = -50.0, -50.0
    if P > 2:
        H[:, 1] = H[:, 0]
    if Q > 2:
        G[:, :, 1] = G[:, :, 0]
    W[:2], W[:, :2] = 0.0, 0.0
    W[0, 0] = W[1, 1] = 1.0
    return H, G, scale * W


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def check_bits_against_reference(H, G, W, leaky):
    """The groups H (N, P, d) and G (N, K, Q, d) against the reference
    forward, which takes them as N K pairs, and each pair's backward."""
    N, K, Q, d = G.shape
    HW = H @ W
    # the pairs: query n repeated for each of its K candidates
    Hp, HWp, Gp = np.repeat(H, K, axis=0), np.repeat(HW, K, axis=0), G.reshape(N * K, Q, d)
    want, (got, norms) = ref.match(Hp, HWp, Gp, leaky), matcher._match(H, HW, G, leaky)
    for f in dataclasses.fields(want):
        assert same_bits(getattr(got, f.name), getattr(want, f.name)), f.name
    # the backward reads the forward's fields, whatever their memory layout
    g = stream_rng(0, "init", *H.shape).normal(size=(len(want.score), 1))
    want_norms = matcher._norms(want.h_bar, want.g_bar)
    for name, x, y in zip(("dH", "dG", "dW"),
                          matcher._score_backward(got, norms, Hp, HWp, Gp, W, g),
                          matcher._score_backward(want, want_norms, Hp, HWp, Gp, W, g)):
        assert same_bits(x, y), name


SIZES = (1, 5, 7, 8, 20, 21)


@pytest.mark.parametrize("P", SIZES)
@pytest.mark.parametrize("Q", SIZES)
@pytest.mark.parametrize("N,K", [(1, 1), (1, 9), (9, 1), (9, 9)])
def test_match_keeps_the_reference_bits(P, Q, N, K):
    for leaky in (False, True):
        for scale in (1e-3, 0.1, 1.0, 30.0):
            H, G, W = bit_instance(25, N, K, P, Q, scale)
            L = (H @ W)[:, None] @ G.transpose(0, 1, 3, 2)
            assert (L[:, :, -1] < 0).all() and (L[..., -1] < 0).all()
            if P > 2:
                assert np.array_equal(L[:, :, 0], L[:, :, 1])
            if Q > 2:
                assert np.array_equal(L[..., 0], L[..., 1])
            with np.errstate(under="ignore"):
                check_bits_against_reference(H, G, W, leaky)


# evaluate's ranking queries as groups, N queries of K candidates each:
# serve_rank's 75 of 50 at P 5, d_ce 32, and train_paper's 15 of 14 at P 20, d_ce 256
GROUPS = {3750: (75, 50), 14: (15, 14)}


@pytest.mark.parametrize("N,K,P,d", [(1, 3750, 5, 32), (1, 50, 5, 32), (1, 14, 20, 256)])
def test_match_keeps_the_reference_bits_at_serving_shapes(N, K, P, d):
    # one query against its candidates, and every pair of an evaluate in one group
    H, G, W = group_instance(26, N, K, P, P, d)
    for leaky in (False, True):
        check_bits_against_reference(H, G, W / np.sqrt(d), leaky)
    if K not in GROUPS:
        return
    # N groups, each query against its own K candidates: the rows of group n
    # equal query n's call alone in every field
    N, K = GROUPS[K]
    rng = stream_rng(26, "init", N, K)
    H, G, W = rng.normal(size=(N, P, d)), rng.normal(size=(N, K, P, d)), W / np.sqrt(d)
    HW = H @ W
    for leaky in (False, True):
        got = matcher.match_score(H, HW, G, leaky)
        assert got.score.shape == (N * K,) and got.m_fwd.shape == (N * K, P, P)
        for n in range(N):
            want = matcher.match_score(H[n:n + 1], HW[n:n + 1], G[n:n + 1], leaky)
            for f in dataclasses.fields(want):
                assert same_bits(getattr(got, f.name)[n * K:(n + 1) * K],
                                 getattr(want, f.name)), (n, f.name)


def test_batch_pair_counts_must_agree():
    H, _, W = group_instance(22, 3, 2, 3, 3)
    _, G, _ = group_instance(22, 2, 2, 3, 3)
    with pytest.raises(ShapeError):
        matcher.match_score(H, H @ W, G)
    E = stream_rng(22, "init").normal(size=(8, 6))
    rows = (np.zeros((3, 3), dtype=np.intp), np.zeros((2, 1, 3), dtype=np.intp))
    with pytest.raises(ShapeError):
        matcher.pair_score_vars(ad.Var(E), ad.Var(W), False, rows)


def test_zero_norm_pair_in_batch_scores_zero_alone(caplog):
    H, G, W = group_instance(23, 3, 2, 4, 4)
    H[1] = 0.0                       # both pairs of query 1
    with caplog.at_level("WARNING"):
        got = matcher.match_score(H, H @ W, G)
    assert sum("zero-norm" in r.getMessage() for r in caplog.records) == 1
    assert got.score[2] == got.score[3] == 0.0
    for b in (0, 1, 4, 5):
        assert got.score[b] == ref.match_pair(H[b // 2], G[b // 2, b % 2], W).score
    H[2, 1, 3] = np.nan
    with pytest.raises(NumericError):
        matcher.match_score(H, H @ W, G)
    with pytest.raises(NumericError):
        matcher.pair_score_vars(ad.Var(np.vstack([H.reshape(-1, 6), G.reshape(-1, 6)])),
                                ad.Var(W), False, (np.arange(12).reshape(3, 4),
                                                   12 + np.arange(24).reshape(3, 2, 4)))


@pytest.mark.parametrize("N,K", [(0, 0), (1, 0), (0, 1), (0, 2)])
def test_empty_batch_scores_nothing(N, K):
    # no groups, or one query with no candidates
    H, G, W = group_instance(27, N, K, 3, 4)
    E = stream_rng(27, "init").normal(size=(8, 6))
    rows = (np.zeros((N, 3), dtype=np.intp), np.zeros((N, K, 4), dtype=np.intp))
    for leaky in (False, True):
        got = matcher.match_score(H, H @ W, G, leaky)
        assert {f.name: getattr(got, f.name).shape for f in dataclasses.fields(got)} == {
            "m_fwd": (0, 3, 4), "m_bwd": (0, 3, 4), "leak_fwd": (0, 4), "leak_bwd": (0, 3),
            "a_h": (0, 3), "a_g": (0, 4), "h_bar": (0, 6), "g_bar": (0, 6), "score": (0,)}
        s = matcher.pair_score_vars(ad.Var(E), ad.Var(W), leaky, rows)
        assert s.shape == (N, K)
        value, grads = ad.grad(lambda v: ref.sum_all(matcher.pair_score_vars(
            v["E"], v["W"], leaky, rows)), {"E": E, "W": W})
        assert value == 0.0
        assert not grads["E"].any() and not grads["W"].any()


def batched_setup(K, seed=24, d=6, P=3):
    """Eight entities of P rows in one matrix E and four groups that reuse
    them, each left entity against the first K of its candidates: the lefts
    are candidates too, and entity 1 is on both sides."""
    rng = stream_rng(seed, "init")
    params = {"E": rng.normal(size=(8 * P, d)), "W": rng.normal(size=(d, d))}
    ents = np.arange(8 * P).reshape(8, P)
    left = ents[[0, 0, 1, 3]]
    cands = ents[[[4, 1, 2], [1, 5, 0], [1, 6, 3], [2, 0, 7]]][:, :K]
    weights = rng.normal(size=(4, K))
    return params, left, cands, weights


@pytest.mark.parametrize("leak_key", [None, "zero"])   # no leak slot; the zero leak
@pytest.mark.parametrize("broadcast", [False, True])
def test_batched_pair_score_vars_gradients(leak_key, broadcast):
    leaky = leak_key == "zero"
    for K in (1, 2, 3):
        check_grouped_gradients(K, leaky, broadcast)


def check_grouped_gradients(K, leaky, broadcast):
    params, left, cands, weights = batched_setup(K)
    if broadcast:
        left = left[[0] * len(left)]                # entity 0 in every group

    def builder(v):
        s = matcher.pair_score_vars(v["E"], v["W"], leaky, (left, cands))
        return ref.sum_all(ref.mul(weights, s))

    report = ad.finite_diff_check(builder, params, eps=1e-5)
    assert report.max_rel_error < 1e-4, (K, str(report))

    # reference: each pair composed from the oracle's tape ops, gradients
    # summed by hand; the second round zeroes entity 1, so the pairs using it
    # score a constant 0
    for zeroed in (False, True):
        if zeroed:
            params["E"][3:6] = 0.0
        _, got = ad.grad(builder, params)
        want = {name: np.zeros_like(value) for name, value in params.items()}
        for n, k in np.ndindex(cands.shape[:2]):
            hr, gr = left[n], cands[n, k]
            pair = {"H": params["E"][hr], "G": params["E"][gr], "W": params["W"]}
            _, g = ad.grad(lambda v: ref.mul(ref.pair_score(v["H"], v["G"], v["W"], leaky),
                                             weights[n, k]), pair)
            np.add.at(want["E"], hr, g["H"])
            np.add.at(want["E"], gr, g["G"])
            want["W"] += g["W"]
        for name in params:
            assert np.max(np.abs(got[name] - want[name])) < 1e-12, (K, zeroed, name)
        if zeroed:
            assert np.array_equal(got["E"][3:6], np.zeros((3, 6)))


def test_batched_pair_score_vars_is_one_tape_node():
    params, left, cands, _ = batched_setup(3)
    E, W = ad.Var(params["E"]), ad.Var(params["W"])
    s = matcher.pair_score_vars(E, W, False, (left, cands))
    assert s.shape == cands.shape[:2]
    assert len(ad._topo_order(s)) == 3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("leaky", [False, True])
def test_groups_of_two_keep_the_bits_of_one_node_per_column(dtype, leaky):
    """A node of groups of two candidates gives the bits of one
    single-candidate node per column whose shares the tape sums in column
    order: column 0's left share, its candidates' share, then column 1's,
    and dW column by column.  That is how a triplet batch, (negative,
    positive) groups, was taped as two nodes.  Each entity here is a left
    and a candidate in both columns, so another order rounds differently."""
    rng = stream_rng(28, "init")
    E, W = rng.normal(size=(12, 8)).astype(dtype), rng.normal(size=(8, 8)).astype(dtype)
    ents = np.arange(12).reshape(4, 3)
    left = ents[[0, 1, 2, 3, 0, 3]]
    cands = ents[[[1, 2], [0, 2], [3, 1], [0, 1], [2, 3], [1, 0]]]
    g = rng.normal(size=(6, 2)).astype(dtype)
    s = matcher.pair_score_vars(ad.Var(E), ad.Var(W), leaky, (left, cands))
    dE, dW = s.backward_fn(g)
    # column k alone, with its left rows in one copy of E and its candidate
    # rows in another, so the node's gradient splits into the two shares
    want_E, want_W = None, None
    for k in range(2):
        sk = matcher.pair_score_vars(ref.stack_rows(E, E), ad.Var(W), leaky,
                                     (left, len(E) + cands[:, k:k + 1]))
        assert same_bits(s.value[:, k], sk.value[:, 0]), k
        dEk, dWk = sk.backward_fn(g[:, k:k + 1])
        for share in (dEk[:len(E)], dEk[len(E):]):
            want_E = share if want_E is None else want_E + share
        want_W = dWk if want_W is None else want_W + dWk
    assert dE.dtype == dW.dtype == dtype
    assert same_bits(dE, want_E) and same_bits(dW, want_W)


def test_tied_maxima_route_gradient_to_first():
    # duplicate rows tie for the max match; the analytic backward must pick
    # the first maximum, as the composite reference ops (ref.max_axis) do
    H, G, W = rand_instance(20, P=3, Q=3)
    for params in ({"H": np.vstack([H[0], H[0]]), "G": G, "W": W},
                   {"H": H, "G": np.vstack([G[0], G[0]]), "W": W}):
        want_value, want = ad.grad(lambda v: ref.pair_score(v["H"], v["G"], v["W"]), params)
        got_value, got = ad.grad(lambda v: pair_vars(v["H"], v["G"], v["W"], False), params)
        assert abs(got_value - want_value) < 1e-12
        for name in params:
            assert np.max(np.abs(got[name] - want[name])) < 1e-10, name
