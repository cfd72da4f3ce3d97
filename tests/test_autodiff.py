"""The gradient tape, and the reference ops in `oracles` that the matcher
and encoder tests compare against (their softmax forward is the one of the
matcher's reference forward, `oracles.match`): both are checked against
loop oracles and central differences."""

import numpy as np
import pytest

from synmatch import autodiff as ad
from synmatch.errors import NumericError, ShapeError

import oracles as ref


def matmul_oracle(a, b):
    # naive triple loop, kept independent of the implementation
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    assert np.array_equal(ref.matmul(np.eye(2), a), a)


def test_matmul_hand_case():
    out = ref.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]]))
    assert np.array_equal(out, np.array([[17.0], [39.0]]))


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(3, 5))
    assert np.max(np.abs(ref.matmul(a, b) - matmul_oracle(a, b))) < 1e-12


def test_matmul_oracle_property_random_shapes():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, k, m = rng.integers(1, 33, size=3)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, m))
        got = ref.matmul(a, b)
        want = matmul_oracle(a, b)
        scale = max(1.0, np.abs(want).max())
        assert np.max(np.abs(got - want)) / scale < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        ref.matmul(np.zeros((7, 3)), np.zeros((5, 5)))
    assert "(7, 3)" in str(err.value) and "(5, 5)" in str(err.value)
    with pytest.raises(ShapeError):
        ref.matmul(ad.Var(np.zeros((2, 4))), ad.Var(np.zeros((3, 2))))


def test_softmax_uniform_row():
    out = ref.softmax_rows(np.array([[0.0, 0.0, 0.0]]))
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_extreme_row_no_nan():
    out = ref.softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_softmax_direct_evaluation():
    x = np.array([[1.0, 2.0, 3.0]])
    e = np.exp(x[0])  # direct unshifted oracle
    assert np.max(np.abs(ref.softmax_rows(x)[0] - e / e.sum())) < 1e-15
    assert np.allclose(ref.softmax_rows(x)[0],
                       [0.09003057, 0.24472847, 0.66524096], atol=1e-8)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n, m = rng.integers(1, 20, size=2)
        x = rng.normal(scale=50.0, size=(n, m))
        y = ref.softmax_rows(x)
        assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-12
        yc = ref.softmax_cols(x)
        assert np.max(np.abs(yc.sum(axis=0) - 1.0)) < 1e-12


def test_grad_sum_is_ones():
    p = np.arange(6.0).reshape(2, 3)
    val, gs = ad.grad(lambda v: ref.sum_all(v["p"]), {"p": p})
    assert val == p.sum()
    assert np.array_equal(gs["p"], np.ones((2, 3)))


def test_grad_half_square_norm_is_param():
    rng = np.random.default_rng(4)
    p = rng.normal(size=(3, 4))
    _, gs = ad.grad(lambda v: ref.mul(ref.sum_all(ref.square(v["p"])), 0.5), {"p": p})
    assert np.allclose(gs["p"], p, atol=1e-15)


def test_grad_deterministic_bitwise():
    rng = np.random.default_rng(5)
    params = {"w": rng.normal(size=(4, 4)), "w2": rng.normal(size=(4, 6))}
    x = rng.normal(size=(6, 4))

    def builder(v):
        h = ref.max_axis(ref.matmul(ref.matmul(ad.Var(x), v["w"]), v["w2"]), 0)
        return ref.sum_all(ref.square(ref.softmax_rows(h)))

    v1, g1 = ad.grad(builder, params)
    v2, g2 = ad.grad(builder, params)
    assert v1 == v2
    for k in params:
        assert np.array_equal(g1[k], g2[k])


def test_grad_nonfinite_loss_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError):
            ad.grad(lambda v: ref.div(ref.sum_all(v["p"]), ad.Var(0.0)), {"p": np.ones((1, 1))})


def test_finite_diff_quadratic():
    rng = np.random.default_rng(6)
    p = rng.normal(size=(3, 3))
    rep = ad.finite_diff_check(
        lambda v: ref.mul(ref.sum_all(ref.square(v["p"])), 0.5), {"p": p}, eps=1e-5)
    assert rep.max_rel_error < 1e-8


def test_finite_diff_softmax_chain():
    rng = np.random.default_rng(7)
    params = {"w1": rng.normal(size=(4, 5)), "w2": rng.normal(size=(5, 3))}
    x = rng.normal(size=(2, 4))

    def builder(v):
        h = ref.softmax_rows(ref.matmul(ad.Var(x), v["w1"]))
        return ref.sum_all(ref.square(ref.softmax_cols(ref.matmul(h, v["w2"]))))

    rep = ad.finite_diff_check(builder, params, eps=1e-4)
    assert rep.max_rel_error < 1e-6
    assert rep.worst_param in params


def _check_op(builder, params, tol=1e-4):
    rep = ad.finite_diff_check(builder, params, eps=1e-4)
    assert rep.max_rel_error < tol, str(rep)


def test_op_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    c = np.abs(rng.normal(size=(3, 4))) + 0.5     # away from sqrt's and div's poles
    _check_op(lambda v: ref.sum_all(ref.square(ref.matmul(v["a"], v["b"]))), {"a": a, "b": b})
    _check_op(lambda v: ref.sum_all(ref.square(ref.softmax_rows(v["a"]))), {"a": a})
    _check_op(lambda v: ref.sum_all(ref.square(ref.softmax_cols(v["a"]))), {"a": a})
    _check_op(lambda v: ref.sum_all(ref.square(ref.max_axis(v["a"], 0))), {"a": a})
    _check_op(lambda v: ref.sum_all(ref.square(ref.max_axis(v["a"], 1))), {"a": a})
    _check_op(lambda v: ref.sum_all(ref.sqrt(v["c"])), {"c": c})
    _check_op(lambda v: ref.sum_all(ref.div(v["a"], ref.square(v["c"]))), {"a": a, "c": c})
    _check_op(lambda v: ref.sum_all(ref.mul(v["a"], v["c"])), {"a": a, "c": c})
    _check_op(lambda v: ref.sum_all(ref.square(ref.transpose(v["a"]))), {"a": a})


def test_cosine_composite_gradient():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(1, 6))
    g = rng.normal(size=(1, 6))

    def builder(v):
        dot = ref.sum_all(ref.mul(v["h"], v["g"]))
        nh = ref.sqrt(ref.sum_all(ref.square(v["h"])))
        ng = ref.sqrt(ref.sum_all(ref.square(v["g"])))
        return ref.div(dot, ref.mul(nh, ng))

    _check_op(builder, {"h": h, "g": g})


def test_binary_reference_ops_reject_mismatched_shapes():
    with pytest.raises(ShapeError):
        ref.mul(ad.Var(np.ones((2, 3))), ad.Var(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        ref.div(ad.Var(np.ones((1, 1))), ad.Var(np.ones((2, 3))))


def test_tape_records_no_ops_of_its_own():
    # every node comes from a module with a hand-written backward
    for name in ("add", "sub", "mul", "scale", "square", "relu", "sum_all",
                 "_unbroadcast", "_check_broadcast"):
        assert not hasattr(ad, name), name
    for dunder in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert not hasattr(ad.Var, dunder), dunder


def test_scalar_item_and_shapes():
    v = ad.Var(3.5)
    assert v.shape == (1, 1) and v.item() == 3.5
    assert ad.Var([1.0, 2.0]).shape == (1, 2)
    with pytest.raises(ShapeError):
        ad.Var(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        ad.Var(np.zeros((2, 2))).item()
