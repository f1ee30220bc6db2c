from __future__ import annotations

import zlib

import numpy as np
import pytest

from spdpc import autodiff as ad


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        hi = f(x)
        flat[k] = orig - h
        lo = f(x)
        flat[k] = orig
        gflat[k] = (hi - lo) / (2.0 * h)
    return g


def assert_close_grad(analytic, numeric, abs_tol=1e-5, rel_tol=1e-4):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    err = np.abs(analytic - numeric)
    bound = np.maximum(abs_tol, rel_tol * np.abs(numeric))
    assert np.all(err <= bound), f"max err {err.max()} exceeds tolerance"


def mean(a):
    """Mean over every entry: the sum scaled by 1 / size."""
    a = ad.as_tensor(a)
    return ad.scale(ad.reduce_sum(a), 1.0 / a.size)


# ---------------------------------------------------------------------------
# forward values

def test_matmul_matches_hand_value():
    a = ad.matmul([[1.2, 1.0], [0.0, 1.0]], [1.0, 1.0])
    np.testing.assert_allclose(a.values, [2.2, 1.0], rtol=0, atol=1e-15)


def test_relu_zero_stays_zero():
    r = ad.relu([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(r.values, [0.0, 0.0, 3.0])


def test_eager_ops_do_not_record():
    out = ad.add(ad.square([1.0, 2.0]), [1.0, 1.0])
    assert out.tape is None
    np.testing.assert_array_equal(out.values, [2.0, 5.0])


def test_sum_mean_scale():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert ad.reduce_sum(x).item() == 10.0
    np.testing.assert_array_equal(ad.scale(x, -0.5).values, -0.5 * x)


def test_concat_narrow_transpose_forward():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(4.0).reshape(2, 2)
    cat = ad.concat([a, b], axis=1)
    assert cat.shape == (2, 5)
    np.testing.assert_array_equal(ad.narrow(cat, 1, 3, 5).values, b)
    np.testing.assert_array_equal(ad.transpose(a).values, a.T)


def test_reshape_forward_and_shape_error():
    a = np.arange(12.0).reshape(4, 3)
    out = ad.reshape(a, (2, 2, 3))
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.values, a.reshape(2, 2, 3))
    with pytest.raises(ad.ShapeError, match=r"\(4, 3\).*\(5, 2\)"):
        ad.reshape(a, (5, 2))
    tape = ad.Tape()
    with pytest.raises(ad.ShapeError):
        ad.reshape(tape.param(a), (2, 5))
    assert len(tape.nodes) == 1  # a rejected op records nothing


def test_l2norm_over_last_axis_of_a_block():
    block = np.array([[[3.0, 4.0], [0.0, 0.0]], [[6.0, 8.0], [1.0, 0.0]]])
    np.testing.assert_allclose(ad.l2norm(block).values, [[5.0, 0.0], [10.0, 1.0]],
                               atol=1e-15)


def test_l2norm_forward_rows_and_vector():
    v = ad.l2norm([3.0, 4.0])
    assert v.item() == pytest.approx(5.0, abs=1e-15)
    rows = ad.l2norm([[3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(rows.values, [5.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# backward: hand cases

def test_backward_relu_mask():
    tape = ad.Tape()
    w = tape.param([-1.0, 0.5, 2.0])
    root = ad.reduce_sum(ad.relu(w))
    grads = tape.backward(root)
    np.testing.assert_array_equal(grads[w.node], [0.0, 1.0, 1.0])


def test_backward_relu_at_kink_is_zero():
    tape = ad.Tape()
    w = tape.param([0.0])
    grads = tape.backward(ad.reduce_sum(ad.relu(w)))
    np.testing.assert_array_equal(grads[w.node], [0.0])


def test_backward_unused_param_gets_zero_adjoint():
    tape = ad.Tape()
    w = tape.param([1.0, 2.0])
    c = tape.param([3.0, 4.0])
    grads = tape.backward(ad.reduce_sum(c))
    np.testing.assert_array_equal(grads[w.node], [0.0, 0.0])


def test_backward_quadratic_form_matches_fd():
    rng = np.random.default_rng(0)
    W0 = rng.normal(size=(3, 4))
    x = rng.normal(size=4)

    def loss(Wv):
        return ad.reduce_sum(ad.square(ad.matmul(Wv, x))).item()

    tape = ad.Tape()
    W = tape.param(W0)
    grads = tape.backward(ad.reduce_sum(ad.square(ad.matmul(W, x))))
    assert_close_grad(grads[W.node], fd_gradient(loss, W0.copy()))


def test_backward_is_linear_in_the_root():
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=5)
    a, b = 2.5, -1.25
    tape = ad.Tape()
    w = tape.param(w0)
    f = ad.reduce_sum(ad.square(w))
    g = ad.reduce_sum(ad.relu(w))
    combined = ad.add(ad.scale(f, a), ad.scale(g, b))
    gf = tape.backward(f)[w.node]
    gg = tape.backward(g)[w.node]
    gc = tape.backward(combined)[w.node]
    np.testing.assert_allclose(gc, a * gf + b * gg, rtol=0, atol=1e-12)


def test_repeated_backward_identical():
    rng = np.random.default_rng(2)
    tape = ad.Tape()
    w = tape.param(rng.normal(size=(2, 3)))
    root = mean(ad.square(w))
    g1 = tape.backward(root)[w.node]
    g2 = tape.backward(root)[w.node]
    np.testing.assert_array_equal(g1, g2)


def test_param_reused_across_ops_accumulates():
    tape = ad.Tape()
    w = tape.param([2.0])
    # root = w^2 + 3w: derivative 2w + 3 = 7
    root = ad.add(ad.reduce_sum(ad.square(w)), ad.reduce_sum(ad.scale(w, 3.0)))
    np.testing.assert_allclose(tape.backward(root)[w.node], [7.0], atol=1e-15)


def test_gradient_maps_from_independent_tapes_merge_by_addition():
    w0 = np.array([1.0, -2.0, 0.5])
    t1, t2 = ad.Tape(), ad.Tape()
    w1, w2 = t1.param(w0), t2.param(w0)
    g1 = t1.backward(ad.reduce_sum(ad.square(w1)))[w1.node]
    g2 = t2.backward(ad.reduce_sum(ad.relu(w2)))[w2.node]
    combined = ad.Tape()
    w = combined.param(w0)
    both = ad.add(ad.reduce_sum(ad.square(w)), ad.reduce_sum(ad.relu(w)))
    np.testing.assert_allclose(combined.backward(both)[w.node], g1 + g2, atol=1e-15)


# ---------------------------------------------------------------------------
# backward: finite-difference sweeps per op

FUSED_SHIFT = 0.4


@pytest.mark.parametrize("case", [
    "add", "add_bias", "add_scalar", "subtract", "multiply", "multiply_bcast",
    "matmul_mm", "matmul_mv", "matmul_vm", "relu", "square", "sum", "mean",
    "scale", "concat", "narrow", "transpose", "l2norm_vec", "l2norm_rows",
    "reshape", "reshape_block", "l2norm_block", "sumsq", "relu_sumsq",
    "relu_sumsq_shift",
])
def test_single_op_gradients_match_fd(case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))

    def build(w):
        if case == "add":
            return ad.add(w, rng2)
        if case == "add_bias":
            return ad.add(w, bias)
        if case == "add_scalar":
            return ad.add(w, 1.5)
        if case == "subtract":
            return ad.subtract(rng2, w)
        if case == "multiply":
            return ad.multiply(w, rng2)
        if case == "multiply_bcast":
            return ad.multiply(w, bias)
        if case == "matmul_mm":
            return ad.matmul(w, mat)
        if case == "matmul_mv":
            return ad.matmul(w, vec)
        if case == "matmul_vm":
            return ad.matmul(vec4, w)
        if case == "relu":
            return ad.relu(w)
        if case == "square":
            return ad.square(w)
        if case == "sum":
            return w
        if case == "mean":
            return w
        if case == "scale":
            return ad.scale(w, -2.25)
        if case == "concat":
            return ad.concat([w, rng2], axis=1)
        if case == "narrow":
            return ad.narrow(w, 1, 1, 3)
        if case == "transpose":
            return ad.transpose(w)
        if case == "l2norm_vec":
            return ad.l2norm(ad.narrow(w, 0, 0, 1))
        if case == "l2norm_rows":
            return ad.l2norm(w)
        if case == "reshape":
            return ad.multiply(ad.reshape(w, (3, 4)), rng2.T)
        if case == "reshape_block":
            # (4, 3) -> (2, 2, 3), then a time slice the way the loss reads blocks
            return ad.narrow(ad.multiply(ad.reshape(w, (2, 2, 3)), bias), 1, 1, 2)
        if case == "l2norm_block":
            return ad.l2norm(ad.reshape(w, (2, 2, 3)))
        if case == "sumsq":
            return ad.sumsq(w, 0.75)
        if case == "relu_sumsq":
            return ad.relu_sumsq(w, 1.25)
        if case == "relu_sumsq_shift":
            return ad.relu_sumsq(w, 1.25, FUSED_SHIFT)
        raise AssertionError(case)

    if case == "l2norm_vec":
        w0 = rng.normal(size=(1, 3)) + 2.0  # keep away from the origin
    else:
        w0 = rng.normal(size=(4, 3))
    rng2 = rng.normal(size=(4, 3))
    bias = rng.normal(size=3)
    mat = rng.normal(size=(3, 5))
    vec = rng.normal(size=3)
    vec4 = rng.normal(size=4)
    # keep relu inputs away from the kink so the FD probe is valid
    if case == "relu":
        w0 = np.where(np.abs(w0) < 1e-3, 0.5, w0)
    if case.startswith("relu_sumsq"):
        kink = FUSED_SHIFT if case == "relu_sumsq_shift" else 0.0
        w0 = np.where(np.abs(w0 + kink) < 1e-3, 0.5, w0)

    def scalar(expr):
        return mean(ad.square(expr)) if case != "mean" else mean(expr)

    def feval(wv):
        return scalar(build(ad.Tensor(wv))).item()

    tape = ad.Tape()
    w = tape.param(w0)
    grads = tape.backward(scalar(build(w)))
    assert_close_grad(grads[w.node], fd_gradient(feval, w0.copy()))


def unfused_sumsq(v, weight):
    """The chain ``sumsq`` stands for: scale(sum(square(v)), weight)."""
    return ad.scale(ad.reduce_sum(ad.square(v)), weight)


def unfused_relu_sumsq(v, weight, shift=0.0):
    """The chain ``relu_sumsq`` stands for: add, relu, square, sum, scale."""
    if shift:
        v = ad.add(v, shift)
    return unfused_sumsq(ad.relu(v), weight)


@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_fused_squares_are_the_unfused_chains_bit_for_bit(shift):
    rng = np.random.default_rng(21)
    for _ in range(20):
        block = rng.normal(size=(5, 4, 3))
        block[rng.random(block.shape) < 0.2] = 0.0
        block[rng.random(block.shape) < 0.2] = -shift  # exactly on the relu kink
        weight = float(rng.uniform(0.1, 50.0))
        outer = float(rng.normal())  # an upstream adjoint of either sign
        pairs = ((lambda v: ad.sumsq(v, weight), lambda v: unfused_sumsq(v, weight)),
                 (lambda v: ad.relu_sumsq(v, weight, shift),
                  lambda v: unfused_relu_sumsq(v, weight, shift)))
        for fused, chain in pairs:
            bits = []
            for f in (fused, chain):
                tape = ad.Tape()
                w = tape.param(block)
                root = ad.scale(f(w), outer)
                bits.append((root.values.tobytes(), tape.backward(root)[w.node].tobytes(),
                             f(block).values.tobytes()))
                if f is fused:
                    assert [n.kind for n in tape.nodes][1:] in (["sumsq", "scale"],
                                                                ["relu_sumsq", "scale"])
            assert bits[0] == bits[1]


def test_l2norm_gradient_zero_at_origin():
    tape = ad.Tape()
    w = tape.param([[0.0, 0.0], [3.0, 4.0]])
    root = ad.reduce_sum(ad.l2norm(w))
    g = tape.backward(root)[w.node]
    np.testing.assert_allclose(g, [[0.0, 0.0], [0.6, 0.8]], atol=1e-12)


def test_composed_random_graphs_match_fd():
    # Random two-layer relu chains with concat/slice mixed in.
    for trial in range(25):
        rng = np.random.default_rng(100 + trial)
        batch = int(rng.integers(1, 5))
        din = int(rng.integers(1, 5))
        dh = int(rng.integers(1, 6))
        x = rng.normal(size=(batch, din))
        w1_0 = rng.uniform(-1, 1, size=(dh, din))
        b1_0 = rng.uniform(-1, 1, size=dh)
        w2_0 = rng.uniform(-1, 1, size=(1, dh))

        def run(w1v, b1v, w2v):
            h = ad.relu(ad.add(ad.matmul(x, ad.transpose(ad.as_tensor(w1v))), b1v))
            y = ad.matmul(h, ad.transpose(ad.as_tensor(w2v)))
            return mean(ad.square(y))

        # skip draws that place a preactivation on the relu kink
        pre = x @ w1_0.T + b1_0
        if np.any(np.abs(pre) < 1e-4):
            continue

        tape = ad.Tape()
        w1, b1, w2 = tape.param(w1_0), tape.param(b1_0), tape.param(w2_0)
        h = ad.relu(ad.add(ad.matmul(x, ad.transpose(w1)), b1))
        root = mean(ad.square(ad.matmul(h, ad.transpose(w2))))
        grads = tape.backward(root)
        assert_close_grad(grads[w1.node], fd_gradient(lambda v: run(v, b1_0, w2_0).item(), w1_0.copy()))
        assert_close_grad(grads[b1.node], fd_gradient(lambda v: run(w1_0, v, w2_0).item(), b1_0.copy()))
        assert_close_grad(grads[w2.node], fd_gradient(lambda v: run(w1_0, b1_0, v).item(), w2_0.copy()))


def test_backward_bit_deterministic_across_rebuilds():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 2))
    w0 = rng.normal(size=(4, 2))

    def one_pass():
        tape = ad.Tape()
        w = tape.param(w0)
        root = ad.reduce_sum(ad.square(ad.relu(ad.matmul(x, ad.transpose(w)))))
        return tape.backward(root)[w.node]

    a, b = one_pass(), one_pass()
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# rejection

def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.matmul(np.ones((2, 3)), np.ones((4, 2)))
    for op in (ad.add, ad.subtract, ad.multiply):
        with pytest.raises(ad.ShapeError, match=r"\(2,\).*\(3,\)"):
            op(np.ones(2), np.ones(3))
        with pytest.raises(ad.ShapeError, match=r"\(2,\).*\(3,\)"):
            op(ad.Tape().param(np.ones(2)), np.ones(3))


def test_ops_follow_ieee_without_checks():
    np.testing.assert_array_equal(ad.add([1.0, np.nan], [1.0, 1.0]).values, [2.0, np.nan])
    assert ad.relu([np.inf]).values.tolist() == [np.inf]
    assert ad.scale([1.0], np.inf).values.tolist() == [np.inf]
    tape = ad.Tape()
    w = tape.param([np.nan, 1.0])
    grads = tape.backward(ad.reduce_sum(ad.square(w)))
    np.testing.assert_array_equal(grads[w.node], [np.nan, 2.0])


def test_backward_rejects_nonscalar_root():
    tape = ad.Tape()
    w = tape.param([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        tape.backward(ad.square(w))


def test_backward_rejects_foreign_root():
    t1, t2 = ad.Tape(), ad.Tape()
    w = t1.param([1.0])
    root = ad.reduce_sum(ad.square(w))
    with pytest.raises(ValueError):
        t2.backward(root)
    with pytest.raises(ValueError):
        t1.backward(ad.Tensor([1.0]))


def test_mixing_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a, b = t1.param([1.0]), t2.param([1.0])
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_unknown_kind_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError):
        tape.record("conv2d", np.ones(3))
