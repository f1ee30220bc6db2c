from __future__ import annotations

import re
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
    """Mean over every entry: the sum multiplied by 1 / size."""
    return ad.multiply(ad.reduce_sum(a), 1.0 / np.size(a))


# ---------------------------------------------------------------------------
# forward values

def test_matmul_matches_hand_value():
    a = ad.matmul([[1.2, 1.0], [0.0, 1.0]], [[1.0], [1.0]])
    np.testing.assert_allclose(a, [[2.2], [1.0]], rtol=0, atol=1e-15)


def test_relu_zero_stays_zero():
    tape = ad.Tape()
    r = ad.relu_sumsq(tape.param([-2.0, 0.0, 3.0]), 1.0)
    np.testing.assert_array_equal(tape.nodes[r.node].attrs["relu"], [0.0, 0.0, 3.0])
    assert r.item() == 9.0


def test_eager_ops_do_not_record():
    out = ad.add(ad.square([1.0, 2.0]), [1.0, 1.0])
    assert type(out) is np.ndarray
    np.testing.assert_array_equal(out, [2.0, 5.0])


def test_sum_mean_scale():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert ad.reduce_sum(x).item() == 10.0
    np.testing.assert_array_equal(ad.multiply(x, -0.5), -0.5 * x)


def test_concat_narrow_affine_forward():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(4.0).reshape(2, 2)
    cat = ad.concat([a, b], axis=1)
    assert cat.shape == (2, 5)
    np.testing.assert_array_equal(ad.narrow(cat, 1, 3, 5), b)
    w = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.5]])
    # a one-layer mlp is the affine map z W^T + b
    flat = np.concatenate([w, [10.0, 20.0]], axis=None)
    np.testing.assert_array_equal(ad.mlp(a, flat, [(2, 3)]),
                                  [[14.0, 20.0], [23.0, 18.5]])


def test_unpack_views_each_w_row_major_then_its_b():
    flat = np.arange(17.0)
    (w0, b0), (w1, b1) = ad.unpack(flat, [(3, 2), (2, 3)])
    np.testing.assert_array_equal(w0, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    np.testing.assert_array_equal(b0, [6.0, 7.0, 8.0])
    np.testing.assert_array_equal(w1, [[9.0, 10.0, 11.0], [12.0, 13.0, 14.0]])
    np.testing.assert_array_equal(b1, [15.0, 16.0])
    assert all(np.shares_memory(a, flat) for a in (w0, b0, w1, b1))
    with pytest.raises(ad.ShapeError, match=r"size 16 .*\[\(3, 2\), \(2, 3\)\]"):
        ad.unpack(flat[:16], [(3, 2), (2, 3)])


def test_mlp_shape_errors():
    one = [(2, 3)]
    with pytest.raises(ad.ShapeError, match=r"\(3,\).*size 8 .*\[\(2, 3\)\]"):
        ad.mlp(np.ones(3), np.ones(8), one)  # z must be a batch
    with pytest.raises(ad.ShapeError, match=r"\(4, 3\).*size 10 .*\[\(2, 4\)\]"):
        ad.mlp(np.ones((4, 3)), np.ones(10), [(2, 4)])  # z has 3 columns, W 4
    with pytest.raises(ad.ShapeError, match=r"\(4, 3\).*size 28 .*\[\(2, 3\), \(5, 3\)\]"):
        ad.mlp(np.ones((4, 3)), np.ones(28), one + [(5, 3)])  # the second layer
    with pytest.raises(ad.ShapeError, match=r"\(4, 3\).*size 8 .*\[\(2, 3\)\]"):
        ad.mlp(np.ones((4, 3)), np.ones((2, 4)), one)  # the weights must be a vector
    tape = ad.Tape()
    with pytest.raises(ad.ShapeError, match=r"\(4, 3\).*size 0 .*\[\]"):
        ad.mlp(tape.param(np.ones((4, 3))), np.ones(0), [])
    assert len(tape.nodes) == 1  # a rejected op records nothing


@pytest.mark.parametrize("size", [0, 7, 9, 31])
def test_mlp_rejects_a_vector_that_does_not_fit_the_dims(size):
    # layers 3 -> 2 and 3 -> 2 -> 2 hold 8 and 14 weights; the input fits either
    for dims in ([(2, 3)], [(2, 3), (2, 2)]):
        tape = ad.Tape()
        z = tape.param(np.ones((4, 3)))
        message = f"mlp: input (4, 3) and a weight vector of size {size} do not fit layers {dims}"
        with pytest.raises(ad.ShapeError, match=re.escape(message)):
            ad.mlp(z, tape.param(np.ones(size)), dims)
        assert [n.kind for n in tape.nodes] == ["param", "param"]


def bare_mlp(z, layers, g):
    """The network and its adjoints in bare numpy calls: the forward of each
    layer np.add(np.matmul(h, W.T), b) and np.maximum(., 0.0) on hidden
    layers; backward g @ W, (h^T g)^T, g summed over the rows, and the mask
    of the hidden pre-activation > 0.0.  Returns (y, dz, [dW, db, ...])."""
    hs, pres = [z], []
    for k, (w, b) in enumerate(layers):
        pres.append(np.add(np.matmul(hs[-1], w.T), b))
        hs.append(np.maximum(pres[-1], 0.0) if k < len(layers) - 1 else pres[-1])
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        w, _ = layers[k]
        grads[:0] = [np.ascontiguousarray((hs[k].T @ g).T), g.sum(axis=0)]
        g = g @ w
        if k:
            g = g * (pres[k - 1] > 0.0)
    return hs[-1], g, grads


def test_mlp_is_the_bare_numpy_calls_bit_for_bit():
    rng = np.random.default_rng(17)
    for batch, dims in ((1, (1, 1)), (5, (3, 4)), (5, (3, 6, 4)), (64, (20, 20, 20, 20, 20, 2)),
                        (7, (12, 100, 100, 40))):
        z0 = rng.normal(size=(batch, dims[0]))
        net = [(rng.normal(size=(out, d)), rng.normal(size=out))
               for d, out in zip(dims[:-1], dims[1:])]
        g = rng.normal(size=(batch, dims[-1]))
        dims = [w.shape for w, _ in net]
        flat0 = np.concatenate([a for layer in net for a in layer], axis=None)
        tape = ad.Tape()
        z, flat = tape.param(z0), tape.param(flat0)
        y = ad.mlp(z, flat, dims)
        assert [n.kind for n in tape.nodes] == ["param", "param", "mlp"]
        y0, dz, dparams = bare_mlp(z0, net, g)
        assert y.values.tobytes() == y0.tobytes()
        assert ad.mlp(z0, flat0, dims).tobytes() == y0.tobytes()  # eager
        grads = tape.backward(ad.reduce_sum(ad.multiply(y, g)))
        assert grads[z.node].tobytes() == dz.tobytes()
        assert grads[flat.node].tobytes() == np.concatenate(dparams, axis=None).tobytes()


def test_reshape_forward_and_shape_error():
    a = np.arange(12.0).reshape(4, 3)
    out = ad.reshape(a, (2, 2, 3))
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out, a.reshape(2, 2, 3))
    with pytest.raises(ad.ShapeError, match=r"\(4, 3\).*\(5, 2\)"):
        ad.reshape(a, (5, 2))
    tape = ad.Tape()
    with pytest.raises(ad.ShapeError):
        ad.reshape(tape.param(a), (2, 5))
    assert len(tape.nodes) == 1  # a rejected op records nothing


def test_l2norm_over_last_axis_of_a_block():
    block = np.array([[[3.0, 4.0], [0.0, 0.0]], [[6.0, 8.0], [1.0, 0.0]]])
    np.testing.assert_allclose(ad.l2norm(block), [[5.0, 0.0], [10.0, 1.0]],
                               atol=1e-15)


def test_l2norm_forward_rows_and_vector():
    v = ad.l2norm([3.0, 4.0])
    assert v.item() == pytest.approx(5.0, abs=1e-15)
    rows = ad.l2norm([[3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(rows, [5.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# backward: hand cases

def test_backward_relu_mask():
    # d/dw of 0.5 * sum relu(w)^2 is relu(w)
    tape = ad.Tape()
    w0 = np.array([-1.0, 0.5, 2.0])
    w = tape.param(w0)
    grads = tape.backward(ad.relu_sumsq(w, 0.5))
    np.testing.assert_array_equal(grads[w.node], np.maximum(w0, 0.0))


def test_backward_relu_at_kink_is_zero():
    for w0, shift in ((0.0, 0.0), (-0.25, 0.25)):
        tape = ad.Tape()
        w = tape.param([w0])
        grads = tape.backward(ad.relu_sumsq(w, 1.0, shift))
        np.testing.assert_array_equal(grads[w.node], [0.0])


def test_backward_mlp_hidden_kink_is_zero():
    # hidden pre-activations [0.0, 3.5]: the unit exactly on the kink passes
    # no adjoint, the subgradient relu takes at 0
    tape = ad.Tape()
    z = tape.param([[1.0, 2.0]])
    dims = [(2, 2), (1, 2)]
    # W0 [[1, -0.5], [1, 1]], b0 [0, 0.5], W1 [[2, 3]], b1 [0.25]
    flat = tape.param([1.0, -0.5, 1.0, 1.0, 0.0, 0.5, 2.0, 3.0, 0.25])
    y = ad.mlp(z, flat, dims)
    assert tape.nodes[-1].attrs["inputs"][1].tolist() == [[0.0, 3.5]]
    np.testing.assert_array_equal(y.values, [[10.75]])
    grads = tape.backward(ad.reduce_sum(y))
    (dw0, db0), (dw1, _) = ad.unpack(grads[flat.node], dims)
    np.testing.assert_array_equal(db0, [0.0, 3.0])
    np.testing.assert_array_equal(dw0, [[0.0, 0.0], [3.0, 6.0]])
    np.testing.assert_array_equal(grads[z.node], [[3.0, 3.0]])
    np.testing.assert_array_equal(dw1, [[0.0, 3.5]])


def test_backward_unused_param_gets_zero_adjoint():
    tape = ad.Tape()
    w = tape.param([1.0, 2.0])
    c = tape.param([3.0, 4.0])
    grads = tape.backward(ad.reduce_sum(c))
    np.testing.assert_array_equal(grads[w.node], [0.0, 0.0])


def test_backward_quadratic_form_matches_fd():
    rng = np.random.default_rng(0)
    W0 = rng.normal(size=(3, 4))
    x = rng.normal(size=(4, 1))

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
    g = ad.relu_sumsq(w, 1.0)
    combined = ad.add(ad.multiply(f, a), ad.multiply(g, b))
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
    root = ad.add(ad.reduce_sum(ad.square(w)), ad.reduce_sum(ad.multiply(w, 3.0)))
    np.testing.assert_allclose(tape.backward(root)[w.node], [7.0], atol=1e-15)


def test_gradient_maps_from_independent_tapes_merge_by_addition():
    w0 = np.array([1.0, -2.0, 0.5])
    t1, t2 = ad.Tape(), ad.Tape()
    w1, w2 = t1.param(w0), t2.param(w0)
    g1 = t1.backward(ad.reduce_sum(ad.square(w1)))[w1.node]
    g2 = t2.backward(ad.relu_sumsq(w2, 1.0))[w2.node]
    combined = ad.Tape()
    w = combined.param(w0)
    both = ad.add(ad.reduce_sum(ad.square(w)), ad.relu_sumsq(w, 1.0))
    np.testing.assert_allclose(combined.backward(both)[w.node], g1 + g2, atol=1e-15)


# ---------------------------------------------------------------------------
# backward: finite-difference sweeps per op

FUSED_SHIFT = 0.4
# each operand of a 3 -> 5 -> 4 -> 2 network on a batch of 4, in mlp's order
MLP_SLOTS = {"mlp_z": (4, 3), "mlp_w0": (5, 3), "mlp_b0": (5,), "mlp_w1": (4, 5),
             "mlp_b1": (4,), "mlp_w2": (2, 4), "mlp_b2": (2,)}
MLP_DIMS = [(5, 3), (4, 5), (2, 4)]


# each finite-difference case: the op kind it checks
FD_CASES = {
    "add": "add", "add_bias": "add", "add_scalar": "add", "subtract": "subtract",
    "multiply": "multiply", "multiply_bcast": "multiply", "matmul_mm": "matmul",
    "square": "square", "sum": "sum", "mean": "sum", "multiply_scalar": "multiply",
    "concat": "concat", "narrow": "narrow", "affine_z": "mlp", "affine_w": "mlp",
    "affine_bias": "mlp", **dict.fromkeys(MLP_SLOTS, "mlp"),
    "l2norm_vec": "l2norm", "l2norm_rows": "l2norm", "reshape": "reshape",
    "reshape_block": "reshape", "l2norm_block": "l2norm", "sumsq": "sumsq",
    "relu_sumsq": "relu_sumsq", "relu_sumsq_shift": "relu_sumsq", "box": "box",
    "total": "total",
}


def test_every_op_kind_has_a_finite_difference_case():
    assert ad.OPS.keys() - {"param"} <= set(FD_CASES.values())


@pytest.mark.parametrize("case", FD_CASES)
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
        if case == "square":
            return ad.square(w)
        if case == "sum":
            return w
        if case == "mean":
            return w
        if case == "multiply_scalar":
            return ad.multiply(w, -2.25)
        if case == "concat":
            return ad.concat([w, rng2], axis=1)
        if case == "narrow":
            return ad.narrow(w, 1, 1, 3)
        # a one-layer mlp is the affine map z W^T + b
        if case == "affine_z":
            return ad.mlp(w, np.concatenate([mat.T, vec5], axis=None), [(5, 3)])
        if case == "affine_w":
            return ad.mlp(rng2[:2], ad.concat([ad.reshape(w, (12,)), vec4]), [(4, 3)])
        if case == "affine_bias":  # a (12,) bias broadcast over two rows
            return ad.mlp(mat.T[:2], ad.concat([w12.reshape(-1), ad.reshape(w, (12,))]),
                          [(12, 3)])
        if case in MLP_SLOTS:  # one operand taped, spliced into the weight vector
            ops = list(net)
            ops[list(MLP_SLOTS).index(case)] = w
            flat = ad.concat([ad.reshape(op, (np.size(op),)) for op in ops[1:]])
            return ad.mlp(ops[0], flat, MLP_DIMS)
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
        if case == "box":
            return ad.box(w, rng2, rng2 + 1.0)
        if case == "total":  # an empty part, and w read by more than one term
            return ad.total([[ad.sumsq(w, 0.75), ad.reduce_sum(ad.multiply(w, rng2))], [],
                             [ad.sumsq(ad.narrow(w, 0, 1, 3), 2.0)], [ad.reduce_sum(w)]], 0.3)[0]
        raise AssertionError(case)

    if case == "l2norm_vec":
        w0 = rng.normal(size=(1, 3)) + 2.0  # keep away from the origin
    elif case in MLP_SLOTS:
        net = [rng.normal(size=shape) for shape in MLP_SLOTS.values()]
        w0 = net[list(MLP_SLOTS).index(case)]
        # the FD probe is valid only away from the hidden relu kinks
        h = net[0]
        for w_k, b_k in zip(net[1:5:2], net[2:5:2]):
            pre = h @ w_k.T + b_k
            assert np.min(np.abs(pre)) > 1e-3
            h = np.maximum(pre, 0.0)
    else:
        w0 = rng.normal(size=(4, 3))
    rng2 = rng.normal(size=(4, 3))
    bias = rng.normal(size=3)
    mat = rng.normal(size=(3, 5))
    vec4 = rng.normal(size=4)
    vec5 = rng.normal(size=5)
    w12 = rng.normal(size=(12, 3))
    # keep relu inputs away from the kink so the FD probe is valid
    if case.startswith("relu_sumsq"):
        kink = FUSED_SHIFT if case == "relu_sumsq_shift" else 0.0
        w0 = np.where(np.abs(w0 + kink) < 1e-3, 0.5, w0)

    def scalar(expr):
        return mean(ad.square(expr)) if case != "mean" else mean(expr)

    def feval(wv):
        return scalar(build(wv)).item()

    tape = ad.Tape()
    w = tape.param(w0)
    out = build(w)
    built = len(tape.nodes) if out is not w else None  # sum and mean check the scalar's sum
    root = scalar(out)
    assert FD_CASES[case] in {node.kind for node in tape.nodes[:built]}
    # on plain arrays every op returns the plain ndarray, with the taped node's bytes
    for eager, taped in ((build(w0), out), (scalar(build(w0)), root)):
        assert type(eager) is np.ndarray and eager.tobytes() == taped.values.tobytes()
    grads = tape.backward(root)
    assert_close_grad(grads[w.node], fd_gradient(feval, w0.copy()))


def unfused_sumsq(v, weight):
    """The chain ``sumsq`` stands for: multiply(sum(square(v)), weight)."""
    return ad.multiply(ad.reduce_sum(ad.square(v)), weight)


@pytest.mark.parametrize("shift", [0.0, 0.25])
def test_fused_squares_are_the_unfused_chains_bit_for_bit(shift, relu):
    def unfused_relu_sumsq(v, weight, shift):
        """The chain ``relu_sumsq`` stands for: add, relu, square, sum, multiply."""
        return unfused_sumsq(relu(ad.add(v, shift) if shift else v), weight)

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
                root = ad.multiply(f(w), outer)
                bits.append((root.values.tobytes(), tape.backward(root)[w.node].tobytes(),
                             f(block).tobytes()))
                if f is fused:
                    assert [n.kind for n in tape.nodes][1:] in (["sumsq", "multiply"],
                                                                ["relu_sumsq", "multiply"])
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
            flat = ad.concat([ad.reshape(w1v, (dh * din,)), b1v, ad.reshape(w2v, (dh,)), [0.0]])
            return mean(ad.square(ad.mlp(x, flat, [(dh, din), (1, dh)])))

        # skip draws that place a preactivation on the relu kink
        pre = x @ w1_0.T + b1_0
        if np.any(np.abs(pre) < 1e-4):
            continue

        tape = ad.Tape()
        w1, b1, w2 = tape.param(w1_0), tape.param(b1_0), tape.param(w2_0)
        grads = tape.backward(run(w1, b1, w2))
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
        flat = ad.concat([ad.reshape(w, (8,)), np.zeros(4)])
        root = ad.relu_sumsq(ad.mlp(x, flat, [(4, 2)]), 1.0)
        return tape.backward(root)[w.node]

    a, b = one_pass(), one_pass()
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# rejection

def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.matmul(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(3,\)"):
        ad.matmul(np.ones((2, 3)), np.ones(3))  # operands are 2-D only
    for op in (ad.add, ad.subtract, ad.multiply):
        with pytest.raises(ad.ShapeError, match=r"\(2,\).*\(3,\)"):
            op(np.ones(2), np.ones(3))
        with pytest.raises(ad.ShapeError, match=r"\(2,\).*\(3,\)"):
            op(ad.Tape().param(np.ones(2)), np.ones(3))


def test_box_and_total_shape_errors():
    tape = ad.Tape()
    v = tape.param(np.ones((3, 2, 2)))
    with pytest.raises(ad.ShapeError, match=r"box: a block \(3, 2, 2\) against bounds \(2, 3\)"):
        ad.box(v, np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ad.ShapeError, match=r"total: terms must be scalars.*\(2,\)"):
        ad.total([[ad.sumsq(v, 1.0)], [np.ones(2)], [], []], 1.0)
    assert [n.kind for n in tape.nodes] == ["param", "sumsq"]  # a rejected op records nothing


def test_ops_follow_ieee_without_checks():
    np.testing.assert_array_equal(ad.add([1.0, np.nan], [1.0, 1.0]), [2.0, np.nan])
    assert ad.relu_sumsq([np.inf, -1.0], 1.0).item() == np.inf
    assert ad.multiply([1.0], np.inf).tolist() == [np.inf]
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
    with pytest.raises(ValueError, match="not a tensor of this tape"):
        t1.backward(ad.reduce_sum(ad.square([1.0])))  # an eager result is an ndarray


@pytest.mark.parametrize("kind", ["add", "subtract", "multiply", "matmul", "concat", "mlp"])
def test_vjp_computes_adjoints_for_taped_inputs_only(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    tape = ad.Tape()
    if kind == "mlp":
        a, b = tape.param(rng.normal(size=(4, 3))), tape.param(rng.normal(size=54))
        out = ad.mlp(a, b, [(5, 3), (4, 5), (2, 4)])
    elif kind == "concat":
        a, b = tape.param(rng.normal(size=(3, 2, 2))), tape.param(rng.normal(size=(3, 4, 2)))
        out = ad.concat([a, b], axis=-2)
    else:
        a = tape.param(rng.normal(size=(3, 4)))
        b = tape.param(rng.normal(size=(4, 2) if kind == "matmul" else (4,)))
        out = getattr(ad, kind)(a, b)
    node, g = tape.nodes[out.node], rng.normal(size=out.shape)
    vjp = ad.OPS[kind][1]
    both = dict(vjp(node, g.copy(), [True, True]))
    assert sorted(both) == [0, 1]
    for taped in ([True, False], [False, True]):
        only = vjp(node, g.copy(), taped)
        assert [pos for pos, _ in only] == [taped.index(True)]
        pos, adjoint = only[0]
        assert adjoint.tobytes() == both[pos].tobytes()


# every op kind but param: the op on taped operands, and the operands' shapes
RERUN_CASES = {
    "add": (ad.add, [(3, 4), (4,)]),
    "subtract": (ad.subtract, [(3, 4), (4,)]),
    "multiply": (ad.multiply, [(3, 4), (4,)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "mlp": (lambda z, w: ad.mlp(z, w, [(5, 3), (4, 5), (2, 4)]), [(4, 3), (54,)]),
    "square": (ad.square, [(3, 4)]),
    "sum": (ad.reduce_sum, [(3, 4)]),
    "sumsq": (lambda a: ad.sumsq(a, 0.5), [(3, 4)]),
    "relu_sumsq": (lambda a: ad.relu_sumsq(a, 2.0, 0.25), [(3, 4)]),
    "box": (lambda v: ad.box(v, -np.ones((3, 2)), np.ones((3, 2))), [(4, 3, 2)]),
    "total": (lambda *t: ad.total([t[:2], [], t[2:3], t[3:]], 0.5)[0], [()] * 4),
    "concat": (lambda a, b: ad.concat([a, b], axis=-2), [(3, 2, 2), (3, 4, 2)]),
    "narrow": (lambda a: ad.narrow(a, 1, 1, 3), [(3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)]),
    "l2norm": (ad.l2norm, [(3, 4)]),
}


def bits(x):
    """x with every array replaced by its shape and bytes, for == comparisons."""
    if isinstance(x, dict):
        return {key: bits(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return (x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x


@pytest.mark.parametrize("kind", sorted(ad.OPS.keys() - {"param"}))
def test_forward_rerun_on_a_recorded_node_gives_a_fresh_nodes_bits(kind):
    # a recorded node's attrs hold nothing of its pass that a second forward
    # on new operands would read: value, adjoints and attrs are those of a
    # node recorded on the new operands, and no operand changes
    op, shapes = RERUN_CASES[kind]
    rng = np.random.default_rng(zlib.crc32(kind.encode()))

    def record(operands):
        tape = ad.Tape()
        return tape.nodes[op(*map(tape.param, operands)).node]

    node = record([rng.normal(size=s) for s in shapes])
    operands = [rng.normal(size=s) for s in shapes]
    kept = bits(operands)
    fresh = record(operands)
    value = np.asarray(ad.OPS[kind][0](list(operands), node.attrs))
    rerun = ad.Node(kind, node.input_ids, tuple(operands), value, node.attrs)
    g, taped = rng.normal(size=value.shape), [True] * len(shapes)
    assert bits(value) == bits(fresh.values)
    assert bits(ad.OPS[kind][1](rerun, g.copy(), taped)) == bits(
        ad.OPS[kind][1](fresh, g.copy(), taped))
    assert bits(rerun.attrs) == bits(fresh.attrs)
    assert bits(operands) == kept


def test_mixing_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a, b = t1.param([1.0]), t2.param([1.0])
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown operation kind 'conv2d'"):
        ad._apply("conv2d", ad.Tape().param(np.ones(3)))
