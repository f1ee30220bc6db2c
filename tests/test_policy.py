from __future__ import annotations

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import dynamics as dyn
from spdpc import objectives as obj
from spdpc import policy as pol
from spdpc import trainer as tr
from spdpc.config import load_config
from spdpc.dynamics import FULL_HORIZON, MODES
from spdpc.sampling import DistSpec, ParamSpec, sample_scenarios, split


def arch(i, h, o, seed=0):
    return pol.PolicyArchitecture(input_dim=i, hidden=tuple(h), output_dim=o, seed=seed)


# ---------------------------------------------------------------------------
# parameter counting

def test_param_count_examples():
    assert pol.param_count(arch(12, [100, 100], 40)) == 15440
    assert pol.param_count(arch(2, [20, 20, 20, 20], 1)) == 1341
    assert pol.param_count(arch(8, [100, 100, 100, 100], 40)) == 35240


def test_param_count_matches_layer_arrays():
    p = pol.init_policy(arch(3, [7, 5], 4, seed=3))
    total = sum(w.size + b.size for w, b in p.layers)
    assert total == pol.param_count(p.arch)


# ---------------------------------------------------------------------------
# initialization

def test_init_deterministic_and_bounded():
    a = pol.init_policy(arch(4, [8, 8], 2, seed=11))
    b = pol.init_policy(arch(4, [8, 8], 2, seed=11))
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)
        bound = 1.0 / np.sqrt(wa.shape[1])
        assert np.all(np.abs(wa) <= bound)
        assert np.all(ba == 0.0)


def test_init_seed_changes_weights():
    a = pol.init_policy(arch(4, [8], 2, seed=1))
    b = pol.init_policy(arch(4, [8], 2, seed=2))
    assert not np.array_equal(a.layers[0][0], b.layers[0][0])


def test_bad_architecture_rejected():
    with pytest.raises(ValueError):
        arch(0, [4], 2)
    with pytest.raises(ValueError):
        arch(2, [4, 0], 2)


# ---------------------------------------------------------------------------
# one weight vector

def assert_views_of_weights(p):
    """Each layer's W (row-major), then its b, is a view of ``p.weights`` in order."""
    assert p.weights.ndim == 1 and p.weights.size == pol.param_count(p.arch)
    start = 0
    for a in (a for layer in p.layers for a in layer):
        assert a.base is p.weights and a.flags.c_contiguous
        assert np.shares_memory(a, p.weights[start:start + a.size])
        start += a.size
    assert start == p.weights.size


def train_briefly(p):
    """``trainer.train`` on a double integrator, two-step plans of a 2-d state."""
    spec = ParamSpec(x0=DistSpec("uniform", (-0.5, -0.5), (0.5, 0.5)))
    scen = sample_scenarios(spec, dyn.NoiseSpec("zero", [0.0, 0.0]), m=8, s=2,
                            horizon=2, seed=4)
    train_set, dev_set = split(scen, (0.5, 0.5))
    model = dyn.LinearSystem(A=np.array([[1.0, 0.1], [0.0, 1.0]]), B=np.array([[0.0], [0.1]]))
    return tr.train(model, p, train_set, dev_set, obj.StageObjective(kind="stabilization"),
                    obj.ConstraintSet(), obj.LossWeights(Q_x=1.0, Q_u=0.1),
                    tr.TrainConfig(epochs=2, lr=1e-2, minibatch=8), FULL_HORIZON, 11)


def test_layers_are_views_of_the_weights(tmp_path):
    live = pol.init_policy(arch(2, [8, 5], 2, seed=9))
    assert_views_of_weights(live)
    pol.save_checkpoint(live, tmp_path / "ckpt.json")
    assert_views_of_weights(pol.load_checkpoint(tmp_path / "ckpt.json"))
    weights = live.weights
    snapshot = train_briefly(live).policy
    assert live.weights is weights  # trained in place
    assert_views_of_weights(live)
    assert_views_of_weights(snapshot)
    assert not np.shares_memory(snapshot.weights, live.weights)


def test_a_deep_copy_has_views_of_its_own_weights():
    p = pol.init_policy(arch(2, [8], 2, seed=9))
    q = copy.deepcopy(p)
    assert_views_of_weights(q)
    assert not np.shares_memory(q.weights, p.weights)
    x = np.array([0.3, -0.2])
    before = pol.forward(p, x)
    assert np.array_equal(pol.forward(q, x), before)
    train_briefly(q)
    assert not np.array_equal(pol.forward(q, x), before)  # the copy reads its trained vector
    assert np.array_equal(pol.forward(p, x), before)


def test_layers_state_the_unpack_layout_and_write_through():
    p = pol.MlpPolicy(arch(3, [4], 2), np.arange(26.0))
    (w0, b0), (w1, b1) = p.layers
    assert np.array_equal(w0, np.arange(12.0).reshape(4, 3))
    assert np.array_equal(b0, np.arange(12.0, 16.0))
    assert np.array_equal(w1, np.arange(16.0, 24.0).reshape(2, 4))
    assert np.array_equal(b1, [24.0, 25.0])
    p.weights[0] = 42.0
    assert w0[0, 0] == 42.0
    b1[1] = -1.0
    assert p.weights[-1] == -1.0


def test_weights_must_fit_the_layers():
    with pytest.raises(ad.ShapeError, match=r"size 16 does not fit layers \[\(4, 3\), \(2, 4\)"):
        pol.MlpPolicy(arch(3, [4], 2), np.zeros(16))


def test_weights_and_layers_cannot_be_rebound():
    p = pol.init_policy(arch(3, [4], 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.layers = p.layers[:1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.weights = np.zeros(26)


# ---------------------------------------------------------------------------
# forward pass

def test_zero_weights_give_zero_output():
    a = arch(3, [5], 2)
    p = pol.MlpPolicy(a, np.zeros(pol.param_count(a)))
    np.testing.assert_array_equal(pol.forward(p, [1.0, -2.0, 3.0]), [0.0, 0.0])


def test_identity_single_hidden_layer_is_relu():
    layer = [*np.eye(2).ravel(), 0.0, 0.0]
    p = pol.MlpPolicy(arch(2, [2], 2), np.array(layer + layer))
    np.testing.assert_array_equal(pol.forward(p, [-1.0, 2.0]), [0.0, 2.0])


def test_forward_concatenates_xi():
    p = pol.MlpPolicy(arch(4, [], 4), np.concatenate([np.eye(4).ravel(), np.zeros(4)]))
    out = pol.forward(p, [1.0, 2.0], xi=[3.0, 4.0])
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0])


def test_forward_rejects_wrong_width():
    p = pol.init_policy(arch(3, [4], 2))
    with pytest.raises(ValueError, match="input width 3"):
        pol.forward(p, [1.0, 2.0])


def test_batched_forward_equals_per_sample():
    rng = np.random.default_rng(5)
    p = pol.init_policy(arch(4, [9, 7], 3, seed=5))
    xs = rng.normal(size=(6, 4))
    batch = pol.forward(p, xs)
    single = np.stack([pol.forward(p, x) for x in xs])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)


def test_output_layer_scale_covariance():
    p = pol.init_policy(arch(3, [6], 2, seed=9))
    x = np.array([0.3, -0.4, 1.1])
    base = pol.forward(p, x)
    doubled = pol.MlpPolicy(p.arch, p.weights.copy())
    for a in doubled.layers[-1]:
        a *= 2.0
    np.testing.assert_allclose(pol.forward(doubled, x), 2.0 * base, atol=1e-12)


def test_action_sequence_reshape():
    p = pol.init_policy(arch(2, [4], 6, seed=1))
    seq = pol.action_sequence(p, [0.1, 0.2], None, n_u=2)
    assert seq.shape == (3, 2)
    np.testing.assert_array_equal(seq.reshape(-1), pol.forward(p, [0.1, 0.2]))


# ---------------------------------------------------------------------------
# taped evaluation

def test_taped_forward_matches_eager_and_counts_adjoints():
    rng = np.random.default_rng(3)
    p = pol.init_policy(arch(3, [6, 5], 4, seed=7))
    xs = rng.normal(size=(5, 3))
    tape = ad.Tape()
    flat = tape.param(p.weights)
    out = pol.apply_layers(flat, p.arch, xs)
    np.testing.assert_allclose(out.values, pol.forward(p, xs), atol=1e-12)
    grads = tape.backward(ad.reduce_sum(ad.square(out)))
    assert [n.kind for n in tape.nodes] == ["param", "mlp", "square", "sum"]
    assert grads[flat.node].shape == (pol.param_count(p.arch),)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_exact(tmp_path):
    p = pol.init_policy(arch(4, [9, 9], 3, seed=21))
    path = tmp_path / "ckpt.json"
    pol.save_checkpoint(p, path)
    q = pol.load_checkpoint(path)
    assert q.arch == p.arch
    for (wa, ba), (wb, bb) in zip(p.layers, q.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)


def test_checkpoint_rejects_bad_version(tmp_path):
    p = pol.init_policy(arch(2, [3], 1))
    path = tmp_path / "ckpt.json"
    pol.save_checkpoint(p, path)
    doc = path.read_text().replace('"version": 1', '"version": 99')
    path.write_text(doc)
    with pytest.raises(ValueError, match="version"):
        pol.load_checkpoint(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    p = pol.init_policy(arch(2, [3], 1))
    path = tmp_path / "ckpt.json"
    pol.save_checkpoint(p, path)
    import json

    doc = json.loads(path.read_text())
    doc["layers"][0]["W"] = [[1.0, 2.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="layer 0"):
        pol.load_checkpoint(path)


def test_checkpoint_rejects_non_finite_weights(tmp_path):
    p = pol.init_policy(arch(2, [3], 1))
    path = tmp_path / "ckpt.json"
    pol.save_checkpoint(p, path)
    import json

    doc = json.loads(path.read_text())
    doc["layers"][1]["W"][0][2] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"malformed checkpoint \(layers\[1\]\.W\[0\]\[2\]: "
                                         r"must be finite, got nan\)$"):
        pol.load_checkpoint(path)


# ---------------------------------------------------------------------------
# untaped forward pass against the taped one, on every committed config

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted(p.stem for p in (REPO / "configs").glob("ex*.json"))


def config_policy(name, mode):
    """The config's hidden widths in either rollout mode, with nonzero biases."""
    cfg = load_config(REPO / "configs" / f"{name}.json")
    n_x, n_u = cfg.model.n_x, cfg.model.n_u
    full = mode == FULL_HORIZON
    p = pol.init_policy(arch(n_x + cfg.params.xi_dim if full else n_x, cfg.arch.hidden,
                             cfg.horizon * n_u if full else n_u, seed=cfg.arch.seed))
    gen = np.random.default_rng(11)
    for _, b in p.layers:
        b[...] = gen.normal(scale=0.1, size=b.shape)
    return p


def gemv_reference(layers, z):
    """The single-vector arithmetic W z + b, layer by layer."""
    for k, (w, b) in enumerate(layers):
        z = np.add(np.matmul(w, z), b)
        if k < len(layers) - 1:
            z = np.maximum(z, 0.0)
    return z


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("mode", MODES)
def test_untaped_forward_is_the_taped_pass_bit_for_bit(name, mode):
    p = config_policy(name, mode)
    xs = np.random.default_rng(12).normal(scale=2.0, size=(25, p.arch.input_dim))
    before = xs.copy()
    untaped = pol.forward(p, xs)
    assert isinstance(untaped, np.ndarray)
    assert np.array_equal(xs, before)  # the in-place pass writes only its own blocks
    flat = p.weights
    eager = pol.apply_layers(flat, p.arch, xs)
    assert type(eager) is np.ndarray
    taped = pol.apply_layers(ad.Tape().param(flat), p.arch, xs)
    assert np.array_equal(eager, taped.values)
    assert np.array_equal(untaped, taped.values)
    one = pol.apply_layers(ad.Tape().param(flat), p.arch, xs[:1])
    assert np.array_equal(pol.forward(p, xs[0]), one.values[0])


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("mode", MODES)
def test_one_vector_is_the_one_row_batch_bit_for_bit(name, mode):
    p = config_policy(name, mode)
    for x in np.random.default_rng(13).normal(scale=2.0, size=(50, p.arch.input_dim)):
        single = pol.forward(p, x)
        assert single.shape == (p.arch.output_dim,)
        assert np.array_equal(single, pol.forward(p, x[None, :])[0])
        assert np.array_equal(single, gemv_reference(p.layers, x))
