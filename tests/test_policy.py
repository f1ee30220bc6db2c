from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from spdpc import autodiff as ad
from spdpc import policy as pol
from spdpc.config import load_config
from spdpc.dynamics import FULL_HORIZON, MODES


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
# forward pass

def test_zero_weights_give_zero_output():
    p = pol.init_policy(arch(3, [5], 2))
    p.layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers]
    np.testing.assert_array_equal(pol.forward(p, [1.0, -2.0, 3.0]), [0.0, 0.0])


def test_identity_single_hidden_layer_is_relu():
    p = pol.MlpPolicy(arch(2, [2], 2), [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
    np.testing.assert_array_equal(pol.forward(p, [-1.0, 2.0]), [0.0, 2.0])


def test_forward_concatenates_xi():
    p = pol.MlpPolicy(arch(4, [], 4), [(np.eye(4), np.zeros(4))])
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
    w, b = p.layers[-1]
    doubled = pol.MlpPolicy(p.arch, p.layers[:-1] + [(2.0 * w, 2.0 * b)])
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
    flat = tape.param(pol.weight_vector(p))
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
    flat = pol.weight_vector(p)
    eager = pol.apply_layers(flat, p.arch, xs)
    assert eager.tape is None
    taped = pol.apply_layers(ad.Tape().param(flat), p.arch, xs)
    assert np.array_equal(eager.values, taped.values)
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
