from pathlib import Path

import numpy as np
import pytest

from spdpc.config import load_config
from spdpc.dynamics import NoiseSpec
from spdpc.sampling import DistSpec, ParamSpec, ScenarioSet, sample_scenarios, split

ZERO2 = NoiseSpec("zero", [0.0, 0.0])


def box_spec():
    return ParamSpec(x0=DistSpec("uniform", (-1.0, -2.0), (1.0, 2.0)))


def rich_spec():
    return ParamSpec(
        x0=DistSpec("uniform", (-1.0, -1.0), (1.0, 1.0)),
        components=(
            ("target", DistSpec("gaussian", (0.0, 0.0), (1.0, 1.0))),
            ("radius", DistSpec("uniform", (0.3,), (0.7,))),
            ("flag", DistSpec("constant", (0.5,))),
        ),
    )


class TestDistSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="triangular"):
            DistSpec("triangular", (0.0,), (1.0,))

    def test_uniform_needs_ordered_bounds(self):
        with pytest.raises(ValueError, match="lower > upper"):
            DistSpec("uniform", (1.0,), (0.0,))

    def test_gaussian_rejects_negative_std(self):
        with pytest.raises(ValueError, match="non-negative"):
            DistSpec("gaussian", (0.0,), (-1.0,))

    def test_constant_takes_one_vector(self):
        with pytest.raises(ValueError, match="single vector"):
            DistSpec("constant", (1.0,), (2.0,))
        assert DistSpec("constant", (1.0, 2.0)).dim == 2

    def test_uniform_draw_stays_in_box(self):
        dist = DistSpec("uniform", (-1.0, 5.0), (1.0, 6.0))
        gen = np.random.default_rng(0)
        draws = np.stack([dist.draw(gen) for _ in range(500)])
        assert draws[:, 0].min() >= -1.0 and draws[:, 0].max() <= 1.0
        assert draws[:, 1].min() >= 5.0 and draws[:, 1].max() <= 6.0
        # spread over the box, not stuck at a corner
        assert np.ptp(draws[:, 0]) > 1.5

    def test_constant_draw_is_exact(self):
        dist = DistSpec("constant", (0.25, -3.0))
        assert np.array_equal(dist.draw(np.random.default_rng(0)), [0.25, -3.0])

    @staticmethod
    def numpy_draw(dist, seed):
        gen = np.random.default_rng(seed)
        sample = gen.uniform if dist.kind == "uniform" else gen.normal
        return sample(np.array(dist.a), np.array(dist.b))

    def test_draw_is_numpys_uniform_and_normal_bit_for_bit(self):
        specs = []
        for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("ex*.json")):
            params = load_config(path).params
            specs += [params.x0] + [d for _, d in params.components]
        gen = np.random.default_rng(17)
        for _ in range(2000):
            dim = int(gen.integers(1, 6))
            a = gen.normal(size=dim) * 10.0 ** gen.integers(-3, 4, dim)
            width = gen.exponential(size=dim) * 10.0 ** gen.integers(-3, 4, dim)
            kind = str(gen.choice(["uniform", "gaussian"]))
            specs.append(DistSpec(kind, tuple(a), tuple(a + width if kind == "uniform"
                                                        else width)))
        drawn = [d for d in specs if d.kind != "constant"]
        assert len(drawn) > 2000  # the committed specs are in
        for seed, dist in enumerate(drawn):
            assert np.array_equal(dist.draw(np.random.default_rng(seed)),
                                  self.numpy_draw(dist, seed)), dist


class TestParamSpec:
    def test_layout_and_slices(self):
        spec = rich_spec()
        assert spec.xi_dim == 4
        assert spec.layout() == {"target": (0, 2), "radius": (2, 3), "flag": (3, 4)}
        sl = spec.slice_for("radius")
        assert (sl.start, sl.stop) == (2, 3)

    def test_unknown_component_name(self):
        with pytest.raises(ValueError, match="no parameter component named 'size'"):
            rich_spec().slice_for("size")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamSpec(x0=DistSpec("constant", (0.0,)),
                      components=(("a", DistSpec("constant", (1.0,))),
                                  ("a", DistSpec("constant", (2.0,)))))

    def test_draw_xi_concatenates_in_declaration_order(self):
        xi = rich_spec().draw_xi(np.random.default_rng(3))
        assert xi.shape == (4,)
        assert xi[3] == 0.5  # constant component lands in its slot


class TestSampling:
    def test_shapes(self):
        ss = sample_scenarios(rich_spec(), ZERO2, m=4, s=3, horizon=5, seed=11)
        assert ss.x0.shape == (4, 2)
        assert ss.xi.shape == (4, 4)
        assert ss.omega.shape == (3, 5, 2)
        assert ss.size == 12 and ss.horizon == 5
        assert np.array_equal(ss.indices, np.arange(4))

    def test_no_components_gives_empty_xi(self):
        ss = sample_scenarios(box_spec(), ZERO2, m=3, s=2, horizon=1, seed=0)
        assert ss.xi.shape == (3, 0)

    def test_reproducible(self):
        a = sample_scenarios(rich_spec(), NoiseSpec("gaussian", [0.1, 0.1]),
                             m=6, s=4, horizon=3, seed=7)
        b = sample_scenarios(rich_spec(), NoiseSpec("gaussian", [0.1, 0.1]),
                             m=6, s=4, horizon=3, seed=7)
        assert np.array_equal(a.x0, b.x0)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.omega, b.omega)

    def test_seed_changes_draws(self):
        a = sample_scenarios(box_spec(), ZERO2, m=6, s=1, horizon=1, seed=7)
        b = sample_scenarios(box_spec(), ZERO2, m=6, s=1, horizon=1, seed=8)
        assert not np.array_equal(a.x0, b.x0)

    def test_draw_i_independent_of_set_size(self):
        # block draws fill row-major: scenario i is the same whether m is 5 or 10
        noise = NoiseSpec("gaussian", [0.2, 0.2])
        small = sample_scenarios(rich_spec(), noise, m=5, s=2, horizon=4, seed=9)
        large = sample_scenarios(rich_spec(), noise, m=10, s=6, horizon=4, seed=9)
        assert np.array_equal(small.x0, large.x0[:5])
        assert np.array_equal(small.xi, large.xi[:5])
        assert np.array_equal(small.omega, large.omega[:2])

    def test_cross_product_count(self):
        ss = sample_scenarios(box_spec(), ZERO2, m=3333, s=10, horizon=2, seed=1)
        assert ss.size == 33330
        x0, xi, omega, i, j = ss.pair_rows(np.arange(ss.size))
        assert len(i) == len(j) == 33330
        assert (i[10], j[10]) == (1, 0)  # all j for i=0 come first
        assert (i[9], j[9]) == (0, 9)
        np.testing.assert_array_equal(x0[10], ss.x0[1])
        np.testing.assert_array_equal(omega[9], ss.omega[9])
        assert xi is None  # the spec has no parameter components

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            sample_scenarios(box_spec(), ZERO2, m=1, s=1, horizon=0, seed=0)


class TestSplit:
    def test_thirds_of_1000(self):
        ss = sample_scenarios(box_spec(), NoiseSpec("uniform", [0.1, 0.1]),
                              m=1000, s=100, horizon=2, seed=5)
        train, dev, test = split(ss, (1 / 3, 1 / 3, 1 / 3))
        assert (train.m, dev.m, test.m) == (333, 333, 334)
        assert (train.size, dev.size, test.size) == (33300, 33300, 33400)
        # disturbance sequences are shared, parametric rows partition cleanly
        assert train.omega is ss.omega
        joined = np.concatenate([train.indices, dev.indices, test.indices])
        assert np.array_equal(joined, np.arange(1000))

    def test_desk_fractions(self):
        ss = sample_scenarios(box_spec(), ZERO2, m=200, s=1, horizon=1, seed=0)
        parts = split(ss, (0.4, 0.1, 0.5))
        assert [p.m for p in parts] == [80, 20, 100]
        ss = sample_scenarios(box_spec(), ZERO2, m=300, s=1, horizon=1, seed=0)
        parts = split(ss, (1 / 2, 1 / 6, 1 / 3))
        assert [p.m for p in parts] == [150, 50, 100]

    def test_identity_split(self):
        ss = sample_scenarios(rich_spec(), ZERO2, m=7, s=2, horizon=1, seed=2)
        (only,) = split(ss, (1.0,))
        assert np.array_equal(only.x0, ss.x0)
        assert np.array_equal(only.xi, ss.xi)
        assert np.array_equal(only.indices, np.arange(7))

    def test_rows_keep_their_identity(self):
        ss = sample_scenarios(rich_spec(), ZERO2, m=20, s=1, horizon=1, seed=3)
        _, _, test = split(ss, (0.5, 0.25, 0.25))
        assert np.array_equal(test.x0, ss.x0[test.indices])
        assert np.array_equal(test.xi, ss.xi[test.indices])

    def test_empty_part_rejected(self):
        ss = sample_scenarios(box_spec(), ZERO2, m=3, s=1, horizon=1, seed=0)
        with pytest.raises(ValueError, match="empty split"):
            split(ss, (0.1, 0.9))

    def test_bad_fractions_rejected(self):
        ss = sample_scenarios(box_spec(), ZERO2, m=10, s=1, horizon=1, seed=0)
        with pytest.raises(ValueError, match="> 1"):
            split(ss, (0.8, 0.8))
        with pytest.raises(ValueError, match="positive"):
            split(ss, (0.5, -0.1))
        with pytest.raises(ValueError, match="positive"):
            split(ss, ())
