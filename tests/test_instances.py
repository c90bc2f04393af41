"""Instance generation: draws, determinism, digests."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplasso import (ModelParams, ThresholdPolicy, amp_run, delta_prior,
                      gen_gaussian_instance, gen_instance, gen_planted_instance,
                      measurement_count, sample_with_rng, three_point)
from amplasso.instances import (ENSEMBLES, GAUSSIAN, RADEMACHER, ConditionedGaussian,
                                Instance, conditioning_capacity, draw_matrix,
                                gen_lazy_instance)


class TestMeasurementCount:
    def test_exact(self):
        assert measurement_count(0.64, 1000) == 640
        assert measurement_count(0.2, 8000) == 1600

    def test_bankers_rounding(self):
        assert measurement_count(0.5, 5) == 2   # 2.5 -> 2
        assert measurement_count(0.5, 7) == 4   # 3.5 -> 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            measurement_count(0.1, 2)


def _replayed(n, params, seed):
    """``(a, x0, w)`` of a seeded Gaussian instance, drawn again in its order."""
    rng = np.random.default_rng(seed)
    m = measurement_count(params.delta, n)
    a = draw_matrix(rng, m, n, GAUSSIAN)
    x0 = sample_with_rng(params.prior, n, rng)
    return a, x0, np.sqrt(params.sigma2) * rng.standard_normal(m)


class TestGaussianInstance:
    def test_construction_identity(self, bench_params):
        # bit-exact when re-evaluated in construction order
        inst = gen_gaussian_instance(500, bench_params, seed=0)
        a, x0, w = _replayed(500, bench_params, 0)
        assert np.array_equal(inst.a, a) and np.array_equal(inst.x0, x0)
        assert inst.y.tobytes() == (a @ x0 + w).tobytes()

    def test_zero_signal_zero_noise(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=delta_prior())
        inst = gen_gaussian_instance(100, params, seed=1)
        assert np.array_equal(inst.y, np.zeros(inst.m))

    def test_column_norm_concentration(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.1))
        inst = gen_gaussian_instance(4000, params, seed=2)
        assert inst.m == 2000
        mean_norm = np.linalg.norm(inst.a, axis=0).mean()
        assert 0.98 <= mean_norm <= 1.02

    def test_noise_variance(self):
        params = ModelParams(delta=0.64, sigma2=0.2, prior=three_point(0.1))
        inst = gen_gaussian_instance(1000, params, seed=3)
        assert inst.m == 640
        a, x0, w = _replayed(1000, params, 3)
        assert inst.y.tobytes() == (a @ x0 + w).tobytes()
        assert 0.16 <= np.var(w) <= 0.24

    def test_determinism(self, bench_params):
        a = gen_gaussian_instance(200, bench_params, seed=9)
        b = gen_gaussian_instance(200, bench_params, seed=9)
        c = gen_gaussian_instance(200, bench_params, seed=10)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.a, c.a)

    def test_signal_nonzero_fraction(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.128))
        inst = gen_gaussian_instance(8000, params, seed=4)
        frac = np.mean(inst.x0 != 0)
        se = np.sqrt(0.128 * 0.872 / 8000)
        assert abs(frac - 0.128) < 4 * se

    def test_rejects_tiny_n(self, bench_params):
        with pytest.raises(ValueError):
            gen_gaussian_instance(1, bench_params, seed=0)

    def test_arrays_read_only(self, bench_params):
        inst = gen_gaussian_instance(50, bench_params, seed=0)
        with pytest.raises(ValueError):
            inst.x0[0] = 5.0


class TestRademacherInstance:
    def test_unit_columns_exactly(self, bench_params):
        inst = gen_instance(300, bench_params, 5, RADEMACHER)
        np.testing.assert_allclose(np.linalg.norm(inst.a, axis=0), 1.0, atol=1e-12)

    def test_entry_values(self):
        params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.1))
        inst = gen_instance(4000, params, 6, RADEMACHER)
        magnitudes = np.unique(np.abs(inst.a))
        assert magnitudes.size == 1
        assert magnitudes[0] == pytest.approx(1 / np.sqrt(2000), rel=1e-15)
        assert np.all(np.isin(np.sign(inst.a), (-1.0, 1.0)))

    def test_determinism(self, bench_params):
        a = gen_instance(100, bench_params, 7, RADEMACHER)
        b = gen_instance(100, bench_params, 7, RADEMACHER)
        assert np.array_equal(a.a, b.a)


def _one_shot(rng, m, n, ensemble):
    """The draw as one (m, n) expression: the reference for every fill."""
    if ensemble == GAUSSIAN:
        return rng.standard_normal((m, n)) / np.sqrt(m)
    return (2.0 * rng.integers(0, 2, size=(m, n)) - 1.0) / np.sqrt(m)


class TestDrawMatrix:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    # m * n odd throughout; 17 and 333 rows end in a partial block
    @pytest.mark.parametrize("m, n", [(1, 1), (17, 3), (333, 517)])
    def test_fresh_and_in_place_draws_match_one_shot(self, ensemble, m, n):
        for seed in (0, 1, 2):
            ref_rng, rng, buf_rng = (np.random.default_rng(seed) for _ in range(3))
            ref = _one_shot(ref_rng, m, n, ensemble)
            assert np.array_equal(draw_matrix(rng, m, n, ensemble), ref)
            buf = np.full((m, n), np.nan)
            assert draw_matrix(buf_rng, m, n, ensemble, out=buf) is buf
            assert np.array_equal(buf, ref)
            # the generator is left where one fresh draw leaves it
            state = ref_rng.bit_generator.state
            assert rng.bit_generator.state == state
            assert buf_rng.bit_generator.state == state

    @pytest.mark.parametrize("out", [np.empty((3, 4)), np.empty((4, 3), dtype=np.float32),
                                     np.empty((4, 6))[:, ::2]])
    def test_rejects_unfit_out(self, out):
        with pytest.raises(ValueError):
            draw_matrix(np.random.default_rng(0), 4, 3, GAUSSIAN, out=out)

    def test_rejects_unknown_ensemble(self):
        with pytest.raises(ValueError):
            draw_matrix(np.random.default_rng(0), 4, 3, "bernoulli")


@st.composite
def product_sequences(draw):
    """Shapes, a capacity, and products: new vectors, zeros, and vectors in the span."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    capacity = draw(st.integers(0, 8))
    steps = draw(st.lists(st.tuples(st.sampled_from("vz"),
                                    st.sampled_from(("new", "zero", "span")),
                                    st.integers(0, 2**32 - 1)), max_size=16))
    return m, n, capacity, steps


def _make_products(a, m, n, steps):
    """Apply ``a`` or ``a.T`` per step; returns (side, vector, product) triples."""
    made = []
    for side, kind, seed in steps:
        rng = np.random.default_rng(seed)
        dim = n if side == "v" else m
        earlier = [x for s, x, _ in made if s == side]
        if kind == "new":
            x = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
        elif kind == "span" and earlier:
            x = rng.standard_normal(len(earlier)) @ np.array(earlier)
        else:
            x = np.zeros(dim)
        made.append((side, x, a @ x if side == "v" else a.T @ x))
    return made


class TestConditionedGaussian:
    @settings(max_examples=300, deadline=None)
    @given(product_sequences())
    def test_drawn_matrix_reproduces_every_earlier_product(self, case):
        m, n, capacity, steps = case
        a = ConditionedGaussian(m, n, np.random.default_rng(0), capacity)
        made = _make_products(a, m, n, steps)
        if a._dense is None:
            a._draw()
        dense = a._dense
        assert dense.shape == (m, n)
        for side, x, out in made:
            expected = dense @ x if side == "v" else dense.T @ x
            bound = 1e-13 * np.linalg.norm(x) * (1.0 + np.linalg.norm(dense))
            assert np.abs(out - expected).max() <= bound

    def test_draws_once_a_side_is_full_and_then_multiplies(self):
        m, n = 7, 11
        a = ConditionedGaussian(m, n, np.random.default_rng(1), 3)
        made = _make_products(a, m, n, [("v", "new", i) for i in range(3)]
                              + [("z", "new", 10 + i) for i in range(2)])
        assert a._dense is None  # three directions fill v's side, but nothing overflowed
        v = np.random.default_rng(2).standard_normal(n)
        g = a @ v
        assert a._dense is not None and np.array_equal(g, a._dense @ v)
        z = np.random.default_rng(3).standard_normal(m)
        assert np.array_equal(a.T @ z, a._dense.T @ z)
        for side, x, out in made:
            expected = a._dense @ x if side == "v" else a._dense.T @ x
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13)

    def test_draw_holds_one_matrix(self):
        m, n = 256, 400
        capacity = conditioning_capacity(m, n)
        a = ConditionedGaussian(m, n, np.random.default_rng(4), capacity)
        _make_products(a, m, n, [(side, "new", i) for i in range(capacity)
                                 for side in "vz"])
        tracemalloc.start()
        try:
            a._draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix, one span's worth of projections, and row-block temporaries;
        # one (m, n) temporary would add a second matrix
        assert peak <= 8 * (m * n + capacity * (m + n) + 4 * 32 * n)

    def test_capacity_is_the_flop_crossover(self):
        assert conditioning_capacity(640, 1000) == 97
        assert conditioning_capacity(2560, 4000) == 390
        assert conditioning_capacity(1, 1) == 1


class TestLazyInstance:
    def test_y_is_the_first_product(self, bench_params):
        inst = gen_lazy_instance(300, bench_params, seed=3)
        assert (inst.m, inst.n) == (192, 300)
        assert inst.a._dense is None
        # the generator draws the signal, then the noise, then A's products
        rng = np.random.default_rng(3)
        x0 = sample_with_rng(bench_params.prior, 300, rng)
        w = np.sqrt(0.2) * rng.standard_normal(192)
        assert np.array_equal(inst.x0, x0)
        inst.a._draw()
        np.testing.assert_allclose(inst.y, inst.a._dense @ x0 + w, rtol=0, atol=1e-12)

    def test_determinism_and_read_only(self, bench_params):
        a = gen_lazy_instance(200, bench_params, seed=9)
        b = gen_lazy_instance(200, bench_params, seed=9)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x0, b.x0)
        r = np.random.default_rng(0).standard_normal(a.m)
        assert np.array_equal(a.a.T @ r, b.a.T @ r)
        with pytest.raises(ValueError):
            a.y[0] = 1.0

    def test_rejects_tiny_n(self, bench_params):
        with pytest.raises(ValueError):
            gen_lazy_instance(1, bench_params, seed=0)

    def test_amp_law_matches_drawn_matrices(self, bench_params):
        # AMP to tol at n = 200, where K(m, n) = 19 and most runs outlast it:
        # conditioned products, then a drawn matrix, against a drawn matrix
        policy = ThresholdPolicy.rms(2.0)
        stats = {}
        for name, gen in (("drawn", lambda s: gen_instance(200, bench_params, s)),
                          ("lazy", lambda s: gen_lazy_instance(200, bench_params, 10_000 + s))):
            mse, steps = [], []
            for seed in range(150):
                inst = gen(seed)
                res = amp_run(inst, policy, max_iter=300, tol=1e-8)
                mse.append(np.mean((res.x_hat - inst.x0) ** 2))
                steps.append(res.iterations)
            stats[name] = [(np.mean(v), np.std(v, ddof=1) / np.sqrt(len(v)))
                           for v in (mse, steps)]
        for (mean_d, se_d), (mean_l, se_l) in zip(stats["drawn"], stats["lazy"]):
            assert abs(mean_d - mean_l) <= 4.0 * np.hypot(se_d, se_l)


class TestPlantedInstance:
    def test_exact_support_size(self):
        inst = gen_planted_instance(1000, 0.5, 125, seed=8)
        assert np.count_nonzero(inst.x0) == 125
        assert set(np.unique(inst.x0[inst.x0 != 0])) <= {-1.0, 1.0}

    def test_noiseless_by_default(self):
        inst = gen_planted_instance(200, 0.5, 20, seed=9)
        # matrix, support, signs; no noise is drawn, so w = 0
        rng = np.random.default_rng(9)
        a = draw_matrix(rng, 100, 200, GAUSSIAN)
        x0 = np.zeros(200)
        support = rng.choice(200, size=20, replace=False)
        x0[support] = 2.0 * rng.integers(0, 2, size=20) - 1.0
        assert np.array_equal(inst.a, a) and np.array_equal(inst.x0, x0)
        assert inst.y.tobytes() == (a @ x0 + np.zeros(100)).tobytes()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


# (ensemble, sigma2, n): sha256 prefixes of the bytes of (a, x0, y) from
# gen_instance and gen_planted_instance (nnz = n // 2), and of (x0, y) from
# gen_lazy_instance; seed 11, delta 0.64, three_point(0.128).
INSTANCE_DIGESTS = {
    ("gaussian", 0.0, 2): ("6070c5f8bea182e2", "0f758c341e067100", "9d908ecfb6b256de"),
    ("gaussian", 0.0, 7): ("a1e1292f46d2154d", "4c49e9080d837cb6", "c7d536c4e8c57453"),
    ("gaussian", 0.0, 200): ("3314c57657d483c1", "78f20c04902381aa", "cfa316c34be1430e"),
    ("gaussian", 0.2, 2): ("259b56f6132753f6", "46c6887dcaddb4e9", "57ef9ddb0b3879c2"),
    ("gaussian", 0.2, 7): ("4cf8b856bc8d3d56", "87df121e00ccfe70", "4eb1a0c3e2e81a32"),
    ("gaussian", 0.2, 200): ("1f99909f239db355", "bfcd7f8fa97dd44a", "8065136fd3f95414"),
    ("rademacher", 0.0, 2): ("0bd23827df792b57", "f642205f17b5aa7d"),
    ("rademacher", 0.0, 7): ("def48d2d7060ecb3", "b06410ea1237f6ac"),
    ("rademacher", 0.0, 200): ("d374527a52cdfd78", "9c3b8c985b520a55"),
    ("rademacher", 0.2, 2): ("01bd4e4e30c4f3d3", "112bd5420852b59d"),
    ("rademacher", 0.2, 7): ("22b252ef710e60ad", "2c6a30dad66776f4"),
    ("rademacher", 0.2, 200): ("b853e55cd0c21529", "534a52310084aaed"),
}


class TestDrawBytes:
    @pytest.mark.parametrize("key", sorted(INSTANCE_DIGESTS))
    def test_generators_keep_their_bytes(self, key):
        ensemble, sigma2, n = key
        params = ModelParams(delta=0.64, sigma2=sigma2, prior=three_point(0.128))
        inst = gen_instance(n, params, 11, ensemble)
        planted = gen_planted_instance(n, 0.64, n // 2, 11, ensemble=ensemble,
                                       sigma2=sigma2)
        got = [_digest(inst.a, inst.x0, inst.y),
               _digest(planted.a, planted.x0, planted.y)]
        if ensemble == GAUSSIAN:
            lazy = gen_lazy_instance(n, params, 11)
            got.append(_digest(lazy.x0, lazy.y))
        assert tuple(got) == INSTANCE_DIGESTS[key]


class TestNonFiniteData:
    @pytest.mark.parametrize("field", ["a", "x0", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects(self, field, bad):
        data = {"a": np.array([[0.5, 1.0]]), "x0": np.array([1.0, 0.0]),
                "y": np.array([0.5])}
        data[field] = data[field].copy()
        data[field].flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Instance(**data)


class TestShapeCheck:
    @pytest.mark.parametrize("a", [np.ones((2, 2)),
                                   ConditionedGaussian(3, 2, np.random.default_rng(0), 1)],
                             ids=["array", "operator"])
    def test_rejects_a_matrix_of_another_shape(self, a):
        with pytest.raises(ValueError, match="matrix shape"):
            Instance(a=a, x0=np.ones(3), y=np.ones(2))
