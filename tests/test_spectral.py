"""Diagonal model: norms, semigroup, smoothing, drift and diffusion maps."""

import pickle

import numpy as np
import pytest

from rpde_lab.errors import ConfigError
from rpde_lab.spectral import SpectralModel, SpectralState, model_from_config, smoothing_constant


@pytest.fixture
def model():
    return SpectralModel(12, lambda_a=2.0, alpha=0.0, sigma_f=0.25, sigma_g=0.1,
                         c_f=0.5, c_g=0.4)


def state(model, coeffs):
    return SpectralState(coeffs, model.alpha)


def semigroup_apply(model, t, st):
    return SpectralState(model.semigroup_factors(t) * st.coeffs, st.alpha)


def random_states(model, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, model.n_modes)) * scale


class TestSpaces:
    def test_base_norm_is_euclidean(self, model):
        st = state(model, np.ones(12))
        assert model.frac_norm(st, 0.0) == pytest.approx(np.sqrt(12.0), rel=1e-14)

    def test_single_mode_norm(self, model):
        e3 = np.zeros(12)
        e3[2] = 1.0
        assert model.frac_norm(state(model, e3), 0.7) == pytest.approx(model.mu[2] ** 0.7)

    def test_interpolation_inequality_unit_constant(self, model):
        a1, a2, a3 = 0.0, 0.3, 0.7
        for x in random_states(model, 100, seed=5):
            lhs = model.frac_norm(x, a2) ** (a3 - a1)
            rhs = model.frac_norm(x, a1) ** (a3 - a2) * model.frac_norm(x, a3) ** (a2 - a1)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_embedding_tail_factor(self, model):
        # mass on modes >= k: the base norm is controlled by mu_k^-beta times
        # the lifted norm, the compactness surrogate of the embedding
        beta = 0.4
        for k in (3, 6, 10):
            x = np.zeros(12)
            x[k - 1:] = 1.0
            assert model.frac_norm(x, 0.0) <= model.mu[k - 1] ** (-beta) * \
                model.frac_norm(x, beta) * (1.0 + 1e-12)

    def test_eigenvalues(self):
        m = SpectralModel(4, lambda_a=3.0)
        assert m.mu == pytest.approx((np.arange(1, 5) * np.pi) ** 2 + 3.0)
        with pytest.raises(ConfigError):
            SpectralModel(4, lambda_a=3.0, mu=[1.0, 2.0, 3.0, 1.0])
        with pytest.raises(ConfigError):
            SpectralModel(4, lambda_a=-1.0)


class TestSemigroup:
    def test_identity_at_zero(self, model):
        st = state(model, random_states(model, 1)[0])
        assert np.array_equal(semigroup_apply(model, 0.0, st).coeffs, st.coeffs)

    def test_exponential_stability(self, model):
        for x in random_states(model, 20, seed=2):
            st = state(model, x)
            for t in (0.1, 0.5, 2.0):
                decayed = semigroup_apply(model, t, st)
                assert model.frac_norm(decayed, 0.0) <= \
                    np.exp(-model.lambda_a * t) * model.frac_norm(st, 0.0) * (1 + 1e-12)

    def test_semigroup_property(self, model):
        st = state(model, random_states(model, 1, seed=3)[0])
        both = semigroup_apply(model, 0.7, semigroup_apply(model, 0.3, st))
        direct = semigroup_apply(model, 1.0, st)
        assert both.coeffs == pytest.approx(direct.coeffs, rel=1e-12)

    def test_negative_time_rejected(self, model):
        with pytest.raises(ValueError):
            semigroup_apply(model, -0.1, state(model, np.zeros(12)))

    def test_smoothing_constant_against_per_mode_oracle(self, model):
        # brute-force maximization of t^sigma mu^sigma exp(-(mu - lam) t)
        sigma, lam = 0.5, 1.0
        cons = smoothing_constant(sigma, lam, float(model.mu[0]))
        ts = np.linspace(1e-6, 20.0, 40_000)
        worst = 0.0
        for mu in model.mu:
            vals = ts ** sigma * mu ** sigma * np.exp(-(mu - lam) * ts)
            worst = max(worst, float(vals.max()))
        assert worst <= cons * (1.0 + 1e-9)
        assert cons <= worst * (1.0 + 1e-3)  # attained at the bottom mode

    def test_smoothing_constant_function(self, model):
        # the closed form sup_u u^sigma exp(-(1 - lam/mu1) u), at u = sigma / (1 - lam/mu1)
        mu1 = float(model.mu[0])
        u = 0.5 / (1.0 - 1.0 / mu1)
        assert smoothing_constant(0.5, 1.0, mu1) == pytest.approx(u ** 0.5 * np.exp(-0.5), rel=1e-15)
        assert smoothing_constant(0.0, 2.0 * mu1, mu1) == 1.0
        with pytest.raises(ConfigError):
            smoothing_constant(0.5, mu1, mu1)
        with pytest.raises(ConfigError):
            smoothing_constant(-0.1, 1.0, mu1)

    def test_smoothing_bounds_semigroup(self, model):
        sigma, lam = 0.5, 1.0
        cons = smoothing_constant(sigma, lam, float(model.mu[0]))
        for x in random_states(model, 10, seed=4):
            st = state(model, x)
            base = model.frac_norm(st, 0.0)
            for t in np.linspace(0.01, 1.0, 25):
                lifted = model.frac_norm(semigroup_apply(model, t, st), sigma)
                assert t ** sigma * np.exp(lam * t) * lifted <= cons * base * (1 + 1e-12)


class TestDrift:
    def test_zero_fixed_point(self, model):
        out = model.apply_f(state(model, np.zeros(12)))
        assert model.frac_norm(out, model.alpha - model.sigma_f) == 0.0

    def test_lipschitz_ratio(self, model):
        pairs = random_states(model, 2000, seed=6).reshape(1000, 2, 12)
        for x, z in pairs:
            num = model.frac_norm(model.apply_f(state(model, x)).coeffs
                                  - model.apply_f(state(model, z)).coeffs,
                                  model.alpha - model.sigma_f)
            den = model.frac_norm(x - z, model.alpha)
            assert num <= model.c_f * den * (1.0 + 1e-12)

    def test_zero_map_config(self):
        m = SpectralModel(6, lambda_a=1.0, c_f=0.0)
        out = m.apply_f(state(m, np.ones(6)))
        assert np.all(out.coeffs == 0.0)


class TestDiffusionLinear:
    def test_single_mode_action(self):
        m = SpectralModel(8, lambda_a=2.0, sigma_g=0.3, c_g=1.0)
        e5 = np.zeros(8)
        e5[4] = 1.0
        out = m.apply_g(state(m, e5))
        assert out.coeffs[4] == pytest.approx((25 * np.pi ** 2) ** 0.3, rel=1e-13)

    def test_gubinelli_is_g_squared(self):
        m = SpectralModel(8, lambda_a=2.0, sigma_g=0.3, c_g=0.7)
        rng = np.random.default_rng(8)
        st = state(m, rng.standard_normal(8))
        g, dg_g = m.g_and_dg(st.coeffs)
        assert np.array_equal(g, m.apply_g(st).coeffs)
        assert dg_g == pytest.approx(m.apply_g(m.apply_g(st)).coeffs, rel=1e-14)

    def test_bound_property(self):
        m = SpectralModel(8, lambda_a=2.0, sigma_g=0.3, c_g=0.7)
        assert m.c_g_bound == 0.7


class TestDiffusionIntegral:
    @pytest.fixture
    def imodel(self):
        return SpectralModel(10, lambda_a=2.0, sigma_g=0.0, c_g=0.5, g_kind="integral")

    def test_derivative_chain_by_finite_differences(self, imodel):
        # DG(u)[h] against the central difference of G along h
        rng = np.random.default_rng(9)
        u = state(imodel, rng.standard_normal(10) * 0.4)
        h = state(imodel, rng.standard_normal(10) * 0.7)
        eps = 1e-5
        plus = imodel.apply_g(state(imodel, u.coeffs + eps * h.coeffs)).coeffs
        minus = imodel.apply_g(state(imodel, u.coeffs - eps * h.coeffs)).coeffs
        assert imodel.apply_dg(u, h).coeffs == pytest.approx((plus - minus) / (2 * eps), rel=1e-5)

    def test_value_at_zero_nonzero(self, imodel):
        out = imodel.apply_g(state(imodel, np.zeros(10)))
        assert imodel.frac_norm(out, 0.0) > 0


class TestFusedDiffusion:
    """g_and_dg against apply_g then apply_dg, and the kernel grid against the kernel formula."""

    MODELS = {
        "integral": dict(n_modes=10, lambda_a=2.0, c_g=0.5, g_kind="integral"),
        "integral_shifted": dict(n_modes=16, lambda_a=8.0, sigma_g=0.2, c_g=2e-4,
                                 g_kind="integral"),
        "linear": dict(n_modes=8, lambda_a=2.0, sigma_g=0.3, c_g=0.7),
    }

    @staticmethod
    def states(n_modes):
        rng = np.random.default_rng(21)
        return [np.zeros(n_modes), rng.standard_normal(n_modes),
                1e6 * rng.standard_normal(n_modes)]

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_apply_g_then_apply_dg(self, name):
        m = SpectralModel(**self.MODELS[name])
        work = m.kernel_work()
        for y in self.states(m.n_modes):
            st = state(m, y)
            g = m.apply_g(st)
            dg_g = m.apply_dg(st, g)
            for got in (m.g_and_dg(y), m.g_and_dg(y, work)):
                assert np.array_equal(got[0], g.coeffs)
                assert np.array_equal(got[1], dg_g.coeffs)
            assert np.array_equal(m.g_values(y, work), g.coeffs)

    @pytest.mark.parametrize("name", ["integral", "integral_shifted"])
    def test_grid_matches_kernel_formula(self, name):
        # the shared tanh grid against the quadrature of the kernel
        # g(xi, v) = c_g sin(pi xi) tanh(v + cos(pi xi)/2) and of its
        # derivative in v, evaluated on broadcast node columns: the same bits
        m = SpectralModel(**self.MODELS[name])
        assert m.kernel_work().shape == (2, 128, 128)
        assert m.c_g_bound == 2.0 * abs(m.c_g)
        xi = m._nodes[:, None]
        scale, shift = m.c_g * np.sin(np.pi * xi), 0.5 * np.cos(np.pi * xi)
        rng = np.random.default_rng(22)
        for y in self.states(m.n_modes):
            h = rng.standard_normal(m.n_modes)
            t = np.tanh((y @ m._basis)[None, :] + shift)
            g = m._basis @ (m._weights * ((scale * t) @ m._weights))
            dg_h = (scale * (1.0 - t * t)) * (h @ m._basis)[None, :]
            dg_g = (scale * (1.0 - t * t)) * (g @ m._basis)[None, :]
            assert np.array_equal(m.g_values(y), g)
            assert np.array_equal(m.g_and_dg(y)[1], m._basis @ (m._weights * (dg_g @ m._weights)))
            assert np.array_equal(m.apply_dg(state(m, y), state(m, h)).coeffs,
                                  m._basis @ (m._weights * (dg_h @ m._weights)))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_model_pickles(self, name):
        # a model can go to a worker process: its copy gives the same bits
        m = SpectralModel(**self.MODELS[name])
        copy = pickle.loads(pickle.dumps(m))
        for y in self.states(m.n_modes):
            for a, b in zip(m.g_and_dg(y), copy.g_and_dg(y)):
                assert np.array_equal(a, b)


class TestConfigFile:
    def test_round_trip(self, tmp_path, model):
        path = tmp_path / "model.txt"
        from rpde_lab.configio import write_kv_file
        keys = ("n_modes", "lambda_a", "alpha", "sigma_f", "sigma_g", "c_f", "c_g", "g_kind")
        write_kv_file(str(path), {key: getattr(model, key) for key in keys})
        loaded = model_from_config(str(path))
        assert loaded.n_modes == model.n_modes
        assert loaded.mu == pytest.approx(model.mu)
        assert loaded.sigma_f == model.sigma_f

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            model_from_config("/nonexistent/model.txt")

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("n_modes = 4\nlambda_a = 1.0\ng_kind = fancy\n")
        with pytest.raises(ConfigError):
            model_from_config(str(path))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("n_modes = 4\n")
        with pytest.raises(ConfigError):
            model_from_config(str(path))
