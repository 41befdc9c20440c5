"""Diagonal model: norms, semigroup, smoothing, drift and diffusion maps."""

import numpy as np
import pytest

from rpde_lab.errors import ConfigError
from rpde_lab.spectral import IntegralKernel, SpectralModel, model_from_config, smoothing_constant


@pytest.fixture
def model():
    return SpectralModel(12, lambda_a=2.0, alpha=0.0, sigma_f=0.25, sigma_g=0.1,
                         c_f=0.5, c_g=0.4)


def random_states(model, n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, model.n_modes)) * scale


class TestSpaces:
    def test_base_norm_is_euclidean(self, model):
        st = model.state(np.ones(12))
        assert model.frac_norm(st, 0.0) == pytest.approx(np.sqrt(12.0), rel=1e-14)

    def test_single_mode_norm(self, model):
        e3 = np.zeros(12)
        e3[2] = 1.0
        assert model.frac_norm(model.state(e3), 0.7) == pytest.approx(model.mu[2] ** 0.7)

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
        st = model.state(random_states(model, 1)[0])
        assert np.array_equal(model.semigroup_apply(0.0, st).coeffs, st.coeffs)

    def test_exponential_stability(self, model):
        for x in random_states(model, 20, seed=2):
            st = model.state(x)
            for t in (0.1, 0.5, 2.0):
                decayed = model.semigroup_apply(t, st)
                assert model.frac_norm(decayed, 0.0) <= \
                    np.exp(-model.lambda_a * t) * model.frac_norm(st, 0.0) * (1 + 1e-12)

    def test_semigroup_property(self, model):
        st = model.state(random_states(model, 1, seed=3)[0])
        both = model.semigroup_apply(0.7, model.semigroup_apply(0.3, st))
        direct = model.semigroup_apply(1.0, st)
        assert both.coeffs == pytest.approx(direct.coeffs, rel=1e-12)

    def test_negative_time_rejected(self, model):
        with pytest.raises(ValueError):
            model.semigroup_apply(-0.1, model.state(np.zeros(12)))

    def test_smoothing_constant_against_per_mode_oracle(self, model):
        # brute-force maximization of t^sigma mu^sigma exp(-(mu - lam) t)
        sigma, lam = 0.5, 1.0
        cons = model.smoothing_constant(sigma, lam)
        ts = np.linspace(1e-6, 20.0, 40_000)
        worst = 0.0
        for mu in model.mu:
            vals = ts ** sigma * mu ** sigma * np.exp(-(mu - lam) * ts)
            worst = max(worst, float(vals.max()))
        assert worst <= cons * (1.0 + 1e-9)
        assert cons <= worst * (1.0 + 1e-3)  # attained at the bottom mode

    def test_smoothing_constant_function(self, model):
        # the method is the module function at the bottom eigenvalue
        mu1 = float(model.mu[0])
        assert model.smoothing_constant(0.5, 1.0) == smoothing_constant(0.5, 1.0, mu1)
        assert smoothing_constant(0.0, 2.0 * mu1, mu1) == 1.0
        with pytest.raises(ConfigError):
            smoothing_constant(0.5, mu1, mu1)
        with pytest.raises(ConfigError):
            smoothing_constant(-0.1, 1.0, mu1)

    def test_smoothing_bounds_semigroup(self, model):
        sigma, lam = 0.5, 1.0
        cons = model.smoothing_constant(sigma, lam)
        for x in random_states(model, 10, seed=4):
            st = model.state(x)
            base = model.frac_norm(st, 0.0)
            for t in np.linspace(0.01, 1.0, 25):
                lifted = model.frac_norm(model.semigroup_apply(t, st), sigma)
                assert t ** sigma * np.exp(lam * t) * lifted <= cons * base * (1 + 1e-12)


class TestDrift:
    def test_zero_fixed_point(self, model):
        out = model.apply_f(model.state(np.zeros(12)))
        assert model.frac_norm(out, model.alpha - model.sigma_f) == 0.0

    def test_lipschitz_ratio(self, model):
        pairs = random_states(model, 2000, seed=6).reshape(1000, 2, 12)
        for x, z in pairs:
            num = model.frac_norm(model.apply_f(model.state(x)).coeffs
                                  - model.apply_f(model.state(z)).coeffs,
                                  model.alpha - model.sigma_f)
            den = model.frac_norm(x - z, model.alpha)
            assert num <= model.c_f * den * (1.0 + 1e-12)

    def test_zero_map_config(self):
        m = SpectralModel(6, lambda_a=1.0, c_f=0.0)
        out = m.apply_f(m.state(np.ones(6)))
        assert np.all(out.coeffs == 0.0)


class TestDiffusionLinear:
    def test_single_mode_action(self):
        m = SpectralModel(8, lambda_a=2.0, sigma_g=0.3, c_g=1.0)
        e5 = np.zeros(8)
        e5[4] = 1.0
        out = m.apply_g(m.state(e5))
        assert out.coeffs[4] == pytest.approx((25 * np.pi ** 2) ** 0.3, rel=1e-13)

    def test_gubinelli_is_g_squared(self):
        m = SpectralModel(8, lambda_a=2.0, sigma_g=0.3, c_g=0.7)
        rng = np.random.default_rng(8)
        st = m.state(rng.standard_normal(8))
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
        rng = np.random.default_rng(9)
        u = imodel.state(rng.standard_normal(10) * 0.4)
        h = imodel.state(rng.standard_normal(10) * 0.7)
        eps = 1e-5

        def fd(fn, order_args):
            plus = fn(imodel.state(u.coeffs + eps * h.coeffs), *order_args).coeffs
            minus = fn(imodel.state(u.coeffs - eps * h.coeffs), *order_args).coeffs
            return (plus - minus) / (2 * eps)

        d1 = imodel.apply_dg(u, h).coeffs
        assert d1 == pytest.approx(fd(imodel.apply_g, ()), rel=1e-5)
        d2 = imodel.apply_d2g(u, h, h).coeffs
        assert d2 == pytest.approx(fd(imodel.apply_dg, (h,)), rel=1e-5)
        d3 = imodel.apply_d3g(u, h, h, h).coeffs
        assert d3 == pytest.approx(fd(imodel.apply_d2g, (h, h)), rel=1e-4)

    def test_value_at_zero_nonzero(self, imodel):
        out = imodel.apply_g(imodel.state(np.zeros(10)))
        assert imodel.frac_norm(out, 0.0) > 0

    def test_bounded_kernel_required(self):
        bad = dict(g=lambda xi, v: v, d1=lambda xi, v: 1.0 + 0 * v,
                   d2=lambda xi, v: 0 * v, d3=lambda xi, v: 0 * v)
        with pytest.raises(ConfigError):
            SpectralModel(6, lambda_a=1.0, g_kind="integral",
                          kernel=IntegralKernel(**bad, deriv_bound=float("inf")))

    def test_kernel_only_for_integral(self):
        k = IntegralKernel(lambda xi, v: 0 * v, lambda xi, v: 0 * v,
                           lambda xi, v: 0 * v, lambda xi, v: 0 * v, 1.0)
        with pytest.raises(ConfigError):
            SpectralModel(6, lambda_a=1.0, g_kind="linear", kernel=k)


class TestFusedDiffusion:
    """g_and_dg against apply_g then apply_dg, and the kernel grid against the kernel."""

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
            st = m.state(y)
            g = m.apply_g(st)
            dg_g = m.apply_dg(st, g)
            for got in (m.g_and_dg(y), m.g_and_dg(y, work)):
                assert np.array_equal(got[0], g.coeffs)
                assert np.array_equal(got[1], dg_g.coeffs)
            assert np.array_equal(m.g_values(y, work), g.coeffs)

    @pytest.mark.parametrize("name", ["integral", "integral_shifted"])
    def test_grid_matches_kernel_functions(self, name):
        # a custom kernel takes the kernel-function path; the built-in one the
        # shared tanh grid, which must give the same bits
        pairs = self.MODELS[name]
        m = SpectralModel(**pairs)
        custom = SpectralModel(**pairs, kernel=m.kernel)
        assert m.kernel_work().shape == (2, 128, 128) and custom.kernel_work() is None
        rng = np.random.default_rng(22)
        for y in self.states(m.n_modes):
            h = rng.standard_normal(m.n_modes)
            for a, b in zip(m.g_and_dg(y), custom.g_and_dg(y)):
                assert np.array_equal(a, b)
            assert np.array_equal(m.apply_dg(m.state(y), m.state(h)).coeffs,
                                  custom.apply_dg(custom.state(y), custom.state(h)).coeffs)


class TestConfigFile:
    def test_round_trip(self, tmp_path, model):
        path = tmp_path / "model.txt"
        from rpde_lab.configio import write_kv_file
        write_kv_file(str(path), model.config_pairs())
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
