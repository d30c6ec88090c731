"""Sphere sampling, chi moments, the square-root-radius law and coordinate maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, quad
from scipy.stats import chi, chisquare, kstest

from laplace_audit import (
    RadialLaw,
    chi_moment,
    chi_quadrature,
    chi_quantile,
    from_theta,
    radial_min_curvature,
    sample_direction,
    sample_direction_pairs,
    to_theta,
    z_log_density,
)


class TestSampleDirection:
    def test_d1_support_is_plus_minus_one(self):
        rng = np.random.default_rng(0)
        values = {float(sample_direction(1, rng)[0]) for _ in range(200)}
        assert values == {-1.0, 1.0}

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 5, 50):
            for _ in range(20):
                e = sample_direction(d, rng)
                assert abs(np.linalg.norm(e) - 1.0) <= 1e-12

    def test_first_two_moments_on_s2(self):
        rng = np.random.default_rng(2)
        samples = np.array([sample_direction(3, rng) for _ in range(100_000)])
        se_mean = np.sqrt(1.0 / 3.0 / samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0)) < 3 * se_mean)
        cov = np.cov(samples.T)
        np.testing.assert_allclose(cov, np.eye(3) / 3.0, atol=0.01)

    def test_rotation_invariance_chisquare(self):
        rng = np.random.default_rng(3)
        samples = np.array([sample_direction(4, rng) for _ in range(20_000)])
        q, r = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
        q = q * np.sign(np.diag(r))
        rotated = samples @ q.T
        edges = np.linspace(-1.0, 1.0, 21)
        observed = np.histogram(rotated[:, 0], bins=edges)[0]
        expected = np.histogram(samples[:, 0], bins=edges)[0]
        # two-sample homogeneity reduces to one-sample chi-square against the
        # pooled expectation; 1% level
        keep = expected > 5
        stat = chisquare(observed[keep], f_exp=expected[keep] * observed[keep].sum()
                         / expected[keep].sum())
        assert stat.pvalue > 0.01

    def test_antithetic_pairs_interleaved(self):
        rng = np.random.default_rng(4)
        pairs = sample_direction_pairs(3, 5, rng)
        assert pairs.shape == (10, 3)
        np.testing.assert_array_equal(pairs[0::2], -pairs[1::2])

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sample_direction(0, np.random.default_rng(0))


class TestChiMoment:
    def test_zeroth_moment_is_one(self):
        for d in (1, 2, 5, 50):
            assert chi_moment(d, 0) == pytest.approx(1.0, rel=1e-15)

    def test_second_moment_is_dimension(self):
        assert chi_moment(3, 2) == pytest.approx(3.0, rel=1e-13)
        assert chi_moment(50, 2) == pytest.approx(50.0, rel=1e-13)

    def test_frozen_high_precision_value(self):
        # 2 sqrt(2) Gamma(4) / Gamma(2.5), 40-digit evaluation
        assert chi_moment(5, 3) == pytest.approx(12.766152972845845694, rel=1e-13)

    def test_quick_monte_carlo(self):
        rng = np.random.default_rng(5)
        r = np.sqrt(rng.chisquare(5, size=1_000_000))
        mc = (r**3).mean()
        se = (r**3).std(ddof=1) / 1000.0
        assert abs(chi_moment(5, 3) - mc) < 3 * se

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 300), k=st.integers(2, 12))
    def test_recursion_exact(self, d, k):
        lhs = chi_moment(d, k)
        rhs = (d + k - 2) * chi_moment(d, k - 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_overflow_safe_at_large_arguments(self):
        value = chi_moment(9_990, 10)
        assert np.isfinite(value) and value > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi_moment(0, 2)
        with pytest.raises(ValueError):
            chi_moment(3, -1)


class TestRadialLaw:
    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_density_integrates_to_one(self, d):
        law = RadialLaw(d)
        total = quad(lambda z: np.exp(law.log_density(z)), 1e-12, 6.0, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("d", [1, 3, 20])
    def test_mode_matches_grid_argmax(self, d):
        law = RadialLaw(d)
        zs = np.linspace(0.05, 4.0, 200_001)
        grid_mode = zs[np.argmax(law.log_density(zs))]
        assert law.mode == pytest.approx(((2 * d - 1) / 2.0) ** 0.25, rel=1e-14)
        assert grid_mode == pytest.approx(law.mode, abs=3e-5)

    def test_fourth_moment_equals_dimension(self):
        for d in (1, 4, 9):
            law = RadialLaw(d)
            val = quad(
                lambda z: z**4 * np.exp(law.log_density(z)), 1e-12, 8.0, limit=300
            )[0]
            assert val == pytest.approx(chi_moment(d, 2), rel=1e-9)
            assert chi_moment(d, 2) == pytest.approx(d, rel=1e-13)

    def test_rejects_nonpositive_z(self):
        law = RadialLaw(3)
        with pytest.raises(ValueError):
            law.log_density(0.0)
        with pytest.raises(ValueError):
            z_log_density(law, -1.0)


class TestRadialMinCurvature:
    def test_frozen_values(self):
        assert radial_min_curvature(1) == pytest.approx(4.8989794855663562, rel=1e-14)
        assert radial_min_curvature(5) == pytest.approx(14.696938456699069, rel=1e-14)

    def test_matches_grid_minimum_for_many_dimensions(self):
        for d in range(1, 101):
            z_star = ((2 * d - 1) / 6.0) ** 0.25
            zs = np.geomspace(z_star / 20, z_star * 20, 200_001)
            curv = (2 * d - 1) / zs**2 + 6 * zs**2
            grid_min = curv.min()
            formula = radial_min_curvature(d)
            assert formula <= grid_min * (1 + 1e-12)
            assert grid_min == pytest.approx(formula, rel=1e-8)

    def test_lower_bounds_curvature_everywhere(self):
        for d in (1, 7, 33):
            zs = np.geomspace(1e-2, 10.0, 10_001)
            curv = (2 * d - 1) / zs**2 + 6 * zs**2
            assert np.all(curv >= radial_min_curvature(d) - 1e-9)


class TestChiQuadrature:
    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_matches_moment_formula(self, d):
        rs, ws = chi_quadrature(d, 64)
        for k in (0, 1, 2, 3, 4):
            assert float(ws @ rs**k) == pytest.approx(chi_moment(d, k), rel=1e-10)

    def test_node_doubling_converges(self):
        rs64, ws64 = chi_quadrature(7, 64)
        rs128, ws128 = chi_quadrature(7, 128)
        h = lambda r: np.log1p(r) * np.sin(r)  # smooth non-polynomial integrand
        assert abs(float(ws64 @ h(rs64)) - float(ws128 @ h(rs128))) < 1e-10


class TestChiQuantiles:
    def test_match_scipy_stats_chi(self):
        # the package computes both through the inverse incomplete gamma
        # functions, which is how scipy.stats.chi defines ppf and isf
        for d in range(1, 201):
            for p in (1e-6, 0.25, 0.5, 1.0 - 1e-6):
                assert chi_quantile(d, p) == pytest.approx(chi.ppf(p, d), rel=1e-15)
            rs, _ = chi_quadrature(d, 16)
            # Gauss-Legendre nodes on [0, r_hi]: the outermost ones are symmetric about r_hi / 2
            assert rs[0] + rs[-1] == pytest.approx(chi.isf(1e-14, d), rel=1e-14)


class TestCoordinateMaps:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), z=st.floats(0.05, 3.0))
    def test_round_trip(self, seed, z):
        from laplace_audit import SyntheticDatasetConfig, fit_laplace, generate_dataset

        dataset = generate_dataset(SyntheticDatasetConfig(d=3, n=20, seed=11))
        fit = fit_laplace(dataset.model(5.0))
        rng = np.random.default_rng(seed)
        e = sample_direction(3, rng)
        theta = to_theta(fit, z, e)
        z_back, e_back = from_theta(fit, theta)
        assert z_back == pytest.approx(z, abs=1e-10)
        np.testing.assert_allclose(e_back, e, atol=1e-10)

    def test_center_maps(self, logistic_tiny):
        _, fit = logistic_tiny
        np.testing.assert_array_equal(to_theta(fit, 0.0, np.ones(3)), fit.theta_star)
        z, e = from_theta(fit, fit.theta_star)
        assert z == 0.0 and e is None

    def test_radius_is_whitened_norm(self, logistic_tiny):
        _, fit = logistic_tiny
        rng = np.random.default_rng(6)
        theta = fit.theta_star + rng.standard_normal(3)
        z, _ = from_theta(fit, theta)
        r = np.linalg.norm(np.linalg.solve(fit.sqrt_covariance, theta - fit.theta_star))
        assert z**2 == pytest.approx(r, rel=1e-10)

    def test_negative_z_rejected(self, logistic_tiny):
        _, fit = logistic_tiny
        with pytest.raises(ValueError):
            to_theta(fit, -0.1, np.ones(3))

    def test_gaussian_posterior_z_follows_the_law(self, gaussian_5d):
        model, fit = gaussian_5d
        rng = np.random.default_rng(12)
        eta = rng.standard_normal((100_000, 5))
        thetas = model.mean + eta @ fit.sqrt_covariance
        zs = np.sqrt(np.linalg.norm(eta, axis=1))
        # quadrature CDF of the square-root-radius law as the reference
        law = RadialLaw(5)
        grid = np.linspace(1e-9, 6.0, 40_001)
        pdf = np.exp(law.log_density(np.maximum(grid, 1e-12)))
        cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
        cdf /= cdf[-1]
        stat = kstest(zs, lambda q: np.interp(q, grid, cdf)).statistic
        critical_1pct = 1.628 / np.sqrt(zs.shape[0])
        assert stat < critical_1pct
        # and the transformed coordinates are what from_theta reports
        z0, _ = from_theta(fit, thetas[0])
        assert z0 == pytest.approx(zs[0], rel=1e-9)
