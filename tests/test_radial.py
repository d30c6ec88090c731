"""Sphere sampling, chi moments and quadrature, and the square-root-radius law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import cumulative_trapezoid, quad
from scipy.special import gammaln
from scipy.stats import chi, chisquare, kstest

from laplace_audit import (
    chi_moment,
    chi_quadrature,
    radial_min_curvature,
    sample_direction,
    sample_direction_pairs,
)
from laplace_audit.radial import _STREAMS, QUADRATURE_NODES, _chi_span, _stream_rng

from oracles import RadialLaw


class TestStreams:
    def test_every_stream_has_its_own_spawn_key(self):
        keys = list(_STREAMS.values())
        assert len(set(keys)) == len(keys)
        assert all(isinstance(key, tuple) for key in keys)

    def test_generator_is_the_seed_sequence_child(self):
        for stream, key in _STREAMS.items():
            direct = np.random.default_rng(np.random.SeedSequence(7, spawn_key=key))
            np.testing.assert_array_equal(_stream_rng(7, stream).random(4), direct.random(4))
        # the dataset stream is the root sequence of the seed itself
        np.testing.assert_array_equal(
            _stream_rng(7, "dataset").random(4), np.random.default_rng(7).random(4)
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

    @pytest.mark.parametrize("d", [1, 3, 50])
    def test_pairs_follow_the_single_direction_stream(self, d):
        pairs = sample_direction_pairs(d, 64, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        singles = np.array([sample_direction(d, rng) for _ in range(64)])
        np.testing.assert_allclose(pairs[0::2], singles, rtol=1e-15, atol=0.0)
        assert np.all(np.isfinite(pairs))
        assert np.all(np.any(pairs != 0.0, axis=1))

    def test_pairs_redraw_a_zero_row(self):
        class FirstRowZero:
            def __init__(self):
                self.rng = np.random.default_rng(3)
                self.calls = 0

            def standard_normal(self, size):
                eta = self.rng.standard_normal(size)
                if self.calls == 0:
                    eta[0] = 0.0
                self.calls += 1
                return eta

        rng = FirstRowZero()
        pairs = sample_direction_pairs(3, 4, rng)
        assert rng.calls == 2
        np.testing.assert_allclose(np.linalg.norm(pairs, axis=1), 1.0, rtol=1e-15)

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

    def test_gamma_identities_to_1e_14_up_to_d_10000(self):
        # Gamma(a + 1) = a Gamma(a) gives chi_moment(d, 1) chi_moment(d + 1, 1) = d
        # and chi_moment(d, k + 2) = (d + k) chi_moment(d, k); a difference of
        # log-gammas missed them by up to 2.3e-11 over these d
        worst = 0.0
        for d in range(1, 10_001):
            m1 = chi_moment(d, 1)
            worst = max(worst, abs(m1 * chi_moment(d + 1, 1) - d) / d)
            moments = [chi_moment(d, k) for k in range(10)]
            for k in range(8):
                want = (d + k) * moments[k]
                worst = max(worst, abs(moments[k + 2] - want) / want)
        assert worst <= 1e-14, worst

    def test_matches_scipy_gammaln(self):
        for d in range(1, 1001):
            for k in range(13):
                want = np.exp(0.5 * k * np.log(2.0) + gammaln(0.5 * (d + k)) - gammaln(0.5 * d))
                # scipy's side loses about one ulp of lgamma(d/2) to the
                # difference of log-gammas, 4.5e-13 at d = 1000; the largest
                # gap measured is 1.1e-12 (d = 896, k = 2)
                assert chi_moment(d, k) == pytest.approx(want, rel=1.5e-12, abs=0)

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
            law.log_density(-1.0)

    def test_gaussian_posterior_z_follows_the_law(self):
        rng = np.random.default_rng(12)
        eta = rng.standard_normal((100_000, 5))
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


class TestRadialMinCurvature:
    def test_frozen_values(self):
        assert radial_min_curvature(1) == pytest.approx(4.8989794855663562, rel=1e-14)
        assert radial_min_curvature(5) == pytest.approx(14.696938456699069, rel=1e-14)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            radial_min_curvature(0)

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


def _zero_based_rule(d, nodes):
    """Gauss-Legendre nodes on [0, r_hi] against the chi density, r_hi the 1 - 1e-14 quantile.

    With 64 nodes it is the accuracy baseline the default rule of
    ``chi_quadrature``, half as many nodes on a span fitted to the chi mass,
    is held to.
    """
    x, w = leggauss(nodes)
    r_hi = chi.isf(1e-14, d)
    rs = 0.5 * r_hi * (x + 1.0)
    return rs, 0.5 * r_hi * w * chi.pdf(rs, d)


def _span_legendre_rule(d, x, w):
    """Gauss-Legendre points x, weights w mapped onto ``_chi_span(d)`` against the chi density."""
    r_lo, r_hi = _chi_span(d)
    half = 0.5 * (r_hi - r_lo)
    rs = r_lo + half * (x + 1.0)
    return rs, half * w * chi.pdf(rs, d)


class TestChiQuadrature:
    @pytest.mark.parametrize("d", [1, 2, 5, 50, 1000, 10_000])
    def test_matches_moment_formula(self, d):
        rs, ws = chi_quadrature(d, 64)
        for k in (0, 1, 2, 3, 4):
            assert float(ws @ rs**k) == pytest.approx(chi_moment(d, k), rel=1e-10)

    def test_node_doubling_converges(self):
        rs64, ws64 = chi_quadrature(7, 64)
        rs128, ws128 = chi_quadrature(7, 128)
        h = lambda r: np.log1p(r) * np.sin(r)  # smooth non-polynomial integrand
        assert abs(float(ws64 @ h(rs64)) - float(ws128 @ h(rs128))) < 1e-10

    def test_default_rule_no_worse_than_the_zero_based_64_node_rule(self):
        # both rules leave out 2e-14 of chi mass, which moves the moments by
        # up to 4.9e-10 relative (d = 1, k = 7); quadrature error under
        # 1e-10 relative is below that, wherever the old rule did better.
        # The reference is 512 Gauss-Legendre points on the default rule's span
        assert QUADRATURE_NODES == 16
        integrands = [lambda r, k=k: r**k for k in range(8)]
        integrands.append(lambda r: np.log1p(r) * np.sin(r))
        x512, w512 = leggauss(512)
        for d in range(1, 201):
            rs, ws = chi_quadrature(d, QUADRATURE_NODES)
            rs_ref, ws_ref = _span_legendre_rule(d, x512, w512)
            rs_old, ws_old = _zero_based_rule(d, 64)
            for h in integrands:
                ref = float(ws_ref @ h(rs_ref))
                err = abs(float(ws @ h(rs)) - ref)
                err_old = abs(float(ws_old @ h(rs_old)) - ref)
                assert err <= max(err_old, 1e-10 * max(1.0, abs(ref))), d
            for k in range(8):
                assert float(ws @ rs**k) == pytest.approx(chi_moment(d, k), rel=5e-10)

    def test_span_leaves_at_most_1e_14_of_chi_mass_per_side(self):
        # the log-concave tail bound leaves out at least half the mass it
        # bounds (d = 2, where it is r^2 against the exact 1 - exp(-r^2 / 2))
        for d in [*range(1, 1001), 10_000, 100_000]:
            r_lo, r_hi = _chi_span(d)
            below, above = chi.cdf(r_lo, d), chi.sf(r_hi, d)
            assert above <= 1e-14 and below <= 1e-14, d
            if d >= 2:
                assert above >= 0.4e-14 and below >= 0.4e-14, d
            else:
                assert r_lo == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 50, 200, 1000, 10_000, 100_000])
    def test_default_rule_mass_is_one(self, d):
        # the span leaves out at most 2e-14 of chi mass; a chi density whose
        # terms of size d log d cancel would add about d ulp to that
        _, ws = chi_quadrature(d, QUADRATURE_NODES)
        assert abs(float(ws.sum()) - 1.0) <= 4e-14

    @pytest.mark.parametrize("nodes", [16, 32])
    @pytest.mark.parametrize("d", [1, 2, 5, 50, 200])
    def test_gauss_rule_of_its_discretization(self, d, nodes):
        # an n-node Gauss rule integrates every polynomial of degree up to
        # 2n - 1 exactly against the measure it was built from, here 4n
        # Gauss-Legendre points against the chi density on the span
        rs, ws = chi_quadrature(d, nodes)
        x, w = leggauss(4 * nodes)
        points, masses = _span_legendre_rule(d, x, w)
        for k in range(2 * nodes):
            want = float(masses @ points**k)
            assert float(ws @ rs**k) == pytest.approx(want, rel=1e-13, abs=0), k
        r_lo, r_hi = _chi_span(d)
        assert r_lo < rs[0] and np.all(np.diff(rs) > 0) and rs[-1] < r_hi
        assert np.all(ws > 0)
        assert not rs.flags.writeable and not ws.flags.writeable

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            chi_quadrature(0, 32)
        with pytest.raises(ValueError):
            chi_quadrature(2.5, 32)

    def test_non_integer_node_count_rejected(self):
        # 16.5 used to be truncated to a 16-node rule without a word
        for bad in (16.5, 16.0):
            with pytest.raises(ValueError, match="nodes must be an integer"):
                chi_quadrature(5, bad)
        with pytest.raises(ValueError, match="d must be an integer"):
            chi_quadrature(5.0, 16)
        rs, ws = chi_quadrature(np.int64(5), np.int32(16))
        assert rs is chi_quadrature(5, 16)[0] and ws is chi_quadrature(5, 16)[1]
