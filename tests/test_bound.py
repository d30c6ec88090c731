"""Direction diagnostics, curvature floors, and the assembled KL certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from laplace_audit import (
    AssumptionViolationError,
    AuditConfig,
    SyntheticDatasetConfig,
    TargetModel,
    approximate_bound,
    approximate_bound_coefficient,
    audit,
    build_fit,
    chi_moment,
    chi_quantile,
    conditional_curvature_profile,
    conditional_kl_bound,
    delta3,
    delta4,
    direction_kl_bound,
    fit_laplace,
    generate_dataset,
    min_conditional_curvature,
    radial_min_curvature,
    sample_direction,
    xi_elbo,
)
from laplace_audit import bound as bound_module
from laplace_audit.bound import _curvature_floor_poly

from oracles import CubicRay1D, RadialLaw, SoftplusTilt1D, third_derivative_7pt


class NoBoundTilt(SoftplusTilt1D):
    """The tilt without its analytic delta4 bound, so delta4 takes the grid maximum."""

    def ray_fourth_derivative_bound(self, base, direction):
        return None


class TestDelta3:
    def test_gaussian_zero_for_every_direction(self, gaussian_5d):
        model, fit = gaussian_5d
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert delta3(fit, model, sample_direction(5, rng)) == 0.0

    def test_odd_symmetry_is_exact(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(1)
        for _ in range(10):
            e = sample_direction(5, rng)
            assert delta3(fit, model, -e) == -delta3(fit, model, e)

    def test_matches_finite_difference_along_whitened_ray(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(2)
        e = sample_direction(5, rng)
        v = fit.sqrt_covariance @ e

        def along(r):
            return model.neg_log_density(fit.theta_star + r * v)

        fd = third_derivative_7pt(along, 0.0, h=5e-3)
        assert delta3(fit, model, e) == pytest.approx(fd, rel=1e-4)


class TestDelta4:
    def test_gaussian_zero(self, gaussian_5d):
        model, fit = gaussian_5d
        value, flag = delta4(fit, model, np.eye(5)[0])
        assert value == 0.0 and flag == "analytic"

    def test_analytic_dominates_grid(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(3)
        rs = np.linspace(0.0, chi_quantile(5, 1.0 - 1e-6), bound_module.DELTA4_GRID_POINTS)
        for _ in range(5):
            e = sample_direction(5, rng)
            analytic, fa = delta4(fit, model, e)
            v = fit.sqrt_covariance @ e
            grid = np.max(np.abs(model.ray_derivatives(fit.theta_star, v, rs, 4)[:, 3]))
            assert fa == "analytic"
            assert analytic >= grid

    def test_grid_fallback_when_no_analytic_hook(self, logistic_small):
        model, fit = logistic_small

        class NoHook(TargetModel):
            dim = model.dim
            neg_log_density = model.neg_log_density
            gradient = model.gradient
            hessian = model.hessian
            ray_derivatives = model.ray_derivatives

            @staticmethod
            def ray_fourth_derivative_bound(base, direction):
                return None

        _, flag = delta4(fit, NoHook(), np.eye(5)[1])
        assert flag == "grid"

    def test_data_rescaling_recomputes_consistently(self):
        base = generate_dataset(SyntheticDatasetConfig(d=3, n=50, seed=9))
        scaled_model = __import__("laplace_audit").LogisticRegressionModel(
            base.labels, 2.0 * base.covariates, 5.0
        )
        fit = fit_laplace(scaled_model)
        rng = np.random.default_rng(4)
        e = sample_direction(3, rng)
        value, _ = delta4(fit, scaled_model, e)
        s = scaled_model.signed_covariates @ (fit.sqrt_covariance @ e)
        assert value == pytest.approx(0.125 * float(np.sum(s**4)), rel=1e-12)


class TestMinConditionalCurvature:
    def test_zero_case_is_exact(self):
        for d in (1, 5, 50):
            assert min_conditional_curvature(d, 0.0, 0.0) == radial_min_curvature(d)

    def test_continuity_as_delta4_vanishes(self):
        target = radial_min_curvature(5)
        values = [min_conditional_curvature(5, 0.0, d4) for d4 in (1e-2, 1e-4, 1e-6)]
        gaps = [abs(v - target) for v in values]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2

    def test_interior_minimum_matches_fine_grid(self):
        # d=5, delta3=1, delta4=0: floor is 9/r + 6r + 5r^2 over r > 0
        value = min_conditional_curvature(5, 1.0, 0.0)
        rs = np.geomspace(1e-4, 1e2, 4_000_001)
        grid_min = (9.0 / rs + 6.0 * rs + 5.0 * rs**2).min()
        assert value == pytest.approx(grid_min, abs=1e-8)

    def test_matches_independent_scan_with_boundary(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 30))
            d3 = float(rng.normal(0, 0.5))
            d4 = float(rng.uniform(0.01, 1.0))
            value = min_conditional_curvature(d, d3, d4)
            r0 = 2.0 / (np.sqrt(d3 * d3 + 2 * d4) - d3)
            rs = np.geomspace(r0 * 1e-7, r0, 2_000_000)
            scan = _curvature_floor_poly(rs, d, d3, d4).min()
            flat = r0 + d3 * r0**2 - d4 * r0**3 / 3.0
            reference = min(float(scan), flat)
            assert value <= reference + 1e-9
            assert value == pytest.approx(reference, rel=1e-6, abs=1e-9)

    def test_batched_rows_match_scalar_and_flag_non_finite(self):
        # exactly quadratic rows (0, 0) between ordinary and non-finite ones
        d3 = np.array([0.3, 0.0, -0.2, 0.0, 0.0, np.nan, 1.0, -0.5, 0.2, 0.0, 0.0, -0.0])
        d4 = np.array([0.1, 0.0, 0.4, 0.0, 0.3, 0.1, 0.0, 0.0, np.inf, np.nan, 0.0, 0.0])
        floors = min_conditional_curvature(5, d3, d4)
        scalar = [min_conditional_curvature(5, a, b) for a, b in zip(d3, d4)]
        np.testing.assert_array_equal(floors, scalar)
        np.testing.assert_array_equal(
            min_conditional_curvature(5, d3.reshape(3, 4), d4.reshape(3, 4)), floors.reshape(3, 4)
        )
        assert np.all(np.isnan(floors[[5, 8, 9]]))
        assert np.all(floors[[1, 3, 10, 11]] == radial_min_curvature(5))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            min_conditional_curvature(3, 0.0, -1.0)


class TestConditionalKlBound:
    def test_zero_case(self):
        assert conditional_kl_bound(5, 0.0, 0.0, radial_min_curvature(5)) == 0.0

    def test_frozen_single_term_value(self):
        # chi_moment(5,5) / (6 sqrt(6)), 40-digit evaluation
        value = conditional_kl_bound(5, 1.0, 0.0, 6.0 * np.sqrt(6.0))
        assert value == pytest.approx(6.9490135026193056, rel=1e-12)

    def test_dominates_quadrature_kl_on_cubic_ray(self):
        # d=1 conditional target z^(2d-1) exp(-phi(z^2)) with a cubic ray
        alpha = 0.3
        law = RadialLaw(1)

        def phi(r):
            return 0.5 * r * r + alpha * r**3 / 6.0

        def log_f_unnorm(z):
            return np.log(z) - phi(z * z)

        norm = quad(lambda z: np.exp(log_f_unnorm(z)), 1e-12, 8.0, limit=300)[0]
        true_kl = quad(
            lambda z: np.exp(law.log_density(z))
            * (law.log_density(z) - log_f_unnorm(z) + np.log(norm)),
            1e-9,
            8.0,
            limit=300,
        )[0]
        curvature = min_conditional_curvature(1, alpha, 0.0)
        bound_val = conditional_kl_bound(1, alpha, 0.0, curvature)
        assert true_kl > 0
        assert bound_val >= true_kl

    def test_invalid_curvature_rejected(self):
        with pytest.raises(ValueError):
            conditional_kl_bound(5, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            conditional_kl_bound(5, np.ones(3), np.zeros(3), np.array([1.0, 0.0, 2.0]))

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(14)
        d3 = rng.normal(0.0, 0.5, size=12)
        d4 = rng.uniform(0.0, 1.0, size=12)
        floors = min_conditional_curvature(7, d3, d4)
        values = conditional_kl_bound(7, d3, d4, floors)
        assert values.shape == (12,)
        for i in range(12):
            assert values[i] == conditional_kl_bound(7, float(d3[i]), float(d4[i]), floors[i])


class TestXiElbo:
    def test_gaussian_identity_fit_exact_zero(self, gaussian_iso_2d):
        model, fit = gaussian_iso_2d
        for nodes in (16, 64, 128):
            assert xi_elbo(fit, model, np.array([1.0, 0.0]), nodes) == 0.0
            assert xi_elbo(fit, model, np.array([0.0, 1.0]), nodes) == 0.0

    def test_gaussian_generic_fit_is_numerically_zero(self, gaussian_5d):
        model, fit = gaussian_5d
        rng = np.random.default_rng(6)
        for _ in range(5):
            assert abs(xi_elbo(fit, model, sample_direction(5, rng))) < 1e-12

    def test_cubic_ray_closed_form(self):
        # xi = -(alpha/6) E[r^3] for phi_e(r) = r^2/2 + alpha r^3/6
        alpha = 0.15
        model = CubicRay1D(alpha)
        fit = build_fit(model, np.zeros(1))
        value = xi_elbo(fit, model, np.array([1.0]), 96)
        assert value == pytest.approx(-(alpha / 6.0) * chi_moment(1, 3), rel=1e-9)

    def test_node_doubling_stable_on_logistic(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(7)
        for _ in range(3):
            e = sample_direction(5, rng)
            assert abs(xi_elbo(fit, model, e, 64) - xi_elbo(fit, model, e, 128)) < 1e-8

    def test_too_few_nodes_rejected(self, logistic_small):
        model, fit = logistic_small
        with pytest.raises(ValueError):
            xi_elbo(fit, model, np.eye(5)[0], 8)


def _loop_log_moment(x):
    centered = 2.0 * (x - x.mean())
    top = centered.max()
    return 0.5 * (top + np.log(np.sum(np.exp(centered - top))) - np.log(x.size))


def _jackknife_se(loo):
    loo = np.array(loo)
    return np.sqrt((loo.size - 1) / loo.size * np.sum((loo - loo.mean()) ** 2))


def _loop_jackknife(xis, eps1, pair_size):
    """Jackknife standard errors of the two direction terms, one block at a time."""
    m = xis.size
    keep = [np.r_[0:p * pair_size, (p + 1) * pair_size:m] for p in range(m // pair_size)]
    return (
        _jackknife_se([_loop_log_moment(xis[k]) for k in keep]),
        _jackknife_se([np.mean(eps1[k] ** 2) + np.mean(eps1[k]) for k in keep]),
    )


def _loop_jackknife_by_subtraction(xis, eps1, pair_size):
    """``_loop_jackknife`` in O(m): each leave-one-block-out sum is a correctly
    rounded total less the block's own terms. The log-moments drop the
    constant 0.5 log(total) shared by every block, which the jackknife does
    not see and whose rounding would swamp their spread at large m."""
    m = xis.size
    kept = m - pair_size
    columns = [np.exp(2.0 * (xis - xis.max())), xis, eps1 * eps1, eps1]
    totals = [math.fsum(c) for c in columns]
    columns = [c.tolist() for c in columns]
    loo_log_moment, loo_eps1 = [], []
    for lo in range(0, m, pair_size):
        exp_b, xi_b, sq_b, eps1_b = (math.fsum(c[lo:lo + pair_size]) for c in columns)
        loo_mean = (totals[1] - xi_b) / kept
        loo_log_moment.append(0.5 * math.log1p(-exp_b / totals[0]) - loo_mean)
        loo_eps1.append((totals[2] - sq_b) / kept + (totals[3] - eps1_b) / kept)
    return _jackknife_se(loo_log_moment), _jackknife_se(loo_eps1)


class TestDirectionKlBound:
    def test_constant_xi_gives_exact_zero_term(self):
        # 14: seven blocks, and numpy's mean of fourteen 0.37s (or 0.1s) is
        # inexact; 26: the mean of 26 0.37s is inexact too
        for m in (8, 14, 26):
            terms = direction_kl_bound(np.full(m, 0.37), np.full(m, 0.1), pair_size=2)
            assert terms.log_moment_term == 0.0
            assert terms.log_moment_term_se == 0.0
            assert terms.eps1_correction_se == 0.0

    def test_two_point_closed_form(self):
        a = 0.4
        terms = direction_kl_bound(np.array([a, -a]), np.zeros(2))
        assert terms.log_moment_term == pytest.approx(0.5 * np.log(np.cosh(2 * a)), rel=1e-13)
        assert terms.eps1_correction == 0.0

    def test_nonnegative_by_jensen(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            xis = rng.normal(0, 0.5, size=16)
            assert direction_kl_bound(xis, np.zeros(16)).log_moment_term >= 0.0

    def test_eps1_correction_split(self):
        terms = direction_kl_bound(np.zeros(2), np.array([0.1, 0.3]))
        assert terms.cond_term == pytest.approx(0.2, rel=1e-15)
        assert terms.eps1_sq_term == pytest.approx((0.01 + 0.09) / 2, rel=1e-15)
        assert terms.eps1_correction == pytest.approx(terms.cond_term + terms.eps1_sq_term)

    @pytest.mark.parametrize(
        "m, pair_size",
        # 33, 66 and 132 directions give an odd block count; at 2^18 directions
        # recomputing every block's estimate is out of reach, so only the O(m)
        # oracle runs there, checked against the direct one at every smaller m
        [(64, 1), (64, 2), (64, 4), (200, 1), (200, 2), (200, 4), (4096, 1), (4096, 2), (4096, 4)]
        + [(33, 1), (66, 2), (132, 4), (262144, 1), (262144, 2), (262144, 4)],
    )
    def test_jackknife_matches_loop_oracle(self, m, pair_size):
        rng = np.random.default_rng(12)
        xis = rng.normal(0.0, 0.4, size=m)
        eps1 = rng.uniform(0.0, 0.2, size=m)
        terms = direction_kl_bound(xis, eps1, pair_size)
        oracles = [_loop_jackknife_by_subtraction] + ([_loop_jackknife] if m <= 4096 else [])
        assert terms.log_moment_term == pytest.approx(_loop_log_moment(xis), rel=1e-12)
        assert terms.eps1_correction == pytest.approx(np.mean(eps1**2) + np.mean(eps1), rel=1e-12)
        for oracle in oracles:
            log_moment_se, eps1_se = oracle(xis, eps1, pair_size)
            assert terms.log_moment_term_se == pytest.approx(log_moment_se, rel=1e-12)
            assert terms.eps1_correction_se == pytest.approx(eps1_se, rel=1e-12)

    def test_jackknife_finite_when_one_block_dominates(self):
        # leaving the top block out leaves only terms exp(-800) of it
        xis = np.array([0.0] * 62 + [400.0, 400.0])
        eps1 = np.linspace(0.0, 0.1, 64)
        terms = direction_kl_bound(xis, eps1, pair_size=2)
        log_moment_se, eps1_se = _loop_jackknife(xis, eps1, 2)
        assert np.isfinite(log_moment_se)
        assert terms.log_moment_term_se == pytest.approx(log_moment_se, rel=1e-12)
        assert terms.eps1_correction_se == pytest.approx(eps1_se, rel=1e-12)

    def test_single_block_has_no_standard_error(self):
        terms = direction_kl_bound(np.array([0.1, -0.1]), np.zeros(2), pair_size=2)
        assert np.isnan(terms.log_moment_term_se) and np.isnan(terms.eps1_correction_se)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least two"):
            direction_kl_bound(np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError, match="same length"):
            direction_kl_bound(np.zeros(4), np.zeros(3))
        with pytest.raises(ValueError, match="same length"):
            direction_kl_bound(np.zeros((2, 2)), np.zeros((2, 2)))
        # an invalid direction's NaN term must not reach the assembly
        with pytest.raises(ValueError, match="finite"):
            direction_kl_bound(np.zeros(2), np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            direction_kl_bound(np.array([np.inf, 0.0]), np.zeros(2))
        with pytest.raises(ValueError, match="pair_size"):
            direction_kl_bound(np.zeros(6), np.zeros(6), pair_size=4)


class TestApproximateBound:
    def test_zero_mean_gives_zero(self):
        assert approximate_bound(0.0, 7) == 0.0

    def test_frozen_coefficients(self):
        # 40-digit gamma-expression evaluations
        assert approximate_bound(1.0, 5) == pytest.approx(9.2125504710373725, rel=1e-12)
        assert approximate_bound(1.0, 1) == pytest.approx(1.3383077968726521, rel=1e-12)

    def test_coefficient_identity_spot(self):
        for d in (1, 5, 50):
            identity = chi_moment(d, 5) / (2 * np.sqrt(6) * np.sqrt(2 * d - 1)) + 0.5 * (
                chi_moment(d, 3) / 6.0
            ) ** 2
            assert approximate_bound_coefficient(d) == pytest.approx(identity, rel=1e-12)

    def test_coefficient_matches_scipy_gammaln(self):
        for d in range(1, 1001):
            g5 = math.exp(gammaln(0.5 * (d + 5)) - gammaln(0.5 * d))
            g3 = math.exp(gammaln(0.5 * (d + 3)) - gammaln(0.5 * d))
            want = 2.0 / (math.sqrt(3.0) * math.sqrt(2.0 * d - 1.0)) * g5 + g3 * g3 / 9.0
            # scipy's side loses about one ulp of lgamma(d/2) to the
            # difference of log-gammas; the largest gap measured is 1.7e-12
            # (d = 898)
            assert approximate_bound_coefficient(d) == pytest.approx(want, rel=3e-12, abs=0)


class TestConditionalCurvatureProfile:
    def test_gaussian_profile_is_reference_curvature(self, gaussian_5d):
        model, fit = gaussian_5d
        rng = np.random.default_rng(9)
        e = sample_direction(5, rng)
        zs = np.linspace(0.3, 3.0, 50)
        profile = conditional_curvature_profile(fit, model, e, zs)
        np.testing.assert_allclose(profile, 9.0 / zs**2 + 6 * zs**2, rtol=1e-10)

    def test_floor_lower_bounds_true_profile(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(10)
        zs = np.geomspace(0.05, 3.5, 2000)
        for _ in range(10):
            e = sample_direction(5, rng)
            d3 = delta3(fit, model, e)
            d4, _ = delta4(fit, model, e)
            floor = min_conditional_curvature(5, d3, d4)
            profile = conditional_curvature_profile(fit, model, e, zs)
            assert floor <= profile.min() + 1e-12


class TestAudit:
    def test_gaussian_bounds_exactly_zero(self, gaussian_5d):
        model, _ = gaussian_5d
        report = audit(model, AuditConfig(n_directions=32, seed=0))
        assert report.approx_bound == 0.0
        assert report.detailed_bound == 0.0
        assert report.e_term == 0.0 and report.cond_term == 0.0 and report.eps1_term == 0.0
        assert report.invalid_directions == 0

    def test_fixed_seed_reproducible(self, logistic_tiny):
        model, fit = logistic_tiny
        config = AuditConfig(n_directions=32, seed=5)
        a = audit(model, config, fit=fit).to_json_dict()
        b = audit(model, config, fit=fit).to_json_dict()
        assert a == b

    def test_antithetic_pairs_cancel_delta3_exactly(self, logistic_tiny):
        model, fit = logistic_tiny
        rng = np.random.default_rng(11)
        from laplace_audit import sample_direction_pairs

        dirs = sample_direction_pairs(3, 8, rng)
        d3s = np.array([delta3(fit, model, e) for e in dirs])
        np.testing.assert_array_equal(d3s[0::2] + d3s[1::2], np.zeros(8))

    @pytest.mark.parametrize("d, n", [(5, 100), (50, 1000)])
    def test_antithetic_pairs_cancel_inside_audit(self, d, n, monkeypatch):
        model = generate_dataset(SyntheticDatasetConfig(d=d, n=n, seed=3)).model(10.0)
        batches = []
        original = model.ray_batch

        def recording(*args, **kwargs):
            batches.append(original(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(model, "ray_batch", recording)
        audit(model, AuditConfig(n_directions=64, seed=4))
        (batch,) = batches
        assert np.all(batch.delta3[0::2] != 0.0)
        np.testing.assert_array_equal(batch.delta3[0::2] + batch.delta3[1::2], np.zeros(32))

    def test_diagnostics_match_one_direction_helpers(self, logistic_small, monkeypatch):
        model, fit = logistic_small
        seen = {}
        original = bound_module.direction_kl_bound

        def recording(name, fn):
            def record(*args, **kwargs):
                seen[name] = fn(*args, **kwargs)
                return seen[name]

            return record

        def record_terms(xis, eps1, pair_size=1):
            seen["terms"] = (xis, eps1)
            return original(xis, eps1, pair_size)

        monkeypatch.setattr(bound_module, "direction_kl_bound", record_terms)
        monkeypatch.setattr(
            bound_module, "sample_direction_pairs",
            recording("directions", bound_module.sample_direction_pairs),
        )
        monkeypatch.setattr(model, "ray_batch", recording("batch", model.ray_batch))
        report = audit(model, AuditConfig(n_directions=16, seed=6), fit=fit)
        monkeypatch.undo()
        directions, batch, (xis, eps1) = seen["directions"], seen["batch"], seen["terms"]
        assert directions.shape == (16, 5) and xis.shape == eps1.shape == (16,)
        for e, g3, g4, xi, kl in zip(directions, batch.delta3, batch.delta4, xis, eps1):
            d4, flag = delta4(fit, model, e)
            assert g3 == pytest.approx(delta3(fit, model, e), rel=1e-13)
            assert g4 == pytest.approx(d4, rel=1e-13)
            assert report.delta4_mode_counts == {flag: 16}
            assert xi == pytest.approx(xi_elbo(fit, model, e), rel=1e-12, abs=1e-13)
            floor = min_conditional_curvature(5, g3, g4)
            assert kl == pytest.approx(conditional_kl_bound(5, g3, g4, floor), rel=1e-13)

    def test_invalid_directions_left_out_of_detailed_bound(self, logistic_small, monkeypatch):
        model, fit = logistic_small
        config = AuditConfig(n_directions=16, seed=6)
        calls = []
        original = bound_module.direction_kl_bound

        def recording(xis, eps1, pair_size=1):
            calls.append((xis, eps1, pair_size))
            return original(xis, eps1, pair_size)

        monkeypatch.setattr(bound_module, "direction_kl_bound", recording)
        audit(model, config, fit=fit)
        floors = bound_module.min_conditional_curvature

        def forcing(rows, value):
            # the floor of the chosen rows becomes the nonpositive ``value``
            def forced(d, d3, d4):
                out = floors(d, d3, d4).copy()
                out[rows] = value
                return out

            return forced

        bad = [1, 4, 7]
        monkeypatch.setattr(bound_module, "min_conditional_curvature", forcing(bad, 0.0))
        report = audit(model, config, fit=fit)
        (xis, eps1, pairs), (kept_xis, kept_eps1, kept_pairs) = calls
        keep = np.setdiff1d(np.arange(16), bad)
        assert pairs == 2 and kept_pairs == 1
        assert report.invalid_directions == 3
        np.testing.assert_array_equal(kept_xis, xis[keep])
        np.testing.assert_array_equal(kept_eps1, eps1[keep])
        terms = original(xis[keep], eps1[keep], pair_size=1)
        assert report.detailed_bound == terms.log_moment_term + terms.eps1_sq_term + terms.cond_term
        assert (report.e_term, report.cond_term) == (terms.log_moment_term, terms.cond_term)

        monkeypatch.setattr(bound_module, "min_conditional_curvature", forcing(slice(None), -1.0))
        with pytest.raises(AssumptionViolationError) as exc_info:
            audit(model, config, fit=fit)
        details = exc_info.value.details
        assert details["invalid_directions"] == 16 and details["n_directions"] == 16
        assert details["mean_delta3_sq"] == report.mean_delta3_sq

    def test_grid_mode_counts_grid_directions(self):
        model = SoftplusTilt1D(1.0)
        fit = fit_laplace(model)
        grid = audit(NoBoundTilt(1.0), AuditConfig(n_directions=16, seed=1), fit=fit)
        analytic = audit(model, AuditConfig(n_directions=16, seed=1), fit=fit)
        assert grid.delta4_mode_counts == {"grid": 16}
        assert analytic.delta4_mode_counts == {"analytic": 16}
        # the analytic bound dominates the grid maximum on every ray
        assert grid.detailed_bound <= analytic.detailed_bound

    def test_model_without_analytic_bound_falls_back_to_grid(self):
        model = SoftplusTilt1D(0.5)
        fit = fit_laplace(model)
        report = audit(NoBoundTilt(0.5), AuditConfig(n_directions=8, seed=0), fit=fit)
        assert report.delta4_mode_counts == {"grid": 8}
        assert report.invalid_directions == 0

    def test_detailed_bound_assembles_from_terms(self, logistic_tiny):
        model, fit = logistic_tiny
        report = audit(model, AuditConfig(n_directions=64, seed=2), fit=fit)
        assert report.detailed_bound == pytest.approx(
            report.e_term + report.cond_term + report.eps1_term, rel=1e-14
        )
        assert report.approx_bound > 0
        assert np.isfinite(report.se_delta3_sq)

    def test_json_schema(self, logistic_tiny):
        model, fit = logistic_tiny
        payload = audit(model, AuditConfig(n_directions=32, seed=1), fit=fit).to_json_dict()
        for key in (
            "d",
            "n_directions",
            "mean_delta3_sq",
            "se_delta3_sq",
            "approx_bound",
            "detailed_bound",
            "term_breakdown",
            "invalid_directions",
            "config",
            "seed",
        ):
            assert key in payload
        assert set(payload["term_breakdown"]) == {"e_term", "cond_term", "eps1_term"}

    def test_builtin_models_prove_logconcavity_without_sampling(
        self, logistic_tiny, gaussian_5d, monkeypatch
    ):
        def sampled_check(*args, **kwargs):
            raise AssertionError("a model with a proven floor had Hessians sampled")

        monkeypatch.setattr(bound_module, "logconcavity_spotcheck", sampled_check)
        for model, fit in (logistic_tiny, gaussian_5d):
            report = audit(model, AuditConfig(n_directions=16, seed=1), fit=fit)
            assert report.spotcheck == {
                "method": "proven",
                "n_points": 0,
                "radius_multiplier": None,
                "n_failures": 0,
                "min_eigenvalue": model.hessian_eigenvalue_floor(),
            }
            assert report.to_json_dict()["spotcheck"] == report.spotcheck

    def test_custom_model_keeps_sampled_spotcheck(self):
        report = audit(SoftplusTilt1D(0.5), AuditConfig(n_directions=16, seed=3))
        spot = report.spotcheck
        assert spot["method"] == "sampled"
        assert (spot["n_points"], spot["radius_multiplier"], spot["n_failures"]) == (32, 3.0, 0)
        # phi'' = 1 + alpha p (1 - p) >= 1 everywhere
        assert spot["min_eigenvalue"] >= 1.0

    def test_negative_eigenvalue_floor_rejected(self):
        class WrongFloor(SoftplusTilt1D):
            def hessian_eigenvalue_floor(self):
                return -1.0

        with pytest.raises(ValueError, match="hessian_eigenvalue_floor"):
            audit(WrongFloor(0.5), AuditConfig(n_directions=16))

    def test_mean_delta3_sq_decreases_with_data(self):
        # more data -> more Gaussian posterior; seed-averaged over 10 replicates
        means = {}
        for n in (20, 100, 1000):
            vals = []
            for rep in range(10):
                dataset = generate_dataset(SyntheticDatasetConfig(d=5, n=n, seed=1000 + rep))
                model = dataset.model(10.0)
                report = audit(model, AuditConfig(n_directions=64, seed=rep))
                vals.append(report.mean_delta3_sq)
            means[n] = float(np.mean(vals))
        assert means[20] > means[100] > means[1000]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(n_directions=7).validate()


@settings(max_examples=25, deadline=None)
@given(d3=st.floats(-2.0, 2.0), d4=st.floats(1e-6, 2.0), d=st.integers(1, 40))
def test_curvature_floor_scan_consistency(d3, d4, d):
    # module value never exceeds an independent dense scan of the same floor
    value = min_conditional_curvature(d, d3, d4)
    r0 = 2.0 / (np.sqrt(d3 * d3 + 2 * d4) - d3)
    rs = np.geomspace(r0 * 1e-7, r0, 400_001)
    scan = float(_curvature_floor_poly(rs, d, d3, d4).min())
    flat = r0 * (1.0 + r0 * (d3 - d4 * r0 / 3.0))
    assert value <= min(scan, flat) + 1e-9


def test_curvature_floor_degenerate_corners():
    # delta4 = 0 with negative delta3: the flat floor degenerates to exactly 0
    # and must not overflow even for subnormal-scale inputs
    assert min_conditional_curvature(6, -1.2037232618638635e-155, 0.0) == 0.0
    assert min_conditional_curvature(6, -0.5, 0.0) == 0.0
    # positive cubic tilt raises the floor above the zero-derivative reference
    assert min_conditional_curvature(6, 1.0, 0.0) > radial_min_curvature(6)
