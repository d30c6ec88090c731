"""Direction diagnostics, curvature floors, and the assembled KL certificates."""

import json
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import chi

from laplace_audit import (
    AssumptionViolationError,
    AuditConfig,
    SyntheticDatasetConfig,
    TargetModel,
    approximate_bound,
    approximate_bound_coefficient,
    audit,
    chi_moment,
    chi_quadrature,
    conditional_kl_bound,
    direction_kl_bound,
    fit_laplace,
    generate_dataset,
    min_conditional_curvature,
    radial_min_curvature,
    sample_direction,
    sample_direction_pairs,
)
from laplace_audit import bound as bound_module
from laplace_audit.bound import _curvature_floor_poly, _positive_root, json_ready
from laplace_audit.radial import _STREAMS

from oracles import (
    CubicRay1D,
    InfTailGaussian,
    RadialLaw,
    SoftplusTilt1D,
    companion_curvature_floor,
    conditional_curvature_profile,
    curvature_floor_r0,
    delta3,
    delta4,
    radial_kl_split,
    third_derivative_7pt,
    xi_elbo,
)


class NoBoundTilt(SoftplusTilt1D):
    """The tilt without its analytic delta4 bound, so it has no detailed certificate."""

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
        assert delta4(fit, model, np.eye(5)[0]) == 0.0

    def test_analytic_dominates_grid(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(3)
        rs = np.linspace(0.0, chi.ppf(1.0 - 1e-6, 5), 512)
        for _ in range(5):
            e = sample_direction(5, rng)
            analytic = delta4(fit, model, e)
            v = fit.sqrt_covariance @ e
            grid = np.max(np.abs(model.ray_derivatives(fit.theta_star, v, rs, 4)[:, 3]))
            assert analytic >= grid

    def test_model_without_bound_raises(self, logistic_small):
        """No grid maximum stands in for a missing bound: delta4 raises."""
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

        with pytest.raises(AssumptionViolationError, match="no fourth-derivative bound"):
            delta4(fit, NoHook(), np.eye(5)[1])

    def test_data_rescaling_recomputes_consistently(self):
        base = generate_dataset(SyntheticDatasetConfig(d=3, n=50, seed=9))
        scaled_model = __import__("laplace_audit").LogisticRegressionModel(
            base.labels, 2.0 * base.covariates, 5.0
        )
        fit = fit_laplace(scaled_model)
        rng = np.random.default_rng(4)
        e = sample_direction(3, rng)
        value = delta4(fit, scaled_model, e)
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
            r0 = float(curvature_floor_r0(d3, d4))
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
        with pytest.raises(ValueError, match="d must be >= 1"):
            min_conditional_curvature(0, 0.0, 0.0)

    def test_root_rule_is_the_rationalized_form_for_nonpositive_delta3(self):
        # r0 = 2 / (sqrt(d3^2 + 2 d4) - d3) has no cancellation when d3 <= 0,
        # and the root rule's form differs from it by powers of two only
        rng = np.random.default_rng(23)
        n = 100_000
        d3 = -(10 ** rng.uniform(-6.0, 2.0, n))
        d3[rng.random(n) < 0.05] = 0.0
        d4 = 10 ** rng.uniform(-9.0, 2.0, n)
        np.testing.assert_array_equal(
            _positive_root(1.0, 0.5 * d3, 0.5 * d4), 2.0 / (np.sqrt(d3 * d3 + 2.0 * d4) - d3)
        )

    def test_root_rule_without_delta4(self):
        d3 = np.array([-30.0, -1.0, -0.1, -1e-6, 1e-6, 0.1, 1.0, 30.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            r0 = _positive_root(1.0, 0.5 * d3, 0.0)
        np.testing.assert_array_equal(r0[:4], -1.0 / d3[:4])
        assert np.all(r0[4:] == np.inf)

    def test_root_rule_does_not_cancel_for_positive_delta3(self):
        # 1 + r - d4 r^2 / 2 = 0 at r = (1 + sqrt(1 + 2 d4)) / d4
        # np.where computes both forms, and c / (s - beta) divides by 0 at d4 = 1e-20
        with np.errstate(divide="ignore"):
            r0 = _positive_root(1.0, 0.5, np.array([0.5e-10, 0.5e-20]))
        np.testing.assert_allclose(r0, [2e10 + 1.0, 2e20], rtol=1e-15, atol=0)
        # the oracle's own root rule, at the rows (delta3, delta4) = (1, 1e-10), (1, 1e-20)
        np.testing.assert_allclose(
            curvature_floor_r0(1.0, [1e-10, 1e-20]), [2e10 + 1.0, 2e20], rtol=1e-15, atol=0
        )

    @pytest.mark.parametrize("d", [1, 50])
    def test_all_quadratic_rows_skip_the_solve(self, d, monkeypatch):
        def no_solve(*args):
            raise AssertionError("an all-quadratic block needs no root")

        monkeypatch.setattr(bound_module, "_positive_root", no_solve)
        zeros = np.zeros(256)
        zeros[::3] = -0.0
        np.testing.assert_array_equal(
            min_conditional_curvature(d, zeros, zeros), np.full(256, radial_min_curvature(d))
        )
        assert min_conditional_curvature(d, 0.0, 0.0) == radial_min_curvature(d)

    @pytest.mark.parametrize("d", [1, 2, 5, 50, 200])
    def test_matches_companion_matrix_oracle(self, d):
        # log-uniform scales from 1e-9 to 50, either sign of delta3, and a
        # tenth of the rows with delta4 = 0
        rng = np.random.default_rng(100 + d)
        n = 10_000
        d3 = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-9.0, np.log10(50.0), n)
        d4 = 10 ** rng.uniform(-9.0, np.log10(50.0), n)
        d4[rng.random(n) < 0.1] = 0.0
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            floors = min_conditional_curvature(d, d3, d4)
        np.testing.assert_allclose(floors, companion_curvature_floor(d, d3, d4), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 5, 50, 200])
    def test_matches_companion_matrix_oracle_on_corners(self, d):
        rng = np.random.default_rng(200 + d)
        n = 2_000
        sign = rng.choice([-1.0, 1.0], n)
        tiny = 1.2037232618638635e-155 * rng.uniform(0.5, 2.0, n)
        d3 = np.concatenate([
            sign * 10 ** rng.uniform(-9.0, 2.0, n),  # delta4 = 0
            sign * tiny,  # |delta3| near 1e-155, half of them with delta4 = 0
            rng.normal(0.0, 1.0, n),  # delta4 from 1e-12 to 1e3
            rng.normal(0.0, 1e-6, n),
            [1.0, 1.0, np.nan, 0.3, np.inf, -np.inf, 0.0, 0.0, -0.0, 1.0, np.nan, 0.0],
        ])
        d4 = np.concatenate([
            np.zeros(n),
            np.where(rng.random(n) < 0.5, 0.0, 10 ** rng.uniform(-12.0, 3.0, n)),
            np.geomspace(1e-12, 1e3, n),
            np.geomspace(1e-12, 1e3, n),
            [1e-10, 1e-20, 0.1, np.nan, 0.2, 0.0, np.inf, 0.0, 0.0, np.inf, np.nan, 0.0],
        ])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            floors = min_conditional_curvature(d, d3, d4)
        oracle = companion_curvature_floor(d, d3, d4)
        np.testing.assert_allclose(floors, oracle, rtol=1e-14, atol=0)
        assert np.all(np.isnan(floors[[-10, -9, -8, -7, -6, -3, -2]]))
        assert np.all(floors[[-5, -4, -1]] == radial_min_curvature(d))


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

    @pytest.mark.parametrize("cell", ["logistic_small", "logistic_d50"])
    def test_dominates_radial_kl_on_every_audit_direction(self, cell, request):
        # the paper's conditional lemma along each direction e: KL(chi_d,
        # f_{r|e}) = zeta(e) - xi(e), nonnegative by Jensen, is at most
        # conditional_kl_bound(e); on the audit's seed-0 directions
        model, fit = request.getfixturevalue(cell)
        config = AuditConfig()
        vs, _, batch, xi_audit = bound_module._direction_pass(
            model, fit, config.n_directions // 2, config.seed, "directions",
            config.quadrature_nodes,
        )
        # the audit's stream, replayed by hand
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=_STREAMS["directions"])
        )
        es = sample_direction_pairs(model.dim, config.n_directions // 2, rng)
        np.testing.assert_array_equal(vs, es @ fit.sqrt_covariance)
        zeta, xi, guard = radial_kl_split(fit, model, es)
        assert np.all(guard < -40.0)
        gap = zeta - xi
        assert np.all(gap >= -1e-12)
        floor = min_conditional_curvature(model.dim, batch.delta3, batch.delta4)
        assert np.all(floor > 0.0)
        assert np.all(conditional_kl_bound(model.dim, batch.delta3, batch.delta4, floor) >= gap)
        np.testing.assert_allclose(xi_audit, xi, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("cell", ["logistic_small", "logistic_d50"])
    def test_mean_xi_matches_the_gaussian_expectation(self, cell, request):
        # E_e[xi] = phi* + d/2 - E_g[phi]: ray_batch's node values averaged
        # over 4,096 directions against the model's quadrature of E_g[phi],
        # one integral per observation that shares no code with ray_batch
        model, fit = request.getfixturevalue(cell)
        n_pairs = 2048
        _, _, _, xi = bound_module._direction_pass(model, fit, n_pairs, 11, "directions", 16)
        pair_means = xi.reshape(n_pairs, 2).mean(axis=1)
        se = statistics.stdev(pair_means) / math.sqrt(n_pairs)
        expected_phi = model.expected_neg_log_density(fit.theta_star, fit.sqrt_covariance)
        want = fit.neg_log_density_at_mode + 0.5 * model.dim - expected_phi
        assert abs(xi.mean() - want) <= 4 * se

    def test_invalid_curvature_rejected(self):
        with pytest.raises(ValueError):
            conditional_kl_bound(5, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            conditional_kl_bound(5, np.ones(3), np.zeros(3), np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="delta4 must be nonnegative"):
            conditional_kl_bound(5, 1.0, -1.0, 1.0)

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
        fit = fit_laplace(model)
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
            assert terms.e_term == 0.0
            assert terms.e_term_se == 0.0
            assert terms.eps1_correction_se == 0.0
        # repeated antithetic blocks: the terms vary inside each block but
        # every block is the same, so every leave-one-block-out estimate is too
        for block in ([0.3, -0.2], [-0.2, 0.3], [1.5, 0.0]):
            terms = direction_kl_bound(np.tile(block, 64), np.tile([0.1, 0.3], 64), pair_size=2)
            assert terms.e_term > 0.0
            assert terms.e_term_se == 0.0
            assert terms.eps1_correction_se == 0.0

    def test_two_point_closed_form(self):
        a = 0.4
        terms = direction_kl_bound(np.array([a, -a]), np.zeros(2))
        assert terms.e_term == pytest.approx(0.5 * np.log(np.cosh(2 * a)), rel=1e-13)
        assert terms.eps1_term + terms.cond_term == 0.0

    def test_nonnegative_by_jensen(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            xis = rng.normal(0, 0.5, size=16)
            assert direction_kl_bound(xis, np.zeros(16)).e_term >= 0.0

    def test_eps1_correction_split(self):
        terms = direction_kl_bound(np.zeros(2), np.array([0.1, 0.3]))
        assert terms.cond_term == pytest.approx(0.2, rel=1e-15)
        assert terms.eps1_term == pytest.approx((0.01 + 0.09) / 2, rel=1e-15)
        assert terms.eps1_term + terms.cond_term == pytest.approx(0.05 + 0.2, rel=1e-15)

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
        assert terms.e_term == pytest.approx(_loop_log_moment(xis), rel=1e-12)
        assert terms.eps1_term + terms.cond_term == pytest.approx(
            np.mean(eps1**2) + np.mean(eps1), rel=1e-12
        )
        for oracle in oracles:
            log_moment_se, eps1_se = oracle(xis, eps1, pair_size)
            assert terms.e_term_se == pytest.approx(log_moment_se, rel=1e-12)
            assert terms.eps1_correction_se == pytest.approx(eps1_se, rel=1e-12)

    def test_jackknife_finite_when_one_block_dominates(self):
        # leaving the top block out leaves only terms exp(-800) of it
        xis = np.array([0.0] * 62 + [400.0, 400.0])
        eps1 = np.linspace(0.0, 0.1, 64)
        terms = direction_kl_bound(xis, eps1, pair_size=2)
        log_moment_se, eps1_se = _loop_jackknife(xis, eps1, 2)
        assert np.isfinite(log_moment_se)
        assert terms.e_term_se == pytest.approx(log_moment_se, rel=1e-12)
        assert terms.eps1_correction_se == pytest.approx(eps1_se, rel=1e-12)

    def test_single_block_has_no_standard_error(self):
        terms = direction_kl_bound(np.array([0.1, -0.1]), np.zeros(2), pair_size=2)
        assert np.isnan(terms.e_term_se) and np.isnan(terms.eps1_correction_se)

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
        # a square that overflows is refused before it warns (tier-1 raises warnings)
        for big in (1e200, -1e160):
            with pytest.raises(ValueError, match=r"eps1\^2 must be finite"):
                direction_kl_bound(np.zeros(4), np.array([0.1, big, 0.2, 0.3]), pair_size=2)
        with pytest.raises(ValueError, match="pair_size"):
            direction_kl_bound(np.zeros(6), np.zeros(6), pair_size=4)
        # finite squares whose sum (the first two) or whose standard error's
        # squared deviations (the last) overflow are refused before they warn
        for eps1 in ([1e154] * 4, [1e154, 0.0, 0.0, 0.0], [1e153, 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match=r"mean of eps1\^2 or its standard error"):
                direction_kl_bound(np.zeros(4), np.array(eps1))

    def test_mean_se_of_overflowing_deviations_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert bound_module._mean_se(np.array([0.0, 1e160, 0.0])) == math.inf
            assert bound_module._mean_se(np.full(3, 1e300)) == 0.0


class TestApproximateBound:
    def test_zero_mean_gives_zero(self):
        assert approximate_bound(0.0, 7) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            approximate_bound_coefficient(0)
        with pytest.raises(ValueError, match="mean_delta3_sq must be nonnegative"):
            approximate_bound(-1.0, 5)

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
            d4 = delta4(fit, model, e)
            floor = min_conditional_curvature(5, d3, d4)
            profile = conditional_curvature_profile(fit, model, e, zs)
            assert floor <= profile.min() + 1e-12

    def test_floor_lower_bounds_true_profile_at_d50(self, logistic_d50):
        # criterion 07's check and z-grid at (50, 1000), where the floor's
        # minimum sits at r0 rather than at an interior stationary point
        model, fit = logistic_d50
        rng = np.random.default_rng(73)
        zs = np.geomspace(1e-3, float(np.sqrt(chi.ppf(1.0 - 1e-6, 50))), 4000)
        for _ in range(20):
            e = sample_direction(50, rng)
            floor = min_conditional_curvature(50, delta3(fit, model, e), delta4(fit, model, e))
            assert floor <= float(conditional_curvature_profile(fit, model, e, zs).min())


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
            d4 = delta4(fit, model, e)
            assert g3 == pytest.approx(delta3(fit, model, e), rel=1e-13)
            assert g4 == pytest.approx(d4, rel=1e-13)
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
        assert report.detailed_bound == terms.e_term + terms.eps1_term + terms.cond_term
        assert (report.e_term, report.cond_term) == (terms.e_term, terms.cond_term)

        monkeypatch.setattr(bound_module, "min_conditional_curvature", forcing(slice(None), -1.0))
        with pytest.raises(AssumptionViolationError) as exc_info:
            audit(model, config, fit=fit)
        details = exc_info.value.details
        assert details["invalid_directions"] == 16 and details["n_directions"] == 16
        assert details["mean_delta3_sq"] == report.mean_delta3_sq

    def test_model_without_delta4_bound_has_no_detailed_certificate(self):
        config = AuditConfig(n_directions=16, seed=1)
        fit = fit_laplace(SoftplusTilt1D(1.0))
        bounded = audit(SoftplusTilt1D(1.0), config, fit=fit)
        report = audit(NoBoundTilt(1.0), config, fit=fit)
        for name in ("mean_delta3_sq", "se_delta3_sq", "approx_bound", "spotcheck"):
            assert getattr(report, name) == getattr(bounded, name)
        assert report.invalid_directions == 0
        payload = report.to_json_dict()
        assert payload["detailed_bound"] is None
        assert payload["term_breakdown"] == dict.fromkeys(("e_term", "cond_term", "eps1_term"))
        assert payload["term_standard_errors"] == dict.fromkeys(("e_term_se", "eps1_correction_se"))
        json.dumps(payload, allow_nan=False)

    def test_infinite_ray_values_without_delta4_bound(self):
        # the pass forms xi on +inf ray values; with no delta4 bound the
        # audit keeps approx_bound alone and counts no invalid direction
        model = InfTailGaussian(np.zeros(3), np.eye(3), cut=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = audit(model, AuditConfig(n_directions=64, seed=1))
        assert math.isfinite(report.approx_bound)
        assert report.to_json_dict()["detailed_bound"] is None
        assert report.invalid_directions == 0

    @pytest.mark.parametrize("tilt", [SoftplusTilt1D, NoBoundTilt], ids=["delta4", "no_delta4"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e200], ids=["inf", "nan", "1e200"])
    def test_non_finite_delta3_is_an_assumption_violation_without_a_warning(self, value, tilt):
        # the error used to come only after the squaring (1e200) or the
        # standard error (inf, NaN) had warned, which tier-1 raises instead
        class BadDelta3(tilt):
            def ray_derivatives(self, base, direction, r=0.0, max_order=4):
                out = super().ray_derivatives(base, direction, r, max_order)
                out[..., 2] = value
                return out

        model = BadDelta3(1.0)
        fit = fit_laplace(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AssumptionViolationError, match="non-finite delta3") as exc_info:
                audit(model, AuditConfig(n_directions=16, seed=1), fit=fit)
        assert exc_info.value.details == {"nonfinite_directions": 16, "n_directions": 16}

    def test_conditional_kl_bound_whose_square_overflows_is_an_assumption_violation(self):
        # delta3 = 1e100 has a finite square, but the conditional-KL bound,
        # about delta3^2 E[r^5], overflowed when squared, with a warning
        class HugeDelta3(SoftplusTilt1D):
            def ray_derivatives(self, base, direction, r=0.0, max_order=4):
                out = super().ray_derivatives(base, direction, r, max_order)
                out[..., 2] = 1e100
                return out

        model = HugeDelta3(1.0)
        fit = fit_laplace(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                AssumptionViolationError, match="non-finite conditional-KL bound"
            ) as exc_info:
                audit(model, AuditConfig(n_directions=16, seed=1), fit=fit)
        assert exc_info.value.details == {"nonfinite_directions": 16, "n_directions": 16}

    @pytest.mark.parametrize("tilt", [SoftplusTilt1D, NoBoundTilt], ids=["delta4", "no_delta4"])
    def test_delta3_sq_whose_mean_overflows_is_an_assumption_violation(self, tilt):
        # each delta3^2 = 1e308 is finite, but their mean over the 16
        # directions overflowed, with a warning, before any check
        class HugeDelta3(tilt):
            def ray_derivatives(self, base, direction, r=0.0, max_order=4):
                out = super().ray_derivatives(base, direction, r, max_order)
                out[..., 2] = math.copysign(1e154, direction[0])
                return out

        model = HugeDelta3(1.0)
        fit = fit_laplace(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                AssumptionViolationError, match=r"mean of delta3\^2 or its standard error"
            ) as exc_info:
                audit(model, AuditConfig(n_directions=16, seed=1), fit=fit)
        assert exc_info.value.details == {"n_directions": 16}

    def test_conditional_kl_bound_whose_mean_square_overflows_is_an_assumption_violation(self):
        # delta3 = 1e92: each conditional-KL bound has a finite square, but
        # the mean of the squares overflowed in direction_kl_bound
        class HugeDelta3(SoftplusTilt1D):
            def ray_derivatives(self, base, direction, r=0.0, max_order=4):
                out = super().ray_derivatives(base, direction, r, max_order)
                out[..., 2] = 1e92
                return out

        model = HugeDelta3(1.0)
        fit = fit_laplace(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(
                AssumptionViolationError, match=r"mean of eps1\^2 or its standard error"
            ) as exc_info:
                audit(model, AuditConfig(n_directions=16, seed=1), fit=fit)
        assert exc_info.value.details == {"n_directions": 16}

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

    def test_negative_delta4_bound_rejected(self):
        class WrongBound(SoftplusTilt1D):
            def ray_fourth_derivative_bound(self, base, direction):
                return -1.0

        model = WrongBound(0.5)
        fit = fit_laplace(model)
        with pytest.raises(ValueError, match="nonnegative"):
            audit(model, AuditConfig(n_directions=16), fit=fit)
        with pytest.raises(ValueError, match="nonnegative"):
            delta4(fit, model, np.ones(1))

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
            AuditConfig(n_directions=7)

    def test_config_rejects_non_integer_counts(self):
        # a 16.5-node audit used to run on 16 nodes and echo 16.5 in its config
        for bad in (16.5, 16.0):
            with pytest.raises(ValueError, match="quadrature_nodes must be an integer"):
                AuditConfig(quadrature_nodes=bad)
        # a whole float used to fail late, inside numpy, with a TypeError
        with pytest.raises(ValueError, match="n_directions must be an even integer"):
            AuditConfig(n_directions=16.0)

    @pytest.mark.parametrize("seed", [1.5, 1.0, -1, True])
    def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # SeedSequence takes only a nonnegative integer
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            AuditConfig(n_directions=16, seed=seed)
        AuditConfig(n_directions=16, seed=np.uint64(2**63))

    def test_config_accepts_numpy_integer_counts(self, logistic_tiny):
        model, fit = logistic_tiny
        plain = audit(model, AuditConfig(n_directions=16, quadrature_nodes=16, seed=1), fit=fit)
        config = AuditConfig(n_directions=np.int64(16), quadrature_nodes=np.int32(16), seed=1)
        report = audit(model, config, fit=fit)
        assert json.dumps(report.to_json_dict()) == json.dumps(plain.to_json_dict())

    def test_d1_standard_errors_are_exactly_zero(self):
        # the direction law at d = 1 is the two points +-1, so every
        # antithetic pair holds the same two directions
        model = generate_dataset(SyntheticDatasetConfig(d=1, n=20, seed=1)).model(10.0)
        report = audit(model, AuditConfig(seed=1))
        assert report.invalid_directions == 0
        assert report.mean_delta3_sq > 0.0
        assert report.se_delta3_sq == 0.0
        assert report.e_term_se == 0.0
        assert report.eps1_correction_se == 0.0

    @pytest.mark.parametrize("target", ["logistic_small", "logistic_d50"])
    def test_se_delta3_sq_is_the_pair_standard_error(self, target, request):
        # the audit's direction stream and ray pass, replayed
        model, fit = request.getfixturevalue(target)
        config = AuditConfig(n_directions=64, seed=3)
        report = audit(model, config, fit=fit)
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=_STREAMS["directions"])
        )
        vs = sample_direction_pairs(model.dim, config.n_directions // 2, rng) @ fit.sqrt_covariance
        rs, _ = chi_quadrature(model.dim, config.quadrature_nodes)
        d3 = model.ray_batch(fit.theta_star, vs, rs).delta3
        pair_vals = (d3 * d3)[0::2].tolist()
        assert report.mean_delta3_sq == pytest.approx(statistics.fmean(pair_vals), rel=1e-12)
        want = statistics.stdev(pair_vals) / math.sqrt(len(pair_vals))
        assert report.se_delta3_sq == pytest.approx(want, rel=1e-12)


class TestJsonReady:
    def test_numpy_scalars_become_python_values_at_any_depth(self):
        payload = json_ready(
            {"a": (np.float32(0.5), np.bool_(True)), "b": [np.int64(3), {"c": np.float32("nan")}]}
        )
        assert payload == {"a": [0.5, True], "b": [3, {"c": None}]}
        assert [type(v) for v in payload["a"]] == [float, bool]
        assert type(payload["b"][0]) is int
        json.dumps(payload, allow_nan=False)

    def test_non_finite_floats_are_null(self):
        assert json_ready([math.inf, -math.inf, math.nan, np.float64(1.5), "x", None]) == [
            None, None, None, 1.5, "x", None,
        ]


@settings(max_examples=25, deadline=None)
@given(d3=st.floats(-2.0, 2.0), d4=st.floats(1e-6, 2.0), d=st.integers(1, 40))
def test_curvature_floor_scan_consistency(d3, d4, d):
    # module value never exceeds an independent dense scan of the same floor
    value = min_conditional_curvature(d, d3, d4)
    r0 = float(curvature_floor_r0(d3, d4))
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
