"""Mode search, Hessian factorization and log-concavity spot checks."""

import numpy as np
import pytest
from scipy.integrate import quad

from laplace_audit import (
    AssumptionViolationError,
    DimensionMismatchError,
    GaussianModel,
    LogisticRegressionModel,
    MapNotConvergedError,
    NonFiniteObjectiveError,
    SyntheticDatasetConfig,
    fit_laplace,
    generate_dataset,
    laplace_log_density,
    logconcavity_spotcheck,
)
from laplace_audit.radial import _STREAMS

from oracles import GaussianMixture1D


def _gradient_descent_oracle(model, init, tol=1e-9, max_iter=500_000):
    """Fixed-step gradient descent on a logistic posterior, independent of the Newton path.

    phi's gradient is L-Lipschitz with L = ||signed covariates||_2^2 / 4 +
    1 / sigma0^2 (the sigmoid's slope is at most 1/4), so the step 1/L
    decreases phi at every iteration without comparing phi values, whose
    differences near the mode fall below their rounding.
    """
    x = model.signed_covariates
    step = 1.0 / (np.linalg.norm(x, 2) ** 2 / 4.0 + 1.0 / model.prior_sigma0**2)
    theta = np.array(init, dtype=float)
    for _ in range(max_iter):
        grad = model.gradient(theta)
        if np.max(np.abs(grad)) <= tol:
            return theta
        theta = theta - step * grad
    raise AssertionError("oracle did not converge")


class TestFindMap:
    """The mode search inside ``fit_laplace``."""

    def test_gaussian_mode_is_mean(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        model = GaussianModel(rng.standard_normal(4), a @ a.T + 4 * np.eye(4))
        for init in (np.zeros(4), rng.standard_normal(4) * 5):
            theta = fit_laplace(model, init=init, tol=1e-12).theta_star
            np.testing.assert_allclose(theta, model.mean, atol=1e-10)

    def test_logistic_no_data_mode_is_origin(self):
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=2.0)
        theta = fit_laplace(model, init=np.array([3.0, -1.0, 0.5])).theta_star
        np.testing.assert_allclose(theta, np.zeros(3), atol=1e-12)

    def test_matches_independent_gradient_descent(self, logistic_small):
        model, fit = logistic_small
        assert fit.grad_norm <= 1e-10
        oracle = _gradient_descent_oracle(model, np.zeros(5))
        np.testing.assert_allclose(fit.theta_star, oracle, atol=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 3 * np.eye(3)
        shift = rng.standard_normal(3)
        base = GaussianModel(np.zeros(3), cov)
        moved = GaussianModel(shift, cov)
        t0 = fit_laplace(base, init=np.ones(3)).theta_star
        t1 = fit_laplace(moved, init=np.ones(3)).theta_star
        np.testing.assert_allclose(t1 - t0, shift, atol=1e-9)

    def test_iteration_cap_raises_with_payload(self, logistic_small):
        model, _ = logistic_small
        with pytest.raises(MapNotConvergedError) as exc_info:
            fit_laplace(model, init=np.full(5, 4.0), tol=1e-14, max_iter=1)
        err = exc_info.value
        assert err.last_iterate is not None and err.grad_norm is not None

    def test_rejects_nonpositive_tol(self, logistic_tiny):
        model, _ = logistic_tiny
        # an infinite tol returned the start as the mode, a NaN one ran to the cap
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                fit_laplace(model, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1, 2.5, True])
    def test_rejects_a_max_iter_that_is_not_a_positive_integer(self, max_iter, logistic_tiny):
        # 0 and -1 used to raise MapNotConvergedError, 2.5 a TypeError
        model, _ = logistic_tiny
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            fit_laplace(model, max_iter=max_iter)

    def test_rejects_init_of_the_wrong_length(self, logistic_tiny):
        model, _ = logistic_tiny
        with pytest.raises(DimensionMismatchError):
            fit_laplace(model, init=np.zeros(model.dim + 1))

    def test_line_search_without_a_finite_step_raises(self):
        class FiniteOnlyAtZero:
            # phi is finite at the start alone, so no step length is accepted
            dim = 1

            def neg_log_density(self, theta):
                return 0.0 if theta[0] == 0.0 else np.inf

            def gradient(self, theta):
                return np.array([1.0])

            def hessian(self, theta):
                return np.eye(1)

        with pytest.raises(MapNotConvergedError, match="line search failed") as exc_info:
            fit_laplace(FiniteOnlyAtZero())
        assert exc_info.value.iterations == 1
        assert np.all(exc_info.value.last_iterate == 0.0)

    def test_gradient_turning_non_finite_raises(self):
        class NanGradientAfterStart:
            # phi = (t - 1)^2 / 2, whose gradient is NaN away from the start
            dim = 1

            def neg_log_density(self, theta):
                return 0.5 * float(theta[0] - 1.0) ** 2

            def gradient(self, theta):
                return np.array([-1.0 if theta[0] == 0.0 else np.nan])

            def hessian(self, theta):
                return np.eye(1)

        with pytest.raises(NonFiniteObjectiveError, match="gradient became non-finite") as exc_info:
            fit_laplace(NanGradientAfterStart())
        assert np.all(exc_info.value.theta == 1.0)


class TestBuildFit:
    def test_gaussian_fit_recovers_covariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + 4 * np.eye(4)
        model = GaussianModel(rng.standard_normal(4), cov)
        fit = fit_laplace(model)
        np.testing.assert_allclose(
            fit.sqrt_covariance @ fit.sqrt_covariance, cov, rtol=1e-10
        )

    def test_logistic_no_data_fit_is_prior(self):
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=4.0)
        fit = fit_laplace(model)
        np.testing.assert_allclose(
            fit.sqrt_covariance @ fit.sqrt_covariance, 16.0 * np.eye(3), rtol=1e-12
        )
        np.testing.assert_allclose(fit.sqrt_covariance, 4.0 * np.eye(3), rtol=1e-12)

    def test_sqrt_is_symmetric_psd_and_squares_to_covariance(self, logistic_small):
        _, fit = logistic_small
        s = fit.sqrt_covariance
        np.testing.assert_array_equal(s, s.T)
        assert np.linalg.eigvalsh(s).min() > 0
        cov = np.linalg.inv(fit.hessian_at_mode)
        err = np.linalg.norm(s @ s - cov) / np.linalg.norm(cov)
        assert err <= 1e-10

    def test_random_spd_hessian_roundtrip(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        h = a @ a.T + 6 * np.eye(6)
        model = GaussianModel(np.zeros(6), np.linalg.inv(h))
        fit = fit_laplace(model)
        target = np.linalg.inv(model.precision)
        err = np.linalg.norm(fit.sqrt_covariance @ fit.sqrt_covariance - target)
        assert err <= 1e-10 * np.linalg.norm(target)

    def test_indefinite_hessian_rejected(self):
        class Saddle:
            dim = 2

            def neg_log_density(self, theta):
                return float(theta[0] ** 2 - theta[1] ** 2)

            def gradient(self, theta):
                return np.array([2 * theta[0], -2 * theta[1]])

            def hessian(self, theta):
                return np.diag([2.0, -2.0])

        with pytest.raises(AssumptionViolationError) as exc_info:
            fit_laplace(Saddle())
        assert exc_info.value.details["min_eigenvalue"] < 0

    def test_numerically_singular_hessian_rejected(self):
        # exact duplicate covariate columns + a huge prior variance leave a
        # relative eigenvalue gap far below the SPD floor
        dataset = generate_dataset(SyntheticDatasetConfig(d=2, n=30, seed=3))
        x = np.column_stack([dataset.covariates, dataset.covariates[:, -1]])
        model = LogisticRegressionModel(dataset.labels, x, prior_sigma0=1e9)
        # the mode search converges; the factorization at the mode refuses
        with pytest.raises(AssumptionViolationError):
            fit_laplace(model, max_iter=2000)


class TestLaplaceLogDensity:
    def test_value_at_mode(self, gaussian_5d):
        _, fit = gaussian_5d
        expected = -0.5 * (5 * np.log(2 * np.pi) + fit.log_det_covariance)
        assert laplace_log_density(fit, fit.theta_star) == pytest.approx(expected, rel=1e-14)

    def test_rejects_points_of_the_wrong_length(self, gaussian_5d):
        _, fit = gaussian_5d
        with pytest.raises(DimensionMismatchError, match="theta has the wrong length"):
            laplace_log_density(fit, np.zeros(4))
        with pytest.raises(DimensionMismatchError, match="theta batch has the wrong row length"):
            laplace_log_density(fit, np.zeros((3, 6)))

    def test_integrates_to_one_in_1d(self):
        model = GaussianModel(np.array([0.3]), np.array([[2.5]]))
        fit = fit_laplace(model)
        total = quad(lambda t: np.exp(laplace_log_density(fit, np.array([t]))), -40, 40)[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_is_exact_in_the_offset(self):
        # zero mode keeps the +-u offsets exactly representable
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 4)), prior_sigma0=3.0)
        fit = fit_laplace(model)
        assert np.all(fit.theta_star == 0.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.standard_normal(4)
            assert laplace_log_density(fit, u) == laplace_log_density(fit, -u)

    def test_symmetry_around_generic_mode(self, logistic_small):
        _, fit = logistic_small
        rng = np.random.default_rng(2)
        u = rng.standard_normal(5)
        a = laplace_log_density(fit, fit.theta_star + u)
        b = laplace_log_density(fit, fit.theta_star - u)
        assert a == pytest.approx(b, rel=1e-12)

    def test_batch_matches_scalar(self, logistic_small):
        _, fit = logistic_small
        rng = np.random.default_rng(3)
        thetas = fit.theta_star + rng.standard_normal((7, 5))
        batch = laplace_log_density(fit, thetas)
        np.testing.assert_allclose(
            batch, [laplace_log_density(fit, t) for t in thetas], rtol=1e-14
        )

    def test_quadratic_form_matches_three_operand_einsum(self):
        dataset = generate_dataset(SyntheticDatasetConfig(d=50, n=1000, seed=4))
        fit = fit_laplace(dataset.model(10.0))
        rng = np.random.default_rng(5)
        thetas = fit.theta_star + rng.standard_normal((3000, 50)) @ fit.sqrt_covariance
        deltas = thetas - fit.theta_star
        quad = np.einsum("ij,jk,ik->i", deltas, fit.hessian_at_mode, deltas)
        expected = -0.5 * (50 * np.log(2 * np.pi) + fit.log_det_covariance) - 0.5 * quad
        np.testing.assert_allclose(laplace_log_density(fit, thetas), expected, rtol=1e-13)


class TestSpotcheck:
    def test_logistic_passes(self, logistic_small):
        model, fit = logistic_small
        result = logconcavity_spotcheck(model, fit, n_points=64, radius_multiplier=5.0, seed=1)
        assert result.passed and result.min_eigenvalue > 0

    def test_gaussian_passes(self, gaussian_5d):
        model, fit = gaussian_5d
        assert logconcavity_spotcheck(model, fit, n_points=32, seed=2).passed

    def test_two_scale_mixture_caught(self):
        model = GaussianMixture1D(eps=0.01)
        fit = fit_laplace(model, init=np.zeros(1))
        # oracle: a direct scan certifies the negative-curvature zone exists
        ts = np.linspace(0.1, 20.0, 4000)
        curv = np.array([model.hessian(np.array([t]))[0, 0] for t in ts])
        assert curv.min() < 0
        result = logconcavity_spotcheck(
            model, fit, n_points=200, radius_multiplier=10.0, seed=0
        )
        assert result.n_failures >= 1
        assert result.min_eigenvalue < 0


def _per_point_spotcheck(model, fit, n_points, radius_multiplier, seed):
    """The spot check's points and one eigvalsh call per point."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_STREAMS["spotcheck"]))
    eta = rng.standard_normal((n_points, fit.dim))
    points = fit.theta_star + radius_multiplier * (eta @ fit.sqrt_covariance)
    lows = [float(np.linalg.eigvalsh(model.hessian(p)).min()) for p in points]
    return min(lows), [p for p, low in zip(points, lows) if low <= 0.0]


class TestSpotcheckMatchesPerPointLoop:
    @pytest.mark.parametrize("kind", ["mixture", "logistic_small", "logistic_d50"])
    def test_min_eigenvalue_and_failures_exact(self, kind, logistic_small):
        if kind == "mixture":
            model = GaussianMixture1D(eps=0.01)
            fit = fit_laplace(model, init=np.zeros(1))
            args = (200, 10.0, 0)
        elif kind == "logistic_small":
            model, fit = logistic_small
            args = (64, 5.0, 1)
        else:
            model = generate_dataset(SyntheticDatasetConfig(d=50, n=1000, seed=4)).model(10.0)
            fit = fit_laplace(model)
            args = (32, 3.0, 2)
        result = logconcavity_spotcheck(model, fit, *args)
        min_eig, failures = _per_point_spotcheck(model, fit, *args)
        assert result.min_eigenvalue == min_eig
        assert result.n_failures == len(failures)
        assert (len(failures) > 0) == (kind == "mixture")
        for got, want in zip(result.failure_points, failures):
            np.testing.assert_array_equal(got, want)

    def test_no_points(self, logistic_small):
        model, fit = logistic_small
        result = logconcavity_spotcheck(model, fit, n_points=0)
        assert result.passed and result.min_eigenvalue == np.inf

    @pytest.mark.parametrize("seed", [0.5, -1, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed, logistic_small):
        # a float seed used to end in SeedSequence's TypeError
        model, fit = logistic_small
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            logconcavity_spotcheck(model, fit, seed=seed)

