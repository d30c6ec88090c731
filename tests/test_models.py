"""Derivative, dataset and serialization checks for the target models."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from laplace_audit import (
    DimensionMismatchError,
    GaussianModel,
    LogisticRegressionModel,
    SyntheticDatasetConfig,
    UnsupportedOrderError,
    fit_laplace,
    generate_dataset,
    load_dataset_csv,
    random_gaussian_model,
    save_dataset_csv,
)
from laplace_audit import models as models_module
from laplace_audit.mcmc import N_CHAINS
from laplace_audit.models import (
    SIGMOID_THIRD_DERIVATIVE_MAX,
    TargetModel,
    _expit,
    _log1p_exp,
)

from oracles import (
    CubicRay1D,
    SoftplusTilt1D,
    central_directional,
    fourth_derivative_5pt,
    logistic_phi,
    logistic_ray_values,
    normal_logistic_loss,
    third_derivative_7pt,
)


def _random_logistic(seed, d=4, n=60, sigma0=5.0):
    dataset = generate_dataset(SyntheticDatasetConfig(d=d, n=n, seed=seed))
    return dataset.model(sigma0)


class TestNegLogDensity:
    def test_gaussian_minimum_at_mean(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        model = GaussianModel(rng.standard_normal(4), a @ a.T + 4 * np.eye(4))
        at_mean = model.neg_log_density(model.mean)
        assert at_mean == 0.0
        for _ in range(20):
            theta = model.mean + rng.standard_normal(4)
            assert model.neg_log_density(theta) > at_mean

    def test_logistic_empty_data_is_pure_quadratic(self):
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=2.0)
        theta = np.array([1.0, -2.0, 0.5])
        expected = float(theta @ theta) / (2 * 2.0**2)
        assert model.neg_log_density(theta) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_directional_derivative_matches_central_difference(self, seed):
        model = _random_logistic(seed)
        rng = np.random.default_rng(100 + seed)
        theta = rng.standard_normal(4)
        v = rng.standard_normal(4)
        fd = central_directional(model.neg_log_density, theta, v, h=1e-5)
        assert fd == pytest.approx(float(model.gradient(theta) @ v), rel=1e-6)

    def test_dimension_mismatch_rejected(self):
        model = _random_logistic(0)
        with pytest.raises(DimensionMismatchError):
            model.neg_log_density(np.zeros(7))
        with pytest.raises(DimensionMismatchError):
            model.gradient(np.zeros(2))


class TestGradientHessian:
    def test_gaussian_hessian_constant(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3))
        model = GaussianModel(np.zeros(3), a @ a.T + 3 * np.eye(3))
        h0 = model.hessian(np.zeros(3))
        h1 = model.hessian(rng.standard_normal(3))
        np.testing.assert_array_equal(h0, h1)
        np.testing.assert_allclose(h0, model.precision, rtol=0, atol=0)

    def test_logistic_empty_data_hessian_is_prior_precision(self):
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 4)), prior_sigma0=3.0)
        np.testing.assert_allclose(
            model.hessian(np.ones(4)), np.eye(4) / 9.0, rtol=1e-15
        )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_hessian_matches_gradient_differences(self, seed):
        model = _random_logistic(seed)
        rng = np.random.default_rng(200 + seed)
        theta = 0.5 * rng.standard_normal(4)
        h = model.hessian(theta)
        step = 1e-5
        for j in range(4):
            delta = np.zeros(4)
            delta[j] = step
            col = (model.gradient(theta + delta) - model.gradient(theta - delta)) / (2 * step)
            np.testing.assert_allclose(col, h[:, j], rtol=1e-5, atol=1e-9)

    def test_hessian_symmetric_and_eigenvalues_floored_by_prior(self):
        model = _random_logistic(1, sigma0=4.0)
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = rng.standard_normal(4) * 2
            h = model.hessian(theta)
            np.testing.assert_allclose(h, h.T, rtol=0, atol=0)
            assert np.linalg.eigvalsh(h).min() >= 1 / 16.0 - 1e-12


class TestHessianEigenvalueFloor:
    """The proven floor must lie below the Hessian spectrum at every theta."""

    @pytest.mark.parametrize(
        "model",
        [
            _random_logistic(2, d=4, n=60, sigma0=5.0),
            # fewer observations than parameters: the likelihood Hessian is
            # singular, so the floor is attained
            _random_logistic(3, d=6, n=3, sigma0=2.0),
            random_gaussian_model(5, seed=4),
            GaussianModel(np.ones(3), np.diag([0.1, 4.0, 30.0])),
        ],
        ids=["logistic", "logistic_wide", "gaussian", "gaussian_diag"],
    )
    def test_floor_below_hessian_spectrum(self, model):
        floor = model.hessian_eigenvalue_floor()
        assert floor > 0
        rng = np.random.default_rng(17)
        lowest = []
        for scale in (0.5, 3.0, 1e3, 1e6):
            for _ in range(5):
                eigs = np.linalg.eigvalsh(model.hessian(rng.standard_normal(model.dim) * scale))
                # eigvalsh is accurate to a few ulp of the largest eigenvalue
                assert floor <= eigs.min() + 1e-12 * np.abs(eigs).max()
                lowest.append(eigs.min())
        if not isinstance(model, LogisticRegressionModel) or model.n_obs < model.dim:
            assert min(lowest) == pytest.approx(floor, rel=1e-9)

    def test_values(self):
        model = _random_logistic(1, sigma0=4.0)
        assert model.hessian_eigenvalue_floor() == 1 / 16.0
        gaussian = GaussianModel(np.zeros(2), np.diag([0.5, 8.0]))
        assert gaussian.hessian_eigenvalue_floor() == 1 / 8.0

    def test_custom_model_has_no_floor_by_default(self):
        assert SoftplusTilt1D(1.0).hessian_eigenvalue_floor() is None


def _oracle_expectation(model, mean, sqrt_cov):
    """E[phi] under N(mean, S S) from the data alone, each loss by ``normal_logistic_loss``."""
    signed = model.labels[:, None] * model.covariates
    spreads = np.linalg.norm(signed @ sqrt_cov, axis=1)
    losses = [normal_logistic_loss(m, s) for m, s in zip(signed @ mean, spreads)]
    prior = (mean @ mean + np.sum(sqrt_cov * sqrt_cov)) / (2.0 * model.prior_sigma0**2)
    return prior + sum(losses)


@pytest.mark.filterwarnings("error")
class TestExpectedNegLogDensity:
    """The logistic E[phi] under a Gaussian against a quadrature that shares no package code."""

    @pytest.mark.parametrize(
        "s", [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0]
    )
    def test_each_observation_matches_the_oracle(self, s):
        # one observation whose margin has mean m and standard deviation s:
        # covariates (m, 1) with mean (1, 0) and S = diag(0, s); the prior
        # term is (1 + s^2) / 2 at sigma0 = 1
        sqrt_cov = np.diag([0.0, s])
        for m in np.linspace(-(4 * s + 3), 4 * s + 3, 41):
            model = LogisticRegressionModel(np.ones(1), np.array([[m, 1.0]]), 1.0)
            got = model.expected_neg_log_density(np.array([1.0, 0.0]), sqrt_cov)
            assert abs(got - 0.5 * (1.0 + s * s) - normal_logistic_loss(m, s)) <= 1e-9

    def test_all_zero_covariate_row_adds_log_2(self):
        dataset = generate_dataset(SyntheticDatasetConfig(d=5, n=40, seed=3))
        base = dataset.model(10.0)
        model = LogisticRegressionModel(
            np.append(dataset.labels, 1.0), np.vstack([dataset.covariates, np.zeros(5)]), 10.0
        )
        fit = fit_laplace(model)
        got = model.expected_neg_log_density(fit.theta_star, fit.sqrt_covariance)
        assert abs(got - _oracle_expectation(model, fit.theta_star, fit.sqrt_covariance)) <= 41e-9
        without = base.expected_neg_log_density(fit.theta_star, fit.sqrt_covariance)
        assert got - without == pytest.approx(np.log(2.0), abs=1e-12)

    def test_no_observations_leave_the_prior_term(self):
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=2.0)
        mean = np.array([1.0, -2.0, 0.5])
        sqrt_cov = np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 2.0]])
        expected = (mean @ mean + np.sum(sqrt_cov * sqrt_cov)) / (2 * 2.0**2)
        got = model.expected_neg_log_density(mean, sqrt_cov)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_wide_posterior_cell(self):
        # (50, 200) seed 1, the CLI's truth target: margin spreads reach 6.7,
        # where a 64-node Gauss-Hermite rule is off by 5e-7
        model = generate_dataset(SyntheticDatasetConfig(d=50, n=200, seed=1)).model(10.0)
        fit = fit_laplace(model)
        spreads = np.linalg.norm(model.signed_covariates @ fit.sqrt_covariance, axis=1)
        assert spreads.max() > 6.0
        got = model.expected_neg_log_density(fit.theta_star, fit.sqrt_covariance)
        assert abs(got - _oracle_expectation(model, fit.theta_star, fit.sqrt_covariance)) <= 200e-9

    def test_other_models_have_none(self):
        # the Gaussian's direction pass is already exact; custom models keep it
        assert SoftplusTilt1D(1.0).expected_neg_log_density(np.zeros(1), np.eye(1)) is None
        gaussian = random_gaussian_model(3, seed=1)
        assert gaussian.expected_neg_log_density(np.zeros(3), np.eye(3)) is None

    def test_shapes_checked(self):
        model = _random_logistic(0, d=4)
        with pytest.raises(DimensionMismatchError):
            model.expected_neg_log_density(np.zeros(3), np.eye(4))
        with pytest.raises(DimensionMismatchError):
            model.expected_neg_log_density(np.zeros(4), np.eye(3))


class TestRayDerivatives:
    def test_gaussian_third_and_fourth_vanish_exactly(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        model = GaussianModel(rng.standard_normal(3), a @ a.T + 3 * np.eye(3))
        vals = model.ray_derivatives(rng.standard_normal(3), rng.standard_normal(3), 0.7, 4)
        assert vals[2] == 0.0 and vals[3] == 0.0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_third_derivative_matches_5pt_stencil(self, seed):
        model = _random_logistic(seed)
        rng = np.random.default_rng(300 + seed)
        base = 0.3 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)

        def along(r):
            return model.neg_log_density(base + r * v)

        fd = third_derivative_7pt(along, 0.0, h=5e-3)
        analytic = model.ray_derivatives(base, v, 0.0, 3)[2]
        assert fd == pytest.approx(analytic, rel=1e-4)

    @pytest.mark.parametrize("r", [0.0, 0.25, -0.4, 0.9])
    def test_third_derivative_oracle_exact_on_sextic(self, r):
        # Degree 6 has no h^4 truncation term, so only roundoff remains; its
        # nonzero fifth derivative gives an O(h^2) stencil a >1e-5 error here.
        p = np.polynomial.Polynomial([0.7, -1.3, 0.5, 2.0, -1.5, 0.8, 0.6])
        fd = third_derivative_7pt(p, r, h=5e-3)
        assert fd == pytest.approx(p.deriv(3)(r), rel=1e-8)

    def test_fourth_derivative_matches_stencil_and_third_differences(self):
        model = _random_logistic(2)
        rng = np.random.default_rng(11)
        base = 0.3 * rng.standard_normal(4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        analytic = model.ray_derivatives(base, v, 0.4, 4)[3]

        def along(r):
            return model.neg_log_density(base + r * v)

        fd_values = fourth_derivative_5pt(along, 0.4, h=3e-2)
        assert fd_values == pytest.approx(analytic, rel=2e-3, abs=1e-6)
        h = 1e-5
        fd_third = (
            model.ray_derivatives(base, v, 0.4 + h, 3)[2]
            - model.ray_derivatives(base, v, 0.4 - h, 3)[2]
        ) / (2 * h)
        assert fd_third == pytest.approx(analytic, rel=1e-4)

    def test_sigmoid_fourth_derivative_constant_via_grid(self):
        # |d^4/dt^4 log(1+e^-t)| maxes at 1/8; establish it from raw values
        ts = np.linspace(-12.0, 12.0, 200_001)
        p = expit(ts)
        vals = np.abs(p * (1 - p) * (1 - 6 * p + 6 * p * p))
        assert abs(vals.max() - SIGMOID_THIRD_DERIVATIVE_MAX) < 1e-8

    def test_analytic_ray_bound_dominates_profile(self):
        model = _random_logistic(5)
        rng = np.random.default_rng(17)
        base = rng.standard_normal(4)
        v = rng.standard_normal(4)
        bound = model.ray_batch(base, v[None], np.zeros(1)).delta4[0]
        rs = np.linspace(-8.0, 8.0, 400)
        profile = model.ray_derivatives(base, v, rs, 4)[:, 3]
        assert np.all(np.abs(profile) <= bound + 1e-12)

    def test_unsupported_order_rejected(self):
        model = _random_logistic(0)
        with pytest.raises(UnsupportedOrderError):
            model.ray_derivatives(np.zeros(4), np.ones(4), 0.0, 5)
        with pytest.raises(UnsupportedOrderError):
            model.ray_derivatives(np.zeros(4), np.ones(4), [0.0], 0)

    def test_large_margin_stability(self):
        # |t| > 30 must not overflow or go non-finite anywhere in the chain
        model = LogisticRegressionModel(
            np.array([1.0, -1.0]), np.array([[60.0], [45.0]]), prior_sigma0=10.0
        )
        theta = np.array([2.0])
        with np.errstate(over="raise", invalid="raise"):
            assert np.isfinite(model.neg_log_density(theta))
            assert np.all(np.isfinite(model.gradient(theta)))
            assert np.all(np.isfinite(model.hessian(theta)))
            assert np.all(np.isfinite(model.ray_derivatives(theta, np.ones(1), 0.0, 4)))


class TestVectorizedHooks:
    def test_ray_values_match_scalar(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(23)
        v = rng.standard_normal(5)
        rs = np.linspace(0.0, 4.0, 17)
        vec = model.ray_values(fit.theta_star, v, rs)
        oracle = logistic_phi(model, fit.theta_star + rs[:, None] * v)
        np.testing.assert_allclose(vec, oracle, rtol=1e-13)

    def test_profile_matches_scalar_all_orders(self, logistic_small):
        model, fit = logistic_small
        rng = np.random.default_rng(29)
        v = rng.standard_normal(5)
        rs = np.linspace(0.0, 3.0, 9)
        profile = model.ray_derivatives(fit.theta_star, v, rs, 4)
        for order in (1, 2, 3, 4):
            vec = profile[:, order - 1]
            scalar = [
                model.ray_derivatives(fit.theta_star, v, r, order)[order - 1] for r in rs
            ]
            np.testing.assert_allclose(vec, scalar, rtol=1e-12, atol=1e-14)

    def test_many_point_hooks_match_scalar(self, logistic_small):
        model, _ = logistic_small
        rng = np.random.default_rng(31)
        thetas = rng.standard_normal((6, 5))
        many = model.neg_log_density_many(thetas)
        np.testing.assert_allclose(many, [model.neg_log_density(t) for t in thetas], rtol=1e-13)
        np.testing.assert_allclose(many, logistic_phi(model, thetas), rtol=1e-13)

    @pytest.mark.parametrize("kind", ["gaussian", "logistic"])
    def test_scalar_phi_is_the_one_row_block(self, kind, logistic_small, gaussian_5d):
        model, fit = gaussian_5d if kind == "gaussian" else logistic_small
        rng = np.random.default_rng(32)
        thetas = fit.theta_star + rng.standard_normal((6, 5))
        for theta in np.vstack([thetas, fit.theta_star]):
            scalar = model.neg_log_density(theta)
            assert type(scalar) is float
            assert scalar == model.neg_log_density_many(theta[None, :])[0]

    def test_many_point_hooks_split_into_row_blocks(self, logistic_small, monkeypatch):
        model, _ = logistic_small
        thetas = np.random.default_rng(43).standard_normal((10, 5))
        whole = model.neg_log_density_many(thetas)
        # blocks of 4 rows: two full blocks and a short one
        monkeypatch.setattr(models_module, "BLOCK_ELEMENTS", 4 * model.n_obs)
        np.testing.assert_allclose(model.neg_log_density_many(thetas), whole, rtol=1e-14)
        assert model.neg_log_density_many(np.zeros((0, 5))).shape == (0,)


class TestLogisticManyPointBranches:
    """``neg_log_density_many`` against the ``np.logaddexp`` oracle on every branch."""

    @staticmethod
    def _assert_matches_oracle(model, thetas):
        many = model.neg_log_density_many(thetas)
        assert many.shape == (thetas.shape[0],)
        np.testing.assert_allclose(many, logistic_phi(model, thetas), rtol=1e-13, atol=0)

    def test_block_with_margins_below_minus_700_takes_the_abs_form(self, monkeypatch):
        model = _random_logistic(12, d=5, n=80)
        rng = np.random.default_rng(13)
        thetas = 0.3 * rng.standard_normal((8, 5))
        # one row far out: some of its margins fall below -700 and others
        # rise above 700, so the whole 4-row block holding it takes the
        # log1p(exp(-|u|)) + max(u, 0) form, and the other block does not
        thetas[2] = 400.0 * rng.standard_normal(5)
        margins = model.signed_covariates @ thetas[2]
        assert margins.min() < -700.0 and margins.max() > 700.0
        assert np.abs(model.signed_covariates @ thetas[4:].T).max() < 700.0
        monkeypatch.setattr(models_module, "BLOCK_ELEMENTS", 4 * model.n_obs)
        self._assert_matches_oracle(model, thetas)

    def test_rows_with_nan_or_infinity(self):
        model = _random_logistic(14, d=3, n=40)
        thetas = np.array(
            [
                [0.1, -0.2, 0.3],
                [np.nan, 0.0, 0.0],
                [np.inf, 0.0, 0.0],
                [-np.inf, 0.0, 0.0],
                [0.0, 0.0, np.nan],
            ]
        )
        many = model.neg_log_density_many(thetas)
        np.testing.assert_array_equal(np.isnan(many), [False, True, False, False, True])
        assert many[2] == np.inf and many[3] == np.inf
        self._assert_matches_oracle(model, thetas)
        # the scalar phi is the one-row block: NaN, silently
        assert np.isnan(model.neg_log_density(thetas[1]))

    def test_model_without_observations(self):
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=2.0)
        assert model.n_obs == 0
        thetas = np.random.default_rng(16).standard_normal((5, 3))
        self._assert_matches_oracle(model, thetas)
        np.testing.assert_allclose(
            model.neg_log_density_many(thetas), np.sum(thetas * thetas, axis=1) / 8.0, rtol=1e-15
        )

    @pytest.mark.parametrize("branch", ["far_margins", "nonfinite_rows", "no_observations"])
    def test_each_branch_in_one_block_of_chain_batch_sizes(self, branch):
        # the chain scores 40 start rows, then 1 to 40 survivors per step,
        # each call one block of the hook at the default BLOCK_ELEMENTS
        rng = np.random.default_rng(17)
        if branch == "no_observations":
            model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=2.0)
        else:
            model = _random_logistic(18, d=3, n=60)
        thetas = 0.3 * rng.standard_normal((N_CHAINS, 3))
        if branch == "far_margins":
            # negated margins beyond 700 on both sides: the log1p(exp(-|u|))
            # + max(u, 0) form, for the whole 40-row block and its own row
            thetas[7] = 500.0 * rng.standard_normal(3)
            margins = model.signed_covariates @ thetas[7]
            assert margins.min() < -700.0 and margins.max() > 700.0
        elif branch == "nonfinite_rows":
            thetas[[3, 11, 25, 39], [0, 1, 2, 0]] = [np.nan, np.inf, -np.inf, np.nan]
        assert N_CHAINS * max(1, model.n_obs) <= models_module.BLOCK_ELEMENTS
        # OpenBLAS's many-row product of a block with an infinite coordinate
        # raises the invalid flag though every margin it returns is exact
        # (+-inf); the one-row product does not, and each row is checked
        # alone below with every warning an error
        with np.errstate(invalid="ignore" if branch == "nonfinite_rows" else "warn"):
            self._assert_matches_oracle(model, thetas)
        for theta in thetas:
            self._assert_matches_oracle(model, theta[None, :])


def _contract_cases():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((6, 6))
    gaussian = GaussianModel(rng.standard_normal(6), a @ a.T + 6 * np.eye(6))
    logistic = _random_logistic(8, d=6)
    return {
        "gaussian": (gaussian, rng.standard_normal(6), rng.standard_normal(6)),
        "logistic": (logistic, 0.3 * rng.standard_normal(6), rng.standard_normal(6)),
        "softplus_tilt": (SoftplusTilt1D(0.7), np.array([0.2]), np.array([1.3])),
        "cubic_ray": (CubicRay1D(0.4), np.array([0.1]), np.array([0.8])),
    }


@pytest.mark.parametrize("kind", ["gaussian", "logistic", "softplus_tilt", "cubic_ray"])
class TestRayDerivativesOverOffsets:
    """``ray_derivatives`` takes one offset or an array of them."""

    def test_shapes(self, kind):
        model, base, v = _contract_cases()[kind]
        assert model.ray_derivatives(base, v, 0.3, 4).shape == (4,)
        assert model.ray_derivatives(base, v, np.linspace(-1, 1, 5), 4).shape == (5, 4)
        assert model.ray_derivatives(base, v, np.zeros((2, 3)), 4).shape == (2, 3, 4)
        assert model.ray_derivatives(base, v, np.zeros((2, 3)), 2).shape == (2, 3, 2)

    @pytest.mark.parametrize("max_order", [1, 2, 3, 4])
    def test_rows_match_scalar_calls(self, kind, max_order):
        model, base, v = _contract_cases()[kind]
        rs = np.linspace(-1.5, 2.5, 12).reshape(3, 4)
        rows = model.ray_derivatives(base, v, rs, max_order)
        for index in np.ndindex(rs.shape):
            np.testing.assert_allclose(
                rows[index],
                model.ray_derivatives(base, v, float(rs[index]), max_order),
                rtol=1e-13,
                atol=1e-14,
            )


class ScalarOnly(TargetModel):
    """A model with only the abstract methods, borrowed from another model."""

    def __init__(self, model):
        self.dim = model.dim
        self._model = model

    def neg_log_density(self, theta):
        return self._model.neg_log_density(theta)

    def gradient(self, theta):
        return self._model.gradient(theta)

    def hessian(self, theta):
        return self._model.hessian(theta)

    def ray_derivatives(self, base, direction, r=0.0, max_order=4):
        return self._model.ray_derivatives(base, direction, r, max_order)


def test_gaussian_many_matches_three_operand_einsum():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((50, 50))
    model = GaussianModel(rng.standard_normal(50), a @ a.T + 50 * np.eye(50))
    thetas = model.mean + rng.standard_normal((3000, 50)) @ np.linalg.cholesky(model.covariance).T
    deltas = thetas - model.mean
    expected = 0.5 * np.einsum("ij,jk,ik->i", deltas, model.precision, deltas)
    np.testing.assert_allclose(model.neg_log_density_many(thetas), expected, rtol=1e-13)


class TestRayBatch:
    @staticmethod
    def _scalar_hooks(model, base, vs, rs):
        # node values from independent phi forms, not from the model's own
        inner = model._model if isinstance(model, ScalarOnly) else model
        points = base + rs[None, :, None] * vs[:, None, :]
        if isinstance(inner, LogisticRegressionModel):
            values = [logistic_phi(inner, p) for p in points]
        else:
            deltas = points - inner.mean
            values = 0.5 * np.einsum("ijk,kl,ijl->ij", deltas, inner.precision, deltas)
        delta3 = [model.ray_derivatives(base, v, 0.0, 3)[2] for v in vs]
        if isinstance(model, LogisticRegressionModel):
            # |d^4/dt^4 log(1 + e^-t)| <= 1/8, times sum((y_i x_i . v)^4)
            delta4 = [0.125 * np.sum((model.signed_covariates @ v) ** 4) for v in vs]
        else:
            # a quadratic phi has no fourth derivative
            delta4 = [0.0] * len(vs)
        return np.array(values), np.array(delta3), delta4

    @pytest.mark.parametrize("kind", ["gaussian", "logistic", "scalar_only"])
    def test_matches_scalar_hooks(self, kind, logistic_small, gaussian_5d):
        model, fit = gaussian_5d if kind == "gaussian" else logistic_small
        if kind == "scalar_only":
            model = ScalarOnly(model)
        rng = np.random.default_rng(37)
        vs = rng.standard_normal((11, 5)) @ fit.sqrt_covariance
        rs = np.linspace(0.0, 4.0, 9)
        batch = model.ray_batch(fit.theta_star, vs, rs)
        values, delta3, delta4 = self._scalar_hooks(model, fit.theta_star, vs, rs)
        np.testing.assert_allclose(batch.values, values, rtol=1e-13)
        np.testing.assert_allclose(batch.delta3, delta3, rtol=1e-13)
        if kind == "scalar_only":
            assert batch.delta4 is None
        else:
            np.testing.assert_allclose(batch.delta4, delta4, rtol=1e-13)

    def test_gaussian_phi_at_the_base_is_the_many_point_phi(self):
        # off the mode, a second quadratic form for phi at the base rounded
        # differently from neg_log_density_many's in 123 of these 200 models
        rng = np.random.default_rng(48)
        for _ in range(200):
            d = int(rng.integers(2, 60))
            a = rng.standard_normal((d, d))
            model = GaussianModel(rng.standard_normal(d), a @ a.T + d * np.eye(d))
            base = model.mean + rng.standard_normal(d)
            values = model.ray_batch(base, rng.standard_normal((4, d)), np.array([0.0])).values
            assert np.all(values[:, 0] == model.neg_log_density_many(base[None])[0])

    def test_chunks_cover_every_direction(self, logistic_small, monkeypatch):
        model, fit = logistic_small
        rng = np.random.default_rng(41)
        vs = rng.standard_normal((13, 5))
        rs = np.linspace(0.0, 3.0, 7)
        whole = model.ray_batch(fit.theta_star, vs, rs)
        # room for 2 directions per chunk: 13 rows take 7 chunks, the last one short
        monkeypatch.setattr(models_module, "BLOCK_ELEMENTS", 2 * rs.size * model.n_obs)
        chunked = model.ray_batch(fit.theta_star, vs, rs)
        # not bit for bit: the projections s of a one-row chunk come from a
        # matrix-vector product, which rounds differently from the
        # matrix-matrix one, and some OpenBLAS kernels round a matrix-matrix
        # row differently with the chunk's row count too
        np.testing.assert_allclose(chunked.values, whole.values, rtol=1e-14)
        np.testing.assert_allclose(chunked.delta3, whole.delta3, rtol=1e-14)
        np.testing.assert_allclose(chunked.delta4, whole.delta4, rtol=1e-14)

    @staticmethod
    def _assert_broadcast_values(model, base, vs, rs):
        """The node values equal the broadcast-margin oracle's bit for bit."""
        got = model.ray_batch(base, vs, rs).values
        want = logistic_ray_values(model, base, vs, rs)
        assert got.shape == want.shape == (vs.shape[0], rs.shape[0])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cell", ["logistic_small", "logistic_d50"])
    def test_stacked_margins_round_like_broadcast(self, cell, request):
        model, fit = request.getfixturevalue(cell)
        rng = np.random.default_rng(43)
        vs = rng.standard_normal((64, model.dim)) @ fit.sqrt_covariance
        rs = np.linspace(0.0, 6.0, 32)
        self._assert_broadcast_values(model, fit.theta_star, vs, rs)

    def test_unsorted_offsets_round_like_broadcast(self, logistic_small):
        model, fit = logistic_small
        vs = np.random.default_rng(44).standard_normal((9, 5)) @ fit.sqrt_covariance
        rs = np.array([2.5, 0.0, -1.25, 4.0, 0.5, -3.0])
        self._assert_broadcast_values(model, fit.theta_star, vs, rs)

    @pytest.mark.parametrize("per_chunk", [4, 10])
    def test_short_last_chunk_rounds_like_broadcast(self, per_chunk, logistic_small, monkeypatch):
        model, fit = logistic_small
        vs = np.random.default_rng(45).standard_normal((13, 5)) @ fit.sqrt_covariance
        rs = np.linspace(0.0, 4.0, 7)
        # 13 rows: chunks of 4 end with one row, chunks of 10 with three
        monkeypatch.setattr(models_module, "BLOCK_ELEMENTS", per_chunk * rs.size * model.n_obs)
        self._assert_broadcast_values(model, fit.theta_star, vs, rs)

    def test_antithetic_pairs_cancel_exactly(self, logistic_small, monkeypatch):
        model, fit = logistic_small
        # a budget for an odd 81 rows: a chunk of 81 would split the last
        # pair, and its -v would take a matrix-vector product of its own
        monkeypatch.setattr(models_module, "BLOCK_ELEMENTS", 81 * model.n_obs)
        for seed in range(20):
            v = np.random.default_rng(seed).standard_normal((41, 5)) @ fit.sqrt_covariance
            pairs = np.stack([v, -v], axis=1).reshape(82, 5)
            batch = model.ray_batch(fit.theta_star, pairs, np.zeros(1))
            assert np.all(batch.delta3[0::2] + batch.delta3[1::2] == 0.0), seed
            np.testing.assert_array_equal(batch.delta4[0::2], batch.delta4[1::2])

    def test_margins_above_700_round_like_broadcast(self, logistic_small):
        model, fit = logistic_small
        vs = np.random.default_rng(46).standard_normal((6, 5))
        rs = np.array([0.0, 750.0, -750.0])
        s = vs @ model.signed_covariates.T
        t0 = model.signed_covariates @ fit.theta_star
        # the one chunk's largest margin -r s - t0 is above 700: the |u| form
        assert 750.0 * np.abs(s).max() - np.abs(t0).max() > 700.0
        self._assert_broadcast_values(model, fit.theta_star, vs, rs)

    def test_empty_blocks_round_like_broadcast(self, logistic_small):
        model, fit = logistic_small
        rs = np.linspace(0.0, 3.0, 4)
        self._assert_broadcast_values(model, fit.theta_star, np.zeros((0, 5)), rs)
        no_data = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=2.0)
        vs = np.random.default_rng(47).standard_normal((5, 3))
        self._assert_broadcast_values(no_data, np.array([1.0, -2.0, 0.5]), vs, rs)

    def test_direction_shape_checked(self, logistic_small):
        model, fit = logistic_small
        with pytest.raises(DimensionMismatchError):
            model.ray_batch(fit.theta_star, np.ones(5), np.zeros(1))
        with pytest.raises(DimensionMismatchError):
            model.ray_batch(fit.theta_star, np.ones((2, 4)), np.zeros(1))

    @pytest.mark.parametrize("kind", ["scalar_only", "tilt"])
    def test_generic_path_checks_direction_shape(self, kind, logistic_small):
        # the base class's ray_batch takes the built-ins' (k, dim) check
        model = ScalarOnly(logistic_small[0]) if kind == "scalar_only" else SoftplusTilt1D(1.0)
        base = np.zeros(model.dim)
        for bad in (np.ones(model.dim), np.ones((2, model.dim + 1))):
            with pytest.raises(DimensionMismatchError):
                model.ray_batch(base, bad, np.zeros(1))


class TestNegLogExpit:
    """-log expit(t) = log(1 + exp(-t)), taken as ``_log1p_exp(-t)``."""

    def test_within_4_ulp_of_logaddexp(self):
        ts = np.linspace(-800.0, 800.0, 400_001)
        expected = np.logaddexp(0.0, -ts)
        # the whole grid reaches below -700 and takes the |t| form; the
        # pieces above -700 take the short form
        for piece in (ts, ts[ts > -700.0], ts[ts > 0.0]):
            want = np.logaddexp(0.0, -piece)
            got = _log1p_exp(-piece)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert expected[-1] == 0.0 and _log1p_exp(-ts)[-1] == 0.0

    @pytest.mark.parametrize("low", [-10.0, -750.0])
    def test_special_values_propagate_without_overflow(self, low):
        ts = np.array([low, np.nan, np.inf, -np.inf, 0.0])
        with np.errstate(over="raise"):
            got = _log1p_exp(-ts)
        np.testing.assert_array_equal(np.isnan(got), [False, True, False, False, False])
        assert got[2] == 0.0 and got[3] == np.inf
        np.testing.assert_allclose(got[[0, 4]], np.logaddexp(0.0, -ts[[0, 4]]), rtol=1e-15)
        with np.errstate(over="raise"):
            finite = _log1p_exp(-np.array([low, 5.0]))
        np.testing.assert_allclose(finite, np.logaddexp(0.0, -np.array([low, 5.0])), rtol=1e-15)

    def test_writes_into_out(self):
        ts = np.linspace(-3.0, 3.0, 7)
        out = np.empty_like(ts)
        assert _log1p_exp(-ts, out=out) is out
        assert _log1p_exp(np.zeros(0)).shape == (0,)


class TestExpit:
    def test_matches_scipy_expit(self):
        ts = np.linspace(-750.0, 750.0, 2_000_001)
        # 4.6e-16 at most on x86-64 with AVX2; numpy's vectorized exp and
        # libm's, which scipy calls, round differently at 1.9 % of the points
        np.testing.assert_allclose(_expit(ts), expit(ts), rtol=1e-15, atol=0)

    def test_special_values_without_overflow(self):
        ts = np.array([-800.0, 800.0, -np.inf, np.inf, np.nan])
        with np.errstate(over="raise"):
            got = _expit(ts)
        np.testing.assert_array_equal(got, expit(ts))
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0, 1.0, np.nan])


class TestDatasetGeneration:
    def test_empty_dataset_is_valid(self):
        dataset = generate_dataset(SyntheticDatasetConfig(d=3, n=0, seed=1))
        model = dataset.model(2.0)
        assert model.n_obs == 0
        assert model.neg_log_density(np.zeros(3)) == 0.0

    def test_fixed_seed_bit_reproducible(self):
        a = generate_dataset(SyntheticDatasetConfig(d=4, n=50, seed=99))
        b = generate_dataset(SyntheticDatasetConfig(d=4, n=50, seed=99))
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.theta_true, b.theta_true)

    def test_labels_correlate_with_true_parameter(self):
        dataset = generate_dataset(SyntheticDatasetConfig(d=5, n=10_000, seed=3))
        margins = dataset.labels * (dataset.covariates @ dataset.theta_true)
        assert margins.mean() > 0.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_dataset(SyntheticDatasetConfig(d=0, n=5, seed=0))
        with pytest.raises(ValueError):
            generate_dataset(SyntheticDatasetConfig(d=2, n=-1, seed=0))
        with pytest.raises(ValueError, match="d must be >= 1"):
            random_gaussian_model(0, 0)
        # a float d or seed used to reach numpy and end in its TypeError
        for field, value in (("d", 2.0), ("n", 10.0), ("seed", 0.5), ("seed", -1), ("d", True)):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SyntheticDatasetConfig(**{"d": 2, "n": 10, "seed": 0, field: value})
        for d in (2.0, True):
            with pytest.raises(ValueError, match="d must be >= 1"):
                random_gaussian_model(d, 0)
        for seed in (0.5, -1, True):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                random_gaussian_model(2, seed)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        dataset = generate_dataset(SyntheticDatasetConfig(d=3, n=25, seed=42))
        path = tmp_path / "data.csv"
        save_dataset_csv(path, dataset.labels, dataset.covariates)
        y, x = load_dataset_csv(path)
        np.testing.assert_array_equal(y, dataset.labels)
        np.testing.assert_array_equal(x, dataset.covariates)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_label_validation(self, tmp_path):
        path = tmp_path / "bad_labels.csv"
        path.write_text("y,x1\n0.5,1.0\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)

    def test_header_only_file_is_an_empty_dataset(self, tmp_path):
        # loadtxt would warn that its input holds no data
        path = tmp_path / "empty.csv"
        for text in ("y,x1,x2,x3\n", "y,x1,x2,x3\n\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y, x = load_dataset_csv(path)
            assert y.shape == (0,) and x.shape == (0, 3)

    def test_empty_dataset_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_dataset_csv(path, np.zeros(0), np.zeros((0, 2)))
        assert path.read_text() == "y,x1,x2\n"
        y, x = load_dataset_csv(path)
        assert y.shape == (0,) and x.shape == (0, 2)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("y,x1\n\n1,0.5\n  \n-1,0.25\n\n")
        y, x = load_dataset_csv(path)
        np.testing.assert_array_equal(y, [1.0, -1.0])
        np.testing.assert_array_equal(x, [[0.5], [0.25]])

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("y,x1,x2\n1,0.5,0.25\n-1,0.5\n")
        with pytest.raises(ValueError, match="line 3 has 2 cells"):
            load_dataset_csv(path)

    def test_rows_of_the_wrong_width(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("y,x1\n1,0.5,0.25\n-1,0.5,0.75\n")
        with pytest.raises(ValueError, match="line 2 has 3 cells"):
            load_dataset_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("y,x1,x2\n1,0.5,0.25\n\n-1,0.5\n", "line 4 has 2 cells"),
            ("y,x1\n\n\n1,0.5,0.25\n-1,0.5,0.75\n", "line 4 has 3 cells"),
            ("y,x1\n1,0.5\n-1,b\n", "line 3, column 2: 'b' is not a number"),
            ("y,x1\n\n-1,b\n", "line 3, column 2: 'b' is not a number"),
            ("y,x1,x2\n\n1,0.5,0.25\n\n-1,,0.5\n", "line 5, column 2: '' is not a number"),
            ("y,x1\n1,0.5\n\n0.5,1.0\n", "line 4: labels must take values"),
        ],
        ids=["ragged_after_blank", "wide_after_blanks", "cell", "cell_after_blank",
             "empty_cell", "label_after_blank"],
    )
    def test_row_errors_name_the_file_line(self, tmp_path, text, message):
        # the header is line 1 and blank lines count, as an editor shows them
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_dataset_csv(path)


class TestConstruction:
    def test_infinite_prior_sigma_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionModel(np.array([1.0]), np.array([[1.0]]), float("inf"))

    def test_no_covariate_columns_rejected(self):
        # a 0-dimensional posterior is malformed input, not a target that
        # breaks a certificate assumption at its fit
        with pytest.raises(DimensionMismatchError, match="at least one column"):
            LogisticRegressionModel(np.array([1.0, -1.0]), np.zeros((2, 0)), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariates_rejected(self, bad):
        x = np.array([[1.0, 0.5], [bad, -1.0]])
        with pytest.raises(ValueError, match="covariates must be finite"):
            LogisticRegressionModel(np.array([1.0, -1.0]), x, 1.0)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionModel(np.array([0.5]), np.array([[1.0]]), 1.0)

    def test_gaussian_requires_spd_covariance(self):
        with pytest.raises(ValueError):
            GaussianModel(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_logistic_shapes_checked(self):
        with pytest.raises(DimensionMismatchError, match="n x d matrix"):
            LogisticRegressionModel(np.array([1.0]), np.array([1.0]), 1.0)
        with pytest.raises(DimensionMismatchError, match="does not match covariate rows"):
            LogisticRegressionModel(np.array([1.0, -1.0]), np.ones((3, 2)), 1.0)

    def test_gaussian_shapes_checked(self):
        with pytest.raises(DimensionMismatchError, match="mean must be a vector"):
            GaussianModel(np.zeros((2, 1)), np.eye(2))
        with pytest.raises(DimensionMismatchError, match="covariance must be 2x2"):
            GaussianModel(np.zeros(2), np.eye(3))

    def test_gaussian_without_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError, match="at least one entry"):
            GaussianModel(np.zeros(0), np.zeros((0, 0)))

    def test_gaussian_non_finite_mean_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianModel(np.array([0.0, np.nan]), np.eye(2))

    @pytest.mark.parametrize(
        "covariance", [np.full((2, 2), np.nan), np.diag([1.0, np.inf])], ids=["nan", "inf_diagonal"]
    )
    def test_gaussian_non_finite_covariance_rejected(self, covariance):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianModel(np.zeros(2), covariance)
