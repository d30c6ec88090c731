"""Derivative, dataset and serialization checks for the target models."""

import numpy as np
import pytest
from scipy.special import expit

from laplace_audit import (
    DimensionMismatchError,
    GaussianModel,
    LogisticRegressionModel,
    SyntheticDatasetConfig,
    UnsupportedOrderError,
    generate_dataset,
    load_dataset_csv,
    random_gaussian_model,
    save_dataset_csv,
)
from laplace_audit import models as models_module
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
        bound = model.ray_batch(base, v[None]).delta4[0]
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
        scalar = [model.neg_log_density(fit.theta_star + r * v) for r in rs]
        np.testing.assert_allclose(vec, scalar, rtol=1e-13)

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
        np.testing.assert_allclose(
            model.neg_log_density_many(thetas),
            [model.neg_log_density(t) for t in thetas],
            rtol=1e-13,
        )


    def test_many_point_hooks_split_into_row_blocks(self, logistic_small, monkeypatch):
        model, _ = logistic_small
        thetas = np.random.default_rng(43).standard_normal((10, 5))
        whole = model.neg_log_density_many(thetas)
        # blocks of 4 rows: two full blocks and a short one
        monkeypatch.setattr(models_module, "ROW_BLOCK", 4)
        np.testing.assert_allclose(model.neg_log_density_many(thetas), whole, rtol=1e-14)
        assert model.neg_log_density_many(np.zeros((0, 5))).shape == (0,)


class TestLogisticManyPointBranches:
    """``neg_log_density_many`` against the scalar ``neg_log_density`` on every branch."""

    @staticmethod
    def _assert_matches_scalar(model, thetas):
        many = model.neg_log_density_many(thetas)
        assert many.shape == (thetas.shape[0],)
        # np.logaddexp in the scalar form flags a NaN margin as invalid
        with np.errstate(invalid="ignore"):
            scalar = [model.neg_log_density(t) for t in thetas]
        np.testing.assert_allclose(many, scalar, rtol=1e-13, atol=0)

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
        monkeypatch.setattr(models_module, "ROW_BLOCK", 4)
        self._assert_matches_scalar(model, thetas)

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
        self._assert_matches_scalar(model, thetas)

    def test_model_without_observations(self):
        model = LogisticRegressionModel(np.zeros(0), np.zeros((0, 3)), prior_sigma0=2.0)
        assert model.n_obs == 0
        thetas = np.random.default_rng(16).standard_normal((5, 3))
        self._assert_matches_scalar(model, thetas)
        np.testing.assert_allclose(
            model.neg_log_density_many(thetas), np.sum(thetas * thetas, axis=1) / 8.0, rtol=1e-15
        )


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
        values = [[model.neg_log_density(base + r * v) for r in rs] for v in vs]
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
        no_values = model.ray_batch(fit.theta_star, vs)
        assert no_values.values is None
        np.testing.assert_array_equal(no_values.delta3, batch.delta3)

    def test_chunks_cover_every_direction(self, logistic_small, monkeypatch):
        model, fit = logistic_small
        rng = np.random.default_rng(41)
        vs = rng.standard_normal((13, 5))
        rs = np.linspace(0.0, 3.0, 7)
        whole = model.ray_batch(fit.theta_star, vs, rs)
        # room for 2 directions per chunk: 13 rows take 7 chunks, the last one short
        monkeypatch.setattr(models_module, "RAY_BLOCK_ELEMENTS", 2 * rs.size * model.n_obs)
        chunked = model.ray_batch(fit.theta_star, vs, rs)
        np.testing.assert_allclose(chunked.values, whole.values, rtol=1e-14)
        np.testing.assert_allclose(chunked.delta3, whole.delta3, rtol=1e-14)
        np.testing.assert_allclose(chunked.delta4, whole.delta4, rtol=1e-14)

    def test_direction_shape_checked(self, logistic_small):
        model, fit = logistic_small
        with pytest.raises(DimensionMismatchError):
            model.ray_batch(fit.theta_star, np.ones(5))
        with pytest.raises(DimensionMismatchError):
            model.ray_batch(fit.theta_star, np.ones((2, 4)))


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


class TestConstruction:
    def test_infinite_prior_sigma_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionModel(np.array([1.0]), np.array([[1.0]]), float("inf"))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionModel(np.array([0.5]), np.array([[1.0]]), 1.0)

    def test_gaussian_requires_spd_covariance(self):
        with pytest.raises(ValueError):
            GaussianModel(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
