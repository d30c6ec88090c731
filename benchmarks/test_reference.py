"""Known-answer tests of the benchmark's independent references.

Run with ``python3 -m pytest benchmarks/test_reference.py``.
"""

import math

import numpy as np
import pytest

import reference


def gaussian_case(d=4, seed=0):
    mean, cov = reference.gaussian_target(d, np.random.default_rng(seed))
    phi = reference.GaussianPhi(mean, cov)
    return phi, mean, phi.precision


def one_dimensional_case():
    """A logistic posterior in one dimension with its mode found by Newton's method."""
    rng = np.random.default_rng(3)
    labels, covariates = reference.logistic_data(1, 12, rng)
    phi = reference.LogisticPhi(labels, covariates, sigma0=2.0)
    theta = np.zeros(1)
    for _ in range(50):
        theta = theta - np.linalg.solve(phi.hessian(theta), phi.gradient(theta))
    assert abs(phi.gradient(theta)[0]) < 1e-12
    return phi, theta, phi.hessian(theta)


def test_importance_kl_is_zero_on_a_gaussian_target():
    phi, mode, hessian = gaussian_case()
    kl, se = reference.importance_kl(phi, mode, hessian, 5000, np.random.default_rng(1))
    assert abs(kl) < 1e-10
    assert se < 1e-10


def test_importance_kl_matches_quadrature_in_one_dimension():
    phi, mode, hessian = one_dimensional_case()
    h = float(hessian[0, 0])
    scale = 1.0 / math.sqrt(h)
    grid = mode[0] + scale * np.linspace(-60.0, 60.0, 400_001)
    phis = phi(grid[:, None])
    log_g = -0.5 * math.log(2.0 * math.pi) + 0.5 * math.log(h) - 0.5 * h * (grid - mode[0]) ** 2
    log_z = math.log(np.trapezoid(np.exp(-(phis - phis.min())), grid)) - phis.min()
    exact = float(np.trapezoid(np.exp(log_g) * (log_g + phis), grid)) + log_z
    assert exact > 1e-3  # the target is not Gaussian, so the check has something to find
    kl, se = reference.importance_kl(phi, mode, hessian, 200_000, np.random.default_rng(2))
    assert se < 0.05 * exact
    assert abs(kl - exact) <= 4.0 * se


def test_mean_delta3_sq_is_zero_on_a_gaussian_target():
    phi, mode, hessian = gaussian_case()
    mean, se = reference.mean_delta3_sq(phi, mode, hessian, 64, np.random.default_rng(4))
    assert mean < 1e-12
    assert se < 1e-12


def test_mean_delta3_sq_matches_the_analytic_third_derivative_in_one_dimension():
    phi, mode, hessian = one_dimensional_case()
    s = phi.signed[:, 0]
    p = 1.0 / (1.0 + np.exp(-s * mode[0]))
    third = float(np.sum(s**3 * p * (1.0 - p) * (1.0 - 2.0 * p)))
    # in one dimension e = +-1 and the ray is +-hessian^(-1/2): delta3^2 = phi'''^2 / H^3
    exact = third**2 / float(hessian[0, 0]) ** 3
    mean, se = reference.mean_delta3_sq(phi, mode, hessian, 16, np.random.default_rng(5))
    assert mean == pytest.approx(exact, rel=1e-6)
    assert se <= 1e-6 * exact


@pytest.mark.parametrize("d", [1, 2, 7])
def test_approximate_coefficient_matches_the_gamma_function(d):
    g = math.gamma
    expected = (
        2.0 / (math.sqrt(3.0) * math.sqrt(2.0 * d - 1.0)) * g((d + 5) / 2) / g(d / 2)
        + (g((d + 3) / 2) / g(d / 2)) ** 2 / 9.0
    )
    assert reference.approximate_coefficient(d) == pytest.approx(expected, rel=1e-13)
