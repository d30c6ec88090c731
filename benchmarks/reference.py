"""Independent references for the benchmark's correctness checks.

Nothing in this module imports ``laplace_audit``. It draws the benchmark's
targets from the laws the package documents, evaluates their negative
log-densities with its own code, and recomputes the two quantities the
certificate and the ground truth are checked against:

* KL(g, f) of a Gaussian fit g by importance sampling from g;
* E_e[delta3^2], the mean squared third derivative along fit-whitened rays,
  from a seven-point stencil, times the certificate's dimension coefficient.

Both take only the mode and the Hessian at the mode from the fit under test.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# seven-point stencil for the third derivative, fourth-order accurate:
# (f(-3h) - 8 f(-2h) + 13 f(-h) - 13 f(h) + 8 f(2h) - f(3h)) / (8 h^3)
_STENCIL_OFFSETS = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
_STENCIL_WEIGHTS = np.array([1.0, -8.0, 13.0, -13.0, 8.0, -1.0]) / 8.0
STENCIL_STEP = 1e-2


def logistic_data(d: int, n: int, rng: np.random.Generator):
    """Labels in {-1, +1} and covariates of a synthetic logistic problem.

    The law documented by ``SyntheticDatasetConfig``: standard normal
    covariates, a true parameter with per-coordinate variance d^(-1/2), and
    labels drawn from the logistic law at that parameter.
    """
    theta_true = rng.standard_normal(d) * d ** (-0.25)
    covariates = rng.standard_normal((n, d))
    p_plus = 1.0 / (1.0 + np.exp(-(covariates @ theta_true)))
    labels = np.where(rng.random(n) < p_plus, 1.0, -1.0)
    return labels, covariates


def gaussian_target(d: int, rng: np.random.Generator):
    """Mean and covariance of a rotated Gaussian, eigenvalues log-uniform in [0.5, 2]."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    eigenvalues = np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))
    covariance = (q * eigenvalues) @ q.T
    return rng.standard_normal(d), 0.5 * (covariance + covariance.T)


class LogisticPhi:
    """phi(theta) = |theta|^2 / (2 sigma0^2) + sum_i log(1 + exp(-y_i x_i . theta))."""

    def __init__(self, labels, covariates, sigma0: float):
        self.signed = np.asarray(labels, dtype=float)[:, None] * np.asarray(covariates, dtype=float)
        self.inv_prior_var = 1.0 / (sigma0 * sigma0)

    def __call__(self, thetas) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        margins = thetas @ self.signed.T
        prior = 0.5 * self.inv_prior_var * np.einsum("ij,ij->i", thetas, thetas)
        return prior + np.logaddexp(0.0, -margins).sum(axis=1)

    def gradient(self, theta) -> np.ndarray:
        margins = self.signed @ theta
        return self.inv_prior_var * theta - self.signed.T @ (1.0 / (1.0 + np.exp(margins)))

    def hessian(self, theta) -> np.ndarray:
        p = 1.0 / (1.0 + np.exp(-(self.signed @ theta)))
        h = (self.signed * (p * (1.0 - p))[:, None]).T @ self.signed
        return h + self.inv_prior_var * np.eye(theta.shape[0])


class GaussianPhi:
    """phi(theta) = (theta - mean)' P (theta - mean) / 2 with P the inverse covariance."""

    def __init__(self, mean, covariance):
        self.mean = np.asarray(mean, dtype=float)
        self.precision = np.linalg.inv(np.asarray(covariance, dtype=float))

    def __call__(self, thetas) -> np.ndarray:
        deltas = np.atleast_2d(thetas) - self.mean
        return 0.5 * np.einsum("ij,jk,ik->i", deltas, self.precision, deltas)

    def gradient(self, theta) -> np.ndarray:
        return self.precision @ (theta - self.mean)

    def hessian(self, theta) -> np.ndarray:
        return self.precision.copy()


def _whitening(hessian):
    """W with W W' = hessian^-1, from the Cholesky factor of the Hessian."""
    chol = np.linalg.cholesky(hessian)
    return np.linalg.inv(chol).T, float(np.sum(np.log(np.diag(chol))))


def logsumexp(values) -> float:
    top = float(np.max(values))
    return top + math.log(float(np.sum(np.exp(values - top))))


def importance_kl(phi, theta_star, hessian, n_draws: int, rng: np.random.Generator,
                  chunk: int = 2000):
    """KL(g, f) for g = N(theta_star, hessian^-1) and f proportional to exp(-phi).

    With a = log g + phi over draws from g, KL = E_g[a] + log Z and
    log Z = log E_g[exp(-a)], the latter a log-sum-exp of log f~ - log g.
    The standard error is the delta-method error of the two sample means.
    Draws are made in chunks so the reference adds little to peak memory.

    Returns
    -------
    (kl, standard_error)
    """
    d = theta_star.shape[0]
    whiten, half_log_det_h = _whitening(hessian)
    log_g_center = -0.5 * d * LOG_2PI + half_log_det_h
    a = np.empty(n_draws)
    for start in range(0, n_draws, chunk):
        stop = min(start + chunk, n_draws)
        eta = rng.standard_normal((stop - start, d))
        thetas = theta_star + eta @ whiten.T
        log_g = log_g_center - 0.5 * np.einsum("ij,ij->i", eta, eta)
        a[start:stop] = log_g + phi(thetas)
    log_z = logsumexp(-a) - math.log(n_draws)
    kl = float(a.mean() + log_z)
    # delta method on (mean a, mean w) with w = exp(-a) / Z, so mean w ~ 1
    w = np.exp(-a - log_z)
    cov = np.cov(np.vstack([a, w]))
    var = cov[0, 0] + cov[1, 1] / w.mean() ** 2 + 2.0 * cov[0, 1] / w.mean()
    return kl, float(math.sqrt(max(var, 0.0) / n_draws))


def approximate_coefficient(d: int) -> float:
    """2/(sqrt(3) sqrt(2d-1)) Gamma((d+5)/2)/Gamma(d/2) + (Gamma((d+3)/2)/Gamma(d/2))^2 / 9."""
    g5 = math.exp(math.lgamma(0.5 * (d + 5)) - math.lgamma(0.5 * d))
    g3 = math.exp(math.lgamma(0.5 * (d + 3)) - math.lgamma(0.5 * d))
    return 2.0 / (math.sqrt(3.0) * math.sqrt(2.0 * d - 1.0)) * g5 + g3 * g3 / 9.0


def mean_delta3_sq(phi, theta_star, hessian, n_directions: int, rng: np.random.Generator,
                   step: float = STENCIL_STEP):
    """E_e[delta3^2] over uniform unit e, with delta3 the third derivative of phi along W e.

    Any W with W W' = hessian^-1 gives the same expectation, because the
    uniform law of e is rotation invariant. The third derivative comes from
    the seven-point stencil on phi, so it shares no code with the analytic
    ray derivatives it is compared against.

    Returns
    -------
    (mean, standard_error)
    """
    d = theta_star.shape[0]
    whiten, _ = _whitening(hessian)
    e = rng.standard_normal((n_directions, d))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    rays = e @ whiten.T
    points = theta_star + (step * _STENCIL_OFFSETS)[:, None, None] * rays[None, :, :]
    values = phi(points.reshape(-1, d)).reshape(_STENCIL_OFFSETS.shape[0], n_directions)
    values -= phi(theta_star)[0]
    d3 = (_STENCIL_WEIGHTS @ values) / step**3
    sq = d3 * d3
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n_directions))
