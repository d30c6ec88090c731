"""Independent reference computations and auxiliary 1-D targets for tests.

Everything here deliberately avoids the code paths under test: derivatives
come from finite-difference stencils on raw density values, expectations from
adaptive quadrature, and distributions from direct sampling.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from laplace_audit.laplace import laplace_log_density
from laplace_audit.models import TargetModel


def central_gradient(f, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        grad[j] = (f(theta + step) - f(theta - step)) / (2 * h)
    return grad


def central_directional(f, theta, v, h=1e-5):
    return (f(theta + h * v) - f(theta - h * v)) / (2 * h)


def third_derivative_7pt(g, r, h):
    """f'''(r) from the 7-point antisymmetric stencil on values of g.

    Stencil: (g(r-3h) - 8 g(r-2h) + 13 g(r-h) - 13 g(r+h) + 8 g(r+2h) - g(r+3h)) / (8 h^3).

    Truncation is fourth order: the error is -(7/120) h^4 f^(7)(r) + O(h^6),
    so the stencil is exact up to roundoff on polynomials of degree <= 6. The
    5-point stencil errs by (h^2/4) f^(5)(r) instead, which breaks a 1e-4
    relative check wherever f''' is small next to f^(5).

    Roundoff is ~ 5.5 eps |g| / h^3 (the absolute weights sum to 44/8). For
    the logistic negative log-posteriors in the tests |g| is O(100) and f'''
    is O(1), so at h = 5e-3 roundoff is ~1e-6 relative and the h^4 term is
    smaller still; a smaller h would only trade truncation for roundoff.
    """
    return (
        g(r - 3 * h)
        - 8 * g(r - 2 * h)
        + 13 * g(r - h)
        - 13 * g(r + h)
        + 8 * g(r + 2 * h)
        - g(r + 3 * h)
    ) / (8 * h**3)


def fourth_derivative_5pt(g, r, h):
    """f''''(r) from the 5-point symmetric stencil on values of g."""
    return (g(r - 2 * h) - 4 * g(r - h) + 6 * g(r) - 4 * g(r + h) + g(r + 2 * h)) / h**4


def replay_chain(model: TargetModel, fit, config):
    """Plain-loop replay of ``run_chain``, one chain and one scalar phi at a time.

    Redraws the stream ``run_chain`` documents: per block of
    ``mcmc.BLOCK_STEPS`` steps, (steps * chains) x d standard normals, row
    ``step * N_CHAINS + chain``, then steps x chains uniforms. Each chain then
    starts at the mode, scores every proposal with ``neg_log_density`` and
    applies the Metropolis-Hastings rule; states are kept per chain after its
    burn-in, every ``thin``-th step.

    Returns (samples chain by chain, accepted count per chain).
    """
    from laplace_audit import mcmc

    d, chains = model.dim, mcmc.N_CHAINS
    steps = config.n_steps // chains
    scale = config.proposal_scale if config.proposal_scale is not None else 2.38 / np.sqrt(d)
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(mcmc._CHAIN_STREAM,))
    )
    normals, uniforms = [], []
    for done in range(0, steps, mcmc.BLOCK_STEPS):
        block = min(mcmc.BLOCK_STEPS, steps - done)
        normals.append(rng.standard_normal((block * chains, d)).reshape(block, chains, d))
        uniforms.append(rng.random((block, chains)))
    eta, u = np.concatenate(normals), np.concatenate(uniforms)
    burn = int(round(config.burn_in_fraction * steps))
    samples, accepted = [], []
    for c in range(chains):
        theta = fit.theta_star.copy()
        phi = model.neg_log_density(theta)
        count = 0
        for step in range(steps):
            candidate = theta + scale * (eta[step, c] @ fit.sqrt_covariance)
            phi_prop = model.neg_log_density(candidate)
            if np.log(u[step, c]) < phi - phi_prop:
                theta, phi = candidate, phi_prop
                count += 1
            if step >= burn and (step - burn + 1) % config.thin == 0:
                samples.append(theta)
        accepted.append(count)
    return np.array(samples), np.array(accepted)


def quadrature_kl_1d(model: TargetModel, fit, lo=-40.0, hi=40.0):
    """Exact KL(g, f) for a 1-D target by adaptive quadrature."""

    def phi(t):
        return model.neg_log_density(np.array([t]))

    def log_g(t):
        return laplace_log_density(fit, np.array([t]))

    z_norm = quad(lambda t: np.exp(-phi(t)), lo, hi, limit=400)[0]
    val = quad(
        lambda t: np.exp(log_g(t)) * (log_g(t) + phi(t) + np.log(z_norm)),
        lo,
        hi,
        limit=400,
    )[0]
    return float(val)


class SoftplusTilt1D(TargetModel):
    """phi(t) = t^2/2 + alpha * softplus(t); log-concave for alpha >= 0."""

    dim = 1

    def __init__(self, alpha: float):
        self.alpha = float(alpha)

    def neg_log_density(self, theta) -> float:
        t = float(self._check_theta(theta)[0])
        return 0.5 * t * t + self.alpha * float(np.logaddexp(0.0, t))

    def gradient(self, theta) -> np.ndarray:
        t = float(self._check_theta(theta)[0])
        return np.array([t + self.alpha * expit(t)])

    def hessian(self, theta) -> np.ndarray:
        t = float(self._check_theta(theta)[0])
        p = expit(t)
        return np.array([[1.0 + self.alpha * p * (1.0 - p)]])

    def ray_derivatives(self, base, direction, r: float = 0.0, max_order: int = 4) -> np.ndarray:
        self._check_order(max_order)
        b = float(self._check_theta(base)[0])
        v = float(self._check_theta(direction)[0])
        t = b + r * v
        p = expit(t)
        w = p * (1.0 - p)
        out = np.zeros(max_order)
        out[0] = (t + self.alpha * p) * v
        if max_order >= 2:
            out[1] = (1.0 + self.alpha * w) * v * v
        if max_order >= 3:
            out[2] = self.alpha * w * (1.0 - 2.0 * p) * v**3
        if max_order >= 4:
            out[3] = self.alpha * w * (1.0 - 6.0 * p + 6.0 * p * p) * v**4
        return out

    def ray_fourth_derivative_bound(self, base, direction) -> float:
        v = float(np.asarray(direction)[0])
        return self.alpha * 0.125 * v**4


class CubicRay1D(TargetModel):
    """phi(t) = t^2/2 + alpha * t^3/6: an exactly cubic ray through 0.

    Only convex for t > -1/alpha; tests use it on the nonnegative ray where
    the cubic Taylor data (third derivative alpha, vanishing fourth) is exact.
    """

    dim = 1

    def __init__(self, alpha: float):
        self.alpha = float(alpha)

    def neg_log_density(self, theta) -> float:
        t = float(self._check_theta(theta)[0])
        return 0.5 * t * t + self.alpha * t**3 / 6.0

    def gradient(self, theta) -> np.ndarray:
        t = float(self._check_theta(theta)[0])
        return np.array([t + 0.5 * self.alpha * t * t])

    def hessian(self, theta) -> np.ndarray:
        t = float(self._check_theta(theta)[0])
        return np.array([[1.0 + self.alpha * t]])

    def ray_derivatives(self, base, direction, r: float = 0.0, max_order: int = 4) -> np.ndarray:
        self._check_order(max_order)
        b = float(self._check_theta(base)[0])
        v = float(self._check_theta(direction)[0])
        t = b + r * v
        out = np.zeros(max_order)
        out[0] = (t + 0.5 * self.alpha * t * t) * v
        if max_order >= 2:
            out[1] = (1.0 + self.alpha * t) * v * v
        if max_order >= 3:
            out[2] = self.alpha * v**3
        return out

    def ray_fourth_derivative_bound(self, base, direction) -> float:
        return 0.0


class GaussianMixture1D(TargetModel):
    """Two-scale 1-D Gaussian mixture: the canonical non-log-concave trap.

    f~(t) = exp(-t^2/2) + eps * exp(-eps^2 t^2 / 2). Near the origin it looks
    like a unit Gaussian, yet half the mass hides in the eps-wide component,
    and the log-density has a negative-curvature transition zone.
    """

    dim = 1

    def __init__(self, eps: float = 0.01):
        self.eps = float(eps)

    def _parts(self, t: float):
        a = np.exp(-0.5 * t * t)
        b = self.eps * np.exp(-0.5 * self.eps**2 * t * t)
        return a, b

    def neg_log_density(self, theta) -> float:
        t = float(self._check_theta(theta)[0])
        a, b = self._parts(t)
        return -float(np.log(a + b))

    def gradient(self, theta) -> np.ndarray:
        t = float(self._check_theta(theta)[0])
        a, b = self._parts(t)
        fprime = -t * a - self.eps**2 * t * b
        return np.array([-fprime / (a + b)])

    def hessian(self, theta) -> np.ndarray:
        t = float(self._check_theta(theta)[0])
        a, b = self._parts(t)
        f = a + b
        fp = -t * a - self.eps**2 * t * b
        fpp = (t * t - 1.0) * a + self.eps**2 * (self.eps**2 * t * t - 1.0) * b
        return np.array([[-fpp / f + (fp / f) ** 2]])

    def ray_derivatives(self, base, direction, r: float = 0.0, max_order: int = 4) -> np.ndarray:
        self._check_order(max_order)
        b0 = float(self._check_theta(base)[0])
        v = float(self._check_theta(direction)[0])
        t = b0 + r * v
        out = np.zeros(max_order)
        out[0] = float(self.gradient(np.array([t]))[0]) * v
        if max_order >= 2:
            out[1] = float(self.hessian(np.array([t]))[0, 0]) * v * v
        if max_order >= 3:
            h = 1e-4

            def second(u):
                return float(self.hessian(np.array([u]))[0, 0])

            out[2] = (second(t + h) - second(t - h)) / (2 * h) * v**3
        if max_order >= 4:
            h = 1e-3

            def second(u):
                return float(self.hessian(np.array([u]))[0, 0])

            out[3] = (second(t + h) - 2 * second(t) + second(t - h)) / h**2 * v**4
        return out
