"""Mode finding and construction of the Gaussian (Laplace) fit.

``find_map`` locates the minimizer theta* of the negative log-density with a
line-search Newton method (gradient-descent fallback when the Newton step is
not a descent direction). ``build_fit`` factorizes the Hessian at the mode
into the covariance and its symmetric square root, which the direction/radius
change of variable is written in terms of.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (
    AssumptionViolationError,
    DimensionMismatchError,
    MapNotConvergedError,
    NonFiniteObjectiveError,
)
from .models import TargetModel

LOG_2PI = float(np.log(2.0 * np.pi))

DEFAULT_GRAD_TOL = 1e-10
DEFAULT_MAX_ITER = 500
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60
# relative eigenvalue floor below which the Hessian at the mode is treated as
# numerically singular (exact positive definiteness is undecidable in floats)
SPD_RELATIVE_FLOOR = 1e-12


@dataclass(frozen=True)
class LaplaceFit:
    """Gaussian approximation anchored at the mode.

    Attributes
    ----------
    theta_star : mode of the target density.
    hessian_at_mode : H, the Hessian of phi at the mode.
    covariance : Sigma = H^-1.
    sqrt_covariance : symmetric PSD square root S with S @ S = Sigma.
    sqrt_precision : symmetric H^(1/2), inverse of S.
    log_det_covariance : log det Sigma.
    neg_log_density_at_mode : phi(theta*).
    grad_norm : sup-norm of the gradient at theta*.
    iterations : optimizer iterations used to reach theta* (0 if supplied).
    """

    theta_star: np.ndarray
    hessian_at_mode: np.ndarray
    covariance: np.ndarray
    sqrt_covariance: np.ndarray
    sqrt_precision: np.ndarray
    log_det_covariance: float
    neg_log_density_at_mode: float
    grad_norm: float
    iterations: int

    @property
    def dim(self) -> int:
        return self.theta_star.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "theta_star": self.theta_star.tolist(),
            "hessian": self.hessian_at_mode.tolist(),
            "log_det_sigma": self.log_det_covariance,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle)
            handle.write("\n")


def _newton_step(hess: np.ndarray, grad: np.ndarray):
    # Cholesky solve plus one round of iterative refinement: the refinement
    # keeps the reachable gradient floor near eps*||H|| even for
    # ill-conditioned Hessians, where a plain solve stalls around eps*cond(H)
    try:
        factor = cho_factor(hess, check_finite=False)
    except (LinAlgError, ValueError):
        return None
    step = cho_solve(factor, -grad, check_finite=False)
    residual = hess @ step + grad
    step -= cho_solve(factor, residual, check_finite=False)
    return step


def _minimize(model: TargetModel, init, tol: float, max_iter: int):
    theta = np.array(init, dtype=float)
    phi = model.neg_log_density(theta)
    if not np.isfinite(phi):
        raise NonFiniteObjectiveError(
            "negative log-density is non-finite at the starting point", theta=theta
        )
    grad = model.gradient(theta)
    grad_norm = float(np.max(np.abs(grad))) if theta.size else 0.0
    for iteration in range(1, max_iter + 1):
        if grad_norm <= tol:
            return theta, grad_norm, iteration - 1
        step = _newton_step(model.hessian(theta), grad)
        if step is None or not np.all(np.isfinite(step)) or float(step @ grad) >= 0.0:
            step = -grad
        directional = float(step @ grad)
        # epsilon-Armijo: near the optimum the true decrease drops below one
        # ulp of phi and the exact condition would reject every step
        slack = 16.0 * np.finfo(float).eps * max(1.0, abs(phi))
        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            candidate = theta + alpha * step
            phi_new = model.neg_log_density(candidate)
            if np.isfinite(phi_new) and phi_new <= phi + ARMIJO_C1 * alpha * directional + slack:
                theta, phi = candidate, phi_new
                accepted = True
                break
            alpha *= BACKTRACK_FACTOR
        if not accepted:
            raise MapNotConvergedError(
                "line search failed to make progress",
                last_iterate=theta,
                grad_norm=grad_norm,
                iterations=iteration,
            )
        grad = model.gradient(theta)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteObjectiveError("gradient became non-finite", theta=theta)
        grad_norm = float(np.max(np.abs(grad)))
    raise MapNotConvergedError(
        f"no stationary point within {max_iter} iterations "
        f"(grad sup-norm {grad_norm:.3e} > tol {tol:.3e})",
        last_iterate=theta,
        grad_norm=grad_norm,
        iterations=max_iter,
    )


def find_map(
    model: TargetModel,
    init=None,
    tol: float = DEFAULT_GRAD_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> np.ndarray:
    """Return theta* with gradient sup-norm at most ``tol``.

    Starts from the zero vector unless ``init`` is given. Raises
    MapNotConvergedError (carrying the last iterate and gradient norm) when
    the iteration cap is hit, and NonFiniteObjectiveError if the objective
    stops being finite.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if init is None:
        init = np.zeros(model.dim)
    else:
        init = np.asarray(init, dtype=float)
        if init.shape != (model.dim,):
            raise DimensionMismatchError("init has the wrong length")
    theta, _, _ = _minimize(model, init, tol, max_iter)
    return theta


def build_fit(model: TargetModel, theta_star, iterations: int = 0) -> LaplaceFit:
    """Factorize the Hessian at a stationary point into a LaplaceFit.

    The covariance square root is the symmetric PSD root from the Hessian
    eigendecomposition. Raises AssumptionViolationError when the smallest
    eigenvalue is not positive relative to the largest (target not locally
    log-concave at the mode, or numerically singular there).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_star.shape != (model.dim,):
        raise DimensionMismatchError("theta_star has the wrong length")
    h = model.hessian(theta_star)
    h = 0.5 * (h + h.T)
    w, v = np.linalg.eigh(h)
    w_max = float(w.max()) if w.size else 0.0
    if w_max <= 0.0 or float(w.min()) <= SPD_RELATIVE_FLOOR * w_max:
        raise AssumptionViolationError(
            "Hessian at the mode is not positive definite",
            details={
                "min_eigenvalue": float(w.min()) if w.size else None,
                "max_eigenvalue": w_max,
                "relative_floor": SPD_RELATIVE_FLOOR,
            },
        )
    cov = (v / w) @ v.T
    sqrt_cov = (v / np.sqrt(w)) @ v.T
    sqrt_prec = (v * np.sqrt(w)) @ v.T
    grad = model.gradient(theta_star)
    return LaplaceFit(
        theta_star=theta_star,
        hessian_at_mode=h,
        covariance=0.5 * (cov + cov.T),
        sqrt_covariance=0.5 * (sqrt_cov + sqrt_cov.T),
        sqrt_precision=0.5 * (sqrt_prec + sqrt_prec.T),
        log_det_covariance=float(-np.sum(np.log(w))),
        neg_log_density_at_mode=float(model.neg_log_density(theta_star)),
        grad_norm=float(np.max(np.abs(grad))) if grad.size else 0.0,
        iterations=iterations,
    )


def fit_laplace(
    model: TargetModel,
    init=None,
    tol: float = DEFAULT_GRAD_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LaplaceFit:
    """Convenience pipeline: ``find_map`` followed by ``build_fit``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if init is None:
        init = np.zeros(model.dim)
    theta, _, iterations = _minimize(model, init, tol, max_iter)
    return build_fit(model, theta, iterations=iterations)


def laplace_log_density(fit: LaplaceFit, theta):
    """Normalized Gaussian log-density of the fit at one point or a batch."""
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    if single and theta.shape != (fit.dim,):
        raise DimensionMismatchError("theta has the wrong length")
    if not single and theta.shape[1:] != (fit.dim,):
        raise DimensionMismatchError("theta batch has the wrong row length")
    deltas = np.atleast_2d(theta) - fit.theta_star
    quad = np.einsum("ij,ij->i", deltas @ fit.hessian_at_mode, deltas)
    vals = -0.5 * (fit.dim * LOG_2PI + fit.log_det_covariance) - 0.5 * quad
    return float(vals[0]) if single else vals


@dataclass(frozen=True)
class SpotcheckResult:
    """Outcome of a sampled positive-curvature check around the mode."""

    n_points: int
    radius_multiplier: float
    n_failures: int
    min_eigenvalue: float
    failure_points: tuple

    @property
    def passed(self) -> bool:
        return self.n_failures == 0


def logconcavity_spotcheck(
    model: TargetModel,
    fit: LaplaceFit,
    n_points: int = 32,
    radius_multiplier: float = 3.0,
    seed: int = 0,
) -> SpotcheckResult:
    """Sample fit-shaped points and test the Hessian for positive curvature.

    The points are mode-centered Gaussian draws scaled by
    ``radius_multiplier``; a clean pass is supporting evidence for global
    log-concavity, not a proof. Failures are returned as data, never raised.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    eta = rng.standard_normal((n_points, fit.dim))
    points = fit.theta_star + radius_multiplier * (eta @ fit.sqrt_covariance)
    hessians = np.array([model.hessian(point) for point in points]).reshape(
        n_points, fit.dim, fit.dim
    )
    low = np.linalg.eigvalsh(hessians).min(axis=1, initial=np.inf)
    failures = tuple(point.copy() for point in points[low <= 0.0])
    return SpotcheckResult(
        n_points=n_points,
        radius_multiplier=radius_multiplier,
        n_failures=len(failures),
        min_eigenvalue=float(low.min(initial=np.inf)),
        failure_points=failures,
    )
