"""Mode finding and construction of the Gaussian (Laplace) fit.

``fit_laplace`` locates the minimizer theta* of the negative log-density with
a line-search Newton method (gradient-descent fallback when the Newton step is
not a descent direction), then factorizes the Hessian at the mode into the
covariance's symmetric square root, which the direction/radius change of
variable is written in terms of.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    DimensionMismatchError,
    MapNotConvergedError,
    NonFiniteObjectiveError,
    _check_integer,
)
from .models import TargetModel
from .radial import _stream_rng

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
    sqrt_covariance : symmetric PSD square root S with S @ S = Sigma = H^-1.
    log_det_covariance : log det Sigma.
    neg_log_density_at_mode : phi(theta*).
    grad_norm : sup-norm of the gradient at theta*.
    iterations : optimizer iterations used to reach theta* (0 if the start was the mode).
    """

    theta_star: np.ndarray
    hessian_at_mode: np.ndarray
    sqrt_covariance: np.ndarray
    log_det_covariance: float
    neg_log_density_at_mode: float
    grad_norm: float
    iterations: int

    @property
    def dim(self) -> int:
        return self.theta_star.shape[0]


def _newton_step(hess: np.ndarray, grad: np.ndarray):
    # a Cholesky factorization only to prove H positive definite, then an LU
    # solve plus one round of iterative refinement: the refinement keeps the
    # reachable gradient floor near eps*||H|| even for ill-conditioned
    # Hessians, where a plain solve stalls around eps*cond(H). numpy has no
    # solve from a Cholesky factor, and two LU solves beat four triangular
    # ones, each a full LU solve in numpy. None when H is not positive
    # definite or LU finds it exactly singular
    try:
        np.linalg.cholesky(hess)
        step = np.linalg.solve(hess, -grad)
        residual = hess @ step + grad
        step -= np.linalg.solve(hess, residual)
    except np.linalg.LinAlgError:
        return None
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
            return theta, phi, grad_norm, iteration - 1
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


def fit_laplace(
    model: TargetModel,
    init=None,
    tol: float = DEFAULT_GRAD_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LaplaceFit:
    """Find the mode theta* and build the Laplace fit there.

    The mode search stops at gradient sup-norm at most ``tol``, starting from
    the zero vector unless ``init`` is given (0 iterations when the start
    already meets ``tol``); the covariance square root is the symmetric PSD
    root from the eigendecomposition of the Hessian at the mode. Raises
    MapNotConvergedError (carrying the last iterate and gradient norm) when
    the iteration cap is hit, NonFiniteObjectiveError if the objective stops
    being finite, and AssumptionViolationError when the Hessian's smallest
    eigenvalue is not positive relative to its largest (target not locally
    log-concave at the mode, or numerically singular there). A ``tol`` that
    is not finite and positive, or a ``max_iter`` that is not an integer
    >= 1, raises ValueError before phi is evaluated.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    _check_integer(max_iter, 1, "max_iter must be an integer >= 1")
    if init is None:
        init = np.zeros(model.dim)
    else:
        init = np.asarray(init, dtype=float)
        if init.shape != (model.dim,):
            raise DimensionMismatchError("init has the wrong length")
    # the search ends holding phi and the gradient at the mode
    theta_star, phi, grad_norm, iterations = _minimize(model, init, tol, max_iter)
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
    sqrt_cov = (v / np.sqrt(w)) @ v.T
    return LaplaceFit(
        theta_star=theta_star,
        hessian_at_mode=h,
        sqrt_covariance=0.5 * (sqrt_cov + sqrt_cov.T),
        log_det_covariance=float(-np.sum(np.log(w))),
        neg_log_density_at_mode=float(phi),
        grad_norm=grad_norm,
        iterations=iterations,
    )


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
    ``audit`` runs this check only for a model without a proven
    ``hessian_eigenvalue_floor``; for one with it, log-concavity is proven
    and nothing is sampled.
    """
    rng = _stream_rng(seed, "spotcheck")
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
