"""Target-density models.

A target is described by the negative log-density ``phi(theta) = -log f~(theta)``
of an *unnormalized* density ``f~``, together with analytic derivatives. The
additive constant of ``phi`` is fixed per model instance (no normalization), so
normalizing-constant estimation downstream is meaningful.

Built-in models: multivariate Gaussian (quadratic ``phi``) and Bayesian
logistic regression with an isotropic Gaussian prior. Both provide closed-form
gradients, Hessians and directional derivatives up to fourth order, which the
certificate machinery needs along rays through the mode, a batched ray
method that evaluates a whole block of directions with array work, and a
proven floor under the Hessian's eigenvalues, so that log-concavity is
proven rather than sampled.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, UnsupportedOrderError

# max_t |d^4/dt^4 log(1 + exp(-t))| — attained at t = 0; validated against a
# grid-maximization oracle in the test suite.
SIGMOID_THIRD_DERIVATIVE_MAX = 0.125

# rows per block in the many-point hooks, so that a batch of points never
# builds a margin array of more than this many rows
ROW_BLOCK = 1024
# elements of the (directions x nodes x n_obs) margin buffer of ``ray_batch``
RAY_BLOCK_ELEMENTS = 1 << 18


@np.errstate(over="ignore")
def _expit(t):
    """The logistic function 1 / (1 + exp(-t)) elementwise.

    Below t = -709.78 exp(-t) overflows to inf, and the value is the limit 0
    in place of a subnormal number, with no overflow warning. NaN propagates.
    """
    return 1.0 / (1.0 + np.exp(-t))


def _log1p_exp(u, out=None):
    """log(1 + exp(u)) elementwise, the softplus, written into ``out``.

    exp(u) overflows above u = 709, so an array reaching above 700 takes the
    form log1p(exp(-|u|)) + max(u, 0); any other takes log1p(exp(u)), three
    passes fewer. Both run on numpy's vectorized exp and log1p, several times
    faster than ``np.logaddexp``, and agree with it to a few ulp. NaN and
    infinities propagate. With u = -t it is -log expit(t), the logistic loss
    at margin t.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty_like(u)
    if u.max(initial=-np.inf) < 700.0:
        np.exp(u, out=out)
        return np.log1p(out, out=out)
    high = np.maximum(u, 0.0)
    np.abs(u, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(out, high, out=out)


@dataclass(frozen=True)
class RayBatch:
    """Ray quantities through one base point for a block of k directions.

    ``values[i, j]`` is phi(base + rs[j] * v_i), or ``values`` is None when
    no nodes were asked for. ``delta3[i]`` is the third ray derivative at the
    base. ``delta4[i]`` bounds the absolute fourth ray derivative along the
    whole ray; ``delta4`` is None when the model has no analytic bound.
    """

    values: np.ndarray | None
    delta3: np.ndarray
    delta4: np.ndarray | None


def _check_directions(directions, dim: int) -> np.ndarray:
    vs = np.asarray(directions, dtype=float)
    if vs.ndim != 2 or vs.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected a (k, {dim}) block of directions, got shape {vs.shape}"
        )
    return vs


class TargetModel(abc.ABC):
    """Interface for an unnormalized log-concave target density.

    Subclasses must set ``dim`` and implement ``neg_log_density``,
    ``gradient``, ``hessian`` and ``ray_derivatives``; the last takes one
    offset or an array of them. The vectorized hooks (``ray_batch``,
    ``neg_log_density_many``) have generic defaults that loop over the
    scalar methods, and exist so models with structure can avoid per-point
    Python overhead. ``ray_batch`` is all the certificate's
    direction pass asks of a model: for a block of directions it returns the
    values on the quadrature nodes, delta3 at the base and the analytic
    delta4 bound; ``ray_values`` is its one-direction form. Two optional
    hooks give proven facts, or None for a model without the proof:
    ``ray_fourth_derivative_bound`` bounds delta4 along a whole ray, and
    ``hessian_eigenvalue_floor`` bounds the Hessian's eigenvalues from below
    everywhere, which lets ``audit`` prove log-concavity instead of sampling
    it. The certificate calls ``ray_batch`` on the model itself, so its
    targets must subclass this class rather than only mimic its scalar
    methods. Evaluation is pure and stateless after construction.
    """

    dim: int

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected a vector of length {self.dim}, got shape {theta.shape}"
            )
        return theta

    @abc.abstractmethod
    def neg_log_density(self, theta) -> float:
        """Return phi(theta) = -log f~(theta)."""

    @abc.abstractmethod
    def gradient(self, theta) -> np.ndarray:
        """Return the gradient of phi at theta."""

    @abc.abstractmethod
    def hessian(self, theta) -> np.ndarray:
        """Return the (symmetric) Hessian of phi at theta."""

    @abc.abstractmethod
    def ray_derivatives(self, base, direction, r=0.0, max_order: int = 4) -> np.ndarray:
        """Derivatives of ``t -> phi(base + t * direction)`` at ``t = r``.

        Parameters
        ----------
        base, direction : arrays of length ``dim``
            Ray origin and (already scaled) ray direction.
        r : float or array of floats
            Offset(s) along the ray at which to differentiate.
        max_order : int
            Highest derivative order, between 1 and 4.

        Returns
        -------
        numpy.ndarray
            Shape ``np.shape(r) + (max_order,)``: the derivative values for
            orders ``1..max_order`` at each offset.
        """

    @staticmethod
    def _check_order(max_order: int) -> None:
        if not 1 <= max_order <= 4:
            raise UnsupportedOrderError(f"max_order must be in 1..4, got {max_order}")

    # -- vectorized hooks with generic fallbacks ---------------------------

    def ray_batch(self, base, directions, rs=None) -> RayBatch:
        """Ray quantities along each row of ``directions`` (k x dim) through ``base``.

        ``rs`` are the offsets at which to evaluate phi; None skips the
        values. This generic version loops over ``ray_derivatives``,
        ``ray_fourth_derivative_bound`` and ``neg_log_density`` and uses
        nothing else of the model.
        """
        base = np.asarray(base, dtype=float)
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        delta3 = np.array(
            [self.ray_derivatives(base, v, 0.0, max_order=3)[2] for v in directions], dtype=float
        )
        bounds = [self.ray_fourth_derivative_bound(base, v) for v in directions]
        delta4 = None if any(b is None for b in bounds) else np.array(bounds, dtype=float)
        values = None
        if rs is not None:
            rs = np.asarray(rs, dtype=float)
            values = np.array(
                [[self.neg_log_density(base + r * v) for r in rs] for v in directions], dtype=float
            ).reshape(directions.shape[0], rs.shape[0])
        return RayBatch(values, delta3, delta4)

    def ray_values(self, base, direction, rs) -> np.ndarray:
        """phi(base + r * direction) for every r in ``rs``."""
        direction = self._check_theta(direction)
        return self.ray_batch(self._check_theta(base), direction[None, :], rs).values[0]

    def ray_fourth_derivative_bound(self, base, direction):
        """Optional analytic bound on |phi''''| along the whole ray, or None."""
        return None

    def hessian_eigenvalue_floor(self):
        """Optional proven lower bound on the Hessian's eigenvalues at every theta, or None.

        A nonnegative floor proves phi convex, that is the target log-concave
        everywhere, so ``audit`` reports log-concavity as proven instead of
        sampling Hessians around the mode. A model without such a proof
        returns None and keeps the sampled check.
        """
        return None

    def neg_log_density_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        return np.array([self.neg_log_density(t) for t in thetas])


class GaussianModel(TargetModel):
    """Multivariate Gaussian target, kept unnormalized.

    ``phi(theta) = 0.5 * (theta - mean)' P (theta - mean)`` with ``P`` the
    precision matrix, so the model is its own Laplace approximation and every
    ray derivative beyond second order is exactly zero.
    """

    def __init__(self, mean, covariance):
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        if mean.ndim != 1:
            raise DimensionMismatchError("mean must be a vector")
        d = mean.shape[0]
        if covariance.shape != (d, d):
            raise DimensionMismatchError(
                f"covariance must be {d}x{d}, got {covariance.shape}"
            )
        covariance = 0.5 * (covariance + covariance.T)
        w, v = np.linalg.eigh(covariance)
        if w.min() <= 0:
            raise ValueError("covariance must be positive definite")
        self.dim = d
        self.mean = mean
        self.covariance = covariance
        self._precision_floor = 1.0 / float(w.max())
        self.precision = v @ np.diag(1.0 / w) @ v.T
        self.precision = 0.5 * (self.precision + self.precision.T)

    def neg_log_density(self, theta) -> float:
        delta = self._check_theta(theta) - self.mean
        return 0.5 * float(delta @ self.precision @ delta)

    def gradient(self, theta) -> np.ndarray:
        delta = self._check_theta(theta) - self.mean
        return self.precision @ delta

    def hessian(self, theta) -> np.ndarray:
        self._check_theta(theta)
        return self.precision.copy()

    def ray_derivatives(self, base, direction, r=0.0, max_order: int = 4) -> np.ndarray:
        self._check_order(max_order)
        delta = self._check_theta(base) - self.mean
        v = self._check_theta(direction)
        r = np.asarray(r, dtype=float)
        pv = self.precision @ v
        out = np.zeros(r.shape + (max_order,))
        out[..., 0] = float(delta @ pv) + r * float(v @ pv)
        if max_order >= 2:
            out[..., 1] = float(v @ pv)
        return out

    def ray_batch(self, base, directions, rs=None) -> RayBatch:
        delta = self._check_theta(base) - self.mean
        vs = _check_directions(directions, self.dim)
        values = None
        if rs is not None:
            rs = np.asarray(rs, dtype=float)
            pvs = vs @ self.precision
            a = 0.5 * np.einsum("ij,ij->i", vs, pvs)
            b = pvs @ delta
            c = 0.5 * float(delta @ self.precision @ delta)
            values = c + b[:, None] * rs + a[:, None] * rs * rs
        return RayBatch(values, np.zeros(vs.shape[0]), np.zeros(vs.shape[0]))

    def hessian_eigenvalue_floor(self) -> float:
        """1 / lambda_max(covariance): the Hessian is the precision at every theta."""
        return self._precision_floor

    def neg_log_density_many(self, thetas) -> np.ndarray:
        deltas = np.asarray(thetas, dtype=float) - self.mean
        return 0.5 * np.einsum("ij,ij->i", deltas @ self.precision, deltas)


class LogisticRegressionModel(TargetModel):
    """Bayesian logistic regression posterior with a N(0, sigma0^2 I) prior.

    phi(theta) = ||theta||^2 / (2 sigma0^2) + sum_i log(1 + exp(-y_i x_i.theta))

    The log-likelihood terms are functions of the margins t_i = y_i x_i.theta,
    so all derivatives reduce to weighted sums of powers of projections; the
    scalar chain uses sigmoid identities and stays finite for |t| well beyond
    the exp overflow threshold.

    Besides the row-major signed covariates, whose products give the fit's
    gradient and Hessian, the constructor stores one C-contiguous copy of
    their transpose (d x n, 8 n d bytes). The many-point and ray hooks
    multiply a block of negated points or directions by it, which gives the
    negated margins u = -t exactly, since negation is exact, and they take
    the loss as log(1 + exp(u)). Evaluation is still pure after
    construction: neither array is written again.
    """

    def __init__(self, labels, covariates, prior_sigma0: float):
        y = np.asarray(labels, dtype=float)
        x = np.asarray(covariates, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatchError("covariates must be an n x d matrix")
        if y.shape != (x.shape[0],):
            raise DimensionMismatchError(
                f"labels length {y.shape} does not match covariate rows {x.shape[0]}"
            )
        if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must take values in {-1, +1}")
        sigma0 = float(prior_sigma0)
        if not np.isfinite(sigma0) or sigma0 <= 0:
            raise ValueError("prior_sigma0 must be a finite positive real")
        self.dim = x.shape[1]
        self.n_obs = x.shape[0]
        self.labels = y
        self.covariates = x
        self.prior_sigma0 = sigma0
        self._inv_prior_var = 1.0 / (sigma0 * sigma0)
        # rows y_i * x_i; margins are signed_x @ theta
        self._signed_x = np.ascontiguousarray(y[:, None] * x)
        # its transpose, contiguous, for the row-block products of the
        # many-point and ray hooks
        self._signed_xt = np.ascontiguousarray(self._signed_x.T)

    @property
    def signed_covariates(self) -> np.ndarray:
        """Rows ``y_i * x_i``; the margin vector is ``signed_covariates @ theta``."""
        return self._signed_x

    def neg_log_density(self, theta) -> float:
        theta = self._check_theta(theta)
        t = self._signed_x @ theta
        # kept on np.logaddexp: the mode search's line search compares these
        # values near the mode, so another rounding moves the fit's last bits
        return 0.5 * self._inv_prior_var * float(theta @ theta) + float(
            np.logaddexp(0.0, -t).sum()
        )

    def gradient(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        t = self._signed_x @ theta
        return self._inv_prior_var * theta - self._signed_x.T @ _expit(-t)

    def hessian(self, theta) -> np.ndarray:
        theta = self._check_theta(theta)
        t = self._signed_x @ theta
        w = _expit(t) * _expit(-t)
        h = (self._signed_x * w[:, None]).T @ self._signed_x
        h.flat[:: self.dim + 1] += self._inv_prior_var
        return 0.5 * (h + h.T)

    def ray_derivatives(self, base, direction, r=0.0, max_order: int = 4) -> np.ndarray:
        self._check_order(max_order)
        base = self._check_theta(base)
        v = self._check_theta(direction)
        r = np.asarray(r, dtype=float)
        s = self._signed_x @ v
        # one row of margins per offset
        t = self._signed_x @ base + r[..., None] * s
        p = _expit(t)
        q = _expit(-t)
        w = p * q
        out = np.zeros(r.shape + (max_order,))
        s_sq = s * s
        out[..., 0] = self._inv_prior_var * (float(base @ v) + r * float(v @ v)) - q @ s
        if max_order >= 2:
            out[..., 1] = self._inv_prior_var * float(v @ v) + w @ s_sq
        if max_order >= 3:
            # explicit products keep odd powers exactly sign-symmetric in e
            out[..., 2] = (w * (1.0 - 2.0 * p)) @ (s_sq * s)
        if max_order >= 4:
            out[..., 3] = (w * (1.0 - 6.0 * p + 6.0 * p * p)) @ (s_sq * s_sq)
        return out

    def ray_batch(self, base, directions, rs=None) -> RayBatch:
        """Array form over the direction block, a chunk of rows at a time.

        The margins at the base, t0, and p0 = expit(t0) do not depend on the
        direction, so with s = signed_x @ v, delta3 is (w0 (1 - 2 p0)) . s^3
        and the delta4 bound is 0.125 * sum(s^4). The projections s of a
        chunk are one product with the stored transpose. The values on the
        nodes come from one (rows x nodes x n) buffer, reused by every chunk,
        that holds the negated margins u = (-r) s - t0, exactly -(r s + t0).
        """
        base = self._check_theta(base)
        vs = _check_directions(directions, self.dim)
        k = vs.shape[0]
        t0 = self._signed_x @ base
        p0 = _expit(t0)
        w3 = p0 * _expit(-t0) * (1.0 - 2.0 * p0)
        delta3 = np.empty(k)
        delta4 = np.empty(k)
        values = None
        if rs is not None:
            rs = np.asarray(rs, dtype=float)
            values = np.empty((k, rs.shape[0]))
        nodes = 1 if rs is None else rs.shape[0]
        rows = max(1, RAY_BLOCK_ELEMENTS // max(1, nodes * self.n_obs))
        buffer = None if rs is None else np.empty((min(rows, k), nodes, self.n_obs))
        for lo in range(0, k, rows):
            hi = min(lo + rows, k)
            s = vs[lo:hi] @ self._signed_xt
            s_sq = s * s
            # a row-by-row reduction rather than a BLAS product, so that the
            # value for -v is exactly minus the value for v
            delta3[lo:hi] = np.einsum("ij,j->i", s_sq * s, w3)
            delta4[lo:hi] = SIGMOID_THIRD_DERIVATIVE_MAX * np.sum(s_sq * s_sq, axis=1)
            if values is not None:
                u = buffer[: hi - lo]
                np.multiply(-rs[:, None], s[:, None, :], out=u)
                u -= t0
                values[lo:hi] = _log1p_exp(u, out=u).sum(axis=2)
        if values is not None:
            # ||base + r v||^2 expanded, so that no (k x nodes x d) array is formed
            quad = float(base @ base) + rs * (2.0 * (vs @ base))[:, None] + (
                rs * rs * np.einsum("ij,ij->i", vs, vs)[:, None]
            )
            values += 0.5 * self._inv_prior_var * quad
        return RayBatch(values, delta3, delta4)

    def hessian_eigenvalue_floor(self) -> float:
        """1 / sigma0^2: the likelihood Hessian X' diag(w) X has weights w >= 0."""
        return self._inv_prior_var

    def neg_log_density_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        out = 0.5 * self._inv_prior_var * np.einsum("ij,ij->i", thetas, thetas)
        # one buffer of negated margins u = -t for every ROW_BLOCK-row slice
        buffer = np.empty((min(ROW_BLOCK, thetas.shape[0]), self.n_obs))
        for lo in range(0, thetas.shape[0], ROW_BLOCK):
            rows = slice(lo, min(lo + ROW_BLOCK, thetas.shape[0]))
            u = buffer[: rows.stop - lo]
            np.matmul(-thetas[rows], self._signed_xt, out=u)
            out[rows] += _log1p_exp(u, out=u).sum(axis=1)
        return out


@dataclass(frozen=True)
class SyntheticDatasetConfig:
    """Configuration for the self-generated logistic benchmark data.

    Covariates are i.i.d. standard normal; the true parameter is drawn with
    per-coordinate variance d^(-1/2) so margins stay order one regardless of
    dimension; labels follow the logistic law at the true parameter.
    """

    d: int
    n: int
    seed: int


@dataclass(frozen=True)
class LogisticDataset:
    labels: np.ndarray
    covariates: np.ndarray
    theta_true: np.ndarray

    def model(self, prior_sigma0: float) -> LogisticRegressionModel:
        return LogisticRegressionModel(self.labels, self.covariates, prior_sigma0)


def generate_dataset(config: SyntheticDatasetConfig) -> LogisticDataset:
    """Draw a synthetic logistic-regression dataset, bit-reproducible per seed."""
    if config.d < 1:
        raise ValueError("d must be >= 1")
    if config.n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    theta_true = rng.standard_normal(config.d) * config.d ** (-0.25)
    x = rng.standard_normal((config.n, config.d))
    p_plus = _expit(x @ theta_true)
    y = np.where(rng.random(config.n) < p_plus, 1.0, -1.0)
    return LogisticDataset(labels=y, covariates=x, theta_true=theta_true)


def random_gaussian_model(d: int, seed: int) -> GaussianModel:
    """Seeded Gaussian target with a rotated dense covariance.

    Serves as the exact-null benchmark: the Laplace fit reproduces it, so
    every certificate term and the true KL are zero. Eigenvalues are drawn
    log-uniform in [0.5, 2] and rotated by a Haar-ish orthogonal factor.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    lam = np.exp(rng.uniform(np.log(0.5), np.log(2.0), d))
    cov = (q * lam) @ q.T
    mean = rng.standard_normal(d)
    return GaussianModel(mean, 0.5 * (cov + cov.T))


def save_dataset_csv(path, labels, covariates) -> None:
    """Write a dataset as CSV with header ``y,x1,...,xd`` at 17 significant digits."""
    y = np.asarray(labels, dtype=float)
    x = np.asarray(covariates, dtype=float)
    d = x.shape[1]
    header = "y," + ",".join(f"x{j + 1}" for j in range(d))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for yi, xi in zip(y, x):
            cells = [f"{yi:.17g}"] + [f"{v:.17g}" for v in xi]
            handle.write(",".join(cells) + "\n")


def load_dataset_csv(path):
    """Read a ``y,x1,...,xd`` CSV back into (labels, covariates)."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        names = header.split(",")
        if not names or names[0] != "y" or any(
            name != f"x{j + 1}" for j, name in enumerate(names[1:])
        ):
            raise ValueError(f"unrecognized dataset header: {header!r}")
        d = len(names) - 1
        rows = [line.split(",") for line in handle if line.strip()]
    data = np.array([[float(cell) for cell in row] for row in rows], dtype=float)
    if data.size == 0:
        data = data.reshape(0, d + 1)
    if data.shape[1] != d + 1:
        raise ValueError("row width does not match header")
    y, x = data[:, 0], data[:, 1:]
    if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must take values in {-1, +1}")
    return y, x
