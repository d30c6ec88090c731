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
proven rather than sampled. The logistic model also integrates phi against
a Gaussian by one quadrature per observation. Each writes phi once, in its
many-point hook; the scalar phi is that hook's one-row call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DimensionMismatchError, UnsupportedOrderError, _check_integer
from .radial import _stream_rng

# max_t |d^4/dt^4 log(1 + exp(-t))| — attained at t = 0; validated against a
# grid-maximization oracle in the test suite.
SIGMOID_THIRD_DERIVATIVE_MAX = 0.125

# elements of the one margin buffer a block hook builds: points x n_obs in
# ``neg_log_density_many``, directions x nodes x n_obs in ``ray_batch``,
# pieces x nodes in ``_normal_log1p_exp_means``
BLOCK_ELEMENTS = 1 << 18

# E[log(1 + exp(u))] for normal u: the softplus bends at u = 0 and is linear,
# to double precision, beyond |u| = 40 (exp(-40) < 5e-18), and the normal
# mass beyond 10 standard deviations is below 2e-23. Each piece between the
# cuts, clipped to mu +- 10 sd, takes one 48-node Gauss-Legendre rule in the
# standardized variable. Against a 30-digit reference the rule is within
# 2e-12 for sd from 0.01 to 100 and |mu| up to 4 sd + 3, where one
# 64-node Gauss-Hermite rule over the whole line is off by 1.5e-6 at sd = 4
SOFTPLUS_CUTS = np.array([-np.inf, -40.0, 0.0, 40.0, np.inf])
NORMAL_SPAN = 10.0
_LEGENDRE_Z, _LEGENDRE_W = leggauss(48)
# weights against the standard normal density exp(-z^2 / 2) / sqrt(2 pi)
_LEGENDRE_W /= np.sqrt(2.0 * np.pi)


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


def _normal_log1p_exp_means(mu, sd) -> np.ndarray:
    """E[log(1 + exp(u_i))] for u_i ~ N(mu_i, sd_i^2), elementwise.

    Each u_i's axis is cut at ``SOFTPLUS_CUTS`` and clipped to
    mu_i +- ``NORMAL_SPAN`` sd_i; every non-empty piece takes the 48-node
    Gauss-Legendre rule in z = (u - mu_i) / sd_i, and the softplus is
    ``_log1p_exp``, in blocks of at most ``BLOCK_ELEMENTS`` piece nodes. An
    sd_i of 0 gives log(1 + exp(mu_i)) exactly.
    """
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    out = _log1p_exp(mu)
    spread = np.flatnonzero(sd > 0.0)
    mu, sd = mu[spread], sd[spread]
    # a cut beyond the float range at a tiny sd clips to the span's end
    with np.errstate(over="ignore"):
        edges = (SOFTPLUS_CUTS - mu[:, None]) / sd[:, None]
    np.clip(edges, -NORMAL_SPAN, NORMAL_SPAN, out=edges)
    rows, piece = np.nonzero(edges[:, 1:] > edges[:, :-1])
    lo, hi = edges[rows, piece], edges[rows, piece + 1]
    half = 0.5 * (hi - lo)
    mid = lo + half
    sums = np.empty(rows.size)
    step = BLOCK_ELEMENTS // _LEGENDRE_Z.size
    for start in range(0, rows.size, step):
        block = slice(start, start + step)
        z = half[block, None] * _LEGENDRE_Z
        z += mid[block, None]
        u = sd[rows[block], None] * z
        u += mu[rows[block], None]
        z *= z
        z *= -0.5
        density = np.exp(z, out=z)
        density *= _log1p_exp(u, out=u)
        sums[block] = density @ _LEGENDRE_W
    sums *= half
    out[spread] = np.bincount(rows, sums, minlength=spread.size)
    return out


@dataclass(frozen=True)
class RayBatch:
    """Ray quantities through one base point for a block of k directions.

    ``values[i, j]`` is phi(base + rs[j] * v_i). ``delta3[i]`` is the third
    ray derivative at the base. ``delta4[i]`` bounds the absolute fourth ray
    derivative along the whole ray, or is None when the model has none (no
    detailed certificate).
    """

    values: np.ndarray
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
    offset or an array of them. The vectorized hooks have generic defaults:
    ``neg_log_density_many`` loops over ``neg_log_density``, and ``ray_batch``
    takes each direction's node values from one ``neg_log_density_many``
    call. They exist so models with structure can avoid per-point Python
    overhead. ``ray_batch`` is all the certificate's
    direction pass asks of a model: for a block of directions it returns the
    values on the quadrature nodes, delta3 at the base and the analytic
    delta4 bound; ``ray_values`` is its one-direction form. Three optional
    hooks give closed-form facts, or None for a model without them:
    ``ray_fourth_derivative_bound`` bounds delta4 along a whole ray (without
    it the audit has ``approx_bound`` but no ``detailed_bound``),
    ``hessian_eigenvalue_floor`` bounds the Hessian's eigenvalues from below
    everywhere, which lets ``audit`` prove log-concavity instead of sampling
    it, and ``expected_neg_log_density`` gives E[phi] under a Gaussian, which
    lets ``estimate_kl`` take the truth's Gaussian half without sampling
    directions. The certificate calls ``ray_batch`` on the model itself, so its
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

    def ray_batch(self, base, directions, rs) -> RayBatch:
        """Ray quantities along each row of ``directions`` (k x dim) through ``base``.

        phi is evaluated at every offset in ``rs`` along every direction.
        This generic version loops over ``ray_derivatives``,
        ``ray_fourth_derivative_bound`` and ``neg_log_density_many``, one
        call each per direction, so its memory stays one ray's nodes; it
        uses nothing else of the model.
        """
        base = np.asarray(base, dtype=float)
        directions = _check_directions(directions, self.dim)
        rs = np.asarray(rs, dtype=float)
        delta3 = np.array(
            [self.ray_derivatives(base, v, 0.0, max_order=3)[2] for v in directions], dtype=float
        )
        bounds = [self.ray_fourth_derivative_bound(base, v) for v in directions]
        delta4 = None if any(b is None for b in bounds) else np.array(bounds, dtype=float)
        values = np.empty((directions.shape[0], rs.shape[0]))
        for i, v in enumerate(directions):
            values[i] = self.neg_log_density_many(base + rs[:, None] * v)
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

    def expected_neg_log_density(self, mean, sqrt_covariance):
        """Optional E[phi(theta)] for theta = mean + z S, z standard normal, or None.

        S is ``sqrt_covariance``, so the covariance is S'S, S S for the
        fit's symmetric root. ``estimate_kl`` takes the truth's Gaussian
        half from this value when there is one, and from its sampled
        direction pass otherwise. A model that overrides it returns a
        number, and ``KLEstimate.config["gaussian_half"]`` reads
        "quadrature" for it.
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
        if d < 1:
            raise DimensionMismatchError("mean must have at least one entry (d >= 1)")
        if covariance.shape != (d, d):
            raise DimensionMismatchError(
                f"covariance must be {d}x{d}, got {covariance.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(covariance))):
            raise ValueError("mean and covariance must be finite")
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
        return float(self.neg_log_density_many(self._check_theta(theta)[None, :])[0])

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

    def ray_batch(self, base, directions, rs) -> RayBatch:
        base = self._check_theta(base)
        vs = _check_directions(directions, self.dim)
        rs = np.asarray(rs, dtype=float)
        pvs = vs @ self.precision
        a = 0.5 * np.einsum("ij,ij->i", vs, pvs)
        b = pvs @ (base - self.mean)
        c = self.neg_log_density_many(base[None])[0]
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
    their transpose (d x n, 8 n d bytes). The many-point hook multiplies a
    block of negated points by it, which gives the negated margins u = -t
    exactly, since negation is exact; the scalar phi is that hook on one
    row. The ray hook multiplies directions by it for the projections s,
    then takes the negated node margins u = (-r) s - t0 from one stacked
    product with two inner terms, which rounds exactly as the elementwise
    form does. Both take the loss as log(1 + exp(u)) in buffers of at most
    ``BLOCK_ELEMENTS``. Evaluation is pure after construction.
    """

    def __init__(self, labels, covariates, prior_sigma0: float):
        y = np.asarray(labels, dtype=float)
        x = np.asarray(covariates, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatchError("covariates must be an n x d matrix")
        if x.shape[1] < 1:
            # a 0-dimensional posterior has no Hessian to factorize
            raise DimensionMismatchError("covariates must have at least one column (d >= 1)")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
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
        return float(self.neg_log_density_many(self._check_theta(theta)[None, :])[0])

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

    def ray_batch(self, base, directions, rs) -> RayBatch:
        """Array form over the direction block, a chunk of rows at a time.

        The margins at the base, t0, and p0 = expit(t0) do not depend on the
        direction, so with s = signed_x @ v, delta3 is (w0 (1 - 2 p0)) . s^3
        and the delta4 bound is 0.125 * sum(s^4). The projections s of a
        chunk are one product with the stored transpose. The values on the
        nodes come from one (rows x nodes x n) buffer, reused by every chunk,
        that holds the negated margins u = (-r) s - t0, exactly -(r s + t0).
        Each chunk fills it with one stacked product C P, with C = [-r | -1]
        (nodes x 2) and P = [s ; t0] (rows x 2 x n). Its inner sums have two
        terms, taken in order, and (-1) t0 is exact, so after fl((-r) s) u
        rounds once, in the subtraction, exactly as the elementwise form
        does; the product only saves a broadcast pass. A chunk's row count
        is even (two at least) within ``BLOCK_ELEMENTS``, so a +-v pair
        always shares one product and no even block ends on a one-row chunk.
        """
        base = self._check_theta(base)
        vs = _check_directions(directions, self.dim)
        k = vs.shape[0]
        t0 = self._signed_x @ base
        p0 = _expit(t0)
        w3 = p0 * _expit(-t0) * (1.0 - 2.0 * p0)
        rs = np.asarray(rs, dtype=float)
        nodes = rs.shape[0]
        rows = max(2, BLOCK_ELEMENTS // max(1, nodes * self.n_obs) // 2 * 2)
        delta3 = np.empty(k)
        delta4 = np.empty(k)
        values = np.empty((k, nodes))
        # u = C P for each chunk, C = [-r | -1] and P = [s ; t0]
        coeffs = np.stack([-rs, np.full(nodes, -1.0)], axis=1)
        stack = np.empty((min(rows, k), 2, self.n_obs))
        stack[:, 1] = t0
        buffer = np.empty((min(rows, k), nodes, self.n_obs))
        for lo in range(0, k, rows):
            hi = min(lo + rows, k)
            s = vs[lo:hi] @ self._signed_xt
            s_sq = s * s
            # a row-by-row reduction rather than a BLAS product, so that the
            # value for -v is exactly minus the value for v
            delta3[lo:hi] = np.einsum("ij,j->i", s_sq * s, w3)
            delta4[lo:hi] = SIGMOID_THIRD_DERIVATIVE_MAX * np.sum(s_sq * s_sq, axis=1)
            stack[: hi - lo, 0] = s
            u = np.matmul(coeffs, stack[: hi - lo], out=buffer[: hi - lo])
            values[lo:hi] = _log1p_exp(u, out=u).sum(axis=2)
        # ||base + r v||^2 expanded, so that no (k x nodes x d) array is formed
        quad = float(base @ base) + rs * (2.0 * (vs @ base))[:, None] + (
            rs * rs * np.einsum("ij,ij->i", vs, vs)[:, None]
        )
        values += 0.5 * self._inv_prior_var * quad
        return RayBatch(values, delta3, delta4)

    def hessian_eigenvalue_floor(self) -> float:
        """1 / sigma0^2: the likelihood Hessian X' diag(w) X has weights w >= 0."""
        return self._inv_prior_var

    def expected_neg_log_density(self, mean, sqrt_covariance) -> float:
        """E[phi(theta)] for theta = mean + z S, z standard normal, by quadrature.

        Each margin t_i = y_i x_i.theta is normal, with mean m_i = y_i x_i.mean
        and standard deviation s_i = |S y_i x_i|; one product of the signed
        covariates with [-mean | S'] gives every -m_i and S y_i x_i. So E[phi]
        is the prior term (|mean|^2 + ||S||_F^2) / (2 sigma0^2) plus n
        one-dimensional integrals E[log(1 + exp(-t_i))], which
        ``_normal_log1p_exp_means`` takes with no sampling error; an all-zero
        covariate row (s_i = 0) contributes log 2 exactly, and n = 0 leaves
        the prior term alone.
        """
        mean = self._check_theta(mean)
        sqrt_cov = np.asarray(sqrt_covariance, dtype=float)
        if sqrt_cov.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected a {self.dim}x{self.dim} square root, got shape {sqrt_cov.shape}"
            )
        margins = self._signed_x @ np.column_stack([-mean, sqrt_cov.T])
        spreads = np.sqrt(np.einsum("ij,ij->i", margins[:, 1:], margins[:, 1:]))
        prior = 0.5 * self._inv_prior_var * (mean @ mean + np.sum(sqrt_cov * sqrt_cov))
        return float(prior + _normal_log1p_exp_means(margins[:, 0], spreads).sum())

    def neg_log_density_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        out = 0.5 * self._inv_prior_var * np.einsum("ij,ij->i", thetas, thetas)
        # one buffer of negated margins u = -t for every slice of rows
        block = max(1, BLOCK_ELEMENTS // max(1, self.n_obs))
        buffer = np.empty((min(block, thetas.shape[0]), self.n_obs))
        for lo in range(0, thetas.shape[0], block):
            rows = slice(lo, min(lo + block, thetas.shape[0]))
            u = buffer[: rows.stop - lo]
            np.matmul(-thetas[rows], self._signed_xt, out=u)
            out[rows] += _log1p_exp(u, out=u).sum(axis=1)
        return out


@dataclass(frozen=True)
class SyntheticDatasetConfig:
    """Configuration for the self-generated logistic benchmark data.

    Covariates are i.i.d. standard normal; the true parameter is drawn with
    per-coordinate variance d^(-1/2) so margins stay order one regardless of
    dimension; labels follow the logistic law at the true parameter. ``d``
    is an integer >= 1, ``n`` and ``seed`` integers >= 0, checked when the
    config is built.
    """

    d: int
    n: int
    seed: int

    def __post_init__(self) -> None:
        _check_integer(self.d, 1, "d must be an integer >= 1")
        _check_integer(self.n, 0, "n must be an integer >= 0")
        _check_integer(self.seed, 0, "seed must be an integer >= 0")


@dataclass(frozen=True)
class LogisticDataset:
    labels: np.ndarray
    covariates: np.ndarray
    theta_true: np.ndarray

    def model(self, prior_sigma0: float) -> LogisticRegressionModel:
        return LogisticRegressionModel(self.labels, self.covariates, prior_sigma0)


def generate_dataset(config: SyntheticDatasetConfig) -> LogisticDataset:
    """Draw a synthetic logistic-regression dataset, bit-reproducible per seed."""
    rng = _stream_rng(config.seed, "dataset")
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
    ``d`` must be an integer >= 1 and ``seed`` one >= 0, else ValueError.
    """
    _check_integer(d, 1, "d must be >= 1 and an integer")
    rng = _stream_rng(seed, "gaussian_model")
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    lam = np.exp(rng.uniform(np.log(0.5), np.log(2.0), d))
    cov = (q * lam) @ q.T
    mean = rng.standard_normal(d)
    return GaussianModel(mean, 0.5 * (cov + cov.T))


def _synthetic_model(model: str, d: int, n: int, sigma0: float, seed: int) -> TargetModel:
    """Seeded target: ``random_gaussian_model`` for "gaussian", else a synthetic logistic one."""
    if model == "gaussian":
        return random_gaussian_model(d, seed)
    return generate_dataset(SyntheticDatasetConfig(d=d, n=n, seed=seed)).model(sigma0)


def save_dataset_csv(path, labels, covariates) -> None:
    """Write a dataset as CSV with header ``y,x1,...,xd`` at 17 significant digits."""
    data = np.column_stack([np.asarray(labels, dtype=float), np.asarray(covariates, dtype=float)])
    header = "y," + ",".join(f"x{j}" for j in range(1, data.shape[1]))
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def load_dataset_csv(path):
    """Read a ``y,x1,...,xd`` CSV back into (labels, covariates), one line at a time.

    Blank lines are skipped, so a header-only file is an empty dataset. A row
    not as wide as the header, a cell that ``float()`` does not read or a label
    not -1 or +1 is an error naming its file line (the header is line 1).
    """
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        names = header.split(",")
        if names != ["y"] + [f"x{j}" for j in range(1, len(names))]:
            raise ValueError(f"unrecognized dataset header: {header!r}")
        lines = handle.read().splitlines()
    rows = []
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"line {line_no} has {len(cells)} cells, the header {len(names)}")
        row = []
        for column, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError:
                message = f"line {line_no}, column {column}: {cell!r} is not a number"
                raise ValueError(message) from None
        if row[0] not in (-1.0, 1.0):
            raise ValueError(f"line {line_no}: labels must take values in {{-1, +1}}")
        rows.append(row)
    data = np.array(rows, dtype=float).reshape(-1, len(names))
    return data[:, 0], data[:, 1:]
