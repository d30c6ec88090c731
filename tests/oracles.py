"""Reference computations and auxiliary targets for tests.

The independent oracles avoid the code paths they check: derivatives come
from finite-difference stencils on raw density values
(``central_directional``, ``third_derivative_7pt``,
``fourth_derivative_5pt``), the 1-D KL and its Gaussian half
E_g[log g + phi] from adaptive quadrature (``quadrature_kl_1d``,
``quadrature_gaussian_half_1d``), the conditional KL of the radius along
each direction, zeta - xi, from a wide Gauss-Legendre rule rather than
``chi_quadrature`` (``radial_kl_split``), KL(g, f) given log 1/Z from fresh
draws of the fit with no ray pass (``fresh_draw_kl``), the chain from a
plain-loop replay of one scalar phi at a time (``replay_chain``), the
curvature floor from an eigenvalue solve (``companion_curvature_floor``,
with its own root rule ``curvature_floor_r0``), the radius law from its
closed form (``RadialLaw``), the logistic phi from the model's data
with ``np.logaddexp`` (``logistic_phi``), and the posterior means that a
chain samples from importance weights on fresh draws of the fit
(``importance_posterior_means``). ``logistic_ray_values`` builds
the node margins elementwise but sums them with the model's ``_log1p_exp``.

The one-direction helpers are not independent: ``delta3``, ``delta4`` and
``xi_elbo`` wrap ``model.ray_batch`` on one whitened direction (through
``_ray_batch``, which always passes nodes: one at r = 0 for delta3 and
delta4), so tests can compare ``audit``'s batched pass with them row by
row, and ``conditional_curvature_profile`` takes the model's own
``ray_derivatives``. ``SoftplusTilt1D``, ``CubicRay1D``,
``GaussianMixture1D`` and ``InfTailGaussian`` are test targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit, gammaln

from laplace_audit import AssumptionViolationError, NonFiniteObjectiveError, models
from laplace_audit.laplace import laplace_log_density
from laplace_audit.models import GaussianModel, TargetModel
from laplace_audit.radial import _STREAMS, LOG_2, QUADRATURE_NODES, chi_quadrature


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

    Redraws the stream ``run_chain`` documents: the (chains x d) standard
    normals of the starts, then per block of ``mcmc.BLOCK_STEPS`` steps a
    steps x chains x d array of uniforms U, then 2 x steps x chains
    uniforms. Each chain starts at theta* + z S for its start draw z (at the
    mode if phi is not finite there), proposes z + 2.38/sqrt(d) eta with
    eta = sqrt(12) (U - 1/2), uniform with mean 0 and standard deviation 1
    in each coordinate, so 2.38/sqrt(d) per coordinate for the jump. That
    law is symmetric (U - 1/2 is exact; only -1/2, of probability 2^-53,
    lacks a mirror), so no proposal ratio enters; the stream changed from
    standard normals to these uniforms, and seeded chains moved with it.
    It passes the proposal when
    log u1 < -(|z'|^2 - |z|^2) / 2, and moves when phi' is finite and
    log u2 < (phi - |z|^2 / 2) - (phi' - |z'|^2 / 2), scoring each passed
    proposal with ``neg_log_density``; states are kept per chain after its
    burn-in of ``mcmc.BURN_IN_FRACTION`` of its steps, every ``thin``-th step.

    Returns (samples chain by chain, accepted count per chain).
    """
    from laplace_audit import mcmc

    d, chains = model.dim, mcmc.N_CHAINS
    steps = config.n_steps // chains
    scale = 2.38 / np.sqrt(d)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=_STREAMS["chain"]))
    starts = rng.standard_normal((chains, d))
    cubes, uniforms = [], []
    for done in range(0, steps, mcmc.BLOCK_STEPS):
        block = min(mcmc.BLOCK_STEPS, steps - done)
        cubes.append(rng.random((block, chains, d)))
        uniforms.append(rng.random((2, block, chains)))
    eta, u = np.sqrt(12.0) * (np.concatenate(cubes) - 0.5), np.concatenate(uniforms, axis=1)
    burn = int(round(mcmc.BURN_IN_FRACTION * steps))

    def theta(z):
        return fit.theta_star + z @ fit.sqrt_covariance

    samples, accepted = [], []
    for c in range(chains):
        z = starts[c]
        phi = model.neg_log_density(theta(z))
        if not np.isfinite(phi):
            z = np.zeros(d)
            phi = model.neg_log_density(theta(z))
        count = 0
        for step in range(steps):
            candidate = z + scale * eta[step, c]
            if np.log(u[0, step, c]) < -0.5 * (candidate @ candidate - z @ z):
                phi_prop = model.neg_log_density(theta(candidate))
                w, w_prop = phi - 0.5 * (z @ z), phi_prop - 0.5 * (candidate @ candidate)
                if np.isfinite(phi_prop) and np.log(u[1, step, c]) < w - w_prop:
                    z, phi = candidate, phi_prop
                    count += 1
            if step >= burn and (step - burn + 1) % config.thin == 0:
                samples.append(theta(z))
        accepted.append(count)
    return np.array(samples), np.array(accepted)


def logistic_phi(model, thetas):
    """phi at each row of ``thetas`` for a logistic model, the loss by ``np.logaddexp``.

    The form of ``benchmarks/reference.LogisticPhi``, from the model's data
    alone: margins t = thetas (y x)', then |theta|^2 / (2 sigma0^2) plus
    sum logaddexp(0, -t), which agrees with the model's log(1 + exp(-t)) to
    a few ulp per term. A NaN margin gives NaN silently.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    margins = thetas @ (model.labels[:, None] * model.covariates).T
    prior = np.einsum("ij,ij->i", thetas, thetas) / (2.0 * model.prior_sigma0**2)
    with np.errstate(invalid="ignore"):
        return prior + np.logaddexp(0.0, -margins).sum(axis=1)


def importance_posterior_means(model, fit, n_draws: int, seed: int):
    """Self-normalized importance estimates of E_f[theta] and E_f[phi], with standard errors.

    For a logistic model: ``n_draws`` fresh draws theta = theta* + eta S
    from the fit g, eta standard normal from ``np.random.default_rng(seed)``
    (no package stream or sampler), phi by ``logistic_phi``, and weights
    f~/g proportional to exp(|eta|^2 / 2 - phi). Returns (means, ses), each
    of length d + 1: the d coordinates of theta, then phi. The standard
    errors are the delta-method ones of a ratio estimate,
    sqrt(sum w^2 (x - mean)^2) / sum w.
    """
    eta = np.random.default_rng(seed).standard_normal((n_draws, fit.dim))
    thetas = fit.theta_star + eta @ fit.sqrt_covariance
    phi = logistic_phi(model, thetas)
    log_w = 0.5 * np.einsum("ij,ij->i", eta, eta) - phi
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    values = np.column_stack([thetas, phi])
    means = w @ values
    ses = np.sqrt((w * w) @ (values - means) ** 2)
    return means, ses


def logistic_ray_values(model, base, vs, rs):
    """phi(base + r v) on the ray nodes of a logistic model, margins by broadcasting.

    The negated margins are built elementwise, u = (-r) s - t0: one
    broadcast multiply, then one subtraction. Each row of u goes through
    ``_log1p_exp`` and is summed, and the prior term ||base + r v||^2 /
    (2 sigma0^2) is added in the expanded form ``ray_batch`` uses. The
    projections s = signed_x v are taken chunk by chunk, with the even chunk
    rows of ``ray_batch``: a product's rounding can depend on its row count
    (one row goes through a matrix-vector call), and the margins, not the
    projections, are what this oracle pins down.
    """
    t0 = model.signed_covariates @ base
    values = np.empty((vs.shape[0], rs.shape[0]))
    rows = max(2, models.BLOCK_ELEMENTS // max(1, rs.shape[0] * model.n_obs) // 2 * 2)
    for lo in range(0, vs.shape[0], rows):
        s = vs[lo : lo + rows] @ model._signed_xt
        u = -rs[:, None] * s[:, None, :]
        u -= t0
        values[lo : lo + rows] = models._log1p_exp(u).sum(axis=2)
    quad_form = float(base @ base) + rs * (2.0 * (vs @ base))[:, None] + (
        rs * rs * np.einsum("ij,ij->i", vs, vs)[:, None]
    )
    values += 0.5 * (1.0 / (model.prior_sigma0 * model.prior_sigma0)) * quad_form
    return values


def fresh_draw_kl(model: TargetModel, fit, k2: int, seed: int = 0, *, log_inv_z: float,
                  inv_z_rel_se: float = 0.0):
    """``(kl, se)`` of KL(g, f) from ``k2`` fresh draws of the fit, given log 1/Z.

    The plain Monte-Carlo average of log g(theta) + phi(theta) over
    theta = theta* + eta S, eta standard normal from ``estimate_kl``'s seed
    stream, less ``log_inv_z``; the standard error combines the i.i.d.
    sample variance with ``inv_z_rel_se``. phi comes from
    ``neg_log_density_many``, so no ray pass is involved. A non-finite
    log g + phi raises NonFiniteObjectiveError.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_STREAMS["kl"]))
    eta = rng.standard_normal((k2, fit.dim))
    thetas = fit.theta_star + eta @ fit.sqrt_covariance
    vals = laplace_log_density(fit, thetas) + model.neg_log_density_many(thetas)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteObjectiveError("non-finite log g + phi at a fit draw")
    kl = float(vals.mean() - log_inv_z)
    return kl, float(np.sqrt(vals.var(ddof=1) / k2 + inv_z_rel_se**2))


def quadrature_gaussian_half_1d(model: TargetModel, fit, lo=-40.0, hi=40.0):
    """E_g[log g + phi] for a 1-D target by adaptive quadrature at tolerance 1e-13."""

    def integrand(t):
        log_g = laplace_log_density(fit, np.array([t]))
        return np.exp(log_g) * (log_g + model.neg_log_density(np.array([t])))

    return float(quad(integrand, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-13)[0])


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


def radial_kl_split(fit, model: TargetModel, es, nodes: int = 768):
    """zeta(e), xi(e) and the span guard for each row ``e`` of ``es``.

    Along the whitened ray theta* + r S e, psi(r) = (d - 1) log r -
    (phi(theta* + r S e) - phi*) is the log radius integrand of f, and
    zeta(e) = log int psi's exponential dr - log C_d, with C_d =
    2^(d/2 - 1) Gamma(d/2) the chi normalizer; xi(e) = E_chi[r^2/2 -
    (phi(theta* + r S e) - phi*)] is the ELBO proxy. zeta - xi is
    KL(chi_d, f_{r|e}), the conditional KL of the radius along e. Both
    integrals run on one ``nodes``-point Gauss-Legendre rule on [0, R],
    R = 4 (sqrt(d) + 6), over one ``model.ray_batch`` pass, which also
    evaluates phi at R itself; ``chi_quadrature`` is not used. The guard is
    psi at R less psi's largest value: far below 0, the span holds the mass.
    """
    d = fit.dim
    x, w = np.polynomial.legendre.leggauss(nodes)
    span = 4.0 * (np.sqrt(d) + 6.0)
    rs = np.append(0.5 * span * (x + 1.0), span)
    excess = model.ray_batch(fit.theta_star, es @ fit.sqrt_covariance, rs).values
    excess -= fit.neg_log_density_at_mode
    log_c = (0.5 * d - 1.0) * LOG_2 + float(gammaln(0.5 * d))
    psi = (d - 1) * np.log(rs) - excess
    top = psi.max(axis=1)
    ws = 0.5 * span * w
    zeta = top + np.log(np.exp(psi[:, :-1] - top[:, None]) @ ws) - log_c
    chi = ws * np.exp((d - 1) * np.log(rs[:-1]) - 0.5 * rs[:-1] ** 2 - log_c)
    xi = (0.5 * rs[:-1] ** 2 - excess[:, :-1]) @ chi
    return zeta, xi, psi[:, -1] - top


@dataclass(frozen=True)
class RadialLaw:
    """Law of z = sqrt(|eta|) for a d-dimensional standard Gaussian eta.

    Density: z^(2d-1) exp(-z^4/2) / (2^(d/2-2) Gamma(d/2)) on z > 0.
    """

    d: int

    @property
    def log_normalizer(self) -> float:
        return (0.5 * self.d - 2.0) * LOG_2 + float(gammaln(0.5 * self.d))

    @property
    def mode(self) -> float:
        return (0.5 * (2.0 * self.d - 1.0)) ** 0.25

    def log_density(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z <= 0.0):
            raise ValueError("the square-root-radius law is supported on z > 0")
        val = (2.0 * self.d - 1.0) * np.log(z) - 0.5 * z**4 - self.log_normalizer
        return float(val) if val.ndim == 0 else val


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

    def ray_derivatives(self, base, direction, r=0.0, max_order: int = 4) -> np.ndarray:
        self._check_order(max_order)
        b = float(self._check_theta(base)[0])
        v = float(self._check_theta(direction)[0])
        t = b + np.asarray(r, dtype=float) * v
        p = expit(t)
        w = p * (1.0 - p)
        out = np.zeros(t.shape + (max_order,))
        out[..., 0] = (t + self.alpha * p) * v
        if max_order >= 2:
            out[..., 1] = (1.0 + self.alpha * w) * v * v
        if max_order >= 3:
            out[..., 2] = self.alpha * w * (1.0 - 2.0 * p) * v**3
        if max_order >= 4:
            out[..., 3] = self.alpha * w * (1.0 - 6.0 * p + 6.0 * p * p) * v**4
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

    def ray_derivatives(self, base, direction, r=0.0, max_order: int = 4) -> np.ndarray:
        self._check_order(max_order)
        b = float(self._check_theta(base)[0])
        v = float(self._check_theta(direction)[0])
        t = b + np.asarray(r, dtype=float) * v
        out = np.zeros(t.shape + (max_order,))
        out[..., 0] = (t + 0.5 * self.alpha * t * t) * v
        if max_order >= 2:
            out[..., 1] = (1.0 + self.alpha * t) * v * v
        if max_order >= 3:
            out[..., 2] = self.alpha * v**3
        return out

    def ray_fourth_derivative_bound(self, base, direction) -> float:
        return 0.0


class GaussianMixture1D(TargetModel):
    """Two-scale 1-D Gaussian mixture: the canonical non-log-concave trap.

    f~(t) = exp(-t^2/2) + eps * exp(-eps^2 t^2 / 2). Near the origin it looks
    like a unit Gaussian, yet half the mass hides in the eps-wide component,
    and the log-density has a negative-curvature transition zone.

    It serves only the fit and the log-concavity spot check, so its
    ``ray_derivatives`` takes a single offset, not an array of them.
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


class InfTailGaussian(GaussianModel):
    """A Gaussian whose batched phi is +inf beyond ``theta[0] > mean[0] + cut``.

    The chain never accepts a state out there, but the KL average's ray
    nodes reach there, so the truth pipeline meets a non-finite phi only in
    that average, and ``estimate_log_inv_z`` only when handed such a sample.
    ``ray_batch`` is the generic one, built on ``neg_log_density_many``, so
    that the ray values are +inf wherever phi is; the Gaussian's closed form
    would give finite values there. It has no delta4 bound.
    """

    ray_batch = TargetModel.ray_batch

    def __init__(self, mean, covariance, cut: float = 1.0):
        super().__init__(mean, covariance)
        self.cut = float(cut)

    def neg_log_density_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        phi = super().neg_log_density_many(thetas)
        return np.where(thetas[:, 0] > self.mean[0] + self.cut, np.inf, phi)


def curvature_floor_r0(delta3, delta4):
    """r0 = 2 / (sqrt(d3^2 + 2 d4) - d3), where the floor's Taylor control ends.

    The positive root of 1 + d3 r - d4 r^2 / 2, inf where there is none
    (d4 = 0 <= d3). For d3 > 0 the form above subtracts terms of like size,
    so that sign takes the other root formula, (d3 + sqrt(d3^2 + 2 d4)) / d4;
    d4 = 0 takes -1/d3 directly.
    """
    d3, d4 = np.asarray(delta3, dtype=float), np.asarray(delta4, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sqrt(d3 * d3 + 2.0 * d4)
        return np.where(
            d4 == 0.0,
            np.where(d3 >= 0.0, np.inf, -1.0 / d3),
            np.where(d3 > 0.0, (d3 + s) / d4, 2.0 / (s - d3)),
        )


def companion_curvature_floor(d: int, delta3, delta4):
    """``bound.min_conditional_curvature`` by an eigenvalue solve per row.

    The floor F(r) = a/r + 6 r + 5 d3 r^2 - (7/3) d4 r^3 in r = z^2, with
    a = 2d - 1, is stationary at the positive real roots of
    -7 d4 r^4 + 10 d3 r^3 + 6 r^2 - a. In u = 1/r that polynomial is, up to
    a factor, the monic u^4 - (6/a) u^2 - (10 d3/a) u + 7 d4/a, so the roots
    of all rows come from one batched eigenvalue solve of its companion
    matrices. The minimum over (0, r0] is taken over every root's real
    part, clipped to r0, and r0 itself, and then against the flat floor
    r0 + d3 r0^2 - d4 r0^3/3 beyond r0. Rows with a non-finite input give
    NaN, and exactly quadratic rows 2 sqrt(6) sqrt(a).
    """
    d3, d4 = np.broadcast_arrays(np.asarray(delta3, dtype=float), np.asarray(delta4, dtype=float))
    a = 2.0 * d - 1.0
    out = np.full(d3.shape, 2.0 * np.sqrt(6.0) * np.sqrt(a))
    rows = (d3 != 0.0) | (d4 != 0.0)
    d3, d4 = d3[rows], d4[rows]
    finite = np.isfinite(d3) & np.isfinite(d4)

    def poly(r, d3, d4):
        return a / r + r * (6.0 + r * (5.0 * d3 - (7.0 / 3.0) * (d4 * r)))

    r0 = curvature_floor_r0(d3, d4)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        companion = np.zeros(d3.shape + (4, 4))
        companion[..., [1, 2, 3], [0, 1, 2]] = 1.0
        companion[..., 0, 3] = np.where(finite, -7.0 * d4 / a, 0.0)
        companion[..., 1, 3] = np.where(finite, 10.0 * d3 / a, 0.0)
        companion[..., 2, 3] = 6.0 / a
        u = np.linalg.eigvals(companion).real
        r = np.minimum(np.concatenate([1.0 / u, r0[..., None]], axis=-1), r0[..., None])
        usable = (r > 0.0) & np.isfinite(r)
        vals = poly(np.where(usable, r, 1.0), d3[..., None], d4[..., None])
        floor = np.where(usable, vals, np.inf).min(axis=-1)
        flat = np.where(d4 == 0.0, 0.0, r0 * (1.0 + r0 * (d3 - (d4 * r0) / 3.0)))
    floor = np.where(np.isfinite(r0), np.minimum(floor, flat), floor)
    out[rows] = np.where(finite, floor, np.nan)
    return out


def _ray_batch(fit, model: TargetModel, e, rs):
    """``model.ray_batch`` on the one whitened direction S e, with nodes at ``rs``."""
    v = np.atleast_2d(np.asarray(e, dtype=float)) @ fit.sqrt_covariance
    return model.ray_batch(fit.theta_star, v, rs)


def delta3(fit, model: TargetModel, e) -> float:
    """Third ray derivative at the mode along the whitened direction ``S e``.

    ``audit``'s per-direction delta3, from a one-row ``ray_batch`` call. Odd
    in ``e``.
    """
    return float(_ray_batch(fit, model, e, np.zeros(1)).delta3[0])


def delta4(fit, model: TargetModel, e) -> float:
    """The model's proven bound on |fourth ray derivative| along ``S e``.

    Read from a one-row ``ray_batch`` call. A model that gives no bound
    raises AssumptionViolationError, and a negative bound ValueError.
    """
    bound = _ray_batch(fit, model, e, np.zeros(1)).delta4
    if bound is None:
        raise AssumptionViolationError("the model gives no fourth-derivative bound")
    if bound[0] < 0:
        raise ValueError("analytic fourth-derivative bound must be nonnegative")
    return float(bound[0])


def xi_elbo(fit, model: TargetModel, e, quadrature_nodes: int = QUADRATURE_NODES) -> float:
    """ELBO proxy for the log marginal of the direction variable along ``S e``.

    E over the chi radius law of r^2/2 - (phi_e(r) - phi_e(0)), by the
    ``chi_quadrature`` rule that ``audit`` uses; phi_e(0) is the fit's phi at
    the mode.
    """
    if quadrature_nodes < 16:
        raise ValueError("quadrature_nodes must be at least 16")
    rs, ws = chi_quadrature(fit.dim, quadrature_nodes)
    values = _ray_batch(fit, model, e, rs).values[0]
    if not np.all(np.isfinite(values)):
        raise NonFiniteObjectiveError("negative log-density non-finite along ray")
    return float((0.5 * rs * rs - (values - fit.neg_log_density_at_mode)) @ ws)


def conditional_curvature_profile(fit, model: TargetModel, e, zs) -> np.ndarray:
    """Exact curvature of the conditional z-law at each z.

    (2d-1)/z^2 + 2 phi_e'(z^2) + 4 z^2 phi_e''(z^2), with the ray derivatives
    taken along the whitened direction by ``model.ray_derivatives``.
    ``min_conditional_curvature`` must lower-bound the minimum of this
    profile.
    """
    zs = np.asarray(zs, dtype=float)
    if np.any(zs <= 0):
        raise ValueError("zs must be positive")
    v = fit.sqrt_covariance @ np.asarray(e, dtype=float)
    rs = zs * zs
    phi = model.ray_derivatives(fit.theta_star, v, rs, 2)
    return (2.0 * fit.dim - 1.0) / (zs * zs) + 2.0 * phi[..., 0] + 4.0 * zs * zs * phi[..., 1]
