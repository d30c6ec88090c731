"""Computable certificate for the KL divergence of a Laplace fit.

Everything here runs off two scalars per unit direction ``e``:

* ``delta3``: the third derivative of the negative log-density along the
  fit-whitened ray through the mode, evaluated at the mode;
* ``delta4``: a bound on the absolute fourth derivative along that ray.

From these the module derives, per direction, a positive curvature floor for
the conditional square-root-radius law, a bound on the conditional KL
divergence, and the ELBO proxy for the log marginal of the direction
variable. Averaging over sampled directions assembles two certificates:

* ``approximate_bound``: a closed-form coefficient times the empirical mean
  of ``delta3**2`` (third-derivative-only form);
* the detailed bound: empirical log-moment term of the centered ELBO values
  plus the conditional-KL corrections.

``audit`` wires the full pipeline (mode search, fit, curvature spot check,
direction sampling, assembly) into a reproducible report. It treats all
sampled directions at once: one ``TargetModel.ray_batch`` call gives delta3,
the analytic delta4 bound and the ray values on the quadrature nodes for
the whole (m x d) direction matrix, and the curvature floor, the
conditional-KL bound and the ELBO proxy are array expressions over it. The
curvature floor is minimized exactly, at the real roots of its derivative.
The one-direction helpers ``delta3``, ``delta4``, ``min_conditional_curvature``,
``conditional_kl_bound`` and ``xi_elbo`` run the same code on a single
direction. Only grid-mode delta4, a heuristic, loops over directions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import AssumptionViolationError, NonFiniteObjectiveError
from .laplace import LaplaceFit, fit_laplace, logconcavity_spotcheck
from .models import TargetModel
from .radial import chi_moment, chi_quadrature, chi_quantile, radial_min_curvature, sample_direction_pairs

_DIR_STREAM = 1
_LSI_STREAM = 5

DELTA4_GRID_POINTS = 512
# elements of each (blocks x directions) mask of the jackknife, which bounds
# its memory whatever the number of directions
JACKKNIFE_ELEMENTS = 1 << 18


def _ray_batch(model, fit: LaplaceFit, vs, rs=None):
    """The model's ``ray_batch`` along the rows of ``vs`` through the mode.

    Objects that are not ``TargetModel`` subclasses but have its scalar
    methods get the generic loop over them.
    """
    batch = getattr(model, "ray_batch", None)
    if batch is None:
        return TargetModel.ray_batch(model, fit.theta_star, vs, rs)
    return batch(fit.theta_star, vs, rs)


def _whiten(fit: LaplaceFit, es) -> np.ndarray:
    """Rows S e of the ray directions for unit directions e (one per row)."""
    return np.atleast_2d(np.asarray(es, dtype=float)) @ fit.sqrt_covariance


def delta3(fit: LaplaceFit, model: TargetModel, e) -> float:
    """Third ray derivative at the mode along the whitened direction ``S e``.

    Equals the full third-derivative tensor contracted three times with
    ``S e``, but is computed directly along the ray so the d^3 tensor is
    never materialized. Odd in ``e``.
    """
    return float(_ray_batch(model, fit, _whiten(fit, e)).delta3[0])


def _delta4s(model, fit: LaplaceFit, vs, analytic, mode: str, r_max: float | None):
    """delta4 along each row of ``vs`` and a flag per row.

    ``analytic`` is the model's bound from ``ray_batch`` (None if it has
    none); without it, or in grid mode, each row takes the grid maximum.
    """
    if mode not in ("analytic", "grid"):
        raise ValueError(f"delta4 mode must be 'analytic' or 'grid', got {mode!r}")
    if mode == "analytic" and analytic is not None:
        if np.any(analytic < 0):
            raise ValueError("analytic fourth-derivative bound must be nonnegative")
        return analytic, ["analytic"] * len(analytic)
    if r_max is None:
        r_max = chi_quantile(fit.dim, 1.0 - 1e-6)
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    rs = np.linspace(0.0, r_max, DELTA4_GRID_POINTS)
    values = [
        np.max(np.abs(model.ray_derivative_profile(fit.theta_star, v, rs, order=4))) for v in vs
    ]
    return np.array(values, dtype=float), ["grid"] * len(values)


def delta4(fit: LaplaceFit, model: TargetModel, e, r_max: float | None = None,
           mode: str = "analytic"):
    """Bound on |fourth ray derivative| along ``S e``.

    Prefers the model's analytic global bound when available; otherwise takes
    the max over a 512-point grid on [0, r_max] (r_max defaulting to the
    1 - 1e-6 chi quantile). The grid value is a heuristic stand-in for the
    unbounded maximum and is flagged as such.

    Returns
    -------
    (value, flag) with flag in {"analytic", "grid"}.
    """
    vs = _whiten(fit, e)
    values, flags = _delta4s(model, fit, vs, _ray_batch(model, fit, vs).delta4, mode, r_max)
    return float(values[0]), flags[0]


def _curvature_floor_poly(r, d, d3, d4):
    # lower bound for the conditional curvature, written in r = z^2; Horner
    # form keeps intermediates finite for the extreme r the degenerate
    # (d4 ~ 0) corner produces
    return (2.0 * d - 1.0) / r + r * (6.0 + r * (5.0 * d3 - (7.0 / 3.0) * (d4 * r)))


def _curvature_floors(d: int, d3, d4, boundary_term: str) -> np.ndarray:
    """``min_conditional_curvature`` for arrays of delta3 and delta4 values.

    The floor's stationary points on r > 0 are the positive real roots of
    -7 d4 r^4 + 10 d3 r^3 + 6 r^2 - (2d-1). In u = 1/r that polynomial is,
    up to a factor, the monic u^4 - (6/a) u^2 - (10 d3/a) u + 7 d4/a with
    a = 2d - 1, whatever the values of d3 and d4, so the roots of all rows
    come from one batched eigenvalue solve of its companion matrices. The
    minimum over (0, r0] is then taken over those roots and r0 itself.
    Evaluating the floor at a point of (0, r0] never undercuts that
    minimum, so every root's real part is tried, clipped to r0. Rows with a
    non-finite input get NaN.
    """
    d3 = np.asarray(d3, dtype=float)
    d4 = np.asarray(d4, dtype=float)
    a = 2.0 * d - 1.0
    finite = np.isfinite(d3) & np.isfinite(d4)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # r0 solves 1 + delta3 r - delta4 r^2/2 = 0; rationalized form is
        # stable for either sign of delta3
        r0 = np.where(
            d4 == 0.0,
            np.where(d3 > 0.0, np.inf, -1.0 / d3),
            2.0 / (np.sqrt(d3 * d3 + 2.0 * d4) - d3),
        )
        companion = np.zeros(d3.shape + (4, 4))
        companion[..., [1, 2, 3], [0, 1, 2]] = 1.0
        companion[..., 0, 3] = np.where(finite, -7.0 * d4 / a, 0.0)
        companion[..., 1, 3] = np.where(finite, 10.0 * d3 / a, 0.0)
        companion[..., 2, 3] = 6.0 / a
        u = np.linalg.eigvals(companion).real
        r = np.minimum(np.concatenate([1.0 / u, r0[..., None]], axis=-1), r0[..., None])
        usable = (r > 0.0) & np.isfinite(r)
        vals = _curvature_floor_poly(
            np.where(usable, r, 1.0), d, d3[..., None], d4[..., None]
        )
        floor = np.where(usable, vals, np.inf).min(axis=-1)

        # flat floor beyond r0, from monotonicity
        flat = np.where(
            d4 == 0.0,
            # delta3 < 0 here; 1 + delta3 r0 = 0 exactly, the flat floor degenerates
            0.0,
            # factored form of r0 + delta3 r0^2 - delta4 r0^3/3; delta4*r0 and
            # delta3*r0 stay bounded even when r0 is astronomically large
            r0 * (1.0 + r0 * (d3 - (d4 * r0) / 3.0)),
        )
    if boundary_term == "derivation":
        flat = flat + r0
    floor = np.where(np.isfinite(r0), np.minimum(floor, flat), floor)
    floor = np.where(finite, floor, np.nan)
    return np.where((d3 == 0.0) & (d4 == 0.0), radial_min_curvature(d), floor)


def min_conditional_curvature(
    d: int, delta3: float, delta4: float, boundary_term: str = "lemma"
) -> float:
    """Lower bound on the minimum curvature of the conditional z-law.

    Combines the polynomial floor (2d-1)/z^2 + 6 z^2 + 5*delta3*z^4
    - (7/3)*delta4*z^6 over the region where the quadratic Taylor control of
    the ray still gives information (z^2 <= r0), minimized exactly at the
    roots of its derivative, with a flat floor beyond r0 derived from
    monotonicity. ``boundary_term="derivation"`` switches the flat floor
    from r0 + delta3 r0^2 - delta4 r0^3/3 to the larger
    2 r0 + delta3 r0^2 - delta4 r0^3/3; the smaller default is conservative.

    A nonpositive return value means the Taylor control is too weak for this
    direction; callers must flag the direction as outside the certificate's
    validity range.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if delta4 < 0:
        raise ValueError("delta4 must be nonnegative")
    if boundary_term not in ("lemma", "derivation"):
        raise ValueError("boundary_term must be 'lemma' or 'derivation'")
    return float(_curvature_floors(d, np.array([delta3]), np.array([delta4]), boundary_term)[0])


def _conditional_kl(d: int, delta3, delta4, min_curvature):
    numerator = (
        delta3 * delta3 * chi_moment(d, 5)
        + (2.0 / 3.0) * np.abs(delta3) * delta4 * chi_moment(d, 6)
        + (1.0 / 9.0) * delta4 * delta4 * chi_moment(d, 7)
    )
    return numerator / min_curvature


def conditional_kl_bound(d: int, delta3: float, delta4: float, min_curvature: float) -> float:
    """Bound on the conditional KL divergence of the z-law for one direction.

    (delta3^2 E[r^5] + (2/3)|delta3| delta4 E[r^6] + (1/9) delta4^2 E[r^7])
    divided by the curvature floor, with chi moments of the reference radius.
    """
    if min_curvature <= 0:
        raise ValueError("min_curvature must be positive (direction invalid otherwise)")
    if delta4 < 0:
        raise ValueError("delta4 must be nonnegative")
    return float(_conditional_kl(d, delta3, delta4, min_curvature))


def _xi_values(fit: LaplaceFit, values, quadrature_nodes: int) -> np.ndarray:
    """ELBO proxy per row of ray values on the chi quadrature nodes."""
    rs, ws = chi_quadrature(fit.dim, quadrature_nodes)
    integrand = 0.5 * rs * rs - (values - fit.neg_log_density_at_mode)
    return integrand @ ws


def xi_elbo(fit: LaplaceFit, model: TargetModel, e, quadrature_nodes: int = 64) -> float:
    """ELBO proxy for the log marginal of the direction variable.

    Computes E over the chi radius law of r^2/2 - (phi_e(r) - phi_e(0)) by
    fixed-node quadrature; the phi_e(0) shift removes the direction-free
    constant, which cancels in every centered quantity downstream.
    """
    if quadrature_nodes < 16:
        raise ValueError("quadrature_nodes must be at least 16")
    rs, _ = chi_quadrature(fit.dim, quadrature_nodes)
    values = _ray_batch(model, fit, _whiten(fit, e), rs).values
    if not np.all(np.isfinite(values)):
        raise NonFiniteObjectiveError("negative log-density non-finite along ray")
    return float(_xi_values(fit, values, quadrature_nodes)[0])


def eps2_bound(d: int, delta4):
    """Bound on the third-order remainder of the ELBO proxy: delta4 E[r^4]/24.

    Takes one delta4 value or an array of them.
    """
    if np.any(np.asarray(delta4) < 0):
        raise ValueError("delta4 must be nonnegative")
    return delta4 * chi_moment(d, 4) / 24.0


def conditional_curvature_profile(fit: LaplaceFit, model: TargetModel, e, zs) -> np.ndarray:
    """Exact curvature of the conditional z-law at each z (diagnostic helper).

    (2d-1)/z^2 + 2 phi_e'(z^2) + 4 z^2 phi_e''(z^2), with the ray derivatives
    taken along the whitened direction. ``min_conditional_curvature`` must
    lower-bound the minimum of this profile.
    """
    zs = np.asarray(zs, dtype=float)
    if np.any(zs <= 0):
        raise ValueError("zs must be positive")
    e = np.asarray(e, dtype=float)
    v = fit.sqrt_covariance @ e
    rs = zs * zs
    phi1 = model.ray_derivative_profile(fit.theta_star, v, rs, order=1)
    phi2 = model.ray_derivative_profile(fit.theta_star, v, rs, order=2)
    return (2.0 * fit.dim - 1.0) / (zs * zs) + 2.0 * phi1 + 4.0 * zs * zs * phi2


@dataclass(frozen=True)
class DirectionDiagnostics:
    """Per-direction scalars feeding the assembled bounds."""

    e: np.ndarray
    delta3: float
    delta4: float
    delta4_mode: str
    min_curvature: float
    cond_kl_bound: float
    xi_elbo: float
    eps1_bound: float
    eps2_bound: float
    valid: bool


@dataclass(frozen=True)
class DirectionKlTerms:
    """Monte-Carlo estimates of the direction-variable KL terms.

    ``log_moment_term`` is the empirical half-log-moment of the centered
    ELBO values; ``eps1_correction`` is E[(eps1 bound)^2] + E[eps1 bound],
    split into ``eps1_sq_term`` and ``cond_term``. Standard errors are
    jackknife estimates over direction blocks.
    """

    log_moment_term: float
    log_moment_term_se: float
    eps1_correction: float
    eps1_correction_se: float
    eps1_sq_term: float
    cond_term: float


def _log_moment(xis: np.ndarray) -> float:
    centered = 2.0 * (xis - xis.mean())
    return 0.5 * float(logsumexp(centered) - np.log(xis.shape[0]))


def _jackknife_se(loo: np.ndarray) -> float:
    n_blocks = loo.shape[0]
    return float(np.sqrt((n_blocks - 1) / n_blocks * np.sum((loo - loo.mean()) ** 2)))


def direction_kl_bound(diagnostics, pair_size: int = 1) -> DirectionKlTerms:
    """Assemble the direction-variable KL terms from per-direction diagnostics.

    Requires at least two diagnostics, none flagged invalid. ``pair_size``
    declares the antithetic block structure so the jackknife respects the
    dependence inside each block.
    """
    diags = list(diagnostics)
    if len(diags) < 2:
        raise ValueError("need at least two direction diagnostics")
    if any(not g.valid for g in diags):
        raise ValueError("invalid directions must be filtered out by the caller")
    m = len(diags)
    if pair_size < 1 or m % pair_size != 0:
        raise ValueError("pair_size must evenly divide the number of diagnostics")
    xis = np.array([g.xi_elbo for g in diags])
    eps1 = np.array([g.eps1_bound for g in diags])

    log_moment = _log_moment(xis)
    eps1_sq_term = float(np.mean(eps1**2))
    cond_term = float(np.mean(eps1))

    n_blocks = m // pair_size
    log_moment_se = eps1_se = float("nan")
    if n_blocks >= 2:
        kept = m - pair_size
        loo_log_moment = np.empty(n_blocks)
        loo_eps1 = np.empty(n_blocks)
        step = max(1, JACKKNIFE_ELEMENTS // m)
        for lo in range(0, n_blocks, step):
            rows = slice(lo, min(lo + step, n_blocks))
            # row j of ``keep`` leaves out block lo + j, so each reduction
            # along a row is one leave-one-block-out estimate
            keep = np.arange(m) // pair_size != np.arange(rows.start, rows.stop)[:, None]
            loo_mean = np.where(keep, xis, 0.0).sum(axis=1) / kept
            centered = np.where(keep, 2.0 * (xis - loo_mean[:, None]), -np.inf)
            loo_log_moment[rows] = 0.5 * (logsumexp(centered, axis=1) - np.log(kept))
            sub = np.where(keep, eps1, 0.0)
            loo_eps1[rows] = (sub * sub).sum(axis=1) / kept + sub.sum(axis=1) / kept
        log_moment_se = _jackknife_se(loo_log_moment)
        eps1_se = _jackknife_se(loo_eps1)

    return DirectionKlTerms(
        log_moment_term=log_moment,
        log_moment_term_se=log_moment_se,
        eps1_correction=eps1_sq_term + cond_term,
        eps1_correction_se=eps1_se,
        eps1_sq_term=eps1_sq_term,
        cond_term=cond_term,
    )


def approximate_bound_coefficient(d: int) -> float:
    """Dimension coefficient of the third-derivative-only certificate.

    2/(sqrt(3) sqrt(2d-1)) * Gamma((d+5)/2)/Gamma(d/2)
    + (1/9) * (Gamma((d+3)/2)/Gamma(d/2))^2, gamma ratios via log-gamma.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g5 = math.exp(gammaln(0.5 * (d + 5)) - gammaln(0.5 * d))
    g3 = math.exp(gammaln(0.5 * (d + 3)) - gammaln(0.5 * d))
    return 2.0 / (math.sqrt(3.0) * math.sqrt(2.0 * d - 1.0)) * g5 + g3 * g3 / 9.0


def approximate_bound(mean_delta3_sq: float, d: int) -> float:
    """Third-derivative-only KL certificate: coefficient(d) * E[delta3^2]."""
    if mean_delta3_sq < 0:
        raise ValueError("mean_delta3_sq must be nonnegative")
    return mean_delta3_sq * approximate_bound_coefficient(d)


@dataclass(frozen=True)
class AuditConfig:
    """Settings for the end-to-end certificate pipeline."""

    n_directions: int = 256
    quadrature_nodes: int = 64
    seed: int = 0
    delta4_mode: str = "analytic"
    delta4_r_max: float | None = None
    bound_form: str = "both"
    boundary_term: str = "lemma"
    spotcheck_points: int = 32
    spotcheck_radius: float = 3.0
    map_tol: float = 1e-10
    map_max_iter: int = 500

    def validate(self) -> None:
        if self.n_directions < 2 or self.n_directions % 2 != 0:
            raise ValueError("n_directions must be an even integer >= 2")
        if self.quadrature_nodes < 16:
            raise ValueError("quadrature_nodes must be at least 16")
        if self.delta4_mode not in ("analytic", "grid"):
            raise ValueError("delta4_mode must be 'analytic' or 'grid'")
        if self.bound_form not in ("approx", "detailed", "both"):
            raise ValueError("bound_form must be 'approx', 'detailed' or 'both'")
        if self.boundary_term not in ("lemma", "derivation"):
            raise ValueError("boundary_term must be 'lemma' or 'derivation'")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
    """Assembled certificate values with per-term breakdown and provenance."""

    d: int
    n_directions: int
    seed: int
    mean_delta3_sq: float
    se_delta3_sq: float
    approx_bound: float | None
    detailed_bound: float | None
    e_term: float | None
    e_term_se: float | None
    cond_term: float | None
    eps1_term: float | None
    eps1_correction_se: float | None
    invalid_directions: int
    delta4_mode_counts: dict
    spotcheck: dict
    fit_summary: dict
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n_directions": self.n_directions,
            "mean_delta3_sq": self.mean_delta3_sq,
            "se_delta3_sq": self.se_delta3_sq,
            "approx_bound": self.approx_bound,
            "detailed_bound": self.detailed_bound,
            "term_breakdown": {
                "e_term": self.e_term,
                "cond_term": self.cond_term,
                "eps1_term": self.eps1_term,
            },
            "term_standard_errors": {
                "e_term_se": self.e_term_se,
                "eps1_correction_se": self.eps1_correction_se,
            },
            "invalid_directions": self.invalid_directions,
            "delta4_mode_counts": self.delta4_mode_counts,
            "spotcheck": self.spotcheck,
            "fit": self.fit_summary,
            "config": self.config,
            "seed": self.seed,
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle)
            handle.write("\n")


def audit(model: TargetModel, config: AuditConfig | None = None,
          fit: LaplaceFit | None = None) -> BoundReport:
    """Run the full certificate pipeline on one target.

    Mode search, Hessian factorization, curvature spot check, antithetic
    direction sampling, per-direction diagnostics, and assembly of the
    requested bound forms. Deterministic given the config seed; per-direction
    work is independent and reduced in fixed index order.

    Directions whose curvature floor is nonpositive are excluded from the
    detailed bound and counted in ``invalid_directions``; if every direction
    is invalid an AssumptionViolationError carries the partial report data.
    """
    config = config or AuditConfig()
    config.validate()
    if fit is None:
        fit = fit_laplace(model, tol=config.map_tol, max_iter=config.map_max_iter)
    spot = logconcavity_spotcheck(
        model, fit, config.spotcheck_points, config.spotcheck_radius, config.seed
    )
    d = model.dim
    need_detailed = config.bound_form in ("detailed", "both")
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_DIR_STREAM,)))
    directions = sample_direction_pairs(d, config.n_directions // 2, rng)

    vs = _whiten(fit, directions)
    rs = chi_quadrature(d, config.quadrature_nodes)[0] if need_detailed else None
    batch = _ray_batch(model, fit, vs, rs)
    d3 = batch.delta3
    d4, d4_modes = _delta4s(model, fit, vs, batch.delta4, config.delta4_mode, config.delta4_r_max)
    # on an exactly quadratic ray every diagnostic has its exact limit
    exact = (d3 == 0.0) & (d4 == 0.0)
    mc = _curvature_floors(d, d3, d4, config.boundary_term)
    valid = mc > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ckl = np.where(valid, _conditional_kl(d, d3, d4, mc), np.nan)
        xi = np.full(d3.shape, np.nan)
        if need_detailed:
            finite = np.all(np.isfinite(batch.values), axis=1)
            xi = _xi_values(fit, batch.values, config.quadrature_nodes)
            xi = np.where(exact, 0.0, np.where(finite, xi, np.nan))
            valid &= exact | finite
    diags = [
        DirectionDiagnostics(
            e=e,
            delta3=g3,
            delta4=g4,
            delta4_mode=flag,
            min_curvature=floor,
            cond_kl_bound=kl,
            xi_elbo=x,
            eps1_bound=kl,
            eps2_bound=e2,
            valid=ok,
        )
        for e, g3, g4, flag, floor, kl, x, e2, ok in zip(
            directions, d3.tolist(), d4.tolist(), d4_modes, mc.tolist(), ckl.tolist(),
            xi.tolist(), eps2_bound(d, d4).tolist(), valid.tolist(),
        )
    ]

    delta3_sq = d3 * d3
    pair_vals = delta3_sq[0::2]
    mean_delta3_sq = float(delta3_sq.mean())
    n_pairs = pair_vals.shape[0]
    se_delta3_sq = (
        float(np.std(pair_vals, ddof=1) / np.sqrt(n_pairs)) if n_pairs > 1 else float("nan")
    )

    approx = None
    if config.bound_form in ("approx", "both"):
        approx = approximate_bound(mean_delta3_sq, d)

    detailed = e_term = e_term_se = cond_term = eps1_term = eps1_se = None
    invalid = sum(1 for g in diags if not g.valid)
    mode_counts: dict = {}
    for g in diags:
        mode_counts[g.delta4_mode] = mode_counts.get(g.delta4_mode, 0) + 1
    if need_detailed:
        valid_diags = [g for g in diags if g.valid]
        if len(valid_diags) < 2:
            raise AssumptionViolationError(
                "all sampled directions fall outside the certificate's validity range",
                details={
                    "invalid_directions": invalid,
                    "n_directions": config.n_directions,
                    "mean_delta3_sq": mean_delta3_sq,
                },
            )
        pair_size = 2 if invalid == 0 else 1
        terms = direction_kl_bound(valid_diags, pair_size=pair_size)
        e_term = terms.log_moment_term
        e_term_se = terms.log_moment_term_se
        cond_term = terms.cond_term
        eps1_term = terms.eps1_sq_term
        eps1_se = terms.eps1_correction_se
        detailed = e_term + eps1_term + cond_term

    report = BoundReport(
        d=d,
        n_directions=config.n_directions,
        seed=config.seed,
        mean_delta3_sq=mean_delta3_sq,
        se_delta3_sq=se_delta3_sq,
        approx_bound=approx,
        detailed_bound=detailed,
        e_term=e_term,
        e_term_se=e_term_se,
        cond_term=cond_term,
        eps1_term=eps1_term,
        eps1_correction_se=eps1_se,
        invalid_directions=invalid,
        delta4_mode_counts=mode_counts,
        spotcheck={
            "n_points": spot.n_points,
            "radius_multiplier": spot.radius_multiplier,
            "n_failures": spot.n_failures,
            "min_eigenvalue": spot.min_eigenvalue,
        },
        fit_summary={
            "grad_norm": fit.grad_norm,
            "iterations": fit.iterations,
            "log_det_sigma": fit.log_det_covariance,
        },
        config=config.to_json_dict(),
    )
    for value in (report.mean_delta3_sq, report.approx_bound, report.detailed_bound):
        if value is not None and not np.isfinite(value):
            raise AssumptionViolationError(
                "non-finite value in assembled bound report",
                details={"report": report.to_json_dict()},
            )
    return report


@dataclass(frozen=True)
class LsiBound:
    """Strong-log-concavity KL bound estimate with its Monte-Carlo error."""

    value: float
    standard_error: float
    n_samples: int


def lsi_kl_bound(
    fit: LaplaceFit,
    model: TargetModel,
    beta: float,
    n_samples: int = 4096,
    seed: int = 0,
) -> LsiBound:
    """Direct KL bound for beta-strongly log-concave targets.

    (1/(2 beta)) E_g ||grad phi_f - grad phi_g||^2, estimated over draws from
    the fit. The caller asserts beta-strong convexity of the negative
    log-density; for the logistic posterior beta = sigma0^-2 holds globally.
    Practically loose, provided as the baseline the direction-based
    certificate improves on.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_LSI_STREAM,)))
    eta = rng.standard_normal((n_samples, fit.dim))
    thetas = fit.theta_star + eta @ fit.sqrt_covariance
    diff = model.gradient_many(thetas) - (thetas - fit.theta_star) @ fit.hessian_at_mode
    sq = np.einsum("ij,ij->i", diff, diff)
    value = float(sq.mean() / (2.0 * beta))
    se = float(np.std(sq, ddof=1) / np.sqrt(n_samples) / (2.0 * beta))
    return LsiBound(value=value, standard_error=se, n_samples=n_samples)
