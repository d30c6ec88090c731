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

``audit`` wires the full pipeline (mode search, fit, log-concavity check,
direction sampling, assembly) into a reproducible report that carries both
certificates, since both come from the same direction pass; the detailed one
needs the model's proven delta4 bound, and without one the report has no
detailed certificate. Log-concavity is proven when the model gives
``hessian_eigenvalue_floor`` (both built-ins do), and otherwise sampled by
``logconcavity_spotcheck``. It treats all m sampled directions, one normal
draw, in O(m) array passes: ``_direction_pass``, which the truth's
``estimate_kl`` shares, gives delta3, the delta4 bound and the ELBO proxy of
the (m x d) direction matrix from one ``ray_batch`` call; the curvature floor
and the conditional-KL bound are array expressions over it
(``min_conditional_curvature`` and ``conditional_kl_bound`` take one value or
an array); each standard error is ``_mean_se`` over equal-weight block
values. No step loops over directions. The curvature floor's minimum is found
per row by a shape argument on its derivative and one vectorized, monotone
Newton loop, with no eigenvalue solve.

The model must be a ``TargetModel`` subclass: the direction pass reaches it
only through ``ray_batch``, which the base class builds from the scalar hooks
when a model has no array form of its own.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AssumptionViolationError, _check_integer
from .laplace import LaplaceFit, fit_laplace, logconcavity_spotcheck
from .models import TargetModel
from .radial import (
    QUADRATURE_NODES,
    _stream_rng,
    chi_moment,
    chi_quadrature,
    radial_min_curvature,
    sample_direction_pairs,
)


def json_ready(value):
    """``value`` with each non-finite float in it, at any depth, written as None.

    The one rule from a result to JSON, which has no NaN or infinity: every
    ``to_json_dict`` returns through it, and ``csv_text`` writes its values.
    Tuples become lists, as ``json.dumps`` writes them anyway, and a numpy
    scalar (integer, floating or bool) becomes its Python value.
    """
    if isinstance(value, dict):
        return {key: json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def csv_text(rows) -> str:
    """Rows of ``json_ready`` values as CSV, the one dialect of every command.

    A null is NA, a list its JSON, anything else ``str()``: a float in its
    shortest round-trip form. A cell with a comma or a quote is quoted.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        ["NA" if v is None else json.dumps(v) if isinstance(v, list) else str(v) for v in row]
        for row in rows
    )
    return buf.getvalue()


def _logsumexp(values) -> float:
    """log(sum(exp(values))) of a finite 1-d array, taken around its maximum."""
    top = np.max(values)
    return float(top + np.log(np.sum(np.exp(values - top))))


def _mean_se(values: np.ndarray) -> float:
    """Standard error sqrt(var(ddof=1) / n) of the mean of n equal-weight values.

    The one standard-error rule of the certificate and the truth. The
    variance is taken around the first value, so equal values give exactly
    0; fewer than two values give NaN. Squared deviations past the float
    range give inf, without a warning, for the caller to refuse.
    """
    n = values.shape[0]
    with np.errstate(over="ignore"):
        return float(np.sqrt((values - values[0]).var(ddof=1) / n)) if n > 1 else math.nan


def _curvature_floor_poly(r, d, d3, d4):
    # lower bound for the conditional curvature, written in r = z^2; Horner
    # form keeps intermediates finite for the extreme r the degenerate
    # (d4 ~ 0) corner produces
    return (2.0 * d - 1.0) / r + r * (6.0 + r * (5.0 * d3 - (7.0 / 3.0) * (d4 * r)))


def _positive_root(c, beta, a):
    """The positive root of c + 2 beta r - a r^2 (c > 0, a >= 0), inf if a = 0 < beta.

    Each row takes the form in which no two terms of like size and opposite
    sign meet: (beta + s) / a when beta > 0, c / (s - beta) otherwise, with
    s = sqrt(beta^2 + a c). Callers ignore the division warnings.
    """
    s = np.sqrt(beta * beta + a * c)
    return np.where(beta > 0.0, (beta + s) / a, c / (s - beta))


def min_conditional_curvature(d: int, delta3, delta4):
    """Lower bound on the minimum curvature of the conditional z-law.

    Combines the polynomial floor (2d-1)/z^2 + 6 z^2 + 5*delta3*z^4
    - (7/3)*delta4*z^6 over the region where the quadratic Taylor control of
    the ray still gives information (z^2 <= r0), with the lemma's flat floor
    r0 + delta3 r0^2 - delta4 r0^3/3 beyond r0, derived from monotonicity.

    Takes one (delta3, delta4) pair or arrays of them, and returns a float
    or an array to match. In r = z^2 the polynomial floor is
    F(r) = a/r + 6 r + 5 d3 r^2 - (7/3) d4 r^3, with a = 2d - 1. Its
    derivative times r^2, q(r) = -a + 6 r^2 + 10 d3 r^3 - 7 d4 r^4, has
    derivative r (12 + 30 d3 r - 28 d4 r^2), which for d4 >= 0 is positive
    below the one positive root rho of that quadratic (rho = inf when
    d4 = 0 <= d3) and negative above it. So q, starting at q(0) = -a < 0,
    crosses zero at most once below rho, at r1: F falls on (0, r1), rises up
    to q's next root beyond rho and falls after it, and its minimum over
    (0, r0] lies at r1 or at r0. At r0 the flat floor is F(r0) - a/r0 - r0,
    so r0 needs no polynomial value, and a row with F'(min(rho, r0)) <= 0,
    where F falls on all of (0, r0], takes the flat floor alone.

    The other rows find r1 by Newton's method on F', which is concave (its
    second derivative is -14 d4 - 6a/r^4) and rising below r1. The start
    x0 = min(sqrt(a/12), cbrt(a / (20 max(d3, 0)))) lies at or below r1:
    q(r) <= -a + 6 r^2 + 10 max(d3, 0) r^3, a bound that rises with r and
    is at most -a + a/2 + a/2 = 0 at x0. A concave function lies below its
    tangents, so each iterate stays at or below r1 while it climbs, and the
    loop stops once no row's iterate rises. There is no eigenvalue solve,
    or any other LAPACK call. r0 and rho come from one root rule,
    ``_positive_root``, which takes each row's quadratic formula in its
    cancellation-free form. Rows with a non-finite input get NaN, and rows
    with delta3 = delta4 = 0 get ``radial_min_curvature(d)`` without a
    solve; a call with no other row returns before any array work.

    A nonpositive value means the Taylor control is too weak for this
    direction; callers must flag the direction as outside the certificate's
    validity range.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if np.any(np.asarray(delta4) < 0):
        raise ValueError("delta4 must be nonnegative")
    d3, d4 = np.broadcast_arrays(np.asarray(delta3, dtype=float), np.asarray(delta4, dtype=float))
    out = np.full(d3.shape, radial_min_curvature(d))
    rows = (d3 != 0.0) | (d4 != 0.0)
    if not rows.any():
        return float(out) if out.ndim == 0 else out
    d3, d4 = d3[rows], d4[rows]
    a = 2.0 * d - 1.0
    finite = np.isfinite(d3) & np.isfinite(d4)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # r0 solves 1 + delta3 r - delta4 r^2/2 = 0, rho 12 + 30 delta3 r
        # - 28 delta4 r^2 = 0; both are inf when delta4 = 0 < delta3
        r0 = _positive_root(1.0, 0.5 * d3, 0.5 * d4)
        rho = _positive_root(12.0, 15.0 * d3, 28.0 * d4)

        def slope(r):
            return 6.0 + r * (10.0 * d3 - 7.0 * d4 * r) - a / (r * r)

        # rho = r0 = inf only when delta4 = 0 < delta3, where F' rises for ever
        edge = np.minimum(rho, r0)
        interior = finite & (np.isinf(edge) | (slope(edge) > 0.0))
        start = np.minimum(np.sqrt(a / 12.0), np.where(d3 > 0.0, np.cbrt(a / (20.0 * d3)), np.inf))
        r1 = np.where(interior, start, 1.0)
        while True:
            bend = 10.0 * d3 - 14.0 * d4 * r1 + 2.0 * a / (r1 * r1 * r1)
            step = r1 - slope(r1) / bend
            rising = interior & (step > r1)
            if not rising.any():
                break
            r1 = np.where(rising, step, r1)
        floor = np.where(interior, _curvature_floor_poly(r1, d, d3, d4), np.inf)

        # flat floor beyond r0, from monotonicity
        flat = np.where(
            d4 == 0.0,
            # delta3 < 0 here; 1 + delta3 r0 = 0 exactly, the flat floor degenerates
            0.0,
            # factored form of r0 + delta3 r0^2 - delta4 r0^3/3; delta4*r0 and
            # delta3*r0 stay bounded even when r0 is astronomically large
            r0 * (1.0 + r0 * (d3 - (d4 * r0) / 3.0)),
        )
    floor = np.where(np.isfinite(r0), np.minimum(floor, flat), floor)
    out[rows] = np.where(finite, floor, np.nan)
    return float(out) if out.ndim == 0 else out


def conditional_kl_bound(d: int, delta3, delta4, min_curvature):
    """Bound on the conditional KL divergence of the z-law for one direction.

    (delta3^2 E[r^5] + (2/3)|delta3| delta4 E[r^6] + (1/9) delta4^2 E[r^7])
    divided by the curvature floor, with chi moments of the reference radius.
    Takes one direction's values or arrays of them, and returns a float or an
    array to match.
    """
    if np.any(np.asarray(min_curvature) <= 0):
        raise ValueError("min_curvature must be positive (direction invalid otherwise)")
    if np.any(np.asarray(delta4) < 0):
        raise ValueError("delta4 must be nonnegative")
    numerator = (
        delta3 * delta3 * chi_moment(d, 5)
        + (2.0 / 3.0) * np.abs(delta3) * delta4 * chi_moment(d, 6)
        + (1.0 / 9.0) * delta4 * delta4 * chi_moment(d, 7)
    )
    value = numerator / min_curvature
    return float(value) if np.ndim(value) == 0 else value


def _direction_pass(model: TargetModel, fit: LaplaceFit, n_pairs, seed, stream, nodes):
    """The direction pass of the certificate and the truth: ``(vs, rs, batch, xi)``.

    ``n_pairs`` antithetic pairs from ``radial._stream_rng(seed, stream)``,
    whitened by S, are the rows of ``vs``; one ``model.ray_batch`` call
    evaluates phi on the ``nodes``-node Gauss-chi rule ``rs``. ``xi`` is the
    ELBO proxy per direction: NaN on a row with a non-finite ray value, and
    the exact limit 0, without its values, on a row with delta3 = delta4 = 0,
    whose ray is phi* + r^2 / 2; a ``batch`` with no delta4 bound has no such row.
    """
    vs = sample_direction_pairs(fit.dim, n_pairs, _stream_rng(seed, stream)) @ fit.sqrt_covariance
    rs, ws = chi_quadrature(fit.dim, nodes)
    batch = model.ray_batch(fit.theta_star, vs, rs)
    finite = np.all(np.isfinite(batch.values), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = (0.5 * rs * rs - (batch.values - fit.neg_log_density_at_mode)) @ ws
    xi = np.where(finite, xi, np.nan)
    if batch.delta4 is not None:
        xi = np.where((batch.delta3 == 0.0) & (batch.delta4 == 0.0), 0.0, xi)
    return vs, rs, batch, xi


@dataclass(frozen=True)
class DirectionKlTerms:
    """Monte-Carlo estimates of the direction-variable KL terms, named as in ``BoundReport``.

    ``e_term`` is the empirical half-log-moment of the centered ELBO values,
    ``eps1_term`` E[(eps1 bound)^2] and ``cond_term`` E[eps1 bound].
    ``e_term_se`` and ``eps1_correction_se`` (of ``eps1_term + cond_term``)
    are block-jackknife standard errors, by the rule of ``_mean_se``.
    """

    e_term: float
    e_term_se: float
    eps1_term: float
    cond_term: float
    eps1_correction_se: float


# the terms of a model with no fourth-derivative bound: no detailed certificate
_NO_DETAILED_TERMS = DirectionKlTerms(*[math.nan] * 5)


def direction_kl_bound(xis, eps1, pair_size: int = 1) -> DirectionKlTerms:
    """Assemble the direction-variable KL terms over the valid directions.

    ``xis`` holds the ELBO proxy and ``eps1`` the conditional-KL bound of
    each direction; invalid directions must be left out by the caller.
    Requires at least two directions, finite ``xis`` and finite eps1^2, whose
    mean and standard error must not overflow either: each is a ValueError,
    raised before any overflow warning. ``pair_size`` declares the antithetic
    block structure so the standard errors respect the dependence inside
    each block.

    Both standard errors follow ``_mean_se``, so equal blocks give exactly 0.
    ``eps1_correction_se`` is it over the block means of eps1^2 + eps1;
    ``e_term_se``, the block jackknife of the log-moment, is (blocks - 1)
    times it over the estimates without each block: the full column means
    less the block's centred sums / kept, or, for a block holding over half
    of exp(2 (xi - max xi)), a log-sum-exp of the rest.
    """
    xis = np.asarray(xis, dtype=float)
    eps1 = np.asarray(eps1, dtype=float)
    if xis.ndim != 1 or xis.shape != eps1.shape:
        raise ValueError("xis and eps1 must be 1-d arrays of the same length")
    m = xis.shape[0]
    if m < 2:
        raise ValueError("need at least two directions")
    with np.errstate(over="ignore"):  # an overflow is refused next, before it can warn
        eps1_sq = eps1 * eps1
        eps1_term = float(np.mean(eps1_sq))
    if not (np.all(np.isfinite(xis)) and np.all(np.isfinite(eps1_sq))):
        raise ValueError("xis and eps1^2 must be finite (leave invalid directions out)")
    if pair_size < 1 or m % pair_size != 0:
        raise ValueError("pair_size must evenly divide the number of directions")
    n_blocks = m // pair_size
    eps1_se = math.inf
    if math.isfinite(eps1_term):  # then every block mean is finite too
        eps1_se = _mean_se((eps1_sq + eps1).reshape(n_blocks, pair_size).mean(axis=1))
    if math.isinf(eps1_se):
        raise ValueError("the mean of eps1^2 or its standard error overflows")

    # centered on the maximum, which is exact, so constant xis give exactly 0
    shifted = xis - xis.max()
    exps = np.exp(2.0 * shifted)
    mean_exp, mean_shifted = exps.mean(), shifted.mean()
    e_term = float(0.5 * np.log(mean_exp) - mean_shifted)
    cond_term = float(np.mean(eps1))

    e_term_se = math.nan
    if n_blocks >= 2:
        kept = m - pair_size
        # a block's centred sum over kept is the full mean less the mean without it
        exps_out = (exps - mean_exp).reshape(n_blocks, pair_size).sum(axis=1) / kept
        shifted_out = (shifted - mean_shifted).reshape(n_blocks, pair_size).sum(axis=1) / kept
        # the jackknife needs each estimate only up to a shared constant; log1p
        # cancels only for a block that holds over half of the sum, replaced next
        with np.errstate(divide="ignore", invalid="ignore"):
            loo = 0.5 * np.log1p(-exps_out / mean_exp) + shifted_out
        b = int(np.argmax(xis)) // pair_size
        top = np.s_[b * pair_size:(b + 1) * pair_size]
        if 2.0 * exps[top].sum() > exps.sum():
            rest = np.delete(shifted, top)
            loo[b] = 0.5 * (_logsumexp(2.0 * rest) - np.log(kept * mean_exp)) + shifted_out[b]
        e_term_se = (n_blocks - 1) * _mean_se(loo)

    return DirectionKlTerms(e_term, e_term_se, eps1_term, cond_term, eps1_se)


def approximate_bound_coefficient(d: int) -> float:
    """Dimension coefficient of the third-derivative-only certificate.

    2/(sqrt(3) sqrt(2d-1)) * Gamma((d+5)/2)/Gamma(d/2)
    + (1/9) * (Gamma((d+3)/2)/Gamma(d/2))^2, the gamma ratios being the chi
    moments E[r^5] / 2^(5/2) and E[r^3] / 2^(3/2).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g5 = chi_moment(d, 5) / 2**2.5
    g3 = chi_moment(d, 3) / 2**1.5
    return 2.0 / (math.sqrt(3.0) * math.sqrt(2.0 * d - 1.0)) * g5 + g3 * g3 / 9.0


def approximate_bound(mean_delta3_sq: float, d: int) -> float:
    """Third-derivative-only KL certificate: coefficient(d) * E[delta3^2]."""
    if mean_delta3_sq < 0:
        raise ValueError("mean_delta3_sq must be nonnegative")
    return mean_delta3_sq * approximate_bound_coefficient(d)


@dataclass(frozen=True)
class AuditConfig:
    """Settings for the end-to-end certificate pipeline, checked when built.

    ``n_directions`` is an even integer >= 2, ``quadrature_nodes`` an
    integer >= 16 and ``seed`` an integer >= 0; anything else, through
    ``dataclasses.replace`` too, is a ValueError.
    """

    n_directions: int = 256
    quadrature_nodes: int = QUADRATURE_NODES
    seed: int = 0

    def __post_init__(self) -> None:
        message = "n_directions must be an even integer >= 2"
        _check_integer(self.n_directions, 2, message)
        if self.n_directions % 2:
            raise ValueError(message)
        _check_integer(self.quadrature_nodes, 16, "quadrature_nodes must be an integer >= 16")
        _check_integer(self.seed, 0, "seed must be an integer >= 0")

    def to_json_dict(self) -> dict:
        return json_ready(asdict(self))


@dataclass(frozen=True)
class BoundReport:
    """Assembled certificate values with per-term breakdown and provenance.

    ``detailed_bound`` and its five terms are NaN, written as null, when the
    model gives no fourth-derivative bound: there is no detailed certificate.
    So is a standard error that is undefined (one antithetic pair or one
    jackknife block).
    """

    d: int
    n_directions: int
    seed: int
    mean_delta3_sq: float
    se_delta3_sq: float
    approx_bound: float
    detailed_bound: float
    e_term: float
    e_term_se: float
    cond_term: float
    eps1_term: float
    eps1_correction_se: float
    invalid_directions: int
    spotcheck: dict
    fit_summary: dict
    config: dict

    def to_json_dict(self) -> dict:
        """The report as a JSON payload; an undefined value is null."""
        return json_ready({
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
            "spotcheck": self.spotcheck,
            "fit": self.fit_summary,
            "config": self.config,
            "seed": self.seed,
        })


def _logconcavity_check(model: TargetModel, fit: LaplaceFit, seed: int) -> dict:
    """The report's ``spotcheck`` entry: proven by the model, or sampled.

    A model with a ``hessian_eigenvalue_floor`` has proven log-concavity
    and no Hessian is sampled; any other model gets
    ``logconcavity_spotcheck`` at the audit seed.
    """
    floor = model.hessian_eigenvalue_floor()
    if floor is not None:
        floor = float(floor)
        if not (np.isfinite(floor) and floor >= 0.0):
            raise ValueError("hessian_eigenvalue_floor must be finite and nonnegative")
        return {
            "method": "proven",
            "n_points": 0,
            "radius_multiplier": None,
            "n_failures": 0,
            "min_eigenvalue": floor,
        }
    spot = logconcavity_spotcheck(model, fit, seed=seed)
    return {
        "method": "sampled",
        "n_points": spot.n_points,
        "radius_multiplier": spot.radius_multiplier,
        "n_failures": spot.n_failures,
        "min_eigenvalue": spot.min_eigenvalue,
    }


def _finite_squares(values, where, what: str, n_directions: int):
    """``values`` squared; AssumptionViolationError, before any warning, if not finite ``where``."""
    with np.errstate(over="ignore"):
        squares = values * values
    if bad := np.count_nonzero(where & ~np.isfinite(squares)):
        raise AssumptionViolationError(
            f"non-finite {what} or its square on a sampled direction",
            details={"nonfinite_directions": bad, "n_directions": n_directions},
        )
    return squares


def audit(model: TargetModel, config: AuditConfig | None = None,
          fit: LaplaceFit | None = None) -> BoundReport:
    """Run the full certificate pipeline on one target.

    Mode search, Hessian factorization, log-concavity check, antithetic
    direction sampling, per-direction diagnostics, and assembly of both
    certificates, the third-derivative ``approx_bound`` and the
    ``detailed_bound``, from the one ``_direction_pass``. The report's
    ``spotcheck`` says how log-concavity was checked: ``"method": "proven"``
    when the model's ``hessian_eigenvalue_floor`` is not None (no Hessian is
    sampled, and ``min_eigenvalue`` is that floor), ``"sampled"`` with
    ``logconcavity_spotcheck``'s counts otherwise. The radius average uses
    ``config.quadrature_nodes`` nodes of ``chi_quadrature``. Deterministic
    given the config seed; per-direction work is independent and reduced in
    fixed index order. ``model`` must be a ``TargetModel`` subclass, since
    its ``ray_batch`` supplies every per-direction quantity.

    Directions whose curvature floor is nonpositive, or whose ray values are
    not finite, are excluded from the detailed bound and counted in
    ``invalid_directions``; if fewer than two directions are valid an
    AssumptionViolationError carries the partial report data, as one does,
    before any warning, for a delta3 or valid conditional-KL bound whose square
    is not finite, or whose squares' mean or standard error overflows. A
    model whose ``ray_batch`` gives no delta4 bound gets ``approx_bound``
    alone: the detailed bound and its terms are NaN, ``invalid_directions`` 0.
    """
    config = config or AuditConfig()
    if fit is None:
        fit = fit_laplace(model)
    spotcheck = _logconcavity_check(model, fit, config.seed)
    d = model.dim
    _, _, batch, xi = _direction_pass(
        model, fit, config.n_directions // 2, config.seed, "directions", config.quadrature_nodes
    )
    d3 = batch.delta3
    delta3_sq = _finite_squares(d3, True, "delta3", config.n_directions)
    with np.errstate(over="ignore"):  # an overflow is refused next, before it can warn
        mean_delta3_sq = float(delta3_sq.mean())
    # over one member of each antithetic pair, whose two delta3^2 are equal
    se_delta3_sq = _mean_se(delta3_sq[0::2])
    if math.isinf(mean_delta3_sq) or math.isinf(se_delta3_sq):
        raise AssumptionViolationError(
            "the mean of delta3^2 or its standard error overflows",
            details={"n_directions": config.n_directions},
        )

    d4 = batch.delta4
    terms, invalid = _NO_DETAILED_TERMS, 0
    if d4 is not None:
        mc = min_conditional_curvature(d, d3, d4)  # rejects a negative bound
        valid = mc > 0.0
        ckl = np.full(d3.shape, np.nan)
        with np.errstate(over="ignore"):  # an overflow is refused next
            ckl[valid] = conditional_kl_bound(d, d3[valid], d4[valid], mc[valid])
        valid &= ~np.isnan(xi)
        _finite_squares(ckl, valid, "conditional-KL bound", config.n_directions)

        invalid = int(np.count_nonzero(~valid))
        if np.count_nonzero(valid) < 2:
            raise AssumptionViolationError(
                "all sampled directions fall outside the certificate's validity range",
                details={
                    "invalid_directions": invalid,
                    "n_directions": config.n_directions,
                    "mean_delta3_sq": mean_delta3_sq,
                },
            )
        try:
            terms = direction_kl_bound(xi[valid], ckl[valid], pair_size=2 if invalid == 0 else 1)
        except ValueError as exc:  # the target's terms overflow a mean or standard error
            raise AssumptionViolationError(
                str(exc), details={"n_directions": config.n_directions}
            ) from None

    report = BoundReport(
        d=d,
        n_directions=config.n_directions,
        seed=config.seed,
        mean_delta3_sq=mean_delta3_sq,
        se_delta3_sq=se_delta3_sq,
        approx_bound=approximate_bound(mean_delta3_sq, d),
        detailed_bound=terms.e_term + terms.eps1_term + terms.cond_term,
        **asdict(terms),
        invalid_directions=invalid,
        spotcheck=spotcheck,
        fit_summary={
            "grad_norm": fit.grad_norm,
            "iterations": fit.iterations,
            "log_det_sigma": fit.log_det_covariance,
        },
        config=config.to_json_dict(),
    )
    checked = (report.mean_delta3_sq, report.approx_bound)
    if d4 is not None:
        checked += (report.detailed_bound,)
    for value in checked:
        if not np.isfinite(value):
            raise AssumptionViolationError(
                "non-finite value in assembled bound report",
                details={"report": report.to_json_dict()},
            )
    return report

