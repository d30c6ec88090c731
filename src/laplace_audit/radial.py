"""Direction/radius decomposition of a Gaussian reference measure.

A standard Gaussian vector eta factors into a uniform direction e = eta/|eta|
on the unit sphere and an independent radius r = |eta| following a chi law
with d degrees of freedom. Remapping the radius as z = sqrt(r) compresses the
tail enough that the negative log-density of z is strongly convex, which is
what the conditional KL machinery exploits. This module provides the sphere
sampler, chi moments and quantiles, the chi quadrature rule that averages
over the radius (Gauss-Legendre nodes on the span between the 1e-14 and
1 - 1e-14 chi quantiles, ``QUADRATURE_NODES`` of them by default) and the
curvature floor of the z-law. The chi quantiles come from this module's own
inverse of the regularized incomplete gamma function, in plain Python.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)


def sample_direction(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform unit vector on the (d-1)-sphere; for d=1 this is +-1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    while True:
        eta = rng.standard_normal(d)
        norm = float(np.sqrt(np.sum(eta * eta)))
        if norm > 0.0:
            return eta / norm


def sample_direction_pairs(d: int, n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Stack n_pairs antithetic direction pairs (e, -e) into a (2*n_pairs, d) array.

    The e rows come from one normal draw: the stream of n_pairs ``sample_direction`` calls.
    """
    eta = rng.standard_normal((n_pairs, d))
    norms = np.sqrt(np.sum(eta * eta, axis=1))
    for i in np.flatnonzero(norms == 0.0):
        eta[i], norms[i] = sample_direction(d, rng), 1.0
    e = eta / norms[:, None]
    return np.stack([e, -e], axis=1).reshape(2 * n_pairs, d)


# remainder of Stirling's series for log Gamma(a): sum_k c_k / a^(2k-1); the
# first term left out, 691 / (360360 a^11), is below 1e-17 for a >= 20
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_MIN_A = 20.0
_EPS = 2.0**-53


def _stirling_remainder(a: float) -> float:
    """log Gamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2), for a >= ``_STIRLING_MIN_A``."""
    inv_sq = 1.0 / (a * a)
    remainder = 0.0
    for c in reversed(_STIRLING):
        remainder = remainder * inv_sq + c
    return remainder / a


def chi_moment(d: int, k: int) -> float:
    """E[r^k] for r chi-distributed with d degrees of freedom.

    The moment is 2^h Gamma(a + h) / Gamma(a), with a = d/2 and h = k/2. A
    difference of log-gammas would cancel terms of size a log a, so the
    ratio is taken at A = a + m, the first shift of a by a whole m to reach
    ``_STIRLING_MIN_A``, and brought back with the recurrence:
    Gamma(a + h) / Gamma(a) = Gamma(A + h) / Gamma(A) * prod_j (a + j) / (a + h + j)
    over j < m. At A, Stirling's series gives 2^h Gamma(A + h) / Gamma(A) =
    (2A)^h exp(c), with the small correction
    c = (A + h - 1/2) log1p(h / A) - h + R(A + h) - R(A), R its remainder.
    The result is within a few ulp for every d, and inf where the moment
    overflows.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    a, h = 0.5 * d, 0.5 * k
    m = max(0, math.ceil(_STIRLING_MIN_A - a))
    big_a = a + m
    correction = (
        (big_a + h - 0.5) * math.log1p(h / big_a)
        - h
        + _stirling_remainder(big_a + h)
        - _stirling_remainder(big_a)
    )
    shift = 1.0
    for j in range(m):
        shift *= (a + j) / (a + h + j)
    return float(np.power(2.0 * big_a, h) * np.exp(correction) * shift)


def _log1pmx_series(t: float) -> float:
    """log(1 + t) - t for |t| < 1/2, by its power series."""
    total, power, k = 0.0, -t * t, 2
    while True:
        term = power / k
        total += term
        if abs(term) <= _EPS * abs(total):
            return total
        power *= -t
        k += 1


def _log_gamma_prefix(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)).

    At large a the plain form cancels terms of size a log a, so there it is
    a (log(1 + t) - t) + (log a - log 2 pi) / 2 - Stirling remainder, with
    t = (x - a) / a; log(1 + t) is log(x / a), which keeps x when x << a.
    """
    if a < _STIRLING_MIN_A:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    log1pmx = _log1pmx_series(t) if abs(t) < 0.5 else math.log(x / a) - t
    return a * log1pmx + 0.5 * (math.log(a) - LOG_2PI) - _stirling_remainder(a)


def _log_gamma_tail(a: float, x: float, upper: bool):
    """log T and d log T / d log x, T = Q(a, x) if ``upper`` else P(a, x).

    P = prefix * S with S the power series, summed below x = a + 1; Q =
    prefix * C with C the continued fraction, evaluated above it by Lentz's
    method. The other tail is one minus the computed one.
    """
    log_prefix = _log_gamma_prefix(a, x)
    if x < a + 1.0:
        term = total = 1.0
        n = a
        while term > _EPS * total:
            n += 1.0
            term *= x / n
            total += term
        log_computed, computed_upper = log_prefix + math.log(total / a), False
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c, f = 1.0 / tiny, 1.0 / b
        h, i, delta = f, 0, 0.0
        while abs(delta - 1.0) > _EPS:
            i += 1
            an = -i * (i - a)
            b += 2.0
            f = an * f + b
            f = 1.0 / (f if abs(f) >= tiny else tiny)
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            delta = f * c
            h *= delta
        log_computed, computed_upper = log_prefix + math.log(h), True
    log_tail = log_computed
    if computed_upper != upper:
        log_tail = math.log1p(-math.exp(log_computed))
    slope = math.exp(log_prefix - log_tail)
    return log_tail, -slope if upper else slope


def _normal_upper_quantile(q: float) -> float:
    """Rough z with upper normal tail q <= 1/2 (Abramowitz & Stegun 26.2.23, error < 4.5e-4)."""
    t = math.sqrt(-2.0 * math.log(q))
    return t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t * t * t
    )


def _gamma_tail_inverse(a: float, tail: float, upper: bool) -> float:
    """x with Q(a, x) = tail if ``upper`` else P(a, x) = tail, for 0 < tail <= 1/2.

    Newton's method on log T(a, e^u) - log tail in u = log x, inside a
    bracket that every iterate narrows (DiDonato & Morris, ACM TOMS 12
    (1986) 377, solve the same equation). log T is concave in u, because
    the law of log x is log-concave, so after at most one overshoot the
    iterates approach the root from one side. The start is the
    Wilson-Hilferty approximation (positive on the upper tail for a >= 1/2),
    or for the lower tail, when that falls below it, (tail Gamma(a + 1))^(1/a),
    a lower bound on the root since P(a, x) <= x^a / Gamma(a + 1); when that
    underflows, so does the root, and the result is 0.
    """
    log_target = math.log(tail)
    c = 1.0 / (9.0 * a)
    z = _normal_upper_quantile(tail)
    x = a * (1.0 - c + (z if upper else -z) * math.sqrt(c)) ** 3
    if not upper:
        x = max(x, math.exp((log_target + math.lgamma(a + 1.0)) / a))
        if x == 0.0:
            return 0.0
    lo, hi = 0.0, math.inf
    for _ in range(100):
        log_tail, slope = _log_gamma_tail(a, x, upper)
        gap = log_tail - log_target
        if (gap < 0.0) != upper:
            lo = x
        else:
            hi = x
        step = -gap / slope
        new = x * math.exp(min(step, 700.0))
        if abs(step) <= 1e-12:
            return new
        if not lo < new < hi:
            new = 2.0 * lo if hi == math.inf else 0.5 * hi if lo == 0.0 else math.sqrt(lo * hi)
        x = new
    raise ArithmeticError(f"no convergence inverting the incomplete gamma at a={a}, tail={tail}")


def chi_quantile(d: int, p: float) -> float:
    """Quantile of the chi law with d degrees of freedom.

    r^2 / 2 is Gamma(d/2)-distributed, so the quantile is sqrt(2 x) with x
    the inverse of the regularized incomplete gamma function at d/2, taken
    on the lower tail P(d/2, x) = p for p <= 1/2 and on the upper tail
    Q(d/2, x) = 1 - p above it.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0 if p == 0.0 else math.inf
    upper = p > 0.5
    return math.sqrt(2.0 * _gamma_tail_inverse(0.5 * d, 1.0 - p if upper else p, upper))


def radial_min_curvature(d: int) -> float:
    """Curvature floor 2 sqrt(6) sqrt(2d-1) of the z-law negative log-density.

    The negative log-density -(2d-1) log z + z^4/2 has second derivative
    (2d-1)/z^2 + 6 z^2, minimized at z = ((2d-1)/6)^(1/4).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2.0 * np.sqrt(6.0) * np.sqrt(2.0 * d - 1.0)


# default node count of ``chi_quadrature``: on the span below, 32
# Gauss-Legendre nodes give the chi moments of order 0..7 to within 3e-13
# relative of a 512-node rule for every d = 1..200
QUADRATURE_NODES = 32
# chi probability left out below and above the quadrature span
_CHI_TAIL = 1e-14


@lru_cache(maxsize=64)
def _chi_quadrature_cached(d: int, nodes: int):
    x, w = leggauss(nodes)
    # lower and upper 1e-14 chi quantiles; the upper one from the upper
    # tail so that the tail probability keeps its precision
    r_lo = math.sqrt(2.0 * _gamma_tail_inverse(0.5 * d, _CHI_TAIL, False))
    r_hi = math.sqrt(2.0 * _gamma_tail_inverse(0.5 * d, _CHI_TAIL, True))
    half = 0.5 * (r_hi - r_lo)
    rs = r_lo + half * (x + 1.0)
    gl_w = half * w
    log_norm = (0.5 * d - 1.0) * LOG_2 + math.lgamma(0.5 * d)
    log_pdf = (d - 1.0) * np.log(rs) - 0.5 * rs * rs - log_norm
    weights = gl_w * np.exp(log_pdf)
    rs.setflags(write=False)
    weights.setflags(write=False)
    return rs, weights


def chi_quadrature(d: int, nodes: int):
    """Fixed nodes/weights so that sum(w * h(r)) approximates E_chi_d[h(r)].

    Gauss-Legendre points against the chi density on [r_lo, r_hi], the
    1e-14 and 1 - 1e-14 chi quantiles. Fitting the span to where the chi
    mass lies, rather than starting it at 0, lets half the nodes of a
    [0, r_hi] rule reach the same accuracy at large d; smooth integrands
    converge spectrally in the node count.
    """
    if nodes < 2:
        raise ValueError("nodes must be >= 2")
    return _chi_quadrature_cached(int(d), int(nodes))

