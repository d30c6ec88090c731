"""Direction/radius decomposition of a Gaussian reference measure.

A standard Gaussian vector eta factors into a uniform direction e = eta/|eta|
on the unit sphere and an independent radius r = |eta| following a chi law
with d degrees of freedom. Remapping the radius as z = sqrt(r) compresses the
tail enough that the negative log-density of z is strongly convex, which is
what the conditional KL machinery exploits. This module provides the sphere
sampler, chi moments, the chi quadrature rule that averages over the radius
and the curvature floor of the z-law, and the one table of the package's
seeded streams (``_STREAMS``). The rule is the Gauss rule of the chi
weight itself (``QUADRATURE_NODES`` = 16 nodes by default), built by the
Golub-Welsch method (Math. Comp. 23 (1969) 221) from the Jacobi matrix that
a discretized Lanczos procedure gives (Gautschi, Orthogonal Polynomials:
Computation and Approximation, OUP 2004, section 2.2). The discretization
is a Gauss-Legendre rule against the chi density on a span that ends where
a tail bound, built from elementary functions only, leaves out at most 1e-14
of chi mass per side: the chi density f is log-concave, so beyond any r on
the far side of its mode the mass is at most f(r) / |(log f)'(r)| (the
tangent-line bound on a concave log-density; Bagnoli & Bergstrom, Economic
Theory 26 (2005) 445). From d = 40 on the chi log-density is written around
its mode (``_chi_log_density``), so that no terms of size d log d cancel in
it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import _check_integer

LOG_2 = math.log(2.0)

# the spawn key of every seeded stream of the package, so that no two share
# one: the synthetic dataset draws from the seed's root sequence (key ()),
# each other stream from its own child (5 was a removed stream's)
_STREAMS = {
    "dataset": (),
    "directions": (1,),
    "chain": (2,),
    "kl": (3,),
    "spotcheck": (4,),
    "gaussian_model": (6,),
}


def _stream_rng(seed: int, stream: str) -> np.random.Generator:
    """The generator of ``stream`` for ``seed``, from its ``_STREAMS`` spawn key.

    ``seed`` must be an integer >= 0, else ValueError: ``SeedSequence``
    would end a float in a TypeError and take True for 1.
    """
    _check_integer(seed, 0, "seed must be an integer >= 0")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_STREAMS[stream]))


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


def radial_min_curvature(d: int) -> float:
    """Curvature floor 2 sqrt(6) sqrt(2d-1) of the z-law negative log-density.

    The negative log-density -(2d-1) log z + z^4/2 has second derivative
    (2d-1)/z^2 + 6 z^2, minimized at z = ((2d-1)/6)^(1/4).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2.0 * np.sqrt(6.0) * np.sqrt(2.0 * d - 1.0)


# default node count of ``chi_quadrature``: a Gauss rule for the chi weight
# is exact for polynomials of degree 2n - 1, so 16 nodes give the chi moments
# of order 0..7 and log1p(r) sin(r) to within 2.5e-13 (relative to the value,
# or absolute below 1) of a 512-point Gauss-Legendre rule on the same span for
# every d = 1..200, where 32 Gauss-Legendre nodes on that span reach 1.5e-11
QUADRATURE_NODES = 16
# bound on the chi probability left out below and above the quadrature span
_CHI_TAIL = 1e-14


def _chi_log_density(d: int, r):
    """log chi_d(r) at a float or an array r > 0, without cancellation at large d.

    The direct form (d - 1) log r - r^2/2 - log(2^(d/2 - 1) Gamma(d/2)) adds
    terms of size d log d that cancel to O(1) near the mode, so it loses
    about d ulp. Where a = d/2 >= ``_STIRLING_MIN_A`` the log-density is
    written around the mode m = sqrt(d - 1) instead, as its value there,
    1/2 - log(pi)/2 + (a - 1/2) log1p(-1/(2a)) - R(a) with R the remainder
    of Stirling's series (``chi_moment``'s), plus
    (d - 1) log1p((r - m)/m) - (r - m)(r + m)/2, all of them O(1) near the
    mode. Smaller d keeps the direct form. A float goes through ``math``
    and an array through numpy, whose vectorized log can round an argument
    differently (at d = 17 that moves the span's lower end by one ulp).
    """
    log, log1p = (np.log, np.log1p) if isinstance(r, np.ndarray) else (math.log, math.log1p)
    a = 0.5 * d
    if a < _STIRLING_MIN_A:
        return (d - 1.0) * log(r) - 0.5 * r * r - ((a - 1.0) * LOG_2 + math.lgamma(a))
    m = math.sqrt(d - 1.0)
    at_mode = 0.5 - 0.5 * math.log(math.pi) + (a - 0.5) * math.log1p(-0.5 / a) - _stirling_remainder(a)
    return at_mode + (d - 1.0) * log1p((r - m) / m) - 0.5 * (r - m) * (r + m)


def _tail_end(d: int, lo: float, hi: float, upper: bool) -> float:
    """The r in [lo, hi] where the chi tail bound f(r) / |(log f)'(r)| is ``_CHI_TAIL``.

    [lo, hi] lies on one side of the mode sqrt(d - 1), where the log of the
    bound, log f(r) - log|(d - 1)/r - r|, is monotone: falling above the
    mode, rising below it. Bisection runs until the midpoint rounds to an
    end, and returns the end that leaves out at most ``_CHI_TAIL``.
    """
    log_tail = math.log(_CHI_TAIL)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi if upper else lo
        log_bound = _chi_log_density(d, mid) - math.log(abs((d - 1.0) / mid - mid))
        if (log_bound > log_tail) == upper:
            lo = mid
        else:
            hi = mid


def _chi_span(d: int) -> tuple[float, float]:
    """The ends (r_lo, r_hi) where the tail bound leaves out ``_CHI_TAIL`` per side.

    r_lo = 0 at d = 1, where the mode is 0.
    """
    mode = math.sqrt(d - 1.0)
    r_lo = 0.0 if d == 1 else _tail_end(d, 0.0, mode, upper=False)
    return r_lo, _tail_end(d, mode, mode + 10.0, upper=True)


@lru_cache(maxsize=64)
def _chi_quadrature_cached(d: int, nodes: int):
    # the chi density as a discrete measure: Gauss-Legendre points on the span
    r_lo, r_hi = _chi_span(d)
    x, w = leggauss(4 * nodes)
    half = 0.5 * (r_hi - r_lo)
    points = r_lo + half * (x + 1.0)
    masses = half * w * np.exp(_chi_log_density(d, points))
    mass = float(masses.sum())
    # Lanczos on diag(points) from sqrt(masses / mass) gives the Jacobi matrix
    # of the measure's orthogonal polynomials; two passes of full
    # reorthogonalization keep the basis orthonormal to rounding
    basis = np.zeros((nodes, points.size))
    basis[0] = np.sqrt(masses / mass)
    alpha, beta = np.zeros(nodes), np.zeros(nodes - 1)
    for j in range(nodes):
        u = points * basis[j]
        alpha[j] = basis[j] @ u
        if j == nodes - 1:
            break
        for _ in range(2):
            u -= basis[: j + 1].T @ (basis[: j + 1] @ u)
        beta[j] = np.linalg.norm(u)
        basis[j + 1] = u / beta[j]
    # Golub-Welsch: the nodes are the Jacobi eigenvalues, and the weights the
    # mass times the squared first components of the unit eigenvectors, that
    # is mass / sum_k p_k(r)^2 over the orthonormal polynomials p_k. Summed
    # from the three-term recurrence, a tail weight keeps its relative
    # accuracy; read off the eigenvector it would keep only an absolute one
    # (1.4e-9 relative at the top node of the 32-node rule at d = 2)
    rs = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    below = np.concatenate(([0.0], beta))
    p_prev, p, total = np.zeros(nodes), np.ones(nodes), np.ones(nodes)
    for k in range(nodes - 1):
        p_prev, p = p, ((rs - alpha[k]) * p - below[k] * p_prev) / beta[k]
        total += p * p
    weights = mass / total
    rs.setflags(write=False)
    weights.setflags(write=False)
    return rs, weights


def chi_quadrature(d: int, nodes: int):
    """Fixed nodes/weights so that sum(w * h(r)) approximates E_chi_d[h(r)].

    The n-node Gauss rule for the chi density on [r_lo, r_hi], the points
    where the log-concave tail bound leaves out ``_CHI_TAIL`` of chi mass
    below and above (r_lo = 0 at d = 1, where the mode is 0); the mass left
    out is at most that, and at least half of it. The rule is exact for
    polynomials of degree 2n - 1 against its discretization, 4n
    Gauss-Legendre points against the chi density on the span: 4n points
    give the 16- and 32-node rules to within 3.5e-14 relative of a
    512-point discretization for d = 1..200, where 2n points leave 1.5e-11,
    and build in about 2 ms (Golub & Welsch 1969; Gautschi 2004, section
    2.2). Nodes ascend inside the span; weights are positive. Both arrays
    are cached and read-only; ``d`` and ``nodes`` must be integers, not floats.
    """
    _check_integer(d, 1, "d must be an integer >= 1")
    _check_integer(nodes, 2, "nodes must be an integer >= 2")
    return _chi_quadrature_cached(int(d), int(nodes))
