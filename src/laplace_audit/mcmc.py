"""Ground-truth machinery: posterior sampling and direct KL estimation.

Delayed-acceptance random-walk Metropolis chains in the fit's whitened
coordinates, ``N_CHAINS`` of them run in lock-step, draw samples from the
target. Their jumps are uniform on a cube, with the covariance of normal
jumps of the standard 2.38/sqrt(d) scale: a symmetric proposal, drawn from
uniforms rather than the costlier normals. Each proposal is screened
against the Laplace fit g first, at O(d) cost, and only the proposals that
pass are scored on the target, in a second stage that keeps every chain
exact for f. An importance ratio against the normalized Gaussian fit
estimates log 1/Z, the log of the reciprocal normalizing constant (kept in
log space throughout, since 1/Z itself overflows at moderate dimensions).
KL(g, f) is E_g[log g + phi] less log 1/Z. E_g[log g] is closed form, and
E_g[phi] comes from the model's ``expected_neg_log_density`` where it has
one: the logistic model's is one quadrature per observation, with no
sampling error. Other models take E_g[phi] in polar form: an average over
antithetic direction pairs of the certificate's ELBO proxy, whose radius
the Gauss-chi rule integrates out on the certificate's own direction pass,
``bound._direction_pass``.
Everything is driven by explicit integer seeds, and a seed gives the same
numbers on every run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .bound import _direction_pass, _logsumexp, _mean_se, json_ready
from .errors import DimensionMismatchError, NonFiniteObjectiveError, _check_integer
from .laplace import LOG_2PI, LaplaceFit, laplace_log_density
from .models import TargetModel
from .radial import QUADRATURE_NODES, _stream_rng

# independent chains advanced together; ChainConfig.n_steps is their total
N_CHAINS = 40
# steps of every chain per proposal block; fixed so the random stream does not
# depend on runtime tuning
BLOCK_STEPS = 128
N_BATCHES = 50

# share of each chain's own steps discarded before any state is kept
BURN_IN_FRACTION = 0.1

ACCEPT_RATE_LOW = 0.05
ACCEPT_RATE_HIGH = 0.7
# split-R-hat of phi above which the chains are reported as not mixed
# (Vehtari et al., arXiv:1903.08008)
RHAT_LIMIT = 1.01


def _check_k2(k2) -> None:
    """ValueError unless ``k2`` is an integer phi budget of at least two direction pairs."""
    least = 4 * QUADRATURE_NODES
    _check_integer(k2, least, f"k2 must be an integer >= {least} (two direction pairs)")


@dataclass(frozen=True)
class ChainConfig:
    """Settings of the delayed-acceptance chain of ``run_chain``.

    ``n_steps`` is the total over the ``N_CHAINS`` chains and must be a
    multiple of it; both counts and the seed are integers, checked when the
    config is built (``dataclasses.replace`` too). Each chain
    discards the first ``BURN_IN_FRACTION`` of its steps and keeps every
    ``thin``-th state after.
    ``n_steps / thin`` must be at least 100; that rule counts steps over all
    chains, not kept states, but with ``N_CHAINS`` = 40 it bounds ``thin``
    by 0.4 of each chain's steps and so puts each chain's first kept step
    below half of them: every config keeps a state of every chain.
    ``seed`` fixes the whole stream that ``run_chain`` documents (starts,
    jumps and the two uniforms of each step), so a seed gives the same
    chain on every run.
    """

    n_steps: int
    thin: int
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer(self.n_steps, 1, "n_steps must be a positive integer")
        if self.n_steps % N_CHAINS:
            raise ValueError(f"n_steps must be a multiple of {N_CHAINS} (the chain count)")
        _check_integer(self.thin, 1, "thin must be a positive integer")
        _check_integer(self.seed, 0, "seed must be an integer >= 0")
        if self.n_steps // self.thin < 100:
            raise ValueError("n_steps/thin must be at least 100")

    def _kept_steps(self) -> np.ndarray:
        """Indices of the steps, within each chain, whose states are kept."""
        steps = self.n_steps // N_CHAINS
        burn = int(round(BURN_IN_FRACTION * steps))
        # first kept state lands `thin` steps after burn-in ends
        return np.arange(burn + self.thin - 1, steps, self.thin, dtype=np.int64)


@dataclass(frozen=True)
class TruthPreset:
    """Bundled chain settings and phi-evaluation budget for the KL ground truth.

    ``k2`` counts the phi evaluations of ``estimate_kl``'s direction pass:
    ``QUADRATURE_NODES`` per direction, over k2 // (2 ``QUADRATURE_NODES``)
    antithetic pairs. The pass runs only for a model without
    ``expected_neg_log_density``; the built-in logistic model spends none of
    it. It takes ``estimate_kl``'s rule, checked when the preset is built, so
    a bad budget is refused before any chain step.
    """

    name: str
    chain: ChainConfig
    k2: int

    def __post_init__(self) -> None:
        _check_k2(self.k2)


# the named truth presets: (chain steps, thinning, phi evaluations k2 of estimate_kl)
PRESETS = {
    "desk": (1_000_000, 100, 10_000),
    "paper": (10_000_000, 1000, 100_000),
}


def get_preset(name: str, seed: int = 0) -> TruthPreset:
    if name not in PRESETS:
        raise ValueError(f"unknown mcmc preset {name!r}")
    n_steps, thin, k2 = PRESETS[name]
    return TruthPreset(name=name, chain=ChainConfig(n_steps, thin, seed), k2=k2)


def desk_preset(seed: int = 0) -> TruthPreset:
    """Reduced preset that runs a full experiment grid in minutes."""
    return get_preset("desk", seed)


@dataclass(frozen=True)
class ChainResult:
    """Kept states, chain by chain, with the chains' diagnostics.

    ``phi`` holds the negative log-density at each row of ``samples``, as
    the chain computed it: at theta* + z S formed when the state was
    proposed, which the row, formed from the same z at the end, matches up
    to the rounding of that product. ``rhat`` is the split-R-hat of phi at the kept
    states over the chains (see ``split_rhat``); it is NaN when undefined.
    ``warnings`` holds one line each for an acceptance rate outside
    [``ACCEPT_RATE_LOW``, ``ACCEPT_RATE_HIGH``] and an ``rhat`` above
    ``RHAT_LIMIT``.
    """

    samples: np.ndarray
    phi: np.ndarray
    acceptance_rate: float
    rhat: float
    warnings: tuple = field(default_factory=tuple)

    @property
    def k(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class KLEstimate:
    """Sampling-based estimate of KL(g, f) with its error budget.

    The reciprocal normalizing constant is carried only as ``log_inv_z``
    with a *relative* standard error ``inv_z_rel_se``, because 1/Z overflows
    double precision already at moderate dimensions.
    """

    kl: float
    standard_error: float
    log_inv_z: float
    inv_z_rel_se: float
    k: int
    k2: int
    acceptance_rate: float
    config: dict

    def to_json_dict(self) -> dict:
        """The estimate as a JSON payload; a non-finite number is null."""
        return json_ready({
            "kl": self.kl,
            "se": self.standard_error,
            "log_inv_z": self.log_inv_z,
            "inv_z_rel_se": self.inv_z_rel_se,
            "k": self.k,
            "k2": self.k2,
            "acceptance_rate": self.acceptance_rate,
            "config": self.config,
        })


def split_rhat(draws) -> float:
    """Split-R-hat of a (chains x draws) array (Gelman et al., BDA3, sec. 11.4).

    Each chain is cut into a first and a last half (the middle draw of an odd
    length is dropped) and the potential scale reduction is taken over the
    halves. NaN when a half has fewer than two draws or no half varies.
    """
    draws = np.asarray(draws, dtype=float)
    half = draws.shape[1] // 2
    if half < 2:
        return float("nan")
    halves = np.concatenate([draws[:, :half], draws[:, -half:]])
    within = halves.var(axis=1, ddof=1).mean()
    if not within > 0:
        return float("nan")
    between = halves.mean(axis=1).var(ddof=1)
    return float(np.sqrt((half - 1) / half + between / within))


def run_chain(model: TargetModel, fit: LaplaceFit, config: ChainConfig) -> ChainResult:
    """Delayed-acceptance random-walk Metropolis with the fit as its screen.

    ``N_CHAINS`` independent chains run in lock-step, ``n_steps / N_CHAINS``
    steps each, in the fit's whitened coordinates z, theta = theta* + z S
    with S the fit square root, where log g = const - |z|^2 / 2. Each chain
    starts at a draw from g, or at the mode where phi at that draw is not
    finite, and proposes z' = z + delta with delta uniform on the cube
    [-sqrt(3) s, sqrt(3) s]^d, s = 2.38/sqrt(d): mean 0 and covariance
    s^2 I, so each coordinate has the standard deviation 2.38/sqrt(d) of
    the standard random-walk scaling (Roberts, Gelman & Gilks 1997), drawn
    from uniforms, which cost a fraction of numpy's normals. The proposal is
    symmetric, so no proposal ratio enters either stage: delta is
    (U - 1/2) 2 sqrt(3) s for U uniform on the multiples of 2^-53 in
    [0, 1), U - 1/2 is exact, and the product rounds alike for either sign.
    Only U - 1/2 = -1/2 has no mirror; its probability, 2^-53 per
    coordinate, is below the rounding of everything else. Its density is
    positive around 0, so on a log-concave target the chain stays
    irreducible and aperiodic. Two stages decide each step (Christen & Fox,
    JCGS 14 (2005) 795):

    1. the proposal passes with probability min(1, g(z') / g(z)), which
       needs no phi: z.delta < -log u1 - |delta|^2 / 2 with delta the jump;
    2. a proposal that passed moves the chain with probability
       min(1, exp(w - w')), w = phi - |z|^2 / 2, which corrects stage 1 to
       the target f exactly. A proposal whose phi is NaN or infinite is
       rejected.

    So phi is evaluated only on the proposals g lets through, with one
    ``neg_log_density_many`` call per step on those rows of all chains; the
    closer g is to f, the fewer of them stage 2 turns away. About 10 of the
    40 rows pass stage 1, so a step costs more in numpy calls than in
    arithmetic: it copies the survivors' rows of z and of the jumps by
    ``take`` and the moved rows by ``compress``, the same copies as fancy
    and boolean indexing of 2-D rows at a third to a half of the per-call
    cost, while its 1-D selections stay plain indexing, the cheaper form
    for them. Each chain
    discards the first ``BURN_IN_FRACTION`` of its steps and keeps every
    ``thin``-th state after them; the samples, theta* + z S formed once at
    the end, are returned chain by chain.

    The stream is: the (chains x d) standard normals of the starts, then per
    block of ``BLOCK_STEPS`` steps a steps x chains x d array of uniforms U
    on [0, 1), the jumps, and 2 x steps x chains uniforms, the first half u1
    and the second u2. The jumps were standard normals times s before they
    were uniform, so seeded chains, and the truth values built on them,
    differ from those of earlier versions. ``acceptance_rate`` counts the
    proposals that passed both stages; a rate outside [0.05, 0.7] attaches
    a warning to the result rather than failing, and so does a split-R-hat
    of phi above ``RHAT_LIMIT`` (a NaN one, undefined, does not).
    """
    d = model.dim
    if fit.dim != d:
        raise DimensionMismatchError("fit dimension does not match the model")
    scale = 2.38 / np.sqrt(d)
    rng = _stream_rng(config.seed, "chain")
    steps = config.n_steps // N_CHAINS
    keep = config._kept_steps().tolist()
    out = np.empty((N_CHAINS, len(keep), d))
    out_phi = np.empty((N_CHAINS, len(keep)))
    keep.append(steps)  # a sentinel that no step reaches
    sqrt_cov, mode = fit.sqrt_covariance, fit.theta_star

    z = rng.standard_normal((N_CHAINS, d))
    phi = model.neg_log_density_many(z @ sqrt_cov + mode)
    off = ~np.isfinite(phi)
    if off.any():
        z[off] = 0.0
        phi[off] = model.neg_log_density_many(mode[None, :])[0]
    accepted = 0
    kept = 0
    for done in range(0, steps, BLOCK_STEPS):
        block = min(BLOCK_STEPS, steps - done)
        jumps = rng.random((block, N_CHAINS, d))
        jumps -= 0.5
        jumps *= 2.0 * np.sqrt(3.0) * scale
        log_u = np.log(rng.random((2, block, N_CHAINS)))
        half_sq = 0.5 * np.einsum("bcj,bcj->bc", jumps, jumps)
        # stage 1 passes z.delta below pass_at; stage 2 takes phi' below
        # phi + z.delta + move_at, which is log u2 < w - w'
        pass_at = -log_u[0] - half_sq
        move_at = half_sq - log_u[1]
        for b in range(block):
            step = jumps[b]
            lift = np.einsum("cj,cj->c", z, step)
            rows = (lift < pass_at[b]).nonzero()[0]
            if rows.size:
                z_prop = z.take(rows, axis=0)
                z_prop += step.take(rows, axis=0)
                theta = z_prop @ sqrt_cov
                theta += mode
                phi_prop = model.neg_log_density_many(theta)
                ceiling = (phi + lift + move_at[b])[rows]
                move = (phi_prop < ceiling) & np.isfinite(phi_prop)
                rows = rows[move]
                z[rows] = z_prop.compress(move, axis=0)
                phi[rows] = phi_prop[move]
                accepted += rows.size
            if keep[kept] == done + b:
                out[:, kept] = z
                out_phi[:, kept] = phi
                kept += 1

    rate = accepted / config.n_steps
    rhat = split_rhat(out_phi)
    warnings = ()
    if not ACCEPT_RATE_LOW <= rate <= ACCEPT_RATE_HIGH:
        warnings += (
            f"acceptance rate {rate:.3f} outside [{ACCEPT_RATE_LOW}, {ACCEPT_RATE_HIGH}]; "
            "the samples may not represent the target",
        )
    if rhat > RHAT_LIMIT:
        warnings += (
            f"split R-hat of phi {rhat:.4f} above {RHAT_LIMIT}; the chains may not have mixed",
        )
    return ChainResult(
        samples=out.reshape(-1, d) @ sqrt_cov + mode,
        phi=out_phi.reshape(-1),
        acceptance_rate=float(rate),
        rhat=rhat,
        warnings=warnings,
    )


def estimate_log_inv_z(fit: LaplaceFit, posterior_samples, phi):
    """log of the importance estimate of 1/Z = E_f[g(theta)/f~(theta)].

    ``phi`` holds the model's phi at each posterior sample, as a chain's
    ``ChainResult.phi`` does; the model itself is not evaluated. The
    per-sample log-ratios are reduced with a single log-sum-exp, so the
    estimate survives ratios spanning hundreds of orders of magnitude. The
    error is a *relative* standard error from means over 50 contiguous
    batches, which absorbs chain autocorrelation, by ``bound._mean_se`` (0.0
    for one batch). A non-finite log-ratio (phi infinite or NaN at a sample)
    raises NonFiniteObjectiveError.

    Returns
    -------
    (log_inv_z, rel_se)
    """
    samples = np.asarray(posterior_samples, dtype=float)
    k = samples.shape[0]
    if k == 0:
        raise ValueError("no posterior samples supplied")
    if np.shape(phi) != (k,):
        raise DimensionMismatchError("phi needs one value per posterior sample")
    log_ratio = laplace_log_density(fit, samples) + phi
    bad = np.flatnonzero(~np.isfinite(log_ratio))
    if bad.size:
        raise NonFiniteObjectiveError(
            f"non-finite importance ratio at sample index {int(bad[0])}", theta=samples[bad[0]]
        )
    log_inv_z = _logsumexp(log_ratio) - float(np.log(k))
    n_batches = min(N_BATCHES, k)
    bounds = np.linspace(0, k, n_batches + 1, dtype=int)
    # ratios over their mean are at most k, and their batch means stay O(1)
    rel_batch_means = np.add.reduceat(np.exp(log_ratio - log_inv_z), bounds[:-1]) / np.diff(bounds)
    rel_se = _mean_se(rel_batch_means) if n_batches > 1 else 0.0
    return log_inv_z, rel_se


def estimate_kl(
    model: TargetModel,
    fit: LaplaceFit,
    k2: int,
    seed: int = 0,
    *,
    log_inv_z: float,
    inv_z_rel_se: float = 0.0,
) -> tuple[float, float, str]:
    """Estimate ``(kl, se, gaussian_half)`` of KL(g, f) given the log 1/Z estimate.

    KL(g, f) = E_g[log g + phi] - ``log_inv_z``, the log 1/Z estimate of
    ``estimate_log_inv_z``, whose relative standard error is
    ``inv_z_rel_se``. E_g[log g] is -(d log 2 pi + log det Sigma + d) / 2.
    E_g[phi] is taken by one of two rules, and ``gaussian_half`` names the
    one taken. The model's ``expected_neg_log_density`` is called once; a
    value from it is E_g[phi], with a standard error of 0, by the rule
    "quadrature".

    When it gives None, the rule is "directions": E_g[phi] in polar form.
    With theta = theta* + r S e, e uniform on the sphere and r
    chi-distributed, the mean of phi over r along e is phi* + d/2 - xi(e),
    xi the ELBO proxy of the certificate, so E_g[log g + phi] is
    -(d log 2 pi + log det Sigma) / 2 + phi* - E_e[xi(e)].
    The radius is integrated out by the ``QUADRATURE_NODES``-node Gauss-chi
    rule, and only the direction is sampled: k2 // (2 ``QUADRATURE_NODES``)
    antithetic pairs, so ``k2`` counts phi evaluations.
    ``bound._direction_pass``, the audit's pass on its own stream, gives the
    pairs and xi, and an exactly quadratic ray (delta3 = delta4 = 0) xi = 0
    exactly. Its standard error is ``bound._mean_se`` over the pair means
    of xi. Either rule's standard error is combined by hypot with the 1/Z
    uncertainty, propagated as an additive log-term.

    A ``k2`` below 4 ``QUADRATURE_NODES``, fewer than two pairs, or a
    ``k2`` or ``seed`` that is not an integer (``seed`` below 0 too) raises
    ValueError before either rule runs. A non-finite phi on a ray node raises
    NonFiniteObjectiveError, with ``theta`` the first such node point
    theta* + r v, rather than averaging into a NaN or infinite KL; so does a
    non-finite E_g[phi] from the model, with ``theta`` the mode.
    """
    if not np.isfinite(log_inv_z):
        raise ValueError("log_inv_z must be finite")
    if not (np.isfinite(inv_z_rel_se) and inv_z_rel_se >= 0):
        raise ValueError("inv_z_rel_se must be finite and nonnegative")
    _check_k2(k2)
    _check_integer(seed, 0, "seed must be an integer >= 0")
    log_g = -0.5 * (fit.dim * LOG_2PI + fit.log_det_covariance)
    expected_phi = model.expected_neg_log_density(fit.theta_star, fit.sqrt_covariance)
    if expected_phi is not None:
        if not np.isfinite(expected_phi):
            raise NonFiniteObjectiveError(
                "non-finite E_g[phi] from the model's expected_neg_log_density",
                theta=fit.theta_star,
            )
        half, half_se, rule = log_g - 0.5 * fit.dim + expected_phi, 0.0, "quadrature"
    else:
        n_pairs = k2 // (2 * QUADRATURE_NODES)
        vs, rs, batch, xi = _direction_pass(model, fit, n_pairs, seed, "kl", QUADRATURE_NODES)
        bad = np.flatnonzero(~np.isfinite(batch.values))
        if bad.size:
            row, node = divmod(int(bad[0]), QUADRATURE_NODES)
            raise NonFiniteObjectiveError(
                f"non-finite phi at ray node {node} of direction {row}",
                theta=fit.theta_star + rs[node] * vs[row],
            )
        half = log_g + fit.neg_log_density_at_mode - xi.mean()
        half_se = _mean_se(xi.reshape(n_pairs, 2).mean(axis=1))
        rule = "directions"
    return float(half - log_inv_z), float(np.hypot(half_se, inv_z_rel_se)), rule


def estimate_true_kl(model: TargetModel, fit: LaplaceFit, preset: TruthPreset) -> KLEstimate:
    """Chain -> log 1/Z -> KL(g, f) from one seed; an undefined ``config["rhat"]`` is NaN.

    ``config["gaussian_half"]`` is the rule ``estimate_kl`` took for E_g[phi].
    """
    chain = run_chain(model, fit, preset.chain)
    log_inv_z, rel_se = estimate_log_inv_z(fit, chain.samples, chain.phi)
    kl, se, gaussian_half = estimate_kl(
        model, fit, preset.k2, preset.chain.seed, log_inv_z=log_inv_z, inv_z_rel_se=rel_se
    )
    return KLEstimate(
        kl=kl,
        standard_error=se,
        log_inv_z=log_inv_z,
        inv_z_rel_se=rel_se,
        k=chain.k,
        k2=preset.k2,
        acceptance_rate=chain.acceptance_rate,
        config={
            "preset": preset.name,
            **asdict(preset.chain),
            "k2": preset.k2,
            "rhat": chain.rhat,
            "warnings": list(chain.warnings),
            "gaussian_half": gaussian_half,
        },
    )
