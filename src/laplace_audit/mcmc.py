"""Ground-truth machinery: posterior sampling and direct KL estimation.

Random-walk Metropolis-Hastings chains shaped by the Laplace covariance,
``N_CHAINS`` of them run in lock-step, draw samples from the target; an
importance ratio against the normalized Gaussian fit estimates log 1/Z, the
log of the reciprocal normalizing constant (kept in log space throughout,
since 1/Z itself overflows at moderate dimensions); and a plain Monte-Carlo
average over fresh Gaussian draws turns that into an estimate of KL(g, f).
Everything is driven by explicit integer seeds, and a seed gives the same
numbers on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bound import _logsumexp, json_ready
from .errors import DimensionMismatchError, NonFiniteObjectiveError
from .laplace import LaplaceFit, laplace_log_density
from .models import TargetModel

# independent chains advanced together; ChainConfig.n_steps is their total
N_CHAINS = 20
# steps of every chain per proposal block; fixed so the random stream does not
# depend on runtime tuning
BLOCK_STEPS = 256
N_BATCHES = 50

# share of each chain's own steps discarded before any state is kept
BURN_IN_FRACTION = 0.1

ACCEPT_RATE_LOW = 0.05
ACCEPT_RATE_HIGH = 0.7

_CHAIN_STREAM = 2
_KL_STREAM = 3


@dataclass(frozen=True)
class ChainConfig:
    """Random-walk chain settings.

    ``n_steps`` is the total over the ``N_CHAINS`` chains and must be a
    multiple of it. Each chain discards the first ``BURN_IN_FRACTION`` of
    its own steps and keeps every ``thin``-th state after that.
    ``n_steps / thin`` must be at least 100; that rule counts steps over all
    chains, not kept states, but it puts each chain's first kept step below
    0.3 of its steps, so every valid config keeps a state of every chain.
    """

    n_steps: int
    thin: int
    seed: int = 0

    def validate(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        if self.n_steps % N_CHAINS:
            raise ValueError(f"n_steps must be a multiple of {N_CHAINS} (the chain count)")
        if self.thin < 1:
            raise ValueError("thin must be positive")
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
    """Bundled chain + Gaussian-sample sizes for the KL ground-truth pipeline."""

    name: str
    chain: ChainConfig
    k2: int


# the named truth presets: (chain steps, thinning, Gaussian draws k2)
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
    the chain computed it. ``rhat`` is the split-R-hat of phi at the kept
    states over the chains (see ``split_rhat``); it is NaN when undefined.
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
    """Random-walk Metropolis-Hastings with fit-shaped Gaussian proposals.

    ``N_CHAINS`` independent chains run in lock-step, ``n_steps / N_CHAINS``
    steps each. Every chain starts at the mode, proposes N(0, (scale * S)^2)
    jumps with S the fit square root and scale the standard 2.38/sqrt(d)
    random-walk scaling (Roberts, Gelman & Gilks 1997), discards the first
    ``BURN_IN_FRACTION`` of its steps and keeps every ``thin``-th state after
    them; the samples are returned chain by chain. The draws come in blocks
    of ``BLOCK_STEPS`` steps: first (steps * chains) x d standard normals,
    row ``step * N_CHAINS + chain``, then steps x chains uniforms.

    The accept/reject recursion is sequential along each chain but
    independent across chains, so each step scores the proposals of all
    chains with one ``neg_log_density_many`` call and accepts row-wise; the
    per-call overhead of numpy is paid once per step for all chains. A
    proposal whose phi is NaN or +inf is rejected. An acceptance rate
    outside [0.05, 0.7] attaches a warning to the result rather than failing.
    """
    config.validate()
    d = model.dim
    if fit.dim != d:
        raise DimensionMismatchError("fit dimension does not match the model")
    scale = 2.38 / np.sqrt(d)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_CHAIN_STREAM,)))
    steps = config.n_steps // N_CHAINS
    keep = config._kept_steps()
    out = np.empty((N_CHAINS, keep.shape[0], d))
    out_phi = np.empty((N_CHAINS, keep.shape[0]))

    theta = np.tile(fit.theta_star, (N_CHAINS, 1))
    proposal = np.empty_like(theta)
    phi = model.neg_log_density_many(theta)
    accepted = np.zeros(N_CHAINS, dtype=np.int64)
    kept = 0
    for done in range(0, steps, BLOCK_STEPS):
        block = min(BLOCK_STEPS, steps - done)
        eta = rng.standard_normal((block * N_CHAINS, d))
        jumps = (scale * (eta @ fit.sqrt_covariance)).reshape(block, N_CHAINS, d)
        log_u = np.log(rng.random((block, N_CHAINS)))
        for b in range(block):
            np.add(theta, jumps[b], out=proposal)
            phi_prop = model.neg_log_density_many(proposal)
            move = log_u[b] < phi - phi_prop
            np.copyto(theta, proposal, where=move[:, None])
            np.copyto(phi, phi_prop, where=move)
            accepted += move
            if kept < keep.shape[0] and keep[kept] == done + b:
                out[:, kept] = theta
                out_phi[:, kept] = phi
                kept += 1

    rate = int(accepted.sum()) / config.n_steps
    warnings = ()
    if not ACCEPT_RATE_LOW <= rate <= ACCEPT_RATE_HIGH:
        warnings = (
            f"acceptance rate {rate:.3f} outside [{ACCEPT_RATE_LOW}, {ACCEPT_RATE_HIGH}]; "
            "the samples may not represent the target",
        )
    return ChainResult(
        samples=out.reshape(-1, d),
        phi=out_phi.reshape(-1),
        acceptance_rate=float(rate),
        rhat=split_rhat(out_phi),
        warnings=warnings,
    )


def estimate_log_inv_z(fit: LaplaceFit, posterior_samples, phi):
    """log of the importance estimate of 1/Z = E_f[g(theta)/f~(theta)].

    ``phi`` holds the model's phi at each posterior sample, as a chain's
    ``ChainResult.phi`` does; the model itself is not evaluated. The
    per-sample log-ratios are reduced with a single log-sum-exp, so the
    estimate survives ratios spanning hundreds of orders of magnitude. The
    error is a *relative* standard error from means over 50 contiguous
    batches, which absorbs chain autocorrelation. A non-finite log-ratio
    (phi infinite or NaN at a sample) raises NonFiniteObjectiveError.

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
    rel_se = (
        float(np.std(rel_batch_means, ddof=1) / np.sqrt(n_batches)) if n_batches > 1 else 0.0
    )
    return log_inv_z, rel_se


def estimate_kl(
    model: TargetModel,
    fit: LaplaceFit,
    k2: int,
    seed: int = 0,
    *,
    log_inv_z: float,
    inv_z_rel_se: float = 0.0,
) -> tuple[float, float]:
    """Monte-Carlo estimate ``(kl, se)`` of KL(g, f) given the log 1/Z estimate.

    Averages log g(theta) + phi(theta) over ``k2`` fresh draws from the fit
    and subtracts ``log_inv_z``, the log 1/Z estimate of
    ``estimate_log_inv_z``, whose relative standard error is
    ``inv_z_rel_se``. The standard error combines the i.i.d. sample
    variance with the 1/Z uncertainty propagated as an additive log-term.
    A non-finite log g + phi at any draw raises NonFiniteObjectiveError
    rather than averaging into a NaN or infinite KL.
    """
    if not np.isfinite(log_inv_z):
        raise ValueError("log_inv_z must be finite")
    if not (np.isfinite(inv_z_rel_se) and inv_z_rel_se >= 0):
        raise ValueError("inv_z_rel_se must be finite and nonnegative")
    if k2 < 2:
        raise ValueError("k2 must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_KL_STREAM,)))
    eta = rng.standard_normal((k2, fit.dim))
    thetas = fit.theta_star + eta @ fit.sqrt_covariance
    vals = laplace_log_density(fit, thetas) + model.neg_log_density_many(thetas)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NonFiniteObjectiveError(
            f"non-finite log g + phi at fit draw {int(bad[0])}", theta=thetas[bad[0]]
        )
    kl = float(vals.mean() - log_inv_z)
    se = float(np.sqrt(vals.var(ddof=1) / k2 + inv_z_rel_se**2))
    return kl, se


def estimate_true_kl(model: TargetModel, fit: LaplaceFit, preset: TruthPreset) -> KLEstimate:
    """Full pipeline: chain -> log 1/Z -> KL(g, f), all seeded from one integer."""
    config = preset.chain
    chain = run_chain(model, fit, config)
    log_inv_z, rel_se = estimate_log_inv_z(fit, chain.samples, chain.phi)
    kl, se = estimate_kl(
        model, fit, preset.k2, config.seed, log_inv_z=log_inv_z, inv_z_rel_se=rel_se
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
            "n_steps": config.n_steps,
            "thin": config.thin,
            "seed": config.seed,
            "k2": preset.k2,
            "rhat": chain.rhat if np.isfinite(chain.rhat) else None,
            "warnings": list(chain.warnings),
        },
    )
