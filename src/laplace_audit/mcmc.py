"""Ground-truth machinery: posterior sampling and direct KL estimation.

Random-walk Metropolis-Hastings chains shaped by the Laplace covariance,
``N_CHAINS`` of them run in lock-step, draw samples from the target; an
importance ratio against the normalized Gaussian fit estimates the reciprocal
normalizing constant 1/Z; and a plain Monte-Carlo average over fresh Gaussian
draws turns that into an estimate of KL(g, f). Everything is driven by
explicit integer seeds, and a seed gives the same numbers on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatchError
from .kernels import lockstep_sweep
from .laplace import LaplaceFit, laplace_log_density
from .models import TargetModel

# independent chains advanced together; ChainConfig.n_steps is their total
N_CHAINS = 20
# steps of every chain per proposal block; fixed so the random stream does not
# depend on runtime tuning
BLOCK_STEPS = 256
N_BATCHES = 50

ACCEPT_RATE_LOW = 0.05
ACCEPT_RATE_HIGH = 0.7

_CHAIN_STREAM = 2
_KL_STREAM = 3


@dataclass(frozen=True)
class ChainConfig:
    """Random-walk chain settings.

    ``n_steps`` is the total over the ``N_CHAINS`` chains and must be a
    multiple of it. ``proposal_scale`` multiplies the fit square root; None
    selects the standard 2.38/sqrt(d) random-walk scaling at run time. The
    burn-in fraction and the thinning apply to each chain's own steps.
    """

    n_steps: int = 1_000_000
    thin: int = 100
    proposal_scale: float | None = None
    burn_in_fraction: float = 0.1
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
        if self.proposal_scale is not None and self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError("burn_in_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class TruthPreset:
    """Bundled chain + Gaussian-sample sizes for the KL ground-truth pipeline."""

    name: str
    chain: ChainConfig
    k2: int


def desk_preset(seed: int = 0) -> TruthPreset:
    """Reduced preset that runs a full experiment grid in minutes."""
    return TruthPreset(
        name="desk", chain=ChainConfig(n_steps=1_000_000, thin=100, seed=seed), k2=10_000
    )


def paper_preset(seed: int = 0) -> TruthPreset:
    """Full-scale preset: 1e7 steps thinned by 1000, 1e5 Gaussian samples."""
    return TruthPreset(
        name="paper", chain=ChainConfig(n_steps=10_000_000, thin=1000, seed=seed), k2=100_000
    )


def get_preset(name: str, seed: int = 0) -> TruthPreset:
    if name == "desk":
        return desk_preset(seed)
    if name == "paper":
        return paper_preset(seed)
    raise ValueError(f"unknown mcmc preset {name!r}")


@dataclass(frozen=True)
class ChainResult:
    """Kept states, chain by chain, with the chains' diagnostics.

    ``rhat`` is the split-R-hat of phi at the kept states over the chains
    (see ``split_rhat``); it is NaN when undefined.
    """

    samples: np.ndarray
    acceptance_rate: float
    n_steps: int
    thin: int
    rhat: float
    warnings: tuple = field(default_factory=tuple)

    @property
    def k(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class KLEstimate:
    """Sampling-based estimate of KL(g, f) with its error budget.

    The reciprocal normalizing constant is carried as ``log_inv_z`` with a
    *relative* standard error, because 1/Z overflows double precision already
    at moderate dimensions; ``inv_z``/``inv_z_se`` are the exponentiated
    values where representable.
    """

    kl: float
    standard_error: float
    log_inv_z: float
    inv_z_rel_se: float
    k: int
    k2: int
    acceptance_rate: float
    config: dict

    @property
    def inv_z(self) -> float:
        return float(np.exp(self.log_inv_z))

    @property
    def inv_z_se(self) -> float:
        return float(self.inv_z * self.inv_z_rel_se)

    def to_json_dict(self) -> dict:
        def _finite_or_none(value: float):
            return value if np.isfinite(value) else None

        return {
            "kl": self.kl,
            "se": self.standard_error,
            "inv_z": _finite_or_none(self.inv_z),
            "inv_z_se": _finite_or_none(self.inv_z_se),
            "log_inv_z": self.log_inv_z,
            "inv_z_rel_se": self.inv_z_rel_se,
            "k": self.k,
            "k2": self.k2,
            "acceptance_rate": self.acceptance_rate,
            "config": self.config,
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle)
            handle.write("\n")


def _keep_indices(n_steps: int, burn: int, thin: int) -> np.ndarray:
    # first kept sample lands `thin` steps after burn-in ends
    first = burn + thin - 1
    return np.arange(first, n_steps, thin, dtype=np.int64)


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
    jumps, discards its own burn-in and keeps every ``thin``-th state after
    it; the samples are returned chain by chain. The draws come in blocks of
    ``BLOCK_STEPS`` steps: first (steps * chains) x d standard normals, row
    ``step * N_CHAINS + chain``, then steps x chains uniforms. An acceptance
    rate outside [0.05, 0.7] attaches a tuning warning to the result rather
    than failing.
    """
    config.validate()
    d = model.dim
    if fit.dim != d:
        raise DimensionMismatchError("fit dimension does not match the model")
    scale = config.proposal_scale if config.proposal_scale is not None else 2.38 / np.sqrt(d)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_CHAIN_STREAM,)))
    steps = config.n_steps // N_CHAINS
    burn = int(round(config.burn_in_fraction * steps))
    keep = _keep_indices(steps, burn, config.thin)
    out = np.empty((N_CHAINS, keep.shape[0], d))
    out_phi = np.empty((N_CHAINS, keep.shape[0]))

    theta = np.tile(fit.theta_star, (N_CHAINS, 1))
    phi = model.neg_log_density_many(theta)
    accepted = np.zeros(N_CHAINS, dtype=np.int64)
    for done in range(0, steps, BLOCK_STEPS):
        block = min(BLOCK_STEPS, steps - done)
        eta = rng.standard_normal((block * N_CHAINS, d))
        jumps = (scale * (eta @ fit.sqrt_covariance)).reshape(block, N_CHAINS, d)
        log_u = np.log(rng.random((block, N_CHAINS)))
        lo, hi = np.searchsorted(keep, (done, done + block))
        accepted += lockstep_sweep(
            model, theta, phi, jumps, log_u, keep[lo:hi] - done, out, out_phi, lo
        )

    rate = int(accepted.sum()) / config.n_steps
    warnings = ()
    if not ACCEPT_RATE_LOW <= rate <= ACCEPT_RATE_HIGH:
        warnings = (
            f"acceptance rate {rate:.3f} outside [{ACCEPT_RATE_LOW}, {ACCEPT_RATE_HIGH}]; "
            "consider adjusting proposal_scale",
        )
    return ChainResult(
        samples=out.reshape(-1, d),
        acceptance_rate=float(rate),
        n_steps=config.n_steps,
        thin=config.thin,
        rhat=split_rhat(out_phi),
        warnings=warnings,
    )


def estimate_log_inv_z(model: TargetModel, fit: LaplaceFit, posterior_samples):
    """log of the importance estimate of 1/Z = E_f[g(theta)/f~(theta)].

    The per-sample log-ratios are reduced with a single log-sum-exp, so the
    estimate survives ratios spanning hundreds of orders of magnitude. The
    error is a *relative* standard error from means over 50 contiguous
    batches, which absorbs chain autocorrelation.

    Returns
    -------
    (log_inv_z, rel_se)
    """
    samples = np.asarray(posterior_samples, dtype=float)
    k = samples.shape[0]
    if k == 0:
        raise ValueError("no posterior samples supplied")
    log_ratio = laplace_log_density(fit, samples) + model.neg_log_density_many(samples)
    bad = np.flatnonzero(~np.isfinite(log_ratio))
    if bad.size:
        raise FloatingPointError(
            f"non-finite importance ratio at sample index {int(bad[0])}"
        )
    log_inv_z = float(logsumexp(log_ratio) - np.log(k))
    n_batches = min(N_BATCHES, k)
    bounds = np.linspace(0, k, n_batches + 1, dtype=int)
    # batch means relative to the overall mean stay O(1)
    rel_batch_means = np.array(
        [
            np.exp(logsumexp(log_ratio[a:b]) - np.log(b - a) - log_inv_z)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
    )
    rel_se = (
        float(np.std(rel_batch_means, ddof=1) / np.sqrt(n_batches)) if n_batches > 1 else 0.0
    )
    return log_inv_z, rel_se


def estimate_inv_z(model: TargetModel, fit: LaplaceFit, posterior_samples):
    """Importance estimate of 1/Z with its standard error.

    Plain-value wrapper around ``estimate_log_inv_z``; the returned floats
    overflow for targets whose normalizing scale exceeds double precision,
    in which case work with the log form directly.

    Returns
    -------
    (inv_z, inv_z_se)
    """
    log_inv_z, rel_se = estimate_log_inv_z(model, fit, posterior_samples)
    inv_z = float(np.exp(log_inv_z))
    return inv_z, inv_z * rel_se


def estimate_kl(
    model: TargetModel,
    fit: LaplaceFit,
    inv_z: float | None,
    k2: int,
    seed: int = 0,
    inv_z_se: float = 0.0,
    *,
    log_inv_z: float | None = None,
    inv_z_rel_se: float | None = None,
    acceptance_rate: float = float("nan"),
    k: int = 0,
    config: dict | None = None,
) -> KLEstimate:
    """Monte-Carlo estimate of KL(g, f) given the 1/Z estimate.

    Averages log g(theta) + phi(theta) over ``k2`` fresh draws from the fit
    and adds log Z. Pass either ``inv_z`` (+ ``inv_z_se``) or the log-space
    pair ``log_inv_z`` (+ ``inv_z_rel_se``); the log form takes precedence.
    The reported standard error combines the i.i.d. sample variance with the
    1/Z uncertainty propagated as an additive log-term.
    """
    if log_inv_z is None:
        if inv_z is None or not inv_z > 0:
            raise ValueError("inv_z must be positive")
        log_inv_z = float(np.log(inv_z))
        inv_z_rel_se = inv_z_se / inv_z
    elif inv_z_rel_se is None:
        inv_z_rel_se = 0.0
    if k2 < 2:
        raise ValueError("k2 must be at least 2")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_KL_STREAM,)))
    eta = rng.standard_normal((k2, fit.dim))
    thetas = fit.theta_star + eta @ fit.sqrt_covariance
    vals = laplace_log_density(fit, thetas) + model.neg_log_density_many(thetas)
    kl = float(vals.mean() - log_inv_z)
    se = float(np.sqrt(vals.var(ddof=1) / k2 + inv_z_rel_se**2))
    return KLEstimate(
        kl=kl,
        standard_error=se,
        log_inv_z=log_inv_z,
        inv_z_rel_se=float(inv_z_rel_se),
        k=k,
        k2=k2,
        acceptance_rate=acceptance_rate,
        config=config or {},
    )


def estimate_true_kl(
    model: TargetModel,
    fit: LaplaceFit,
    preset: TruthPreset,
    seed: int | None = None,
) -> KLEstimate:
    """Full pipeline: chain -> 1/Z -> KL(g, f), all seeded from one integer."""
    chain_config = preset.chain if seed is None else replace(preset.chain, seed=seed)
    chain = run_chain(model, fit, chain_config)
    log_inv_z, rel_se = estimate_log_inv_z(model, fit, chain.samples)
    config_echo = {
        "preset": preset.name,
        "n_steps": chain_config.n_steps,
        "thin": chain_config.thin,
        "burn_in_fraction": chain_config.burn_in_fraction,
        "proposal_scale": chain_config.proposal_scale,
        "seed": chain_config.seed,
        "k2": preset.k2,
        "rhat": chain.rhat if np.isfinite(chain.rhat) else None,
        "warnings": list(chain.warnings),
    }
    return estimate_kl(
        model,
        fit,
        None,
        preset.k2,
        seed=chain_config.seed,
        log_inv_z=log_inv_z,
        inv_z_rel_se=rel_se,
        acceptance_rate=chain.acceptance_rate,
        k=chain.k,
        config=config_echo,
    )
