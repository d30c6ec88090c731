"""Ground-truth machinery: posterior sampling and direct KL estimation.

A random-walk Metropolis-Hastings chain shaped by the Laplace covariance
draws samples from the target; an importance ratio against the normalized
Gaussian fit estimates the reciprocal normalizing constant 1/Z; and a plain
Monte-Carlo average over fresh Gaussian draws turns that into an estimate of
KL(g, f). Everything is driven by explicit integer seeds and is reproducible
bit for bit per backend.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatchError
from .kernels import gaussian_sweep, logistic_sweep
from .laplace import LaplaceFit, laplace_log_density
from .models import GaussianModel, LogisticRegressionModel, TargetModel

# steps per proposal block; fixed so the random stream does not depend on
# runtime tuning
BLOCK_STEPS = 16384
# steps per data-matrix projection inside a block of the logistic chain
PROJECTION_STEPS = 1024
N_BATCHES = 50

ACCEPT_RATE_LOW = 0.05
ACCEPT_RATE_HIGH = 0.7

_CHAIN_STREAM = 2
_KL_STREAM = 3


@dataclass(frozen=True)
class ChainConfig:
    """Random-walk chain settings.

    ``proposal_scale`` multiplies the fit square root; None selects the
    standard 2.38/sqrt(d) random-walk scaling at run time. Thinning applies
    after the burn-in fraction is discarded.
    """

    n_steps: int = 1_000_000
    thin: int = 100
    proposal_scale: float | None = None
    burn_in_fraction: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
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
    samples: np.ndarray
    acceptance_rate: float
    n_steps: int
    thin: int
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


def run_chain(
    model: TargetModel,
    fit: LaplaceFit,
    config: ChainConfig,
    backend: str | None = None,
) -> ChainResult:
    """Random-walk Metropolis-Hastings with fit-shaped Gaussian proposals.

    The chain starts at the mode, proposals are N(0, (scale * S)^2) jumps,
    and every ``thin``-th post-burn-in state is kept. An acceptance rate
    outside [0.05, 0.7] attaches a tuning warning to the result rather than
    failing.
    """
    config.validate()
    d = model.dim
    if fit.dim != d:
        raise DimensionMismatchError("fit dimension does not match the model")
    scale = config.proposal_scale if config.proposal_scale is not None else 2.38 / np.sqrt(d)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_CHAIN_STREAM,)))
    burn = int(round(config.burn_in_fraction * config.n_steps))
    keep = _keep_indices(config.n_steps, burn, config.thin)
    out = np.empty((keep.shape[0], d))

    logistic = isinstance(model, LogisticRegressionModel)
    gaussian = isinstance(model, GaussianModel)

    theta = fit.theta_star.copy()
    accepted = 0
    if logistic:
        sweep = logistic_sweep(backend)
        signed_x = model.signed_covariates
        half_ipv = 0.5 / (model.prior_sigma0 * model.prior_sigma0)
        t = signed_x @ theta
        phi_cur = model.neg_log_density(theta)
    elif gaussian:
        sweep = gaussian_sweep(backend)
        c = theta - model.mean
        q = model.precision @ c
        phi_cur = 0.5 * float(c @ q)
    else:
        phi_cur = model.neg_log_density(theta)

    done = 0
    kept_done = 0
    while done < config.n_steps:
        block = min(BLOCK_STEPS, config.n_steps - done)
        eta = rng.standard_normal((block, d))
        jumps = scale * (eta @ fit.sqrt_covariance)
        log_u = np.log(rng.random(block))
        lo = np.searchsorted(keep, done)
        hi = np.searchsorted(keep, done + block)
        keep_steps = keep[lo:hi] - done
        if logistic:
            # the (steps x n) projections are formed PROJECTION_STEPS rows at
            # a time; the draws above stay whole blocks, so the stream is unchanged
            acc = 0
            for start in range(0, block, PROJECTION_STEPS):
                stop = min(start + PROJECTION_STEPS, block)
                k_lo, k_hi = np.searchsorted(keep_steps, (start, stop))
                jump_proj = jumps[start:stop] @ signed_x.T
                phi_cur, sub_acc = sweep(
                    theta, t, phi_cur, jumps[start:stop], jump_proj, log_u[start:stop], half_ipv,
                    keep_steps[k_lo:k_hi] - start, out, kept_done + k_lo,
                )
                acc += sub_acc
        elif gaussian:
            jump_prec = jumps @ model.precision
            jump_quad = 0.5 * np.einsum("ij,ij->i", jumps, jump_prec)
            phi_cur, acc = sweep(
                c, q, phi_cur, jumps, jump_prec, jump_quad, log_u, model.mean, keep_steps,
                out, kept_done,
            )
        else:
            acc = 0
            ki = 0
            for b in range(block):
                candidate = theta + jumps[b]
                phi_prop = model.neg_log_density(candidate)
                if log_u[b] < phi_cur - phi_prop:
                    theta, phi_cur = candidate, phi_prop
                    acc += 1
                if ki < keep_steps.shape[0] and keep_steps[ki] == b:
                    out[kept_done + ki] = theta
                    ki += 1
        accepted += acc
        kept_done += keep_steps.shape[0]
        done += block

    rate = accepted / config.n_steps
    warnings = ()
    if not ACCEPT_RATE_LOW <= rate <= ACCEPT_RATE_HIGH:
        warnings = (
            f"acceptance rate {rate:.3f} outside [{ACCEPT_RATE_LOW}, {ACCEPT_RATE_HIGH}]; "
            "consider adjusting proposal_scale",
        )
    return ChainResult(
        samples=out,
        acceptance_rate=float(rate),
        n_steps=config.n_steps,
        thin=config.thin,
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
    backend: str | None = None,
) -> KLEstimate:
    """Full pipeline: chain -> 1/Z -> KL(g, f), all seeded from one integer."""
    chain_config = preset.chain if seed is None else replace(preset.chain, seed=seed)
    chain = run_chain(model, fit, chain_config, backend=backend)
    log_inv_z, rel_se = estimate_log_inv_z(model, fit, chain.samples)
    config_echo = {
        "preset": preset.name,
        "n_steps": chain_config.n_steps,
        "thin": chain_config.thin,
        "burn_in_fraction": chain_config.burn_in_fraction,
        "proposal_scale": chain_config.proposal_scale,
        "seed": chain_config.seed,
        "k2": preset.k2,
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
