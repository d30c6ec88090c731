"""Chain behavior, normalizing-constant estimation, and the KL pipeline."""

import dataclasses
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_audit import (
    ChainConfig,
    DimensionMismatchError,
    GaussianModel,
    LogisticRegressionModel,
    NonFiniteObjectiveError,
    TargetModel,
    TruthPreset,
    estimate_kl,
    estimate_log_inv_z,
    estimate_true_kl,
    fit_laplace,
    run_chain,
)

from laplace_audit import mcmc
from laplace_audit.bound import _direction_pass
from laplace_audit.laplace import LOG_2PI
from laplace_audit.mcmc import BLOCK_STEPS, N_CHAINS, PRESETS, RHAT_LIMIT, split_rhat
from laplace_audit.radial import _STREAMS, QUADRATURE_NODES, sample_direction_pairs

from oracles import (
    InfTailGaussian,
    SoftplusTilt1D,
    fresh_draw_kl,
    importance_posterior_means,
    logistic_phi,
    quadrature_gaussian_half_1d,
    quadrature_kl_1d,
    replay_chain,
)


def _batch_se(samples):
    k = samples.shape[0]
    bounds = np.linspace(0, k, 21, dtype=int)
    means = np.array([samples[a:b].mean(axis=0) for a, b in zip(bounds[:-1], bounds[1:])])
    return means.std(axis=0, ddof=1) / np.sqrt(20)


class _ShiftedPhi:
    """Delegating wrapper with phi shifted by a constant (f~ scaled by exp(shift))."""

    def __init__(self, inner, shift):
        self._inner = inner
        self._shift = shift
        self.dim = inner.dim

    def neg_log_density(self, theta):
        return self._inner.neg_log_density(theta) + self._shift

    def neg_log_density_many(self, thetas):
        return self._inner.neg_log_density_many(thetas) + self._shift

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CountingTilt(SoftplusTilt1D):
    """``SoftplusTilt1D`` that counts the points its many-point phi is asked for."""

    points = 0

    def neg_log_density_many(self, thetas):
        self.points += len(thetas)
        return super().neg_log_density_many(thetas)


class _DirectionsLogistic(LogisticRegressionModel):
    """The logistic model with the base class's ``expected_neg_log_density``, which returns None."""

    expected_neg_log_density = TargetModel.expected_neg_log_density

    @classmethod
    def like(cls, model):
        return cls(model.labels, model.covariates, model.prior_sigma0)


class _InfiniteExpectation(LogisticRegressionModel):
    def expected_neg_log_density(self, mean, sqrt_covariance):
        return np.inf


class _HalfPlane:
    """phi = |theta|^2 / 2 on theta[0] <= 1, NaN beyond it."""

    dim = 2
    nan_rows = 0

    def neg_log_density_many(self, thetas):
        phi = 0.5 * np.einsum("ij,ij->i", thetas, thetas)
        outside = thetas[:, 0] > 1.0
        self.nan_rows += int(outside.sum())
        return np.where(outside, np.nan, phi)


def test_run_chain_rejects_non_finite_phi():
    model = _HalfPlane()
    fit = fit_laplace(GaussianModel(np.zeros(2), np.eye(2)))
    chain = run_chain(model, fit, ChainConfig(n_steps=20_000, thin=20, seed=4))
    assert 0.0 < chain.acceptance_rate < 1.0
    # states beyond the half-plane were proposed but never entered
    assert model.nan_rows > 0
    assert np.all(chain.samples[:, 0] <= 1.0) and np.all(np.isfinite(chain.phi))
    kept = chain.samples
    np.testing.assert_array_equal(chain.phi, 0.5 * np.einsum("ki,ki->k", kept, kept))


def test_run_chain_deterministic_per_seed(logistic_tiny):
    model, fit = logistic_tiny
    config = ChainConfig(n_steps=20_000, thin=40, seed=23)
    a = run_chain(model, fit, config)
    b = run_chain(model, fit, config)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate and a.rhat == b.rhat


class TestRunChain:
    def test_gaussian_moments_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        model = GaussianModel(rng.standard_normal(3), a @ a.T + 3 * np.eye(3))
        fit = fit_laplace(model)
        chain = run_chain(model, fit, ChainConfig(n_steps=1_000_000, thin=100, seed=4))
        assert chain.k >= 9000
        se = _batch_se(chain.samples)
        assert np.all(np.abs(chain.samples.mean(axis=0) - model.mean) < 3 * se)
        cov = np.cov(chain.samples.T)
        frob = np.linalg.norm(cov - model.covariance) / np.linalg.norm(model.covariance)
        assert frob < 0.10

    def test_wrong_fit_still_samples_the_target(self, gaussian_5d):
        # a screen one standard deviation off the mode and 1.5 times too wide:
        # stage 1 alone would sample that fit, stage 2 corrects it to the target
        model, fit = gaussian_5d
        wrong = dataclasses.replace(
            fit,
            theta_star=fit.theta_star + np.sqrt(np.diag(model.covariance)),
            sqrt_covariance=1.5 * fit.sqrt_covariance,
        )
        chain = run_chain(model, wrong, ChainConfig(n_steps=1_000_000, thin=100, seed=4))
        assert chain.k >= 9000
        se = _batch_se(chain.samples)
        assert np.all(np.abs(chain.samples.mean(axis=0) - model.mean) < 3 * se)
        cov = np.cov(chain.samples.T)
        frob = np.linalg.norm(cov - model.covariance) / np.linalg.norm(model.covariance)
        assert frob < 0.10

    def test_default_scale_acceptance_window(self, logistic_small):
        model, fit = logistic_small
        chain = run_chain(model, fit, ChainConfig(n_steps=100_000, thin=100, seed=1))
        assert 0.15 <= chain.acceptance_rate <= 0.5
        assert chain.warnings == ()

    def test_fixed_seed_chain_identical(self, logistic_tiny):
        model, fit = logistic_tiny
        config = ChainConfig(n_steps=50_000, thin=100, seed=9)
        a = run_chain(model, fit, config)
        b = run_chain(model, fit, config)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    @pytest.mark.parametrize("kind", ["logistic", "gaussian", "tilt"])
    def test_matches_plain_loop_replay(self, kind, logistic_tiny, gaussian_5d):
        if kind == "tilt":
            model = SoftplusTilt1D(1.0)
            fit = fit_laplace(model)
        else:
            model, fit = logistic_tiny if kind == "logistic" else gaussian_5d
        # each chain runs one full and one short block, keeping every state
        config = ChainConfig(n_steps=N_CHAINS * (BLOCK_STEPS + 76), thin=1, seed=31)
        chain = run_chain(model, fit, config)
        samples, accepted = replay_chain(model, fit, config)
        assert chain.acceptance_rate == accepted.sum() / config.n_steps
        assert chain.samples.shape == samples.shape
        np.testing.assert_allclose(chain.samples, samples, rtol=1e-12, atol=1e-12)

    def test_logistic_posterior_means_match_importance_sampling(self, logistic_tiny):
        # a non-Gaussian target with d = 3: the chain's means of theta and phi
        # against a self-normalized importance estimate on fresh draws of the fit
        model, fit = logistic_tiny
        chain = run_chain(model, fit, ChainConfig(n_steps=N_CHAINS * 10_000, thin=10, seed=5))
        values = np.column_stack([chain.samples, logistic_phi(model, chain.samples)])
        want, want_se = importance_posterior_means(model, fit, 200_000, seed=6)
        se = np.hypot(_batch_se(values), want_se)
        assert np.all(np.abs(values.mean(axis=0) - want) < 4 * se)

    def test_absurd_scale_attaches_warning(self, logistic_tiny):
        model, fit = logistic_tiny
        # a fit 80 times too wide makes the fixed-scale proposals absurd
        wide = dataclasses.replace(fit, sqrt_covariance=80 * fit.sqrt_covariance)
        chain = run_chain(model, wide, ChainConfig(n_steps=20_000, thin=100, seed=2))
        assert chain.acceptance_rate < 0.05
        # the chains that barely move do not mix either
        assert chain.rhat > RHAT_LIMIT
        assert len(chain.warnings) == 2
        assert "acceptance rate" in chain.warnings[0]
        assert f"split R-hat of phi {chain.rhat:.4f}" in chain.warnings[1]

    @pytest.mark.parametrize(
        "rhat, warned", [(1.0, False), (RHAT_LIMIT, False), (1.0101, True), (math.nan, False)]
    )
    def test_rhat_above_the_limit_attaches_warning(self, rhat, warned, logistic_tiny, monkeypatch):
        model, fit = logistic_tiny
        monkeypatch.setattr(mcmc, "split_rhat", lambda draws: rhat)
        chain = run_chain(model, fit, ChainConfig(n_steps=N_CHAINS * 500, thin=100, seed=3))
        np.testing.assert_equal(chain.rhat, rhat)
        assert chain.warnings == (
            (f"split R-hat of phi 1.0101 above {RHAT_LIMIT}; the chains may not have mixed",)
            if warned else ()
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_steps=1000, thin=100)
        with pytest.raises(ValueError):
            ChainConfig(n_steps=0, thin=100)
        with pytest.raises(ValueError):
            ChainConfig(n_steps=1_000_000, thin=0)

    def test_config_rejects_non_integer_counts(self):
        # whole floats used to pass the config check and fail late inside numpy
        with pytest.raises(ValueError, match="n_steps must be a positive integer"):
            ChainConfig(n_steps=40_000.0, thin=100)
        with pytest.raises(ValueError, match="thin must be a positive integer"):
            ChainConfig(n_steps=40_000, thin=100.0)
        ChainConfig(n_steps=np.int64(40_000), thin=np.int32(100))

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ChainConfig(n_steps=40_000, thin=100, seed=seed)

    def test_fit_of_another_dimension_rejected(self, logistic_tiny, gaussian_5d):
        model, _ = logistic_tiny
        _, fit = gaussian_5d
        with pytest.raises(DimensionMismatchError, match="fit dimension does not match"):
            run_chain(model, fit, ChainConfig(n_steps=40_000, thin=100))

    def test_config_that_keeps_no_state_rejected(self, logistic_tiny):
        model, fit = logistic_tiny
        # 1,000 steps per chain: 100 burn-in leave 900, fewer than thin = 1,000;
        # the 100-step rule turns it away
        with pytest.raises(ValueError, match="at least 100"):
            ChainConfig(n_steps=N_CHAINS * 1_000, thin=1_000)
        # 500 steps per chain: 50 burn-in, then four kept states in each chain
        short = ChainConfig(n_steps=N_CHAINS * 500, thin=100, seed=1)
        assert run_chain(model, fit, short).k == N_CHAINS * 4

    @settings(max_examples=300, deadline=None)
    @given(
        chain_steps=st.integers(min_value=1, max_value=20_000),
        thin=st.integers(min_value=1, max_value=4_000),
    )
    def test_every_valid_config_keeps_a_state(self, chain_steps, thin):
        try:
            config = ChainConfig(n_steps=N_CHAINS * chain_steps, thin=thin)
        except ValueError:
            return
        assert config._kept_steps().size > 0

    def test_steps_must_split_evenly_over_the_chains(self, logistic_tiny):
        model, fit = logistic_tiny
        ChainConfig(n_steps=20_000 + N_CHAINS, thin=100)
        with pytest.raises(ValueError, match="multiple"):
            ChainConfig(n_steps=20_000 + N_CHAINS // 2, thin=100)
        with pytest.raises(ValueError, match="multiple"):
            run_chain(model, fit, ChainConfig(n_steps=20_001, thin=100))

    def test_burn_in_and_thinning_apply_per_chain(self, logistic_tiny):
        model, fit = logistic_tiny
        # 1,000 steps per chain: 100 burn-in, then every 30th -> 30 kept each
        chain = run_chain(model, fit, ChainConfig(n_steps=N_CHAINS * 1_000, thin=30, seed=3))
        assert chain.k == N_CHAINS * 30


class TestSplitRhat:
    def test_near_one_on_a_gaussian_target(self, gaussian_5d):
        model, fit = gaussian_5d
        config = ChainConfig(n_steps=200_000, thin=50, seed=12)
        a = run_chain(model, fit, config)
        assert abs(a.rhat - 1.0) < 0.02
        b = run_chain(model, fit, config)
        assert a.rhat == b.rhat

    def test_flags_chains_that_disagree(self):
        rng = np.random.default_rng(0)
        mixed = rng.standard_normal((N_CHAINS, 200))
        assert split_rhat(mixed) == pytest.approx(1.0, abs=0.03)
        shifted = mixed + np.arange(N_CHAINS)[:, None]
        assert split_rhat(shifted) > 2.0
        # a trend inside each chain shows up through the split halves
        trending = mixed + np.linspace(0.0, 4.0, 200)
        assert split_rhat(trending) > 1.2

    def test_undefined_cases_are_nan(self):
        assert np.isnan(split_rhat(np.ones((N_CHAINS, 3))))
        assert np.isnan(split_rhat(np.ones((N_CHAINS, 50))))

    def test_echoed_in_the_kl_config(self, gaussian_5d):
        model, fit = gaussian_5d
        preset = TruthPreset(
            name="test", chain=ChainConfig(n_steps=100_000, thin=100, seed=2), k2=1_000
        )
        est = estimate_true_kl(model, fit, preset)
        chain = run_chain(model, fit, preset.chain)
        assert est.config["rhat"] == chain.rhat
        assert abs(est.config["rhat"] - 1.0) < 0.05


class TestEstimateInvZ:
    """The log-space 1/Z estimate, ``estimate_log_inv_z``."""

    def test_gaussian_matches_analytic_constant(self, gaussian_5d):
        model, fit = gaussian_5d
        chain = run_chain(model, fit, ChainConfig(n_steps=100_000, thin=100, seed=3))
        log_inv_z, rel_se = estimate_log_inv_z(fit, chain.samples, chain.phi)
        analytic = -0.5 * (5 * np.log(2 * np.pi) + np.linalg.slogdet(model.covariance)[1])
        # the per-sample ratio is constant for an exact-Gaussian target
        assert log_inv_z == pytest.approx(analytic, abs=1e-10)
        assert rel_se <= 1e-12

    def test_constant_rescaling_of_target(self, logistic_tiny):
        model, fit = logistic_tiny
        chain = run_chain(model, fit, ChainConfig(n_steps=50_000, thin=50, seed=5))
        base, _ = estimate_log_inv_z(fit, chain.samples, chain.phi)
        scaled = _ShiftedPhi(model, -np.log(10.0))  # f~ -> 10 * f~
        scaled_phi = scaled.neg_log_density_many(chain.samples)
        scaled_log_inv_z, _ = estimate_log_inv_z(fit, chain.samples, scaled_phi)
        assert scaled_log_inv_z == pytest.approx(base - np.log(10.0), abs=1e-12)

    def test_normalized_target_gives_one(self, gaussian_5d):
        model, fit = gaussian_5d
        shift = 0.5 * (5 * np.log(2 * np.pi) + fit.log_det_covariance)
        normalized = _ShiftedPhi(model, shift)
        chain = run_chain(model, fit, ChainConfig(n_steps=50_000, thin=50, seed=6))
        phi = normalized.neg_log_density_many(chain.samples)
        log_inv_z, _ = estimate_log_inv_z(fit, chain.samples, phi)
        assert log_inv_z == pytest.approx(0.0, abs=1e-12)

    def test_empty_samples_rejected(self, gaussian_5d):
        model, fit = gaussian_5d
        with pytest.raises(ValueError):
            estimate_log_inv_z(fit, np.zeros((0, 5)), np.zeros(0))

    @pytest.mark.parametrize("kind", ["logistic", "gaussian"])
    def test_chain_phi_stands_in_for_the_model(self, kind, logistic_tiny, gaussian_5d):
        model, fit = logistic_tiny if kind == "logistic" else gaussian_5d
        chain = run_chain(model, fit, ChainConfig(n_steps=20_000, thin=20, seed=8))
        again = model.neg_log_density_many(chain.samples)
        with_phi = estimate_log_inv_z(fit, chain.samples, chain.phi)
        recomputed = estimate_log_inv_z(fit, chain.samples, again)
        if kind == "logistic":
            # the chain scores each state by the same row-wise margins
            np.testing.assert_array_equal(chain.phi, again)
            assert with_phi == recomputed
        else:
            # deltas @ precision may round differently over 20 rows and over all
            np.testing.assert_allclose(chain.phi, again, rtol=1e-13, atol=0)
            assert with_phi == pytest.approx(recomputed, rel=1e-13, abs=0)

    def test_phi_needs_one_value_per_sample(self, gaussian_5d):
        model, fit = gaussian_5d
        with pytest.raises(DimensionMismatchError):
            estimate_log_inv_z(fit, np.zeros((4, 5)), np.zeros(3))

    def test_non_finite_ratio_raises_structured_error(self):
        model = InfTailGaussian(np.zeros(2), np.eye(2))
        fit = fit_laplace(model)
        samples = np.array([[0.0, 0.0], [0.5, 1.0], [2.0, 0.0], [0.1, -0.3]])
        with pytest.raises(NonFiniteObjectiveError, match="sample index 2") as exc_info:
            estimate_log_inv_z(fit, samples, model.neg_log_density_many(samples))
        np.testing.assert_array_equal(exc_info.value.theta, samples[2])


class TestEstimateKl:
    def test_self_distribution_is_zero(self, gaussian_5d):
        model, fit = gaussian_5d
        chain = run_chain(model, fit, ChainConfig(n_steps=100_000, thin=100, seed=7))
        log_inv_z, rel_se = estimate_log_inv_z(fit, chain.samples, chain.phi)
        kl, se = estimate_kl(model, fit, 10_000, seed=8, log_inv_z=log_inv_z, inv_z_rel_se=rel_se)
        assert abs(kl) <= max(3 * se, 1e-12)

    def test_1d_pipeline_matches_quadrature(self):
        model = SoftplusTilt1D(1.0)
        fit = fit_laplace(model)
        preset = TruthPreset(
            name="test", chain=ChainConfig(n_steps=200_000, thin=20, seed=3), k2=20_000
        )
        est = estimate_true_kl(model, fit, preset)
        truth = quadrature_kl_1d(model, fit)
        assert truth > 0
        assert abs(est.kl - truth) <= 3 * est.standard_error

    def test_thinning_invariance_of_inv_z(self, logistic_tiny):
        model, fit = logistic_tiny
        values = {}
        for thin in (500, 1000):
            chain = run_chain(model, fit, ChainConfig(n_steps=400_000, thin=thin, seed=11))
            values[thin] = estimate_log_inv_z(fit, chain.samples, chain.phi)
        (a, ra), (b, rb) = values[500], values[1000]
        # |1/Z_a - 1/Z_b| <= 3 (combined se), divided through by 1/Z_b
        assert abs(np.exp(a - b) - 1.0) <= 3 * np.hypot(np.exp(a - b) * ra, rb)

    def test_json_schema(self, gaussian_5d):
        model, fit = gaussian_5d
        preset = TruthPreset(
            name="test", chain=ChainConfig(n_steps=N_CHAINS * 500, thin=100, seed=0), k2=100
        )
        payload = estimate_true_kl(model, fit, preset).to_json_dict()
        # the linear 1/Z overflows past moderate d, so inv_z and inv_z_se are
        # absent: only the log form is written
        assert set(payload) == {
            "kl", "se", "log_inv_z", "inv_z_rel_se", "k", "k2", "acceptance_rate", "config"
        }
        assert set(payload["config"]) == {
            "preset", "n_steps", "thin", "seed", "k2", "rhat", "warnings", "gaussian_half"
        }
        assert (payload["k"], payload["k2"]) == (N_CHAINS * 4, 100)
        json.loads(json.dumps(payload, allow_nan=False))

    def test_non_finite_phi_at_a_draw_raises_structured_error(self):
        # before, the infinite phi averaged into an infinite kl, silently
        model = InfTailGaussian(np.zeros(2), np.eye(2))
        fit = fit_laplace(model)
        with pytest.raises(NonFiniteObjectiveError, match="ray node") as exc_info:
            estimate_kl(model, fit, 1000, seed=0, log_inv_z=0.0)
        assert exc_info.value.theta[0] > 1.0

    @pytest.mark.parametrize("target", ["logistic_small", "logistic_d50", "gaussian_5d"])
    def test_radial_half_agrees_with_fresh_draws(self, target, request):
        # E_g[log g + phi] by the ray pass against the plain average over
        # fresh draws of the fit, which evaluates phi point by point; on the
        # Gaussian both are constant but for rounding, hence the 1e-12 floor
        model, fit = request.getfixturevalue(target)
        half, se = estimate_kl(model, fit, 10_000, seed=5, log_inv_z=0.0)
        ref, ref_se = fresh_draw_kl(model, fit, 20_000, seed=6, log_inv_z=0.0)
        assert abs(half - ref) <= 4 * np.hypot(se, ref_se) + 1e-12

    @pytest.mark.parametrize("target", ["logistic_small", "logistic_d50"])
    def test_se_is_the_pair_standard_error(self, target, request):
        # estimate_kl's direction stream and ray pass, replayed, on the
        # logistic model without its quadrature of E_g[phi]
        model, fit = request.getfixturevalue(target)
        model = _DirectionsLogistic.like(model)
        k2, seed = 4_000, 5
        _, se = estimate_kl(model, fit, k2, seed=seed, log_inv_z=0.0, inv_z_rel_se=0.0)
        n_pairs = k2 // (2 * QUADRATURE_NODES)
        vs, _, _, xi = _direction_pass(model, fit, n_pairs, seed, "kl", QUADRATURE_NODES)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_STREAMS["kl"]))
        np.testing.assert_array_equal(
            vs, sample_direction_pairs(fit.dim, n_pairs, rng) @ fit.sqrt_covariance
        )
        pair_means = xi.reshape(n_pairs, 2).mean(axis=1).tolist()
        assert se > 0.0
        assert se == pytest.approx(statistics.stdev(pair_means) / math.sqrt(n_pairs), rel=1e-12)

    def test_logistic_half_is_the_quadrature(self, logistic_small):
        # E_g[log g] in closed form plus the model's E_g[phi]: no directions,
        # so the standard error is the 1/Z part alone
        model, fit = logistic_small
        kl, se = estimate_kl(model, fit, 10_000, seed=2, log_inv_z=0.5, inv_z_rel_se=0.03)
        expected_phi = model.expected_neg_log_density(fit.theta_star, fit.sqrt_covariance)
        log_g = -0.5 * (5 * (LOG_2PI + 1.0) + fit.log_det_covariance)
        assert kl == pytest.approx(log_g + expected_phi - 0.5, rel=0, abs=1e-12)
        assert se == 0.03
        # the seed drives nothing here
        assert estimate_kl(model, fit, 10_000, seed=3, log_inv_z=0.5) == (kl, 0.0)

    def test_quadrature_path_refuses_what_the_pass_refuses(self, logistic_small):
        model, fit = logistic_small
        for k2 in (4 * QUADRATURE_NODES - 1, 1000.0):
            with pytest.raises(ValueError, match="k2 must be an integer"):
                estimate_kl(model, fit, k2, log_inv_z=0.0)
        for seed in (1.5, -1, True):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                estimate_kl(model, fit, 1000, seed=seed, log_inv_z=0.0)

    def test_non_finite_expectation_raises_structured_error(self, logistic_tiny):
        model, fit = logistic_tiny
        model = _InfiniteExpectation(model.labels, model.covariates, model.prior_sigma0)
        with pytest.raises(NonFiniteObjectiveError, match="expected_neg_log_density"):
            estimate_kl(model, fit, 1000, log_inv_z=0.0)

    def test_config_names_how_the_gaussian_half_was_taken(self, logistic_tiny, gaussian_5d):
        chain = ChainConfig(n_steps=N_CHAINS * 500, thin=100, seed=1)
        tilt = SoftplusTilt1D(1.0)
        for (model, fit), half in (
            (logistic_tiny, "quadrature"),
            ((_DirectionsLogistic.like(logistic_tiny[0]), logistic_tiny[1]), "directions"),
            (gaussian_5d, "directions"),
            ((tilt, fit_laplace(tilt)), "directions"),
        ):
            est = estimate_true_kl(model, fit, TruthPreset("test", chain, 1_000))
            assert est.config["gaussian_half"] == half

    def test_gaussian_half_is_exact(self, gaussian_5d):
        # every ray of a Gaussian is exactly quadratic, so every xi is 0
        model, fit = gaussian_5d
        half, se = estimate_kl(model, fit, 10_000, seed=2, log_inv_z=0.0)
        assert half == -0.5 * (5 * LOG_2PI + fit.log_det_covariance) + fit.neg_log_density_at_mode
        assert se == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 5.0])
    def test_1d_half_matches_quadrature(self, alpha):
        # at d = 1 the direction law is the two points +-1, both in every pair
        model = SoftplusTilt1D(alpha)
        fit = fit_laplace(model)
        half, se = estimate_kl(model, fit, 1_000, seed=4, log_inv_z=0.0)
        assert half == pytest.approx(quadrature_gaussian_half_1d(model, fit), rel=0, abs=1e-12)
        assert se == 0.0

    def test_k2_counts_phi_evaluations(self):
        model = _CountingTilt(1.0)
        fit = fit_laplace(model)
        model.points = 0
        estimate_kl(model, fit, 10_000, log_inv_z=0.0)
        assert model.points == 2 * QUADRATURE_NODES * (10_000 // (2 * QUADRATURE_NODES))
        # fewer than two antithetic pairs is no estimate
        estimate_kl(model, fit, 4 * QUADRATURE_NODES, log_inv_z=0.0)
        with pytest.raises(ValueError, match="k2"):
            estimate_kl(model, fit, 4 * QUADRATURE_NODES - 1, log_inv_z=0.0)

    def test_k2_must_be_an_integer(self, gaussian_5d):
        # k2 sets a direction count, which numpy takes only as an integer
        model, fit = gaussian_5d
        with pytest.raises(ValueError, match="k2 must be an integer"):
            estimate_kl(model, fit, 1000.0, log_inv_z=0.0)
        estimate_kl(model, fit, np.int64(1000), log_inv_z=0.0)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed, gaussian_5d):
        model, fit = gaussian_5d
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            estimate_kl(model, fit, 1000, seed=seed, log_inv_z=0.0)

    def test_invalid_inputs(self, gaussian_5d):
        model, fit = gaussian_5d
        with pytest.raises(ValueError):
            estimate_kl(model, fit, 1, log_inv_z=0.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="log_inv_z"):
                estimate_kl(model, fit, 100, log_inv_z=bad)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="inv_z_rel_se"):
                estimate_kl(model, fit, 100, log_inv_z=0.0, inv_z_rel_se=bad)
        # the old linear form, (model, fit, inv_z, k2), no longer passes for a log
        with pytest.raises(TypeError):
            estimate_kl(model, fit, 1.0, 100)


class TestPresets:
    def test_preset_sizes(self):
        from laplace_audit import desk_preset, get_preset

        desk = desk_preset()
        assert (desk.chain.n_steps, desk.chain.thin, desk.k2) == (1_000_000, 100, 10_000)
        paper = get_preset("paper")
        assert (paper.chain.n_steps, paper.chain.thin, paper.k2) == (
            10_000_000,
            1000,
            100_000,
        )
        assert {name: get_preset(name).name for name in PRESETS} == {
            "desk": "desk", "paper": "paper"
        }
        assert get_preset("paper", seed=4).chain.seed == 4
        with pytest.raises(ValueError):
            get_preset("huge")

    def test_bad_k2_refused_before_any_chain_step(self, logistic_tiny, monkeypatch):
        # a preset's k2 used to be checked only by estimate_kl, after the
        # whole chain had run
        def no_chain(*args, **kwargs):
            raise AssertionError("run_chain called")

        model, fit = logistic_tiny
        monkeypatch.setattr(mcmc, "run_chain", no_chain)
        chain = ChainConfig(n_steps=N_CHAINS * 500, thin=100)
        for k2 in (10, 4 * QUADRATURE_NODES - 1, 1_000.0):
            with pytest.raises(ValueError, match="k2 must be an integer >= 64"):
                estimate_true_kl(model, fit, TruthPreset("bad", chain, k2))
        # the named presets are built the same way, so the CLI's truth stops too
        monkeypatch.setitem(PRESETS, "desk", (1_000_000, 100, 10))
        with pytest.raises(ValueError, match="k2 must be an integer >= 64"):
            estimate_true_kl(model, fit, mcmc.desk_preset())
