"""Chain behavior, normalizing-constant estimation, and the KL pipeline."""

import numpy as np
import pytest

from laplace_audit import (
    ChainConfig,
    GaussianModel,
    TruthPreset,
    build_fit,
    estimate_inv_z,
    estimate_kl,
    estimate_log_inv_z,
    estimate_true_kl,
    fit_laplace,
    run_chain,
)

from laplace_audit.mcmc import BLOCK_STEPS, N_CHAINS, split_rhat

from oracles import SoftplusTilt1D, quadrature_kl_1d, replay_chain


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

    def test_absurd_scale_attaches_warning(self, logistic_tiny):
        model, fit = logistic_tiny
        chain = run_chain(
            model, fit, ChainConfig(n_steps=20_000, thin=100, seed=2, proposal_scale=80.0)
        )
        assert chain.acceptance_rate < 0.05
        assert len(chain.warnings) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_steps=1000, thin=100).validate()
        with pytest.raises(ValueError):
            ChainConfig(proposal_scale=-1.0).validate()
        with pytest.raises(ValueError):
            ChainConfig(burn_in_fraction=1.0).validate()

    def test_steps_must_split_evenly_over_the_chains(self, logistic_tiny):
        model, fit = logistic_tiny
        ChainConfig(n_steps=20_000 + N_CHAINS, thin=100).validate()
        with pytest.raises(ValueError, match="multiple"):
            ChainConfig(n_steps=20_000 + N_CHAINS // 2, thin=100).validate()
        with pytest.raises(ValueError, match="multiple"):
            run_chain(model, fit, ChainConfig(n_steps=20_001, thin=100))

    def test_burn_in_and_thinning_apply_per_chain(self, logistic_tiny):
        model, fit = logistic_tiny
        # 1,000 steps per chain: 100 burn-in, then every 30th -> 30 kept each
        chain = run_chain(model, fit, ChainConfig(n_steps=20_000, thin=30, seed=3))
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
    def test_gaussian_matches_analytic_constant(self, gaussian_5d):
        model, fit = gaussian_5d
        chain = run_chain(model, fit, ChainConfig(n_steps=100_000, thin=100, seed=3))
        inv_z, se = estimate_inv_z(model, fit, chain.samples)
        analytic = float(
            np.exp(-0.5 * (5 * np.log(2 * np.pi) + np.linalg.slogdet(model.covariance)[1]))
        )
        # the per-sample ratio is constant for an exact-Gaussian target
        assert inv_z == pytest.approx(analytic, rel=1e-10)
        assert se <= 1e-12 * inv_z

    def test_constant_rescaling_of_target(self, logistic_tiny):
        model, fit = logistic_tiny
        chain = run_chain(model, fit, ChainConfig(n_steps=50_000, thin=50, seed=5))
        base, _ = estimate_inv_z(model, fit, chain.samples)
        scaled = _ShiftedPhi(model, -np.log(10.0))  # f~ -> 10 * f~
        scaled_inv_z, _ = estimate_inv_z(scaled, fit, chain.samples)
        assert scaled_inv_z == pytest.approx(base / 10.0, rel=1e-12)

    def test_normalized_target_gives_one(self, gaussian_5d):
        model, fit = gaussian_5d
        shift = 0.5 * (5 * np.log(2 * np.pi) + fit.log_det_covariance)
        normalized = _ShiftedPhi(model, shift)
        chain = run_chain(model, fit, ChainConfig(n_steps=50_000, thin=50, seed=6))
        inv_z, _ = estimate_inv_z(normalized, fit, chain.samples)
        assert inv_z == pytest.approx(1.0, rel=1e-12)

    def test_empty_samples_rejected(self, gaussian_5d):
        model, fit = gaussian_5d
        with pytest.raises(ValueError):
            estimate_inv_z(model, fit, np.zeros((0, 5)))


class TestEstimateKl:
    def test_self_distribution_is_zero(self, gaussian_5d):
        model, fit = gaussian_5d
        chain = run_chain(model, fit, ChainConfig(n_steps=100_000, thin=100, seed=7))
        log_inv_z, rel_se = estimate_log_inv_z(model, fit, chain.samples)
        est = estimate_kl(
            model, fit, None, 10_000, seed=8, log_inv_z=log_inv_z, inv_z_rel_se=rel_se
        )
        assert abs(est.kl) <= max(3 * est.standard_error, 1e-12)

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
            values[thin] = estimate_inv_z(model, fit, chain.samples)
        a, sa = values[500]
        b, sb = values[1000]
        assert abs(a - b) <= 3 * np.hypot(sa, sb)

    def test_json_schema(self, gaussian_5d):
        model, fit = gaussian_5d
        est = estimate_kl(model, fit, 1.0, 100, seed=0)
        payload = est.to_json_dict()
        for key in ("kl", "se", "inv_z", "inv_z_se", "k", "k2", "acceptance_rate", "config"):
            assert key in payload

    def test_invalid_inputs(self, gaussian_5d):
        model, fit = gaussian_5d
        with pytest.raises(ValueError):
            estimate_kl(model, fit, 0.0, 100)
        with pytest.raises(ValueError):
            estimate_kl(model, fit, 1.0, 1)


class TestPresets:
    def test_preset_sizes(self):
        from laplace_audit import desk_preset, get_preset, paper_preset

        desk = desk_preset()
        assert (desk.chain.n_steps, desk.chain.thin, desk.k2) == (1_000_000, 100, 10_000)
        paper = paper_preset()
        assert (paper.chain.n_steps, paper.chain.thin, paper.k2) == (
            10_000_000,
            1000,
            100_000,
        )
        with pytest.raises(ValueError):
            get_preset("huge")
