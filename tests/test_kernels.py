"""The lock-step chain of ``run_chain`` and the names the benchmark reads from ``kernels``."""

import numpy as np

from laplace_audit import ChainConfig, GaussianModel, build_fit, run_chain
from laplace_audit.kernels import HAVE_NUMBA, default_backend


def test_environment_names_describe_the_numpy_sweep():
    assert HAVE_NUMBA is False
    assert default_backend() == "numpy"


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
    fit = build_fit(GaussianModel(np.zeros(2), np.eye(2)), np.zeros(2))
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
