"""The lock-step sweep and the names the benchmark reads from ``kernels``."""

import numpy as np

from laplace_audit import ChainConfig, run_chain
from laplace_audit.kernels import HAVE_NUMBA, default_backend, lockstep_sweep


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


def test_sweep_updates_in_place_and_rejects_non_finite_phi():
    rng = np.random.default_rng(0)
    steps, chains = 200, 4
    model = _HalfPlane()
    theta = np.zeros((chains, 2))
    phi = model.neg_log_density_many(theta)
    jumps = 0.8 * rng.standard_normal((steps, chains, 2))
    log_u = np.log(rng.random((steps, chains)))
    keep = np.arange(9, steps, 10)
    out = np.full((chains, keep.shape[0] + 1, 2), -7.0)
    out_phi = np.full((chains, keep.shape[0] + 1), -7.0)
    accepted = lockstep_sweep(model, theta, phi, jumps, log_u, keep, out, out_phi, 1)
    assert accepted.shape == (chains,) and np.all((accepted > 0) & (accepted < steps))
    # states beyond the half-plane were proposed but never entered
    assert model.nan_rows > 0
    assert np.all(out[:, 1:, 0] <= 1.0) and np.all(np.isfinite(out_phi))
    np.testing.assert_array_equal(out[:, -1], theta)
    np.testing.assert_array_equal(out_phi[:, -1], phi)
    kept = out[:, 1:]
    np.testing.assert_array_equal(out_phi[:, 1:], 0.5 * np.einsum("cki,cki->ck", kept, kept))
    assert np.all(out[:, 0] == -7.0) and np.all(out_phi[:, 0] == -7.0)


def test_run_chain_deterministic_per_seed(logistic_tiny):
    model, fit = logistic_tiny
    config = ChainConfig(n_steps=20_000, thin=40, seed=23)
    a = run_chain(model, fit, config)
    b = run_chain(model, fit, config)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate and a.rhat == b.rhat
