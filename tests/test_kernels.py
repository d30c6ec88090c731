"""The names the benchmark reads from ``kernels``."""

from laplace_audit.kernels import HAVE_NUMBA, default_backend


def test_environment_names_describe_the_numpy_sweep():
    assert HAVE_NUMBA is False
    assert default_backend() == "numpy"
