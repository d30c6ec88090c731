"""Names that ``benchmarks/run.py`` reads to describe its environment; the
chain itself is the plain numpy loop of ``mcmc.run_chain``, with no numba."""

HAVE_NUMBA = False


def default_backend() -> str:
    return "numpy"
