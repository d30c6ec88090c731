import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from laplace_audit import (
    GaussianModel,
    SyntheticDatasetConfig,
    fit_laplace,
    generate_dataset,
    random_gaussian_model,
)


@pytest.fixture(scope="session")
def logistic_small():
    """Seeded d=5, n=100 logistic posterior with its fit (the workhorse instance)."""
    dataset = generate_dataset(SyntheticDatasetConfig(d=5, n=100, seed=7))
    model = dataset.model(10.0)
    return model, fit_laplace(model)


@pytest.fixture(scope="session")
def logistic_tiny():
    """Seeded d=3, n=40 logistic posterior for cheap per-test work."""
    dataset = generate_dataset(SyntheticDatasetConfig(d=3, n=40, seed=21))
    model = dataset.model(5.0)
    return model, fit_laplace(model)


@pytest.fixture(scope="session")
def logistic_d50():
    """Seeded d=50, n=1000 logistic posterior with its fit (the high-dimension cell)."""
    dataset = generate_dataset(SyntheticDatasetConfig(d=50, n=1000, seed=4))
    model = dataset.model(10.0)
    return model, fit_laplace(model)


@pytest.fixture(scope="session")
def gaussian_5d():
    model = random_gaussian_model(5, seed=13)
    return model, fit_laplace(model)


@pytest.fixture(scope="session")
def gaussian_iso_2d():
    """Axis-aligned unit Gaussian where whitening is exact in floating point."""
    model = GaussianModel(np.zeros(2), np.eye(2))
    return model, fit_laplace(model)
