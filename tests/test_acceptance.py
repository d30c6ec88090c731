"""Acceptance gate: every release criterion with its pinned tolerance.

Each test prints one ``[criterion NN] PASS`` line (visible under ``pytest -s``
or on failure); the assertions encode the tolerances directly.

Heavier criteria reuse the reduced "desk" sampling preset; the chain code is
warmed once at module scope so the per-case runtime budgets measure the
algorithms, not first-call set-up.
"""

import json
import time

import numpy as np
import pytest

from laplace_audit import (
    AuditConfig,
    ChainConfig,
    GaussianModel,
    SyntheticDatasetConfig,
    approximate_bound_coefficient,
    audit,
    chi_moment,
    chi_quantile,
    conditional_curvature_profile,
    delta3,
    delta4,
    desk_preset,
    estimate_true_kl,
    fit_laplace,
    generate_dataset,
    min_conditional_curvature,
    random_gaussian_model,
    run_chain,
    sample_direction,
)
from laplace_audit.cli import main
from laplace_audit.experiments import ExperimentRow, ExperimentSpec, run_experiment

from oracles import (
    SoftplusTilt1D,
    central_directional,
    quadrature_kl_1d,
    third_derivative_7pt,
)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run short chains before any timed budget starts."""
    dataset = generate_dataset(SyntheticDatasetConfig(d=2, n=10, seed=0))
    model = dataset.model(5.0)
    fit = fit_laplace(model)
    run_chain(model, fit, ChainConfig(n_steps=20_000, thin=100, seed=0))
    gauss = random_gaussian_model(2, seed=0)
    run_chain(gauss, fit_laplace(gauss), ChainConfig(n_steps=20_000, thin=100, seed=0))


def test_criterion_01_gaussian_null_case():
    """Exact-Gaussian targets: zero certificates and a null KL estimate, fast."""
    for d in (1, 5, 50):
        start = time.perf_counter()
        model = random_gaussian_model(d, seed=100 + d)
        fit = fit_laplace(model)
        report = audit(model, AuditConfig(n_directions=256, seed=d), fit=fit)
        assert report.approx_bound == 0.0
        assert report.detailed_bound == 0.0
        estimate = estimate_true_kl(model, fit, desk_preset(seed=d))
        assert estimate.standard_error <= 0.01
        assert abs(estimate.kl) <= max(3 * estimate.standard_error, 1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"d={d} took {elapsed:.1f}s"
    print("[criterion 01] PASS: Gaussian null case exact-zero bounds, |kl| <= 3se, <10s/case")


def test_criterion_02_table_row_distributional_reproduction():
    """(d=5, n=100, sigma0=10): medians near the reference row, bound holds."""
    start = time.perf_counter()
    spec = ExperimentSpec(
        rows=(ExperimentRow(d=5, n=100, sigma0=10.0),),
        replicates=10,
        seed=20250809,
        mcmc_preset="desk",
    )
    report = run_experiment(spec)
    agg = report.aggregates[0]
    assert agg.n_failed == 0
    assert 0.057 / 3 <= agg.median_kl <= 0.057 * 3, agg.median_kl
    assert 0.11 / 3 <= agg.median_approx_bound <= 0.11 * 3, agg.median_approx_bound
    holds = sum(
        1 for r in report.replicates if r.approx_bound >= r.kl - 3 * r.kl_se
    )
    assert holds >= 9, f"bound held in only {holds}/10 replicates"
    assert 0.2 <= agg.median_efficiency <= 1.0, agg.median_efficiency
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    print(
        f"[criterion 02] PASS: median kl={agg.median_kl:.3f} (ref 0.057), "
        f"median bound={agg.median_approx_bound:.3f} (ref 0.11), "
        f"bound held {holds}/10, efficiency={agg.median_efficiency:.2f}, {elapsed:.0f}s"
    )


def test_criterion_03_bound_scaling_with_sample_size():
    """Tenfold data growth shrinks the certificate by roughly tenfold."""
    start = time.perf_counter()
    spec = ExperimentSpec(
        rows=(
            ExperimentRow(d=5, n=100, sigma0=10.0),
            ExperimentRow(d=5, n=1000, sigma0=10.0),
        ),
        replicates=10,
        seed=31,
        estimate_truth=False,
    )
    report = run_experiment(spec)
    n100, n1000 = report.aggregates
    ratio = n1000.median_approx_bound / n100.median_approx_bound
    assert 0.03 <= ratio <= 0.3, ratio
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"[criterion 03] PASS: bound ratio n=1000/n=100 = {ratio:.3f} in [0.03, 0.3], {elapsed:.0f}s")


def test_criterion_04_large_dimension_efficiency():
    """(d=50, n=1000): the certificate stays tight in high dimension."""
    start = time.perf_counter()
    spec = ExperimentSpec(
        rows=(ExperimentRow(d=50, n=1000, sigma0=10.0),),
        replicates=5,
        seed=407,
        mcmc_preset="desk",
    )
    report = run_experiment(spec)
    agg = report.aggregates[0]
    assert agg.n_failed == 0
    assert agg.median_efficiency >= 0.4, agg.median_efficiency
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    print(
        f"[criterion 04] PASS: d=50 median efficiency={agg.median_efficiency:.2f} >= 0.4, "
        f"{elapsed:.0f}s"
    )


def test_criterion_05_coefficient_identity():
    """Certificate coefficient ties exactly to the chi-moment assembly."""
    worst = 0.0
    for d in range(1, 101):
        coefficient = approximate_bound_coefficient(d)
        assembled = chi_moment(d, 5) / (2.0 * np.sqrt(6.0) * np.sqrt(2.0 * d - 1.0)) + 0.5 * (
            chi_moment(d, 3) / 6.0
        ) ** 2
        rel = abs(coefficient - assembled) / assembled
        worst = max(worst, rel)
        assert rel <= 1e-12, (d, rel)
    print(f"[criterion 05] PASS: coefficient identity holds for d=1..100, worst rel err {worst:.2e}")


def test_criterion_06_chi_moment_oracle():
    """Gamma-ratio moments match brute-force sampling and the exact recursion."""
    rng = np.random.default_rng(606)
    n_samples = 10_000_000
    for d in (1, 2, 5, 50):
        r = np.sqrt(rng.chisquare(d, size=n_samples))
        power = np.ones_like(r)
        for k in range(0, 8):
            if k > 0:
                power = power * r
            mc_mean = float(power.mean())
            mc_se = float(power.std(ddof=1) / np.sqrt(n_samples))
            formula = chi_moment(d, k)
            assert abs(formula - mc_mean) <= 3 * mc_se + 1e-12, (d, k)
            if k >= 2:
                recursion = (d + k - 2) * chi_moment(d, k - 2)
                assert abs(formula - recursion) <= 1e-12 * recursion, (d, k)
    print("[criterion 06] PASS: chi moments vs 1e7-sample Monte Carlo (3se) and exact recursion")


def test_criterion_07_curvature_floor_lower_bounds_truth():
    """The certified curvature floor never exceeds the scanned true minimum."""
    dataset = generate_dataset(SyntheticDatasetConfig(d=5, n=200, seed=71))
    model = dataset.model(10.0)
    fit = fit_laplace(model)
    rng = np.random.default_rng(72)
    z_max = float(np.sqrt(chi_quantile(5, 1.0 - 1e-6)))
    zs = np.geomspace(1e-3, z_max, 4000)
    violations = 0
    for _ in range(100):
        e = sample_direction(5, rng)
        d3 = delta3(fit, model, e)
        d4, _ = delta4(fit, model, e)
        floor = min_conditional_curvature(5, d3, d4)
        true_min = float(conditional_curvature_profile(fit, model, e, zs).min())
        if floor > true_min:
            violations += 1
    assert violations == 0
    print("[criterion 07] PASS: curvature floor below scanned true minimum for 100/100 directions")


def test_criterion_08_one_dimensional_dominance():
    """detailed bound dominates quadrature-exact KL; tight within 50x at alpha=0.1."""
    ratios = {}
    for alpha in (0.1, 0.5, 1.0):
        model = SoftplusTilt1D(alpha)
        fit = fit_laplace(model)
        truth = quadrature_kl_1d(model, fit)
        report = audit(model, AuditConfig(n_directions=8, seed=0), fit=fit)
        assert truth > 0
        assert report.detailed_bound >= truth, (alpha, report.detailed_bound, truth)
        ratios[alpha] = report.detailed_bound / truth
    assert ratios[0.1] <= 50.0, ratios[0.1]
    print(
        "[criterion 08] PASS: 1-D dominance holds; bound/truth = "
        + ", ".join(f"{a}: {r:.1f}" for a, r in ratios.items())
    )


def test_criterion_09_derivative_consistency():
    """Analytic derivatives against central differences on 20 seeded instances."""
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(20, 200))
        sigma0 = float(rng.uniform(2.0, 20.0))
        dataset = generate_dataset(SyntheticDatasetConfig(d=d, n=n, seed=seed))
        model = dataset.model(sigma0)
        theta = 0.5 * rng.standard_normal(d)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)

        def along(r):
            return model.neg_log_density(theta + r * v)

        derivs = model.ray_derivatives(theta, v, 0.0, 4)
        fd1 = central_directional(model.neg_log_density, theta, v, h=1e-5)
        assert fd1 == pytest.approx(derivs[0], rel=1e-6)
        h2 = 1e-4
        fd2 = (along(h2) - 2 * along(0.0) + along(-h2)) / h2**2
        assert fd2 == pytest.approx(derivs[1], rel=1e-6)
        fd3 = third_derivative_7pt(along, 0.0, h=5e-3)
        assert fd3 == pytest.approx(derivs[2], rel=1e-4, abs=1e-9)
        h4 = 1e-5
        fd4 = (
            model.ray_derivatives(theta, v, h4, 3)[2]
            - model.ray_derivatives(theta, v, -h4, 3)[2]
        ) / (2 * h4)
        assert fd4 == pytest.approx(derivs[3], rel=1e-4, abs=1e-9)
        step = 1e-5
        hess = model.hessian(theta)
        for j in range(d):
            delta_j = np.zeros(d)
            delta_j[j] = step
            col = (model.gradient(theta + delta_j) - model.gradient(theta - delta_j)) / (
                2 * step
            )
            np.testing.assert_allclose(col, hess[:, j], rtol=1e-5, atol=1e-9)
    print("[criterion 09] PASS: analytic derivatives match finite differences on 20 instances")


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Reruns (including parallel table runs) reproduce outputs byte for byte."""
    audit_args = [
        "audit", "--d", "4", "--n", "60", "--sigma0", "8", "--seed", "55",
        "--directions", "64",
    ]
    blobs = []
    for name in ("a1.json", "a2.json"):
        out = tmp_path / name
        assert main(audit_args + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    truth_args = ["truth", "--model", "gaussian", "--d", "3", "--seed", "5"]
    blobs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        assert main(truth_args + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "rows": [
                    {"d": 3, "n": 30, "sigma0": 10.0},
                    {"d": 2, "n": 20, "sigma0": 5.0},
                ],
                "replicates": 2,
                "seed": 99,
                "n_directions": 32,
                "quadrature_nodes": 32,
                "mcmc_preset": "desk",
                "estimate_truth": True,
            }
        )
    )
    blobs = []
    for jobs, name in ((1, "w1.csv"), (4, "w4.csv"), (1, "w1b.csv")):
        out = tmp_path / name
        assert main(
            ["table", "--spec", str(spec_path), "--jobs", str(jobs), "--out", str(out)]
        ) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print("[criterion 10] PASS: audit/truth/table outputs byte-identical across reruns and workers")


def test_criterion_01_case_d1_gaussian_exact_model():
    """Companion check: the exact-null property also holds for a hand-built Gaussian."""
    model = GaussianModel(np.array([0.7]), np.array([[2.0]]))
    report = audit(model, AuditConfig(n_directions=16, seed=0))
    assert report.approx_bound == 0.0 and report.detailed_bound == 0.0
