#!/usr/bin/env python3
"""Benchmark of laplace_audit: certificate and ground-truth latency per target.

Run from the repository root, for example

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 40 --trace 0

The benchmark draws every input from ``--seed`` itself and hands the package
only models built from those inputs (``LogisticRegressionModel`` from labels
and covariates, ``GaussianModel`` from a mean and a covariance) or an
``ExperimentSpec``. Workloads, with three target kinds each:

* ``certify``: ``audit`` with the default ``AuditConfig`` on three targets of
  each kind; no chain runs.
* ``truth``: ``fit_laplace`` then ``estimate_true_kl`` on one ``d5``, one
  ``d50`` and three ``null`` targets, with the desk chain shortened to a
  tenth of its steps.

Target kinds: ``d5`` is a logistic posterior with d=5, n=100, sigma0=10;
``d50`` the same with d=50, n=1000; ``null`` a Gaussian with d=50, which the
Laplace fit reproduces exactly.

A run repeats whole rounds (every operation on every target once) until
``--seconds`` have passed, checks every output against references computed in
``reference.py``, and prints one JSON object as the last line of standard
output. ``--trace 0`` reports the end-to-end metrics: set-up time, peak
memory and the medians of the operation times per target kind, scaled to the
reference machine's speed by a calibration kernel timed after every
operation (the raw medians are printed before the result). ``--trace 1``
instead runs the traced layer pass, which is the same whatever the workload
and covers both, reports the per-layer metrics, and writes its spans to
``benchmarks/results/``.
See README.md beside this file for what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("certify", "truth")
KINDS = ("d5", "d50", "null")
# (d, n); n is None for the Gaussian target
SIZES = {"d5": (5, 100), "d50": (50, 1000), "null": (50, None)}
SIGMA0 = 10.0
# targets of each kind per round; a null truth takes 0.7 s against 5 s at d50,
# so truth runs three of them to give its median as many samples
TARGETS = {
    "certify": {"d5": 3, "d50": 3, "null": 3},
    "truth": {"d5": 1, "d50": 1, "null": 3},
}
ONE_EACH = {kind: 1 for kind in KINDS}

SETUP_REPEATS = 3
IS_DRAWS = 20_000
STENCIL_DIRECTIONS = 512
# agreement with a reference is checked to this many combined standard errors
Z_LIMIT = 5.0
# criterion 01's floor: on an exact-null target |kl| <= max(3 se, 1e-10),
# because the reported se leaves out rounding of the log-sum-exp
NULL_KL_FLOOR = 1e-10
ACCEPTANCE_RANGE = (0.05, 0.7)

PROBE_REPEATS = 5
PHI_POINTS = 2000
PROBE_DIRECTIONS = 64
# traced audit calls per target in the traced run
TRACED_AUDITS = 2

# Machine-speed calibration. On a shared 2-vCPU host the machine's speed
# drifts by up to 1.7x over tens of seconds, and every timing drifts with it,
# so each operation time is reported at a fixed machine speed: its median
# times REFERENCE_CALIBRATION_S over the median of a fixed numpy kernel timed
# after every operation. The kernel allocates nothing and is timed on this
# thread's CPU clock, so the allocator's state and other threads of the
# process (left spinning by the program, say) do not move it, while a slower
# host does. REFERENCE_CALIBRATION_S is the kernel's median on the reference
# machine described in README.md. setup_s is left raw: the kernel does not
# track import time.
CALIBRATION_REPEATS = 4
REFERENCE_CALIBRATION_S = 0.010


@dataclass
class Target:
    kind: str
    index: int
    model: object
    phi: object
    seed: int


class Run:
    """Outcome counters and failed checks of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def operation(self, label: str, fn):
        """Run one operation; an exception counts it as failed and yields None."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None


# -- inputs -------------------------------------------------------------------


def make_targets(la, counts: dict, seed: int) -> list[Target]:
    targets = []
    for k, kind in enumerate(KINDS):
        d, n = SIZES[kind]
        for i in range(counts.get(kind, 0)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, k, i]))
            if n is None:
                mean, cov = reference.gaussian_target(d, rng)
                model, phi = la.GaussianModel(mean, cov), reference.GaussianPhi(mean, cov)
            else:
                labels, covariates = reference.logistic_data(d, n, rng)
                model = la.LogisticRegressionModel(labels, covariates, SIGMA0)
                phi = reference.LogisticPhi(labels, covariates, SIGMA0)
            targets.append(Target(kind, i, model, phi, int(rng.integers(2**31))))
    return targets


def truth_preset(la, seed: int):
    """The desk preset with a tenth of the chain steps; k and k2 are unchanged."""
    desk = la.desk_preset(seed)
    chain = replace(desk.chain, n_steps=desk.chain.n_steps // 10, thin=desk.chain.thin // 10)
    return replace(desk, name="desk/10", chain=chain)


def grid_spec(la, seed: int):
    rows = (
        la.ExperimentRow(d=5, n=100, sigma0=SIGMA0),
        la.ExperimentRow(d=5, n=0, sigma0=SIGMA0, model="gaussian"),
    )
    return la.ExperimentSpec(rows=rows, replicates=1, seed=seed, mcmc_preset="desk")


def warm_up(la, workload: str, targets: list[Target]) -> None:
    """One short call per target kind, so that lazy set-up is done before timing."""
    # glibc raises its mmap threshold the first time it frees a large mapped
    # block; until then every temporary over 128 KiB is mapped and unmapped
    # afresh. Which state a run reached depended on the seed, and d=50 audits
    # ran about 25 % apart between the two, so free one 16 MB array first, as
    # any process that has once freed a large array already has.
    np.ones(2_000_000)
    firsts = [t for t in targets if t.index == 0]
    if workload == "certify":
        for t in firsts:
            la.audit(t.model, la.AuditConfig(n_directions=16, seed=t.seed))
        return
    desk = la.desk_preset(0)
    short = replace(desk, chain=replace(desk.chain, n_steps=10_000), k2=1_000)
    for t in firsts:
        la.estimate_true_kl(t.model, la.fit_laplace(t.model), short)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import laplace_audit; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


class Calibration:
    """A fixed amount of numpy elementwise work, timed on the thread's CPU clock."""

    def __init__(self):
        self.data = np.random.default_rng(0).standard_normal((64, 1000))
        self.out = np.empty_like(self.data)
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def sample(self) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        for _ in range(CALIBRATION_REPEATS):
            np.logaddexp(0.0, self.data, out=self.out)
            self.out.sum()
        self.cpu.append(time.thread_time() - cpu)
        self.wall.append(time.perf_counter() - wall)


# -- environment --------------------------------------------------------------


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(la) -> dict:
    import scipy
    from laplace_audit import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numba": kernels.HAVE_NUMBA,
        "kernels_backend": kernels.default_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


# -- checks -------------------------------------------------------------------


def check_fit(run: Run, t: Target, fit) -> None:
    """The fit sits at a stationary point of the reference phi with its Hessian."""
    label = f"{t.kind}[{t.index}] fit"
    h = t.phi.hessian(fit.theta_star)
    scale = max(1.0, float(np.abs(h).max()))
    grad = float(np.abs(t.phi.gradient(fit.theta_star)).max())
    if not grad <= 1e-7 * scale:
        run.problem(f"{label}: reference gradient {grad:.3g} at the mode")
    if not np.allclose(fit.hessian_at_mode, h, rtol=1e-8, atol=1e-12 * scale):
        run.problem(f"{label}: Hessian differs from the reference Hessian")


def check_agreement(run: Run, label, value, se, ref, ref_se) -> None:
    combined = math.hypot(se, ref_se)
    if not abs(value - ref) <= Z_LIMIT * combined:
        run.problem(f"{label}: {value:.6g} against reference {ref:.6g} (combined se {combined:.3g})")


def reference_rng(seed: int, t: Target) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, KINDS.index(t.kind), t.index, 7]))


def check_report(run: Run, t: Target, report, fit, seed: int) -> None:
    label = f"{t.kind}[{t.index}] audit"
    if t.kind == "null":
        if report.approx_bound != 0.0 or report.detailed_bound != 0.0:
            run.problem(f"{label}: Gaussian bounds {report.approx_bound}, {report.detailed_bound}")
        return
    for name in ("approx_bound", "detailed_bound"):
        value = getattr(report, name)
        if not (math.isfinite(value) and value > 0.0):
            run.problem(f"{label}: {name} = {value}")
    if report.invalid_directions != 0:
        run.problem(f"{label}: {report.invalid_directions} invalid directions")
    if report.spotcheck["n_failures"] != 0:
        run.problem(f"{label}: spot check failed at {report.spotcheck['n_failures']} points")
    rng = reference_rng(seed, t)
    coef = reference.approximate_coefficient(t.model.dim)
    ref, ref_se = reference.mean_delta3_sq(
        t.phi, fit.theta_star, fit.hessian_at_mode, STENCIL_DIRECTIONS, rng
    )
    check_agreement(
        run, f"{label} approx_bound", report.approx_bound, coef * report.se_delta3_sq,
        coef * ref, coef * ref_se,
    )
    kl, kl_se = reference.importance_kl(t.phi, fit.theta_star, fit.hessian_at_mode, IS_DRAWS, rng)
    if not report.detailed_bound >= kl - 3.0 * kl_se:
        run.problem(f"{label}: detailed_bound {report.detailed_bound:.6g} below KL {kl:.6g}")


def check_truth(run: Run, t: Target, estimate, fit, seed: int) -> None:
    label = f"{t.kind}[{t.index}] truth"
    low, high = ACCEPTANCE_RANGE
    if not low <= estimate.acceptance_rate <= high:
        run.problem(f"{label}: acceptance rate {estimate.acceptance_rate:.3f}")
    if t.kind == "null":
        if not abs(estimate.kl) <= max(3.0 * estimate.standard_error, NULL_KL_FLOOR):
            run.problem(f"{label}: Gaussian kl {estimate.kl:.3g} (se {estimate.standard_error:.3g})")
        return
    kl, kl_se = reference.importance_kl(
        t.phi, fit.theta_star, fit.hessian_at_mode, IS_DRAWS, reference_rng(seed, t)
    )
    check_agreement(run, f"{label} kl", estimate.kl, estimate.standard_error, kl, kl_se)


def check_grid(run: Run, report) -> None:
    for cell in report.replicates:
        label = f"grid cell ({cell.row}, {cell.replicate})"
        if cell.status != "ok":
            run.failed += 1
            print(f"{label}: status {cell.status}: {cell.error}", file=sys.stderr)
        elif cell.model == "gaussian":
            if cell.approx_bound != 0.0 or cell.detailed_bound != 0.0:
                run.problem(f"{label}: Gaussian bounds {cell.approx_bound}, {cell.detailed_bound}")
            if not abs(cell.kl) <= max(3.0 * cell.kl_se, NULL_KL_FLOOR):
                run.problem(f"{label}: Gaussian kl {cell.kl:.3g} (se {cell.kl_se:.3g})")
        else:
            if not cell.kl > 0.0:
                run.problem(f"{label}: kl {cell.kl}")
            if not cell.detailed_bound >= cell.kl - 3.0 * cell.kl_se:
                run.problem(f"{label}: detailed_bound {cell.detailed_bound} below kl {cell.kl}")


def check_repeats(run: Run, label: str, values: list) -> None:
    """Seeded operations must give the same numbers in every round."""
    if any(v != values[0] for v in values[1:]):
        run.problem(f"{label}: outputs differ between rounds: {values}")


# -- untraced workloads -------------------------------------------------------


def time_workload(la, workload: str, targets: list[Target], seconds: float, run: Run,
                  calibration: Calibration):
    """Time whole rounds for ``seconds``, sampling the calibration after every operation.

    Returns the seconds of each operation by target kind, the outputs of each
    target in round order, and for ``truth`` the fit of each target.
    """
    times = {kind: [] for kind in KINDS}
    outputs = {id(t): [] for t in targets}
    fits = {}

    def one(t: Target):
        if workload == "certify":
            return la.audit(t.model, la.AuditConfig(seed=t.seed))
        fit = la.fit_laplace(t.model)
        fits[id(t)] = fit
        return la.estimate_true_kl(t.model, fit, truth_preset(la, t.seed))

    start = time.perf_counter()
    while True:
        for t in targets:
            begin = time.perf_counter()
            out = run.operation(f"{workload} {t.kind}[{t.index}]", lambda: one(t))
            if out is not None:
                times[t.kind].append(time.perf_counter() - begin)
                outputs[id(t)].append(out)
            calibration.sample()
        if time.perf_counter() - start >= seconds:
            break
    return times, outputs, fits


def check_workload(la, workload: str, targets: list[Target], outputs, fits, seed: int, run: Run):
    for t in targets:
        done = outputs[id(t)]
        if not done:
            continue
        label = f"{t.kind}[{t.index}] {workload}"
        if workload == "certify":
            check_repeats(run, label, [(r.approx_bound, r.detailed_bound) for r in done])
            fit = la.fit_laplace(t.model)
            check_fit(run, t, fit)
            check_report(run, t, done[0], fit, seed)
        else:
            check_repeats(run, label, [(e.kl, e.standard_error) for e in done])
            check_fit(run, t, fits[id(t)])
            check_truth(run, t, done[0], fits[id(t)], seed)


def cold_audit(la, seed: int, run: Run):
    """Seconds of one default audit of a d50 target before the allocator warm-up."""
    (t,) = make_targets(la, {"d50": 1}, seed)
    begin = time.perf_counter()
    if run.operation("cold audit d50[0]", lambda: la.audit(t.model, la.AuditConfig(seed=t.seed))) is None:
        return math.nan
    return time.perf_counter() - begin


# -- traced layer pass --------------------------------------------------------

# The functions audit and estimate_true_kl call through their modules'
# globals, by the span that times each call. While a traced call runs they are
# replaced by wrappers that record a span and call the original. A name the
# module no longer has is left out, and its stage then reads zero.
AUDIT_STAGES = {
    "fit_laplace": "laplace.fit",
    "logconcavity_spotcheck": "laplace.spotcheck",
    "sample_direction_pairs": "radial.directions",
    "_delta4_along": "bound.delta4",
    "min_conditional_curvature": "bound.curvature_floor",
    "_xi_elbo_along": "bound.elbo",
    "direction_kl_bound": "bound.assembly",
    "approximate_bound": "bound.assembly",
}
TRUTH_STAGES = {
    "run_chain": "mcmc.chain",
    "estimate_log_inv_z": "mcmc.log_inv_z",
    "estimate_kl": "mcmc.kl",
}
SWEEP_FACTORIES = ("logistic_sweep", "gaussian_sweep")


@contextmanager
def patched(owner, replacements: dict):
    """Set attributes of ``owner`` while the block runs, then restore them."""
    own = vars(owner)
    saved = {name: own[name] for name in replacements if name in own}
    for name, value in replacements.items():
        setattr(owner, name, value)
    try:
        yield
    finally:
        for name in replacements:
            if name in saved:
                setattr(owner, name, saved[name])
            else:
                delattr(owner, name)


def stage_wrappers(tracer: Tracer, module, stages: dict, **attrs) -> dict:
    return {
        name: tracer.wrap(getattr(module, name), span, **attrs)
        for name, span in stages.items()
        if hasattr(module, name)
    }


def traced_audit(la, tracer: Tracer, t: Target, config):
    """One audit call with a span around each stage it calls.

    delta3 is the model's ``ray_derivatives`` call made by audit itself.
    """
    bound = sys.modules["laplace_audit.bound"]
    attrs = {"target": t.kind, "phase": "audit"}
    delta3 = {"ray_derivatives": tracer.wrap(t.model.ray_derivatives, "bound.delta3", **attrs)}
    with patched(bound, stage_wrappers(tracer, bound, AUDIT_STAGES, **attrs)), patched(t.model, delta3):
        with tracer.span("bound.audit", **attrs):
            return la.audit(t.model, config)


def traced_truth(la, tracer: Tracer, t: Target):
    """fit_laplace then estimate_true_kl, with spans around its stages and sweep blocks."""
    mcmc = sys.modules["laplace_audit.mcmc"]
    attrs = {"target": t.kind, "phase": "truth"}

    def timed_factory(factory):
        def make(*args, **kwargs):
            sweep = factory(*args, **kwargs)

            def timed(*a, **kw):
                # the fourth argument of both sweeps holds one proposal per step
                with tracer.span("kernels.sweep", steps=len(a[3]), **attrs):
                    return sweep(*a, **kw)

            return timed

        return make

    replacements = stage_wrappers(tracer, mcmc, TRUTH_STAGES, **attrs)
    replacements.update(
        {name: timed_factory(getattr(mcmc, name)) for name in SWEEP_FACTORIES if hasattr(mcmc, name)}
    )
    with patched(mcmc, replacements), tracer.span("mcmc.truth", **attrs):
        with tracer.span("laplace.fit", **attrs):
            fit = la.fit_laplace(t.model)
        return fit, la.estimate_true_kl(t.model, fit, truth_preset(la, t.seed))


def probe_models(la, tracer: Tracer, t: Target, fit, config, rng) -> None:
    model, k = t.model, t.kind
    draws = fit.theta_star + rng.standard_normal((PHI_POINTS, model.dim)) @ fit.sqrt_covariance
    for _ in range(PROBE_REPEATS):
        with tracer.span("models.neg_log_density_many", target=k):
            model.neg_log_density_many(draws)
    for _ in range(config.n_directions):
        with tracer.span("radial.chi_quadrature", target=k):
            rs, _ = la.chi_quadrature(model.dim, config.quadrature_nodes)
    for e in la.sample_direction_pairs(model.dim, PROBE_DIRECTIONS // 2, rng):
        v = fit.sqrt_covariance @ e
        with tracer.span("models.ray_values", target=k):
            model.ray_values(fit.theta_star, v, rs)
        with tracer.span("models.ray_derivatives", target=k):
            model.ray_derivatives(fit.theta_star, v, 0.0, max_order=4)


def traced_pass(la, targets: list[Target], seed: int, run: Run, tracer: Tracer) -> dict:
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    def median_us(name, k):
        return 1e6 * statistics.median(tracer.durations(name, target=k))

    for t in (t for t in targets if t.index == 0):
        k = t.kind
        rng = reference_rng(seed, t)
        config = la.AuditConfig(seed=t.seed)
        # untraced and traced audits in ABBA order, so that a steady drift in
        # machine speed falls on both sides of trace.overhead_pct
        reports = []
        for traced in (False, True, True, False):
            if traced:
                reports.append(run.operation(f"traced audit {k}", lambda: traced_audit(la, tracer, t, config)))
            else:
                with tracer.span("bound.audit_untraced", target=k):
                    reports.append(run.operation(f"audit {k}", lambda: la.audit(t.model, config)))
        if any(r is None for r in reports):
            continue
        check_repeats(run, f"{k}[0] audit, untraced and traced",
                      [(r.approx_bound, r.detailed_bound) for r in reports])
        fit = la.fit_laplace(t.model)
        check_fit(run, t, fit)
        check_report(run, t, reports[1], fit, seed)

        audit = {"target": k, "phase": "audit"}
        per_audit = TRACED_AUDITS * 1e-3
        for name in ("laplace.fit", "laplace.spotcheck", "radial.directions") + tuple(
            f"bound.{s}" for s in ("delta3", "delta4", "curvature_floor", "elbo", "assembly")
        ):
            put(f"{name}_ms.{k}", tracer.total(name, parent="bound.audit", **audit) / per_audit, "ms")
        put(f"bound.audit_ms.{k}", tracer.total("bound.audit", **audit) / per_audit, "ms")
        put(f"bound.unattributed_ms.{k}", tracer.self_total("bound.audit", **audit) / per_audit, "ms")
        put(f"laplace.newton_iterations.{k}", reports[1].fit_summary["iterations"], "count")
        put(f"bound.directions.{k}", reports[1].n_directions, "count")
        put(f"bound.invalid_directions.{k}", reports[1].invalid_directions, "count")

        run.operation(f"model probe {k}", lambda: probe_models(la, tracer, t, fit, config, rng))
        put(f"models.phi_us_per_point.{k}", median_us("models.neg_log_density_many", k) / PHI_POINTS, "us")
        put(f"models.ray_values_us.{k}", median_us("models.ray_values", k), "us")
        put(f"models.ray_derivatives_us.{k}", median_us("models.ray_derivatives", k), "us")
        put(f"radial.quadrature_ms.{k}", 1e3 * tracer.total("radial.chi_quadrature", target=k), "ms")

        truth = run.operation(f"traced truth {k}", lambda: traced_truth(la, tracer, t))
        if truth is None:
            continue
        truth_fit, estimate = truth
        check_fit(run, t, truth_fit)
        check_truth(run, t, estimate, truth_fit, seed)
        chain = {"target": k, "phase": "truth"}
        steps = sum(s["steps"] for s in tracer.select("kernels.sweep", **chain))
        per_step = 1e-6 * steps if steps else math.inf
        put(f"mcmc.truth_s.{k}", tracer.total("mcmc.truth", **chain), "s")
        put(f"mcmc.chain_s.{k}", tracer.total("mcmc.chain", **chain), "s")
        put(f"mcmc.chain_us_per_step.{k}", tracer.total("mcmc.chain", **chain) / per_step, "us")
        put(f"mcmc.steps.{k}", steps, "count")
        put(f"mcmc.acceptance_rate.{k}", estimate.acceptance_rate, "ratio")
        put(f"mcmc.log_inv_z_ms.{k}", 1e3 * tracer.total("mcmc.log_inv_z", **chain), "ms")
        put(f"mcmc.kl_ms.{k}", 1e3 * tracer.total("mcmc.kl", **chain), "ms")
        put(f"kernels.sweep_us_per_step.{k}", tracer.total("kernels.sweep", **chain) / per_step, "us")

    put("trace.overhead_pct",
        100.0 * (tracer.total("bound.audit", phase="audit") / tracer.total("bound.audit_untraced") - 1.0), "%")

    spec = grid_spec(la, seed)
    jobs = os.cpu_count() or 1
    reports = {}
    # ABBA order again, for experiments.thread_speedup
    for side, n_jobs in (("serial", 1), ("parallel", jobs), ("parallel", jobs), ("serial", 1)):
        with tracer.span("experiments.run", side=side, jobs=n_jobs):
            reports[side] = run.operation(
                f"run_experiment jobs={n_jobs}", lambda: la.run_experiment(spec, jobs=n_jobs)
            )
    if reports["serial"] is not None and reports["parallel"] is not None:
        for report in reports.values():
            check_grid(run, report)
        if json.dumps(reports["serial"].to_json_dict()) != json.dumps(reports["parallel"].to_json_dict()):
            run.problem(f"run_experiment output differs between jobs=1 and jobs={jobs}")
        cells = len(reports["parallel"].replicates)
        wall = tracer.total("experiments.run", side="parallel") / 2
        put("experiments.cells", cells, "count")
        put("experiments.thread_speedup", tracer.total("experiments.run", side="serial") / 2 / wall, "ratio")
        put("experiments.cells_per_s", cells / wall, "1/s")
    return metrics


# -- entry point -------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "laplace_audit" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'laplace_audit'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    begin = time.perf_counter()
    import laplace_audit as la

    imports = [time.perf_counter() - begin]
    if Path(la.__file__).resolve().parent != SRC / "laplace_audit":
        print(f"benchmark: imported laplace_audit from {la.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(la)
    print("environment: " + json.dumps(env))
    run = Run()
    counts = ONE_EACH if args.trace else TARGETS[args.workload]

    if args.trace:
        targets = make_targets(la, counts, args.seed)
        for workload in WORKLOADS:
            warm_up(la, workload, targets)
        tracer = Tracer()
        metrics = traced_pass(la, targets, args.seed, run, tracer)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"environment": env, "metrics": metrics, "spans": tracer.spans}, handle)
            handle.write("\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        imports += [import_seconds() for _ in range(SETUP_REPEATS - 1)]
        cold = cold_audit(la, args.seed, run) if args.workload == "certify" else None
        prepare = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            targets = make_targets(la, counts, args.seed)
            warm_up(la, args.workload, targets)
            prepare.append(time.perf_counter() - start)
        calibration = Calibration()
        times, outputs, fits = time_workload(la, args.workload, targets, args.seconds, run, calibration)
        # read before the checks, whose references make large arrays of their own
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_workload(la, args.workload, targets, outputs, fits, args.seed, run)
        metrics = {"setup_s": {"value": statistics.median(imports) + statistics.median(prepare), "unit": "s"}}
        raw = {f"{kind}_s": statistics.median(times[kind]) for kind in KINDS if times[kind]}
        scale = REFERENCE_CALIBRATION_S / statistics.median(calibration.cpu)
        metrics.update({name: {"value": value * scale, "unit": "s"} for name, value in raw.items()})
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"operations per kind: { {k: len(v) for k, v in times.items()} }")
        print(f"raw medians (s): {json.dumps(raw)}; calibration kernel median "
              f"{statistics.median(calibration.cpu):.6f} s CPU, {statistics.median(calibration.wall):.6f} s wall, "
              f"over {len(calibration.cpu)} samples")
        if cold is not None:
            print(f"cold d50 audit, before the allocator warm-up: {cold:.4f} s")

    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
