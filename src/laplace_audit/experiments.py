"""Experiment grids: replicated certificate-vs-truth runs over (d, n, sigma0).

A spec lists rows of problem sizes, a replicate count and a base seed; each
(row, replicate) cell derives its own data/audit/chain seeds from the base
through spawn keys, so results do not depend on execution order or worker
count. Reports carry the full config echo plus a content hash of the spec so
each number stays attributable.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .bound import AuditConfig, audit, csv_text, json_ready
from .errors import (
    AssumptionViolationError,
    MapNotConvergedError,
    NonFiniteObjectiveError,
    _check_integer,
)
from .laplace import fit_laplace
from .mcmc import estimate_true_kl, get_preset
from .models import _synthetic_model

_DATA_STREAM = 0
_AUDIT_STREAM = 1
_CHAIN_STREAM = 2


@dataclass(frozen=True)
class ExperimentRow:
    """One grid row, checked when built: a known model, integer sizes, a finite positive sigma0."""

    d: int
    n: int
    sigma0: float
    model: str = "logistic"

    def __post_init__(self) -> None:
        if self.model not in ("logistic", "gaussian"):
            raise ValueError(f"row model must be 'logistic' or 'gaussian', got {self.model!r}")
        _check_integer(self.d, 1, "row d must be an integer >= 1")
        _check_integer(self.n, 0, "row n must be an integer >= 0")
        _check_types(ExperimentRow, vars(self), "row")
        # json.load reads the Infinity literal, which no prior can take
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError("row sigma0 must be a finite positive real")


# the values each field type takes, numpy numbers too, and how an error message names them
_JSON_TYPES = {
    "int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
    "str": (str, "a string"), "bool": (bool, "true or false"), "tuple": ((list, tuple), "a list"),
}


def _check_types(kind, values: dict, what: str) -> None:
    """ValueError naming the first field of ``kind`` whose value in ``values`` has the wrong type.

    An absent field takes its default. A bool is not a number here,
    although Python's bool is an int.
    """
    for f in fields(kind):
        types, label = _JSON_TYPES[f.type]
        value = values.get(f.name, f.default)
        if not isinstance(value, types) or (isinstance(value, bool) and f.type != "bool"):
            raise ValueError(f"{what} key {f.name!r} must be {label}, got {value!r}")


def _check_keys(kind, payload, what: str) -> dict:
    """``payload`` if it is a dict with the keys and value types ``kind`` takes.

    Otherwise a ValueError naming the first offending key, by ``_check_types``
    for the value types.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    names = {f.name: f.default is MISSING for f in fields(kind)}
    unknown = [k for k in payload if k not in names]
    missing = [k for k, required in names.items() if required and k not in payload]
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")
    if missing:
        raise ValueError(f"{what} is missing the key {missing[0]!r}")
    _check_types(kind, payload, what)
    return payload


@dataclass(frozen=True)
class ExperimentSpec:
    """A grid: rows, replicates, base seed and the audit and truth settings of every cell.

    Every setting is checked when the spec is built, so before any cell
    runs, truth or not. A spec built in Python gets the value types a JSON
    spec gets, after the integer checks, whose messages say more.
    """

    rows: tuple
    replicates: int
    seed: int
    n_directions: int = AuditConfig.n_directions
    quadrature_nodes: int = AuditConfig.quadrature_nodes
    mcmc_preset: str = "desk"
    estimate_truth: bool = True

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("spec needs at least one row")
        _check_integer(self.replicates, 1, "replicates must be an integer >= 1")
        _check_integer(self.seed, 0, "seed must be an integer >= 0")
        self.audit_config(0)  # an AuditConfig checks the direction and node counts
        _check_types(ExperimentSpec, vars(self), "spec")
        for row in self.rows:
            if not isinstance(row, ExperimentRow):
                raise ValueError(f"each row must be an ExperimentRow, got {row!r}")
        get_preset(self.mcmc_preset)

    def audit_config(self, seed: int) -> AuditConfig:
        return AuditConfig(
            n_directions=self.n_directions, quadrature_nodes=self.quadrature_nodes, seed=seed
        )

    def to_json_dict(self) -> dict:
        """The spec as a JSON payload, rows included; a numpy number is its Python value."""
        return json_ready(asdict(self))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentSpec":
        _check_keys(cls, payload, "spec")
        rows = tuple(
            ExperimentRow(**_check_keys(ExperimentRow, row, "row")) for row in payload["rows"]
        )
        return cls(**{**payload, "rows": rows})

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))


@dataclass(frozen=True)
class ReplicateResult:
    """One grid cell, its fields the table's columns in order; what it did not compute is NaN."""

    row: int
    replicate: int
    model: str
    d: int
    n: int
    sigma0: float
    seed: int
    kl: float = math.nan
    kl_se: float = math.nan
    approx_bound: float = math.nan
    detailed_bound: float = math.nan
    efficiency: float = math.nan
    status: str = "ok"
    error: str | None = None


CSV_COLUMNS = tuple(f.name for f in fields(ReplicateResult))


@dataclass(frozen=True)
class RowAggregate:
    """A grid row's cell counts and, as a ``median_<column>`` field, each column's median."""

    row: int
    model: str
    d: int
    n: int
    sigma0: float
    replicates: int
    n_failed: int
    median_kl: float
    median_kl_se: float
    median_approx_bound: float
    median_detailed_bound: float
    median_efficiency: float


MEDIAN_COLUMNS = tuple(
    f.name.removeprefix("median_") for f in fields(RowAggregate) if f.name.startswith("median_")
)


def _cell_seed(base: int, row: int, replicate: int, stream: int) -> int:
    ss = np.random.SeedSequence(base, spawn_key=(row, replicate, stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_cell(spec: ExperimentSpec, row_idx: int, replicate: int) -> ReplicateResult:
    row = spec.rows[row_idx]
    data_seed = _cell_seed(spec.seed, row_idx, replicate, _DATA_STREAM)
    audit_seed = _cell_seed(spec.seed, row_idx, replicate, _AUDIT_STREAM)
    chain_seed = _cell_seed(spec.seed, row_idx, replicate, _CHAIN_STREAM)
    cell = dict(row=row_idx, replicate=replicate, seed=data_seed, **asdict(row))
    try:
        model = _synthetic_model(row.model, row.d, row.n, row.sigma0, data_seed)
        fit = fit_laplace(model)
        report = audit(model, spec.audit_config(audit_seed), fit=fit)
        kl = kl_se = math.nan
        if spec.estimate_truth:
            estimate = estimate_true_kl(model, fit, get_preset(spec.mcmc_preset, chain_seed))
            kl, kl_se = estimate.kl, estimate.standard_error
        approx = report.approx_bound
        efficiency = kl / approx if (approx > 0 and math.isfinite(kl)) else math.nan
        return ReplicateResult(
            **cell, kl=kl, kl_se=kl_se, approx_bound=approx,
            detailed_bound=report.detailed_bound, efficiency=efficiency,
        )
    except (AssumptionViolationError, MapNotConvergedError, NonFiniteObjectiveError) as exc:
        return ReplicateResult(**cell, status="failed", error=f"{type(exc).__name__}: {exc}")


def _median(values) -> float:
    vals = [v for v in values if math.isfinite(v)]
    return float(np.median(vals)) if vals else float("nan")


@dataclass(frozen=True)
class ExperimentReport:
    spec: dict
    spec_sha256: str
    replicates: tuple
    aggregates: tuple

    def to_json_dict(self) -> dict:
        """The report as a JSON payload; a NaN cell value (no truth, a failed cell) is null."""
        return json_ready(asdict(self))

    def to_csv(self) -> str:
        """``CSV_COLUMNS`` rows: one per cell, then per grid row a median row filled by name."""
        rows = [asdict(r) for r in self.replicates]
        for a in self.aggregates:
            rows.append({
                **asdict(a), "replicate": "median",
                **{name: getattr(a, f"median_{name}") for name in MEDIAN_COLUMNS},
                "status": f"ok:{a.replicates - a.n_failed}/failed:{a.n_failed}",
            })
        return csv_text([CSV_COLUMNS, *(json_ready([r.get(c) for c in CSV_COLUMNS]) for r in rows)])


def spec_content_hash(spec: ExperimentSpec) -> str:
    canonical = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ExperimentReport:
    """Run every (row, replicate) cell and take each row's ``MEDIAN_COLUMNS`` medians.

    The cells run on a pool of ``jobs`` threads (a ValueError when ``jobs``
    is not an integer >= 1). They are independent and individually seeded,
    so ``jobs`` changes no output, and ``pool.map`` returns them in (row,
    replicate) order whatever order they finish in. Per-cell failures are
    recorded in the report and do not stop the run. The spec is hashed before any cell.
    """
    _check_integer(jobs, 1, "jobs must be an integer >= 1")
    sha256 = spec_content_hash(spec)
    cells = [(r, k) for r in range(len(spec.rows)) for k in range(spec.replicates)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(lambda cell: _run_cell(spec, *cell), cells))

    aggregates = []
    for row_idx, row in enumerate(spec.rows):
        mine = [r for r in results if r.row == row_idx]
        ok = [r for r in mine if r.status == "ok"]
        aggregates.append(RowAggregate(
            row=row_idx, **asdict(row), replicates=len(mine), n_failed=len(mine) - len(ok),
            **{f"median_{c}": _median([getattr(r, c) for r in ok]) for c in MEDIAN_COLUMNS},
        ))
    return ExperimentReport(
        spec=spec.to_json_dict(),
        spec_sha256=sha256,
        replicates=tuple(results),
        aggregates=tuple(aggregates),
    )
