"""Command-line front end.

Subcommands
-----------
* ``gen-data``: write a synthetic logistic dataset CSV.
* ``audit``: run the certificate pipeline on one target, emit a bound report.
* ``truth``: estimate the ground-truth KL(g, f) by sampling.
* ``table``: run a replicated experiment grid from a JSON spec.

Exit codes: 0 on success, 2 when the target violates a certificate
assumption (e.g. non-positive-definite Hessian at the mode), 1 for any other
failure including usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bound import AuditConfig, audit, csv_text, json_ready
from .errors import (
    AssumptionViolationError,
    DimensionMismatchError,
    MapNotConvergedError,
    NonFiniteObjectiveError,
)
from .experiments import ExperimentSpec, run_experiment
from .laplace import fit_laplace
from .mcmc import PRESETS, estimate_true_kl, get_preset
from .models import (
    LogisticRegressionModel,
    SyntheticDatasetConfig,
    _synthetic_model,
    generate_dataset,
    load_dataset_csv,
    save_dataset_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ASSUMPTION = 2


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; code 2 is reserved for assumption violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _flatten(payload, prefix=""):
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, prefix=f"{name}.")
        else:
            yield name, value


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit(payload: dict, out: str | None, fmt: str, pretty: bool) -> None:
    """Write a ``json_ready`` payload as JSON, indented with ``pretty``, or as key/value CSV."""
    if fmt == "json":
        text = json.dumps(payload, indent=2 if pretty else None, allow_nan=False) + "\n"
    else:
        text = csv_text([("key", "value"), *_flatten(payload)])
    _write(text, out)


def _add_output_flags(parser, fmt: str) -> None:
    """``--out``, ``--format`` (``fmt`` by default) and ``--pretty``, which only indents JSON."""
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("json", "csv"), default=fmt)
    parser.add_argument("--pretty", action="store_true")


def _add_model_flags(parser) -> None:
    parser.add_argument(
        "--model", choices=("logistic", "gaussian"), default="logistic",
        help="target family; 'gaussian' builds the seeded exact-null benchmark",
    )
    parser.add_argument("--data", help="dataset CSV (y,x1,...,xd) for the logistic target")
    parser.add_argument("--d", type=int, help="dimension for synthetic targets")
    parser.add_argument("--n", type=int, help="sample count for the synthetic logistic target")
    parser.add_argument("--sigma0", type=float, default=10.0, help="prior sigma0 (default 10)")
    parser.add_argument("--seed", type=int, default=0)


def _refuse_unread(args, parser, names, target: str) -> None:
    """Usage error for a flag among ``names`` that was given but that ``target`` does not read."""
    for name in names:
        if getattr(args, name) is not None:
            parser.error(f"{target} does not read --{name}")


def _build_model(args, parser):
    """The target the model flags name: a ``--data`` CSV's posterior, or a synthetic one.

    A flag the target would ignore is a usage error: ``--data`` and ``--n``
    for the Gaussian target, ``--d`` and ``--n`` beside ``--data``.
    """
    if args.model == "gaussian":
        _refuse_unread(args, parser, ("data", "n"), "--model gaussian")
        if args.d is None:
            parser.error("--model gaussian requires --d")
    elif args.data is not None:
        _refuse_unread(args, parser, ("d", "n"), "a --data target")
        return LogisticRegressionModel(*load_dataset_csv(args.data), args.sigma0)
    elif args.d is None or args.n is None:
        parser.error("logistic target needs either --data or both --d and --n")
    return _synthetic_model(args.model, args.d, args.n, args.sigma0, args.seed)


def _cmd_gen_data(args, parser) -> int:
    dataset = generate_dataset(SyntheticDatasetConfig(d=args.d, n=args.n, seed=args.seed))
    save_dataset_csv(args.out, dataset.labels, dataset.covariates)
    return EXIT_OK


def _cmd_audit(args, parser) -> int:
    model = _build_model(args, parser)
    config = AuditConfig(
        n_directions=args.directions,
        quadrature_nodes=args.nodes,
        seed=args.seed,
    )
    report = audit(model, config)
    _emit(report.to_json_dict(), args.out, args.format, args.pretty)
    return EXIT_OK


def _cmd_truth(args, parser) -> int:
    model = _build_model(args, parser)
    fit = fit_laplace(model)
    preset = get_preset(args.mcmc_preset, seed=args.seed)
    estimate = estimate_true_kl(model, fit, preset)
    _emit(estimate.to_json_dict(), args.out, args.format, args.pretty)
    return EXIT_OK


def _cmd_table(args, parser) -> int:
    report = run_experiment(ExperimentSpec.from_file(args.spec), jobs=args.jobs)
    if args.format == "csv":
        _write(report.to_csv(), args.out)
    else:
        _emit(report.to_json_dict(), args.out, "json", args.pretty)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="laplace-audit",
        description="Laplace approximation with a computable KL-divergence certificate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_audit = sub.add_parser("audit", help="compute the KL certificate for one target")
    _add_model_flags(p_audit)
    p_audit.add_argument("--directions", type=int, default=AuditConfig.n_directions)
    p_audit.add_argument("--nodes", type=int, default=AuditConfig.quadrature_nodes)
    _add_output_flags(p_audit, "json")
    p_audit.set_defaults(func=_cmd_audit)

    p_truth = sub.add_parser("truth", help="estimate the true KL(g, f) by sampling")
    _add_model_flags(p_truth)
    p_truth.add_argument("--mcmc-preset", choices=tuple(PRESETS), default="desk")
    _add_output_flags(p_truth, "json")
    p_truth.set_defaults(func=_cmd_truth)

    p_table = sub.add_parser("table", help="run an experiment grid from a JSON spec")
    p_table.add_argument("--spec", required=True)
    p_table.add_argument("--jobs", type=int, default=1)
    _add_output_flags(p_table, "csv")
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except AssumptionViolationError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc), "details": exc.details}}
        sys.stdout.write(json.dumps(json_ready(payload), allow_nan=False) + "\n")
        return EXIT_ASSUMPTION
    except (
        MapNotConvergedError,
        NonFiniteObjectiveError,
        DimensionMismatchError,
        ValueError,
        OSError,
    ) as exc:
        sys.stderr.write(f"laplace-audit: error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
