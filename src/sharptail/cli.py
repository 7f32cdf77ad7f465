"""Command-line front end.

Subcommands
-----------
approx            sharp tail estimate + condition diagnostics for one run
sample            Monte Carlo / enumeration oracle for the same event
check-conditions  condition diagnostics only
fclt              replica study of the rate-function fluctuations
tcell             T-cell activation scenario
portfolio         K-block portfolio loss scenario
report            comparison table across saved estimate records

Every run is driven by a single JSON config validated against the schemas
shipped in ``sharptail/schemas`` (unknown keys are rejected), with a handful
of flag overrides.  Emitted documents are deterministic byte-for-byte for a
fixed config and seed: they contain no timestamps or volatile fields, and
runtime metadata goes to stderr instead.  ``output.format: "csv"`` applies to
estimate records; check-conditions and fclt reject it.  fclt writes its
covariance pairs as CSV beside its JSON record instead: to ``--csv``, or to
``<output.path>.csv`` whenever ``output.path`` is set.

Exit codes: 0 success; 2 validation failure; 3 numeric failure (threshold
out of range, non-convergence, quadrature failure, degenerate inputs);
4 oracle-capacity failure (enumeration too large, too few replicas).
Errors are additionally printed as single-line JSON diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import io
import json
import math
import sys
import time
from importlib import resources

import jsonschema
from referencing import Registry, Resource

from .cgf import BinomialModel, CumulantModel, GaussianModel
from .errors import CAPACITY_ERRORS, NUMERIC_ERRORS, MismatchedRuns
from .estimate import (
    DEFAULT_DELTA1,
    DEFAULT_DELTA2,
    DEFAULT_GRID_COUNT,
    METHOD_SLDP,
    TailEstimate,
    check_conditions,
    sldp_estimate,
)
from .fclt import fclt_grid, fclt_report, sample_fluctuations
# called through the module, so bench/tracing.py's span on
# mc.tilted_mc_segments sees every call
from . import mc
from .rng import derive_stream
from .saddle import DeterministicCurves, Segment, solve_saddle
from .scenarios import (
    PortfolioBlock,
    PortfolioScenario,
    TcellScenario,
    portfolio_loss_prob,
    tcell_activation_prob,
)
from .weights import (
    ConstantWeight,
    TcellWeight,
    TwoPointWeight,
    UniformWeight,
    WeightModel,
    draw_environment,
)

__all__ = ["main", "run"]

_SCHEMA_FILES = (
    "run_config.schema.json",
    "tcell_config.schema.json",
    "portfolio_config.schema.json",
    "estimate_record.schema.json",
    "conditions_record.schema.json",
    "fclt_record.schema.json",
)

ESTIMATE_CSV_COLUMNS = (
    "record", "method", "n", "a", "seed", "p", "log_p", "stderr", "hits",
    "theta", "rate", "sigma2",
)
FCLT_CSV_COLUMNS = ("a", "a_prime", "empirical", "analytic")
REPORT_CSV_COLUMNS = ("method", "p", "log_p", "stderr", "ratio_to_sldp")


def _schema_registry():
    schemas = {}
    for name in _SCHEMA_FILES:
        text = resources.files("sharptail.schemas").joinpath(name).read_text()
        schemas[name] = json.loads(text)
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in schemas.values()
    )
    return schemas, registry


_SCHEMAS, _REGISTRY = _schema_registry()


def validate_document(doc: dict, schema_name: str) -> None:
    """Validate against a shipped schema; jsonschema errors propagate."""
    validator = jsonschema.Draft202012Validator(
        _SCHEMAS[schema_name], registry=_REGISTRY
    )
    validator.validate(doc)


def build_z_model(spec: dict) -> CumulantModel:
    if spec["kind"] == "gaussian":
        return GaussianModel(sigma2=float(spec["sigma2"]))
    return BinomialModel(m=int(spec["m"]), p=float(spec["p"]))


def build_w_model(spec: dict) -> WeightModel:
    kind = spec["kind"]
    if kind == "constant":
        return ConstantWeight(c=float(spec["c"]))
    if kind == "uniform":
        return UniformWeight(c=float(spec["c"]), d=float(spec["d"]))
    if kind == "two_point":
        return TwoPointWeight(values=tuple(float(v) for v in spec["values"]),
                              probs=tuple(float(p) for p in spec["probs"]))
    if kind == "tcell_exponential":
        return TcellWeight(tau_kind="exponential", rate=float(spec["rate"]))
    return TcellWeight(tau_kind="lognormal", mu=float(spec["mu"]), s=float(spec["s"]))


def _json_safe(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _estimate_csv(record: dict) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(ESTIMATE_CSV_COLUMNS)
    writer.writerow([record.get(col, "") for col in ESTIMATE_CSV_COLUMNS])
    return buf.getvalue()


def estimate_record(est: TailEstimate, seed: int, **extra) -> dict:
    doc = {
        "record": "sharptail/estimate-v1",
        "method": est.method,
        "n": est.n,
        "a": est.a,
        "seed": seed,
        "p": est.value,
        "log_p": _json_safe(est.log_value),
    }
    if est.stderr is not None:
        doc["stderr"] = est.stderr
    if est.hits is not None:
        doc["hits"] = est.hits
    if est.warnings:
        doc["warnings"] = list(est.warnings)
    doc.update(extra)
    return doc


def _emit_record(doc: dict, schema_name: str, cfg: dict) -> None:
    """Validate and write ``doc``; CSV applies to estimate records only."""
    validate_document(doc, schema_name)
    out = cfg.get("output", {})
    text = _estimate_csv(doc) if out.get("format") == "csv" else _dump_json(doc)
    _write_output(text, out.get("path"))


def _require_finite(value, where: str) -> None:
    """Reject the NaN and infinities that ``json.load`` and float flags accept."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _require_finite(item, f"{where}/{key}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise jsonschema.ValidationError(f"{where} must be finite, got {value}")


def _load_config(path: str, overrides: dict, schema_name: str,
                 csv_form: bool = True) -> dict:
    """Read, override and validate a config; every number must be finite.

    ``csv_form`` says whether the command's record has a CSV form; when it
    has none, ``output.format: "csv"`` is rejected before any work is done.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    validate_document(cfg, schema_name)
    _require_finite(cfg, "config")
    if not csv_form and cfg.get("output", {}).get("format") == "csv":
        raise jsonschema.ValidationError("this record has no CSV form; use format 'json'")
    return cfg


def _mc_config(cfg: dict, draws: int | None, batches: int | None) -> mc.McConfig:
    for flag, value in (("--draws", draws), ("--batches", batches)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    spec = cfg.get("mc", {})
    n_batches = batches if batches is not None else spec.get("batches", 100)
    if draws is not None:
        batch_size = max(1, -(-draws // n_batches))
    else:
        batch_size = spec.get("batch_size", 10_000)
    return mc.McConfig(batches=n_batches, batch_size=batch_size,
                       seed=spec.get("seed", cfg["seed"]))


def _conditions(cfg: dict, segments, sol) -> dict:
    """The condition statistics on the config's t-grid, as record fields."""
    cond_cfg = cfg.get("conditions", {})
    report = check_conditions(
        segments, sol,
        cond_cfg.get("delta1", DEFAULT_DELTA1),
        cond_cfg.get("delta2", DEFAULT_DELTA2),
        cond_cfg.get("grid_count", DEFAULT_GRID_COUNT),
    )
    d1, d2, count = report.t_grid
    return {
        "theta_sqrt_n": report.theta_sqrt_n,
        "sigma2": report.sigma2,
        "cf_sup": report.cf_sup,
        "t_grid": {"delta1": d1, "delta2": d2, "count": count,
                   "defaulted": not cond_cfg},
    }


def _threshold_run(args, command: str, csv_form: bool = True):
    """Config and the environment's one segment at one threshold."""
    cfg = _load_config(args.config, {"a": args.a, "n": args.n, "seed": args.seed},
                       "run_config.schema.json", csv_form)
    if "a" not in cfg:
        raise jsonschema.ValidationError(f"{command} needs a threshold 'a'")
    weights = draw_environment(build_w_model(cfg["w"]), cfg["n"], derive_stream(cfg["seed"], 0))
    return cfg, [Segment(weights, build_z_model(cfg["z"]))]


def _maybe_dump_env(segments, path: str | None) -> None:
    """One weight per line, full round-trip precision."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{float(w)!r}\n" for w in segments[0].weights)


def cmd_approx(args) -> int:
    cfg, segments = _threshold_run(args, "approx")
    _maybe_dump_env(segments, args.dump_env)
    sol = solve_saddle(segments, cfg["a"], cfg.get("theta_star", 1.0))
    est = sldp_estimate(sol, cfg["n"])
    doc = estimate_record(
        est, cfg["seed"],
        theta=sol.theta, rate=sol.rate, sigma2=sol.sigma2,
        residual=sol.residual, iterations=sol.iterations,
        conditions=_conditions(cfg, segments, sol),
    )
    _emit_record(doc, "estimate_record.schema.json", cfg)
    return 0


def cmd_sample(args) -> int:
    cfg, segments = _threshold_run(args, "sample")
    _maybe_dump_env(segments, args.dump_env)
    a = cfg["a"]
    if args.mode == "exact":
        est = mc.exact_enum_segments(segments, a)
        doc = estimate_record(est, cfg["seed"])
    elif args.mode == "naive":
        budget = _mc_config(cfg, args.draws, args.batches)
        est = mc.naive_mc_segments(segments, a, budget)
        doc = estimate_record(est, cfg["seed"], draws=budget.draws)
    else:
        budget = _mc_config(cfg, args.draws, args.batches)
        sol = solve_saddle(segments, a, cfg.get("theta_star", 1.0))
        est = mc.tilted_mc_segments(segments, a, sol.theta, budget)
        doc = estimate_record(est, cfg["seed"], theta=sol.theta, draws=budget.draws)
    _emit_record(doc, "estimate_record.schema.json", cfg)
    return 0


def cmd_check_conditions(args) -> int:
    cfg, segments = _threshold_run(args, "check-conditions", csv_form=False)
    sol = solve_saddle(segments, cfg["a"], cfg.get("theta_star", 1.0))
    doc = {
        "record": "sharptail/conditions-v1",
        "n": cfg["n"],
        "a": cfg["a"],
        "seed": cfg["seed"],
        "theta": sol.theta,
        **_conditions(cfg, segments, sol),
    }
    _emit_record(doc, "conditions_record.schema.json", cfg)
    return 0


def _parse_grid(text: str | None, curves, default_count: int = 9):
    if text is None:
        return curves.grid(default_count)
    if "," in text or "." in text:
        grid = [float(tok) for tok in text.split(",") if tok]
        _require_finite(grid, "--grid")
    else:
        grid = curves.grid(int(text))
    if len(grid) < 1:
        raise ValueError(f"--grid needs at least one threshold, got {text!r}")
    return grid


def cmd_fclt(args) -> int:
    if args.replicas < 1:
        raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
    cfg = _load_config(args.config, {"n": args.n, "seed": args.seed},
                       "run_config.schema.json", csv_form=False)
    curves = DeterministicCurves(build_w_model(cfg["w"]), build_z_model(cfg["z"]),
                                 cfg.get("theta_star", 1.0))
    a_grid = cfg.get("a_grid")
    if args.grid is not None or a_grid is None:
        a_grid = _parse_grid(args.grid, curves)
    grid = fclt_grid(curves, cfg["n"], a_grid)
    samples = [sample_fluctuations(grid, r, cfg["seed"]) for r in range(args.replicas)]
    report = fclt_report(samples, grid)
    doc = {
        "record": "sharptail/fclt-v1",
        "n": report.n,
        "replicas": report.replicas,
        "seed": cfg["seed"],
        "a_grid": report.a_grid.tolist(),
        "theta_grid": report.theta_grid.tolist(),
        "empirical_cov": report.empirical_cov.tolist(),
        "analytic_cov": report.analytic_cov.tolist(),
        "max_abs_cov_error": report.max_abs_cov_error,
        "residual_stats": [dataclasses.asdict(s) for s in report.residual_stats],
    }
    _emit_record(doc, "fclt_record.schema.json", cfg)
    path = cfg.get("output", {}).get("path")
    csv_path = args.csv or (path + ".csv" if path else None)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(FCLT_CSV_COLUMNS)
            grid = doc["a_grid"]
            for i, a in enumerate(grid):
                for j, ap in enumerate(grid):
                    writer.writerow([a, ap, doc["empirical_cov"][i][j],
                                     doc["analytic_cov"][i][j]])
    return 0


def cmd_tcell(args) -> int:
    cfg = _load_config(args.config, {"seed": args.seed}, "tcell_config.schema.json")
    tau = build_w_model({**cfg["tau"], "kind": "tcell_" + cfg["tau"]["kind"]})
    sc = TcellScenario(
        n=cfg["n"], z_f=cfg["z_f"], w_f=cfg["w_f"], tau_model=tau,
        z_model=build_z_model(cfg["z"]), a=cfg["a"],
        theta_star=cfg.get("theta_star", 1.0),
    )
    est = tcell_activation_prob(sc, cfg["seed"])
    doc = estimate_record(est, cfg["seed"])
    _emit_record(doc, "estimate_record.schema.json", cfg)
    return 0


def cmd_portfolio(args) -> int:
    cfg = _load_config(args.config, {"seed": args.seed}, "portfolio_config.schema.json")
    blocks = tuple(
        PortfolioBlock(q=b["q"], w_model=build_w_model(b["w"]),
                       z_model=build_z_model(b["z"]))
        for b in cfg["blocks"]
    )
    sc = PortfolioScenario(blocks=blocks, a=cfg["a"],
                           theta_star=cfg.get("theta_star", 1.0))
    est = portfolio_loss_prob(sc, cfg["seed"])
    doc = estimate_record(est, cfg["seed"])
    _emit_record(doc, "estimate_record.schema.json", cfg)
    return 0


def _ratio(log_p: float, log_ref: float):
    """exp(log_p - log_ref), from log_p because p underflows to 0.0 first.

    Empty without a finite reference; inf past the float range.
    """
    if not math.isfinite(log_ref):
        return ""
    try:
        return math.exp(log_p - log_ref)
    except OverflowError:
        return math.inf


def cmd_report(args) -> int:
    records = []
    for path in args.records:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_document(doc, "estimate_record.schema.json")
        records.append(doc)
    if len(records) < 2:
        raise MismatchedRuns("need at least 2 estimate records to compare")
    key = (records[0]["seed"], records[0]["n"], records[0]["a"])
    for doc in records[1:]:
        other = (doc["seed"], doc["n"], doc["a"])
        if other != key:
            raise MismatchedRuns(f"records disagree: {other} vs {key}")
    sldp_rows = [d for d in records if d["method"] == METHOD_SLDP]
    sldp_log_p = float(sldp_rows[0]["log_p"]) if sldp_rows else -math.inf
    rows = [[doc["method"], doc["p"], doc["log_p"], doc.get("stderr", ""),
             _ratio(float(doc["log_p"]), sldp_log_p)] for doc in records]
    if args.format == "csv":
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        writer.writerows(rows)
        _write_output(buf.getvalue(), args.out)
    else:
        widths = [max(len(str(r[i])) for r in rows + [REPORT_CSV_COLUMNS])
                  for i in range(len(REPORT_CSV_COLUMNS))]
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(REPORT_CSV_COLUMNS, widths))]
        lines += ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)) for r in rows]
        _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharptail",
        description="Sharp conditional tail estimates for weighted i.i.d. sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_a=True):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--n", type=int, default=None, help="override config n")
        if with_a:
            p.add_argument("--a", type=float, default=None, help="override threshold")

    p = sub.add_parser("approx", help="sharp analytic tail estimate")
    add_common(p)
    p.add_argument("--dump-env", default=None, help="write weights CSV here")
    p.set_defaults(handler=cmd_approx)

    p = sub.add_parser("sample", help="Monte Carlo / exact oracle estimate")
    add_common(p)
    p.add_argument("--mode", choices=["tilted", "naive", "exact"], default="tilted")
    p.add_argument("--draws", type=int, default=None,
                   help="total draw budget, rounded up to a multiple of the batch count")
    p.add_argument("--batches", type=int, default=None, help="stderr batches")
    p.add_argument("--dump-env", default=None, help="write weights CSV here")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("check-conditions", help="condition diagnostics only")
    add_common(p)
    p.set_defaults(handler=cmd_check_conditions)

    p = sub.add_parser("fclt", help="replica fluctuation study")
    add_common(p, with_a=False)
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--grid", default=None,
                   help="grid point count, or comma-separated thresholds")
    p.add_argument("--csv", default=None, help="covariance-pairs CSV path")
    p.set_defaults(handler=cmd_fclt)

    p = sub.add_parser("tcell", help="T-cell activation scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_tcell)

    p = sub.add_parser("portfolio", help="K-block portfolio loss scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_portfolio)

    p = sub.add_parser("report", help="comparison table across saved records")
    p.add_argument("records", nargs="+", help="estimate record JSON files")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_report)

    return parser


def run(argv=None) -> int:
    """Parse, dispatch, and map failures to exit codes."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a rejected flag, 0 for --help
        return exc.code
    start = time.perf_counter()
    try:
        code = args.handler(args)
    except (jsonschema.ValidationError, json.JSONDecodeError, ValueError,
            MismatchedRuns, FileNotFoundError) as exc:
        _diagnose(exc)
        return 2
    except CAPACITY_ERRORS as exc:
        _diagnose(exc)
        return 4
    except NUMERIC_ERRORS as exc:
        _diagnose(exc)
        return 3
    print(f"# elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def _diagnose(exc: Exception) -> None:
    message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
    print(json.dumps({"error": type(exc).__name__, "message": message}),
          file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
