"""Command-line entry point.

Subcommands:

* ``simulate``         one transmission run from a JSON config
* ``spectral``         T/R table, bound states and resonance verdict for a potential
* ``study``            velocity-scaling study (the main experiment)
* ``check``            deterministic invariant suite, table of pass/fail
* ``potential-report`` admissibility report for a potential

Exit codes: 0 success, 1 invalid input, 2 acceptance/scaling failure,
3 numerical breakdown, 4 invalid run (edge-mass gate). The environment
variable SOLITONLAB_OUT_DIR overrides the default output directory when no
--out flag is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AccuracyError, ConfigError, InvalidRunError, NumericalBreakdownError
from .experiments import ExperimentConfig, RunReport, scaling_study, transmission_run
from .grid import make_grid, save_field
from .potentials import KINDS, PARAMS, PotentialSpec, check_admissibility
from .reporting import RunManifest, svg_line_plot, write_csv, write_json
from .scattering import build_spectral_report, require_table_budget
from . import checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CRITERION = 2
EXIT_BREAKDOWN = 3
EXIT_INVALID_RUN = 4

#: error class -> (final manifest status, exit code, message prefix)
_FAILURES = {
    ConfigError: ("rejected", EXIT_CONFIG, "error"),
    NumericalBreakdownError: ("breakdown", EXIT_BREAKDOWN, "numerical breakdown"),
    AccuracyError: ("breakdown", EXIT_BREAKDOWN, "numerical breakdown"),
    InvalidRunError: ("invalid", EXIT_INVALID_RUN, "invalid run"),
}


def _failure(exc: BaseException) -> tuple[str, int, str] | None:
    return next((v for cls, v in _FAILURES.items() if isinstance(exc, cls)), None)


def _output_dir(args, default: str) -> Path:
    if args.out:
        path = Path(args.out)
    elif os.environ.get("SOLITONLAB_OUT_DIR"):
        path = Path(os.environ["SOLITONLAB_OUT_DIR"])
    else:
        path = Path(default)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _potential_from_args(args) -> PotentialSpec:
    d = {key: getattr(args, key) for key in PARAMS if getattr(args, key) is not None}
    return PotentialSpec.from_dict({"kind": args.kind, **d})


@contextmanager
def _manifest(out: Path, config: dict):
    """Own ``out/manifest.json``: written as "running" on entry, finalized on
    every exit. The body adds outputs and may set ``status`` (default
    "complete") and ``flags``; an exception is recorded with the status of its
    class and propagates."""
    manifest = RunManifest(config=config, tool_version=__version__)
    path = out / "manifest.json"
    manifest.write(path)
    manifest.add_output(path)
    try:
        yield manifest
    except BaseException as exc:
        failure = _failure(exc)
        status = failure[0] if failure else (
            "interrupted" if isinstance(exc, KeyboardInterrupt) else "error")
        manifest.finalize(path, status, error=str(exc))
        raise
    manifest.finalize(path, "complete" if manifest.status == "running" else manifest.status)


def _write_run_outputs(report: RunReport, out: Path, manifest: RunManifest) -> None:
    series = report.evolution.series
    series.to_csv(out / "series.csv")
    write_json(out / "report.json", report.to_dict())
    save_field(report.evolution.final, out / "final_field.bin")
    svg_line_plot(
        out / "summary.svg",
        [(series.times, series.err_l2, "||u - u1||_L2")],
        title=f"transmission error, v={report.plan.v:g}",
        xlabel="t",
        ylabel="L2 error",
        logy=bool(np.any(series.err_l2 > 0)),
    )
    for name in ("series.csv", "report.json", "final_field.bin", "summary.svg"):
        manifest.add_output(out / name)


def cmd_simulate(args) -> int:
    raw = _load_config(args.config)
    config = ExperimentConfig.from_dict(raw)
    if len(config.velocities) != 1:
        raise ConfigError("simulate needs a single 'v' (or a one-entry 'velocities' list)")
    v = config.velocities[0]
    out = _output_dir(args, "runs/simulate")
    with _manifest(out, raw) as manifest:
        report = transmission_run(config, v)
        _write_run_outputs(report, out, manifest)
        ev = report.evolution
        manifest.status = "complete" if ev.valid else "invalid"
        manifest.flags.update(valid=ev.valid, sup_error=report.sup_error,
                              invalid_reason=ev.invalid_reason, wall_s=report.wall_s)
    if not ev.valid:
        print(f"invalid run: {ev.invalid_reason}", file=sys.stderr)
        return EXIT_INVALID_RUN
    print(f"v={v:g}: sup ||u-u1|| = {report.sup_error:.6e} over [0, {report.plan.t_end:.4g}] -> {out}")
    return EXIT_OK


def cmd_spectral(args) -> int:
    spec = _potential_from_args(args)
    half = args.half_width
    grid = make_grid(spec.center - half, spec.center + half, args.n)
    for flag, value in (("--lambda-min", args.lambda_min), ("--lambda-max", args.lambda_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.lambda_points < 1:
        raise ConfigError(f"--lambda-points must be at least 1, got {args.lambda_points}")
    require_table_budget(args.lambda_points, args.n)
    if not args.linear and not (args.lambda_min > 0 and args.lambda_max > 0):
        raise ConfigError("log lambda spacing needs --lambda-min and --lambda-max > 0 "
                          "(or use --linear)")
    if args.linear:
        lams = np.linspace(args.lambda_min, args.lambda_max, args.lambda_points)
    else:
        lams = np.geomspace(args.lambda_min, args.lambda_max, args.lambda_points)
    out = _output_dir(args, "runs/spectral")
    config = {"potential": spec.to_dict(), "lambda_min": args.lambda_min,
              "lambda_max": args.lambda_max, "lambda_points": args.lambda_points,
              "linear": args.linear, "half_width": half, "n": args.n}
    with _manifest(out, config) as manifest:
        report = build_spectral_report(spec, grid, lams)
        csv_path = out / "coefficients.csv"
        write_csv(csv_path, ("lambda", "re_T", "im_T", "re_R", "im_R", "unitarity_defect"),
                  [(c.lam, c.T.real, c.T.imag, c.R.real, c.R.imag, c.unitarity_defect)
                   for c in report.coefficients])
        manifest.add_output(csv_path)
        json_path = out / "spectral_report.json"
        write_json(json_path, report.to_dict())
        manifest.add_output(json_path)
        adm = report.admissibility
        manifest.flags.update(admissible=adm.admissible, table_s=report.table_s,
                              table_substeps=report.table_substeps,
                              admissibility_s=adm.wall_s)
    print(
        f"{spec.kind}: {adm.bound_state_count} bound state(s) "
        f"{list(adm.bound_state_energies)}, resonance={adm.resonance_detected}, "
        f"admissible={adm.admissible}, "
        f"max unitarity defect {report.max_unitarity_defect:.2e} -> {out}"
    )
    return EXIT_OK


def cmd_potential_report(args) -> int:
    report = check_admissibility(_potential_from_args(args))
    out = _output_dir(args, "runs/potential")
    path = out / "admissibility.json"
    write_json(path, report.to_dict())
    sys.stdout.write(path.read_text())
    return EXIT_OK


def cmd_study(args) -> int:
    raw = _load_config(args.config)
    config = ExperimentConfig.from_dict(raw)
    out = _output_dir(args, "runs/study")
    single = {key: value for key, value in raw.items() if key != "velocities"}
    with _manifest(out, raw) as manifest:
        result = scaling_study(config, jobs=args.jobs)
        for run, floor in zip(result.runs, result.floor_runs):
            run_dir = out / "runs" / f"v{run.plan.v:g}"
            run_dir.mkdir(parents=True, exist_ok=True)
            with _manifest(run_dir, {**single, "v": run.plan.v}) as sub:
                _write_run_outputs(replace(run, admissibility_s=result.admissibility_s),
                                   run_dir, sub)
                floor_path = run_dir / "floor_series.csv"
                floor.evolution.series.to_csv(floor_path)
                sub.add_output(floor_path)
                sub.status = "complete" if run.evolution.valid else "invalid"
                sub.flags.update(valid=run.evolution.valid, wall_s=run.wall_s,
                                 floor_wall_s=floor.wall_s)
            manifest.add_output(run_dir / "manifest.json")
        study_path = out / "study.json"
        write_json(study_path, result.to_dict())
        manifest.add_output(study_path)
        csv_path = out / "scaling.csv"
        write_csv(csv_path, ("log_v", "log_err"),
                  [(math.log(v), math.log(e)) for v, e in zip(result.velocities, result.errors)])
        manifest.add_output(csv_path)
        svg_path = out / "scaling.svg"
        vs = np.asarray(result.velocities)
        bound = result.errors[0] * (vs / vs[0]) ** result.bound_slope
        svg_line_plot(
            svg_path,
            [
                (vs, np.asarray(result.errors), "measured sup error"),
                (vs, bound, f"envelope slope {result.bound_slope:g}"),
            ],
            title=f"error scaling, slope {result.slope:.3f} (limit {result.slope_limit:.3f})",
            xlabel="v",
            ylabel="sup_t ||u - u1||_L2",
            logx=True,
            logy=True,
        )
        manifest.add_output(svg_path)
        manifest.status = ("complete" if result.passed
                           else "invalid" if not result.runs_valid else "failed")
        manifest.flags.update(passed=result.passed, slope=result.slope,
                              slope_limit=result.slope_limit,
                              admissibility_s=result.admissibility_s)
    print(
        f"slope {result.slope:.4f} (limit {result.slope_limit:.4f}), "
        f"decreasing={result.strictly_decreasing}, floors ok={result.floor_gate_ok}, "
        f"pass={result.passed} -> {out}"
    )
    if not result.runs_valid:
        return EXIT_INVALID_RUN
    return EXIT_OK if result.passed else EXIT_CRITERION


def cmd_check(args) -> int:
    results = checks.run_all()
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        lines.append(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{'overall':<{width}}  {'PASS' if ok else 'FAIL'}  {sum(r.passed for r in results)}/{len(results)} checks")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        out = _output_dir(args, "runs/check")
        (out / "check_report.txt").write_text(text)
        write_json(
            out / "check_report.json",
            {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
             "passed": ok},
        )
    return EXIT_OK if ok else EXIT_CRITERION


def _add_potential_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--q", type=float, help="amplitude (algebraic, gaussian)")
    p.add_argument("--s", type=float, help="algebraic decay exponent (> 2 for admissible use)")
    p.add_argument("--sigma", type=float, help="gaussian width")
    p.add_argument("--beta", type=float, help="sech^2 well depth")
    p.add_argument("--ell", type=float, help="reflectionless family index")
    p.add_argument("--center", type=float, help="potential center offset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Spectral laboratory for fast-soliton transmission through 1D potentials.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one transmission simulation from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectral", help="transmission/reflection table and spectral report")
    _add_potential_flags(p)
    p.add_argument("--half-width", type=float, default=60.0, dest="half_width",
                   help="half-width of the T/R table domain (default 60)")
    p.add_argument("--n", type=int, default=2048, help="T/R table grid points (power of two)")
    p.add_argument("--lambda-min", type=float, default=0.5, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, default=20.0, dest="lambda_max")
    p.add_argument("--lambda-points", type=int, default=50, dest="lambda_points")
    p.add_argument("--linear", action="store_true", help="linear lambda spacing (default log)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("study", help="velocity scaling study")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="concurrent run workers")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("check", help="run the bundled invariant suite")
    p.add_argument("--out", help="also write the report to this directory")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("potential-report", help="admissibility report for a potential")
    _add_potential_flags(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_potential_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        _, code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
