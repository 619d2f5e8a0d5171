"""Command-line front end: trace, sweep, refine, selftest.

Configuration precedence (lowest to highest): built-in defaults, --config
JSON file, MASLOVFLOW_* environment variables, explicit flags.  All floats
are written with 17 significant digits so identical runs produce
byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 backend disagreement,
4 model error, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BackendDisagreementError, ConfigError, MaslovError, ModelError
from .maslov import BACKENDS, refine_eigenvalue, run_trace, sweep_lambda
from .models import ModelSpec, get_model
from .selftest import SELFTEST_PROPERTIES, run_selftest
from .tolerances import CHART_TOL, check_chart_tol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DISAGREE = 3
EXIT_MODEL = 4
EXIT_NUMERICAL = 5

ENV_PREFIX = "MASLOVFLOW_"

_CONFIG_KEYS = {
    "model": str,
    "lam": float,
    "lambda_range": str,
    "lambda_count": int,
    "lambda_step": float,
    "x_range": str,
    "step": float,
    "backend": str,
    "out": str,
    "workers": int,
    "init": str,
    "chart_tol": float,
    "tol_lambda": float,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_range(text: str, what: str) -> tuple[float, float]:
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like 'lo:hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{what}: cannot parse {text!r} as numbers") from exc
    if not lo < hi:
        raise ConfigError(f"{what}: need lo < hi, got {lo} >= {hi}")
    return lo, hi


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all subcommands.

    Built by :meth:`from_mapping` after merging defaults, config file,
    environment and flags; every field is already range-checked here, so the
    commands only check presence of what they need.
    """

    model: str | None
    lam: float | None
    lambda_range: tuple[float, float] | None
    lambda_count: int | None
    lambda_step: float | None
    x_range: tuple[float, float]
    step: float | None
    backend: str
    out: str | None
    workers: int
    init: str
    chart_tol: float
    tol_lambda: float

    @staticmethod
    def from_mapping(cfg: dict) -> "RunConfig":
        backend = str(cfg["backend"])
        if backend not in BACKENDS:
            raise ConfigError(f"backend: expected one of {BACKENDS}, got {backend!r}")
        init = str(cfg["init"])
        if init not in ("auto", "farfield", "identity"):
            raise ConfigError(f"init: expected auto|farfield|identity, got {init!r}")
        workers = int(cfg["workers"])
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        chart_tol = float(cfg["chart_tol"])
        check_chart_tol(chart_tol)
        tol_lambda = float(cfg["tol_lambda"])
        if tol_lambda <= 0:
            raise ConfigError("tol_lambda must be positive")
        step = cfg.get("step")
        if step is not None and float(step) <= 0:
            raise ConfigError("step must be positive")
        lambda_step = cfg.get("lambda_step")
        if lambda_step is not None and float(lambda_step) <= 0:
            raise ConfigError("lambda step must be positive")
        lambda_count = cfg.get("lambda_count")
        if lambda_count is not None and int(lambda_count) < 2:
            raise ConfigError("lambda grid needs at least 2 points")
        lambda_range = cfg.get("lambda_range")
        return RunConfig(
            model=cfg.get("model"),
            lam=None if cfg.get("lam") is None else float(cfg["lam"]),
            lambda_range=None if lambda_range is None else _parse_range(lambda_range, "lambda range"),
            lambda_count=None if lambda_count is None else int(lambda_count),
            lambda_step=None if lambda_step is None else float(lambda_step),
            x_range=_parse_range(cfg["x_range"], "x range"),
            step=None if step is None else float(step),
            backend=backend,
            out=cfg.get("out"),
            workers=workers,
            init=init,
            chart_tol=chart_tol,
            tol_lambda=tol_lambda,
        )

    def x_grid(self) -> np.ndarray:
        x_lo, x_hi = self.x_range
        if self.step is None:
            nsteps = 4000
        else:
            nsteps = int(round((x_hi - x_lo) / self.step))
            if nsteps < 2:
                raise ConfigError("x range shorter than two steps")
        return np.linspace(x_lo, x_hi, nsteps + 1)

    def lambda_grid(self) -> np.ndarray:
        if self.lambda_range is None:
            raise ConfigError("missing lambda range (--lambda-range lo:hi)")
        lo, hi = self.lambda_range
        count = self.lambda_count
        if count is None and self.lambda_step is None:
            raise ConfigError("need --lambda-count or --lambda-step for the lambda grid")
        if count is None:
            count = int(round((hi - lo) / self.lambda_step)) + 1
        if count < 2:
            raise ConfigError("lambda grid needs at least 2 points")
        return np.linspace(lo, hi, count)

    # kept for benchmark/probe.py, which passes it to get_model
    def tolerances(self) -> float:
        return self.chart_tol

    def require_model(self) -> ModelSpec:
        """The model named by ``model``, on the window ``x_range``."""
        if not self.model:
            raise ConfigError("missing model (--model)")
        spec = ModelSpec.parse(self.model)
        x_minus, x_plus = self.x_range
        return ModelSpec(spec.name, {**spec.params, "x_minus": x_minus, "x_plus": x_plus})


_DEFAULTS = {
    "lambda_count": None,
    "lambda_step": None,
    "x_range": "-20:20",
    "step": None,
    "backend": "both",
    "out": None,
    "workers": 1,
    "init": "auto",
    "chart_tol": CHART_TOL,
    "tol_lambda": 1e-3,
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < environment < flags."""
    merged = dict(_DEFAULTS)
    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        for key, value in data.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"config file {config_path}: unknown key {key!r}")
            merged[key] = value
    for key, caster in _CONFIG_KEYS.items():
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                merged[key] = caster(env)
            except ValueError as exc:
                raise ConfigError(f"env {ENV_PREFIX + key.upper()}={env!r}: {exc}") from exc
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return RunConfig.from_mapping(merged)


def _open_out(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def cmd_trace(cfg: RunConfig) -> int:
    spec = cfg.require_model()
    if cfg.lam is None:
        raise ConfigError("trace needs a single --lambda value")
    field = get_model(spec)
    grid = cfg.x_grid()
    lam = cfg.lam
    trace = run_trace(field, lam, grid, backend=cfg.backend, init=cfg.init,
                      chart_tol=cfg.chart_tol)

    n = field.n
    have_chart = trace.chart_path is not None
    have_unitary = trace.unitary_path is not None
    columns = ["x", "theta_rad", "det_phase_rad"]
    columns += [f"u_phase_{i + 1}_rad" for i in range(n)]
    if have_chart:
        columns += [f"mu_{i + 1}" for i in range(n)]
    if have_unitary:
        for i in range(n):
            for j in range(i, n):
                columns += [f"sigma_re_{i + 1}{j + 1}", f"sigma_im_{i + 1}{j + 1}"]

    if have_unitary:
        us = trace.unitary_path.us
        sig = trace.unitary_path.sigmas
        det_col = np.angle(np.linalg.det(us))
        phase_cols = np.sort(np.angle(np.linalg.eigvals(us)), axis=1)
    else:
        # the eigenphases of Cay(s) are -2 arctan(mu); det Cay(s) is their sum
        phase_cols = np.sort(-2.0 * np.arctan(trace.chart_path.mu), axis=1)
        det_col = np.angle(np.exp(1j * phase_cols.sum(axis=1)))
    if have_chart:
        clip = 1.0 / cfg.chart_tol
        mu_cols = np.clip(trace.chart_path.mu, -clip, clip)

    out_path = cfg.out or f"trace_{spec.name.replace(':', '_')}_{_fmt(lam)}.csv"
    with _open_out(out_path) as fh:
        fh.write("# maslovflow trace; angles in radians; sign convention: a u-eigenphase "
                 "increasing through pi counts direction +1\n")
        fh.write(f"# model={cfg.model} lambda={_fmt(lam)} backend={cfg.backend} "
                 f"init={trace.init_mode} chart_tol={_fmt(cfg.chart_tol)}\n")
        fh.write(",".join(columns) + "\n")
        for m in range(grid.size):
            row = [_fmt(grid[m]), _fmt(trace.theta[m]), _fmt(det_col[m])]
            row += [_fmt(v) for v in phase_cols[m]]
            if have_chart:
                row += [_fmt(v) for v in mu_cols[m]]
            if have_unitary:
                for i in range(n):
                    for j in range(i, n):
                        row += [_fmt(sig[m, i, j].real), _fmt(sig[m, i, j].imag)]
            fh.write(",".join(row) + "\n")
        res = trace.result
        fh.write(f"# crossings: {res.unsigned_count}\n")
        fh.write(f"# signed_index: {res.signed_index}\n")
        fh.write(f"# end_flag: {str(trace.end_flag).lower()} (dimension {trace.end_dimension})\n")
    print(f"trace written to {out_path} ({grid.size} rows, "
          f"{res.unsigned_count} crossings, init={trace.init_mode})")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    spec = cfg.require_model()
    lambdas = cfg.lambda_grid()
    grid = cfg.x_grid()
    table = sweep_lambda(spec, lambdas, grid, backend=cfg.backend,
                         workers=cfg.workers, chart_tol=cfg.chart_tol)

    out_path = cfg.out or f"sweep_{spec.name.replace(':', '_')}.csv"
    with _open_out(out_path) as fh:
        fh.write("# maslovflow sweep; angles in radians; crossing counts are unsigned; "
                 "status: ok|skipped|disagree|error\n")
        fh.write(f"# model={cfg.model} backend={cfg.backend} workers={cfg.workers}\n")
        fh.write("lambda,theta_end_rad,crossing_count,end_flag,status\n")
        for row in table.rows:
            fh.write(",".join([
                _fmt(row.lam),
                _fmt(row.theta_end),
                str(row.crossing_count if row.crossing_count >= 0 else -1),
                str(row.end_flag).lower(),
                row.status,
            ]) + "\n")
    summary = {
        "model": cfg.model,
        "backend": cfg.backend,
        "lambda_grid": [float(v) for v in table.lambdas],
        "detected_eigenvalues": [
            {"lambda_lo": lo, "lambda_hi": hi, "jump": jump}
            for lo, hi, jump in table.detected_eigenvalues
        ],
        "skipped": [
            {"lambda": r.lam, "reason": r.reason} for r in table.rows if r.status == "skipped"
        ],
        "disagreements": [
            {"lambda": r.lam, "detail": r.reason} for r in table.rows if r.status == "disagree"
        ],
        "errors": [
            {"lambda": r.lam, "reason": r.reason} for r in table.rows if r.status == "error"
        ],
        "sign_convention": "u-eigenphase increasing through pi counts +1",
    }
    json_path = os.path.splitext(out_path)[0] + ".json"
    with _open_out(json_path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_detected = len(table.detected_eigenvalues)
    print(f"sweep written to {out_path} and {json_path}: {n_detected} eigenvalue "
          f"bracket(s), {sum(1 for r in table.rows if r.status == 'skipped')} skipped row(s)")
    n_errors = len(summary["errors"])
    if n_errors:
        print(f"{n_errors} row(s) failed numerically; reasons in {json_path}", file=sys.stderr)
    if table.has_disagreement():
        print("backend disagreement detected", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_NUMERICAL if n_errors else EXIT_OK


def cmd_refine(cfg: RunConfig) -> int:
    spec = cfg.require_model()
    if cfg.lambda_range is None:
        raise ConfigError("refine needs --lambda-range lo:hi as the bracket")
    backend = "unitary" if cfg.backend == "both" else cfg.backend
    lo, hi = cfg.lambda_range
    result = refine_eigenvalue(spec, lo, hi, cfg.x_grid(), tol_lambda=cfg.tol_lambda,
                               backend=backend, chart_tol=cfg.chart_tol)
    payload = {
        "lambda_star": result.lam_star,
        "bracket": [result.bracket_lo, result.bracket_hi],
        "count_lo": result.count_lo,
        "count_hi": result.count_hi,
    }
    if cfg.out:
        with _open_out(cfg.out) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"eigenvalue in ({_fmt(result.bracket_lo)}, {_fmt(result.bracket_hi)}]: "
          f"lambda* = {_fmt(result.lam_star)} "
          f"(count {result.count_lo} -> {result.count_hi})")
    return EXIT_OK


def cmd_selftest(cfg: RunConfig, corrupt: str | None) -> int:
    reports = run_selftest(chart_tol=cfg.chart_tol, corrupt=corrupt)
    for report in reports:
        print(report.line())
    if all(r.passed for r in reports):
        print("selftest: all properties passed")
        return EXIT_OK
    print("selftest: FAILURES PRESENT", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maslovflow",
        description="Maslov index computation via Riccati and unitary Lie-algebra flows")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", type=str, default=None,
                       help="model name: kdv7 or poschl_teller:m")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="single spectral parameter value")
        p.add_argument("--lambda-range", dest="lambda_range", type=str, default=None,
                       help="lambda interval 'lo:hi' (use --lambda-range=-a:b for negatives)")
        p.add_argument("--lambda-count", dest="lambda_count", type=int, default=None,
                       help="number of lambda grid points")
        p.add_argument("--lambda-step", dest="lambda_step", type=float, default=None,
                       help="lambda grid spacing (alternative to --lambda-count)")
        p.add_argument("--x-range", dest="x_range", type=str, default=None,
                       help="integration interval 'lo:hi' (default -20:20)")
        p.add_argument("--step", type=float, default=None,
                       help="x step size (default: span/4000)")
        p.add_argument("--backend", type=str, default=None, choices=BACKENDS,
                       help="integration backend (default both)")
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel workers for sweep rows (default 1)")
        p.add_argument("--init", type=str, default=None,
                       choices=("auto", "farfield", "identity"),
                       help="initial plane for trace (default auto)")
        p.add_argument("--chart-tol", dest="chart_tol", type=float, default=None,
                       help="singularity detection angle on the circle, in (0, pi) (default 1e-3)")
        p.add_argument("--tol-lambda", dest="tol_lambda", type=float, default=None,
                       help="bisection width for refine (default 1e-3)")
        p.add_argument("--config", type=str, default=None, help="JSON config file")

    for name, desc in (("trace", "integrate one lambda and dump per-sample data"),
                       ("sweep", "sweep lambda and locate eigenvalue brackets"),
                       ("refine", "bisect one crossing-count jump"),
                       ("selftest", "run the built-in invariant suite")):
        p = sub.add_parser(name, help=desc)
        add_common(p)
        if name == "selftest":
            p.add_argument("--corrupt", type=str, default=None,
                           choices=SELFTEST_PROPERTIES, metavar="PROPERTY",
                           help="test hook: set one property's bound to 0 to force its failure")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "trace":
            return cmd_trace(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "refine":
            return cmd_refine(cfg)
        if args.command == "selftest":
            return cmd_selftest(cfg, getattr(args, "corrupt", None))
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except BackendDisagreementError as exc:
        print(f"backend disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except MaslovError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
