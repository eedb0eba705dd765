"""Command line interface.

Verbs: run, validate, oracle, list-scenarios.  Exit codes: 0 success,
1 configuration error, 2 a run stopped unconverged without an error (the
outer budget spent, a stall or a divergence), 3 an error ended the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .config import RunConfig, build_run_config, eval_field_expr, load_config_file
from .errors import NoConvergence, OracleIntractable, ParseError, ValidationError
from .functionals import _row_residual, ding
from .grid import PeriodicGrid, write_field
from .iteration import run
from .oracle import oracle_ding_descent, oracle_fixed_point
from .scenarios import DESCRIPTIONS, PRESETS, get_preset, preset_names

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STOPPED = 2
EXIT_ERROR = 3


def _resolve_config(ref: str, overrides: dict | None = None) -> RunConfig:
    """Load a preset by name or a JSON config by path, then apply overrides."""
    if ref in PRESETS:
        data = get_preset(ref)
        name = ref
    else:
        if not os.path.exists(ref):
            raise ParseError(
                f"{ref!r} is neither a preset name nor an existing config "
                f"file (presets: {', '.join(preset_names())})"
            )
        data = load_config_file(ref)
        name = os.path.splitext(os.path.basename(ref))[0]
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    return build_run_config(data, name=name)


def _summary_value(value):
    value = float(value)
    return value if np.isfinite(value) else None


def _write_run_outputs(out_dir, state) -> None:
    geom = state.geom
    os.makedirs(out_dir, exist_ok=True)
    state.ledger.to_csv(os.path.join(out_dir, "ledger.csv"))

    rows = state.ledger.rows
    final_d = rows[-1]["D"] if rows else float("nan")
    summary = {
        "mode": state.config.mode,
        "accel": state.config.accel,
        "lambda": geom.lam,
        "n": geom.grid.n,
        "N": geom.grid.N,
        "k": geom.k,
        "steps": state.step,
        "extrapolations": {
            "accepted": state.extrapolations_accepted,
            "rejected": state.extrapolations_rejected,
        },
        "converged": bool(state.converged),
        "reason": state.reason,
        "final_D": _summary_value(final_d),
        "final_rho_max": _summary_value(state.final_rho_max),
        "wall_ms": round(state.wall_ms, 3),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    for i in range(geom.k):
        write_field(
            os.path.join(out_dir, f"psi_{i + 1}.field"), geom.grid, state.psis[i]
        )

    with open(os.path.join(out_dir, "ding.dat"), "w") as fh:
        fh.write("# step D\n")
        for row in rows:
            fh.write("%d %.17g\n" % (row["step"], row["D"]))
    with open(os.path.join(out_dir, "residual.dat"), "w") as fh:
        fh.write("# step rho_max\n")
        for row in rows:
            fh.write("%d %.17g\n" % (row["step"], _row_residual(row)))


def cmd_run(args) -> int:
    overrides = {
        "out": args.out,
        "max_outer": args.max_outer,
        "tol_fixed_point": args.tol,
    }
    if args.mode is not None:
        overrides["mode"] = {"gs": "gauss_seidel", "jacobi": "jacobi"}[args.mode]
    cfg = _resolve_config(args.config, overrides)
    state = run(cfg.geom, cfg.iteration, init=cfg.init)
    out_dir = cfg.out or f"cri-out-{cfg.name}"
    _write_run_outputs(out_dir, state)
    print(
        f"{cfg.name}: {state.reason} after {state.step} steps "
        f"(outputs in {out_dir})"
    )
    return _exit_code(state)


def _exit_code(state) -> int:
    """0 converged; 3 when an error ended the run; 2 for every other stop."""
    if state.converged:
        return EXIT_OK
    return EXIT_STOPPED if state.error is None else EXIT_ERROR


def cmd_validate(args) -> int:
    cfg = _resolve_config(args.config)
    geom = cfg.geom
    print(
        f"OK: lambda={geom.lam} n={geom.grid.n} N={geom.grid.N} k={geom.k} "
        f"mode={cfg.iteration.mode} f={cfg.f_spec!r}"
    )
    return EXIT_OK


def _downsample_config(cfg: RunConfig) -> RunConfig:
    """Shrink a config onto a coarse grid the dense reference can handle.

    The coarse size is the largest of 8, 6 and 4 that divides N; at most 8
    per axis keeps even 2-d problems at the dense limit of 64 points.  A
    density expression is evaluated again on the coarse grid, density data
    is sampled at the stride, and every iteration setting carries over.
    """
    grid = cfg.geom.grid
    coarse_n = next((size for size in (8, 6, 4) if grid.N % size == 0), None)
    if coarse_n is None:
        raise OracleIntractable(
            f"grid N={grid.N} is not divisible by a coarse size 8, 6 or 4"
        )
    coarse = PeriodicGrid(n=grid.n, N=coarse_n)
    if cfg.f_spec != "<data>":
        f = eval_field_expr(cfg.f_spec, coarse)
    else:
        f = cfg.geom.f[(slice(None, None, grid.N // coarse_n),) * grid.n].copy()
    geom = dataclasses.replace(cfg.geom, grid=coarse, f=f)
    return dataclasses.replace(cfg, name=cfg.name + "-coarse", geom=geom, init=None)


def compare_oracle(geom, engine_psis, oracle_psis, oracle_d) -> dict:
    """Sup-norm discrepancies after matching the sup normalization."""
    errs = []
    for i in range(geom.k):
        a = engine_psis[i] - engine_psis[i].max()
        b = oracle_psis[i] - oracle_psis[i].max()
        errs.append(float(np.abs(a - b).max()))
    d_err = abs(ding(geom, engine_psis) - oracle_d)
    return {"psi_sup_err": errs, "D_err": float(d_err)}


def cmd_oracle(args) -> int:
    cfg = _resolve_config(args.config)
    coarse = _downsample_config(cfg)
    geom = coarse.geom
    state = run(geom, coarse.iteration)
    if not state.converged:
        print(f"engine did not converge on the coarse problem: {state.reason}")
        return _exit_code(state)
    solver = "oracle_fixed_point"
    try:
        psis_ref, _cs, d_ref, newton_iters = oracle_fixed_point(geom)
        solver = "oracle_ding_descent"
        _psis_desc, d_desc, trace, descent_iters = oracle_ding_descent(geom)
    except NoConvergence as exc:
        print(f"reference solver {solver} failed on the coarse problem: {exc}")
        return EXIT_ERROR
    report = compare_oracle(geom, state.psis, psis_ref, d_ref)
    report["N"] = geom.grid.N
    report["oracle_newton_iterations"] = newton_iters
    report["descent_D_err"] = float(abs(d_desc - d_ref))
    report["descent_iterations"] = descent_iters
    report["descent_monotone"] = bool(
        all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def cmd_list_scenarios(_args) -> int:
    width = max(len(name) for name in preset_names())
    for name in preset_names():
        print(f"{name:<{width}}  {DESCRIPTIONS.get(name, '')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cri",
        description="Coupled Ricci iteration on the discrete torus.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a scenario or config file")
    p_run.add_argument("config", help="preset name or path to a JSON config")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--max-outer", type=int, dest="max_outer",
                       help="override the outer iteration budget")
    p_run.add_argument("--mode", choices=["gs", "jacobi"],
                       help="override the sweep mode")
    p_run.add_argument("--tol", type=float,
                       help="override the fixed-point tolerance")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and exit")
    p_val.add_argument("config", help="preset name or path to a JSON config")
    p_val.set_defaults(func=cmd_validate)

    p_orc = sub.add_parser(
        "oracle", help="cross-check the engine against the dense reference"
    )
    p_orc.add_argument("config", help="preset name or path to a JSON config")
    p_orc.add_argument("--out", help="directory for report.json")
    p_orc.set_defaults(func=cmd_oracle)

    p_ls = sub.add_parser("list-scenarios", help="list built-in presets")
    p_ls.set_defaults(func=cmd_list_scenarios)
    return parser


# Built once, at import: the first build imports locale (argparse's
# gettext), so that main itself imports nothing.
_PARSER = build_parser()


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print("configuration invalid:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OracleIntractable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
