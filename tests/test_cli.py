import csv
import dataclasses
import json
import logging
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from coupled_ricci import cli, monge_ampere
from coupled_ricci.cli import _downsample_config, main
from coupled_ricci.config import build_run_config, eval_field_expr
from coupled_ricci.errors import NoConvergence, ValidationError
from coupled_ricci.grid import PeriodicGrid, read_field, write_field
from coupled_ricci.scenarios import PRESETS, get_preset


def run_cli(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# listing and validation


def test_list_scenarios_names_every_preset(capsys):
    assert run_cli(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_validate_accepts_preset(capsys):
    assert run_cli(["validate", "neg-k2-sine"]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_every_violation(tmp_path, capsys):
    cfg = get_preset("neg-k2-sine")
    cfg["lambda"] = 7
    cfg["N"] = 13
    cfg["A"] = [-1.0, 1.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "lambda" in err
    assert "N" in err
    assert "A_1" in err


def test_validate_reports_a_null_density_next_to_a_bad_grid(tmp_path, capsys):
    cfg = {**_SMALL_1D, "N": 13, "f": None}
    path = tmp_path / "null_f.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "configuration invalid:\n"
        "  - N must be an even integer >= 4, got 13\n"
        "  - f is required\n"
    )


def test_validate_rejects_nonpositive_density(tmp_path, capsys):
    cfg = get_preset("neg-k2-sine")
    cfg["f"] = "sin(2*pi*x_1)"
    path = tmp_path / "bad_f.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(path)]) == 1
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize("terms", [1200, 5000])
def test_validate_rejects_a_too_deeply_nested_density(tmp_path, capsys, terms):
    # 1,200 terms exceed the recursion limit while evaluating the parsed
    # expression, 5,000 already while parsing it
    cfg = get_preset("neg-k2-sine")
    cfg["f"] = "1" + "+0" * terms
    cfg["lambda"] = 7
    path = tmp_path / "deep_f.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration invalid" in err
    assert f"expression of {2 * terms + 1} characters is too deeply nested" in err
    assert "lambda" in err


@pytest.mark.parametrize("name", [None, 7, ["a"]])
def test_config_name_must_be_a_string(tmp_path, capsys, name):
    # str() used to turn "name": null into the output directory cri-out-None
    cfg = get_preset("neg-k2-sine")
    cfg["name"] = name
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == [f"name must be a string, got {name!r}"]
    path = tmp_path / "named.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(path)]) == 1
    assert "name must be a string" in capsys.readouterr().err


_NON_FINITE_EXPRS = [
    "1/(x_1 - x_1)",
    "exp(1000*x_1)",
    pytest.param("1" + "0" * 400, id="integer-past-the-float-range"),
]


@pytest.mark.parametrize("expr", _NON_FINITE_EXPRS)
def test_non_finite_field_expression_is_a_violation_of_its_field(expr):
    # division by zero, overflow and an integer literal past the float range
    # reach the non-finite checks, not a RuntimeWarning or OverflowError out
    # of the expression evaluator
    for key, value, violation in (
        ("f", expr, "f evaluates to non-finite values"),
        ("init", ["0", expr], "init_2 has non-finite values"),
    ):
        cfg = get_preset("neg-k2-sine")
        cfg[key] = value
        with pytest.raises(ValidationError) as excinfo:
            build_run_config(cfg)
        assert excinfo.value.violations == [violation]


@pytest.mark.parametrize("expr", _NON_FINITE_EXPRS)
def test_validate_prints_only_the_violations_of_a_non_finite_field(
    tmp_path, capsys, expr
):
    cfg = get_preset("neg-k2-sine")
    cfg.update(f=expr, init=[expr, "0"])
    path = tmp_path / "inf_f.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["validate", str(path)]) == 1
    assert caught == []
    assert capsys.readouterr().err == (
        "configuration invalid:\n"
        "  - f evaluates to non-finite values\n"
        "  - init_1 has non-finite values\n"
    )


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_run_rejects_non_finite_tolerance(tmp_path, capsys, tol):
    out = tmp_path / "out"
    assert run_cli(["run", "neg-k1-sine", "--tol", tol, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration invalid" in err
    assert "tol_fixed_point must be a positive finite number" in err
    assert not out.exists()


def test_unknown_preset_exits_one(capsys):
    assert run_cli(["run", "no-such-preset"]) == 1
    err = capsys.readouterr().err
    assert "no-such-preset" in err


# ---------------------------------------------------------------------------
# run verb: outputs and exit codes


def test_run_writes_the_full_output_set(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", "neg-k2-sine", "--out", str(out)]) == 0
    for name in (
        "ledger.csv", "summary.json",
        "psi_1.field", "psi_2.field", "ding.dat", "residual.dat",
    ):
        assert (out / name).exists(), name
    assert not (out / "fields.json").exists()

    header = (out / "ledger.csv").read_text().splitlines()[0]
    assert header == (
        "step,AM_1,AM_2,I_1,I_2,J_1,J_2,L,D,J_total,"
        "rho_max_1,rho_max_2,osc_1,osc_2,eqratio_1,eqratio_2,"
        "inner_iters,wall_ms"
    )

    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == [
        "mode", "accel", "lambda", "n", "N", "k", "steps", "extrapolations",
        "converged", "reason", "final_D", "final_rho_max", "wall_ms",
    ]
    assert summary["accel"] == "anderson"
    assert set(summary["extrapolations"]) == {"accepted", "rejected"}
    assert summary["converged"] is True
    assert summary["reason"] == "converged"
    assert summary["lambda"] == -1
    assert summary["final_rho_max"] <= 1e-8

    assert (out / "ding.dat").read_text().splitlines()[0] == "# step D"
    assert (out / "residual.dat").read_text().splitlines()[0] == "# step rho_max"


def test_run_with_a_huge_class_volume_writes_finite_ledger_columns(tmp_path):
    cfg = {
        "cri_config": 1,
        "lambda": -1,
        "n": 2,
        "N": 8,
        "k": 1,
        "A": [[[1e150, 0.0], [0.0, 1e150]]],
        "f": "1 + 0.5*sin(2*pi*x_1)",
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 0
    with open(out / "ledger.csv", newline="") as fh:
        ratios = [float(row["eqratio_1"]) for row in csv.DictReader(fh)]
    assert ratios and np.isfinite(ratios).all()


def test_run_converges_where_the_coupling_weight_underflows(tmp_path, caplog):
    # sum psi = -1800 at the start, so exp(-lam * sum psi) is 0.0 in floats
    # everywhere while its log and the slice equations stay finite
    cfg = {
        **get_preset("neg-k2-stiff"), "N": 32, "A": [1e5, 1e5],
        "init": ["900*(cos(2*pi*x_1) - 1)", "900*(-cos(2*pi*x_1) - 1)"],
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="coupled_ricci.iteration"):
        assert run_cli(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert "Ding monotonicity violated" not in caplog.text


def test_run_exit_two_when_step_budget_runs_out(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["run", "neg-k2-sine", "--out", str(out), "--max-outer", "1",
         "--tol", "1e-14"]
    )
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"] == "max_outer"
    assert summary["converged"] is False


def test_run_exit_two_when_a_sweep_stalls(tmp_path):
    cfg = {**get_preset("neg-k2-sine"), "N": 16, "A": [1.0, 1.3]}
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out), "--tol", "1e-12"]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"].startswith("stalled")
    assert summary["converged"] is False
    assert summary["steps"] < 10


def test_run_exit_three_on_inner_breakdown(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", "pos-k2-steep", "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"].startswith("inner_failure: ContinuityBreakdown")
    assert summary["converged"] is False
    # the final tuple may be outside the cone, giving an undefined residual
    assert summary["final_rho_max"] is None or summary["final_rho_max"] >= 0


# Plain Jacobi, k = 3, A = s (1, 1.3, 0.8): near psi = 0 the sweep scales the
# lowest class-symmetric mode by about -(k - 1) / (1 + 4 pi^2 / s), so it
# contracts for s < 4 pi^2 / (k - 2), about 39.5, and expands above it
@pytest.mark.parametrize("s, steps", [
    (10, 20), (30, 114), (50, None), (100, None), (1e3, None), (1e4, None),
])
def test_plain_jacobi_past_the_contraction_limit_stops_as_diverging(
    tmp_path, s, steps
):
    cfg = {**get_preset("neg-k2-sine"), "N": 32, "k": 3,
           "A": [s, 1.3 * s, 0.8 * s], "mode": "jacobi", "accel": "none",
           "max_outer": 3000}
    path = tmp_path / "jacobi-k3.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = run_cli(["run", str(path), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    if steps is not None:
        assert code == 0
        assert summary["steps"] == steps
    else:
        assert code == 2
        assert summary["reason"].startswith("diverging: rho_max grew from ")
        assert summary["steps"] <= 4


def test_run_exit_three_when_no_damping_keeps_the_iterate_admissible(
    tmp_path, monkeypatch
):
    # every trial point of the line search is refused by the cone test
    monkeypatch.setattr(monge_ampere, "cone_state", lambda grid, A, psi: (None, None))
    out = tmp_path / "out"
    assert run_cli(["run", "neg-k2-sine", "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"] == (
        "inner_failure: NonAdmissibleStep: no damping factor keeps the "
        "Newton iterate admissible"
    )


# 1-d, k = 2, A = 1 problems whose exact slice solves from zero hit the
# rounding floor of the Newton residual in the first sweep
_FLOOR_PROBES = {
    "n512-steep-f": {**get_preset("neg-k2-sine"), "N": 512,
                     "f": "1 + 0.99*sin(2*pi*x_1)"},
    "n2048-tol-1e-13": {**get_preset("neg-k2-sine"), "N": 2048,
                        "tol_inner": 1e-13},
}


def _run_probe(tmp_path, name, **settings):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**_FLOOR_PROBES[name], **settings}))
    out = tmp_path / "out"
    code = run_cli(["run", str(path), "--out", str(out)])
    return code, json.loads((out / "summary.json").read_text()), out


@pytest.mark.parametrize("name", sorted(_FLOOR_PROBES))
def test_floor_probes_converge_with_inexact_sweeps(tmp_path, name):
    code, summary, out = _run_probe(tmp_path, name)
    assert code == 0
    assert summary["converged"] is True
    assert summary["steps"] == 3
    assert summary["final_rho_max"] <= 1e-8
    dvals = [float(line.split()[1])
             for line in (out / "ding.dat").read_text().splitlines()[1:]]
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(dvals, dvals[1:]))


@pytest.mark.parametrize("name", sorted(_FLOOR_PROBES))
def test_floor_probes_still_fail_the_exact_iteration(tmp_path, monkeypatch, name):
    newton_calls = []
    damped_newton = monge_ampere._damped_newton
    monkeypatch.setattr(
        monge_ampere, "_damped_newton",
        lambda *args, **kwargs: newton_calls.append(1)
        or damped_newton(*args, **kwargs),
    )
    code, summary, _ = _run_probe(tmp_path, name, accel="none")
    assert code == 3
    assert summary["reason"] == (
        "inner_failure: NoConvergence: Newton line search failed to reduce "
        "the residual"
    )
    # the zero warm start of the first sweep goes straight to the path
    assert len(newton_calls) == 1


def test_steep_floor_probe_solves_each_newton_system_in_one_cycle(
    tmp_path, monkeypatch
):
    # Its longest Newton system takes 57 GMRES steps; a solve past 50 steps
    # must still converge within the single cycle.
    solves = []
    krylov_solve = monge_ampere._krylov_solve

    def recording(*args):
        x, converged, steps = krylov_solve(*args)
        solves.append((converged, steps))
        return x, converged, steps

    monkeypatch.setattr(monge_ampere, "_krylov_solve", recording)
    code, summary, _ = _run_probe(tmp_path, "n512-steep-f")
    assert code == 0
    assert summary["converged"] is True
    assert all(converged for converged, _ in solves)
    assert 50 < max(steps for _, steps in solves) <= monge_ampere._KRYLOV_STEPS


def test_stiff_preset_needs_the_outer_acceleration(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "neg-k2-stiff", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["accel"] == "anderson"
    assert summary["extrapolations"]["accepted"] > 0
    dvals = [float(line.split()[1])
             for line in (out / "ding.dat").read_text().splitlines()[1:]]
    assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(dvals, dvals[1:]))

    cfg = get_preset("neg-k2-stiff")
    cfg["accel"] = "none"
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(cfg))
    plain = tmp_path / "plain"
    assert run_cli(["run", str(path), "--out", str(plain)]) == 2
    summary = json.loads((plain / "summary.json").read_text())
    assert summary["accel"] == "none"
    assert summary["extrapolations"] == {"accepted": 0, "rejected": 0}


def test_oracle_config_keeps_the_accel_key():
    cfg = get_preset("neg-k2-sine")
    cfg["accel"] = "none"
    assert _downsample_config(build_run_config(cfg)).iteration.accel == "none"


def test_oracle_config_keeps_every_iteration_setting():
    cfg = get_preset("neg-k2-sine")
    cfg.update(tol_inner=1e-9, max_outer=7)
    fine = build_run_config(cfg)
    coarse = _downsample_config(fine)
    assert coarse.geom.grid.N == 8
    assert coarse.iteration == fine.iteration


def test_run_accepts_json_config_path(tmp_path):
    cfg = {
        "cri_config": 1,
        "lambda": -1,
        "n": 1,
        "N": 16,
        "k": 2,
        "A": [1.0, 1.0],
        "f": "1 + 0.25*sin(2*pi*x_1)",
    }
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["N"] == 16
    assert summary["k"] == 2


def test_mode_flag_maps_gs_to_gauss_seidel(tmp_path):
    out_gs = tmp_path / "gs"
    out_ja = tmp_path / "ja"
    assert run_cli(["run", "neg-k2-sine-n8", "--out", str(out_gs),
                    "--mode", "gs"]) == 0
    assert run_cli(["run", "neg-k2-sine-n8", "--out", str(out_ja),
                    "--mode", "jacobi"]) == 0
    gs = json.loads((out_gs / "summary.json").read_text())
    ja = json.loads((out_ja / "summary.json").read_text())
    assert gs["mode"] == "gauss_seidel"
    assert ja["mode"] == "jacobi"
    # same fixed point either way
    _, psi_gs = read_field(out_gs / "psi_1.field")
    _, psi_ja = read_field(out_ja / "psi_1.field")
    assert np.abs(psi_gs - psi_ja).max() <= 1e-6


def test_repeat_runs_give_identical_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["run", "neg-k2-sine", "--out", str(out_a)]) == 0
    assert run_cli(["run", "neg-k2-sine", "--out", str(out_b)]) == 0
    for name in ("psi_1.field", "psi_2.field"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    with open(out_a / "ledger.csv") as fa, open(out_b / "ledger.csv") as fb:
        rows_a = list(csv.DictReader(fa))
        rows_b = list(csv.DictReader(fb))
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        for key in ra:
            if key == "wall_ms":
                continue
            assert ra[key] == rb[key], key


# ---------------------------------------------------------------------------
# oracle verb


def test_oracle_verb_reports_small_discrepancies(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["oracle", "neg-k2-sine", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 8
    assert max(report["psi_sup_err"]) <= 1e-8
    assert report["D_err"] <= 1e-10
    assert report["descent_D_err"] <= 1e-6
    assert report["descent_monotone"] is True
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report


def test_oracle_verb_two_dimensional(capsys):
    assert run_cli(["oracle", "neg-k2-2d"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 8
    assert max(report["psi_sup_err"]) <= 1e-8


def test_oracle_verb_shrinks_a_grid_of_twelve_to_six(tmp_path, capsys):
    cfg = get_preset("neg-k2-sine")
    cfg["N"] = 12
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["oracle", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["N"] == 6
    assert max(report["psi_sup_err"]) <= 1e-8


def test_oracle_verb_rejects_indivisible_grid(tmp_path, capsys):
    # 10 has no divisor among the coarse sizes 8, 6 and 4
    cfg = get_preset("neg-k2-sine")
    cfg["N"] = 10
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["oracle", str(path)]) == 1
    assert "divisible" in capsys.readouterr().err


def test_oracle_verb_reports_a_failed_reference_solve(monkeypatch, capsys):
    def fails(geom):
        raise NoConvergence("injected")

    monkeypatch.setattr(cli, "oracle_fixed_point", fails)
    assert run_cli(["oracle", "neg-k2-sine"]) == 3
    out = capsys.readouterr().out
    assert out == (
        "reference solver oracle_fixed_point failed on the coarse "
        "problem: injected\n"
    )


# ---------------------------------------------------------------------------
# files that are not UTF-8 text


def test_config_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    for verb in ("validate", "run"):
        assert run_cli([verb, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")


def test_init_field_file_that_is_not_utf8_is_a_violation(tmp_path, capsys):
    path = tmp_path / "bad.field"
    path.write_bytes(b"\xff\xfeCRI-FIELD v1 n=1 N=64\n")
    cfg = get_preset("neg-k2-sine")
    cfg["init"] = [{"file": str(path)}, "0"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert f"  - init_1: {path}: not UTF-8 text" in err


# ---------------------------------------------------------------------------
# config plumbing used by the CLI


def test_build_run_config_collects_all_violations():
    cfg = get_preset("neg-k2-sine")
    cfg["lambda"] = 0
    cfg["mode"] = "sor"
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert len(excinfo.value.violations) >= 2


def test_seed_key_is_unknown():
    cfg = get_preset("neg-k2-sine")
    cfg["seed"] = 3
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == ["unknown keys: seed"]


def test_removed_iteration_settings_are_unknown_keys():
    # psi is always in the sup gauge, the classes are swept in the order
    # given, every tuple gets its ledger row and the slice solves keep
    # their own Newton budget
    cfg = get_preset("neg-k2-sine")
    cfg.update(norm_mode="sup", sweep_order="forward")
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == ["unknown keys: norm_mode, sweep_order"]
    cfg = get_preset("neg-k2-sine")
    cfg.update(record_every=5, max_newton=3)
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == ["unknown keys: max_newton, record_every"]


@pytest.mark.parametrize("key", ["n", "k", "lambda", "cri_config"])
def test_build_run_config_rejects_booleans(key):
    # JSON true is a Python int equal to 1; it is no integer of the schema
    cfg = get_preset("neg-k2-sine")
    cfg[key] = True
    cfg["mode"] = "sor"
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    violations = excinfo.value.violations
    assert any(v.startswith(f"{key} must be") and "True" in v for v in violations)
    assert any(v.startswith("mode must be") for v in violations)


@pytest.mark.parametrize("key, value, message", [
    ("lambda", -1.0, "lambda must be -1 or 1, got -1.0"),
    ("cri_config", 1.0, "cri_config must be 1, got 1.0"),
])
def test_build_run_config_rejects_float_integers(key, value, message):
    cfg = get_preset("neg-k2-sine")
    cfg[key] = value
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == [message]


@pytest.mark.parametrize("value", ["fast", "Anderson", True, 1, None])
def test_build_run_config_rejects_unknown_accel(value):
    cfg = get_preset("neg-k2-sine")
    cfg["accel"] = value
    cfg["mode"] = "sor"
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == [
        "mode must be gauss_seidel or jacobi, got 'sor'",
        f"accel must be anderson or none, got {value!r}",
    ]


def test_build_run_config_rejects_non_finite_tolerances():
    cfg = get_preset("neg-k2-sine")
    cfg.update(json.loads('{"tol_inner": NaN, "tol_fixed_point": Infinity}'))
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == [
        "tol_fixed_point must be a positive finite number, got inf",
        "tol_inner must be a positive finite number, got nan",
    ]


@pytest.mark.parametrize("A, bad", [("[1e999, 1.0]", 1), ("[1.0, -1e999]", 2)])
def test_run_rejects_non_finite_class_matrix(tmp_path, capsys, A, bad):
    cfg = get_preset("neg-k2-sine")
    cfg["A"] = "A_ENTRIES"
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(cfg).replace('"A_ENTRIES"', A))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration invalid" in err
    assert f"A_{bad} has non-finite entries" in err
    assert not out.exists()


def test_build_run_config_rejects_non_finite_2d_class_matrix():
    cfg = get_preset("neg-k2-2d")
    cfg["A"] = json.loads("[[[1e999, 0], [0, 1]], [[1, 0], [0, 1]]]")
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == ["A_1 has non-finite entries"]


_NOT_NUMBERS = "must be a rectangular array of numbers"
_N = get_preset("neg-k2-sine")["N"]
_MALFORMED = {
    "f-string-entry": ("f", ["a"] + [1.0] * (_N - 1), f"f: {_NOT_NUMBERS}"),
    "f-dict-entry": ("f", [{}] + [1.0] * (_N - 1), f"f: {_NOT_NUMBERS}"),
    "f-ragged": ("f", [[1.0, 2.0], [1.0]], f"f: {_NOT_NUMBERS}"),
    "f-expr-number": ("f", {"expr": 5}, "f: expr must be a string, got 5"),
    # open() would read standard input for the file descriptor 0
    "f-file-descriptor": ("f", {"file": 0}, "f: file must be a string, got 0"),
    "init-string-entry": (
        "init", [["a"] + [0.0] * (_N - 1), [0.0] * _N], f"init_1: {_NOT_NUMBERS}"
    ),
    "A-dict-entry": ("A", [{"a": 1}, 1.0], f"A_1: {_NOT_NUMBERS}"),
    "A-bool-entry": ("A", [True, 1.0], f"A_1: {_NOT_NUMBERS}"),
    # numpy reads a boolean mixed with numbers as 0.0 or 1.0
    "f-bool-among-numbers": ("f", [True] + [1.0] * (_N - 1), f"f: {_NOT_NUMBERS}"),
    "init-bool-among-numbers": (
        "init", [[0.0] * _N, [0.0] * (_N - 1) + [False]], f"init_2: {_NOT_NUMBERS}"
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_entries_are_collected(case):
    key, value, message = _MALFORMED[case]
    cfg = get_preset("neg-k2-sine")
    cfg[key] = value
    cfg["mode"] = "sor"
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == [
        message, "mode must be gauss_seidel or jacobi, got 'sor'",
    ]


def test_boolean_in_a_two_dim_class_matrix_is_rejected():
    # [[1, 0], [0, true]] would otherwise be read as the identity
    cfg = get_preset("neg-k2-2d")
    cfg["A"][0] = [[1.0, 0.0], [0.0, True]]
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    assert excinfo.value.violations == [f"A_1: {_NOT_NUMBERS}"]


def test_field_entry_forms(tmp_path):
    base = {
        "cri_config": 1,
        "lambda": -1,
        "n": 1,
        "N": 8,
        "k": 1,
        "A": [1.0],
    }
    x = np.arange(8) / 8.0
    values = (1 + 0.25 * np.sin(2 * np.pi * x)).tolist()

    expr_cfg = build_run_config({**base, "f": {"expr": "1 + 0.25*sin(2*pi*x_1)"}})
    flat_cfg = build_run_config({**base, "f": values})
    np.testing.assert_allclose(expr_cfg.geom.f, flat_cfg.geom.f, rtol=1e-15)

    path = tmp_path / "f.field"
    write_field(path, PeriodicGrid(1, 8), np.array(values))
    file_cfg = build_run_config({**base, "f": {"file": str(path)}})
    np.testing.assert_array_equal(file_cfg.geom.f, np.array(values))


def test_init_entries_accept_expression_strings():
    cfg = get_preset("neg-k2-sine")
    cfg["init"] = ["0.001*cos(2*pi*x_1)", "0"]
    built = build_run_config(cfg)
    cfg["init"] = [{"expr": "0.001*cos(2*pi*x_1)"}, {"expr": "0"}]
    np.testing.assert_array_equal(built.init, build_run_config(cfg).init)
    assert built.init[0].max() == pytest.approx(0.001, rel=1e-12)
    assert built.f_spec == cfg["f"]
    cfg["f"] = {"expr": cfg["f"]}
    assert build_run_config(cfg).f_spec == built.f_spec
    cfg["init"] = ["cos(", "x_3"]
    with pytest.raises(ValidationError) as excinfo:
        build_run_config(cfg)
    [first, second] = excinfo.value.violations
    assert first.startswith("init_1: expression 'cos('")
    assert second == "init_2: expression 'x_3': unknown name 'x_3'"


_SMALL_1D = {"cri_config": 1, "lambda": -1, "n": 1, "N": 8, "k": 1, "A": [1.0], "f": "1"}


def test_run_config_holds_the_geometry_it_validated():
    cfg = build_run_config(get_preset("neg-k2-sine"))
    assert [field.name for field in dataclasses.fields(cfg)] == [
        "name", "geom", "f_spec", "init", "iteration", "out",
    ]
    assert cfg.geometry() is cfg.geometry()
    assert cfg.geometry() is cfg.geom


@pytest.mark.parametrize("spelling", ["bare", "dict"])
def test_both_expression_spellings_validate_and_shrink_alike(
    tmp_path, capsys, spelling
):
    expr = "1 + 0.5*sin(2*pi*x_1)"
    f = expr if spelling == "bare" else {"expr": expr}
    data = {**_SMALL_1D, "N": 48, "f": f}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"OK: lambda=-1 n=1 N=48 k=1 mode=gauss_seidel f={expr!r}\n"
    )
    coarse = _downsample_config(build_run_config(data)).geom
    assert coarse.grid.N == 8
    np.testing.assert_array_equal(
        coarse.f, eval_field_expr(expr, PeriodicGrid(1, 8))
    )


# ---------------------------------------------------------------------------
# config defects one at a time

_ABSENT = object()
_INVALID = "configuration invalid:\n  - {}\n"
_REJECTED = {
    "bad-literal": ({"f": "'a'"}, "f: expression \"'a'\": bad literal 'a'"),
    "unknown-function": (
        {"f": "sqrt(x_1)"},
        "f: expression 'sqrt(x_1)': only sin/cos/exp of one argument",
    ),
    "unsupported-syntax": (
        {"f": "x_1**2"},
        "f: expression 'x_1**2': unsupported syntax "
        "BinOp(Name('x_1', Load()), Pow(), Constant(2))",
    ),
    "2d-class-matrix-as-number": (
        {"n": 2, "A": [2.0]}, "A_1: expected a 2x2 row-major matrix, got shape ()"
    ),
    "non-symmetric-class-matrix": (
        {"n": 2, "A": [[[1.0, 0.5], [0.0, 1.0]]]}, "A_1 is not symmetric"
    ),
    "class-volume-overflows": (
        {"n": 2, "A": [[[1e200, 0.0], [0.0, 1e200]]]},
        "A_1 has class volume det = inf, not a positive finite float",
    ),
    "class-volume-underflows": (
        {"n": 2, "A": [[[1e-200, 0.0], [0.0, 1e-200]]]},
        "A_1 has class volume det = 0, not a positive finite float",
    ),
    "expr-and-file": (
        {"f": {"expr": "1", "file": "n1-N16.field"}},
        "f: dict form must be {'expr': ...} or {'file': ...}",
    ),
    "file-of-another-grid": (
        {"f": {"file": "n1-N16.field"}},
        "f: field file grid n=1 N=16 does not match config n=1 N=8",
    ),
    "flat-f-of-wrong-length": (
        {"f": [1.0] * 7}, "f: flat array must have 8 values, got 7"
    ),
    "number-as-field": ({"f": 1.5}, "f: unsupported field specification float"),
    "A-with-k-plus-one-entries": (
        {"A": [1.0, 1.0]}, "A must be a list of 1 class matrices"
    ),
    "no-f": ({"f": _ABSENT}, "f is required"),
    "init-neither-zero-nor-list": (
        {"init": "ones"}, 'init must be "zero" or a list of 1 fields'
    ),
    "out-not-a-string": ({"out": 3}, "out must be a string path, got 3"),
}
_UNREADABLE = {
    "invalid-json": (
        '{"n": }',
        "error: {path}: invalid JSON: Expecting value: line 1 column 7 (char 6)\n",
    ),
    "top-level-array": ("[1]", "error: {path}: top level must be a JSON object\n"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED) + sorted(_UNREADABLE))
def test_each_config_defect_is_reported_alone(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    write_field("n1-N16.field", PeriodicGrid(1, 16), np.ones(16))
    path = tmp_path / "cfg.json"
    if case in _UNREADABLE:
        text, expected = _UNREADABLE[case]
        path.write_text(text)
        expected = expected.format(path=path)
    else:
        change, violation = _REJECTED[case]
        data = {**_SMALL_1D, **change}
        data = {key: value for key, value in data.items() if value is not _ABSENT}
        path.write_text(json.dumps(data))
        expected = _INVALID.format(violation)
    assert run_cli(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)


def test_unary_signs_evaluate():
    grid = PeriodicGrid(1, 8)
    x = grid.coords()[0]
    np.testing.assert_array_equal(eval_field_expr("2 - -x_1", grid), 2.0 + x)
    np.testing.assert_array_equal(eval_field_expr("+1", grid), np.ones(8))


def test_unknown_preset_name_is_a_key_error():
    with pytest.raises(KeyError, match="no preset named 'nope'"):
        get_preset("nope")


# ---------------------------------------------------------------------------
# oracle verb branches


@pytest.mark.parametrize("reason, code", [
    ("max_outer", 2),
    ("inner_failure: NoConvergence: injected", 3),
])
def test_oracle_verb_reports_an_engine_failure_on_the_coarse_problem(
    monkeypatch, capsys, reason, code
):
    # the exit code reads the error that ended the run, not the reason text
    error = NoConvergence("injected") if code == 3 else None
    monkeypatch.setattr(
        cli, "run",
        lambda geom, config: SimpleNamespace(
            converged=False, reason=reason, error=error
        ),
    )
    assert run_cli(["oracle", "neg-k2-sine"]) == code
    assert capsys.readouterr().out == (
        f"engine did not converge on the coarse problem: {reason}\n"
    )


def test_oracle_verb_samples_a_flat_density_like_its_expression(tmp_path, capsys):
    cfg = get_preset("neg-k2-sine")
    cfg["N"] = 16
    reports = []
    for f in (cfg["f"], eval_field_expr(cfg["f"], PeriodicGrid(1, 16)).tolist()):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "f": f}))
        assert run_cli(["oracle", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["N"] == 8
