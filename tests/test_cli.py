import csv
import json

import numpy as np
import pytest

from coupled_ricci.cli import _downsample_config, main
from coupled_ricci.config import build_run_config
from coupled_ricci.errors import ValidationError
from coupled_ricci.grid import read_field
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


def test_validate_rejects_nonpositive_density(tmp_path, capsys):
    cfg = get_preset("neg-k2-sine")
    cfg["f"] = "sin(2*pi*x_1)"
    path = tmp_path / "bad_f.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["validate", str(path)]) == 1
    assert "positive" in capsys.readouterr().err


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


def test_run_exit_three_on_inner_breakdown(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", "pos-k2-steep", "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reason"].startswith("inner_failure: ContinuityBreakdown")
    assert summary["converged"] is False
    # the final tuple may be outside the cone, giving an undefined residual
    assert summary["final_rho_max"] is None or summary["final_rho_max"] >= 0


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
    cfg.update(sweep_order="reverse", max_newton=3, record_every=5)
    fine = build_run_config(cfg)
    coarse = _downsample_config(fine)
    assert coarse.N == 8
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


def test_oracle_verb_rejects_indivisible_grid(tmp_path, capsys):
    cfg = get_preset("neg-k2-sine")
    cfg["N"] = 12
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["oracle", str(path)]) == 1
    assert "divisible" in capsys.readouterr().err


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
    np.testing.assert_allclose(expr_cfg.f, flat_cfg.f, rtol=1e-15)

    from coupled_ricci.grid import PeriodicGrid, write_field

    path = tmp_path / "f.field"
    write_field(path, PeriodicGrid(1, 8), np.array(values))
    file_cfg = build_run_config({**base, "f": {"file": str(path)}})
    np.testing.assert_array_equal(file_cfg.f, np.array(values))
