"""Tests of the benchmark itself: workloads, gate, tracing and output.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from coupled_ricci import cli, config, monge_ampere
from coupled_ricci.config import eval_field_expr
from coupled_ricci.grid import PeriodicGrid, read_field, write_field
from gate import check_run
from layers import layer_metrics
from tracer import TARGETS, Tracer
from workloads import WHY, WORKLOADS, make_config

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

A_2D = [[2.0, 0.5], [0.5, 1.0]]
I_2D = [[1.0, 0.0], [0.0, 1.0]]
EXPECTED = {
    "gs2d-n128": {
        "name": "gs2d-n128", "cri_config": 1, "lambda": -1, "n": 2, "N": 128,
        "k": 2, "A": [I_2D, A_2D],
        "f": "1 + 0.3*sin(2*pi*x_1)*cos(2*pi*x_2)",
    },
    "stiff1d-n64": {
        "name": "stiff1d-n64", "cri_config": 1, "lambda": -1, "n": 1, "N": 64,
        "k": 2, "A": [1000.0, 1300.0], "f": "1 + 0.5*sin(2*pi*x_1)",
        "max_outer": 400,
    },
    "pos2d-n48": {
        "name": "pos2d-n48", "cri_config": 1, "lambda": 1, "n": 2, "N": 48,
        "k": 2,
        "A": [[[15.0, 0.0], [0.0, 15.0]], [[30.0, 7.5], [7.5, 15.0]]],
        "f": "1 + 0.5*sin(2*pi*x_1)*cos(2*pi*x_2)",
        "init": [{"expr": "cos(2*pi*x_1)"}, {"expr": "0"}],
    },
}


def catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_default_seed_gives_the_documented_configs():
    for name, expected in EXPECTED.items():
        data, offsets = make_config(name, 0)
        assert data == expected
        assert offsets == (0,) * expected["n"]


def test_catalog_lists_every_workload_with_its_reason():
    entries = catalog()["workloads"]
    assert {e["name"]: e["why"] for e in entries} == WHY
    assert set(WHY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seeds_only_shift_phase(name):
    base, _ = make_config(name, 0)
    grid = PeriodicGrid(n=base["n"], N=base["N"])
    axes = tuple(range(base["n"]))
    moved = set()
    for seed in range(1, 7):
        data, offsets = make_config(name, seed)
        assert data == make_config(name, seed)[0]
        assert {k: v for k, v in data.items() if k not in ("f", "init")} == {
            k: v for k, v in base.items() if k not in ("f", "init")
        }
        back = [-m for m in offsets]
        pairs = [(data["f"], base["f"])] + [
            (a["expr"], b["expr"])
            for a, b in zip(data.get("init", []), base.get("init", []))
        ]
        for shifted, original in pairs:
            want = np.roll(eval_field_expr(original, grid), back, axis=axes)
            np.testing.assert_allclose(eval_field_expr(shifted, grid), want,
                                       rtol=0, atol=1e-12)
        moved.add(offsets)
    assert len(moved) > 1


@pytest.fixture
def small_run(tmp_path):
    """A converged Gauss-Seidel run and its potentials as the reference."""
    out = tmp_path / "out"
    assert cli.main(["run", "neg-k2-sine-n8", "--out", str(out)]) == 0
    psi = np.stack([read_field(out / f"psi_{i}.field")[1] for i in (1, 2)])
    return out, {"mode": "gauss_seidel"}, psi


def test_gate_accepts_a_correct_run(small_run):
    out, data, ref = small_run
    assert check_run(out, data, (0,), 0, ref) == []


def test_gate_accepts_a_shifted_run_against_the_rolled_reference(small_run):
    out, data, ref = small_run
    grid = PeriodicGrid(n=1, N=8)
    for i in (1, 2):
        write_field(out / f"psi_{i}.field", grid, np.roll(ref[i - 1], -3))
    assert check_run(out, data, (3,), 0, ref) == []
    assert check_run(out, data, (0,), 0, ref) != []


def test_gate_fires_on_a_perturbed_potential(small_run):
    out, data, ref = small_run
    grid = PeriodicGrid(n=1, N=8)
    write_field(out / "psi_2.field", grid, ref[1] + 1e-4)
    problems = check_run(out, data, (0,), 0, ref)
    assert len(problems) == 1 and problems[0].startswith("psi_2")


def test_gate_fires_on_a_non_converged_summary(small_run):
    out, data, ref = small_run
    summary = json.loads((out / "summary.json").read_text())
    summary.update(converged=False, reason="max_outer", final_rho_max=1e-3)
    (out / "summary.json").write_text(json.dumps(summary))
    problems = check_run(out, data, (0,), 2, ref)
    assert problems[0] == "exit code 2"
    assert any(p.startswith("not converged") for p in problems)
    assert any(p.startswith("final_rho_max") for p in problems)


def test_gate_fires_on_a_rising_ding_energy(small_run):
    out, data, ref = small_run
    lines = (out / "ledger.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("D")
    row = lines[-1].split(",")
    row[col] = repr(float(row[col]) + 1.0)
    lines[-1] = ",".join(row)
    (out / "ledger.csv").write_text("\n".join(lines) + "\n")
    problems = check_run(out, data, (0,), 0, ref)
    assert any(p.startswith("Ding energy rises") for p in problems)


def test_self_time_and_inclusive_time_from_spans():
    spans = [
        ["cli.main", 0.0, 10.0, None, None],
        ["iteration.run", 1.0, 9.0, 0, {"sweeps": 4}],
        ["grid.hessian", 2.0, 3.0, 1, None],
        ["monge_ampere.jacobian", 4.0, 8.0, 1, {"nnz": 7}],
        ["grid.hessian", 5.0, 6.0, 3, None],
    ]
    installed = ["iteration.run", "grid.hessian", "monge_ampere.jacobian"]
    got = layer_metrics({"spans": spans, "installed": installed, "missing": []})
    assert got["cli.self_s"] == pytest.approx(2.0)
    assert got["iteration.run_s"] == pytest.approx(8.0)
    assert got["iteration.sweeps"] == 4
    assert got["grid.hessian_calls"] == 2
    assert got["grid.hessian_s"] == pytest.approx(2.0)
    assert got["monge_ampere.jacobian_s"] == pytest.approx(3.0)
    assert got["monge_ampere.jacobian_nnz"] == 7
    assert got["monge_ampere.path_calls"] is None
    assert got["monge_ampere.linsolve_share"] is None


def test_missing_wrap_target_is_reported_not_fatal(monkeypatch, tmp_path):
    # Register every wrap target with monkeypatch so teardown restores the
    # unwrapped functions the tracer replaces.
    import importlib

    for module_name, path, _name, _attrs in TARGETS:
        owner = importlib.import_module(f"coupled_ricci.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.setattr(monge_ampere, "spsolve", monge_ampere.spsolve)
    monkeypatch.delattr(monge_ampere, "log_ma_linearization")
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == ["monge_ampere.log_ma_linearization"]
    assert not tracer.wrap(config, "no_such_function", "x")

    tracer.call("cli.main", lambda: None)
    got = layer_metrics({"spans": tracer.spans, "installed": tracer.installed,
                         "missing": tracer.missing})
    assert got["monge_ampere.jacobian_calls"] is None
    assert got["monge_ampere.jacobian_s"] is None
    assert got["monge_ampere.linsolve_calls"] == 0


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_are_the_catalogued_ones(trace, kind):
    proc = run_bench(ROOT, "--workload", "stiff1d-n64", "--seed", "5",
                     "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    names = [entry["name"] for entry in catalog()[kind]]
    assert list(result["metrics"]) == names
    for entry in catalog()[kind]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        assert f" {entry['name']} " in proc.stdout


def test_bench_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "stiff1d-n64", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
