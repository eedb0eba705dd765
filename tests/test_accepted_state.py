"""Counts and outputs of full runs, and the reuse of each accepted state.

A slice solve hands the Hessian and density of its final Newton iterate
to the path's tail (c and the slice residual) and, through the sweep, to
the ledger row of the sweep output; ``final_rho_max`` reads that row.
The shift of the Newton iterate to sup 0 changes its Hessian only by
rounding, so the psi outputs and all counts are those of a run that
rebuilds each state from psi, and the ledger columns agree with that
run's to the tolerance checked below.
"""

import sys

import numpy as np
import pytest

from coupled_ricci import functionals, iteration, monge_ampere, run
from coupled_ricci.config import build_run_config
from coupled_ricci.errors import NoConvergence
from coupled_ricci.scenarios import PRESETS, get_preset

_I_2D = [[1.0, 0.0], [0.0, 1.0]]
_A_2D = [[2.0, 0.5], [0.5, 1.0]]

# The benchmark workloads at seed 0, written out.
WORKLOADS = {
    "gs2d-n128": {
        "cri_config": 1, "lambda": -1, "n": 2, "N": 128, "k": 2,
        "A": [_I_2D, _A_2D], "f": "1 + 0.3*sin(2*pi*x_1)*cos(2*pi*x_2)",
    },
    "stiff1d-n64": {
        "cri_config": 1, "lambda": -1, "n": 1, "N": 64, "k": 2,
        "A": [1000.0, 1300.0], "f": "1 + 0.5*sin(2*pi*x_1)", "max_outer": 400,
    },
    # lambda = +1, class 1 starting outside the cone
    "pos2d-n48": {
        "cri_config": 1, "lambda": 1, "n": 2, "N": 48, "k": 2,
        "A": [[[15.0, 0.0], [0.0, 15.0]], [[30.0, 7.5], [7.5, 15.0]]],
        "f": "1 + 0.5*sin(2*pi*x_1)*cos(2*pi*x_2)",
        "init": [{"expr": "cos(2*pi*x_1)"}, {"expr": "0"}],
    },
}

# (sweeps, Newton steps, Krylov applications) at the default settings.
# pos-k2-steep ends in a ContinuityBreakdown; its counts measure how far
# it gets.
COUNTS = {
    "const-k2": (0, 0, 0),
    "jacobi-k2-sine": (4, 14, 60),
    "neg-k1-sine": (3, 5, 20),
    "neg-k2-2d": (3, 9, 21),
    "neg-k2-sine": (3, 11, 39),
    "neg-k2-sine-n8": (3, 11, 34),
    "neg-k2-stiff": (11, 23, 33),
    "pos-k2-mild": (3, 8, 15),
    "pos-k2-steep": (8, 68, 1382),
    "gs2d-n128": (3, 8, 19),
    "stiff1d-n64": (11, 23, 33),
    "pos2d-n48": (6, 25, 94),
}


def _config(name, **overrides):
    data = WORKLOADS[name] if name in WORKLOADS else get_preset(name)
    return build_run_config({**data, **overrides})


def _counted_run(monkeypatch, name, **overrides):
    """Run ``name`` with ``overrides`` of its config keys; returns (state,
    Newton steps, Krylov applications, tols)."""
    solve = iteration.solve_tke
    tally = {"newton": 0, "krylov": 0, "tols": []}

    def counting(*args, **kwargs):
        psi, report = solve(*args, **kwargs)
        tally["newton"] += report.newton_iterations
        tally["krylov"] += sum(report.krylov_iterations)
        tally["tols"].append(kwargs["tol_inner"])
        return psi, report

    monkeypatch.setattr(iteration, "solve_tke", counting)
    cfg = _config(name, **overrides)
    state = run(cfg.geometry(), cfg.iteration, init=cfg.init)
    monkeypatch.setattr(iteration, "solve_tke", solve)
    return state, tally["newton"], tally["krylov"], tally["tols"]


def test_the_table_covers_every_preset_and_workload():
    assert set(COUNTS) == set(PRESETS) | set(WORKLOADS)


def test_lambda_plus_one_start_outside_the_cone_keeps_its_sweeps(monkeypatch):
    state, newton, krylov, tols = _counted_run(monkeypatch, "pos2d-n48")
    assert state.converged and state.monotone_report.ok
    # rho_2 at the start is 1.392, so the first sweep solves to 1.39e-2
    # instead of tol_inner
    assert tols[0] == pytest.approx(1.3922e-2, rel=1e-4)
    assert state.step == 6
    assert newton <= 25
    assert krylov <= 94


@pytest.mark.parametrize("name", ["gs2d-n128", "pos2d-n48"])
def test_solver_counts_do_not_grow_with_the_grid(monkeypatch, name):
    # The FFT preconditioner inverts the stencil with grid-mean weights, so
    # its quality does not depend on h.  Sweeps / Newton / Krylov at N = 32
    # and 128: gs2d-n128 3 / 9 / 21 and 3 / 8 / 19, pos2d-n48 6 / 25 / 93
    # and 6 / 25 / 97.
    fine = _counted_run(monkeypatch, name, N=128)
    coarse = _counted_run(monkeypatch, name, N=32)
    for state, *_ in (fine, coarse):
        assert state.converged, state.reason
    assert coarse[0].step == fine[0].step
    assert abs(coarse[1] - fine[1]) <= 1
    assert abs(coarse[2] - fine[2]) <= 0.15 * fine[2]


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_no_krylov_solve_takes_half_the_step_cap(monkeypatch, name):
    # The longest solve takes 33 steps (pos-k2-steep); a step count that
    # grows shows here long before the cap turns it into NoConvergence.
    steps = [0]
    krylov_solve = monge_ampere._krylov_solve

    def recording(*args):
        result = krylov_solve(*args)
        steps.append(result[2])
        return result

    monkeypatch.setattr(monge_ampere, "_krylov_solve", recording)
    cfg = _config(name)
    run(cfg.geometry(), cfg.iteration, init=cfg.init)
    assert max(steps) <= monge_ampere._KRYLOV_STEPS // 2


# Ledger columns from the Newton state against those rebuilt from psi:
# |a - b| <= _LEDGER_RTOL * (1 + |b|), and for the eigenvalue-spread
# columns eqratio_i, whose rounding error grows with the spread itself,
# |a - b| <= _LEDGER_RTOL * b**2.
_LEDGER_RTOL = 1e-12


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_reused_states_keep_counts_and_outputs(monkeypatch, name):
    state, newton, krylov, _ = _counted_run(monkeypatch, name)
    assert (state.step, newton, krylov) == COUNTS[name]

    # the same run with every sweep output's state rebuilt from psi
    sweep = iteration.step_gauss_seidel
    monkeypatch.setattr(
        iteration, "step_gauss_seidel",
        lambda *args: (*sweep(*args)[:2], None),
    )
    rebuilt, newton_r, krylov_r, _ = _counted_run(monkeypatch, name)
    assert (rebuilt.step, newton_r, krylov_r) == COUNTS[name]
    assert rebuilt.reason == state.reason
    np.testing.assert_array_equal(state.psis, rebuilt.psis)
    assert len(state.ledger.rows) == len(rebuilt.ledger.rows)
    for row, ref in zip(state.ledger.rows, rebuilt.ledger.rows):
        for column, value in ref.items():
            if column == "wall_ms":
                continue
            bound = value**2 if column.startswith("eqratio_") else 1 + abs(value)
            assert abs(row[column] - value) <= _LEDGER_RTOL * bound, column
    assert (abs(state.final_rho_max - rebuilt.final_rho_max)
            <= _LEDGER_RTOL * (1 + rebuilt.final_rho_max))


def _callers(monkeypatch):
    """Record the function names on the stack of every Hessian build."""
    stacks = []
    for module in (monge_ampere, functionals):
        build = module.hessian

        def recording(grid, values, build=build):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            stacks.append(names)
            return build(grid, values)

        monkeypatch.setattr(module, "hessian", recording)
    return stacks


@pytest.mark.parametrize("name", ["neg-k2-2d", "pos-k2-mild", "pos2d-n48"])
def test_finalize_and_final_rho_max_build_no_hessian(monkeypatch, name):
    stacks = _callers(monkeypatch)
    cfg = _config(name)
    state = run(cfg.geometry(), cfg.iteration, init=cfg.init)
    assert state.converged
    assert state.final_rho_max <= cfg.iteration.tol_fixed_point
    assert stacks
    assert not [s for s in stacks if "final_rho_max" in s]
    # the path's tail reuses the density of the last Newton iterate
    assert not [
        s for s in stacks if "_follow_path" in s and "_damped_newton" not in s
    ]
    # the start-up builds one Hessian per class, which the step-0 row reuses
    startup = [s for s in stacks if "_start" in s]
    assert len(startup) == cfg.geom.k


def test_final_rho_max_is_nan_when_the_returned_tuple_has_no_row(monkeypatch):
    # a start with a class outside the cone whose first sweep fails is
    # returned as it is, with no ledger row and no defined residual
    def failing(*args, **kwargs):
        raise NoConvergence("injected")

    monkeypatch.setattr(iteration, "solve_tke", failing)
    cfg = _config("pos2d-n48")
    state = run(cfg.geometry(), cfg.iteration, init=cfg.init)
    assert state.reason == "inner_failure: NoConvergence: injected"
    assert not state.ledger.rows
    assert np.isnan(state.final_rho_max)
