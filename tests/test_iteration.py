import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_ricci import functionals
from coupled_ricci import (
    BackgroundGeometry,
    EnergyLedger,
    IterationConfig,
    PeriodicGrid,
    check_monotone,
    hessian,
    run,
    step_gauss_seidel,
)
from coupled_ricci.config import build_run_config
from coupled_ricci.errors import ValidationError
from coupled_ricci.iteration import (
    ANDERSON_DEPTH,
    IterationState,
    _accelerate,
    _Anderson,
)
from coupled_ricci.scenarios import get_preset


def sine_geom(N=32, k=2, lam=-1, amp=0.5, a=1.0):
    grid = PeriodicGrid(1, N)
    x = grid.coords()[0]
    f = 1 + amp * np.sin(2 * np.pi * x)
    A = np.full((k, 1, 1), float(a))
    return BackgroundGeometry(grid=grid, lam=lam, A=A, f=f)


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "sor"},
        {"accel": "fast"},
        {"accel": True},
        {"norm_mode": "l2"},
        {"sweep_order": "shuffled"},
        {"max_outer": 0},
        {"record_every": 0},
        {"tol_inner": -1.0},
        {"tol_fixed_point": 0.0},
        {"max_newton": 0},
        {"max_newton": -1},
        {"tol_inner": float("inf")},
        {"tol_inner": float("nan")},
        {"tol_fixed_point": float("inf")},
        {"tol_fixed_point": float("nan")},
        {"max_outer": 2.5},
        {"max_outer": True},
        {"record_every": 1.5},
        {"max_newton": 2.5},
        {"tol_inner": True},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        IterationConfig(**kwargs)


def test_config_reports_every_violation_at_once():
    with pytest.raises(ValidationError) as excinfo:
        IterationConfig(mode="sor", accel="fast")
    assert excinfo.value.violations == [
        "mode must be gauss_seidel or jacobi, got 'sor'",
        "accel must be anderson or none, got 'fast'",
    ]


def test_config_accepts_numpy_scalars():
    config = IterationConfig(
        max_outer=np.int64(5), tol_inner=np.float64(1e-9),
        tol_fixed_point=np.float32(0.5), record_every=np.uint8(2),
    )
    assert config == IterationConfig(
        max_outer=5, tol_inner=1e-9, tol_fixed_point=0.5, record_every=2
    )
    assert type(config.max_outer) is int
    assert type(config.tol_inner) is float


def test_run_rejects_bad_init_shape():
    geom = sine_geom(N=8)
    with pytest.raises(ValueError, match="shape"):
        run(geom, init=np.zeros((3,) + geom.grid.shape))


def test_run_rejects_non_finite_init():
    geom = sine_geom(N=8)
    init = np.zeros((2,) + geom.grid.shape)
    init[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run(geom, init=init)


# ---------------------------------------------------------------------------
# trivial and generic runs


def test_constant_data_converges_at_step_zero():
    grid = PeriodicGrid(1, 8)
    geom = BackgroundGeometry(
        grid=grid, lam=-1, A=np.ones((2, 1, 1)), f=np.full(grid.shape, 3.0)
    )
    state = run(geom)
    assert state.converged
    assert state.step == 0
    assert len(state.ledger.rows) == 1
    np.testing.assert_allclose(state.psis, 0.0, atol=1e-12)


def test_sine_problem_converges_and_descends():
    state = run(sine_geom())
    assert state.converged
    assert state.reason == "converged"
    assert state.final_rho_max <= 1e-8
    assert state.monotone_report is not None
    assert state.monotone_report.ok
    assert not state.monotone_report.stagnation_steps
    # D decreases from the zero tuple
    d = state.ledger.column("D")
    assert d[-1] <= d[0]


def test_two_dim_problem_at_n256_converges():
    # the gs2d-n128 benchmark problem on a finer grid: with the constant
    # of the slice inside the Newton iterate, the first sweep failed at
    # the rounding floor of the h^-2 stencils
    A = [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]]
    cfg = build_run_config({
        "cri_config": 1, "lambda": -1, "n": 2, "N": 256, "k": 2, "A": A,
        "f": "1 + 0.3*sin(2*pi*x_1)*cos(2*pi*x_2)",
    })
    state = run(cfg.geometry(), cfg.iteration)
    assert state.converged
    assert state.step == 3
    assert state.monotone_report.ok


def test_non_admissible_init_accepted(caplog):
    geom = sine_geom(N=64, a=1.0)
    x = geom.grid.coords()[0]
    init = np.stack([0.1 * np.cos(2 * np.pi * x)] * 2)
    with caplog.at_level(logging.WARNING, logger="coupled_ricci.iteration"):
        state = run(geom, init=init)
    assert state.converged
    assert any("positivity" in rec.message for rec in caplog.records)
    # no step-0 row: energies are undefined outside the cone
    assert state.ledger.column("step")[0] == 1
    # the limit is the same as from the zero start
    ref = run(geom)
    assert np.abs(state.psis - ref.psis).max() <= 1e-6


def test_single_class_fixed_point_in_one_step():
    # k = 1 has no coupling, so the first sweep already solves the
    # equation and the second sweep must not move
    geom = sine_geom(k=1)
    config = IterationConfig()
    psis1, _ = step_gauss_seidel(geom, np.zeros((1,) + geom.grid.shape), config)
    psis2, _ = step_gauss_seidel(geom, psis1, config)
    assert np.abs(psis2 - psis1).max() <= 1e-10


def test_sweep_order_changes_path_not_limit():
    grid = PeriodicGrid(1, 32)
    x = grid.coords()[0]
    A = np.array([[[1.0]], [[2.0]]])
    geom = BackgroundGeometry(
        grid=grid, lam=-1, A=A, f=1 + 0.5 * np.sin(2 * np.pi * x)
    )
    fwd = run(geom, IterationConfig(sweep_order="forward"))
    rev = run(geom, IterationConfig(sweep_order="reverse"))
    assert fwd.converged and rev.converged
    assert np.abs(fwd.psis - rev.psis).max() <= 1e-6


def test_jacobi_converges_with_complete_ledger():
    geom = sine_geom()
    state = run(geom, IterationConfig(mode="jacobi"))
    assert state.converged
    assert state.monotone_report is None
    steps = state.ledger.column("step")
    np.testing.assert_array_equal(steps, np.arange(state.step + 1))
    for name in state.ledger.columns:
        col = state.ledger.column(name)
        assert np.all(np.isfinite(col)), name


def test_jacobi_and_gauss_seidel_share_the_limit():
    geom = sine_geom()
    gs = run(geom)
    ja = run(geom, IterationConfig(mode="jacobi"))
    assert np.abs(gs.psis - ja.psis).max() <= 1e-6


def test_record_every_thins_the_ledger():
    geom = sine_geom(N=64, a=1000.0)
    geom.A[1] = 1300.0
    state = run(geom, IterationConfig(record_every=2))
    steps = list(state.ledger.column("step"))
    assert steps[0] == 0
    assert steps[-1] == state.step
    interior = steps[1:-1]
    assert all(s % 2 == 0 for s in interior)
    # record_every only thins the rows: the run itself is unchanged
    full = run(geom)
    assert state.step == full.step
    assert np.array_equal(state.psis, full.psis)
    rows = {row["step"]: row for row in full.ledger.rows}
    for row in state.ledger.rows:
        assert {**row, "wall_ms": 0.0} == {**rows[row["step"]], "wall_ms": 0.0}


def test_run_builds_one_hessian_per_class_and_evaluated_tuple(monkeypatch):
    built = []
    monkeypatch.setattr(
        functionals, "hessian",
        lambda grid, psi: built.append(1) or hessian(grid, psi),
    )
    cfg = build_run_config(get_preset("neg-k2-stiff"))
    state = run(cfg.geometry(), cfg.iteration)
    assert state.converged
    candidates = state.extrapolations_accepted + state.extrapolations_rejected
    assert candidates > 0
    # the step-0 tuple, each sweep output and each Anderson candidate
    assert len(built) == cfg.k * (1 + state.step + candidates)


def test_max_outer_reports_without_error():
    geom = sine_geom()
    state = run(geom, IterationConfig(max_outer=1, tol_fixed_point=1e-14))
    assert not state.converged
    assert state.reason == "max_outer"
    assert state.error is None
    assert state.step == 1


# ---------------------------------------------------------------------------
# outer acceleration


def test_plain_iteration_is_repeated_sweeps():
    geom = sine_geom()
    config = IterationConfig(accel="none")
    state = run(geom, config)
    assert state.converged
    assert state.extrapolations_accepted == state.extrapolations_rejected == 0
    psis = np.zeros((2,) + geom.grid.shape)
    for _ in range(state.step):
        psis, _ = step_gauss_seidel(geom, psis, config)
    assert np.array_equal(state.psis, psis)


def test_anderson_solves_an_affine_map_in_dimension_plus_one_steps():
    # Type-II Anderson with depth >= dim reproduces GMRES on an affine
    # map, so the extrapolation after dim + 1 outputs is the fixed point.
    rng = np.random.default_rng(0)
    dim = ANDERSON_DEPTH
    mat = 0.5 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    vec = rng.standard_normal(dim)
    fixed = np.linalg.solve(np.eye(dim) - mat, vec)
    history = _Anderson()
    x = np.zeros(dim)
    assert history.extrapolate() is None
    for _ in range(dim + 1):
        gx = mat @ x + vec
        history.push(x, gx)
        x = history.extrapolate() if len(history.residuals) > 1 else gx
    np.testing.assert_allclose(x, fixed, rtol=0, atol=1e-8)
    history.restart()
    assert len(history.residuals) == len(history.outputs) == 1


def test_safeguard_takes_only_candidates_that_descend(monkeypatch):
    geom = sine_geom()
    fixed = run(geom).psis
    bump = 0.01 * np.cos(2 * np.pi * geom.grid.coords()[0])
    ledger = EnergyLedger(geom.k)
    state = IterationState(
        geom=geom, config=IterationConfig(), psis=fixed, ledger=ledger
    )
    fixed_terms = ledger.evaluate(geom, fixed)
    history = _Anderson()
    history.push(np.zeros_like(fixed), fixed)

    # D is smallest at the fixed point, so a bumped candidate is refused
    # and the history restarts from the newest pair
    monkeypatch.setattr(history, "extrapolate", lambda: fixed + bump)
    taken, terms = _accelerate(state, history, fixed, fixed, fixed_terms)
    assert taken is fixed and terms is fixed_terms
    assert len(history.residuals) == len(history.outputs) == 1
    # a candidate below the sweep output is taken, shifted into the gauge,
    # and comes with the terms of the tuple taken
    monkeypatch.setattr(history, "extrapolate", lambda: fixed + 0.3)
    swept = fixed + bump
    taken, terms = _accelerate(
        state, history, fixed, swept, ledger.evaluate(geom, swept)
    )
    np.testing.assert_allclose(taken, fixed, rtol=0, atol=1e-15)
    assert terms == ledger.evaluate(geom, taken)
    # a candidate outside the cone is refused
    monkeypatch.setattr(history, "extrapolate", lambda: fixed + 10 * bump)
    taken, terms = _accelerate(state, history, fixed, fixed, fixed_terms)
    assert taken is fixed and terms is fixed_terms
    assert len(history.residuals) == len(history.outputs) == 1
    assert (state.extrapolations_accepted, state.extrapolations_rejected) == (1, 2)


def test_anderson_cuts_the_stiff_sweep_count():
    geom = sine_geom(N=64, a=1000.0)
    geom.A[1] = 1300.0
    state = run(geom)
    assert state.converged
    assert state.step <= 25
    assert state.extrapolations_accepted > state.extrapolations_rejected
    assert state.monotone_report.ok
    # a taken candidate is shifted back into the sup gauge
    np.testing.assert_array_equal(state.psis.max(axis=1), 0.0)
    plain = run(geom, IterationConfig(accel="none", max_outer=25))
    assert plain.reason == "max_outer"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    N=st.sampled_from([16, 32]),
    a=st.floats(min_value=1.0, max_value=1e3),
    b=st.floats(min_value=0.0, max_value=0.8),
)
def test_accelerated_runs_reach_the_fixed_point(N, a, b):
    geom = sine_geom(N=N, amp=b, a=a)
    geom.A[1] = 1.3 * a
    state = run(geom)
    assert state.converged
    assert state.monotone_report.ok
    again, _ = step_gauss_seidel(geom, state.psis, state.config)
    assert np.abs(again - state.psis).max() <= 1e-6


# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_are_bit_identical():
    geom = sine_geom()
    a = run(geom)
    b = run(geom)
    assert np.array_equal(a.psis, b.psis)
    for name in a.ledger.columns:
        if name == "wall_ms":
            continue
        np.testing.assert_array_equal(a.ledger.column(name), b.ledger.column(name))


# ---------------------------------------------------------------------------
# inner failure propagation


def test_inner_failure_is_reported_with_slice_index():
    preset = build_run_config(get_preset("pos-k2-steep"))
    state = run(preset.geometry(), preset.iteration)
    assert not state.converged
    assert state.reason.startswith("inner_failure: ContinuityBreakdown")
    assert state.error is not None
    assert getattr(state.error, "slice_index", None) in (0, 1)
    assert 0.0 < state.error.last_good_t < 1.0


# ---------------------------------------------------------------------------
# monotonicity checker on hand-built ledgers


def _ledger_from(dvals, rhos):
    ledger = EnergyLedger(1)
    for step, (d, r) in enumerate(zip(dvals, rhos)):
        ledger.rows.append({"step": step, "D": d, "rho_max_1": r})
    return ledger


def test_check_monotone_flags_increase():
    ledger = _ledger_from([1.0, 0.5, 0.8], [1.0, 0.5, 0.4])
    report = check_monotone(ledger)
    assert not report.ok
    assert [v[0] for v in report.violations] == [2]


def test_check_monotone_allows_rounding_slack():
    dvals = [1.0, 0.5, 0.5 + 1e-10]
    report = check_monotone(_ledger_from(dvals, [1.0, 1e-9, 1e-10]))
    assert report.ok


def test_check_monotone_flags_stagnation():
    # D frozen for three transitions while the residual stays large
    dvals = [1.0] * 4
    rhos = [0.1] * 4
    report = check_monotone(_ledger_from(dvals, rhos))
    assert report.ok
    assert report.stagnation_steps == [3]


def test_check_monotone_accepts_converged_plateau():
    # a flat tail is fine once the residual is small
    dvals = [1.0, 0.2, 0.2, 0.2, 0.2]
    rhos = [1.0, 1e-9, 1e-10, 1e-11, 1e-12]
    report = check_monotone(_ledger_from(dvals, rhos))
    assert report.ok
    assert not report.stagnation_steps
