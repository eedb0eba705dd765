import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_ricci import functionals, iteration
from coupled_ricci import (
    BackgroundGeometry,
    EnergyLedger,
    IterationConfig,
    PeriodicGrid,
    check_monotone,
    hessian,
    ma_density,
    run,
    step_gauss_seidel,
)
from coupled_ricci.config import build_run_config
from coupled_ricci.errors import NoConvergence, ValidationError
from coupled_ricci.iteration import (
    ANDERSON_DEPTH,
    INNER_TOL_RATIO,
    IterationState,
    _accelerate,
    _Anderson,
)
from coupled_ricci.functionals import _row_residual
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
        {"max_outer": 0},
        {"max_outer": 3.0},
        {"tol_inner": -1.0},
        {"tol_fixed_point": 0.0},
        {"tol_fixed_point": "1e-8"},
        {"tol_fixed_point": 10**400},
        {"tol_inner": float("inf")},
        {"tol_inner": float("nan")},
        {"tol_fixed_point": float("inf")},
        {"tol_fixed_point": float("nan")},
        {"max_outer": 2.5},
        {"max_outer": True},
        {"max_outer": "5"},
        {"mode": None},
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
        tol_fixed_point=np.float32(0.5),
    )
    assert config == IterationConfig(max_outer=5, tol_inner=1e-9, tol_fixed_point=0.5)
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
    psis1, _, _ = step_gauss_seidel(geom, np.zeros((1,) + geom.grid.shape), config)
    psis2, _, _ = step_gauss_seidel(geom, psis1, config)
    assert np.abs(psis2 - psis1).max() <= 1e-10


def test_class_order_changes_path_not_limit():
    # the classes are swept in the order given; listing them in reverse
    # changes the Gauss-Seidel path but not the fixed point
    grid = PeriodicGrid(1, 32)
    x = grid.coords()[0]
    A = np.array([[[1.0]], [[2.0]]])
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    fwd = run(BackgroundGeometry(grid=grid, lam=-1, A=A, f=f))
    rev = run(BackgroundGeometry(grid=grid, lam=-1, A=A[::-1], f=f))
    assert fwd.converged and rev.converged
    assert np.abs(fwd.psis - rev.psis[::-1]).max() <= 1e-6


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


def test_run_builds_one_hessian_per_class_and_evaluated_tuple(monkeypatch):
    built = []
    monkeypatch.setattr(
        functionals, "hessian",
        lambda grid, psi: built.append(1) or hessian(grid, psi),
    )
    cone_state = iteration.cone_state
    monkeypatch.setattr(
        iteration, "cone_state",
        lambda grid, A, psi: built.append(1) or cone_state(grid, A, psi),
    )
    cfg = build_run_config(get_preset("neg-k2-stiff"))
    state = run(cfg.geometry(), cfg.iteration)
    assert state.converged
    candidates = state.extrapolations_accepted + state.extrapolations_rejected
    assert candidates > 0
    # the step-0 tuple and each Anderson candidate; a sweep output comes
    # with the Hessians of its slice solves
    assert len(built) == cfg.geom.k * (1 + candidates)


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
        psis, _, _ = step_gauss_seidel(geom, psis, config)
    assert np.array_equal(state.psis, psis)


def _centred(x):
    """x less the mean of each class."""
    return x - x.mean(axis=tuple(range(1, x.ndim)), keepdims=True)


def test_anderson_solves_an_affine_map_in_dimension_plus_one_steps():
    # Type-II Anderson with depth >= dim reproduces GMRES on an affine
    # map, so the extrapolation after dim + 1 outputs is the fixed point.
    # Like a sweep, the map reads (k, P) tuples modulo per-class constants,
    # so dim counts the mean-zero tuples.
    k, P = 2, ANDERSON_DEPTH // 2 + 1
    dim = k * (P - 1)
    assert dim <= ANDERSON_DEPTH
    for seed in range(3):
        rng = np.random.default_rng(seed)
        mat = 0.5 * rng.standard_normal((k * P, k * P)) / np.sqrt(k * P)
        vec = rng.standard_normal(k * P)
        centring = np.kron(np.eye(k), np.eye(P) - 1.0 / P)
        fixed = np.linalg.solve(np.eye(k * P) - mat @ centring, vec)

        def sweep(x):
            return (mat @ _centred(x).ravel() + vec).reshape(k, P)

        history = _Anderson()
        x = np.zeros((k, P))
        assert history.extrapolate() is None
        for _ in range(dim + 1):
            gx = sweep(x)
            history.push(x, gx)
            x = history.extrapolate() if len(history.residuals) > 1 else gx
        np.testing.assert_allclose(
            _centred(x), _centred(fixed.reshape(k, P)), rtol=0, atol=1e-13
        )
    # the oldest pair leaves once the history is full
    for _ in range(ANDERSON_DEPTH + 2 - dim):
        history.push(x, sweep(x))
    assert len(history.residuals) == len(history.outputs) == ANDERSON_DEPTH + 1
    history.restart()
    assert len(history.residuals) == len(history.outputs) == 1


def test_anderson_has_nothing_to_extrapolate_from_equal_residuals():
    # residuals that differ by per-class constants are equal in the gauge
    # Anderson mixes in, so every difference is zero; the dyadic values
    # keep the centring exact
    rng = np.random.default_rng(2)
    x, gx = rng.integers(-8, 8, (2, 2, 16)).astype(float)
    history = _Anderson()
    history.push(x, gx)
    history.push(x, gx)
    assert history.extrapolate() is None
    history.push(x - [[0.5], [-2.0]], gx)
    assert history.extrapolate() is None


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


_STIFF_2D = [[[1000.0, 0.0], [0.0, 1000.0]], [[2000.0, 500.0], [500.0, 1000.0]]]


@pytest.mark.parametrize(
    "data, max_sweeps",
    [
        (get_preset("neg-k2-stiff"), 12),
        ({**get_preset("neg-k2-stiff"), "N": 32, "k": 3,
          "A": [1000.0, 1300.0, 800.0]}, 40),
        ({**get_preset("neg-k2-2d"), "N": 32, "A": _STIFF_2D,
          "f": "1 + 0.3*sin(2*pi*x_1)*cos(2*pi*x_2)"}, 22),
    ],
    ids=["neg-k2-stiff", "k3-1d", "2d-n32"],
)
def test_deep_history_bounds_the_stiff_sweep_counts(data, max_sweeps):
    cfg = build_run_config(data)
    state = run(cfg.geometry(), cfg.iteration)
    assert state.converged
    assert state.step <= max_sweeps
    assert state.monotone_report.ok


def _scaled(data, scale):
    """``data`` with every class matrix multiplied by ``scale``."""
    return {**data, "A": (scale * np.array(data["A"])).tolist()}


# Sweeps with the residuals mixed in the mean-zero gauge; without it, 290,
# none in 2,000 and 1,697.
@pytest.mark.parametrize(
    "data, sweeps",
    [
        (_scaled({**get_preset("neg-k2-stiff"), "N": 32}, 100.0), 84),
        (_scaled({**get_preset("neg-k2-stiff"), "N": 32}, 1000.0), 63),
        (_scaled({**get_preset("neg-k2-2d"), "N": 32}, 1e6), 97),
    ],
    ids=["1d-1e5", "1d-1e6", "2d-1e6"],
)
def test_anderson_converges_at_stiff_class_matrices(data, sweeps):
    cfg = build_run_config(data)
    geom = cfg.geometry()
    state = run(geom, cfg.iteration)
    assert state.converged, state.reason
    assert state.step == sweeps
    assert state.monotone_report.ok
    # rho_max pins each psi_i only to kappa * rho_max, with kappa the
    # largest eigenvalue of the A_i over 4 pi^2; checked where that bound
    # is small
    if geom.A.max() > 2e5:
        return
    kappa = max(np.linalg.eigvalsh(A).max() for A in geom.A) / (4 * np.pi**2)
    tight = IterationConfig(tol_fixed_point=1e-10, tol_inner=1e-12)
    reference = run(geom, tight, init=state.psis)
    assert reference.converged
    error = np.abs(state.psis - reference.psis).max()
    assert error <= kappa * cfg.iteration.tol_fixed_point


# ---------------------------------------------------------------------------
# inexact sweeps


def _recorded_tolerances(monkeypatch):
    """Patch iteration.solve_tke to record the tol_inner of every call."""
    solve = iteration.solve_tke
    tols = []

    def recording(*args, tol_inner, **kwargs):
        tols.append(tol_inner)
        return solve(*args, tol_inner=tol_inner, **kwargs)

    monkeypatch.setattr(iteration, "solve_tke", recording)
    return tols


@pytest.mark.parametrize("name", ["neg-k2-stiff", "neg-k2-2d", "pos-k2-mild"])
def test_accelerated_sweeps_tie_the_inner_tolerance_to_rho_max(monkeypatch, name):
    tols = _recorded_tolerances(monkeypatch)
    cfg = build_run_config(get_preset(name))
    state = run(cfg.geometry(), cfg.iteration)
    assert state.converged
    floor = cfg.iteration.tol_inner
    # the sweep from the tuple of row j solves every slice to this tolerance
    expected = [max(floor, INNER_TOL_RATIO * _row_residual(row))
                for row in state.ledger.rows[:-1]]
    assert tols == [tol for tol in expected for _ in range(cfg.geom.k)]
    assert tols[0] > floor


def test_plain_sweeps_solve_to_tol_inner(monkeypatch):
    tols = _recorded_tolerances(monkeypatch)
    cfg = build_run_config({**get_preset("neg-k2-sine"), "accel": "none"})
    state = run(cfg.geometry(), cfg.iteration)
    assert state.converged
    assert tols == [cfg.iteration.tol_inner] * (cfg.geom.k * state.step)


def test_first_sweep_from_a_non_admissible_start_solves_to_tol_inner(monkeypatch):
    tols = _recorded_tolerances(monkeypatch)
    geom = sine_geom(N=64)
    x = geom.grid.coords()[0]
    init = np.stack([0.1 * np.cos(2 * np.pi * x)] * 2)
    state = run(geom, init=init)
    assert state.converged
    assert tols[:2] == [1e-10, 1e-10]
    rows = state.ledger.rows
    assert rows[0]["step"] == 1
    assert tols[2:] == [max(1e-10, INNER_TOL_RATIO * _row_residual(row))
                        for row in rows[:-1] for _ in range(2)]


def test_first_sweep_from_a_partly_admissible_start_uses_the_classes_inside(
        monkeypatch):
    tols = _recorded_tolerances(monkeypatch)
    geom = sine_geom(N=64)
    x = geom.grid.coords()[0]
    # class 1 is outside the cone (1 - 0.4 pi^2 cos < 0 somewhere), class 2 inside
    init = np.stack([0.1 * np.cos(2 * np.pi * x), 0.01 * np.cos(2 * np.pi * x)])
    state = run(geom, init=init)
    assert state.converged
    # rho_2 of the ricci_potentials formula, its weight summing both classes
    weight = np.exp(init.sum(axis=0)) * geom.f
    rho_2 = (np.log(geom.volumes[1]) + np.log(weight)
             - np.log(geom.grid.integrate(weight))
             - np.log(ma_density(geom.grid, geom.A[1], init[1])))
    first = INNER_TOL_RATIO * np.abs(rho_2).max()
    assert first > 1e-3
    assert tols[:2] == pytest.approx([first, first], rel=1e-12, abs=0.0)
    rows = state.ledger.rows
    assert rows[0]["step"] == 1
    assert tols[2:] == [max(1e-10, INNER_TOL_RATIO * _row_residual(row))
                        for row in rows[:-1] for _ in range(2)]


def test_plain_sweeps_from_a_partly_admissible_start_solve_to_tol_inner(
        monkeypatch):
    tols = _recorded_tolerances(monkeypatch)
    geom = sine_geom(N=64)
    x = geom.grid.coords()[0]
    init = np.stack([0.1 * np.cos(2 * np.pi * x), 0.01 * np.cos(2 * np.pi * x)])
    state = run(geom, IterationConfig(accel="none"), init=init)
    assert state.converged
    assert tols == [1e-10] * (2 * state.step)


# Newton steps of each converging preset with exact sweeps.  pos-k2-steep
# is left out: it fails (exit 3), so its count measures how far it gets.
_EXACT_NEWTON_TOTALS = {
    "const-k2": 0, "jacobi-k2-sine": 22, "neg-k1-sine": 5, "neg-k2-2d": 15,
    "neg-k2-sine": 18, "neg-k2-sine-n8": 18, "neg-k2-stiff": 44,
    "pos-k2-mild": 12,
}
_INEXACT_NEWTON_TOTALS = {"neg-k2-2d": 9, "neg-k2-stiff": 23}


@pytest.mark.parametrize("name", sorted(_EXACT_NEWTON_TOTALS))
def test_inexact_sweeps_take_no_more_newton_steps(name):
    cfg = build_run_config(get_preset(name))
    state = run(cfg.geometry(), cfg.iteration)
    assert state.converged
    total = int(state.ledger.column("inner_iters").sum())
    assert total <= _EXACT_NEWTON_TOTALS[name]
    if name in _INEXACT_NEWTON_TOTALS:
        assert total == _INEXACT_NEWTON_TOTALS[name]


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
    again, _, _ = step_gauss_seidel(geom, state.psis, state.config)
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
# stalled runs


def test_a_sweep_without_a_newton_step_stops_the_run():
    # tol_inner leaves rho_max at about 4e-12, above tol_fixed_point, so
    # a sweep soon takes no Newton step and returns its input
    geom = sine_geom(N=16)
    geom.A[1] = 1.3
    state = run(geom, IterationConfig(tol_fixed_point=1e-12))
    assert not state.converged
    assert state.reason.startswith("stalled")
    assert "tol_fixed_point 1e-12" in state.reason
    assert "tol_inner 1e-10" in state.reason
    assert state.step < 10
    last = state.ledger.rows[-1]
    assert last["step"] == state.step
    assert last["inner_iters"] == 0
    assert _row_residual(last) > 1e-12


# ---------------------------------------------------------------------------
# inner failure propagation


def test_inner_failure_writes_the_row_of_the_returned_tuple(monkeypatch):
    # the sweep of step 4 fails; the ledger must end with the row of the
    # tuple of step 3, which the run returns
    geom = sine_geom(N=16, a=1000.0)
    geom.A[1] = 1300.0
    done = run(geom, IterationConfig(max_outer=3))
    solve = iteration.solve_tke
    calls = []

    def failing(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 7:  # class 1 of sweep 4
            raise NoConvergence("injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(iteration, "solve_tke", failing)
    state = run(geom)
    assert state.reason == "inner_failure: NoConvergence: injected"
    assert state.step == 4
    assert np.array_equal(state.psis, done.psis)
    assert [row["step"] for row in state.ledger.rows] == [0, 1, 2, 3]
    for row, ref in zip(state.ledger.rows, done.ledger.rows):
        assert {**row, "wall_ms": 0.0} == {**ref, "wall_ms": 0.0}


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


def test_check_monotone_accepts_converged_plateau():
    # a flat tail is no violation
    dvals = [1.0, 0.2, 0.2, 0.2, 0.2]
    rhos = [1.0, 1e-9, 1e-10, 1e-11, 1e-12]
    report = check_monotone(_ledger_from(dvals, rhos))
    assert report.ok


def test_run_warns_of_a_descent_violation(monkeypatch, caplog):
    # a negative slack makes every descent smaller than 1 + |D| a violation
    monkeypatch.setattr(iteration, "_SLACK_COEF", -1.0)
    with caplog.at_level(logging.WARNING, logger="coupled_ricci.iteration"):
        state = run(sine_geom())
    assert state.converged
    steps = [v[0] for v in state.monotone_report.violations]
    assert steps == list(range(1, state.step + 1))
    assert f"Ding monotonicity violated at steps {steps}" in caplog.text
