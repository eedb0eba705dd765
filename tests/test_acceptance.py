"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single CRITERION line so a plain ``pytest -v -s`` run
doubles as the sign-off record.  Tolerances here are contractual; do not
loosen them to make a regression pass.
"""

import json
import time

import numpy as np
import pytest

from coupled_ricci import (
    BackgroundGeometry,
    IterationConfig,
    PeriodicGrid,
    cke_residual,
    ding,
    ding_first_variation,
    i_functional,
    j_functional,
    ricci_potentials,
    run,
    solve_tke,
    step_gauss_seidel,
)
from coupled_ricci.cli import main
from coupled_ricci.config import build_run_config
from coupled_ricci.oracle import oracle_ding_descent, oracle_fixed_point
from coupled_ricci.scenarios import get_preset

from cone_margin import admissibility_margin


def preset_problem(name):
    cfg = build_run_config(get_preset(name))
    return cfg.geometry(), cfg.iteration


def sup_norm(psis):
    psis = np.asarray(psis)
    return psis - psis.reshape(psis.shape[0], -1).max(axis=1).reshape(
        (-1,) + (1,) * (psis.ndim - 1)
    )


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def converged_sine():
    geom, config = preset_problem("neg-k2-sine")
    t0 = time.perf_counter()
    state = run(geom, config)
    return geom, config, state, time.perf_counter() - t0


def test_criterion_1_ding_monotone_descent(converged_sine):
    geom, config, state, elapsed = converged_sine
    d = state.ledger.column("D")
    slack_ok = all(
        d[i + 1] <= d[i] + 1e-9 * (1.0 + abs(d[i])) for i in range(len(d) - 1)
    )
    ok = (
        slack_ok
        and state.converged
        and state.final_rho_max <= 1e-8
        and state.step <= 200
        and elapsed <= 30.0
    )
    report(
        1, ok,
        f"steps={state.step} rho_max={state.final_rho_max:.2e} "
        f"monotone={slack_ok} wall={elapsed:.2f}s",
    )


def test_criterion_2_fixed_point_is_cke(converged_sine):
    geom, config, state, _ = converged_sine
    rhos = ricci_potentials(geom, state.psis)
    rho_max = float(np.abs(rhos).max())
    extra, _, _ = step_gauss_seidel(geom, state.psis, config)
    move = float(np.abs(extra - state.psis).max())
    ok = rho_max <= 1e-8 and move <= 1e-9
    report(2, ok, f"rho_max={rho_max:.2e} extra_step_move={move:.2e}")


def test_criterion_3_unique_limit_at_negative_lambda(converged_sine):
    geom, config, state, _ = converged_sine
    x = geom.grid.coords()[0]
    init = np.stack([0.1 * np.cos(2 * np.pi * x)] * geom.k)
    other = run(geom, config, init=init)
    gap = float(np.abs(sup_norm(state.psis) - sup_norm(other.psis)).max())
    ok = other.converged and gap <= 1e-6
    report(3, ok, f"sup_gap={gap:.2e} converged={other.converged}")


def test_criterion_4_single_class_needs_one_step():
    geom, config = preset_problem("neg-k1-sine")
    zeros = np.zeros((1,) + geom.grid.shape)
    first, _, _ = step_gauss_seidel(geom, zeros, config)
    second, _, _ = step_gauss_seidel(geom, first, config)
    move = float(np.abs(second - first).max())
    ok = move <= 1e-10
    report(4, ok, f"second_step_move={move:.2e}")


def test_criterion_5_sandwich_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_low = np.inf
    worst_high = -np.inf
    for n, N in ((1, 16), (2, 8)):
        grid = PeriodicGrid(n, N)
        for _ in range(100):
            A = np.eye(n) + 0.4 * rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            low = np.linalg.eigvalsh(A).min()
            if low <= 0.2:
                A += (0.3 - low) * np.eye(n)
            psi = rng.standard_normal(grid.shape)
            psi -= psi.mean()
            # raw draws sit far outside the cone; halve until inside
            while admissibility_margin(grid, A, psi) <= 1e-6:
                psi *= 0.5
            ival = i_functional(grid, A, psi)
            jval = j_functional(grid, A, psi)
            worst_low = min(worst_low, jval - (ival / (n + 1) - 1e-12))
            worst_high = max(worst_high, jval - (ival + 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst_low >= 0.0 and worst_high <= 0.0 and elapsed <= 5.0
    report(
        5, ok,
        f"min(J - I/(n+1))={worst_low:.2e} max(J - I)={worst_high:.2e} "
        f"wall={elapsed:.2f}s",
    )


def test_criterion_6_second_order_convergence():
    t0 = time.perf_counter()

    def sup_error(N):
        grid = PeriodicGrid(1, N)
        x = grid.coords()[0]
        target = 0.05 * np.sin(2 * np.pi * x)
        curvature = -0.05 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
        f = (4.0 + curvature) * np.exp(-target)
        geom = BackgroundGeometry(
            grid=grid, lam=-1, A=np.array([[[4.0]]]), f=f
        )
        psi, _report = solve_tke(geom, 0, np.zeros(grid.shape))
        solved = psi - psi.max()
        return float(np.abs(solved - (target - target.max())).max())

    e32 = sup_error(32)
    e64 = sup_error(64)
    ratio = e32 / e64
    elapsed = time.perf_counter() - t0
    ok = 3.0 <= ratio <= 5.0 and elapsed <= 10.0
    report(
        6, ok,
        f"err(32)={e32:.3e} err(64)={e64:.3e} ratio={ratio:.3f} "
        f"wall={elapsed:.2f}s",
    )


def test_second_order_convergence_in_two_dimensions():
    # a manufactured slice: f from the continuum equation at psi*.  The
    # density averages the forward/forward and backward/backward variants;
    # either one alone is first order in the mixed entry, a ratio near 2
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def sup_error(N):
        grid = PeriodicGrid(2, N)
        x1, x2 = grid.coords()
        w = 2 * np.pi
        target = 0.01 * np.sin(w * x1) * np.cos(w * x2)
        mixed = -0.01 * w**2 * np.cos(w * x1) * np.sin(w * x2)
        det = (A[0, 0] - w**2 * target) * (A[1, 1] - w**2 * target) - (
            A[0, 1] + mixed
        ) ** 2
        geom = BackgroundGeometry(
            grid=grid, lam=-1, A=A[None], f=det * np.exp(-target)
        )
        psi, _report = solve_tke(geom, 0, np.zeros(grid.shape))
        return float(np.abs(psi - (target - target.max())).max())

    errors = [sup_error(N) for N in (16, 32, 64)]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.0 <= ratio <= 5.0 for ratio in ratios), (errors, ratios)


def test_coupled_self_convergence_in_two_dimensions():
    # the benchmark's gs2d-n128 problem at N = 16, 32 and 64: the change of
    # the fixed point under refinement, on the coarse points, falls by ~4
    def fixed_point(N):
        cfg = build_run_config({
            "cri_config": 1, "lambda": -1, "n": 2, "N": N, "k": 2,
            "A": [[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]],
            "f": "1 + 0.3*sin(2*pi*x_1)*cos(2*pi*x_2)",
            "tol_fixed_point": 1e-11,
        })
        state = run(cfg.geometry(), cfg.iteration)
        assert state.converged, state.reason
        return state.psis

    psis = [fixed_point(N) for N in (16, 32, 64)]
    changes = [
        float(np.abs(coarse - fine[:, ::2, ::2]).max())
        for coarse, fine in zip(psis, psis[1:])
    ]
    assert 3.0 <= changes[0] / changes[1] <= 5.0, changes


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    geom, config = preset_problem("neg-k2-sine-n8")
    state = run(geom, config)
    psis_ref, _cs, d_ref, _iters = oracle_fixed_point(geom)
    psi_err = float(np.abs(sup_norm(state.psis) - sup_norm(psis_ref)).max())
    d_err = abs(ding(geom, state.psis) - d_ref)
    _psis, d_desc, trace, _it = oracle_ding_descent(geom)
    desc_err = abs(d_desc - d_ref)
    elapsed = time.perf_counter() - t0
    ok = (
        state.converged
        and psi_err <= 1e-5
        and d_err <= 1e-7
        and desc_err <= 1e-7
        and elapsed <= 60.0
    )
    report(
        7, ok,
        f"psi_err={psi_err:.2e} D_err={d_err:.2e} "
        f"descent_D_err={desc_err:.2e} wall={elapsed:.2f}s",
    )


def test_criterion_8_first_variation_formula():
    rng = np.random.default_rng(11)
    geom, _config = preset_problem("neg-k2-sine-n8")
    psis = 5e-3 * rng.standard_normal((geom.k,) + geom.grid.shape)
    while any(
        admissibility_margin(geom.grid, geom.A[i], psis[i]) < 0.1
        for i in range(geom.k)
    ):
        psis *= 0.5
    worst = 0.0
    for _ in range(20):
        deltas = rng.standard_normal((geom.k,) + geom.grid.shape)
        eps = 1e-6
        fd = (
            ding(geom, psis + eps * deltas) - ding(geom, psis - eps * deltas)
        ) / (2 * eps)
        an = ding_first_variation(geom, psis, deltas)
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    ok = worst <= 1e-4
    report(8, ok, f"worst_rel_err={worst:.2e}")


def test_criterion_9_positive_lambda_smoke(tmp_path):
    geom, config = preset_problem("pos-k2-mild")
    state = run(geom, config)
    d = state.ledger.column("D")
    mild_ok = (
        state.converged
        and all(
            d[i + 1] <= d[i] + 1e-9 * (1.0 + abs(d[i]))
            for i in range(len(d) - 1)
        )
    )
    code = main(["run", "pos-k2-steep", "--out", str(tmp_path / "steep")])
    summary = json.loads((tmp_path / "steep" / "summary.json").read_text())
    steep_ok = (
        code == 3
        and summary["converged"] is False
        and "ContinuityBreakdown" in summary["reason"]
    )
    ok = mild_ok and steep_ok
    report(
        9, ok,
        f"mild_converged={state.converged} steep_exit={code} "
        f"steep_reason={summary['reason'].split(':')[1].strip()}",
    )


def test_criterion_10_jacobi_agrees_with_gauss_seidel(converged_sine):
    geom, config, gs_state, _ = converged_sine
    ja_config = IterationConfig(
        mode="jacobi",
        tol_fixed_point=config.tol_fixed_point,
        tol_inner=config.tol_inner,
        max_outer=config.max_outer,
    )
    ja_state = run(geom, ja_config)
    steps = ja_state.ledger.column("step")
    complete = list(steps) == list(range(ja_state.step + 1)) and all(
        np.all(np.isfinite(ja_state.ledger.column(name)))
        for name in ja_state.ledger.columns
    )
    gap = float(np.abs(sup_norm(gs_state.psis) - sup_norm(ja_state.psis)).max())
    agree = (not ja_state.converged) or gap <= 1e-6
    ok = complete and agree
    report(
        10, ok,
        f"ledger_rows={len(steps)} jacobi_converged={ja_state.converged} "
        f"sup_gap={gap:.2e}",
    )
