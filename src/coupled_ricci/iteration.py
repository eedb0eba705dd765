"""Outer relaxation loop for the coupled fixed-point system.

One sweep function serves both modes: Gauss-Seidel refreshes each
potential against the newest partners; Jacobi freezes the partners for
the whole sweep.  Energy descent is only guaranteed for Gauss-Seidel,
which is why only that mode feeds the monotonicity checker.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContinuityBreakdown,
    CoupledRicciError,
    NoConvergence,
    NonAdmissible,
    NonAdmissibleStep,
)
from .functionals import EnergyLedger, cke_residual
from .monge_ampere import BackgroundGeometry, is_admissible, solve_tke

logger = logging.getLogger(__name__)

_INNER_ERRORS = (NoConvergence, NonAdmissibleStep, ContinuityBreakdown, NonAdmissible)


@dataclass
class IterationConfig:
    mode: str = "gauss_seidel"
    norm_mode: str = "sup"
    tol_fixed_point: float = 1e-8
    tol_inner: float = 1e-10
    max_outer: int = 200
    max_newton: int = 40
    record_every: int = 1
    sweep_order: str = "forward"

    def __post_init__(self):
        if self.mode not in ("gauss_seidel", "jacobi"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.norm_mode not in ("sup", "mean"):
            raise ValueError(f"unknown norm_mode {self.norm_mode!r}")
        if self.sweep_order not in ("forward", "reverse"):
            raise ValueError(f"unknown sweep_order {self.sweep_order!r}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if not all(0.0 < tol < math.inf
                   for tol in (self.tol_fixed_point, self.tol_inner)):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class IterationState:
    geom: BackgroundGeometry
    config: IterationConfig
    psis: np.ndarray
    step: int = 0
    converged: bool = False
    reason: str = "running"
    ledger: EnergyLedger | None = None
    monotone_report: "MonotoneReport | None" = None
    error: Exception | None = None
    wall_ms: float = 0.0

    @property
    def final_rho_max(self) -> float:
        try:
            return cke_residual(self.geom, self.psis)
        except NonAdmissible:
            return float("nan")


def _class_order(k: int, sweep_order: str):
    indices = list(range(k))
    if sweep_order == "reverse":
        indices.reverse()
    return indices


def _row_residual(row) -> float:
    """cke_residual of the tuple a ledger row was recorded at."""
    return max(v for name, v in row.items() if name.startswith("rho_max_"))


def step_gauss_seidel(geom, psis, config: IterationConfig):
    """One sweep over the classes; returns (new tuple, total inner iterations).

    In Gauss-Seidel mode each slice is coupled to the newest partners; in
    Jacobi mode (``config.mode == "jacobi"``) every slice reads its
    partners from the previous tuple.  Inner-solver errors are re-raised
    with the failing class index attached as ``slice_index``.
    """
    previous = np.asarray(psis, dtype=float)
    current = previous.copy()
    partners = previous if config.mode == "jacobi" else current
    inner_iters = 0
    for i in _class_order(geom.k, config.sweep_order):
        g = partners.sum(axis=0) - partners[i]
        try:
            psi, report = solve_tke(
                geom, i, g,
                tol_inner=config.tol_inner,
                max_newton=config.max_newton,
                norm_mode=config.norm_mode,
                warm_start=current[i],
            )
        except CoupledRicciError as exc:
            exc.slice_index = i
            raise
        current[i] = psi
        inner_iters += report.newton_iterations
    return current, inner_iters


def run(geom: BackgroundGeometry, config: IterationConfig | None = None,
        init=None) -> IterationState:
    """Iterate the coupled system until the Ricci potentials vanish.

    ``init`` may be any finite tuple of fields.  Non-admissible initial
    slices are accepted: they still drive the coupling sums, but the
    first inner solve of such a slice starts from zero instead of the
    warm start, and no step-0 ledger row is written because the
    energies are undefined outside the cone.
    """
    if config is None:
        config = IterationConfig()
    grid = geom.grid
    if init is None:
        psis = np.zeros((geom.k,) + grid.shape)
    else:
        psis = np.array(init, dtype=float, copy=True)
        if psis.shape != (geom.k,) + grid.shape:
            raise ValueError(
                f"init must have shape {(geom.k,) + grid.shape}, got {psis.shape}"
            )
        if not np.all(np.isfinite(psis)):
            raise ValueError("init contains non-finite values")

    admissible = [is_admissible(grid, geom.A[i], psis[i]) for i in range(geom.k)]
    state = IterationState(
        geom=geom, config=config, psis=psis, ledger=EnergyLedger(geom.k)
    )

    t_start = time.perf_counter()
    if all(admissible):
        row = state.ledger.record_state(
            geom, psis, step=0, inner_iters=0, wall_ms=0.0
        )
        if _row_residual(row) <= config.tol_fixed_point:
            state.converged = True
            state.reason = "converged"
            state.wall_ms = (time.perf_counter() - t_start) * 1e3
            if config.mode == "gauss_seidel":
                state.monotone_report = check_monotone(state.ledger)
            return state
    else:
        bad = [i + 1 for i, ok in enumerate(admissible) if not ok]
        logger.warning(
            "initial potentials for classes %s are outside the positivity "
            "cone; they are used for coupling only and the step-0 ledger "
            "row is skipped",
            bad,
        )

    for step in range(1, config.max_outer + 1):
        t_step = time.perf_counter()
        try:
            psis, inner_iters = step_gauss_seidel(geom, psis, config)
        except _INNER_ERRORS as exc:
            state.converged = False
            state.reason = f"inner_failure: {type(exc).__name__}: {exc}"
            state.error = exc
            state.step = step
            state.psis = psis
            break
        wall = (time.perf_counter() - t_step) * 1e3
        state.psis = psis
        state.step = step
        if step % config.record_every == 0 or step == config.max_outer:
            row = state.ledger.record_state(
                geom, psis, step=step, inner_iters=inner_iters, wall_ms=wall
            )
            done = _row_residual(row) <= config.tol_fixed_point
        else:
            done = cke_residual(geom, psis) <= config.tol_fixed_point
            if done:
                state.ledger.record_state(
                    geom, psis, step=step, inner_iters=inner_iters, wall_ms=wall
                )
        if done:
            state.converged = True
            state.reason = "converged"
            break
    else:
        state.reason = "max_outer"

    state.wall_ms = (time.perf_counter() - t_start) * 1e3
    if config.mode == "gauss_seidel" and state.ledger.rows:
        state.monotone_report = check_monotone(state.ledger)
        if state.monotone_report.violations:
            logger.warning(
                "Ding monotonicity violated at steps %s",
                [v[0] for v in state.monotone_report.violations],
            )
    return state


@dataclass
class MonotoneReport:
    """Outcome of the Ding descent check over a ledger."""

    violations: list = field(default_factory=list)
    stagnation_steps: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_monotone(ledger: EnergyLedger, slack_coef: float = 1e-9,
                   stagnation_res: float = 1e-3,
                   stagnation_window: int = 3) -> MonotoneReport:
    """Check that D descends along the ledger up to rounding slack.

    A transition from D_prev to D_next is a violation when
    D_next > D_prev + slack_coef * (1 + |D_prev|).  Stagnation flags
    ``stagnation_window`` consecutive transitions that move D by less
    than the slack while the residual is still far from converged
    (rho_max above ``stagnation_res``); that pattern usually means the
    inner solves are not actually progressing.
    """
    report = MonotoneReport()
    dvals = ledger.column("D")
    steps = ledger.column("step")
    rho_cols = [name for name in ledger.columns if name.startswith("rho_max_")]
    rho_max = np.max(
        np.stack([ledger.column(name) for name in rho_cols]), axis=0
    )
    stagnant_run = 0
    for idx in range(1, len(dvals)):
        allowed = slack_coef * (1.0 + abs(dvals[idx - 1]))
        increase = dvals[idx] - dvals[idx - 1]
        if increase > allowed:
            report.violations.append(
                (int(steps[idx]), float(dvals[idx - 1]), float(dvals[idx]), allowed)
            )
        if abs(increase) <= allowed and rho_max[idx] > stagnation_res:
            stagnant_run += 1
            if stagnant_run >= stagnation_window:
                report.stagnation_steps.append(int(steps[idx]))
        else:
            stagnant_run = 0
    return report
