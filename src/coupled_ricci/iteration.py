"""Outer relaxation loop for the coupled fixed-point system.

One sweep function serves both modes: Gauss-Seidel refreshes each
potential against the newest partners; Jacobi freezes the partners for
the whole sweep.  Energy descent is only guaranteed for Gauss-Seidel,
which is why only that mode feeds the monotonicity checker.

By default the outer loop extrapolates the sweep outputs by safeguarded
Anderson mixing (``accel="anderson"``); ``accel="none"`` is the plain
coupled Ricci iteration.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import (
    ContinuityBreakdown,
    CoupledRicciError,
    NoConvergence,
    NonAdmissible,
    NonAdmissibleStep,
    ValidationError,
)
from .functionals import EnergyLedger, cke_residual
from .monge_ampere import BackgroundGeometry, is_admissible, solve_tke

logger = logging.getLogger(__name__)

_INNER_ERRORS = (NoConvergence, NonAdmissibleStep, ContinuityBreakdown, NonAdmissible)

# Anderson history depth m.  On the stiff 1-d problem (A_i ~ 1e3) m = 2
# needed 27 sweeps, m = 3 needed 20 and m = 5 needed 14; m = 3 keeps the
# stored history at eight tuples.
ANDERSON_DEPTH = 3


# The allowed values of each string setting of IterationConfig.
_CHOICES = {
    "mode": ("gauss_seidel", "jacobi"),
    "norm_mode": ("sup", "mean"),
    "sweep_order": ("forward", "reverse"),
    "accel": ("anderson", "none"),
}


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real; booleans are not."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass
class IterationConfig:
    """The outer-iteration settings, declared and validated only here.

    Tolerances must be positive finite reals and are stored as float;
    budgets must be integers >= 1; booleans are neither.  Every violation
    is collected into one ValidationError.
    """

    mode: str = "gauss_seidel"
    norm_mode: str = "sup"
    tol_fixed_point: float = 1e-8
    tol_inner: float = 1e-10
    max_outer: int = 200
    max_newton: int = 40
    record_every: int = 1
    sweep_order: str = "forward"
    accel: str = "anderson"

    def __post_init__(self):
        problems = []
        for key, allowed in _CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                problems.append(
                    f"{key} must be {' or '.join(allowed)}, got {value!r}"
                )
        for key in ("tol_fixed_point", "tol_inner"):
            value = getattr(self, key)
            try:
                tol = float(value) if _is_real(value) else math.nan
            except OverflowError:  # an integer beyond the float range
                tol = math.inf
            if 0 < tol < math.inf:
                setattr(self, key, tol)
            else:
                problems.append(
                    f"{key} must be a positive finite number, got {value!r}"
                )
        for key in ("max_outer", "max_newton", "record_every"):
            value = getattr(self, key)
            if isinstance(value, Integral) and _is_real(value) and value >= 1:
                setattr(self, key, int(value))
            else:
                problems.append(f"{key} must be a positive integer, got {value!r}")
        if problems:
            raise ValidationError(problems)


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
    extrapolations_accepted: int = 0
    extrapolations_rejected: int = 0

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


def _row_residual(terms) -> float:
    """cke_residual of the tuple whose ledger terms or row are ``terms``."""
    return max(v for name, v in terms.items() if name.startswith("rho_max_"))


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


class _Anderson:
    """Type-II Anderson mixing of the sweep map G (Walker & Ni, 2011).

    Keeps the last ``ANDERSON_DEPTH + 1`` residuals f_j = G(x_j) - x_j and
    outputs G(x_j); the outputs are held by reference, so the newest one
    is the sweep result itself.  The differences are never stored: the
    least-squares Gram matrix comes from the inner products of the f_j.
    """

    def __init__(self):
        self.residuals = deque(maxlen=ANDERSON_DEPTH + 1)
        self.outputs = deque(maxlen=ANDERSON_DEPTH + 1)

    def push(self, x, gx) -> None:
        self.residuals.append(gx - x)
        self.outputs.append(gx)

    def restart(self) -> None:
        """Drop every pair but the newest."""
        for pairs in (self.residuals, self.outputs):
            newest = pairs[-1]
            pairs.clear()
            pairs.append(newest)

    def extrapolate(self):
        """G(x_j) - sum_a gamma_a (G(x_{a+1}) - G(x_a)), or None.

        gamma minimises |f_j - sum_a gamma_a (f_{a+1} - f_a)|_2.  The m x m
        normal equations get a shift of 1e-10 times their trace, which
        keeps them solvable when the residuals are nearly collinear.
        """
        p = len(self.residuals)
        if p < 2:
            return None
        inner = np.array([[np.vdot(a, b) for b in self.residuals]
                          for a in self.residuals])
        # inner products of the differences f_{a+1} - f_a
        gram = inner[1:, 1:] - inner[1:, :-1] - inner[:-1, 1:] + inner[:-1, :-1]
        shift = 1e-10 * np.trace(gram)
        if not shift > 0.0:
            return None
        gamma = np.linalg.solve(
            gram + shift * np.eye(p - 1), inner[1:, -1] - inner[:-1, -1]
        )
        coef = np.zeros(p)
        coef[-1] = 1.0
        coef[1:] -= gamma
        coef[:-1] += gamma
        ext = coef[-1] * self.outputs[-1]
        for c, gx in zip(coef[:-1], self.outputs):
            ext += c * gx
        return ext


def _to_gauge(psis, norm_mode: str) -> None:
    """Shift each class in place into the ``norm_mode`` gauge.

    D and the Ricci potentials do not change under per-class constants.
    """
    axes = tuple(range(1, psis.ndim))
    if norm_mode == "sup":
        psis -= psis.max(axis=axes, keepdims=True)
    else:
        psis -= psis.mean(axis=axes, keepdims=True)


def _accelerate(state, history, x, gx, gx_terms):
    """The tuple an outer step takes from x, and its ledger terms: the
    extrapolated candidate if every class of it is admissible and its D
    is no higher than ``gx_terms["D"]``, else the sweep output gx.

    A refused candidate restarts the history from the newest pair.  The
    candidate is local here, so a refused one is freed before the next
    sweep.
    """
    history.push(x, gx)
    ext = history.extrapolate()
    if ext is None:
        return gx, gx_terms
    _to_gauge(ext, state.config.norm_mode)
    try:
        ext_terms = state.ledger.evaluate(state.geom, ext)
    except NonAdmissible:
        ext_terms = None
    if ext_terms is not None and ext_terms["D"] <= gx_terms["D"]:
        state.extrapolations_accepted += 1
        return ext, ext_terms
    state.extrapolations_rejected += 1
    history.restart()
    return gx, gx_terms


def run(geom: BackgroundGeometry, config: IterationConfig | None = None,
        init=None) -> IterationState:
    """Iterate the coupled system until the Ricci potentials vanish.

    ``init`` may be any finite tuple of fields.  Non-admissible initial
    slices are accepted: they still drive the coupling sums, but the
    first inner solve of such a slice starts from zero instead of the
    warm start, and no step-0 ledger row is written because the
    energies are undefined outside the cone.  Each tuple is evaluated
    once, by ``EnergyLedger.evaluate``, for the Anderson safeguard, the
    stopping test and the ledger row; ``record_every`` only thins the rows.
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
    terms = None
    if all(admissible):
        terms = state.ledger.evaluate(geom, psis)
        state.ledger.record_state(
            geom, psis, step=0, inner_iters=0, wall_ms=0.0, terms=terms
        )
    else:
        bad = [i + 1 for i, ok in enumerate(admissible) if not ok]
        logger.warning(
            "initial potentials for classes %s are outside the positivity "
            "cone; they are used for coupling only and the step-0 ledger "
            "row is skipped",
            bad,
        )

    history = _Anderson() if config.accel == "anderson" else None
    while terms is None or _row_residual(terms) > config.tol_fixed_point:
        if state.step == config.max_outer:
            state.reason = "max_outer"
            break
        step = state.step + 1
        t_step = time.perf_counter()
        try:
            swept, inner_iters = step_gauss_seidel(geom, psis, config)
        except _INNER_ERRORS as exc:
            state.reason = f"inner_failure: {type(exc).__name__}: {exc}"
            state.error = exc
            state.step = step
            break
        terms = state.ledger.evaluate(geom, swept)
        if history is not None:
            swept, terms = _accelerate(state, history, psis, swept, terms)
        psis = state.psis = swept
        state.step = step
        if (step % config.record_every == 0 or step == config.max_outer
                or _row_residual(terms) <= config.tol_fixed_point):
            wall = (time.perf_counter() - t_step) * 1e3
            state.ledger.record_state(
                geom, psis, step=step, inner_iters=inner_iters, wall_ms=wall,
                terms=terms,
            )
    else:
        state.converged = True
        state.reason = "converged"

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
