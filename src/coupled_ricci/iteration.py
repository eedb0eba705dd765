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

from .errors import CoupledRicciError, NonAdmissible, ValidationError
from .functionals import (  # noqa: F401  perfbench/tracer.py wraps cke_residual here
    EnergyLedger,
    _row_residual,
    class_columns,
    cke_residual,
    ricci_potentials,
)
from .monge_ampere import BackgroundGeometry, cone_state, solve_tke

logger = logging.getLogger(__name__)

# Anderson history depth m; the history holds 2(m + 1) tuples.  Sweeps at
# the default tolerances, m = 3 -> m = 8:
#   neg-k2-stiff (1-d, A ~ 1e3, N = 64)          21 -> 11
#   k = 3, A = (1000, 1300, 800), 1-d, N = 32     61 -> 34
#   2-d, N = 32, A = 1e3 (I, [[2, .5], [.5, 1]])  29 -> 19
#   1-d, A = (1e4, 1.3e4), N = 32                 77 -> 48
# Runs that need at most six sweeps keep their counts.
ANDERSON_DEPTH = 8

# Inexact sweeps: the accelerated sweep from x solves every slice to
# max(tol_inner, INNER_TOL_RATIO * rho_max(x)), which keeps Anderson's local
# convergence (Toth, Kelley et al., SISC 2017).  Newton steps / Krylov
# applications at seed 0, exact -> INNER_TOL_RATIO = 1e-2:
#   gs2d-n128   (2-d, N = 128)                    14 / 64  ->  8 / 27
#   stiff1d-n64 (1-d, A ~ 1e3, N = 64)            44 / 125 -> 22 / 54
#   pos2d-n48   (2-d, lam = +1, N = 48)           48 / 302 -> 39 / 215
# pos2d-n48 starts with class 1 outside the cone; its first sweep solving
# to INNER_TOL_RATIO * 1.392 (the classes inside the cone, see run) instead
# of tol_inner:                                   39 / 215 -> 25 / 119
# The sweep counts stay at 3, 11 and 6.
INNER_TOL_RATIO = 1e-2

# Rounding slack of check_monotone.
_SLACK_COEF = 1e-9

# Rises of rho_max in a row that stop a plain run as diverging (see
# _diverging).  Plain Jacobi, k = 3, 1-d, N = 32, A = s (1, 1.3, 0.8)
# stops at sweep 4, 3, 3, 3 for s = 50, 100, 1e3, 1e4; no plain preset or
# workload rises in more than 2 sweeps in a row, or 4 below its first
# row's rho_max (pos2d-n48, Jacobi).
DIVERGING_RISES = 3


# The allowed values of each string setting of IterationConfig.
_CHOICES = {
    "mode": ("gauss_seidel", "jacobi"),
    "accel": ("anderson", "none"),
}


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real; booleans are not."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass
class IterationConfig:
    """The outer-iteration settings, declared and validated only here.

    ``tol_inner`` is the slice tolerance of every plain sweep and the floor
    of the inexact-sweep schedule of the accelerated run (see :func:`run`).
    Tolerances must be positive finite reals and are stored as float;
    the budget ``max_outer`` must be an integer >= 1; booleans are
    neither.  Every violation is collected into one ValidationError.
    """

    mode: str = "gauss_seidel"
    tol_fixed_point: float = 1e-8
    tol_inner: float = 1e-10
    max_outer: int = 200
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
        value = self.max_outer
        if isinstance(value, Integral) and _is_real(value) and value >= 1:
            self.max_outer = int(value)
        else:
            problems.append(f"max_outer must be a positive integer, got {value!r}")
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
        """rho_max of the tuple returned, read from the ledger's last row,
        which is that tuple's; NaN when the ledger is empty (the tuple
        returned is a start outside the cone)."""
        if self.ledger is None or not self.ledger.rows:
            return float("nan")
        return _row_residual(self.ledger.rows[-1])


def step_gauss_seidel(geom, psis, config: IterationConfig, tol_inner=None):
    """One sweep over the classes; returns (new tuple, total inner
    iterations, the ledger's :func:`class_columns` of each new class).

    In Gauss-Seidel mode each slice is coupled to the newest partners; in
    Jacobi mode (``config.mode == "jacobi"``) every slice reads its
    partners from the previous tuple.  Each slice is solved to
    ``tol_inner``, by default ``config.tol_inner``, and its columns are
    taken from the Hessian and density its solve ends with.  Every
    CoupledRicciError of a slice solve is re-raised with the failing class
    index attached as ``slice_index``; :func:`run` ends on the same class.
    """
    if tol_inner is None:
        tol_inner = config.tol_inner
    previous = np.asarray(psis, dtype=float)
    current = previous.copy()
    partners = previous if config.mode == "jacobi" else current
    inner_iters = 0
    classes = []
    for i in range(geom.k):
        g = partners.sum(axis=0) - partners[i]
        try:
            psi, report = solve_tke(
                geom, i, g, tol_inner=tol_inner, warm_start=current[i]
            )
        except CoupledRicciError as exc:
            exc.slice_index = i
            raise
        current[i] = psi
        inner_iters += report.newton_iterations
        classes.append(class_columns(
            geom.grid, geom.A[i], psi, report.hessian, report.density
        ))
        del report  # the next slice solve runs without this one's Hessian
    return current, inner_iters, classes


class _Anderson:
    """Type-II Anderson mixing of the sweep map G (Walker & Ni, 2011).

    Keeps the last ``ANDERSON_DEPTH + 1`` residuals f_j = G(x_j) - x_j and
    outputs G(x_j) of (k, grid) tuples; the outputs are held by reference,
    so the newest one is the sweep result itself.  Each residual is kept
    with its per-class mean removed: D and rho ignore per-class constants,
    but a least-squares fit does not, and at stiff A the constants
    dominate the fit.
    """

    def __init__(self):
        self.residuals = deque(maxlen=ANDERSON_DEPTH + 1)
        self.outputs = deque(maxlen=ANDERSON_DEPTH + 1)

    def push(self, x, gx) -> None:
        f = gx - x
        f -= f.mean(axis=tuple(range(1, f.ndim)), keepdims=True)
        self.residuals.append(f)
        self.outputs.append(gx)

    def restart(self) -> None:
        """Drop every pair but the newest."""
        for pairs in (self.residuals, self.outputs):
            newest = pairs[-1]
            pairs.clear()
            pairs.append(newest)

    def extrapolate(self):
        """G(x_j) - sum_a gamma_a (G(x_{a+1}) - G(x_a)), or None.

        gamma is the least-squares solution of sum_a gamma_a (f_{a+1} - f_a)
        = f_j, of minimum norm when the differences are dependent; None
        with fewer than two pairs or when every difference is zero.
        """
        f = self.residuals
        if len(f) < 2:
            return None
        diffs = np.empty((len(f) - 1, f[-1].size))
        for a, row in enumerate(diffs):
            np.subtract(f[a + 1].ravel(), f[a].ravel(), out=row)
        gamma, _, rank, _ = np.linalg.lstsq(diffs.T, f[-1].ravel(), rcond=None)
        if rank == 0:
            return None
        coef = np.diff(gamma, prepend=0.0, append=1.0)  # the weight of each G(x_a)
        ext = coef[-1] * self.outputs[-1]
        for c, gx in zip(coef[:-1], self.outputs):
            ext += c * gx
        return ext


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
    # back to sup 0 per class; D and the Ricci potentials do not change
    ext -= ext.max(axis=tuple(range(1, ext.ndim)), keepdims=True)
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


def _start(state):
    """Ledger terms and rho_max of the initial tuple, from one Hessian and
    one cone-checked density per class.

    When a class is outside the cone the terms are None, and rho_max is
    taken over the classes inside it, every class still entering the
    coupling weight; with no class inside, it is None too.
    """
    geom, psis = state.geom, state.psis
    grid = geom.grid
    states = [cone_state(grid, A, psi) for A, psi in zip(geom.A, psis)]
    densities = [dens for _, dens in states]
    inside = [dens is not None for dens in densities]
    if all(inside):
        terms = state.ledger.evaluate(geom, psis, [
            class_columns(grid, A, psi, hess, dens)
            for A, psi, (hess, dens) in zip(geom.A, psis, states)
        ])
        return terms, _row_residual(terms)
    logger.warning(
        "initial potentials for classes %s are outside the positivity "
        "cone; they are used for coupling only and the step-0 ledger "
        "row is skipped",
        [i + 1 for i, ok in enumerate(inside) if not ok],
    )
    if not any(inside):
        return None, None
    rhos = ricci_potentials(geom, psis, densities)
    return None, max(
        float(np.abs(rho).max()) for rho, ok in zip(rhos, inside) if ok
    )


def _diverging(rows) -> str | None:
    """The stop reason of a ledger whose rho_max rose in each of the last
    DIVERGING_RISES sweeps to above its first row's, else None."""
    if len(rows) <= DIVERGING_RISES:
        return None
    rho = [_row_residual(row) for row in rows[-DIVERGING_RISES - 1:]]
    first = _row_residual(rows[0])
    if not (all(a < b for a, b in zip(rho, rho[1:])) and rho[-1] > first):
        return None
    return (
        f"diverging: rho_max grew from {first:.3g} to {rho[-1]:.3g} over "
        f"{rows[-1]['step'] - rows[0]['step']} sweeps"
    )


def run(geom: BackgroundGeometry, config: IterationConfig | None = None,
        init=None) -> IterationState:
    """Iterate the coupled system until the Ricci potentials vanish.

    ``init`` may be any finite tuple of fields.  Non-admissible initial
    slices are accepted: they still drive the coupling sums, but the
    first inner solve of such a slice starts from zero instead of the
    warm start, and no step-0 ledger row is written because the
    energies are undefined outside the cone.  Each tuple is evaluated
    once, by ``EnergyLedger.evaluate``, for the Anderson safeguard, the
    stopping test and the ledger row: the start from one Hessian per
    class, which also gives its cone test, and a sweep output from the
    Hessians and densities its slice solves end with.  Each tuple taken
    gets its row at once, so the ledger ends with the row of the tuple
    returned, which ``final_rho_max`` reads, unless that tuple is a start
    outside the cone.
    With ``accel="anderson"`` the sweep from x solves its slices to
    max(tol_inner, INNER_TOL_RATIO * rho_max(x)), rho_max(x) read from the
    terms of x, so ``tol_inner`` is the floor of that schedule.  From a
    start with classes outside the cone, rho_max(x) is the largest sup
    |rho_i(x)| over the classes inside it, rho_i the Ricci potential
    whose coupling weight sums every class; a start with no class inside
    the cone, and every sweep with ``accel="none"``, solves to
    ``tol_inner``.  The stopping test is rho_max <= ``tol_fixed_point``
    on the tuple taken.
    A sweep that takes no Newton step while rho_max is above
    ``tol_fixed_point`` would repeat forever, so its row is written and
    the run stops as ``"stalled"``.  A plain run (``accel="none"``) whose
    ledger rows rise as :func:`_diverging` describes stops as
    ``"diverging"``: plain Jacobi with k >= 3 is no contraction at stiff A.
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

    state = IterationState(
        geom=geom, config=config, psis=psis, ledger=EnergyLedger(geom.k)
    )

    t_start = time.perf_counter()
    terms, residual = _start(state)
    if terms is not None:
        state.ledger.record_state(terms, step=0, inner_iters=0, wall_ms=0.0)

    history = _Anderson() if config.accel == "anderson" else None
    while terms is None or residual > config.tol_fixed_point:
        if state.step == config.max_outer:
            state.reason = "max_outer"
            break
        step = state.step + 1
        t_step = time.perf_counter()
        tol_inner = config.tol_inner
        if history is not None and residual is not None:
            tol_inner = max(tol_inner, INNER_TOL_RATIO * residual)
        try:
            swept, inner_iters, classes = step_gauss_seidel(
                geom, psis, config, tol_inner
            )
        except CoupledRicciError as exc:
            state.reason = f"inner_failure: {type(exc).__name__}: {exc}"
            state.error = exc
            state.step = step
            break
        terms = state.ledger.evaluate(geom, swept, classes)
        del classes  # its densities are not held through the next sweep
        if history is not None:
            swept, terms = _accelerate(state, history, psis, swept, terms)
        psis = state.psis = swept
        state.step = step
        residual = _row_residual(terms)
        state.ledger.record_state(
            terms, step, inner_iters, (time.perf_counter() - t_step) * 1e3
        )
        # a sweep without a Newton step maps the tuple to itself
        if inner_iters == 0 and residual > config.tol_fixed_point:
            state.reason = (
                f"stalled: a sweep took no Newton step at rho_max "
                f"{residual:.3g} > tol_fixed_point {config.tol_fixed_point:g}; "
                f"tol_inner {tol_inner:g} allows no smaller residual"
            )
            break
        if history is None:
            diverging = _diverging(state.ledger.rows)
            if diverging is not None:
                state.reason = diverging
                break
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

    @property
    def ok(self) -> bool:
        return not self.violations


def check_monotone(ledger: EnergyLedger) -> MonotoneReport:
    """Check that D descends along the ledger up to rounding slack.

    A transition from D_prev to D_next is a violation when
    D_next > D_prev + _SLACK_COEF * (1 + |D_prev|).
    """
    report = MonotoneReport()
    dvals = ledger.column("D")
    steps = ledger.column("step")
    for idx in range(1, len(dvals)):
        allowed = _SLACK_COEF * (1.0 + abs(dvals[idx - 1]))
        if dvals[idx] - dvals[idx - 1] > allowed:
            report.violations.append(
                (int(steps[idx]), float(dvals[idx - 1]), float(dvals[idx]), allowed)
            )
    return report
