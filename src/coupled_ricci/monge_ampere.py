"""Discrete Monge-Ampere densities and the twisted slice solvers.

The density of a potential averages the determinants of the two
one-sided Hessian variants on 2-d grids (a single variant in 1-d).
Admissibility means every variant matrix is positive definite at every
grid point; solvers keep their iterates strictly inside that cone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.fft import irfftn, rfftn

from .errors import (
    ContinuityBreakdown,
    NoConvergence,
    NonAdmissible,
    NonAdmissibleStep,
    ValidationError,
)
from .grid import HessianField, PeriodicGrid, _is_int, hessian

logger = logging.getLogger(__name__)

_MAX_HALVINGS = 50
# Newton steps allowed to a direct attempt and to each rung of a path in t
_NEWTON_STEPS = 20

# GMRES settings of the Newton linear solve: one cycle of at most
# _KRYLOV_STEPS steps.  It stops when the residual meets the looser of a
# relative tolerance and an absolute floor of
# _KRYLOV_ATOL_FACTOR * tol * sqrt(P), tol being the Newton tolerance:
# on fine 2-d grids the linear residual rounds at h^-2 scale, above any
# floor that small.  The relative tolerance is the inexact-Newton forcing
# term (Eisenstat & Walker 1996): the sup norm of the residual GMRES
# solves, clipped to [_KRYLOV_RTOL, _FORCING_MAX], which keeps the local
# convergence quadratic.
_KRYLOV_RTOL = 1e-10
_FORCING_MAX = 0.1
_KRYLOV_ATOL_FACTOR = 0.01
_KRYLOV_STEPS = 100


# ---------------------------------------------------------------------------
# background data


def class_matrix_problem(mat) -> str | None:
    """Why ``mat`` is no finite symmetric positive-definite matrix whose
    determinant is a positive finite float, or None."""
    if not np.all(np.isfinite(mat)):
        return "has non-finite entries"
    if not np.allclose(mat, mat.T, rtol=1e-12, atol=0.0):
        return "is not symmetric"
    if np.linalg.eigvalsh(mat).min() <= 0.0:
        return "is not positive definite"
    with np.errstate(over="ignore"):  # an overflowing det reads inf
        volume = float(np.linalg.det(mat))
    if not 0.0 < volume < np.inf:
        return f"has class volume det = {volume:g}, not a positive finite float"
    return None


@dataclass(frozen=True)
class BackgroundGeometry:
    """Problem data: grid, sign lam, class matrices A_i, and density f.

    ``A`` has shape (k, n, n) with each class matrix symmetric positive
    definite; ``f`` is a strictly positive field on the grid.
    """

    grid: PeriodicGrid
    lam: int
    A: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        problems = []
        if not _is_int(self.lam) or self.lam not in (-1, 1):
            problems.append(f"lambda must be -1 or +1, got {self.lam}")
        n = self.grid.n
        if self.A.ndim != 3 or self.A.shape[1:] != (n, n):
            problems.append(
                f"A must have shape (k, {n}, {n}), got {self.A.shape}"
            )
        elif self.A.shape[0] < 1:
            problems.append("at least one class matrix is required")
        else:
            for i, mat in enumerate(self.A):
                problem = class_matrix_problem(mat)
                if problem:
                    problems.append(f"A_{i + 1} {problem}")
        if self.f.shape != self.grid.shape:
            problems.append(
                f"f has shape {self.f.shape}, expected {self.grid.shape}"
            )
        elif not np.all(np.isfinite(self.f)):
            problems.append("f contains non-finite values")
        elif self.f.min() <= 0.0:
            problems.append(f"f must be positive, min value {self.f.min()}")
        if problems:
            raise ValidationError(problems)

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @cached_property
    def volumes(self) -> np.ndarray:
        """Class volumes det(A_i); conserved by the density integral."""
        vols = np.array([float(np.linalg.det(mat)) for mat in self.A])
        vols.setflags(write=False)  # one cached array serves every caller
        return vols

    @cached_property
    def log_f(self) -> np.ndarray:
        """log f, cached read-only like ``volumes``."""
        log_f = np.log(self.f)
        log_f.setflags(write=False)
        return log_f

    def coupling(self, total):
        """(log w, log Z) of w = exp(-lam * total) * f and its integral Z,
        summed relative to max w: finite where w or Z leaves the float range."""
        log_w = self.log_f - self.lam * total
        top = float(log_w.max())
        return log_w, top + math.log(self.grid.integrate(np.exp(log_w - top)))


# ---------------------------------------------------------------------------
# densities and admissibility


def _variant_dets(grid, A, hess: HessianField):
    """Determinants of A + H for each one-sided Hessian variant."""
    if grid.n == 1:
        return [A[0, 0] + hess.diag[0]]
    m00 = A[0, 0] + hess.diag[0]
    m11 = A[1, 1] + hess.diag[1]
    dets = []
    for q in (hess.mixed_plus, hess.mixed_minus):
        off = A[0, 1] + q
        dets.append(m00 * m11 - off * off)
    return dets


def ma_density(grid, A, psi) -> np.ndarray:
    """Discrete Monge-Ampere density det(A + D^2 psi).

    On 2-d grids this is the average of the two one-sided variant
    determinants.  The value can be negative for non-admissible fields;
    use :func:`is_admissible` to test cone membership.
    """
    A = np.asarray(A, dtype=float)
    dets = _variant_dets(grid, A, hessian(grid, psi))
    return sum(dets) / len(dets)


def _cone_density(grid, A, hess: HessianField):
    """ma_density from one determinant evaluation, or None outside the cone.

    By Sylvester's criterion a variant matrix A + H is positive definite
    when A[0,0] + H_00 and its determinant are positive; NaN fails.
    """
    dets = _variant_dets(grid, A, hess)
    minors = dets if grid.n == 1 else [A[0, 0] + hess.diag[0], *dets]
    if not all(bool((m > 0.0).all()) for m in minors):
        return None
    return sum(dets) / len(dets)


def cone_state(grid, A, psi):
    """(Hessian, ma_density) of one potential; the density is None
    outside the cone."""
    hess = hessian(grid, psi)
    return hess, _cone_density(grid, A, hess)


def _admissible_density(grid, A, hess):
    """ma_density of an admissible potential; NonAdmissible otherwise."""
    dens = _cone_density(grid, A, hess)
    if dens is None:
        raise NonAdmissible("the potential is outside the positivity cone")
    return dens


def is_admissible(grid, A, psi) -> bool:
    """Whether every variant matrix A + H is positive definite everywhere."""
    return cone_state(grid, np.asarray(A, dtype=float), psi)[1] is not None


@dataclass
class SolveReport:
    """Outcome record of one twisted slice solve.

    ``damping_factors`` and ``krylov_iterations`` hold one entry per
    Newton step: the accepted line-search factor, and the preconditioner
    applications of that step's GMRES solve, one per Arnoldi step.  These
    two lists and ``newton_iterations`` span all rungs of the path in t,
    and ``continuity_trace`` lists (t, Newton steps) per rung, the last at
    t = lam; the ``residual_history`` holds the last rung only.
    ``hessian`` and ``density`` are the Hessian and ma_density of the final
    Newton iterate, as of the last rung; the shift to sup 0 changes them
    only by rounding, so they serve as those of the returned psi.  Report
    equality leaves them out.
    """

    damping_factors: list = field(default_factory=list)
    residual: float = float("nan")
    continuity_trace: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    c: float = float("nan")
    krylov_iterations: list = field(default_factory=list)
    hessian: HessianField | None = field(default=None, compare=False, repr=False)
    density: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def newton_iterations(self) -> int:
        """Newton steps taken, one per damping factor."""
        return len(self.damping_factors)

    def append_rung(self, t, rung: SolveReport) -> None:
        """Fold the report of the continuity rung at ``t`` into this one."""
        self.damping_factors.extend(rung.damping_factors)
        self.krylov_iterations.extend(rung.krylov_iterations)
        self.residual_history = rung.residual_history
        self.hessian, self.density = rung.hessian, rung.density
        self.continuity_trace.append((t, rung.newton_iterations))


# ---------------------------------------------------------------------------
# the assembled reference, loaded on first use

def __getattr__(name):
    """Import ``_sparse_reference``, and with it scipy, on the first lookup
    of ``log_ma_linearization`` or ``spsolve`` here (PEP 562).

    Binds both names in this module and removes this hook, so the load
    runs once and a binding deleted afterwards stays deleted.
    """
    if name not in ("log_ma_linearization", "spsolve"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _sparse_reference

    namespace = globals()
    namespace.update(
        log_ma_linearization=_sparse_reference.log_ma_linearization,
        spsolve=_sparse_reference.spsolve,
    )
    del namespace["__getattr__"]
    return namespace[name]


# ---------------------------------------------------------------------------
# matrix-free Newton systems


def _newton_operators(grid, A, hess, dens, t):
    """Matrix-free bordered Newton matrix and its FFT preconditioner.

    L is log_ma_linearization at the field with Hessian ``hess`` and
    density ``dens``.  The matrix is the rung matrix [[L + t*I, -1],
    [1^T/P, 0]] acting on (delta_u, delta_s), with L + t*I applied as one
    variable-coefficient stencil: a weight field per offset, 1/h^2 and t
    folded in.  The offsets are the centre and the taps of
    :func:`hessian`: +-1 in 1-d; +-e_1, +-e_2, (1, 1) and (-1, -1) in 2-d.

    The preconditioner inverts the Fourier symbol of the same stencil with
    grid-mean weights.  The zero Fourier mode and s form the 2-by-2 block
    [[t, -1], [1, 0]], which is invertible for every t.  Returns the
    functions (matvec, psolve) on flat arrays of size P + 1.
    """
    shape = grid.shape
    P = grid.num_points
    axes = tuple(range(grid.n))
    zero_mode = (0,) * grid.n
    inv = 1.0 / (dens * grid.h**2)
    if grid.n == 1:
        weights = {(0,): t - 2.0 * inv, (1,): inv, (-1,): inv}
    else:
        c0 = (A[1, 1] + hess.diag[1]) * inv
        c1 = (A[0, 0] + hess.diag[0]) * inv
        cp = -(A[0, 1] + hess.mixed_plus) * inv
        cm = -(A[0, 1] + hess.mixed_minus) * inv
        weights = {
            (0, 0): t + cp + cm - 2.0 * (c0 + c1),
            (1, 0): c0 - cp, (-1, 0): c0 - cm,
            (0, 1): c1 - cp, (0, -1): c1 - cm,
            (1, 1): cp, (-1, -1): cm,
        }

    # With grid-mean weights the stencil is a circular convolution, so its
    # Fourier symbol is the transform of its response to a unit impulse.
    # The grid means of the coefficients of an admissible field form a
    # positive semidefinite matrix, so the real part of the symbol is <= t
    # and it vanishes off the zero mode only for some t > 0.
    response = np.zeros(shape)
    for offset, weight in weights.items():
        response[tuple(-step for step in offset)] = weight.mean()
    denom = rfftn(response)
    denom[zero_mode] = 1.0
    inv_symbol = 1.0 / denom
    inv_symbol[zero_mode] = 0.0

    centre = weights.pop(zero_mode)
    taps = [
        (weight, tuple(slice(1 + step, grid.N + 1 + step) for step in offset))
        for offset, weight in weights.items()
    ]
    halo = np.empty((grid.N + 2,) * grid.n)
    product = np.empty(shape)

    def matvec(x):
        v = x[:P].reshape(shape)
        grid.pad(v, halo)
        out = np.empty(P + 1)
        acc = out[:P].reshape(shape)
        np.multiply(centre, v, out=acc)
        for weight, tap in taps:
            np.multiply(weight, halo[tap], out=product)
            acc += product
        acc -= x[P]
        out[P] = v.sum() / P
        return out

    def psolve(x):
        r = x[:P].reshape(shape)
        out = np.empty(P + 1)
        inv_r = irfftn(rfftn(r) * inv_symbol, s=shape, axes=axes)
        out[:P] = (inv_r + x[P]).ravel()
        out[P] = t * x[P] - r.sum() / P
        return out

    return matvec, psolve


def _krylov_solve(matvec, psolve, b, rtol, atol):
    """One cycle of flexible GMRES, started from x = 0.

    Solves A x = b for the operator ``matvec`` with the right
    preconditioner ``psolve`` (Saad 1993).  Step j stores the Arnoldi
    vector v_j and z_j = psolve(v_j) side by side, orthogonalises
    A z_j by classical Gram-Schmidt applied twice, and tracks the
    least-squares residual |g| with Givens rotations.  The solve stops when
    |g| meets max(rtol*||b||, atol), or after _KRYLOV_STEPS steps; the
    iterate x = sum_j y_j z_j takes no further ``psolve`` or ``matvec``.
    Returns (x, converged, Arnoldi steps).
    """
    beta = float(np.linalg.norm(b))
    target = max(rtol * beta, atol)
    if beta <= target:
        return np.zeros_like(b), True, 0
    m = _KRYLOV_STEPS
    # v_j and z_j side by side in one block, so the pages a solve touches
    # lie together at its front and the next solve reuses them
    pairs = np.empty((m + 1, 2, b.size))
    basis, directions = pairs[:, 0], pairs[:, 1]
    rot = np.zeros((m, m))  # the rotated Hessenberg matrix, upper triangular
    eps = np.finfo(float).eps
    np.divide(b, beta, out=basis[0])
    g = [beta]
    cos, sin = [], []
    for j in range(m):
        directions[j] = psolve(basis[j])
        w = matvec(directions[j])
        w_norm = np.linalg.norm(w)
        done = basis[: j + 1]
        col = done @ w
        w -= col @ done
        again = done @ w
        w -= again @ done
        col += again
        h_next = float(np.linalg.norm(w))
        col = col.tolist()
        for i in range(j):
            upper, lower = col[i], col[i + 1]
            col[i] = cos[i] * upper + sin[i] * lower
            col[i + 1] = cos[i] * lower - sin[i] * upper
        diag = math.hypot(col[j], h_next)
        cos.append(col[j] / diag)
        sin.append(h_next / diag)
        col[j] = diag
        rot[: j + 1, j] = col
        g.append(-sin[j] * g[j])
        g[j] *= cos[j]
        if abs(g[j + 1]) <= target or h_next <= eps * w_norm:
            break
        np.divide(w, h_next, out=basis[j + 1])
    k = j + 1
    y = np.linalg.solve(rot[:k, :k], g[:k])
    return y @ directions[:k], abs(g[k]) <= target, k


def _newton_direction(grid, A, hess, dens, res, tol, t, mean, rtol):
    """Newton direction by FFT-preconditioned GMRES.

    Solves the system of :func:`_newton_operators` for the right-hand
    side -(res, mean) to the relative tolerance ``rtol``, with an
    absolute floor set by the Newton tolerance ``tol``.  Returns
    (delta_u, delta_s, krylov_iterations); raises NoConvergence rather
    than return an unconverged direction.
    """
    matvec, psolve = _newton_operators(grid, A, hess, dens, t)
    P = grid.num_points
    rhs = -np.append(res.ravel(), mean)
    sol, converged, steps = _krylov_solve(
        matvec, psolve, rhs, rtol, _KRYLOV_ATOL_FACTOR * tol * np.sqrt(P)
    )
    if not converged:
        reached = np.linalg.norm(rhs - matvec(sol)) / np.linalg.norm(rhs)
        raise NoConvergence(
            f"Newton linear solve (GMRES) did not converge after "
            f"{steps} preconditioned iterations; relative "
            f"residual {reached:.3e}"
        )
    return sol[:P].reshape(grid.shape), float(sol[P]), steps


# ---------------------------------------------------------------------------
# damped Newton driver


def _line_search(grid, A, u, s, delta, delta_s, res_norm, residual):
    """Backtrack until the iterate stays admissible and the residual drops.

    Returns the accepted (u, s, hess, dens, res, norm, alpha).
    """
    alpha = 1.0
    saw_admissible = False
    for _ in range(_MAX_HALVINGS):
        cand = u + alpha * delta
        hess, dens = cone_state(grid, A, cand)
        if dens is not None:
            saw_admissible = True
            cand_s = s + alpha * delta_s
            res = residual(cand, cand_s, dens)
            norm = float(np.abs(res).max())
            if norm <= (1.0 - 0.25 * alpha) * res_norm:
                return cand, cand_s, hess, dens, res, norm, alpha
        alpha *= 0.5
    if not saw_admissible:
        raise NonAdmissibleStep(
            "no damping factor keeps the Newton iterate admissible"
        )
    raise NoConvergence("Newton line search failed to reduce the residual")


def _damped_newton(grid, A, rhs, tol, phi0, t, s0=None):
    """Damped Newton for one slice equation in log form,

        log ma_density(A, u) + t*u - rhs - s = 0,  mean u = 0,

    over (u, s).  u starts at ``phi0`` minus its mean and s at ``s0``;
    with ``s0`` None, s starts at the mean of the residual at s = 0.
    t = -1 is the lam=-1 slice equation, s its compatibility constant;
    t in [0, 1] are the rungs of the lam=+1 continuity path.  Raises
    NonAdmissible when ``phi0`` is outside the cone.  Returns
    (u, s, SolveReport), the report holding the Hessian and density of u.
    """
    u = np.asarray(phi0, dtype=float)
    u = u - u.mean()
    hess = hessian(grid, u)
    dens = _admissible_density(grid, A, hess)

    def residual(cand, cand_s, cand_dens):
        return np.log(cand_dens) + t * cand - rhs - cand_s

    s = float(residual(u, 0.0, dens).mean()) if s0 is None else float(s0)
    res = residual(u, s, dens)
    norm = float(np.abs(res).max())
    history = [norm]
    dampings = []
    krylov = []
    while norm > tol:
        if len(dampings) == _NEWTON_STEPS:
            raise NoConvergence(
                f"Newton stalled at residual {norm:.3e} after "
                f"{_NEWTON_STEPS} iterations"
            )
        forcing = float(np.clip(norm, _KRYLOV_RTOL, _FORCING_MAX))
        delta, delta_s, its = _newton_direction(
            grid, A, hess, dens, res, tol, t, u.mean(), rtol=forcing
        )
        krylov.append(its)
        u, s, hess, dens, res, norm, alpha = _line_search(
            grid, A, u, s, delta, delta_s, norm, residual
        )
        dampings.append(alpha)
        history.append(norm)
    report = SolveReport(
        damping_factors=dampings, residual_history=history,
        krylov_iterations=krylov, hessian=hess, density=dens,
    )
    return u, s, report


# ---------------------------------------------------------------------------
# public slice solvers


def _finalize(geom, g, u, tol_inner, report):
    """Shift u to sup 0, recompute c and record the residual.

    The density is the report's, that of the final Newton iterate u; c
    reads inf or 0.0 where it leaves the float range.
    """
    psi = u - float(u.max())
    log_w, log_z = geom.coupling(psi + g)
    log_c = math.log(geom.grid.integrate(report.density)) - log_z
    residual = float(np.abs(np.log(report.density) - log_c - log_w).max())
    if residual > tol_inner:
        raise NoConvergence(
            f"slice residual {residual:.3e} above tol_inner {tol_inner:.3e} "
            "after constant compatibility update"
        )
    report.residual = residual
    with np.errstate(over="ignore"):
        report.c = float(np.exp(log_c))
    return psi, report


def _follow_path(geom, index, g, start, t, tol_inner):
    """Solve the rung at ``t`` from ``start``, then walk the rungs to t = lam.

    The right-hand side stays fixed and only the zeroth-order coefficient
    moves with t.  Each rung solves

        log ma_density(A_i, phi) + t * phi = log f - lam * g + s,  mean phi = 0,

    for (phi, s) to 0.25 * ``tol_inner``; the rung at t = lam is the slice
    equation, whose s takes log c.  The first rung starts s at the mean
    residual and each later rung at the previous (phi, s).  The step in t
    starts at 0.1, doubles after success (capped at 0.25), halves on
    failure, and aborts with ContinuityBreakdown below 1e-4.  Returns
    (psi, SolveReport) after :func:`_finalize`.
    """
    grid = geom.grid
    A = geom.A[index]
    g = np.asarray(g, dtype=float)
    if g.shape != grid.shape:
        raise ValueError("coupling field g has wrong shape")
    if not np.all(np.isfinite(g)):
        raise ValueError("coupling field g must be finite")
    rhs = geom.log_f - geom.lam * g
    inner_tol = 0.25 * tol_inner

    t_cur, t_end = float(t), float(geom.lam)
    phi, s, rung = _damped_newton(grid, A, rhs, inner_tol, start, t_cur)
    report = SolveReport()
    report.append_rung(t_cur, rung)
    dt = 0.1
    while t_cur < t_end:
        t_try = min(t_end, t_cur + dt)
        try:
            phi, s, rung = _damped_newton(
                grid, A, rhs, inner_tol, phi, t_try, s0=s
            )
        except (NoConvergence, NonAdmissibleStep):
            dt *= 0.5
            if dt < 1e-4:
                raise ContinuityBreakdown(
                    f"continuity path for class {index + 1} stalled at "
                    f"t = {t_cur:.6f} with step below 1e-4",
                    last_good_t=t_cur,
                    trace=report.continuity_trace,
                )
            continue
        t_cur = t_try
        report.append_rung(t_try, rung)
        dt = min(dt * 2.0, 0.25)
    return _finalize(geom, g, phi, tol_inner, report)


def solve_tke(geom, index, g, *, tol_inner=1e-10, warm_start=None):
    """Solve one twisted slice equation for class ``index``.

    The equation in the density form is

        ma_density(A_i, psi) = c * exp(-lam * (psi + g)) * f,

    solved in log form to the sup-norm tolerance ``tol_inner``.  The
    constant c is recomputed from the exact volume compatibility
    identity before the final residual is recorded.  A warm start gets
    one direct attempt at t = lam of at most _NEWTON_STEPS Newton steps;
    if it lies outside the cone or that attempt fails, the slice is
    solved from zero by :func:`continuity_solve`.  For lam = -1 an
    all-zero warm start is where that solve starts, so it goes there at
    once.  Returns (psi, SolveReport), psi shifted to max psi = 0.
    """
    if warm_start is not None and (geom.lam == 1 or np.any(warm_start)):
        try:
            return _follow_path(geom, index, g, warm_start, geom.lam, tol_inner)
        except (NonAdmissible, NoConvergence, NonAdmissibleStep):
            logger.debug(
                "direct solve from the warm start failed for class %d; "
                "solving from zero along the continuity path",
                index + 1,
            )
    return continuity_solve(geom, index, g, tol_inner=tol_inner)


def continuity_solve(geom, index, g, *, tol_inner=1e-10):
    """Solve the slice equation from zero along the parameter path in t.

    The path starts at t = min(lam, 0) and ends at t = lam: for lam = -1
    it is the single rung t = -1, the slice equation itself; for lam = +1
    it starts at t = 0, the Calabi-Yau-type equation, and walks the rungs
    of :func:`_follow_path` up to t = 1, each rung allowed _NEWTON_STEPS
    Newton steps.
    """
    return _follow_path(
        geom, index, g, np.zeros(geom.grid.shape), min(geom.lam, 0), tol_inner
    )
