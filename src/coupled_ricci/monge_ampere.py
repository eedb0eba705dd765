"""Discrete Monge-Ampere densities and the twisted slice solvers.

The density of a potential averages the determinants of the two
one-sided Hessian variants on 2-d grids (a single variant in 1-d).
Admissibility means every variant matrix is positive definite at every
grid point; solvers keep their iterates strictly inside that cone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import gmres, spsolve

from .errors import (
    ContinuityBreakdown,
    NoConvergence,
    NonAdmissible,
    NonAdmissibleStep,
    ValidationError,
)
from .grid import HessianField, PeriodicGrid, hessian

logger = logging.getLogger(__name__)

_MAX_HALVINGS = 50

# GMRES settings of the Newton linear solve.  It stops at the looser of a
# relative tolerance and an absolute floor of _KRYLOV_ATOL_FACTOR * tol *
# sqrt(P), tol being the Newton tolerance: on fine 2-d grids the linear
# residual rounds at h^-2 scale, above any floor that small.  The relative
# tolerance is the inexact-Newton forcing term (Eisenstat & Walker 1996):
# the sup norm of the residual GMRES solves, clipped to [_KRYLOV_RTOL,
# _FORCING_MAX], which keeps the local convergence quadratic.
_KRYLOV_RTOL = 1e-10
_FORCING_MAX = 0.1
_KRYLOV_ATOL_FACTOR = 0.01
_KRYLOV_RESTART = 50
_KRYLOV_MAXITER = 10


# ---------------------------------------------------------------------------
# background data


def class_matrix_problem(mat) -> str | None:
    """Why ``mat`` is no finite symmetric positive-definite matrix, or None."""
    if not np.all(np.isfinite(mat)):
        return "has non-finite entries"
    if not np.allclose(mat, mat.T, rtol=1e-12, atol=0.0):
        return "is not symmetric"
    if np.linalg.eigvalsh(mat).min() <= 0.0:
        return "is not positive definite"
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
        if self.lam not in (-1, 1):
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


def ma_density(grid, A, psi=None, hess=None) -> np.ndarray:
    """Discrete Monge-Ampere density det(A + D^2 psi).

    On 2-d grids this is the average of the two one-sided variant
    determinants.  The value can be negative for non-admissible fields;
    use :func:`is_admissible` to test cone membership.
    """
    A = np.asarray(A, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    dets = _variant_dets(grid, A, hess)
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


def is_admissible(grid, A, psi=None, hess=None) -> bool:
    """Whether every variant matrix A + H is positive definite everywhere."""
    A = np.asarray(A, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    return _cone_density(grid, A, hess) is not None


@dataclass
class SolveReport:
    """Outcome record of one twisted slice solve.

    ``damping_factors`` and ``krylov_iterations`` hold one entry per
    Newton step: the accepted line-search factor, and the preconditioner
    applications of that step's GMRES solve.  On a continuity path these
    two lists and ``newton_iterations`` span all rungs, and
    ``continuity_trace`` lists (t, Newton steps) per rung; the
    ``residual_history`` holds the last rung only.
    """

    newton_iterations: int = 0
    damping_factors: list = field(default_factory=list)
    residual: float = float("nan")
    continuity_trace: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    c: float = float("nan")
    krylov_iterations: list = field(default_factory=list)

    def append_rung(self, t, rung: SolveReport) -> None:
        """Fold the report of the continuity rung at ``t`` into this one."""
        self.newton_iterations += rung.newton_iterations
        self.damping_factors.extend(rung.damping_factors)
        self.krylov_iterations.extend(rung.krylov_iterations)
        self.residual_history = rung.residual_history
        self.continuity_trace.append((t, rung.newton_iterations))


# ---------------------------------------------------------------------------
# sparse stencil operators

_SHIFT_CACHE: dict = {}


def _shift_matrix(grid: PeriodicGrid, offset) -> sp.csr_matrix:
    """Sparse matrix of u(x) -> u(x + offset) on the flat C-ordered field."""
    key = (grid.n, grid.N, tuple(offset))
    cached = _SHIFT_CACHE.get(key)
    if cached is not None:
        return cached
    idx = np.arange(grid.num_points).reshape(grid.shape)
    cols = idx
    for axis, step in enumerate(offset):
        cols = np.roll(cols, -step, axis=axis)
    mat = sp.csr_matrix(
        (
            np.ones(grid.num_points),
            (idx.ravel(), cols.ravel()),
        ),
        shape=(grid.num_points, grid.num_points),
    )
    _SHIFT_CACHE[key] = mat
    return mat


def _stencil_matrix(grid, terms) -> sp.csr_matrix:
    out = None
    for offset, coeff in terms:
        piece = coeff * _shift_matrix(grid, offset)
        out = piece if out is None else out + piece
    return (out / grid.h**2).tocsr()


def _operator_matrices(grid: PeriodicGrid) -> dict:
    """Second-difference and skew-mixed stencils as sparse matrices."""
    key = ("ops", grid.n, grid.N)
    cached = _SHIFT_CACHE.get(key)
    if cached is not None:
        return cached
    ops = {}
    if grid.n == 1:
        ops["d0"] = _stencil_matrix(grid, [((1,), 1.0), ((-1,), 1.0), ((0,), -2.0)])
    else:
        ops["d0"] = _stencil_matrix(
            grid, [((1, 0), 1.0), ((-1, 0), 1.0), ((0, 0), -2.0)]
        )
        ops["d1"] = _stencil_matrix(
            grid, [((0, 1), 1.0), ((0, -1), 1.0), ((0, 0), -2.0)]
        )
        ops["qp"] = _stencil_matrix(
            grid,
            [((1, 1), 1.0), ((1, 0), -1.0), ((0, 1), -1.0), ((0, 0), 1.0)],
        )
        ops["qm"] = _stencil_matrix(
            grid,
            [((0, 0), 1.0), ((-1, 0), -1.0), ((0, -1), -1.0), ((-1, -1), 1.0)],
        )
    _SHIFT_CACHE[key] = ops
    return ops


def log_ma_linearization(grid, A, psi=None, hess=None) -> sp.csr_matrix:
    """Sparse derivative of log ma_density at the given admissible field.

    This is the operator L in the Newton systems; it annihilates
    constants and is negative semidefinite on admissible backgrounds.
    """
    A = np.asarray(A, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    dens = ma_density(grid, A, hess=hess)
    if dens.min() <= 0.0:
        raise NonAdmissible("cannot linearize at a non-admissible field")
    ops = _operator_matrices(grid)
    inv = (1.0 / dens).ravel()
    if grid.n == 1:
        return (sp.diags(inv) @ ops["d0"]).tocsr()
    m00 = (A[0, 0] + hess.diag[0]).ravel()
    m11 = (A[1, 1] + hess.diag[1]).ravel()
    qp = (A[0, 1] + hess.mixed_plus).ravel()
    qm = (A[0, 1] + hess.mixed_minus).ravel()
    mat = (
        sp.diags(inv * m11) @ ops["d0"]
        + sp.diags(inv * m00) @ ops["d1"]
        - sp.diags(inv * qp) @ ops["qp"]
        - sp.diags(inv * qm) @ ops["qm"]
    )
    return mat.tocsr()


# ---------------------------------------------------------------------------
# assembled Newton reference


def newton_step(grid, A, lam, rhs, phi, s=0.0, t=1.0):
    """One Newton direction for the log-form slice residual.

    For lam=-1 the unknown is the unnormalized potential phi with
    residual log ma_density(A, phi) - phi - rhs; the multiplicative
    constant is absorbed into phi, which eliminates it in closed form.
    Returns (delta_phi, 0.0, predicted_residual).

    For lam=+1 the residual is log ma_density + t*phi - rhs - s with the
    mean-zero constraint bordered in as an extra row and the constant s
    as the matching extra unknown.  Returns (delta_phi, delta_s,
    predicted_residual).
    """
    phi = np.asarray(phi, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    hess = hessian(grid, phi)
    if not is_admissible(grid, A, hess=hess):
        raise NonAdmissible("newton_step requires an admissible iterate")
    dens = ma_density(grid, A, hess=hess)
    lin = log_ma_linearization(grid, A, hess=hess)
    P = grid.num_points
    if lam == -1:
        res = np.log(dens) - phi - rhs
        jac = (lin - sp.identity(P)).tocsc()
        delta = spsolve(jac, -res.ravel()).reshape(grid.shape)
        predicted = float(
            np.abs(res.ravel() + jac @ delta.ravel()).max()
        )
        return delta, 0.0, predicted
    if lam != 1:
        raise ValueError(f"lambda must be -1 or +1, got {lam}")
    res = np.log(dens) + t * phi - rhs - s
    ones = np.ones((P, 1))
    jac = sp.bmat(
        [
            [lin + t * sp.identity(P), -ones],
            [ones.T / P, None],
        ],
        format="csc",
    )
    full_res = np.concatenate([res.ravel(), [phi.mean()]])
    sol = spsolve(jac, -full_res)
    delta = sol[:P].reshape(grid.shape)
    delta_s = float(sol[P])
    predicted = float(np.abs(full_res + jac @ sol).max())
    return delta, delta_s, predicted


# ---------------------------------------------------------------------------
# matrix-free Newton systems


def _newton_operators(grid, A, hess, dens, t):
    """Matrix-free bordered Newton matrix, its FFT preconditioner and a counter.

    L is log_ma_linearization at the field with Hessian ``hess`` and
    density ``dens``, applied through ``grid.stencils``.  The matrix is
    the rung matrix [[L + t*I, -1], [1^T/P, 0]] acting on (delta_u,
    delta_s).

    The preconditioner inverts the Fourier symbol of the same stencils
    with grid-mean coefficients.  The zero Fourier mode and s form the
    2-by-2 block [[t, -1], [1, 0]], which is invertible for every t.  The
    one-element list returned last counts preconditioner applications.
    """
    shape = grid.shape
    P = grid.num_points
    axes = tuple(range(grid.n))
    zero_mode = (0,) * grid.n
    if grid.n == 1:
        coeffs = [1.0 / dens]
    else:
        coeffs = [
            (A[1, 1] + hess.diag[1]) / dens,
            (A[0, 0] + hess.diag[0]) / dens,
            -(A[0, 1] + hess.mixed_plus) / dens,
            -(A[0, 1] + hess.mixed_minus) / dens,
        ]

    def apply_L(v):
        return sum(c * d for c, d in zip(coeffs, grid.stencils(v)))

    # With grid-mean coefficients L is a circular convolution, so its
    # Fourier symbol is the transform of its response to a unit impulse.
    # The grid means of the coefficients of an admissible field form a
    # positive semidefinite matrix, so the real part of the symbol is
    # <= 0 and symbol + t vanishes off the zero mode only for some t > 0.
    impulse = np.zeros(shape)
    impulse[zero_mode] = 1.0
    symbol = np.fft.rfftn(
        sum(c.mean() * d for c, d in zip(coeffs, grid.stencils(impulse))),
        axes=axes,
    )
    denom = symbol + t
    denom[zero_mode] = 1.0
    inv_symbol = 1.0 / denom
    inv_symbol[zero_mode] = 0.0
    applications = [0]

    def matvec(x):
        v = x[:P].reshape(shape)
        out = np.empty(P + 1)
        out[:P] = (apply_L(v) + t * v).ravel() - x[P]
        out[P] = v.sum() / P
        return out

    def psolve(x):
        applications[0] += 1
        r = x[:P].reshape(shape)
        out = np.empty(P + 1)
        inv_r = np.fft.irfftn(np.fft.rfftn(r) * inv_symbol, s=shape, axes=axes)
        out[:P] = (inv_r + x[P]).ravel()
        out[P] = t * x[P] - r.sum() / P
        return out

    size = P + 1
    operator = spla.LinearOperator((size, size), matvec=matvec, dtype=float)
    preconditioner = spla.LinearOperator((size, size), matvec=psolve, dtype=float)
    return operator, preconditioner, applications


def _newton_direction(grid, A, hess, dens, res, tol, t, mean,
                      rtol=_KRYLOV_RTOL):
    """Newton direction by FFT-preconditioned GMRES.

    Solves the system of :func:`_newton_operators` for the right-hand
    side -(res, mean) to the relative tolerance ``rtol``, with an
    absolute floor set by the Newton tolerance ``tol``.  Returns
    (delta_u, delta_s, krylov_iterations); raises NoConvergence rather
    than return an unconverged direction.
    """
    operator, preconditioner, applications = _newton_operators(
        grid, A, hess, dens, t
    )
    P = grid.num_points
    rhs = -np.append(res.ravel(), mean)
    sol, info = gmres(
        operator, rhs,
        rtol=rtol,
        atol=_KRYLOV_ATOL_FACTOR * tol * np.sqrt(P),
        restart=_KRYLOV_RESTART,
        maxiter=_KRYLOV_MAXITER,
        M=preconditioner,
    )
    if info != 0:
        reached = np.linalg.norm(rhs - operator @ sol) / np.linalg.norm(rhs)
        raise NoConvergence(
            f"Newton linear solve (GMRES) did not converge after "
            f"{applications[0]} preconditioned iterations; relative "
            f"residual {reached:.3e}"
        )
    return sol[:P].reshape(grid.shape), float(sol[P]), applications[0]


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
        hess = hessian(grid, cand)
        dens = _cone_density(grid, A, hess)
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


def _damped_newton(grid, A, rhs, tol, phi0, max_newton, t, s0=0.0):
    """Damped Newton for one slice equation in log form,

        log ma_density(A, u) + t*u - rhs - s = 0,  mean u = 0,

    over (u, s).  u starts at ``phi0`` minus its mean and s at ``s0``;
    with ``s0`` None, s starts at the mean of the residual at s = 0.
    t = -1 is the lam=-1 slice equation, s its compatibility constant;
    t in [0, 1] are the rungs of the lam=+1 continuity path.  Raises
    NonAdmissible when ``phi0`` is outside the cone.  Returns
    (u, s, SolveReport).
    """
    if max_newton < 1:
        raise ValueError(f"max_newton must be at least 1, got {max_newton}")
    u = np.asarray(phi0, dtype=float)
    u = u - u.mean()
    hess = hessian(grid, u)
    dens = _cone_density(grid, A, hess)
    if dens is None:
        raise NonAdmissible("Newton solve needs an admissible start")

    def residual(cand, cand_s, cand_dens):
        return np.log(cand_dens) + t * cand - rhs - cand_s

    s = float(residual(u, 0.0, dens).mean()) if s0 is None else float(s0)
    res = residual(u, s, dens)
    norm = float(np.abs(res).max())
    history = [norm]
    dampings = []
    krylov = []
    while norm > tol:
        if len(dampings) == max_newton:
            raise NoConvergence(
                f"Newton stalled at residual {norm:.3e} after "
                f"{max_newton} iterations"
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
        newton_iterations=len(dampings), damping_factors=dampings,
        residual_history=history, krylov_iterations=krylov,
    )
    return u, s, report


# ---------------------------------------------------------------------------
# public slice solvers


def _finalize(geom, index, g, u, mode, tol_inner, report):
    """Shift u into the gauge, recompute c and record the residual."""
    grid = geom.grid
    A = geom.A[index]
    if mode == "sup":
        psi = u - float(u.max())
    elif mode == "mean":
        psi = u - float(u.mean())
    else:
        raise ValueError(f"unknown norm_mode {mode!r}")
    dens = ma_density(grid, A, psi)
    weight = np.exp(-geom.lam * (psi + g)) * geom.f
    c = grid.integrate(dens) / grid.integrate(weight)
    residual = float(
        np.abs(np.log(dens) - np.log(c) + geom.lam * (psi + g) - np.log(geom.f)).max()
    )
    if residual > tol_inner:
        raise NoConvergence(
            f"slice residual {residual:.3e} above tol_inner {tol_inner:.3e} "
            "after constant compatibility update"
        )
    report.residual = residual
    report.c = c
    return psi, report


def solve_tke(geom, index, g, *, tol_inner=1e-10, max_newton=40,
              norm_mode="sup", warm_start=None):
    """Solve one twisted slice equation for class ``index``.

    The equation in the density form is

        ma_density(A_i, psi) = c * exp(-lam * (psi + g)) * f,

    solved in log form to the sup-norm tolerance ``tol_inner``.  The
    constant c is recomputed from the exact volume compatibility
    identity before the final residual is recorded.  A warm start
    outside the cone is ignored.  Returns (psi, SolveReport).
    """
    grid = geom.grid
    A = geom.A[index]
    g = np.asarray(g, dtype=float)
    if g.shape != grid.shape:
        raise ValueError("coupling field g has wrong shape")
    if not np.all(np.isfinite(g)):
        raise ValueError("coupling field g must be finite")
    inner_tol = 0.25 * tol_inner
    # the rung equation at t = lam, whose constant s takes log c
    rhs = np.log(geom.f) - geom.lam * g

    if geom.lam == -1:
        cold = np.zeros(grid.shape)
        phi0 = cold if warm_start is None else warm_start
        try:
            u, _, report = _damped_newton(
                grid, A, rhs, inner_tol, phi0, max_newton, -1.0, s0=None
            )
        except NonAdmissible:  # the warm start lies outside the cone
            u, _, report = _damped_newton(
                grid, A, rhs, inner_tol, cold, max_newton, -1.0, s0=None
            )
        return _finalize(geom, index, g, u, norm_mode, tol_inner, report)

    # lam = +1: try a direct solve from the warm start, else walk the path.
    if warm_start is not None:
        try:
            u, _, report = _damped_newton(
                grid, A, rhs, inner_tol, warm_start,
                min(max_newton, 20), 1.0, s0=None,
            )
            report.continuity_trace = [(1.0, report.newton_iterations)]
            return _finalize(geom, index, g, u, norm_mode, tol_inner, report)
        except (NonAdmissible, NoConvergence, NonAdmissibleStep):
            logger.debug(
                "direct positive-sign solve failed for class %d; "
                "falling back to the continuity path",
                index + 1,
            )
    return continuity_solve(
        geom, index, g,
        tol_inner=tol_inner, max_newton=max_newton, norm_mode=norm_mode,
    )


def continuity_solve(geom, index, g, *, tol_inner=1e-10, max_newton=40,
                     norm_mode="sup"):
    """Reach the lam=+1 slice solution along the parameter path t: 0 -> 1.

    The right-hand side stays fixed and only the zeroth-order coefficient
    moves with t.  Each rung solves

        log ma_density(A_i, phi) + t * phi = log f - g + s,  mean phi = 0,

    for (phi, s), starting from the previous rung.  At t = 0 this is the
    Calabi-Yau-type equation, solved from zero; t = 1 is the slice
    equation.  The step starts at 0.1, doubles after success (capped at
    0.25), halves on failure, and aborts with ContinuityBreakdown below
    1e-4.
    """
    if geom.lam != 1:
        raise ValueError("continuity path applies to lam = +1 problems")
    grid = geom.grid
    A = geom.A[index]
    g = np.asarray(g, dtype=float)
    rhs = np.log(geom.f) - g
    inner_tol = 0.25 * tol_inner

    report = SolveReport()
    phi, s, rung = _damped_newton(
        grid, A, rhs, inner_tol, np.zeros(grid.shape), max_newton, t=0.0
    )
    report.append_rung(0.0, rung)

    t_cur = 0.0
    dt = 0.1
    while t_cur < 1.0:
        t_try = min(1.0, t_cur + dt)
        try:
            phi, s, rung = _damped_newton(
                grid, A, rhs, inner_tol, phi, max_newton, t=t_try, s0=s
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
    return _finalize(geom, index, g, phi, norm_mode, tol_inner, report)

