"""Slow, simple reference solvers used to cross-check the engine.

Everything here shares only the problem definition (densities,
functionals) with the main stack; the linear algebra is dense, the
Jacobian is numerically differentiated, and no code is borrowed from
the engine's Newton machinery.  That keeps the comparison honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OracleIntractable
from .functionals import ding
from .monge_ampere import BackgroundGeometry, is_admissible, ma_density

_MAX_POINTS = 64
_NEWTON_TOL = 1e-12  # oracle_fixed_point scales it by max(1, max_i det A_i)
_NEWTON_STEPS = 80
# A _GRAD_TOL much below 1e-6 drives the descent's Armijo test into the
# rounding floor of the energy differences, and the step size collapses.
_GRAD_TOL = 1e-6
_DESCENT_STEPS = 200000
_STEP0 = 0.1


def _check_tractable(geom):
    """OracleIntractable past the dense limit of _MAX_POINTS points per class."""
    if geom.grid.num_points > _MAX_POINTS:
        raise OracleIntractable(
            f"{geom.grid.num_points} points per class exceeds the dense "
            f"reference limit of {_MAX_POINTS}"
        )


def fd_jacobian(residual_fn, u, r0):
    """Forward-difference Jacobian with per-entry steps 1e-6*(1+|u_j|)."""
    m = len(r0)
    jac = np.empty((m, len(u)))
    for j in range(len(u)):
        step = 1e-6 * (1.0 + abs(u[j]))
        bumped = u.copy()
        bumped[j] += step
        jac[:, j] = (residual_fn(bumped) - r0) / step
    return jac


def dense_newton(residual_fn, u0, tol=_NEWTON_TOL, max_iter=_NEWTON_STEPS):
    """Damped Newton on a stacked residual with a dense FD Jacobian.

    Returns (u, iterations).  The residual must be defined everywhere
    (density form, not log form) so the line search needs no domain
    guard; a trial point where it overflows fails the decrease test.
    """
    u = np.array(u0, dtype=float, copy=True)
    r = residual_fn(u)
    norm = float(np.abs(r).max())
    for iteration in range(max_iter):
        if norm <= tol:
            return u, iteration
        jac = fd_jacobian(residual_fn, u, r)
        delta = np.linalg.solve(jac, -r)
        alpha = 1.0
        for _ in range(40):
            cand = u + alpha * delta
            with np.errstate(over="ignore", invalid="ignore"):
                r_cand = residual_fn(cand)
            cand_norm = float(np.abs(r_cand).max())
            if cand_norm <= (1.0 - 0.25 * alpha) * norm:
                u, r, norm = cand, r_cand, cand_norm
                break
            alpha *= 0.5
        else:
            raise NoConvergence("reference Newton line search stalled")
    raise NoConvergence(
        f"reference Newton stopped at residual {norm:.3e} after {max_iter} iterations"
    )


@dataclass
class StackedSystem:
    """All k slice equations and constants as one flat root-finding problem.

    Unknowns: the k potential fields (flattened, C order) followed by
    the k constants.  Residual rows: the density-form equations
    ma_density_i - c_i * exp(-lam * sum psi) * f at every point, then
    one mean-value row per class.  No sweep order enters anywhere.
    """

    geom: BackgroundGeometry

    def split(self, u):
        k = self.geom.k
        pts = self.geom.grid.num_points
        psis = u[: k * pts].reshape((k,) + self.geom.grid.shape)
        cs = u[k * pts :]
        return psis, cs

    def join(self, psis, cs):
        return np.concatenate([np.asarray(psis).ravel(), np.asarray(cs)])

    def residual(self, u):
        geom = self.geom
        psis, cs = self.split(u)
        weight = np.exp(-geom.lam * psis.sum(axis=0)) * geom.f
        rows = []
        for i in range(geom.k):
            dens = ma_density(geom.grid, geom.A[i], psis[i])
            rows.append((dens - cs[i] * weight).ravel())
        means = [psis[i].mean() for i in range(geom.k)]
        return np.concatenate(rows + [np.array(means)])

    def initial_guess(self):
        geom = self.geom
        psis = np.zeros((geom.k,) + geom.grid.shape)
        f_total = geom.grid.integrate(geom.f)
        cs = geom.volumes / f_total
        return self.join(psis, cs)


def oracle_fixed_point(geom: BackgroundGeometry):
    """Solve the whole coupled system at once, dense and sweep-free.

    Newton stops once the density-form residual is below
    ``_NEWTON_TOL`` * max(1, max_i det A_i), the scale of the densities.
    Returns (psis, cs, ding_value, iterations) with mean-zero potentials.
    Only sensible for tiny grids; refuses more than 64 points per class.
    """
    _check_tractable(geom)
    system = StackedSystem(geom)
    scale = max(1.0, float(geom.volumes.max()))
    u, iterations = dense_newton(system.residual, system.initial_guess(),
                                 _NEWTON_TOL * scale, _NEWTON_STEPS)
    psis, cs = system.split(u)
    for i in range(geom.k):
        if not is_admissible(geom.grid, geom.A[i], psis[i]):
            raise NoConvergence(
                f"reference solve converged to a non-admissible root "
                f"for class {i + 1}"
            )
    return psis, np.array(cs), ding(geom, psis), iterations


def oracle_ding_descent(geom: BackgroundGeometry):
    """Minimize the Ding functional by plain gradient descent.

    The descent direction is the pointwise variational gradient
    -ma_density_i/V_i + exp(-lam sum psi) f / Z, which is exactly
    mean-free, so the iterates stay mean-zero.  Armijo backtracking
    keeps every iterate admissible and the energy trace monotone.
    Returns (psis, ding_value, trace, iterations).
    """
    _check_tractable(geom)
    grid = geom.grid
    vols = geom.volumes
    psis = np.zeros((geom.k,) + grid.shape)
    energy = ding(geom, psis)
    trace = [energy]
    eta = _STEP0

    def gradient(fields):
        weight = np.exp(-geom.lam * fields.sum(axis=0)) * geom.f
        z = grid.integrate(weight)
        grads = np.empty_like(fields)
        for i in range(geom.k):
            dens = ma_density(grid, geom.A[i], fields[i])
            grads[i] = -dens / vols[i] + weight / z
        return grads

    for iteration in range(_DESCENT_STEPS):
        grads = gradient(psis)
        if float(np.abs(grads).max()) <= _GRAD_TOL:
            return psis, energy, trace, iteration
        gsq = sum(grid.integrate(g * g) for g in grads)
        while True:
            cand = psis - eta * grads
            ok = all(
                is_admissible(grid, geom.A[i], cand[i]) for i in range(geom.k)
            )
            if ok:
                cand_energy = ding(geom, cand)
                if cand_energy <= energy - 0.5 * eta * gsq:
                    break
            eta *= 0.5
            if eta < 1e-12:
                raise NoConvergence("descent step size collapsed")
        psis, energy = cand, cand_energy
        trace.append(energy)
        eta = min(eta * 1.3, 100.0 * _STEP0)
    raise NoConvergence(
        f"gradient descent did not reach grad_tol={_GRAD_TOL} "
        f"in {_DESCENT_STEPS} iterations"
    )
