"""Energy functionals, Ricci potentials, and the run ledger.

All functionals are plain quadratures over the grid.  The
Aubin-Mabuchi energy uses the mixed-discriminant expansion of the
shifted Hessian, with the determinant term averaged over the one-sided
variants so that the discrete scaling identity AM(s*psi) happens at
quadratic order exactly.
"""

from __future__ import annotations

import csv

import numpy as np

from .grid import PeriodicGrid, hessian
from .monge_ampere import (  # noqa: F401  perfbench/tracer.py wraps is_admissible here
    BackgroundGeometry,
    _admissible_density,
    is_admissible,
    ma_density,
)


def class_columns(grid, A, psi, hess=None, dens=None):
    """(density, AM, I, J, osc, eqratio) of one class for the ledger, from one
    Hessian, built if None.

    ``dens`` may pass the density of an admissible ``hess``; otherwise the
    density is cone-checked, and NonAdmissible is raised outside the cone.
    eqratio spreads the generalized eigenvalues of (A + D^2 psi, A),
    centered mixed entry: in 2-d, 1 + x +- sqrt(x^2 - y) with x = D(D^2 psi,
    A) / det A and y = det D^2 psi / det A, which do not grow with A's scale.
    """
    A = np.asarray(A, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    if dens is None:
        dens = _admissible_density(grid, A, hess)
    det_a = float(np.linalg.det(A))
    if grid.n == 1:
        integrand = 0.5 * psi * (det_a + dens)
        lam_hi = lam_lo = dens / A[0, 0]
    else:
        d0, d1 = hess.diag
        q = hess.mixed_centered
        mixed = 0.5 * (A[1, 1] * d0 + A[0, 0] * d1 - 2.0 * A[0, 1] * q)
        integrand = psi * (det_a + (det_a + mixed) + dens) / 3.0
        x = mixed / det_a
        y = (d0 / det_a) * d1 - (q / det_a) * q
        root = np.sqrt(np.maximum(x * x - y, 0.0))
        lam_hi = 1.0 + x + root
        lam_lo = 1.0 + x - root
    am = grid.integrate(integrand)
    i_val = grid.integrate(psi * (det_a - dens)) / det_a
    j_val = grid.integrate(psi) - am / det_a
    osc = psi.max() - psi.min()
    return dens, am, i_val, j_val, osc, float(lam_hi.max() / lam_lo.min())


def am_energy(grid: PeriodicGrid, A, psi) -> float:
    """Aubin-Mabuchi energy of one admissible potential.

    The integrand is psi times the average of the mixed discriminants
    D(M^j, A^(n-j)) for j = 0..n, with M = A + D^2 psi.
    """
    return class_columns(grid, A, psi)[1]


def i_functional(grid: PeriodicGrid, A, psi) -> float:
    """Aubin I functional: (1/V) integral of psi (det A - ma_density)."""
    return class_columns(grid, A, psi)[2]


def j_functional(grid: PeriodicGrid, A, psi) -> float:
    """Aubin J functional: (1/V) integral of psi det A minus AM/V."""
    return class_columns(grid, A, psi)[3]


def l_functional(geom: BackgroundGeometry, psis) -> float:
    """Coupling term -lam * log Z, Z the integral of exp(-lam * sum psi) * f,
    with log Z from BackgroundGeometry.coupling."""
    psis = np.asarray(psis, dtype=float)
    return -geom.lam * geom.coupling(psis.sum(axis=0))[1]


def ding(geom: BackgroundGeometry, psis) -> float:
    """Coupled Ding functional: -sum AM_i/V_i plus the coupling term."""
    psis = np.asarray(psis, dtype=float)
    am = np.array([am_energy(geom.grid, A, psi) for A, psi in zip(geom.A, psis)])
    return l_functional(geom, psis) - float((am / geom.volumes).sum())


def ricci_potentials(geom: BackgroundGeometry, psis, densities=None) -> np.ndarray:
    """Log-ratio fields rho_i measuring the distance to the fixed point.

    rho_i = log V_i + log w - log Z - log ma_density_i, with (log w, log Z)
    of w = exp(-lam * sum psi) * f from BackgroundGeometry.coupling, so
    integrate(exp(rho_i) * ma_density_i) = V_i exactly.  ``densities`` may
    pass the cone-checked class densities of ``psis``; a class whose entry
    is None (outside the cone) gets a row of NaN, while its potential
    still enters the weight.
    """
    psis = np.asarray(psis, dtype=float)
    grid = geom.grid
    if densities is None:
        densities = [
            _admissible_density(grid, A, hessian(grid, psi))
            for A, psi in zip(geom.A, psis)
        ]
    log_w, log_z = geom.coupling(psis.sum(axis=0))
    rhos = np.empty_like(psis)
    for i, dens in enumerate(densities):
        if dens is None:
            rhos[i] = np.nan
        else:
            rhos[i] = np.log(geom.volumes[i]) + log_w - log_z - np.log(dens)
    return rhos


def cke_residual(geom: BackgroundGeometry, psis) -> float:
    """Largest sup-norm of the Ricci potentials; zero exactly at a solution."""
    return float(np.abs(ricci_potentials(geom, psis)).max())


def ding_first_variation(geom: BackgroundGeometry, psis, deltas) -> float:
    """Directional derivative of the Ding functional.

    deltas is a tuple of k perturbation fields; the analytic form is
    -sum_i (1/V_i) integral deltas_i * (1 - exp(rho_i)) * ma_density_i.
    """
    psis = np.asarray(psis, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != psis.shape:
        raise ValueError("perturbation tuple must match the potential tuple")
    rhos = ricci_potentials(geom, psis)
    vols = geom.volumes
    total = 0.0
    for i in range(geom.k):
        dens = ma_density(geom.grid, geom.A[i], psis[i])
        integrand = deltas[i] * (1.0 - np.exp(rhos[i])) * dens
        total -= geom.grid.integrate(integrand) / vols[i]
    return total


# ---------------------------------------------------------------------------
# run ledger


def _row_residual(terms) -> float:
    """cke_residual of the tuple whose ledger terms or row are ``terms``."""
    return max(v for name, v in terms.items() if name.startswith("rho_max_"))


class EnergyLedger:
    """Per-step table of energies and residuals with a fixed column order."""

    def __init__(self, k: int):
        self.columns = (
            ["step"]
            + [f"AM_{i + 1}" for i in range(k)]
            + [f"I_{i + 1}" for i in range(k)]
            + [f"J_{i + 1}" for i in range(k)]
            + ["L", "D", "J_total"]
            + [f"rho_max_{i + 1}" for i in range(k)]
            + [f"osc_{i + 1}" for i in range(k)]
            + [f"eqratio_{i + 1}" for i in range(k)]
            + ["inner_iters", "wall_ms"]
        )
        self.rows: list = []

    def evaluate(self, geom, psis, classes=None) -> dict:
        """Every column but step, inner_iters and wall_ms at one tuple.

        Builds one Hessian and one cone-checked density per class, unless
        ``classes`` passes what :func:`class_columns` gives for each class;
        raises NonAdmissible outside the cone.
        """
        psis = np.asarray(psis, dtype=float)
        grid = geom.grid
        if classes is None:
            classes = [class_columns(grid, A, psi) for A, psi in zip(geom.A, psis)]
        dens, *columns = zip(*classes)
        am, ivals, jvals, osc, eq_ratio = np.array(columns)
        lval = l_functional(geom, psis)
        dval = lval - float((am / geom.volumes).sum())
        rhos = ricci_potentials(geom, psis, densities=dens)
        rho_max = np.abs(rhos).reshape(geom.k, -1).max(axis=1)
        values = [
            *am, *ivals, *jvals, lval, dval, float(jvals.sum()),
            *rho_max, *osc, *eq_ratio,
        ]
        return dict(zip(self.columns[1:-2], values, strict=True))

    def record_state(self, terms, step, inner_iters, wall_ms) -> dict:
        """Append the row of a tuple whose evaluate() gave ``terms``."""
        row = {
            "step": int(step), **terms,
            "inner_iters": int(inner_iters), "wall_ms": float(wall_ms),
        }
        self.rows.append(row)
        return row

    def column(self, name) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no ledger column named {name!r}")
        return np.array([row[name] for row in self.rows])

    def to_csv(self, path) -> None:
        # step, the energy columns, inner_iters and wall_ms, each line ended
        # by \r\n as csv.writer ends it
        energies = ["%.17g"] * (len(self.columns) - 3)
        line = ",".join(["%d", *energies, "%d", "%.3f"]) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns) + "\r\n")
            for row in self.rows:
                fh.write(line % tuple(row[name] for name in self.columns))

    @classmethod
    def from_csv(cls, path) -> "EnergyLedger":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])  # an empty file has no header
            k = sum(1 for name in header if name.startswith("AM_"))
            ledger = cls(k)
            if header != ledger.columns:
                raise ValueError(f"{path}: unexpected ledger header")
            for raw in reader:
                if len(raw) != len(header):
                    raise ValueError(
                        f"{path}: line {reader.line_num} has {len(raw)} "
                        f"fields, expected {len(header)}"
                    )
                row = {}
                for name, text in zip(header, raw):
                    if name in ("step", "inner_iters"):
                        row[name] = int(text)
                    else:
                        row[name] = float(text)
                ledger.rows.append(row)
        return ledger
