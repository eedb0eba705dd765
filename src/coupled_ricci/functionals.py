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

from .errors import NonAdmissible
from .grid import PeriodicGrid, hessian
from .monge_ampere import (  # noqa: F401  perfbench/tracer.py wraps is_admissible here
    BackgroundGeometry,
    _cone_density,
    is_admissible,
    ma_density,
)


def _admissible_density(grid, A, hess, what):
    """ma_density of an admissible potential; NonAdmissible otherwise."""
    dens = _cone_density(grid, A, hess)
    if dens is None:
        raise NonAdmissible(f"{what} needs an admissible potential")
    return dens


def _mixed_with_background(A, hess):
    """Mixed discriminant D(H, A) of the centered Hessian with A (n=2)."""
    q = hess.mixed_centered
    return 0.5 * (
        A[1, 1] * hess.diag[0] + A[0, 0] * hess.diag[1] - 2.0 * A[0, 1] * q
    )


def _class_terms(grid, A, psi, hess, what):
    """(density, AM, I, J) of one class from one Hessian, built if None.

    The density is cone-checked: outside the cone NonAdmissible names
    ``what``.
    """
    A = np.asarray(A, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    dens = _admissible_density(grid, A, hess, what)
    det_a = float(np.linalg.det(A))
    if grid.n == 1:
        integrand = 0.5 * psi * (det_a + dens)
    else:
        middle = det_a + _mixed_with_background(A, hess)
        integrand = psi * (det_a + middle + dens) / 3.0
    am = grid.integrate(integrand)
    i_val = grid.integrate(psi * (det_a - dens)) / det_a
    j_val = grid.integrate(psi) - am / det_a
    return dens, am, i_val, j_val


def am_energy(grid: PeriodicGrid, A, psi, hess=None) -> float:
    """Aubin-Mabuchi energy of one admissible potential.

    The integrand is psi times the average of the mixed discriminants
    D(M^j, A^(n-j)) for j = 0..n, with M = A + D^2 psi.
    """
    return _class_terms(grid, A, psi, hess, "am_energy")[1]


def i_functional(grid: PeriodicGrid, A, psi, hess=None) -> float:
    """Aubin I functional: (1/V) integral of psi (det A - ma_density)."""
    return _class_terms(grid, A, psi, hess, "i_functional")[2]


def j_functional(grid: PeriodicGrid, A, psi, hess=None) -> float:
    """Aubin J functional: (1/V) integral of psi det A minus AM/V."""
    return _class_terms(grid, A, psi, hess, "j_functional")[3]


def l_functional(geom: BackgroundGeometry, psis) -> float:
    """Coupling term -lam * log integral of exp(-lam * sum psi) * f."""
    psis = np.asarray(psis, dtype=float)
    total = psis.sum(axis=0)
    z = geom.grid.integrate(np.exp(-geom.lam * total) * geom.f)
    return -geom.lam * float(np.log(z))


def ding(geom: BackgroundGeometry, psis) -> float:
    """Coupled Ding functional: -sum AM_i/V_i plus the coupling term."""
    psis = np.asarray(psis, dtype=float)
    vols = geom.volumes
    total = 0.0
    for i in range(geom.k):
        total -= am_energy(geom.grid, geom.A[i], psis[i]) / vols[i]
    return total + l_functional(geom, psis)


def ricci_potentials(geom: BackgroundGeometry, psis, densities=None) -> np.ndarray:
    """Log-ratio fields rho_i measuring the distance to the fixed point.

    rho_i = log( V_i * exp(-lam * sum psi) * f / (Z * ma_density_i) )
    with Z the integral of exp(-lam * sum psi) * f.  By construction
    integrate(exp(rho_i) * ma_density_i) = V_i exactly.  ``densities``
    may pass the cone-checked class densities of ``psis``.
    """
    psis = np.asarray(psis, dtype=float)
    grid = geom.grid
    if densities is None:
        densities = [
            _admissible_density(grid, A, hessian(grid, psi), "ricci_potentials")
            for A, psi in zip(geom.A, psis)
        ]
    weight = np.exp(-geom.lam * psis.sum(axis=0)) * geom.f
    log_weight = np.log(weight)
    z = grid.integrate(weight)
    vols = geom.volumes
    rhos = np.empty_like(psis)
    for i, dens in enumerate(densities):
        rhos[i] = np.log(vols[i]) + log_weight - np.log(z) - np.log(dens)
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


def _equivalence_ratio(grid, A, hess) -> float:
    """Spread of the generalized eigenvalues of (A + D^2 psi, A).

    ``hess`` must be the Hessian of an admissible potential.
    """
    if grid.n == 1:
        vals = (A[0, 0] + hess.diag[0]) / A[0, 0]
        return float(vals.max() / vals.min())
    det_a = float(np.linalg.det(A))
    m00 = A[0, 0] + hess.diag[0]
    m11 = A[1, 1] + hess.diag[1]
    q = A[0, 1] + hess.mixed_centered
    mixed = 0.5 * (A[1, 1] * m00 + A[0, 0] * m11 - 2.0 * A[0, 1] * q)
    det_m = m00 * m11 - q * q
    disc = np.sqrt(np.maximum(mixed * mixed - det_a * det_m, 0.0))
    lam_hi = (mixed + disc) / det_a
    lam_lo = (mixed - disc) / det_a
    return float(lam_hi.max() / lam_lo.min())


def diagnostics(geom: BackgroundGeometry, psis) -> dict:
    """Per-class oscillation and metric-equivalence ratios."""
    terms = EnergyLedger(geom.k).evaluate(geom, psis)
    return {
        key: np.array([terms[f"{column}_{i + 1}"] for i in range(geom.k)])
        for key, column in (("osc", "osc"), ("eq_ratio", "eqratio"))
    }


# ---------------------------------------------------------------------------
# run ledger


class EnergyLedger:
    """Per-step table of energies and residuals with a fixed column order."""

    def __init__(self, k: int):
        self.k = k
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

    def evaluate(self, geom, psis) -> dict:
        """Every column but step, inner_iters and wall_ms at one tuple.

        Builds one Hessian and one cone-checked density per class; raises
        NonAdmissible outside the cone.
        """
        psis = np.asarray(psis, dtype=float)
        grid = geom.grid
        dens = [None] * geom.k
        am, ivals, jvals, osc, eq_ratio = np.empty((5, geom.k))
        for i, (A, psi) in enumerate(zip(geom.A, psis)):
            hess = hessian(grid, psi)
            dens[i], am[i], ivals[i], jvals[i] = _class_terms(
                grid, A, psi, hess, "the ledger"
            )
            osc[i] = psi.max() - psi.min()
            eq_ratio[i] = _equivalence_ratio(grid, A, hess)
        lval = l_functional(geom, psis)
        dval = lval - float((am / geom.volumes).sum())
        rhos = ricci_potentials(geom, psis, densities=dens)
        rho_max = np.abs(rhos).reshape(geom.k, -1).max(axis=1)
        values = [
            *am, *ivals, *jvals, lval, dval, float(jvals.sum()),
            *rho_max, *osc, *eq_ratio,
        ]
        return dict(zip(self.columns[1:-2], values, strict=True))

    def record_state(self, geom, psis, step, inner_iters, wall_ms,
                     terms=None) -> dict:
        """Append the row of a tuple; ``terms`` may pass its evaluate()."""
        if terms is None:
            terms = self.evaluate(geom, psis)
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                out = []
                for name in self.columns:
                    value = row[name]
                    if name in ("step", "inner_iters"):
                        out.append(str(int(value)))
                    elif name == "wall_ms":
                        out.append("%.3f" % value)
                    else:
                        out.append("%.17g" % value)
                writer.writerow(out)

    @classmethod
    def from_csv(cls, path) -> "EnergyLedger":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            k = sum(1 for name in header if name.startswith("AM_"))
            ledger = cls(k)
            if header != ledger.columns:
                raise ValueError(f"{path}: unexpected ledger header")
            for raw in reader:
                row = {}
                for name, text in zip(header, raw):
                    if name in ("step", "inner_iters"):
                        row[name] = int(text)
                    else:
                        row[name] = float(text)
                ledger.rows.append(row)
        return ledger
