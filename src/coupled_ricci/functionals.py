"""Energy functionals, Ricci potentials, and the run ledger.

All functionals are plain quadratures over the grid.  The
Aubin-Mabuchi energy uses the mixed-discriminant expansion of the
shifted Hessian, with the determinant term averaged over the one-sided
variants so that the discrete scaling identity AM(s*psi) happens at
quadratic order exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NonAdmissible
from .grid import PeriodicGrid, hessian
from .monge_ampere import BackgroundGeometry, is_admissible, ma_density


@dataclass
class PotentialTuple:
    """The k potentials of one iteration state plus admissibility flags."""

    psis: np.ndarray
    admissible: np.ndarray

    @classmethod
    def from_fields(cls, geom: BackgroundGeometry, fields) -> "PotentialTuple":
        psis = np.asarray(fields, dtype=float)
        expected = (geom.k,) + geom.grid.shape
        if psis.shape != expected:
            raise ValueError(
                f"expected {geom.k} fields of shape {geom.grid.shape}, "
                f"got array of shape {psis.shape}"
            )
        flags = np.array(
            [is_admissible(geom.grid, geom.A[i], psis[i]) for i in range(geom.k)]
        )
        return cls(psis=psis, admissible=flags)


def _require_admissible(grid, A, hess, what):
    if not is_admissible(grid, A, hess=hess):
        raise NonAdmissible(f"{what} needs an admissible potential")


def _hessians(grid, psis) -> list:
    return [hessian(grid, psi) for psi in psis]


def _mixed_with_background(A, hess):
    """Mixed discriminant D(H, A) of the centered Hessian with A (n=2)."""
    q = hess.mixed_centered
    return 0.5 * (
        A[1, 1] * hess.diag[0] + A[0, 0] * hess.diag[1] - 2.0 * A[0, 1] * q
    )


def am_energy(grid: PeriodicGrid, A, psi, hess=None) -> float:
    """Aubin-Mabuchi energy of one admissible potential.

    The integrand is psi times the average of the mixed discriminants
    D(M^j, A^(n-j)) for j = 0..n, with M = A + D^2 psi.
    """
    A = np.asarray(A, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    _require_admissible(grid, A, hess, "am_energy")
    dens = ma_density(grid, A, hess=hess)
    det_a = float(np.linalg.det(A))
    if grid.n == 1:
        integrand = 0.5 * psi * (det_a + dens)
    else:
        middle = det_a + _mixed_with_background(A, hess)
        integrand = psi * (det_a + middle + dens) / 3.0
    return grid.integrate(integrand)


def i_functional(grid: PeriodicGrid, A, psi, hess=None) -> float:
    """Aubin I functional: (1/V) integral of psi (det A - ma_density)."""
    A = np.asarray(A, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    _require_admissible(grid, A, hess, "i_functional")
    det_a = float(np.linalg.det(A))
    dens = ma_density(grid, A, hess=hess)
    return grid.integrate(psi * (det_a - dens)) / det_a


def j_functional(grid: PeriodicGrid, A, psi, hess=None) -> float:
    """Aubin J functional: (1/V) integral of psi det A minus AM/V."""
    A = np.asarray(A, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    det_a = float(np.linalg.det(A))
    am = am_energy(grid, A, psi, hess=hess)
    return grid.integrate(psi) - am / det_a


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


def ricci_potentials(geom: BackgroundGeometry, psis) -> np.ndarray:
    """Log-ratio fields rho_i measuring the distance to the fixed point.

    rho_i = log( V_i * exp(-lam * sum psi) * f / (Z * ma_density_i) )
    with Z the integral of exp(-lam * sum psi) * f.  By construction
    integrate(exp(rho_i) * ma_density_i) = V_i exactly.
    """
    psis = np.asarray(psis, dtype=float)
    return _ricci_potentials(geom, psis, _hessians(geom.grid, psis))


def _ricci_potentials(geom, psis, hessians) -> np.ndarray:
    grid = geom.grid
    total = psis.sum(axis=0)
    weight = np.exp(-geom.lam * total) * geom.f
    log_weight = np.log(weight)
    z = grid.integrate(weight)
    vols = geom.volumes
    rhos = np.empty_like(psis)
    for i, hess in enumerate(hessians):
        _require_admissible(grid, geom.A[i], hess, "ricci_potentials")
        dens = ma_density(grid, geom.A[i], hess=hess)
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
    """Spread of the generalized eigenvalues of (A + D^2 psi, A)."""
    _require_admissible(grid, A, hess, "diagnostics")
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
    psis = np.asarray(psis, dtype=float)
    return _diagnostics(geom, psis, _hessians(geom.grid, psis))


def _diagnostics(geom, psis, hessians) -> dict:
    osc = np.array([float(p.max() - p.min()) for p in psis])
    ratios = np.array(
        [_equivalence_ratio(geom.grid, geom.A[i], hess)
         for i, hess in enumerate(hessians)]
    )
    return {"osc": osc, "eq_ratio": ratios}


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

    def record_state(self, geom, psis, step, inner_iters, wall_ms) -> dict:
        """Evaluate every column at the given tuple and append a row."""
        psis = np.asarray(psis, dtype=float)
        grid = geom.grid
        vols = geom.volumes
        hessians = _hessians(grid, psis)
        am = np.empty(geom.k)
        ivals = np.empty(geom.k)
        jvals = np.empty(geom.k)
        for i, hess in enumerate(hessians):
            am[i] = am_energy(grid, geom.A[i], psis[i], hess=hess)
            ivals[i] = i_functional(grid, geom.A[i], psis[i], hess=hess)
            jvals[i] = j_functional(grid, geom.A[i], psis[i], hess=hess)
        lval = l_functional(geom, psis)
        dval = lval - float((am / vols).sum())
        rhos = _ricci_potentials(geom, psis, hessians)
        rho_max = np.abs(rhos).reshape(geom.k, -1).max(axis=1)
        diag = _diagnostics(geom, psis, hessians)
        values = [
            int(step), *am, *ivals, *jvals, lval, dval, float(jvals.sum()),
            *rho_max, *diag["osc"], *diag["eq_ratio"],
            int(inner_iters), float(wall_ms),
        ]
        row = dict(zip(self.columns, values, strict=True))
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
