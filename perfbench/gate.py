"""Correctness gate applied to the outputs of every measured run.

A run passes when ``cri run`` exited 0, ``summary.json`` reports
convergence with ``final_rho_max <= tol_fixed_point``, a Gauss-Seidel
ledger descends in the Ding energy (``check_monotone``), and each final
potential lies within ``PSI_TOL_FACTOR * tol_fixed_point * (1 + |psi_ref|)``
of the stored reference, rolled by the seed's grid-cell offsets.

The tolerance is tied to the fixed-point tolerance, not to bit-identity,
because a faster linear solve or an accelerated sweep stops at a different
point inside the same residual ball.  On ``stiff1d-n64`` (A_i ~ 1e3) the
potentials at ``tol_fixed_point`` 1e-8 and 1e-11 differ by 2.9e-7, i.e.
29 * tol; two independent stopping points can differ by twice that.  A
factor of 300 leaves that margin fivefold while any real defect, which
moves psi by far more than 1e-6, still fails.
"""

from __future__ import annotations

import json
import os

import numpy as np

from coupled_ricci.errors import ParseError
from coupled_ricci.functionals import EnergyLedger
from coupled_ricci.grid import read_field
from coupled_ricci.iteration import check_monotone

PSI_TOL_FACTOR = 300.0
DEFAULT_TOL_FIXED_POINT = 1e-8


def load_reference(path) -> np.ndarray:
    with np.load(path) as data:
        return data["psi"]


def check_run(out_dir, data: dict, offsets, exit_code, reference) -> list:
    """Return the list of problems found; an empty list means the run passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"]
    tol = data.get("tol_fixed_point", DEFAULT_TOL_FIXED_POINT)
    if summary.get("converged") is not True:
        problems.append(f"not converged: {summary.get('reason')}")
    rho = summary.get("final_rho_max")
    if rho is None or not rho <= tol:
        problems.append(f"final_rho_max {rho} above tol_fixed_point {tol}")

    if data.get("mode", "gauss_seidel") == "gauss_seidel":
        try:
            ledger = EnergyLedger.from_csv(os.path.join(out_dir, "ledger.csv"))
        except (OSError, ValueError, StopIteration) as exc:
            problems.append(f"ledger.csv unreadable: {exc}")
        else:
            report = check_monotone(ledger)
            if not report.ok:
                problems.append(
                    f"Ding energy rises at steps {[v[0] for v in report.violations]}"
                )

    axes = tuple(range(reference.ndim - 1))
    for i, ref in enumerate(reference):
        expected = np.roll(ref, [-m for m in offsets], axis=axes)
        try:
            _grid, psi = read_field(os.path.join(out_dir, f"psi_{i + 1}.field"))
        except (OSError, ParseError) as exc:
            problems.append(f"psi_{i + 1}.field unreadable: {exc}")
            continue
        if psi.shape != expected.shape:
            problems.append(f"psi_{i + 1} has shape {psi.shape}, want {expected.shape}")
            continue
        err = float(np.abs(psi - expected).max())
        limit = PSI_TOL_FACTOR * tol * (1.0 + float(np.abs(expected).max()))
        if not err <= limit:
            problems.append(f"psi_{i + 1} off the reference by {err:.3e} > {limit:.3e}")
    return problems
