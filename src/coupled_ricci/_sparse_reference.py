"""The assembled sparse form of the Newton operator, the tests' reference.

The solvers apply the operator matrix-free on numpy alone; only this
module imports scipy.  ``monge_ampere`` loads it the first time
``monge_ampere.log_ma_linearization`` or ``monge_ampere.spsolve`` is
looked up, so a run never imports scipy.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve  # noqa: F401  perfbench/tracer.py wraps spsolve in monge_ampere

from .errors import NonAdmissible
from .grid import PeriodicGrid, hessian
from .monge_ampere import _cone_density


@cache
def _operator_matrices(grid: PeriodicGrid) -> dict:
    """Second-difference and skew-mixed stencils as sparse matrices.

    Built from the periodic shift S, (S u)(x) = u(x + h), of one axis: the
    second difference S + S^T - 2I on each axis and, in 2-d, the one-sided
    mixed products (S - I)(S - I) and (I - S^T)(I - S^T) of the two axes.
    """
    eye = sp.identity(grid.N, format="csr")
    shift = sp.eye(grid.N, k=1, format="csr") + sp.eye(grid.N, k=1 - grid.N)
    second = shift + shift.T - 2 * eye
    if grid.n == 1:
        return {"d0": second / grid.h**2}

    def kron(a, b):  # csr: the default BSR result keeps explicit zeros
        return sp.kron(a, b, format="csr") / grid.h**2

    return {
        "d0": kron(second, eye),
        "d1": kron(eye, second),
        "qp": kron(shift - eye, shift - eye),
        "qm": kron(eye - shift.T, eye - shift.T),
    }


def log_ma_linearization(grid, A, psi) -> sp.csr_matrix:
    """Sparse derivative of log ma_density at the given admissible field.

    This is the operator L in the Newton systems; it annihilates
    constants and is negative semidefinite on admissible backgrounds.
    The solvers apply L matrix-free; this assembled form is the reference
    the tests build their Newton systems from.
    """
    A = np.asarray(A, dtype=float)
    hess = hessian(grid, psi)
    dens = _cone_density(grid, A, hess)
    if dens is None:
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
