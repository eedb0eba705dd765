"""Test-side eigenvalue form of the admissibility cone.

The engine tests cone membership by Sylvester's criterion on the variant
determinants (``is_admissible``); the margin below takes the smallest
eigenvalue instead, so the tests compare the two and use the margin to
scale samples into the cone.
"""

import numpy as np

from coupled_ricci import hessian


def admissibility_margin(grid, A, psi=None, hess=None) -> float:
    """Smallest eigenvalue of any variant matrix A + H over the grid."""
    A = np.asarray(A, dtype=float)
    if hess is None:
        hess = hessian(grid, psi)
    if grid.n == 1:
        return float((A[0, 0] + hess.diag[0]).min())
    m00 = A[0, 0] + hess.diag[0]
    m11 = A[1, 1] + hess.diag[1]
    margin = np.inf
    for q in (hess.mixed_plus, hess.mixed_minus):
        off = A[0, 1] + q
        tr = m00 + m11
        det = m00 * m11 - off * off
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        margin = min(margin, float((0.5 * (tr - disc)).min()))
    return margin
