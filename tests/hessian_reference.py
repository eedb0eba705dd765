"""Test-side references for the discrete Hessian.

The engine builds every stencil from one periodically padded copy of the
field (``hessian``) and never forms per-point matrices; the tests compare
it with the textbook np.roll form of the stencils, and build the matrices
they take determinants and eigenvalues of here.
"""

import numpy as np


def roll_stencils(g, v):
    """Second differences along each axis, then in 2-d the forward/forward
    and backward/backward mixed differences."""
    h2 = g.h**2
    out = [
        (np.roll(v, -1, axis=a) + np.roll(v, 1, axis=a) - 2.0 * v) / h2
        for a in range(g.n)
    ]
    if g.n == 2:
        fwd = np.roll(np.roll(v, -1, axis=0), -1, axis=1)
        out.append(
            (fwd - np.roll(v, -1, axis=0) - np.roll(v, -1, axis=1) + v) / h2
        )
        bwd = np.roll(np.roll(v, 1, axis=0), 1, axis=1)
        out.append(
            (v - np.roll(v, 1, axis=0) - np.roll(v, 1, axis=1) + bwd) / h2
        )
    return out


def point_matrices(hess, mixed):
    """Per-point symmetric matrices, shape (*grid.shape, n, n): the entries
    of ``hess.diag`` on the diagonal and, in 2-d, ``mixed`` off it."""
    if len(hess.diag) == 1:
        return hess.diag[0][..., None, None]
    return np.stack([
        np.stack([hess.diag[0], mixed], axis=-1),
        np.stack([mixed, hess.diag[1]], axis=-1),
    ], axis=-2)
