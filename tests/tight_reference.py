"""Tight reference solutions for tests that measure errors near rounding.

A tight run stops at rho_max <= 1e-12 with every slice solved to 1e-13,
so its tuple stands for the discrete fixed point when a test compares
iterates, or solutions of mapped problems, down to about 1e-12.
"""

from coupled_ricci import IterationConfig, run

TOL_FIXED_POINT = 1e-12
TOL_INNER = 1e-13


def tight_run(geom, mode="gauss_seidel"):
    """The converged state of an accelerated run at the tight tolerances."""
    state = run(geom, IterationConfig(
        mode=mode, tol_fixed_point=TOL_FIXED_POINT, tol_inner=TOL_INNER
    ))
    assert state.converged, state.reason
    return state
