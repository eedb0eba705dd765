"""Properties of the discrete scheme measured against tight references:
its exact symmetries, and the plain sweep's contraction in C^2."""

import numpy as np
import pytest

from coupled_ricci import (
    BackgroundGeometry,
    IterationConfig,
    PeriodicGrid,
    hessian,
    monge_ampere,
    step_gauss_seidel,
)

from tight_reference import TOL_INNER, tight_run

# ---------------------------------------------------------------------------
# exact symmetries

_A = np.array([[[1.0, 0.3], [0.3, 1.5]], [[2.0, 0.5], [0.5, 1.0]]])


def _density(grid):
    x1, x2 = grid.coords()
    return (
        1 + 0.3 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
        + 0.2 * np.cos(2 * np.pi * (x1 + 2 * x2))
    )


def _reflect(field, axes=(-2, -1)):
    """The field at -x along ``axes``: grid index i goes to -i mod N."""
    return np.roll(np.flip(field, axis=axes), 1, axis=axes)


def _translate(field):
    return np.roll(field, (5, 11), axis=(-2, -1))


def _swap_axes(field):
    return np.swapaxes(field, -2, -1)


def _same(field):
    return field


def _swap_classes(psis):
    return psis[::-1]


# name: (map of A, map of f, map of the tuple psi, sweep mode, whether the
# counts match).  The point reflection is exact because the 2-d density
# averages the (+,+) and (-,-) mixed differences, which it swaps.  A class
# swap under Gauss-Seidel changes which slice is solved first, so only its
# solution is the same: 5 sweeps and 15 Newton steps against 4 and 13.
_SYMMETRIES = {
    "translation": (_same, _translate, _translate, "gauss_seidel", True),
    "point reflection": (_same, _reflect, _reflect, "gauss_seidel", True),
    "axis swap": (
        lambda A: A[:, ::-1, ::-1], _swap_axes, _swap_axes, "gauss_seidel",
        True,
    ),
    "class swap, Gauss-Seidel": (
        _swap_classes, _same, _swap_classes, "gauss_seidel", False
    ),
    "class swap, Jacobi": (
        _swap_classes, _same, _swap_classes, "jacobi", True
    ),
}


@pytest.fixture
def counted_run(monkeypatch):
    """tight_run returning (psis, (sweeps, Newton steps, Arnoldi steps))."""
    krylov = []
    solve = monge_ampere._krylov_solve

    def recording(*args):
        result = solve(*args)
        krylov.append(result[2])
        return result

    monkeypatch.setattr(monge_ampere, "_krylov_solve", recording)

    def counted(geom, mode):
        krylov.clear()
        state = tight_run(geom, mode)
        newton = int(state.ledger.column("inner_iters").sum())
        return state.psis, (state.step, newton, sum(krylov))

    return counted


@pytest.mark.parametrize("name", list(_SYMMETRIES))
def test_the_scheme_commutes_with_its_symmetries(counted_run, name):
    map_a, map_f, map_psis, mode, same_counts = _SYMMETRIES[name]
    grid = PeriodicGrid(2, 32)
    f = _density(grid)
    psis, counts = counted_run(BackgroundGeometry(grid, -1, _A, f), mode)
    mapped, mapped_counts = counted_run(
        BackgroundGeometry(grid, -1, map_a(_A), map_f(f)), mode
    )
    err = np.abs(mapped - map_psis(psis)).max()
    assert err <= 1e-12 * (1.0 + np.abs(psis).max())
    if same_counts:
        assert mapped_counts == counts


def test_a_single_axis_reflection_holds_only_to_second_order():
    # x_1 -> -x_1 with A_01 -> -A_01 maps the continuum problem to itself,
    # but takes the (+,+) mixed difference to the (-,+) one, which the
    # density does not use: the scheme commutes with it only up to O(h^2).
    flipped_A = _A * np.array([[1.0, -1.0], [-1.0, 1.0]])
    defects = []
    for N in (16, 32, 64):
        grid = PeriodicGrid(2, N)
        f = _density(grid)
        psis = tight_run(BackgroundGeometry(grid, -1, _A, f)).psis
        mapped = tight_run(
            BackgroundGeometry(grid, -1, flipped_A, _reflect(f, axes=-2))
        ).psis
        defects.append(np.abs(mapped - _reflect(psis, axes=-2)).max())
    ratios = np.array(defects[:-1]) / np.array(defects[1:])
    assert np.all((3.0 <= ratios) & (ratios <= 5.0)), defects


# ---------------------------------------------------------------------------
# the plain sweep contracts in C^2 at its C^0 rate


@pytest.mark.parametrize("N", [16, 64])
def test_plain_sweeps_contract_second_differences_at_the_sup_rate(N):
    grid = PeriodicGrid(1, N)
    x = grid.coords()[0]
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid, -1, np.array([[[30.0]], [[40.0]]]), f)
    star = tight_run(geom).psis
    plain = IterationConfig(accel="none", tol_inner=TOL_INNER)
    psis = np.zeros_like(star)
    e0, e2 = [], []  # sup and second-difference errors after sweeps 1..10
    for _ in range(10):
        psis = step_gauss_seidel(geom, psis, plain)[0]
        # a sweep fixes each psi_i up to a constant, taken out here
        err = psis - star
        err -= err.mean(axis=1, keepdims=True)
        e0.append(np.abs(err).max())
        e2.append(max(np.abs(hessian(grid, e).diag[0]).max() for e in err))
    e0, e2 = np.array(e0), np.array(e2)
    # r[j - 1] is the rate e_{j+1} / e_j of sweep j; sweeps 4 to 9
    r0, r2 = e0[1:] / e0[:-1], e2[1:] / e2[:-1]
    assert np.all(np.abs(r2[3:] / r0[3:] - 1.0) <= 0.01), (r0, r2)
    # the slow error is mostly the lowest Fourier mode, whose second
    # differences are about 4 pi^2 times its values (42.4 at N = 16, 42.9
    # at N = 64)
    ratio = e2[3:] / e0[3:]
    mode = 4.0 * np.pi**2
    assert np.all((0.9 * mode <= ratio) & (ratio <= 1.15 * mode)), ratio
