"""Properties of the discrete scheme measured against tight references:
its exact symmetries, the plain sweep's contraction in C^2, and the
spectral certificate of that contraction."""

import functools

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


def _centred(psis):
    """The tuple with each class's mean removed: a sweep fixes each psi_i
    only up to a constant."""
    return psis - psis.mean(axis=tuple(range(1, psis.ndim)), keepdims=True)


def _plain_sweep(geom, psis, mode="gauss_seidel"):
    """One sweep with accel "none" at tol_inner 1e-13, centred."""
    plain = IterationConfig(mode=mode, accel="none", tol_inner=TOL_INNER)
    return _centred(step_gauss_seidel(geom, psis, plain)[0])


def _sine_1d(N, scales=(30.0, 40.0)):
    grid = PeriodicGrid(1, N)
    x = grid.coords()[0]
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    return BackgroundGeometry(grid, -1, np.reshape(scales, (-1, 1, 1)), f)


def _gs2d_times_10():
    grid = PeriodicGrid(2, 32)
    x1, x2 = grid.coords()
    f = 1 + 0.3 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
    A = 10.0 * np.array([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
    return BackgroundGeometry(grid, -1, A, f)


# name: (geometry, sweeps run, first sweep whose rate is compared).  In
# 2-d the error reaches rounding (1.3e-13) after sweep 6, so the rates of
# sweeps 2 to 5 are compared there; in 1-d those of sweeps 4 to 9.
_C2_CASES = {
    "16": (lambda: _sine_1d(16), 10, 4),
    "64": (lambda: _sine_1d(64), 10, 4),
    "2d-n32": (_gs2d_times_10, 6, 2),
}


@pytest.mark.parametrize("name", list(_C2_CASES))
def test_plain_sweeps_contract_second_differences_at_the_sup_rate(name):
    make_geom, sweeps, first = _C2_CASES[name]
    geom = make_geom()
    star = _centred(tight_run(geom).psis)
    psis = np.zeros_like(star)
    e0, e2 = [], []  # sup and second-difference errors after each sweep
    for _ in range(sweeps):
        psis = _plain_sweep(geom, psis)
        err = psis - star
        e0.append(np.abs(err).max())
        e2.append(max(np.abs(hessian(geom.grid, e).diag).max() for e in err))
    e0, e2 = np.array(e0), np.array(e2)
    # r[j - 1] is the rate e_{j+1} / e_j of sweep j
    r0, r2 = e0[1:] / e0[:-1], e2[1:] / e2[:-1]
    rates = slice(first - 1, None)
    assert np.all(np.abs(r2[rates] / r0[rates] - 1.0) <= 0.01), (r0, r2)
    # the slow error is mostly the lowest Fourier mode, whose second
    # differences are about 4 pi^2 times its values (42.4 at N = 16, 42.9
    # at N = 64, 41.4 to 42.0 in 2-d)
    ratio = e2[rates] / e0[rates]
    mode = 4.0 * np.pi**2
    assert np.all((0.9 * mode <= ratio) & (ratio <= 1.15 * mode)), ratio


# ---------------------------------------------------------------------------
# the spectral certificate: the plain rate is the spectral radius of the
# sweep Jacobian on fields with the data's symmetry

# x_1 -> 1/2 - x_1 on the 1-d grid of N = 16 points; f and the fixed point
# are even under it, so a start from zero never excites an odd mode
_MIRROR = (8 - np.arange(16)) % 16
_EVEN = np.eye(16)[_MIRROR] / 2 + np.eye(16) / 2  # projector on even fields

# name: (A, sweep mode)
_ROWS = {
    "(30, 40), Gauss-Seidel": ((30.0, 40.0), "gauss_seidel"),
    "(30, 40), Jacobi": ((30.0, 40.0), "jacobi"),
    "30 (1, 1.3, 0.8), Jacobi": ((30.0, 39.0, 24.0), "jacobi"),
    "50 (1, 1.3, 0.8), Jacobi": ((50.0, 65.0, 40.0), "jacobi"),
}


def _odd_part(psis):
    return (psis - psis[:, _MIRROR]) / 2


@functools.cache
def _linearization(row):
    """(geometry, fixed point, rho(J), rho of J on even tuples, top
    eigenvector of J) for the 1-d row ``row`` of _ROWS at N = 16.

    J is the forward-difference Jacobian (step 1e-6) of the centred plain
    sweep at the tight fixed point, on flat tuples.
    """
    scales, mode = _ROWS[row]
    geom = _sine_1d(16, scales)
    star = _centred(tight_run(geom).psis)
    base = _plain_sweep(geom, star, mode).ravel()
    columns = []
    for j in range(star.size):
        moved = star.ravel().copy()
        moved[j] += 1e-6
        moved = _plain_sweep(geom, moved.reshape(star.shape), mode).ravel()
        columns.append((moved - base) / 1e-6)
    J = np.transpose(columns)
    values, vectors = np.linalg.eig(J)
    top = np.argmax(np.abs(values))
    # J commutes with the mirror, so J times the projector on even tuples
    # has the eigenvalues of J on them, and zeros
    even = np.linalg.eigvals(J @ np.kron(np.eye(geom.k), _EVEN))
    return (
        geom, star, abs(values[top]), np.abs(even).max(),
        vectors[:, top].real.reshape(star.shape),
    )


def _plain_errors(geom, star, start):
    """Sup errors of the tuple and of its odd part after sweeps 1 to 10:
    e[j - 1] after sweep j, so e[j - 1] / e[j - 2] is the rate of sweep j."""
    psis, e, odd = start, [], []
    for _ in range(10):
        psis = _plain_sweep(geom, psis)
        e.append(np.abs(psis - star).max())
        odd.append(np.abs(_odd_part(psis - star)).max())
    return np.array(e), np.array(odd)


@pytest.mark.parametrize("row", list(_ROWS))
def test_the_top_mode_of_the_sweep_jacobian_is_odd(row):
    _, star, _, _, top = _linearization(row)
    assert np.abs(_odd_part(star)).max() <= 1e-14
    # 2e-8 measured: the finite-difference error of J
    assert np.abs(top + top[:, _MIRROR]).max() <= 1e-6 * np.abs(top).max()


def test_a_zero_start_contracts_at_the_spectral_radius_on_even_fields():
    geom, star, _, rho_even, _ = _linearization("(30, 40), Gauss-Seidel")
    e, odd = _plain_errors(geom, star, np.zeros_like(star))
    assert odd.max() <= 1e-15
    # the rates of sweeps 5 to 10 against rho_even 0.21210; rho is 0.22581
    assert np.all(np.abs(e[4:] / e[3:-1] / rho_even - 1.0) <= 1e-3), e


def test_the_odd_part_of_a_cosine_start_decays_at_the_spectral_radius():
    geom, star, rho, _, _ = _linearization("(30, 40), Gauss-Seidel")
    start = np.tile(0.1 * np.cos(2 * np.pi * geom.grid.coords()[0]), (2, 1))
    _, odd = _plain_errors(geom, star, start)
    # the rates of sweeps 2 to 10
    assert np.all(np.abs(odd[1:] / odd[:-1] / rho - 1.0) <= 0.01), odd


def test_gauss_seidel_contracts_at_the_square_of_the_jacobi_rate():
    # Young's relation for k = 2: 0.22581 against 0.47519^2, and 0.21210
    # against 0.46054^2 on even tuples
    _, _, gs, gs_even, _ = _linearization("(30, 40), Gauss-Seidel")
    _, _, jacobi, jacobi_even, _ = _linearization("(30, 40), Jacobi")
    assert (gs, gs_even) == pytest.approx(
        (jacobi**2, jacobi_even**2), rel=1e-3
    )


def test_the_certificate_predicts_the_k3_jacobi_divergence():
    # rho(J) 0.884 and 1.135: the plain Jacobi run converges in 118 sweeps
    # at the first and stops "diverging" at sweep 4 at the second
    assert _linearization("30 (1, 1.3, 0.8), Jacobi")[2] < 1.0
    assert _linearization("50 (1, 1.3, 0.8), Jacobi")[2] > 1.0
