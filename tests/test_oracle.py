import ast
import pathlib

import numpy as np
import pytest

from coupled_ricci import (
    BackgroundGeometry,
    IterationConfig,
    PeriodicGrid,
    cke_residual,
    ding,
    ma_density,
    run,
)
from coupled_ricci.cli import _downsample_config
from coupled_ricci.config import build_run_config
from coupled_ricci.errors import NoConvergence, OracleIntractable
from coupled_ricci.oracle import (
    StackedSystem,
    dense_newton,
    oracle_ding_descent,
    oracle_fixed_point,
)
from coupled_ricci.scenarios import get_preset


def small_geom(lam=-1, k=2, N=8, amp=0.5):
    grid = PeriodicGrid(1, N)
    x = grid.coords()[0]
    return BackgroundGeometry(
        grid=grid,
        lam=lam,
        A=np.ones((k, 1, 1)),
        f=1 + amp * np.sin(2 * np.pi * x),
    )


def sup_normalize(psis):
    return psis - psis.reshape(psis.shape[0], -1).max(axis=1).reshape(
        (-1,) + (1,) * (psis.ndim - 1)
    )


# ---------------------------------------------------------------------------
# dense Newton helper


def test_dense_newton_scalar_root():
    u, iters = dense_newton(lambda u: np.array([u[0] ** 2 - 2.0]), np.array([1.0]))
    assert u[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert iters >= 1


def test_dense_newton_reports_failure():
    with pytest.raises(NoConvergence):
        dense_newton(lambda u: np.array([u[0] ** 2 + 1.0]), np.array([1.0]),
                     max_iter=10)


# ---------------------------------------------------------------------------
# stacked system


def test_stacked_join_split_round_trip():
    geom = small_geom()
    system = StackedSystem(geom)
    rng = np.random.default_rng(40)
    psis = rng.standard_normal((2,) + geom.grid.shape)
    cs = np.array([1.1, 0.9])
    back_psis, back_cs = system.split(system.join(psis, cs))
    np.testing.assert_array_equal(back_psis, psis)
    np.testing.assert_array_equal(back_cs, cs)


def test_constant_data_solved_by_initial_guess():
    grid = PeriodicGrid(1, 8)
    geom = BackgroundGeometry(
        grid=grid, lam=-1, A=np.ones((2, 1, 1)), f=np.full(grid.shape, 2.0)
    )
    psis, cs, dval, iterations = oracle_fixed_point(geom)
    np.testing.assert_allclose(psis, 0.0, atol=1e-12)
    np.testing.assert_allclose(cs, 0.5, rtol=1e-12)
    assert dval == pytest.approx(np.log(2.0), rel=1e-12)
    assert iterations <= 1


def test_oracle_root_satisfies_both_equation_forms():
    geom = small_geom()
    psis, cs, _, _ = oracle_fixed_point(geom)
    # residual of the stacked system itself
    system = StackedSystem(geom)
    res = system.residual(system.join(psis, cs))
    assert np.abs(res).max() <= 1e-12
    # mean-zero normalization per class
    for i in range(geom.k):
        assert abs(psis[i].mean()) <= 1e-13
    # density identity slice by slice
    weight = np.exp(psis.sum(axis=0)) * geom.f
    for i in range(geom.k):
        dens = ma_density(geom.grid, geom.A[i], psis[i])
        np.testing.assert_allclose(dens, cs[i] * weight, rtol=1e-10)


def test_oracle_refuses_large_grids():
    geom = small_geom(N=128)
    with pytest.raises(OracleIntractable):
        oracle_fixed_point(geom)
    with pytest.raises(OracleIntractable):
        oracle_ding_descent(geom)


@pytest.mark.parametrize("lam", [-1, 1])
def test_oracle_matches_the_iteration(lam):
    geom = small_geom(lam=lam, amp=0.3)
    psis, _, dval, _ = oracle_fixed_point(geom)
    state = run(geom, IterationConfig(tol_fixed_point=1e-10))
    assert state.converged
    diff = sup_normalize(psis) - sup_normalize(state.psis)
    assert np.abs(diff).max() <= 1e-8
    assert dval == pytest.approx(ding(geom, state.psis), abs=1e-10)
    assert cke_residual(geom, psis) <= 1e-10


def test_oracle_tolerance_follows_the_density_scale():
    # det A_i near 4e3 puts an absolute 1e-12 on the density-form residual
    # below its rounding; the tolerance scales with max_i det A_i
    grid = PeriodicGrid(2, 8)
    x1, x2 = grid.coords()
    geom = BackgroundGeometry(
        grid=grid,
        lam=-1,
        A=np.array([[[60.0, 5.0], [5.0, 65.0]], [[70.0, 0.0], [0.0, 60.0]]]),
        f=1 + 0.3 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2),
    )
    psis, _, _, iterations = oracle_fixed_point(geom)
    assert iterations == 4
    state = run(geom, IterationConfig())
    assert state.converged
    diff = sup_normalize(psis) - sup_normalize(state.psis)
    assert np.abs(diff).max() <= 2.5e-9


def test_oracle_line_search_rejects_overflowing_trial_points():
    # lam = +1 trial points of the steep preset overflow exp(-lam sum psi);
    # the line search counts them as failed steps, without a warning
    geom = _downsample_config(
        build_run_config(get_preset("pos-k2-steep"))
    ).geometry()
    with pytest.raises(NoConvergence, match="line search stalled"):
        oracle_fixed_point(geom)


# ---------------------------------------------------------------------------
# gradient descent reference


def test_descent_minimizes_ding_monotonically():
    geom = small_geom(amp=0.3)
    psis, energy, trace, iterations = oracle_ding_descent(geom)
    assert iterations == len(trace) - 1
    diffs = np.diff(trace)
    assert np.all(diffs <= 0.0)
    ref_psis, _, ref_d, _ = oracle_fixed_point(geom)
    assert energy == pytest.approx(ref_d, abs=1e-10)
    assert np.abs(sup_normalize(psis) - sup_normalize(ref_psis)).max() <= 1e-5


# ---------------------------------------------------------------------------
# independence from the production solver


def test_oracle_module_avoids_the_newton_stack():
    """The reference imports only the problem definition from the package."""
    src = pathlib.Path("src/coupled_ricci/oracle.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.update(f"{module}:{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    allowed = {
        "__future__:annotations",
        "dataclasses:dataclass",
        "numpy",
        ".errors:NoConvergence",
        ".errors:OracleIntractable",
        ".functionals:ding",
        ".monge_ampere:BackgroundGeometry",
        ".monge_ampere:is_admissible",
        ".monge_ampere:ma_density",
    }
    assert imported <= allowed, f"oracle imports {sorted(imported - allowed)}"
