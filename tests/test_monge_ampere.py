import numpy as np
import pytest
import scipy.sparse as sp

from coupled_ricci import monge_ampere
from coupled_ricci import (
    BackgroundGeometry,
    PeriodicGrid,
    continuity_solve,
    dense_newton,
    hessian,
    is_admissible,
    log_ma_linearization,
    ma_density,
    newton_step,
    solve_tke,
)
from coupled_ricci.errors import (
    ContinuityBreakdown,
    NoConvergence,
    NonAdmissible,
    ValidationError,
)

from cone_margin import admissibility_margin


def make_geom(n=1, N=16, lam=-1, k=1, a=1.0, f=None):
    grid = PeriodicGrid(n, N)
    A = np.stack([np.eye(n) * a for _ in range(k)])
    if f is None:
        f = np.ones(grid.shape)
    return BackgroundGeometry(grid=grid, lam=lam, A=A, f=f)


# ---------------------------------------------------------------------------
# background data validation


def test_geometry_collects_all_violations():
    grid = PeriodicGrid(1, 8)
    with pytest.raises(ValidationError) as err:
        BackgroundGeometry(
            grid=grid,
            lam=2,
            A=np.array([[[-1.0]]]),
            f=np.full(grid.shape, -0.5),
        )
    text = "; ".join(err.value.violations)
    assert "lambda" in text
    assert "A_1" in text
    assert "positive" in text


@pytest.mark.parametrize("n, A", [
    (1, [[[np.inf]]]),
    (1, [[[np.nan]]]),
    (1, [[[1.0]], [[-np.inf]]]),
    (2, [[[np.inf, 0.0], [0.0, 1.0]]]),
])
def test_geometry_rejects_non_finite_class_matrices(n, A):
    grid = PeriodicGrid(n, 4)
    with pytest.raises(ValidationError) as err:
        BackgroundGeometry(grid=grid, lam=-1, A=A, f=np.ones(grid.shape))
    # the last class is the bad one
    assert err.value.violations == [f"A_{len(A)} has non-finite entries"]


def test_geometry_volume_is_background_determinant():
    geom = make_geom(n=1, a=2.5, k=2)
    np.testing.assert_allclose(geom.volumes, [2.5, 2.5])
    grid = PeriodicGrid(2, 8)
    A = np.array([[[2.0, 0.5], [0.5, 1.0]]])
    geom2 = BackgroundGeometry(grid=grid, lam=-1, A=A, f=np.ones(grid.shape))
    np.testing.assert_allclose(geom2.volumes, [1.75])


# ---------------------------------------------------------------------------
# densities and admissibility


def test_density_of_zero_potential_is_background_volume():
    g = PeriodicGrid(2, 8)
    A = np.array([[1.5, 0.25], [0.25, 2.0]])
    dens = ma_density(g, A, np.zeros(g.shape))
    np.testing.assert_allclose(dens, np.linalg.det(A), rtol=0, atol=1e-14)


def test_density_cosine_example_goes_negative():
    # second difference of cos at N=4 is -32, so the density 1 - 32 = -31
    g = PeriodicGrid(1, 4)
    x = g.coords()[0]
    psi = np.cos(2 * np.pi * x)
    dens = ma_density(g, np.array([[1.0]]), psi)
    assert dens[0] == pytest.approx(-31.0, abs=1e-12)
    assert not is_admissible(g, np.array([[1.0]]), psi)


def test_density_matches_symbolic_two_by_two():
    # for a field of x_1 only, both variants lose the mixed entry and the
    # density is the literal product formula
    g = PeriodicGrid(2, 8)
    x1, _ = g.coords()
    psi = 0.01 * np.cos(2 * np.pi * x1)
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    d11 = g.second_diff(psi, 0)
    np.testing.assert_allclose(
        ma_density(g, A, psi), (1.0 + d11) * 1.0, rtol=0, atol=1e-14
    )


def test_density_is_average_of_variant_determinants():
    rng = np.random.default_rng(6)
    g = PeriodicGrid(2, 8)
    A = np.array([[1.2, 0.3], [0.3, 0.9]])
    psi = 2e-3 * rng.standard_normal(g.shape)
    h = hessian(g, psi)
    dets = [np.linalg.det(A + v) for v in h.variant_matrices()]
    np.testing.assert_allclose(
        ma_density(g, A, psi), 0.5 * (dets[0] + dets[1]), rtol=1e-12
    )


def test_density_shift_invariance():
    # adding a constant only perturbs the stencils at rounding level
    rng = np.random.default_rng(7)
    g = PeriodicGrid(1, 16)
    A = np.array([[1.0]])
    psi = 1e-4 * rng.standard_normal(g.shape)
    np.testing.assert_allclose(
        ma_density(g, A, psi), ma_density(g, A, psi + 3.7), rtol=0, atol=1e-10
    )


def test_density_integral_is_exactly_conserved():
    # integration by parts kills every Hessian term in the integral,
    # including the mixed ones, thanks to the variant averaging
    rng = np.random.default_rng(8)
    for n, N in ((1, 16), (2, 8)):
        g = PeriodicGrid(n, N)
        A = np.eye(n) + 0.1
        psi = rng.standard_normal(g.shape)
        total = g.integrate(ma_density(g, A, psi))
        assert total == pytest.approx(np.linalg.det(A), rel=1e-13)


def test_admissibility_margin_two_dim():
    g = PeriodicGrid(2, 8)
    A = np.array([[2.0, 0.0], [0.0, 3.0]])
    assert admissibility_margin(g, A, np.zeros(g.shape)) == pytest.approx(2.0)


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (2, 16)])
def test_is_admissible_matches_margin_sign(n, N):
    # scales of grid-scale noise on both sides of the cone boundary, down
    # to a relative 1e-9 from it; closer than that the eigenvalue formula
    # of the margin rounds to zero before the determinant does
    rng = np.random.default_rng(30 + n)
    g = PeriodicGrid(n, N)
    A = np.array([[1.5]]) if n == 1 else np.array([[1.5, 0.3], [0.3, 1.2]])
    seen = set()
    for _ in range(20):
        u = g.h**2 * rng.standard_normal(g.shape)
        lo, hi = 0.0, 1.0
        while admissibility_margin(g, A, hi * u) > 0.0:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if admissibility_margin(g, A, mid * u) > 0.0:
                lo = mid
            else:
                hi = mid
        for scale in (0.5 * lo, lo * (1 - 1e-9), hi * (1 + 1e-9), 2.0 * hi):
            psi = scale * u
            want = admissibility_margin(g, A, psi) > 0.0
            assert is_admissible(g, A, psi) == want
            dens = monge_ampere._cone_density(g, A, hessian(g, psi))
            if want:
                assert np.array_equal(dens, ma_density(g, A, psi))
            else:
                assert dens is None
            seen.add(want)
    assert seen == {True, False}
    psi = np.zeros(g.shape)
    psi[(1,) * n] = np.nan
    assert not is_admissible(g, A, psi)
    assert monge_ampere._cone_density(g, A, hessian(g, psi)) is None


# ---------------------------------------------------------------------------
# linearization and newton_step


def test_linearization_matches_finite_differences():
    rng = np.random.default_rng(9)
    for n, N in ((1, 16), (2, 8)):
        g = PeriodicGrid(n, N)
        A = np.eye(n) * 1.5
        phi = 1e-4 * rng.standard_normal(g.shape)
        lin = log_ma_linearization(g, A, phi)
        delta = rng.standard_normal(g.shape)
        eps = 1e-6
        fd = (
            np.log(ma_density(g, A, phi + eps * delta))
            - np.log(ma_density(g, A, phi - eps * delta))
        ) / (2 * eps)
        an = (lin @ delta.ravel()).reshape(g.shape)
        assert np.abs(fd - an).max() <= 1e-5 * max(1.0, np.abs(an).max())


def test_linearization_annihilates_constants():
    g = PeriodicGrid(2, 8)
    A = np.eye(2)
    lin = log_ma_linearization(g, A, np.zeros(g.shape))
    out = lin @ np.ones(g.num_points)
    assert np.abs(out).max() <= 1e-12


def test_newton_step_vanishes_at_solution():
    geom = make_geom(N=16, a=1.5, f=np.full((16,), 1.5))
    psi, rep = solve_tke(geom, 0, np.zeros(16))
    assert rep.newton_iterations == 0
    phi = psi + np.log(rep.c)
    delta, ds, predicted = newton_step(
        geom.grid, geom.A[0], -1, np.log(geom.f), phi
    )
    assert np.abs(delta).max() <= 1e-12
    assert predicted <= 1e-12


def test_newton_step_requires_admissible_iterate():
    g = PeriodicGrid(1, 4)
    x = g.coords()[0]
    with pytest.raises(NonAdmissible):
        newton_step(g, np.array([[1.0]]), -1, np.zeros(4), np.cos(2 * np.pi * x))


def test_newton_step_bordered_form():
    g = PeriodicGrid(1, 16)
    x = g.coords()[0]
    A = np.array([[1.0]])
    rhs = 0.1 * np.sin(2 * np.pi * x)
    phi = np.zeros(16)
    res0 = np.abs(np.log(ma_density(g, A, phi)) + phi - rhs - 0.0).max()
    delta, ds, predicted = newton_step(g, A, 1, rhs, phi, s=0.0, t=1.0)
    phi1 = phi + delta
    s1 = ds
    res1 = np.abs(np.log(ma_density(g, A, phi1)) + phi1 - rhs - s1).max()
    assert res1 < 0.2 * res0
    assert abs(phi1.mean()) <= 1e-12


# ---------------------------------------------------------------------------
# matrix-free Newton systems against the assembled reference


def _random_admissible(n, N, seed):
    rng = np.random.default_rng(seed)
    g = PeriodicGrid(n, N)
    A = np.array([[1.5]]) if n == 1 else np.array([[1.5, 0.3], [0.3, 1.2]])
    # grid-scale noise whose Hessian entries are O(0.1), so the
    # coefficients of L vary from point to point
    phi = 0.2 + 0.05 * g.h**2 * rng.standard_normal(g.shape)
    assert is_admissible(g, A, phi)
    return g, A, phi, rng


def _assembled_system(g, A, phi, t):
    lin = log_ma_linearization(g, A, phi)
    P = g.num_points
    ones = np.ones((P, 1))
    return sp.bmat([[lin + t * sp.identity(P), -ones], [ones.T / P, None]])


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
@pytest.mark.parametrize("t", [-1.0, 0.0, 0.7])
def test_matrix_free_operator_matches_assembled_jacobian(n, N, t):
    g, A, phi, rng = _random_admissible(n, N, 20)
    hess = hessian(g, phi)
    operator, _, _ = monge_ampere._newton_operators(
        g, A, hess, ma_density(g, A, hess=hess), t
    )
    ref = _assembled_system(g, A, phi, t)
    for _ in range(3):
        x = rng.standard_normal(ref.shape[1])
        want = ref @ x
        got = operator @ x
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n,N", [(1, 32), (2, 16)])
@pytest.mark.parametrize("t", [-1.0, 0.0, 1.0])
def test_krylov_direction_matches_newton_step(n, N, t):
    # t = 0 exercises the zero-mode block of the bordered preconditioner
    g, A, phi, rng = _random_admissible(n, N, 21)
    rhs = 0.1 * rng.standard_normal(g.shape)
    hess = hessian(g, phi)
    dens = ma_density(g, A, hess=hess)
    s = 0.05
    res = np.log(dens) + t * phi - rhs - s
    want, want_s, _ = newton_step(g, A, 1, rhs, phi, s=s, t=t)
    got, got_s, its = monge_ampere._newton_direction(
        g, A, hess, dens, res, 2.5e-11, t, phi.mean()
    )
    assert its > 0
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    assert got_s == pytest.approx(want_s, rel=0, abs=1e-10 * max(1.0, abs(want_s)))
    if t == -1.0:
        # the rung at t = -1 is the lam = -1 equation for phi + s, and its
        # Newton step moves phi + s by the lam = -1 step of newton_step
        want_phi, _, _ = newton_step(g, A, -1, rhs, phi + s)
        tol = 1e-10 * max(1.0, np.abs(want_phi).max())
        assert np.abs(got + got_s - want_phi).max() <= tol


@pytest.mark.parametrize("eps", [0.0, 1e-6])
def test_constant_shifted_warm_start_takes_one_newton_step(eps):
    # As in an outer sweep of a stiff problem: the warm start is the sup-gauge
    # solution of a slice whose coupling differs by eps, so its lam = -1
    # residual is a constant of about log(1000) plus an O(eps) remainder.
    # The compatibility constant s starts at the residual's mean and takes
    # the constant, so at most one full Newton step is left.
    g = PeriodicGrid(1, 64)
    x = g.coords()[0]
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    A = np.array([[[1000.0]]])
    geom = BackgroundGeometry(grid=g, lam=-1, A=A, f=f)
    psi, _ = solve_tke(geom, 0, np.zeros(64))
    coupling = eps * np.cos(2 * np.pi * x)
    raw = np.log(ma_density(g, A[0], psi)) - psi - np.log(f) - coupling
    assert abs(raw.mean()) > 1.0
    _, rep = solve_tke(geom, 0, coupling, warm_start=psi)
    assert rep.newton_iterations <= 1
    assert all(a == 1.0 for a in rep.damping_factors)


def test_unconverged_krylov_solve_raises(monkeypatch):
    def stalled(operator, rhs, **_kwargs):
        return np.zeros_like(rhs), 7

    def no_line_search(*_args, **_kwargs):
        raise AssertionError("unconverged direction reached the line search")

    monkeypatch.setattr(monge_ampere, "gmres", stalled)
    monkeypatch.setattr(monge_ampere, "_line_search", no_line_search)
    g = PeriodicGrid(1, 16)
    x = g.coords()[0]
    f = np.exp(0.3 * np.sin(2 * np.pi * x))
    # lam = +1 without a warm start runs the bordered t = 0 rung first
    for lam in (-1, 1):
        geom = BackgroundGeometry(grid=g, lam=lam, A=np.array([[[1.0]]]), f=f)
        with pytest.raises(NoConvergence) as err:
            solve_tke(geom, 0, np.zeros(16))
        text = str(err.value)
        assert "linear solve" in text
        assert "iterations" in text
        assert "relative residual 1.000e+00" in text


def test_report_counts_krylov_iterations_per_newton_step():
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = 1 + 0.3 * np.sin(2 * np.pi * x)
    neg = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1.0]]]), f=f)
    _, rep = solve_tke(neg, 0, np.zeros(32))
    assert len(rep.krylov_iterations) == rep.newton_iterations > 0
    assert all(its > 0 for its in rep.krylov_iterations)
    pos = BackgroundGeometry(grid=g, lam=1, A=np.array([[[1.0]]]), f=f)
    _, rep = continuity_solve(pos, 0, np.zeros(32))
    assert len(rep.continuity_trace) > 1
    assert len(rep.krylov_iterations) == len(rep.damping_factors)
    assert len(rep.krylov_iterations) == rep.newton_iterations


@pytest.mark.parametrize("lam", [-1, 1])
def test_forcing_term_saves_krylov_iterations(monkeypatch, lam):
    # lam = +1 without a warm start walks the path of bordered rungs
    g = PeriodicGrid(2, 16)
    x1, x2 = g.coords()
    f = 1 + 0.3 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
    geom = BackgroundGeometry(grid=g, lam=lam, A=np.eye(2)[None], f=f)
    psi, rep = solve_tke(geom, 0, np.zeros(g.shape))
    monkeypatch.setattr(
        monge_ampere, "_FORCING_MAX", monge_ampere._KRYLOV_RTOL
    )
    psi_fixed, rep_fixed = solve_tke(geom, 0, np.zeros(g.shape))
    assert rep.residual <= 1e-10 and rep_fixed.residual <= 1e-10
    assert sum(rep.krylov_iterations) < sum(rep_fixed.krylov_iterations)
    assert np.abs(psi - psi_fixed).max() <= 1e-11


# ---------------------------------------------------------------------------
# slice solves, lam = -1


def test_trivial_slice_solve_is_instant():
    geom = make_geom(N=16, a=2.0, f=np.full((16,), 2.0))
    psi, rep = solve_tke(geom, 0, np.zeros(16))
    np.testing.assert_allclose(psi, 0.0, atol=1e-14)
    assert rep.newton_iterations == 0
    assert rep.c == pytest.approx(1.0, rel=1e-14)


def test_manufactured_discrete_solution_recovered():
    # build f so that a known admissible field solves the discrete
    # equation exactly with c = 1, then recover it to the inner tolerance
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    psi_star = 0.002 * np.sin(2 * np.pi * x)
    dens = ma_density(g, np.array([[1.0]]), psi_star)
    f = dens * np.exp(-psi_star)
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1.0]]]), f=f)
    psi, rep = solve_tke(geom, 0, np.zeros(32), tol_inner=1e-12)
    ref = psi_star - psi_star.max()
    assert np.abs(psi - ref).max() <= 1e-10
    assert rep.residual <= 1e-12


def test_solver_reports_quadratic_tail():
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = np.exp(0.5 * np.sin(2 * np.pi * x))
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1.0]]]), f=f)
    psi, rep = solve_tke(geom, 0, np.zeros(32), tol_inner=1e-12)
    hist = rep.residual_history
    assert len(hist) >= 3
    # estimate the quadratic constant from the first contraction and require
    # later ones to respect it with a generous safety factor; pairs at the
    # rounding floor are excluded
    pairs = [
        (a, b)
        for a, b in zip(hist, hist[1:])
        if 1e-8 < a < 2e-1 and b > 1e-13
    ]
    assert pairs, hist
    consts = [b / a**2 for a, b in pairs]
    assert max(consts) <= 50.0 * max(consts[0], 1e-3)


def test_warm_start_reduces_iterations():
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = np.exp(0.4 * np.sin(2 * np.pi * x))
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1.0]]]), f=f)
    psi, rep_cold = solve_tke(geom, 0, np.zeros(32))
    _, rep_warm = solve_tke(geom, 0, np.zeros(32), warm_start=psi)
    assert rep_warm.newton_iterations <= rep_cold.newton_iterations
    assert rep_warm.newton_iterations <= 1


def test_non_admissible_warm_start_falls_back():
    g = PeriodicGrid(1, 64)
    x = g.coords()[0]
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1.0]]]), f=f)
    bad = 0.1 * np.cos(2 * np.pi * x)
    assert not is_admissible(g, geom.A[0], bad)
    psi, rep = solve_tke(geom, 0, np.zeros(64), warm_start=bad)
    assert rep.residual <= 1e-10


def test_random_densities_always_solve():
    # robustness contract: every positive f with log-oscillation <= 0.3
    rng = np.random.default_rng(10)
    g = PeriodicGrid(1, 16)
    A = np.array([[[1.0]]])
    for _ in range(100):
        f = np.exp(0.3 * (2.0 * rng.random(g.shape) - 1.0))
        geom = BackgroundGeometry(grid=g, lam=-1, A=A, f=f)
        psi, rep = solve_tke(geom, 0, np.zeros(g.shape))
        assert rep.residual <= 1e-10


def test_small_class_matrix_slice_reaches_default_tolerance():
    # the compatibility constant is about -7 here; kept inside the iterate,
    # it rounded the h^-2 stencils above the tolerance and the line search
    # failed at a residual of 1e-8
    g = PeriodicGrid(1, 64)
    x = g.coords()[0]
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1e-3]]]), f=f)
    _, rep = solve_tke(geom, 0, np.zeros(64))
    assert rep.residual <= 1e-10


def test_sup_normalization_is_exact():
    g = PeriodicGrid(1, 16)
    x = g.coords()[0]
    f = np.exp(0.2 * np.cos(2 * np.pi * x))
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1.0]]]), f=f)
    psi, _ = solve_tke(geom, 0, np.zeros(16), norm_mode="sup")
    assert psi.max() == 0.0
    psi2, _ = solve_tke(geom, 0, np.zeros(16), norm_mode="mean")
    assert abs(psi2.mean()) <= 1e-12 * max(1.0, np.abs(psi2).max())


def test_compatibility_constant_identity():
    g = PeriodicGrid(1, 16)
    x = g.coords()[0]
    f = np.exp(0.3 * np.sin(2 * np.pi * x))
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[2.0]]]), f=f)
    gfield = 0.1 * np.cos(2 * np.pi * x)
    psi, rep = solve_tke(geom, 0, gfield)
    dens = ma_density(g, geom.A[0], psi)
    weight = rep.c * np.exp(psi + gfield) * f
    assert g.integrate(dens) == pytest.approx(g.integrate(weight), rel=1e-13)


def test_report_residual_matches_independent_reevaluation():
    g = PeriodicGrid(1, 16)
    x = g.coords()[0]
    f = np.exp(0.3 * np.sin(2 * np.pi * x))
    geom = BackgroundGeometry(grid=g, lam=-1, A=np.array([[[1.0]]]), f=f)
    gfield = np.zeros(16)
    psi, rep = solve_tke(geom, 0, gfield)
    dens = ma_density(g, geom.A[0], psi)
    again = np.abs(
        np.log(dens) - np.log(rep.c) + geom.lam * (psi + gfield) - np.log(f)
    ).max()
    assert again == pytest.approx(rep.residual, rel=1e-14, abs=1e-300)


# ---------------------------------------------------------------------------
# slice solves, lam = +1 and the continuity path


def test_positive_sign_constant_data():
    geom = make_geom(N=16, lam=1, a=1.0, f=np.ones(16))
    psi, rep = solve_tke(geom, 0, np.zeros(16))
    np.testing.assert_allclose(psi, 0.0, atol=1e-13)
    assert rep.residual <= 1e-10


def test_continuity_path_near_constant_is_short():
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = 1 + 0.05 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=1, A=np.array([[[1.0]]]), f=f)
    psi, rep = continuity_solve(geom, 0, np.zeros(32))
    assert rep.residual <= 1e-10
    ts = [t for t, _ in rep.continuity_trace]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert len(ts) <= 20


def test_continuity_breakdown_reports_last_good_t():
    # background scale large enough that the linearized operator folds
    # inside the parameter interval
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = 1 + 0.9 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=1, A=np.array([[[100.0]]]), f=f)
    with pytest.raises(ContinuityBreakdown) as err:
        continuity_solve(geom, 0, np.zeros(32))
    assert 0.0 < err.value.last_good_t < 1.0
    assert err.value.trace


def test_positive_sign_warm_start_skips_path():
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = 1 + 0.05 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=1, A=np.array([[[1.0]]]), f=f)
    psi, rep1 = solve_tke(geom, 0, np.zeros(32))
    psi2, rep2 = solve_tke(geom, 0, np.zeros(32), warm_start=psi)
    assert rep2.continuity_trace == [(1.0, rep2.newton_iterations)]
    assert np.abs(psi2 - psi).max() <= 1e-9


def test_positive_sign_direct_solve_respects_newton_budget():
    # the direct attempt from this warm start needs 6 Newton steps; with a
    # budget of 4 it must give up and walk the path within that budget
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = 1 + 0.05 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=1, A=np.array([[[1.0]]]), f=f)
    warm = 0.02 * np.cos(2 * np.pi * x)
    _, rep = solve_tke(geom, 0, np.zeros(32), warm_start=warm)
    [(t, iters)] = rep.continuity_trace
    assert t == 1.0 and iters > 4
    _, rep = solve_tke(geom, 0, np.zeros(32), warm_start=warm, max_newton=4)
    assert rep.continuity_trace[0][0] == 0.0
    assert all(iters <= 4 for _, iters in rep.continuity_trace)
    assert rep.residual <= 1e-10


@pytest.mark.parametrize("lam", [-1, 1])
def test_warm_started_slice_builds_one_hessian_per_iterate(monkeypatch, lam):
    # one Hessian for the start, one per line-search trial and one for the
    # normalized psi; for lam = +1 the direct attempt succeeds
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = 1 + 0.05 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=lam, A=np.array([[[1.0]]]), f=f)
    warm = 0.02 * np.cos(2 * np.pi * x)
    calls = []
    real_hessian = monge_ampere.hessian

    def counted(grid, values):
        calls.append(1)
        return real_hessian(grid, values)

    monkeypatch.setattr(monge_ampere, "hessian", counted)
    _, rep = solve_tke(geom, 0, np.zeros(32), warm_start=warm)
    if lam == 1:
        assert rep.continuity_trace == [(1.0, rep.newton_iterations)]
    assert rep.newton_iterations > 0
    trials = sum(1 + round(-np.log2(a)) for a in rep.damping_factors)
    assert len(calls) == 1 + trials + 1


def test_newton_budget_below_one_is_rejected():
    g = PeriodicGrid(1, 16)
    x = g.coords()[0]
    f = 1 + 0.05 * np.sin(2 * np.pi * x)
    warm = 0.02 * np.cos(2 * np.pi * x)
    for lam in (-1, 1):
        geom = BackgroundGeometry(grid=g, lam=lam, A=np.array([[[1.0]]]), f=f)
        for budget in (0, -1):
            with pytest.raises(ValueError, match="max_newton"):
                solve_tke(geom, 0, np.zeros(16), max_newton=budget)
            with pytest.raises(ValueError, match="max_newton"):
                solve_tke(
                    geom, 0, np.zeros(16), warm_start=warm, max_newton=budget
                )
    with pytest.raises(ValueError, match="max_newton"):
        monge_ampere._damped_newton(
            g, np.array([[1.0]]), np.log(f), 1e-10, np.zeros(16), 0, t=0.0
        )


def test_newton_converging_on_its_last_allowed_step_succeeds():
    # from this warm start the direct attempt fails within 3 steps, and
    # the t = 0 rung of the path converges on exactly its third step
    g = PeriodicGrid(1, 32)
    x = g.coords()[0]
    f = 1 + 0.05 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(grid=g, lam=1, A=np.array([[[1.0]]]), f=f)
    warm = 0.02 * np.cos(2 * np.pi * x)
    _, rep = solve_tke(geom, 0, np.zeros(32), warm_start=warm, max_newton=3)
    assert rep.continuity_trace[0] == (0.0, 3)
    assert all(iters <= 3 for _, iters in rep.continuity_trace)
    assert rep.residual <= 1e-10


# ---------------------------------------------------------------------------
# the t = 0 rung: the Calabi-Yau-type equation


def calabi_yau(grid, A, rho, tol_inner=1e-10):
    """ma_density(A, psi) = c * rho with mean psi = 0, as the t = 0 rung.

    c is the volume ratio integrate(ma_density) / integrate(rho).
    """
    psi, _, _ = monge_ampere._damped_newton(
        grid, A, np.log(rho), 0.25 * tol_inner, np.zeros(grid.shape), 40, t=0.0
    )
    c = grid.integrate(ma_density(grid, A, psi)) / grid.integrate(rho)
    return psi, c


def test_calabi_yau_constant_target():
    g = PeriodicGrid(1, 16)
    psi, c = calabi_yau(g, np.array([[1.5]]), np.full(16, 2.0))
    np.testing.assert_allclose(psi, 0.0, atol=1e-13)
    assert c == pytest.approx(0.75, rel=1e-13)


def test_calabi_yau_matches_dense_reference():
    g = PeriodicGrid(1, 8)
    x = g.coords()[0]
    A = np.array([[1.0]])
    rho = 1 + 0.3 * np.cos(2 * np.pi * x)

    def stacked_residual(u):
        psi, c = u[:8], u[8]
        dens = ma_density(g, A, psi)
        return np.concatenate([dens - c * rho, [psi.mean()]])

    u0 = np.concatenate([np.zeros(8), [1.0 / g.integrate(rho)]])
    u_ref, _ = dense_newton(stacked_residual, u0, tol=1e-13)
    psi, c = calabi_yau(g, A, rho, tol_inner=1e-12)
    assert np.abs(psi - u_ref[:8]).max() <= 1e-8
    assert c == pytest.approx(u_ref[8], rel=1e-8)
