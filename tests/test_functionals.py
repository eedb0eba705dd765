import csv
import io

import numpy as np
import pytest

from coupled_ricci import functionals
from coupled_ricci import (
    BackgroundGeometry,
    EnergyLedger,
    PeriodicGrid,
    am_energy,
    cke_residual,
    ding,
    ding_first_variation,
    hessian,
    i_functional,
    j_functional,
    l_functional,
    ma_density,
    ricci_potentials,
    run,
)
from coupled_ricci.errors import NonAdmissible

from cone_margin import admissibility_margin
from hessian_reference import point_matrices, roll_stencils


def random_admissible(grid, A, rng, margin=0.2):
    """A mean-zero field scaled until A + D^2 psi has a safe margin."""
    psi = rng.standard_normal(grid.shape)
    psi -= psi.mean()
    floor = margin * np.linalg.eigvalsh(A).min()
    for _ in range(80):
        if admissibility_margin(grid, A, psi) > floor:
            return psi
        psi *= 0.5
    raise AssertionError("could not scale the sample into the cone")


def sine_geom(N=8, k=2, lam=-1):
    grid = PeriodicGrid(1, N)
    x = grid.coords()[0]
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    A = np.ones((k, 1, 1))
    return BackgroundGeometry(grid=grid, lam=lam, A=A, f=f)


# ---------------------------------------------------------------------------
# Aubin-Mabuchi energy


def test_am_energy_one_dim_direct_quadrature():
    g = PeriodicGrid(1, 8)
    x = g.coords()[0]
    psi = 0.002 * np.sin(2 * np.pi * x)
    a = 1.5
    dens = a + roll_stencils(g, psi)[0]
    expected = 0.5 * (g.integrate(psi * dens) + g.integrate(psi * a))
    assert am_energy(g, np.array([[a]]), psi) == pytest.approx(
        expected, rel=1e-14
    )


def test_am_energy_zero_field_is_zero():
    g = PeriodicGrid(2, 8)
    assert am_energy(g, np.eye(2), np.zeros(g.shape)) == 0.0


def test_am_energy_rejects_non_admissible():
    g = PeriodicGrid(1, 4)
    x = g.coords()[0]
    with pytest.raises(NonAdmissible):
        am_energy(g, np.array([[1.0]]), np.cos(2 * np.pi * x))


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_am_gradient_is_the_density(n, N):
    # d/ds AM(s psi) = integral psi * ma_density(s psi); this holds to
    # rounding because the one-sided variants are adjoint to each other
    rng = np.random.default_rng(20 + n)
    g = PeriodicGrid(n, N)
    A = np.eye(n) * 1.2
    psi = random_admissible(g, A, rng)
    for s in (0.25, 0.75):
        eps = 1e-5
        fd = (
            am_energy(g, A, (s + eps) * psi) - am_energy(g, A, (s - eps) * psi)
        ) / (2 * eps)
        an = g.integrate(psi * ma_density(g, A, s * psi))
        assert fd == pytest.approx(an, rel=1e-7, abs=1e-10)


def test_am_energy_is_polynomial_in_the_scale():
    # n = 2: AM(s psi) = a1 s + a2 s^2 + a3 s^3 exactly, so the value at
    # s = 1/2 is determined by the values at s = 1, 2, 3
    rng = np.random.default_rng(22)
    g = PeriodicGrid(2, 8)
    A = np.array([[1.3, 0.2], [0.2, 0.9]])
    psi = random_admissible(g, A, rng)
    while admissibility_margin(g, A, 3.0 * psi) <= 0.05:
        psi *= 0.5
    vals = [am_energy(g, A, s * psi) for s in (1.0, 2.0, 3.0)]
    vander = np.array([[s, s**2, s**3] for s in (1.0, 2.0, 3.0)])
    coef = np.linalg.solve(vander, vals)
    predicted = coef @ np.array([0.5, 0.25, 0.125])
    assert am_energy(g, A, 0.5 * psi) == pytest.approx(
        predicted, rel=1e-10, abs=1e-14
    )


# ---------------------------------------------------------------------------
# I and J


def test_i_j_vanish_on_constants():
    g = PeriodicGrid(1, 8)
    A = np.array([[2.0]])
    const = np.full(g.shape, 1.3)
    assert i_functional(g, A, const) == pytest.approx(0.0, abs=1e-13)
    # J shifts by the mean under translation, so it is not zero on
    # constants; I is translation invariant
    rng = np.random.default_rng(23)
    psi = random_admissible(g, A, rng)
    assert i_functional(g, A, psi + 0.9) == pytest.approx(
        i_functional(g, A, psi), rel=1e-10, abs=1e-12
    )


def test_i_nonnegative_and_j_half_i_in_one_dim():
    rng = np.random.default_rng(24)
    g = PeriodicGrid(1, 16)
    A = np.array([[1.0]])
    for _ in range(25):
        psi = random_admissible(g, A, rng)
        ival = i_functional(g, A, psi)
        jval = j_functional(g, A, psi)
        assert ival >= -1e-14
        assert jval == pytest.approx(0.5 * ival, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_sandwich_inequality_random_samples(n, N):
    rng = np.random.default_rng(30 + n)
    g = PeriodicGrid(n, N)
    for _ in range(40):
        A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        low = np.linalg.eigvalsh(A).min()
        if low <= 0.3:
            A += (0.4 - low) * np.eye(n)
        psi = random_admissible(g, A, rng)
        ival = i_functional(g, A, psi)
        jval = j_functional(g, A, psi)
        assert ival / (n + 1) - 1e-12 <= jval <= ival + 1e-12


# ---------------------------------------------------------------------------
# L, Ding, Ricci potentials


def test_l_functional_constant_density():
    geom = sine_geom()
    f_const = BackgroundGeometry(
        grid=geom.grid, lam=-1, A=geom.A, f=np.full(geom.grid.shape, 2.0)
    )
    psis = np.zeros((2,) + geom.grid.shape)
    # lam=-1: L = log integral of f = log 2
    assert l_functional(f_const, psis) == pytest.approx(np.log(2.0), rel=1e-14)


def test_l_functional_direct_quadrature():
    geom = sine_geom()
    g = geom.grid
    x = g.coords()[0]
    psis = np.stack([0.1 * np.sin(2 * np.pi * x), np.zeros(g.shape)])
    expected = np.log(g.integrate(np.exp(psis.sum(axis=0)) * geom.f))
    assert l_functional(geom, psis) == pytest.approx(expected, rel=1e-14)


def test_ding_shift_invariance():
    rng = np.random.default_rng(31)
    geom = sine_geom()
    psis = 1e-3 * rng.standard_normal((2,) + geom.grid.shape)
    d0 = ding(geom, psis)
    d1 = ding(geom, psis + np.array([[0.7], [-1.3]]))
    assert d1 == pytest.approx(d0, abs=1e-12)


def test_ricci_potentials_normalization_identity():
    rng = np.random.default_rng(32)
    geom = sine_geom()
    g = geom.grid
    for _ in range(20):
        psis = 1e-3 * rng.standard_normal((2,) + g.shape)
        rhos = ricci_potentials(geom, psis)
        for i in range(2):
            dens = ma_density(g, geom.A[i], psis[i])
            mass = g.integrate(np.exp(rhos[i]) * dens)
            assert mass == pytest.approx(geom.volumes[i], rel=1e-12)


def test_ricci_potentials_of_an_underflowing_coupling_weight():
    # sum psi is -1000 at the bottom of the well, where exp(-lam * sum psi)
    # underflows to 0; at A = 1e5 the well is deep inside the cone
    grid = PeriodicGrid(1, 32)
    x = grid.coords()[0]
    geom = BackgroundGeometry(
        grid=grid, lam=-1, A=np.full((2, 1, 1), 1e5),
        f=1 + 0.5 * np.sin(2 * np.pi * x),
    )
    well = -250.0 * (1.0 - np.cos(2 * np.pi * x))
    psis = np.array([well, well])
    assert np.exp(psis.sum(axis=0)).min() == 0.0
    rhos = ricci_potentials(geom, psis)
    assert np.isfinite(rhos).all()
    for i in range(2):
        dens = ma_density(grid, geom.A[i], psis[i])
        mass = grid.integrate(np.exp(rhos[i]) * dens)
        assert mass == pytest.approx(geom.volumes[i], rel=1e-12)


@pytest.mark.parametrize("lam", [-1, 1])
def test_coupling_terms_of_a_weight_past_the_float_range(lam):
    # sum psi = -800 scales exp(-lam * sum psi) by exp(800 * lam), which
    # under- or overflows; constant potentials have ma_density det A_i, so
    # L = -800 - lam * log Z_f and rho_i = log(f / Z_f), Z_f the integral of f
    grid = PeriodicGrid(1, 32)
    x = grid.coords()[0]
    f = 1 + 0.5 * np.sin(2 * np.pi * x)
    geom = BackgroundGeometry(
        grid=grid, lam=lam, A=np.array([[[1.0]], [[2.0]]]), f=f
    )
    psis = np.full((2, 32), -400.0)
    z_f = grid.integrate(f)
    assert l_functional(geom, psis) == pytest.approx(
        -800.0 - lam * np.log(z_f), rel=1e-15
    )
    rhos = ricci_potentials(geom, psis)
    for rho in rhos:
        np.testing.assert_allclose(rho, np.log(f / z_f), rtol=0, atol=1e-12)


def test_ricci_potentials_vanish_at_fixed_point():
    geom = sine_geom(N=32)
    state = run(geom)
    assert state.converged
    assert cke_residual(geom, state.psis) <= 1e-8


def test_first_variation_matches_finite_differences():
    rng = np.random.default_rng(33)
    geom = sine_geom()
    psis = 2e-3 * rng.standard_normal((2,) + geom.grid.shape)
    worst = 0.0
    for _ in range(10):
        deltas = rng.standard_normal((2,) + geom.grid.shape)
        eps = 1e-6
        fd = (ding(geom, psis + eps * deltas) - ding(geom, psis - eps * deltas)) / (
            2 * eps
        )
        an = ding_first_variation(geom, psis, deltas)
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    assert worst <= 1e-7


# ---------------------------------------------------------------------------
# diagnostics: the ledger's osc and eqratio columns


def diagnostics(geom, psis):
    """Per-class oscillation and metric-equivalence ratio, the ratio from a
    dense eigen-solve of (A + D^2 psi, A) at every point, with the centered
    mixed entry."""
    out = {"osc": [], "eq_ratio": []}
    for A, psi in zip(geom.A, psis):
        chol_inv = np.linalg.inv(np.linalg.cholesky(A))
        hess = hessian(geom.grid, psi)
        metric = A + point_matrices(hess, hess.mixed_centered)
        eig = np.linalg.eigvalsh(chol_inv @ metric @ chol_inv.T)
        out["osc"].append(psi.max() - psi.min())
        out["eq_ratio"].append(eig.max() / eig.min())
    return {key: np.array(values) for key, values in out.items()}


def ledger_diagnostics(geom, psis):
    """The osc and eqratio columns of EnergyLedger.evaluate, per class."""
    terms = EnergyLedger(geom.k).evaluate(geom, psis)
    return {
        key: np.array([terms[f"{column}_{i + 1}"] for i in range(geom.k)])
        for key, column in (("osc", "osc"), ("eq_ratio", "eqratio"))
    }


def test_diagnostics_at_zero():
    geom = sine_geom()
    out = ledger_diagnostics(geom, np.zeros((2,) + geom.grid.shape))
    np.testing.assert_allclose(out["osc"], 0.0)
    np.testing.assert_allclose(out["eq_ratio"], 1.0)


def test_diagnostics_ratio_bounds():
    rng = np.random.default_rng(34)
    grid = PeriodicGrid(2, 8)
    A = np.array([[[1.5, 0.3], [0.3, 1.0]]])
    geom = BackgroundGeometry(grid=grid, lam=-1, A=A, f=np.ones(grid.shape))
    psi = random_admissible(grid, A[0], rng)
    out = ledger_diagnostics(geom, psi[None])
    assert out["eq_ratio"][0] >= 1.0
    assert out["eq_ratio"][0] == pytest.approx(
        diagnostics(geom, psi[None])["eq_ratio"][0], rel=1e-12
    )
    assert out["osc"][0] == pytest.approx(psi.max() - psi.min())


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_eqratio_is_invariant_under_the_class_scale(scale):
    rng = np.random.default_rng(36)
    grid = PeriodicGrid(2, 16)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    geom = BackgroundGeometry(grid=grid, lam=-1, A=A[None], f=np.ones(grid.shape))
    psi = random_admissible(grid, A, rng)
    scaled = scale * psi
    ratio = functionals.class_columns(
        grid, scale * A, scaled, hessian(grid, scaled)
    )[-1]
    assert ratio == pytest.approx(
        diagnostics(geom, psi[None])["eq_ratio"][0], rel=1e-12
    )


def test_eqratio_near_the_background_metric():
    grid = PeriodicGrid(2, 32)
    x1, x2 = grid.coords()
    psi = 1e-9 * (
        np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
        + 0.3 * np.cos(4 * np.pi * x2)
    )
    A = np.array([[[2.0, 0.5], [0.5, 1.0]]])
    geom = BackgroundGeometry(grid=grid, lam=-1, A=A, f=np.ones(grid.shape))
    ratio = ledger_diagnostics(geom, psi[None])["eq_ratio"][0]
    reference = diagnostics(geom, psi[None])["eq_ratio"][0]
    assert ratio - 1.0 == pytest.approx(reference - 1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# ledger


def test_ledger_column_order():
    ledger = EnergyLedger(2)
    assert ledger.columns == [
        "step", "AM_1", "AM_2", "I_1", "I_2", "J_1", "J_2",
        "L", "D", "J_total",
        "rho_max_1", "rho_max_2", "osc_1", "osc_2",
        "eqratio_1", "eqratio_2", "inner_iters", "wall_ms",
    ]


def test_ledger_evaluate_matches_the_single_functionals(monkeypatch):
    rng = np.random.default_rng(35)
    grid = PeriodicGrid(2, 8)
    A = np.array([[[1.5, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 2.0]]])
    f = 1 + 0.3 * np.sin(2 * np.pi * grid.coords()[0])
    geom = BackgroundGeometry(grid=grid, lam=-1, A=A, f=f)
    psis = np.stack([random_admissible(grid, mat, rng) for mat in A])
    built = []
    monkeypatch.setattr(
        functionals, "hessian",
        lambda g, psi: built.append(1) or hessian(g, psi),
    )
    terms = EnergyLedger(2).evaluate(geom, psis)
    assert len(built) == 2
    monkeypatch.undo()
    rhos = ricci_potentials(geom, psis)
    out = diagnostics(geom, psis)
    for i in range(2):
        assert terms[f"AM_{i + 1}"] == am_energy(grid, A[i], psis[i])
        assert terms[f"I_{i + 1}"] == i_functional(grid, A[i], psis[i])
        assert terms[f"J_{i + 1}"] == j_functional(grid, A[i], psis[i])
        assert terms[f"rho_max_{i + 1}"] == np.abs(rhos[i]).max()
        assert terms[f"osc_{i + 1}"] == out["osc"][i]
        assert terms[f"eqratio_{i + 1}"] == pytest.approx(
            out["eq_ratio"][i], rel=1e-12
        )
    assert terms["L"] == l_functional(geom, psis)
    assert terms["D"] == ding(geom, psis)
    psis[1] = 0.5 * np.cos(2 * np.pi * grid.coords()[1])
    with pytest.raises(NonAdmissible):
        EnergyLedger(2).evaluate(geom, psis)


def test_ledger_records_and_round_trips(tmp_path):
    geom = sine_geom(N=16)
    state = run(geom)
    ledger = state.ledger
    assert len(ledger.rows) >= 2
    d_col = ledger.column("D")
    am1 = ledger.column("AM_1")
    lval = ledger.column("L")
    am2 = ledger.column("AM_2")
    np.testing.assert_allclose(d_col, lval - am1 - am2, rtol=1e-12, atol=1e-14)
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    back = EnergyLedger.from_csv(path)
    assert back.columns == ledger.columns
    for name in ledger.columns:
        if name == "wall_ms":
            continue
        np.testing.assert_array_equal(back.column(name), ledger.column(name))


def test_ledger_column_rejects_an_unknown_name():
    with pytest.raises(KeyError, match="no ledger column named 'E'"):
        EnergyLedger(1).column("E")


def test_ledger_csv_is_what_a_csv_writer_writes(tmp_path):
    ledger = run(sine_geom(N=16)).ledger
    path = tmp_path / "ledger.csv"
    ledger.to_csv(path)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(ledger.columns)
    for row in ledger.rows:
        writer.writerow(
            str(row[name]) if name in ("step", "inner_iters")
            else "%.3f" % row[name] if name == "wall_ms"
            else "%.17g" % row[name]
            for name in ledger.columns
        )
    assert path.read_bytes() == buffer.getvalue().encode()


@pytest.mark.parametrize("cut", [5, None])
def test_ledger_rejects_a_row_of_the_wrong_length(tmp_path, cut):
    # a truncated last row, or one with an extra field, is named by file and
    # line instead of loading as a row without D
    path = tmp_path / "ledger.csv"
    run(sine_geom(N=16)).ledger.to_csv(path)
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    lines[-1] = ",".join(fields[:cut] if cut else fields + ["0"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        EnergyLedger.from_csv(path)
    assert str(err.value).startswith(f"{path}: line {len(lines)} has ")


def test_ledger_rejects_an_empty_file(tmp_path):
    path = tmp_path / "ledger.csv"
    path.write_text("")
    with pytest.raises(ValueError) as err:
        EnergyLedger.from_csv(path)
    assert str(err.value).startswith(f"{path}: ")


def test_ledger_header_line(tmp_path):
    geom = sine_geom(N=16)
    state = run(geom)
    path = tmp_path / "ledger.csv"
    state.ledger.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "step,AM_1,AM_2,I_1,I_2,J_1,J_2,L,D,J_total,"
        "rho_max_1,rho_max_2,osc_1,osc_2,eqratio_1,eqratio_2,"
        "inner_iters,wall_ms"
    )
