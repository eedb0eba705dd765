import numpy as np
import pytest

from coupled_ricci import (
    PeriodicGrid,
    hessian,
    read_field,
    write_field,
)
from coupled_ricci.errors import ParseError, UnsupportedDimension

from hessian_reference import roll_stencils


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        PeriodicGrid(1, 3)
    with pytest.raises(ValueError):
        PeriodicGrid(1, 7)
    with pytest.raises(ValueError):
        PeriodicGrid(2, 2)


@pytest.mark.parametrize("n, N, error", [
    (1, 4.0, ValueError),
    (2, 8.0, ValueError),
    (1, np.float64(8), ValueError),
    (1.0, 8, UnsupportedDimension),
    (True, 8, UnsupportedDimension),
    (np.True_, 8, UnsupportedDimension),
])
def test_grid_rejects_sizes_that_are_not_integers(n, N, error):
    # 1.0 == 1 and True == 1, but np.zeros(g.shape) refuses float sizes
    with pytest.raises(error):
        PeriodicGrid(n, N)


def test_grid_accepts_numpy_integers():
    g = PeriodicGrid(np.int64(2), np.int32(6))
    assert g.shape == (6, 6)
    assert np.zeros(g.shape).shape == (6, 6)


def test_grid_rejects_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        PeriodicGrid(3, 8)
    with pytest.raises(UnsupportedDimension):
        PeriodicGrid(0, 8)


def test_coords_and_spacing():
    g = PeriodicGrid(2, 4)
    x1, x2 = g.coords()
    assert x1.shape == (4, 4)
    assert x1[1, 0] == 0.25
    assert x2[0, 3] == 0.75
    assert g.h == 0.25
    assert g.num_points == 16


def test_integrate_trig_square_is_exact():
    # trapezoid quadrature on the torus integrates sin^2 exactly
    g = PeriodicGrid(1, 8)
    x = g.coords()[0]
    val = g.integrate(np.sin(2 * np.pi * x) ** 2)
    assert val == pytest.approx(0.5, abs=1e-15)


def test_integrate_shape_mismatch():
    g = PeriodicGrid(1, 8)
    with pytest.raises(ValueError):
        g.integrate(np.zeros(7))


def test_hessian_cosine_second_difference():
    # discrete eigenvalue of the centered stencil at N=4:
    # (2 cos(2 pi h) - 2)/h^2 applied to cos(2 pi x) gives -32 at x=0
    g = PeriodicGrid(1, 4)
    x = g.coords()[0]
    h = hessian(g, np.cos(2 * np.pi * x))
    assert h.diag[0][0] == pytest.approx(-32.0, abs=1e-12)


def test_hessian_trace_integrates_to_zero():
    rng = np.random.default_rng(0)
    for n, N in ((1, 16), (2, 8)):
        g = PeriodicGrid(n, N)
        u = rng.standard_normal(g.shape)
        tr = hessian(g, u).diag.sum(axis=0)
        assert abs(g.integrate(tr)) <= 1e-12 * max(1.0, np.abs(u).max())


def test_hessian_of_axis_function_has_no_mixed_part():
    g = PeriodicGrid(2, 8)
    x1, _ = g.coords()
    h = hessian(g, np.sin(2 * np.pi * x1))
    np.testing.assert_allclose(h.mixed_plus, 0.0, atol=1e-12)
    np.testing.assert_allclose(h.mixed_minus, 0.0, atol=1e-12)
    np.testing.assert_allclose(h.diag[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [4, 6, 16, 48])
def test_halo_stencils_equal_roll_formulas(n, N):
    rng = np.random.default_rng(N + n)
    g = PeriodicGrid(n, N)
    for scale in (1.0, 1e-6, 1e6):
        v = scale * rng.standard_normal(g.shape)
        want = roll_stencils(g, v)
        h = hessian(g, v)
        assert np.array_equal(h.diag, np.stack(want[:n]))
        if n == 2:
            assert np.array_equal(h.mixed_plus, want[2])
            assert np.array_equal(h.mixed_minus, want[3])


@pytest.mark.parametrize("n", [1, 2])
def test_pad_is_a_periodic_wrap(n):
    g = PeriodicGrid(n, 6)
    v = np.random.default_rng(n).standard_normal(g.shape)
    want = np.pad(v, 1, mode="wrap")
    assert np.array_equal(g.pad(v), want)
    out = np.full(want.shape, np.nan)
    assert g.pad(v, out) is out
    assert np.array_equal(out, want)


def test_field_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    for n, N in ((1, 16), (2, 6)):
        g = PeriodicGrid(n, N)
        values = rng.standard_normal(g.shape) * 10.0 ** rng.integers(
            -8, 8, size=g.shape
        )
        path = tmp_path / f"field_{n}.field"
        write_field(path, g, values)
        g2, back = read_field(path)
        assert (g2.n, g2.N) == (n, N)
        np.testing.assert_array_equal(back, values)


def test_field_file_header(tmp_path):
    g = PeriodicGrid(1, 4)
    path = tmp_path / "a.field"
    write_field(path, g, np.arange(4.0))
    first = path.read_text().splitlines()[0]
    assert first == "CRI-FIELD v1 n=1 N=4"


def test_hessian_and_write_field_reject_a_field_of_another_shape(tmp_path):
    g = PeriodicGrid(2, 4)
    with pytest.raises(ValueError, match=r"field shape \(4,\) does not match grid"):
        hessian(g, np.zeros(4))
    path = tmp_path / "a.field"
    with pytest.raises(ValueError, match="field shape does not match grid"):
        write_field(path, g, np.zeros(16))
    assert not path.exists()


@pytest.mark.parametrize(
    "content",
    [
        "nonsense\n0\n0\n0\n0\n",
        "CRI-FIELD v2 n=1 N=4\n0\n0\n0\n0\n",
        "CRI-FIELD v1 n=1 N=4\n0\n0\n0\n",
        "CRI-FIELD v1 n=1 N=4\n0\n0\n0\n0\n0\n",
        "CRI-FIELD v1 n=1 N=4\n0\nbad\n0\n0\n",
        "CRI-FIELD v1 n=1 N=4\n0\nnan\n0\n0\n",
        "CRI-FIELD v1 n=1 N=5\n0\n0\n0\n0\n0\n",
        "CRI-FIELD v1 n=3 N=4\n" + "0\n" * 64,
    ],
)
def test_field_file_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.field"
    path.write_text(content)
    with pytest.raises(ParseError):
        read_field(path)
