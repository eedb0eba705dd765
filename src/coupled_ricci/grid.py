"""Periodic grids on the unit torus and the discrete calculus on them.

Fields are plain numpy arrays shaped like ``grid.shape``; the flat order
used for files and stacked linear algebra is C (lexicographic) order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ParseError, UnsupportedDimension

_FIELD_HEADER = re.compile(r"^CRI-FIELD v1 n=(\d+) N=(\d+)\s*$")


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; booleans are not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [0,1)^n with N points per axis."""

    n: int
    N: int

    def __post_init__(self):
        if not _is_int(self.n) or self.n not in (1, 2):
            raise UnsupportedDimension(
                f"grid dimension must be 1 or 2, got {self.n}"
            )
        if not _is_int(self.N) or self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be an even integer >= 4, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def num_points(self) -> int:
        return self.N**self.n

    def coords(self) -> tuple:
        """Return per-axis coordinate arrays broadcast to ``self.shape``."""
        axes = np.meshgrid(
            *[np.arange(self.N) * self.h for _ in range(self.n)],
            indexing="ij",
        )
        return tuple(axes)

    def integrate(self, values: np.ndarray) -> float:
        """Exact torus quadrature: h^n times the sum over grid points."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid {self.shape}"
            )
        return float(values.sum() * self.h**self.n)

    def pad(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Copy a field into ``out`` padded by one periodic cell on every side.

        ``out`` has N + 2 points per axis; a new one is made when None.
        """
        if out is None:
            out = np.empty((self.N + 2,) * self.n)
        if self.n == 1:
            out[1:-1] = values
            out[0] = values[-1]
            out[-1] = values[0]
            return out
        out[1:-1, 1:-1] = values
        out[0, 1:-1] = values[-1]
        out[-1, 1:-1] = values[0]
        out[:, 0] = out[:, -2]
        out[:, -1] = out[:, 1]
        return out


@dataclass(frozen=True)
class HessianField:
    """Discrete Hessian data of a scalar field.

    ``diag`` stacks the centered second differences along each axis,
    shape (n, *grid.shape).  On 2-d grids the mixed entry is carried in
    two one-sided variants (forward/forward and backward/backward); the
    centered mixed value is their average.  Quantities built from the
    Hessian average over the two variants, which keeps the discrete
    integration-by-parts identities exact.
    """

    diag: np.ndarray
    mixed_plus: np.ndarray | None = None
    mixed_minus: np.ndarray | None = None

    @property
    def mixed_centered(self) -> np.ndarray | None:
        if self.mixed_plus is None:
            return None
        return 0.5 * (self.mixed_plus + self.mixed_minus)


def hessian(grid: PeriodicGrid, values: np.ndarray) -> HessianField:
    """Discrete Hessian of a scalar field on the torus.

    Every stencil is a slice expression on one copy of the field padded by
    a periodic cell on every side: the centered second difference along
    each axis, written in place into ``diag``, and on 2-d grids the mixed
    differences composed of forward/forward and of backward/backward first
    differences.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(
            f"field shape {values.shape} does not match grid {grid.shape}"
        )
    h2 = grid.h**2
    halo = grid.pad(values)
    if grid.n == 1:
        taps = [(halo[2:], halo[:-2])]
    else:
        up, down = halo[2:, 1:-1], halo[:-2, 1:-1]
        right, left = halo[1:-1, 2:], halo[1:-1, :-2]
        taps = [(up, down), (right, left)]
    twice = 2.0 * values
    diag = np.empty((grid.n,) + grid.shape)
    for out, (fwd, bwd) in zip(diag, taps):
        np.add(fwd, bwd, out=out)
        out -= twice
        out /= h2
    if grid.n == 1:
        return HessianField(diag)
    return HessianField(
        diag,
        mixed_plus=(halo[2:, 2:] - up - right + values) / h2,
        mixed_minus=(values - down - left + halo[:-2, :-2]) / h2,
    )


def write_field(path, grid: PeriodicGrid, values: np.ndarray) -> None:
    """Write a scalar field in the CRI-FIELD v1 text format.

    Values go one per line in C (lexicographic) order at 17 significant
    digits, which round-trips float64 exactly.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError("field shape does not match grid")
    with open(path, "w") as fh:
        fh.write(f"CRI-FIELD v1 n={grid.n} N={grid.N}\n")
        for row in values.reshape(-1, grid.N).tolist():
            fh.write(("%.17g\n" * grid.N) % tuple(row))


def read_field(path):
    """Read a CRI-FIELD v1 file; returns (PeriodicGrid, values)."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            tokens = fh.read().split()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    match = _FIELD_HEADER.match(header)
    if not match:
        raise ParseError(f"{path}: bad or missing CRI-FIELD header")
    n, N = int(match.group(1)), int(match.group(2))
    try:
        grid = PeriodicGrid(n=n, N=N)
    except (UnsupportedDimension, ValueError) as exc:
        raise ParseError(f"{path}: invalid grid in header: {exc}") from exc
    if len(tokens) != grid.num_points:
        raise ParseError(
            f"{path}: expected {grid.num_points} values, found {len(tokens)}"
        )
    try:
        flat = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric value: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise ParseError(f"{path}: field contains non-finite values")
    return grid, flat.reshape(grid.shape)
