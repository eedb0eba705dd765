"""Periodic grids on the unit torus and the discrete calculus on them.

Fields are plain numpy arrays shaped like ``grid.shape``; the flat order
used for files and stacked linear algebra is C (lexicographic) order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnsupportedDimension

_FIELD_HEADER = re.compile(r"^CRI-FIELD v1 n=(\d+) N=(\d+)\s*$")


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [0,1)^n with N points per axis."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise UnsupportedDimension(
                f"grid dimension must be 1 or 2, got {self.n}"
            )
        if self.N < 4 or self.N % 2 != 0:
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

    def second_diff(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Centered second difference along one axis."""
        return (
            np.roll(values, -1, axis=axis)
            + np.roll(values, 1, axis=axis)
            - 2.0 * values
        ) / self.h**2

    def stencils(self, values: np.ndarray):
        """Yield the Hessian stencils of a field from one periodic halo copy.

        Yields the centered second difference along each axis, then on
        2-d grids the mixed differences composed of forward/forward and of
        backward/backward first differences.  Each is a slice expression
        on one copy of the field padded by a periodic cell on every side;
        yielding them one at a time lets a caller that combines them keep
        only one alive.
        """
        h2 = self.h**2
        halo = np.empty((self.N + 2,) * self.n)
        if self.n == 1:
            halo[1:-1] = values
            halo[0] = values[-1]
            halo[-1] = values[0]
            yield (halo[2:] + halo[:-2] - 2.0 * values) / h2
            return
        halo[1:-1, 1:-1] = values
        halo[0, 1:-1] = values[-1]
        halo[-1, 1:-1] = values[0]
        halo[:, 0] = halo[:, -2]
        halo[:, -1] = halo[:, 1]
        up, down = halo[2:, 1:-1], halo[:-2, 1:-1]
        right, left = halo[1:-1, 2:], halo[1:-1, :-2]
        yield (up + down - 2.0 * values) / h2
        yield (right + left - 2.0 * values) / h2
        yield (halo[2:, 2:] - up - right + values) / h2
        yield (values - down - left + halo[:-2, :-2]) / h2


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

    grid: PeriodicGrid
    diag: np.ndarray
    mixed_plus: np.ndarray | None = None
    mixed_minus: np.ndarray | None = None

    @property
    def mixed_centered(self) -> np.ndarray | None:
        if self.mixed_plus is None:
            return None
        return 0.5 * (self.mixed_plus + self.mixed_minus)

    def trace(self) -> np.ndarray:
        return self.diag.sum(axis=0)

    def matrix(self) -> np.ndarray:
        """Per-point symmetric matrix with the centered mixed entry.

        Shape (*grid.shape, n, n).
        """
        n = self.grid.n
        out = np.zeros(self.grid.shape + (n, n))
        for a in range(n):
            out[..., a, a] = self.diag[a]
        if n == 2:
            q = self.mixed_centered
            out[..., 0, 1] = q
            out[..., 1, 0] = q
        return out

    def variant_matrices(self) -> list:
        """The one-sided Hessian variants as per-point symmetric matrices.

        n=1 has a single variant (no mixed entry); n=2 has two.
        """
        n = self.grid.n
        if n == 1:
            return [self.matrix()]
        variants = []
        for q in (self.mixed_plus, self.mixed_minus):
            m = np.zeros(self.grid.shape + (2, 2))
            m[..., 0, 0] = self.diag[0]
            m[..., 1, 1] = self.diag[1]
            m[..., 0, 1] = q
            m[..., 1, 0] = q
            variants.append(m)
        return variants


def hessian(grid: PeriodicGrid, values: np.ndarray) -> HessianField:
    """Discrete Hessian of a scalar field on the torus."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(
            f"field shape {values.shape} does not match grid {grid.shape}"
        )
    diffs = grid.stencils(values)
    diag = np.stack([next(diffs) for _ in range(grid.n)])
    if grid.n == 1:
        return HessianField(grid, diag)
    return HessianField(grid, diag, mixed_plus=next(diffs), mixed_minus=next(diffs))


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
    with open(path) as fh:
        header = fh.readline()
        match = _FIELD_HEADER.match(header)
        if not match:
            raise ParseError(f"{path}: bad or missing CRI-FIELD header")
        n, N = int(match.group(1)), int(match.group(2))
        tokens = fh.read().split()
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
