"""Uniform periodic grids with padding, and the field container used everywhere.

A grid covers a core window [-half_width, half_width) plus `pad` extra cells on
each side; the padded box is treated as periodic by every spectral operation.
The pad exists so that non-local operators can reach `x + xi` for core points
without wrap-around contaminating the core region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.fft import next_fast_len

from .errors import ParameterDomainError


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a padded periodic box, 1-D or square 2-D tensor."""

    dim: int
    half_width: float
    n_core: int
    pad: int = 0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterDomainError("dim must be 1 or 2")
        if not 0 < self.half_width < math.inf:
            raise ParameterDomainError("half_width must be positive and finite")
        if self.n_core < 8 or self.n_core % 2:
            raise ParameterDomainError("n_core must be an even integer >= 8")
        if not self.dx > 0.0:
            raise ParameterDomainError(
                f"half_width {self.half_width:.6g} at n_core {self.n_core} "
                "gives a cell width of 0")
        if self.pad < 0:
            raise ParameterDomainError("pad must be nonnegative")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_core

    @property
    def n_total(self) -> int:
        return self.n_core + 2 * self.pad

    @property
    def x_lo(self) -> float:
        """Left edge of the padded box."""
        return -self.half_width - self.pad * self.dx

    def axis(self) -> np.ndarray:
        """Padded coordinates along one axis (identical in both axes for dim=2)."""
        return self.x_lo + self.dx * np.arange(self.n_total)

    def meshes(self):
        ax = self.axis()
        if self.dim == 1:
            return (ax,)
        return np.meshgrid(ax, ax, indexing="ij")

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers matching the real FFT along one axis."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_total, d=self.dx)

    def wavenumbers_full(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_total, d=self.dx)


class Transforms:
    """Real FFT pair and Fourier multipliers on one grid's padded box.

    The 1-D/2-D dispatch lives here and nowhere else.  Spectra are in rfft
    storage: full modes along axis 0 and half modes along the last axis.
    numpy.fft is looked up on every call, so a rebinding of its entry points
    (a profiler's, say) reaches every transform.  count is the number of
    forward and inverse transforms made through this instance.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.count = 0

    @cached_property
    def ik(self) -> tuple[np.ndarray, ...]:
        """i k per axis, shaped to broadcast against a spectrum."""
        g = self.grid
        if g.dim == 1:
            return (1j * g.wavenumbers(),)
        return (1j * g.wavenumbers_full()[:, None], 1j * g.wavenumbers()[None, :])

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the spectrum."""
        g = self.grid
        if g.dim == 1:
            return g.wavenumbers() ** 2
        return g.wavenumbers_full()[:, None] ** 2 + g.wavenumbers()[None, :] ** 2

    def fwd(self, values: np.ndarray) -> np.ndarray:
        self.count += 1
        return np.fft.rfft(values) if self.grid.dim == 1 else np.fft.rfft2(values)

    def inv(self, spectrum: np.ndarray) -> np.ndarray:
        self.count += 1
        n = self.grid.n_total
        if self.grid.dim == 1:
            return np.fft.irfft(spectrum, n=n)
        return np.fft.irfft2(spectrum, s=(n, n))

    def apply(self, multiplier: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The Fourier multiplier applied to real values."""
        return self.inv(multiplier * self.fwd(values))

    def grad(self, spectrum: np.ndarray) -> tuple[np.ndarray, ...]:
        """Real partial derivatives of the field with this spectrum."""
        return tuple(self.inv(ik * spectrum) for ik in self.ik)


# Pad cells added beyond ceil(reach / dx): room for the cubic stencil.
_STENCIL_MARGIN = 4
# At most 2**24 points (n_total ** dim) in a padded grid: 134 MB per array.
_GRID_POINTS_LOG2 = 24


def make_grid(half_width: float, n_core: int, reach: float = 0.0,
              dim: int = 1) -> Grid:
    """Build a grid whose padding covers a non-local reach.

    Pad cells are sized to ceil(reach / dx) plus a stencil margin, then grown
    symmetrically to the smallest even 5-smooth (FFT-friendly) padded length.
    The reach must be nonnegative and finite, and the grid may hold at most
    2**24 points.
    """
    if not 0.0 <= reach < math.inf:
        raise ParameterDomainError("reach must be nonnegative and finite")
    core = Grid(dim=dim, half_width=half_width, n_core=n_core)
    cells = reach / core.dx
    # the per-axis cap is a power of two, so the 5-smooth rounding below
    # cannot take a length within it past it
    axis_cap = 2 ** (_GRID_POINTS_LOG2 // dim)
    if cells > (axis_cap - n_core) / 2 - _STENCIL_MARGIN:
        raise ParameterDomainError(
            f"reach {reach:.6g} at half_width {half_width:.6g} pads n_core "
            f"{n_core} past {axis_cap} points per axis, more than "
            f"2**{_GRID_POINTS_LOG2} grid points")
    pad = math.ceil(cells) + _STENCIL_MARGIN
    # n_core is even, so an even length splits into two equal pads
    n_tot = 2 * next_fast_len((n_core + 2 * pad) // 2, real=True)
    pad += (n_tot - (n_core + 2 * pad)) // 2
    return replace(core, pad=pad)


@dataclass(frozen=True)
class GridField:
    """Real field sampled on a padded grid, tagged with its time coordinate."""

    grid: Grid
    values: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (self.grid.n_total,) if self.grid.dim == 1 else (self.grid.n_total,) * 2
        if v.shape != expected:
            raise ParameterDomainError(
                f"values shape {v.shape} does not match grid shape {expected}")
        if not np.all(np.isfinite(v)):
            raise ParameterDomainError("field values must be finite")
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray, time_tag: float | None = None) -> "GridField":
        return replace(self, values=values,
                       time_tag=self.time_tag if time_tag is None else time_tag)

    def l2(self) -> float:
        """Grid-weighted L2 norm over the padded box."""
        return float(np.sqrt(np.sum(self.values ** 2) * self.grid.dx ** self.grid.dim))


def gradient(u: GridField) -> tuple[np.ndarray, ...]:
    """Gradient by Fourier differentiation on the padded periodic box."""
    tr = Transforms(u.grid)
    return tr.grad(tr.fwd(u.values))


CUBIC_OFFSETS = (-1, 0, 1, 2)


def cubic_stencil(x_lo: float, dx: float, query: np.ndarray):
    """Base cell index and cubic Lagrange weights for queries on a uniform grid.

    The weights belong to the points base + CUBIC_OFFSETS (unwrapped); the
    basis is evaluated at the query's local coordinate within its cell.
    """
    s = (np.asarray(query) - x_lo) / dx
    base = np.floor(s).astype(np.int64)
    t = s - base
    weights = (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    )
    return base, weights


def cubic_interp_periodic(values: np.ndarray, x_lo: float, dx: float,
                          query: np.ndarray) -> np.ndarray:
    """Local cubic Lagrange interpolation on a uniform periodic grid (1-D).

    Fourth-order accurate for smooth data; queries wrap around the box.
    """
    n = values.shape[0]
    base, weights = cubic_stencil(x_lo, dx, query)
    out = np.zeros(base.shape)
    for j, wj in zip(CUBIC_OFFSETS, weights):
        out += wj * values[(base + j) % n]
    return out


def field_interp(u: GridField, query: np.ndarray) -> np.ndarray:
    if u.grid.dim != 1:
        raise ParameterDomainError("cubic interpolation is 1-D only")
    return cubic_interp_periodic(u.values, u.grid.x_lo, u.grid.dx, query)
