"""Bessel-potential kernels, fractional smoothing norms, and smoothing probes.

The kernel of order a in dimension n, at r = |x| > 0, is

    G_a(x) = (4 pi)^(-n/2) Gamma(a/2)^(-1)
             int_0^inf y^(-1 + a/2 - n/2) exp(-(y + r^2 / (4y))) dy
           = 2^(1 - (a+n)/2) pi^(-n/2) r^((a-n)/2) K_((n-a)/2)(r) / Gamma(a/2)

(Aronszajn and Smith, Ann. Inst. Fourier 11, 1961), with Fourier symbol
(1 + |xi|^2)^(-a/2) and unit mass.  Every kernel value comes from the
Macdonald-function form, and the L1 modulus of continuity is one integral
of the line kernel in either dimension.  The fractional norm of exponent
gamma is realized on the discrete Fourier side by the multiplier
(1 + |xi|^2)^gamma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import kv

from .errors import OutOfDomainError, ParameterDomainError, SingularityError
from .grids import Grid, GridField, Transforms, field_interp, gradient
from .quadrature import adaptive_quad, quad_left_unit

__all__ = [
    "BesselKernel", "kernel_eval", "FractionalNorm", "xgamma_norm",
    "modulus_of_continuity_probe", "q_estimate_probe", "ProbeReport",
    "synthetic_smooth_field", "synthetic_bounded_shift",
]

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class BesselKernel:
    """Radial kernel of a given order (0, 2] in dimension 1 or 2, evaluated
    by the K_nu closed form."""

    order: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.order <= 2.0:
            raise ParameterDomainError("order must lie in (0, 2]")
        if self.dim not in (1, 2):
            raise ParameterDomainError("dim must be 1 or 2")

    def _radial(self, r):
        """Kernel values at radii r > 0 from the K_nu closed form."""
        a, n = self.order, self.dim
        nu = 0.5 * (n - a)
        scale = (2.0 ** (1.0 - 0.5 * (a + n)) * math.pi ** (-0.5 * n)
                 / math.gamma(0.5 * a))
        return scale * r ** -nu * kv(nu, r)

    def eval(self, x) -> float:
        """Pointwise value; at x = 0 the kernel of order > dim is
        (4 pi)^(-n/2) Gamma((a - n)/2) / Gamma(a/2), and diverges otherwise."""
        r = float(np.linalg.norm(np.atleast_1d(x)))
        if r > 0.0:
            return float(self._radial(r))
        if self.order <= self.dim:
            raise SingularityError(
                f"kernel of order {self.order} in dim {self.dim} diverges at 0")
        return (math.gamma(0.5 * (self.order - self.dim))
                / math.gamma(0.5 * self.order)
                / (4.0 * math.pi) ** (0.5 * self.dim))

    def eval_batch(self, radii: np.ndarray) -> np.ndarray:
        """Vectorized kernel values at an array of radii > 0."""
        r = np.asarray(radii, dtype=float)
        if np.any(r <= 0.0):
            raise SingularityError("eval_batch requires strictly positive radii")
        return self._radial(r)

    def fourier_symbol(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return (1.0 + xi * xi) ** (-self.order / 2.0)

    def mass(self) -> float:
        """Total integral over R^dim (should be 1): the radial integral of
        the sphere area times G, on (0, 1] in log radius, then on [1, inf)."""
        n = self.dim
        area = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
        f = lambda r: area * r ** (n - 1) * self._radial(r)
        return quad_left_unit(f) + adaptive_quad(f, 1.0, np.inf)


def kernel_eval(order: float, dim: int, x) -> float:
    return BesselKernel(order, dim).eval(x)


class FractionalNorm:
    """Discrete-Fourier realization of the smoothing norm of exponent gamma.

    ||u|| = L2 norm of the inverse transform of (1 + |xi|^2)^gamma * u_hat,
    computed on the padded periodic box of the field's grid.
    """

    def __init__(self, grid: Grid, gamma: float):
        if not -1.0 <= gamma <= 1.0:
            raise ParameterDomainError("gamma must lie in [-1, 1]")
        self.grid = grid
        self.gamma = gamma
        self._tr = Transforms(grid)
        self.multiplier = (1.0 + self._tr.k2) ** gamma

    def __call__(self, u: GridField | np.ndarray) -> float:
        v = u.values if isinstance(u, GridField) else np.asarray(u, dtype=float)
        w = self._tr.apply(self.multiplier, v)
        return float(np.sqrt(np.sum(w * w) * self.grid.dx ** self.grid.dim))


def xgamma_norm(u: GridField, gamma: float) -> float:
    return FractionalNorm(u.grid, gamma)(u)


@dataclass(frozen=True)
class ProbeReport:
    """Ratios of a probe over its samples; spread is max / median."""

    passed: bool
    max_ratio: float
    median_ratio: float
    spread: float
    detail: tuple

    @classmethod
    def from_ratios(cls, samples: np.ndarray, ratios: np.ndarray) -> ProbeReport:
        """Passes when the max ratio is within 10 times the median; with a
        zero median the spread is infinite unless every ratio is 0."""
        med = float(np.median(ratios))
        mx = float(np.max(ratios))
        spread = mx / med if med > 0 else (np.inf if mx > 0 else 1.0)
        return cls(spread <= 10.0, mx, med, spread,
                   tuple(zip(samples.tolist(), ratios.tolist())))


def _l1_shift_difference(kernel: BesselKernel, h: float) -> float:
    """||G(. + h e_1) - G||_L1 for h > 0, in any dimension.

    G is positive, radial and decreasing, so the difference is positive
    exactly on x_1 < -h/2, and G's x_1-marginal is the line kernel G^(1)
    (both have the symbol (1 + xi_1^2)^(-a/2)): the norm is
    2 - 4 int_{h/2}^inf G^(1), a smooth tail that needs no e^-60 floor.
    """
    line = BesselKernel(kernel.order, 1)
    return 2.0 - 4.0 * adaptive_quad(line._radial, 0.5 * h, np.inf)


def modulus_of_continuity_probe(order: float, dim: int, shifts) -> ProbeReport:
    """Ratios ||G(. + h) - G||_L1 / |h|^order across the given shift sizes.

    For order in (0, 1) the ratio should stay bounded; the probe passes when
    max ratio <= 10 * median ratio.
    """
    if not 0.0 < order < 1.0:
        raise ParameterDomainError("modulus probe requires order in (0, 1)")
    kernel = BesselKernel(order, dim)
    hs = np.sort(np.abs(np.asarray(shifts, dtype=float)))
    if np.any(hs <= 0):
        raise ParameterDomainError("shifts must be nonzero")
    ratios = np.array([_l1_shift_difference(kernel, float(h)) / h ** order for h in hs])
    return ProbeReport.from_ratios(hs, ratios)


def _compensated_shift(u: GridField, xi: np.ndarray, du: np.ndarray) -> np.ndarray:
    """u(x + xi(x)) - xi(x) * u'(x) on the grid (1-D)."""
    g = u.grid
    x = g.axis()
    return field_interp(u, x + xi) - xi * du


def q_estimate_probe(u: GridField, xi_1: np.ndarray, xi_2: np.ndarray,
                     gamma: float) -> float:
    """Holder-type quotient for the compensated shift operator.

    ratio = ||Q(u, xi_1) - Q(u, xi_2)||_L2 /
            (||xi_1 - xi_2||_inf^(2 gamma - 1) (||xi_1||_inf + ||xi_2||_inf)
             ||u'||_{gamma - 1/2}),

    where Q(u, xi) = u(. + xi) - xi u'.  With xi_2 = 0 this reduces to the
    compensated-increment bound.  Bounded ratios across shift families verify
    the fractional-smoothing estimate numerically.
    """
    if not 0.5 <= gamma < 1.0:
        raise ParameterDomainError("gamma must lie in [1/2, 1)")
    g = u.grid
    if g.dim != 1:
        raise ParameterDomainError("probe is one-dimensional")
    xi_1 = np.asarray(xi_1, dtype=float)
    xi_2 = np.asarray(xi_2, dtype=float)
    reach = max(np.max(np.abs(xi_1)), np.max(np.abs(xi_2)), 0.0)
    if reach > g.pad * g.dx:
        raise OutOfDomainError(
            f"shift reach {reach:.3g} exceeds padding {g.pad * g.dx:.3g}")
    du = gradient(u)[0]
    diff = _compensated_shift(u, xi_1, du) - _compensated_shift(u, xi_2, du)
    num = float(np.sqrt(np.sum(diff ** 2) * g.dx))
    gap = float(np.max(np.abs(xi_1 - xi_2)))
    if gap == 0.0:
        return 0.0
    size = float(np.max(np.abs(xi_1)) + np.max(np.abs(xi_2)))
    den = gap ** (2.0 * gamma - 1.0) * size * xgamma_norm(
        u.with_values(du), gamma - 0.5)
    return num / den


def synthetic_smooth_field(grid: Grid, index: int) -> GridField:
    """Deterministic localized smooth field; the index walks a fixed
    golden-ratio phase/amplitude table (no random numbers anywhere)."""
    x = grid.axis()
    w = 0.35 * grid.half_width
    out = np.zeros_like(x)
    for m in range(1, 6):
        phase = 2.0 * np.pi * ((index * _GOLDEN + 0.17 * m) % 1.0)
        amp = 0.3 + 0.7 * ((index * _GOLDEN * m + 0.31) % 1.0)
        out += amp * np.sin(np.pi * m * x / grid.half_width + phase)
    return GridField(grid, out * np.exp(-(x / w) ** 2))


def synthetic_bounded_shift(grid: Grid, index: int, bound: float) -> np.ndarray:
    """Deterministic shift field with sup norm exactly `bound`."""
    x = grid.axis()
    phase = 2.0 * np.pi * ((index * _GOLDEN + 0.43) % 1.0)
    m = 1 + (index % 4)
    raw = np.sin(np.pi * m * x / grid.half_width + phase) \
        + 0.5 * np.sin(2.0 * np.pi * (m + 1) * x / grid.half_width - phase)
    return bound * raw / np.max(np.abs(raw))
