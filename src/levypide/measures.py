"""Jump-activity measures: built-in families, envelope checks, moments, exponents.

Every measure carries a density h together with shape parameters
(c0, alpha, d, mu) certifying the pointwise envelope

    0 <= h(z) <= c0 * |z|^(-alpha) * exp(-d*|z| - mu*|z|^2).

The envelope drives all analytic classification: activity is finite iff
alpha < dim, variation is finite iff alpha < dim + 1, and exponential moments
of e^z exist iff mu > 0 or d > 1.  Divergent moments are flagged from the
shape parameters instead of being discovered by a failing quadrature.

Moments are one-dimensional.  Each 1-D integral against h, in moments and
levy_exponent, is one quadrature.quad_line call: (0, 1] through z = e^s,
then [1, inf), on both sides.  The characteristic exponent of a 2-D density
is a radial integral of ring averages, split at 1 in the same way on its
one side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParameterDomainError
from .quadrature import adaptive_quad, quad_left_unit, quad_line

__all__ = [
    "ShapeParams", "LevyMeasure", "AxisJumpPair", "MeasureMoments",
    "AdmissibilityReport", "make_merton", "make_exponential_tail", "make_kou",
    "levy_pair", "check_admissibility", "moments",
    "levy_exponent",
]

# Relative envelope tail beyond a measure's jump radius: the outer cutoff of
# its quadrature nodes and the base of the grid padding.
JUMP_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class ShapeParams:
    """Envelope parameters (c0, alpha, d, mu) of an admissible jump density."""

    c0: float
    alpha: float
    d: float
    mu: float

    def __post_init__(self):
        if not 0 < self.c0 < math.inf:
            raise ParameterDomainError("c0 must be positive and finite")
        if not math.isfinite(self.alpha):
            raise ParameterDomainError("alpha must be finite")
        if not 0 <= self.mu < math.inf:
            raise ParameterDomainError("mu must be nonnegative and finite")
        if not math.isfinite(self.d) or (self.mu == 0 and not self.d > 0):
            raise ParameterDomainError(
                "d must be finite, and positive when mu == 0")

    def envelope(self, r: float) -> float:
        """Envelope value at radius r > 0, in scalar float arithmetic: the
        tail quadratures call it once per point."""
        return self.c0 * r ** (-self.alpha) * math.exp(-self.d * r - self.mu * r * r)

    def tail_mass(self, radius: float, dim: int) -> float:
        """Envelope mass beyond the given radius (exact up to quadrature)."""
        if dim == 1:
            return 2.0 * adaptive_quad(self.envelope, radius, np.inf,
                                       rel_tol=1e-9, abs_tol=1e-250)
        return 2.0 * np.pi * adaptive_quad(lambda p: p * self.envelope(p), radius,
                                           np.inf, rel_tol=1e-9, abs_tol=1e-250)

    def tail_radius(self, dim: int, rel_tol: float = 1e-10) -> float:
        """Smallest doubling radius whose envelope tail is rel_tol of the
        unit-ball-exterior envelope mass."""
        scale = max(self.tail_mass(1.0, dim), 1e-250)
        r = 1.0
        for _ in range(60):
            if self.tail_mass(r, dim) <= rel_tol * scale:
                # refine downward a little so radii stay tight
                lo, hi = r / 2.0, r
                for _ in range(20):
                    mid = 0.5 * (lo + hi)
                    if self.tail_mass(mid, dim) <= rel_tol * scale:
                        hi = mid
                    else:
                        lo = mid
                return hi
            r *= 2.0
        raise ParameterDomainError("envelope tail does not decay; check shape parameters")


@dataclass(frozen=True)
class LevyMeasure:
    """A jump measure with density `density` on R^dim and a certified envelope.

    density is vectorized: one array argument for dim=1, two broadcastable
    coordinate arrays for dim=2.  A radial 2-D density reads its profile as
    density(r, 0).  check_admissibility tests a user density's envelope.
    """

    density: Callable
    dim: int
    shape: ShapeParams

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterDomainError("dim must be 1 or 2")

    @cached_property
    def jump_radius(self) -> float:
        """tail_radius at JUMP_TAIL_TOL, searched once per measure."""
        return self.tail_radius(JUMP_TAIL_TOL)

    def tail_radius(self, rel_tol: float) -> float:
        """ShapeParams.tail_radius at rel_tol of the envelope's mass beyond
        1, which a law centred far from 0 inflates (a Merton c0 carries
        e^(m^2 / 2 s^2)), or of the density's mass where that is smaller
        (1-D finite activity: a trapezoid estimate in log |z| decides, and
        quad_line gives the mass only when the estimate falls below the
        envelope tail).  An envelope that overflows is a domain error."""
        try:
            if self.dim == 1 and self.finite_activity:
                tail = self.shape.tail_mass(1.0, 1)
                s = np.linspace(-30.0, 8.0, 2049)
                z = np.exp(s)
                up, down = self.density(z), self.density(-z)
                # refuse only < 0: a NaN far past jump_radius meets no node
                check_density_sample(np.nan_to_num(np.concatenate([up, down])),
                                     np.concatenate([z, -z]))
                mass = np.trapezoid((up + down) * z, s)
                if mass < tail:
                    mass = quad_line(self.density)
                rel_tol *= min(1.0, mass / tail)
            return self.shape.tail_radius(self.dim, rel_tol)
        except OverflowError:
            raise ParameterDomainError("envelope overflows in the tail-radius "
                                       "search") from None

    @property
    def finite_activity(self) -> bool:
        return self.shape.alpha < self.dim

    @property
    def finite_variation(self) -> bool:
        return self.shape.alpha < self.dim + 1

    @property
    def has_exp_moment(self) -> bool:
        """True when int e^z h(z) dz converges at +infinity (certified by the
        envelope: Gaussian taper, or linear taper faster than e^z)."""
        return self.shape.mu > 0 or self.shape.d > 1


def check_density_sample(h, *coords) -> None:
    """Refuse a density sampled at the points coords (one array per axis,
    broadcasting to h's shape) that is NaN or negative there, naming the
    first such z: the solve would fail later for another stated reason."""
    h = np.asarray(h, dtype=float)
    bad = ~(h >= 0.0)
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), bad.shape)
        z = [float(np.broadcast_to(c, bad.shape)[i]) for c in coords]
        what = "NaN" if np.isnan(h[i]) else "negative"
        raise ParameterDomainError(
            f"density is {what} at z = {z[0] if len(z) == 1 else tuple(z)}")


@dataclass(frozen=True)
class AxisJumpPair:
    """Two independent 1-D jump measures acting along the coordinate axes.

    Models a 2-D process whose components jump independently; the measure is
    supported on the axes (no joint density), so each axis is compensated
    separately.  Exactly this structure makes separable initial data evolve
    as a tensor product of 1-D solutions.
    """

    axis_x: LevyMeasure
    axis_y: LevyMeasure

    def __post_init__(self):
        if self.axis_x.dim != 1 or self.axis_y.dim != 1:
            raise ParameterDomainError("axis measures must be one-dimensional")

    @property
    def dim(self) -> int:
        return 2

    @cached_property
    def jump_radius(self) -> float:
        """The larger of the two axis measures' jump radii."""
        return max(self.axis_x.jump_radius, self.axis_y.jump_radius)


def levy_pair(axis_x: LevyMeasure, axis_y: LevyMeasure) -> AxisJumpPair:
    return AxisJumpPair(axis_x, axis_y)


def make_merton(intensity: float, jump_mean, jump_std: float, dim: int = 1) -> LevyMeasure:
    """Gaussian jump family: intensity * N(jump_mean, jump_std^2) density.

    The envelope uses |z - m|^2 >= |z|^2 / 2 - |m|^2, giving
    c0 = intensity * (2 pi s^2)^(-dim/2) * exp(|m|^2 / (2 s^2)), alpha = 0,
    d = 0, mu = 1/(4 s^2).  A law whose c0 or e^z moment e^(m + s^2/2)
    overflows is a domain error.
    """
    if not 0 < intensity < math.inf:
        raise ParameterDomainError("intensity must be positive and finite")
    m = np.atleast_1d(np.asarray(jump_mean, dtype=float))
    if m.size != dim or not np.all(np.isfinite(m)):
        raise ParameterDomainError(
            f"jump_mean must have {dim} finite component(s)")
    s2 = jump_std * jump_std
    if not (jump_std > 0 and 0 < s2 < math.inf):
        raise ParameterDomainError(
            "jump_std must be positive, with a finite nonzero square")
    norm = intensity * (2.0 * np.pi * s2) ** (-dim / 2.0)
    try:
        c0 = norm * math.exp(float(m @ m) / (2.0 * s2))
    except OverflowError:
        raise ParameterDomainError("c0 overflows: jump_mean is too large "
                                   "for jump_std") from None
    try:
        math.exp(float(np.max(m)) + 0.5 * s2)
    except OverflowError:
        raise ParameterDomainError("e^z moment exp(jump_mean + jump_std^2/2) "
                                   "overflows") from None
    shape = ShapeParams(c0=c0, alpha=0.0, d=0.0, mu=1.0 / (4.0 * s2))
    if dim == 1:
        m0 = float(m[0])
        density = lambda z: norm * np.exp(-((np.asarray(z) - m0) ** 2) / (2.0 * s2))
        return LevyMeasure(density, 1, shape)
    m1, m2 = float(m[0]), float(m[1])
    density = lambda z1, z2: norm * np.exp(
        -((np.asarray(z1) - m1) ** 2 + (np.asarray(z2) - m2) ** 2) / (2.0 * s2))
    return LevyMeasure(density, 2, shape)


def make_exponential_tail(c0: float, alpha: float, decay: float, dim: int = 1) -> LevyMeasure:
    """Power-singular family with exponential taper: c0 |z|^(-alpha) e^(-decay |z|)."""
    if not 0 < decay < math.inf:
        raise ParameterDomainError("decay must be positive and finite")
    shape = ShapeParams(c0=c0, alpha=alpha, d=decay, mu=0.0)
    if dim == 1:
        density = lambda z: c0 * np.abs(z) ** (-alpha) * np.exp(-decay * np.abs(z))
        return LevyMeasure(density, 1, shape)
    profile = lambda p: c0 * np.asarray(p) ** (-alpha) * np.exp(-decay * np.asarray(p))
    density = lambda z1, z2: profile(np.hypot(z1, z2))
    return LevyMeasure(density, 2, shape)


def make_kou(intensity: float, p_up: float, eta_plus: float, eta_minus: float) -> LevyMeasure:
    """Double-exponential family (1-D):

        h(z) = intensity * [p_up eta_plus e^(-eta_plus z)   for z > 0,
                            (1-p_up) eta_minus e^(eta_minus z) for z < 0].

    eta_plus > 1 is required so that e^z jumps have finite expectation.
    """
    if not 0 < intensity < math.inf:
        raise ParameterDomainError("intensity must be positive and finite")
    if not 0.0 <= p_up <= 1.0:
        raise ParameterDomainError("p_up must lie in [0, 1]")
    if not 1.0 < eta_plus < math.inf:
        raise ParameterDomainError(
            "eta_plus must be finite and exceed 1 for finite e^z moments")
    if not 0.0 < eta_minus < math.inf:
        raise ParameterDomainError("eta_minus must be positive and finite")
    c0 = intensity * max(p_up * eta_plus, (1.0 - p_up) * eta_minus)
    shape = ShapeParams(c0=c0, alpha=0.0, d=min(eta_plus, eta_minus), mu=0.0)

    def density(z):
        z = np.asarray(z, dtype=float)
        up = intensity * p_up * eta_plus * np.exp(-eta_plus * np.clip(z, 0.0, None))
        dn = intensity * (1.0 - p_up) * eta_minus * np.exp(eta_minus * np.clip(z, None, 0.0))
        return np.where(z > 0, up, np.where(z < 0, dn, 0.0))

    return LevyMeasure(density, 1, shape)


@dataclass(frozen=True)
class AdmissibilityReport:
    holds: bool
    worst_ratio: float
    worst_z: tuple


def check_admissibility(measure: LevyMeasure, z_grid) -> AdmissibilityReport:
    """Test h(z) |z|^alpha e^(d|z| + mu|z|^2) <= c0 pointwise on a sample grid.

    The grid must be nonempty and exclude z = 0 whenever alpha > 0.
    """
    sh = measure.shape
    if measure.dim == 1:
        z = np.asarray(z_grid, dtype=float).ravel()
        r = np.abs(z)
        pts = z[:, None]
        h = measure.density(z)
    else:
        pts = np.asarray(z_grid, dtype=float).reshape(-1, 2)
        r = np.hypot(pts[:, 0], pts[:, 1])
        h = measure.density(pts[:, 0], pts[:, 1])
    if not r.size:
        raise ParameterDomainError("sample grid must not be empty")
    if sh.alpha > 0 and np.any(r == 0.0):
        raise ParameterDomainError("sample grid must exclude z = 0 when alpha > 0")
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        i = int(np.argmin(h))
        return AdmissibilityReport(False, -np.inf, tuple(pts[i]))
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.where(r > 0, r ** sh.alpha * np.exp(sh.d * r + sh.mu * r * r), 0.0)
        ratio = h * weight / sh.c0
    ratio = np.where(np.isfinite(ratio), ratio, np.where(h > 0, np.inf, 0.0))
    i = int(np.argmax(ratio))
    worst = float(ratio[i])
    return AdmissibilityReport(worst <= 1.0 + 1e-12, worst, tuple(pts[i]))


@dataclass(frozen=True)
class MeasureMoments:
    """Key integrals of a 1-D jump measure; divergent entries are inf, and
    the mean jump is nan where it is undefined."""

    total_mass: float
    compensated_exp_moment: float
    mean_jump: np.ndarray


def moments(measure: LevyMeasure) -> MeasureMoments:
    """Total mass, compensated e^z moment int (e^z - 1 - z) h(z) dz, and mean
    jump int z h(z) dz of a 1-D measure.

    Divergence is decided from the shape parameters; only convergent entries
    are sent to quadrature.
    """
    if measure.dim != 1:
        raise ParameterDomainError("moments are one-dimensional")
    sh = measure.shape
    h = measure.density
    total = np.inf if sh.alpha >= 1 else quad_line(h)
    if sh.alpha >= 2:
        mean = np.full(1, np.nan)
    else:
        mean = np.array([quad_line(lambda z: z * h(z))])
    if not measure.has_exp_moment:
        comp_exp = np.inf
    else:
        comp_exp = quad_line(lambda z: compensated_exp_term(z, h(z)),
                             end=exp_moment_cutoff(sh))
    return MeasureMoments(total, comp_exp, mean)


def compensated_exp_term(z: float, hz: float) -> float:
    """(e^z - 1 - z) hz, the integrand of the compensated e^z moment.

    Below |z| = 1e-2, where expm1(z) - z keeps only a relative accuracy of
    about 2 eps / |z|, the Taylor series to z^7 replaces it.  The term is 0
    where hz is, and e^z hz is exp(z + log hz) where e^z alone overflows.
    """
    if hz == 0.0:
        return 0.0
    if abs(z) < 1e-2:
        return z * z * (0.5 + z * (1 / 6 + z * (1 / 24 + z * (
            1 / 120 + z * (1 / 720 + z / 5040))))) * hz
    if z <= 700.0:
        return (math.expm1(z) - z) * hz
    return math.exp(z + math.log(hz)) - (1.0 + z) * hz


def exp_moment_cutoff(shape: ShapeParams) -> float:
    """Upper limit beyond which e^z * envelope(z) underflows; keeps
    e^z-weighted quadratures from overflowing before the taper wins."""
    c = 740.0 + max(np.log(shape.c0), 0.0)
    if shape.mu > 0:
        drift = 1.0 - shape.d
        return (drift + np.sqrt(drift * drift + 4.0 * shape.mu * c)) / (2.0 * shape.mu)
    return c / (shape.d - 1.0)  # has_exp_moment guarantees d > 1 here


def levy_exponent(measure: LevyMeasure, y) -> complex:
    """Characteristic exponent of the jump part,

        phi(y) = int (1 - e^(i y.z) + i y.z 1_{|z|<=1}) h(z) dz.

    The integrand is O(|z|^2) at the origin, so any admissible measure with
    alpha < dim + 2 integrates; the split at |z| = 1 matches the
    compensator's indicator.
    """
    n = measure.dim
    h = measure.density
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != n:
        raise ParameterDomainError(f"y must have {n} component(s)")

    if n == 1:
        k = float(y[0])
        re = quad_line(lambda z: (1.0 - np.cos(k * z)) * h(z))
        im = quad_line(lambda z: (k * z - np.sin(k * z)) * h(z),
                       outer=lambda z: -np.sin(k * z) * h(z))
        return complex(re, im)

    # 2-D: polar coordinates; angular average by periodic trapezoid of
    # weight(y.z) h(z) on the ring |z| = p.
    ky = float(np.hypot(y[0], y[1]))
    theta_y = math.atan2(y[1], y[0])
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    ct, st = np.cos(theta), np.sin(theta)
    cos_rel = np.cos(theta - theta_y)

    def ring(p: float, weight) -> float:
        hvals = np.asarray(h(p * ct, p * st), dtype=float)
        return float(np.mean(weight(ky * p * cos_rel) * hvals)) * 2.0 * np.pi

    re_w = lambda a: 1.0 - np.cos(a)
    re = (quad_left_unit(lambda p: p * ring(p, re_w))
          + adaptive_quad(lambda p: p * ring(p, re_w), 1.0, np.inf))
    im = (quad_left_unit(lambda p: p * ring(p, lambda a: a - np.sin(a)))
          + adaptive_quad(lambda p: p * ring(p, lambda a: -np.sin(a)), 1.0, np.inf))
    return complex(re, im)
