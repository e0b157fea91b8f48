"""Discrete non-local jump operator on padded periodic grids.

Two evaluation paths share one immutable plan.  With the identity shift and a
density finite at the origin the jump convolution becomes a frequency-domain
product with a sampled symbol, and the plan subtracts mass * u and
mean * grad(u) afterwards.  Otherwise (a feedback shift, a singular density,
or on request) a Gauss-Legendre quadrature in the raw jump size z sums cubic
interpolants of u at x + xi(tau, x, z).

That quadrature sum is one linear map, precomputed as a band: row o holds the
weight output point i puts on point (i + o - half) mod n, filled from each
node's resolved shift with the cubic Lagrange weights of grids.cubic_stencil,
with the node mass taken off the centre row.  Applying it is one product
with a sliding window of the wrapped values.  The build also keeps the
resolved shifts and the two vectors sum w h xi and sum w h (e^xi - 1), which
give the subtracted drift terms and delta(tau, x).  The band is cached on the
plan for the identity shift and for strategies that ignore tau; a
time-dependent strategy has it rebuilt at each new tau.

The compensated variant replaces the subtracted xi * grad(u) by
(e^xi - 1) * grad(u); on closed-form fields (apply_f_tilde_fn) it kills
exponentials c * e^x node-by-node — the cancellation is algebraic, not a
quadrature limit.

Singular densities (envelope exponent alpha > 0) are handled on quadrature
nodes only, with the inner |z| < eps part either dropped (finite activity) or
folded into a diffusion correction; their compensated node sums converge
because the integrand scales like z^2 near the origin even when the density
does not integrate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bessel import FractionalNorm
from .errors import (OutOfDomainError, ParameterDomainError, PlanInvalidError,
                     UnsupportedConfigurationError)
# cubic_interp_periodic is not called here, but bench/tracing.py rebinds it by
# this module's name, so the name must stay importable
from .grids import (CUBIC_OFFSETS, Grid, GridField, Transforms,  # noqa: F401
                    cubic_interp_periodic, cubic_stencil, gradient)
from .measures import AxisJumpPair, LevyMeasure
from .quadrature import adaptive_quad, gauss_legendre_panels
from .shift import ShiftModel, xi_on_grid

__all__ = [
    "OperatorPlan", "build_plan", "apply_f", "apply_f_tilde",
    "apply_f_tilde_fn", "delta_on_plan_nodes", "reference_symbol",
    "small_jump_compensation", "f_bound_probe", "FBoundReport",
    "plan_symbol_table",
]


def reference_symbol(measure: LevyMeasure, k: float, rel_tol: float = 1e-10) -> complex:
    """Plane-wave multiplier of the operator, by adaptive quadrature.

    Independent of any plan: integral of (e^{ikz} - 1 - ikz) h(z) dz over the
    line, split into real part (cos(kz) - 1) h and imaginary part
    (sin(kz) - kz) h.  One-dimensional measures only.
    """
    if measure.dim != 1:
        raise ParameterDomainError("reference symbol is one-dimensional")
    h = measure.density
    re = (adaptive_quad(lambda z: (math.cos(k * z) - 1.0) * float(h(z)), 0.0, 1.0, rel_tol)
          + adaptive_quad(lambda z: (math.cos(k * z) - 1.0) * float(h(-z)), 0.0, 1.0, rel_tol)
          + adaptive_quad(lambda z: (math.cos(k * z) - 1.0) * float(h(z)), 1.0, np.inf, rel_tol)
          + adaptive_quad(lambda z: (math.cos(k * z) - 1.0) * float(h(-z)), 1.0, np.inf, rel_tol))
    im = (adaptive_quad(lambda z: (math.sin(k * z) - k * z) * float(h(z)), 0.0, 1.0, rel_tol)
          - adaptive_quad(lambda z: (math.sin(k * z) - k * z) * float(h(-z)), 0.0, 1.0, rel_tol)
          + adaptive_quad(lambda z: (math.sin(k * z) - k * z) * float(h(z)), 1.0, np.inf, rel_tol)
          - adaptive_quad(lambda z: (math.sin(k * z) - k * z) * float(h(-z)), 1.0, np.inf, rel_tol))
    return complex(re, im)


def small_jump_compensation(measure, eps_in: float):
    """Second moment of the jump density over |z| < eps_in.

    This is the diffusion coefficient picked up when inner jumps are folded
    away; no drift survives because the integrand is compensated.  In two
    dimensions the correction is a 2x2 matrix.
    """
    if eps_in <= 0:
        raise ParameterDomainError("eps_in must be positive")
    if isinstance(measure, AxisJumpPair):
        sx = small_jump_compensation(measure.axis_x, eps_in)
        sy = small_jump_compensation(measure.axis_y, eps_in)
        return np.diag([sx, sy])
    if measure.dim == 1:
        h = measure.density
        s2 = (adaptive_quad(lambda z: z * z * float(h(z)), 0.0, eps_in, 1e-12)
              + adaptive_quad(lambda z: z * z * float(h(-z)), 0.0, eps_in, 1e-12))
        return float(s2)
    if measure.radial_profile is not None:
        prof = measure.radial_profile
        m2 = adaptive_quad(lambda r: r ** 3 * float(prof(r)), 0.0, eps_in, 1e-12)
        return np.eye(2) * (math.pi * m2)
    if measure.product_factors is not None:
        fx, fy = measure.product_factors
        mx = float(adaptive_quad(lambda z: float(fx.density(z)), -np.inf, np.inf, 1e-12))
        my = float(adaptive_quad(lambda z: float(fy.density(z)), -np.inf, np.inf, 1e-12))
        sx = small_jump_compensation(fx, eps_in)
        sy = small_jump_compensation(fy, eps_in)
        # product density: inner square, second moment per axis times the
        # other factor's (near-total) mass — adequate for the tiny eps used
        return np.diag([sx * my, sy * mx])
    raise UnsupportedConfigurationError(
        "two-dimensional correction needs a radial profile or product factors")


def _panel_edges(eps: float, outer: float, alpha: float) -> np.ndarray:
    """Geometric panel edges on (eps, outer], refined toward the origin.

    For alpha > 0 the refinement continues until the omitted z^2-weighted
    mass is negligible; smooth densities stop much earlier.
    """
    if eps >= outer:
        raise ParameterDomainError("inner cutoff must be below the outer cutoff")
    floor = max(eps, outer * 2.0 ** -(46 if alpha > 0 else 10))
    edges = [outer]
    while edges[-1] * 0.5 > floor:
        edges.append(edges[-1] * 0.5)
    edges.append(eps)
    return np.array(edges[::-1])


@dataclass(frozen=True, eq=False)
class _Band:
    """The quadrature operator at one tau, precomputed on the grid axis.

    band is (2 half + 1, n), half covering the largest resolved shift: row o
    holds the weight that output point i puts on point (i + o - half) mod n,
    summed over the nodes, with the node mass already subtracted on the
    centre row.  xi holds the resolved shift of each node with weight
    wh != 0, one row per node (one entry per node under the identity
    shift); xi_mean and exp_mean are sum wh xi and
    sum wh (e^xi - 1) per point.  fallback_points counts the points whose
    shift came from the resolver's bracketed root solve.
    """

    wh: np.ndarray
    xi: Sequence[np.ndarray]
    band: np.ndarray
    xi_mean: np.ndarray
    exp_mean: np.ndarray
    fallback_points: int

    def apply(self, values: np.ndarray) -> np.ndarray:
        """sum_j wh_j (u(x + xi_j) - u(x)) with u cubic-interpolated."""
        n = values.shape[0]
        half = self.band.shape[0] // 2
        wrapped = np.concatenate([values[n - half:], values, values[:half]])
        return np.einsum("oi,oi->i", self.band, sliding_window_view(wrapped, n))


@dataclass(eq=False)
class _BandCache:
    """Bands built on one plan (one key for static shifts, the latest two
    taus otherwise), the perf_counter seconds spent building them and the
    resolver fallback points of those builds."""

    by_key: dict = field(default_factory=dict)
    build_s: float = 0.0
    fallback_points: int = 0


@dataclass(frozen=True, eq=False)
class OperatorPlan:
    """Immutable precomputation for evaluating the jump operator on one grid.

    Quadrature data (z_nodes/z_weights/z_density) always exists in 1-D and
    drives the quadrature path, drift corrections, and analytic sources.  The
    symbol arrays exist whenever the fast path is available (identity shift,
    alpha = 0) and carry the sampled-lattice mass/mean so the frequency-domain
    product and its real-space subtractions stay mutually consistent.
    """

    grid: Grid
    measure: object
    shift: ShiftModel | None
    eps_in: float
    r_out: float
    small_jump_policy: str
    force_quadrature: bool
    z_nodes: np.ndarray | None
    z_weights: np.ndarray | None
    z_density: np.ndarray | None
    nu_mass: float
    mean_jump: np.ndarray
    exp_mean: float
    delta0: float
    sigma2_correction: object
    symbol_conv: np.ndarray | None
    fft_mass: float
    fft_mean: np.ndarray
    fft_exp_mean: float
    reach: float
    _bands: _BandCache = field(default_factory=_BandCache, init=False,
                               repr=False)

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def uses_fft(self) -> bool:
        return self.symbol_conv is not None and not self.force_quadrature

    @property
    def band_build_s(self) -> float:
        """Seconds spent building quadrature bands on this plan so far."""
        return self._bands.build_s

    @property
    def shift_fallback_points(self) -> int:
        """Points the shift resolver's bracketed root solve handled, summed
        over the bands built on this plan so far."""
        return self._bands.fallback_points

    def bounded_multiplier(self) -> np.ndarray:
        """symbol - mass: the advection-free part, spectral radius <= 2 mass."""
        if self.symbol_conv is None:
            raise PlanInvalidError("no fast path on this plan")
        return self.symbol_conv - self.fft_mass


def _lattice_offsets(n: int, dx: float) -> np.ndarray:
    """Signed coordinates of lattice points in FFT storage order."""
    idx = np.arange(n)
    return np.where(idx <= n // 2, idx, idx - n) * dx


def _sampled_symbol_1d(grid: Grid, density, r_out: float):
    z = _lattice_offsets(grid.n_total, grid.dx)
    h = np.asarray(density(z), dtype=float)
    h[np.abs(z) > r_out] = 0.0
    conv = np.conj(np.fft.rfft(h)) * grid.dx
    mass = float(np.sum(h) * grid.dx)
    mean = float(np.sum(z * h) * grid.dx)
    expmean = float(np.sum(np.expm1(z) * h) * grid.dx)
    return conv, mass, np.array([mean]), expmean


def _sampled_symbol_2d(grid: Grid, measure, r_out: float):
    n = grid.n_total
    z1 = _lattice_offsets(n, grid.dx)
    if isinstance(measure, AxisJumpPair):
        # jumps act along one axis at a time, so the symbol is the sum of the
        # two axis symbols on the tensor modes (full modes along axis 0, half
        # along axis 1, matching rfft2 storage)
        hx = np.asarray(measure.axis_x.density(z1), dtype=float)
        hx[np.abs(z1) > r_out] = 0.0
        hy = np.asarray(measure.axis_y.density(z1), dtype=float)
        hy[np.abs(z1) > r_out] = 0.0
        sx = np.conj(np.fft.fft(hx)) * grid.dx
        sy = np.conj(np.fft.rfft(hy)) * grid.dx
        conv = sx[:, None] + sy[None, :]
        mass = float((np.sum(hx) + np.sum(hy)) * grid.dx)
        mean = np.array([float(np.sum(z1 * hx)), float(np.sum(z1 * hy))]) * grid.dx
        return conv, mass, mean
    zz1, zz2 = np.meshgrid(z1, z1, indexing="ij")
    h = np.asarray(measure(zz1, zz2), dtype=float)
    h[zz1 ** 2 + zz2 ** 2 > r_out ** 2] = 0.0
    conv = np.conj(np.fft.rfft2(h)) * grid.dx ** 2
    mass = float(np.sum(h) * grid.dx ** 2)
    mean = np.array([float(np.sum(zz1 * h)), float(np.sum(zz2 * h))]) * grid.dx ** 2
    return conv, mass, mean


def build_plan(grid: Grid, measure, shift: ShiftModel | None = None, *,
               small_jump_policy: str = "diffusion_correction",
               eps_in: float | None = None, r_out: float | None = None,
               nodes_per_panel: int = 16, force_quadrature: bool = False,
               tail_tol: float = 1e-10,
               tau_probe: float = 0.0) -> OperatorPlan:
    """Precompute nodes, weights, moments, and (when available) the symbol.

    The outer cutoff defaults to the envelope tail radius at tail_tol; the
    inner cutoff defaults to 0 for finite-activity measures and otherwise to
    the radius whose z^2-weighted inner mass is below tail_tol.  A shift model
    with rho = 0 is normalized away so the identity path is taken verbatim.
    """
    if small_jump_policy not in ("drop", "diffusion_correction"):
        raise ParameterDomainError("small_jump_policy must be drop or diffusion_correction")
    if shift is not None and shift.rho == 0.0:
        shift = None

    pair = isinstance(measure, AxisJumpPair)
    mdim = measure.dim
    if mdim != grid.dim:
        raise ParameterDomainError(f"measure dim {mdim} does not match grid dim {grid.dim}")
    if grid.dim == 2:
        if shift is not None:
            raise UnsupportedConfigurationError(
                "feedback shifts are unsupported on two-dimensional grids")
        alphas = [measure.axis_x.shape.alpha, measure.axis_y.shape.alpha] if pair \
            else [measure.shape.alpha]
        if any(a > 0 for a in alphas):
            raise UnsupportedConfigurationError(
                "two-dimensional plans require a density bounded at the origin")

    shape = measure.axis_x.shape if pair else measure.shape
    alpha = max(a.shape.alpha for a in (measure.axis_x, measure.axis_y)) if pair \
        else shape.alpha
    finite_act = (measure.axis_x.finite_activity and measure.axis_y.finite_activity) if pair \
        else measure.finite_activity
    if alpha >= mdim + 2:
        raise ParameterDomainError(
            "envelope exponent implies a divergent second jump moment")
    if not finite_act and small_jump_policy == "drop":
        raise PlanInvalidError(
            "drop policy needs finite activity; use diffusion_correction")

    if r_out is None:
        if pair:
            r_out = max(measure.axis_x.shape.tail_radius(1, tail_tol),
                        measure.axis_y.shape.tail_radius(1, tail_tol))
        else:
            r_out = shape.tail_radius(mdim, tail_tol)
    r_out = float(r_out)

    if eps_in is None:
        if finite_act:
            eps_in = 0.0
        else:
            c0 = shape.c0
            eps_in = float(np.clip((tail_tol * (3.0 - alpha) / (2.0 * c0))
                                   ** (1.0 / (3.0 - alpha)), 1e-10, 0.05))
    eps_in = float(eps_in)
    if not finite_act and eps_in <= 0:
        raise PlanInvalidError("infinite-activity measures need a positive inner cutoff")

    # quadrature nodes: 1-D only; the 2-D paths are symbol-based
    z_nodes = z_weights = z_density = None
    nu_mass = mean = exp_mean = delta0 = 0.0
    if grid.dim == 1:
        edges = _panel_edges(eps_in, r_out, alpha)
        pos_nodes, pos_w = gauss_legendre_panels(edges, nodes_per_panel)
        z_nodes = np.concatenate([-pos_nodes[::-1], pos_nodes])
        z_weights = np.concatenate([pos_w[::-1], pos_w])
        z_density = np.asarray(measure.density(z_nodes), dtype=float)
        wh = z_weights * z_density
        nu_mass = float(np.sum(wh))
        mean = float(np.sum(wh * z_nodes))
        exp_mean = float(np.sum(wh * np.expm1(z_nodes)))
        delta0 = float(np.sum(wh * (np.expm1(z_nodes) - z_nodes)))

    if small_jump_policy == "diffusion_correction" and eps_in > 0:
        sigma2_corr = small_jump_compensation(measure, eps_in)
    else:
        sigma2_corr = 0.0 if grid.dim == 1 else np.zeros((2, 2))

    # fast path: identity shift and a density finite at the origin
    symbol_conv = None
    fft_mass, fft_exp_mean = 0.0, 0.0
    fft_mean = np.zeros(grid.dim)
    if shift is None and alpha == 0.0:
        if grid.dim == 1:
            symbol_conv, fft_mass, fft_mean, fft_exp_mean = _sampled_symbol_1d(
                grid, measure.density, r_out)
        else:
            symbol_conv, fft_mass, fft_mean = _sampled_symbol_2d(grid, measure, r_out)

    reach = r_out
    if shift is not None:
        probe_x = np.linspace(-grid.half_width, grid.half_width, 33)
        probe_z = np.array([-r_out, -0.5 * r_out, -0.1, 0.1, 0.5 * r_out, r_out])
        worst = 0.0
        for zp in probe_z:
            worst = max(worst, float(np.max(np.abs(
                xi_on_grid(shift, tau_probe, probe_x, float(zp))))))
        reach = max(r_out, 1.1 * worst)
    if grid.dim == 1 and grid.pad * grid.dx < reach:
        raise OutOfDomainError(
            f"padding {grid.pad * grid.dx:.3f} is below the operator reach "
            f"{reach:.3f}; enlarge the pad")

    return OperatorPlan(
        grid=grid, measure=measure, shift=shift, eps_in=eps_in, r_out=r_out,
        small_jump_policy=small_jump_policy,
        force_quadrature=force_quadrature, z_nodes=z_nodes,
        z_weights=z_weights, z_density=z_density, nu_mass=nu_mass,
        mean_jump=np.array([mean]) if grid.dim == 1 else fft_mean,
        exp_mean=exp_mean, delta0=delta0, sigma2_correction=sigma2_corr,
        symbol_conv=symbol_conv,
        fft_mass=fft_mass, fft_mean=fft_mean, fft_exp_mean=fft_exp_mean,
        reach=reach)


def _check_field(plan: OperatorPlan, u: GridField) -> None:
    if u.grid != plan.grid:
        raise PlanInvalidError("field grid does not match the plan grid")
    if plan.grid.pad * plan.grid.dx < plan.reach:
        raise OutOfDomainError("padding is below the operator reach")


def _grad_values(plan: OperatorPlan, u: GridField, grad_u):
    if grad_u is None:
        return gradient(u)
    if isinstance(grad_u, GridField):
        return (grad_u.values,)
    if isinstance(grad_u, (tuple, list)):
        return tuple(g.values if isinstance(g, GridField) else np.asarray(g)
                     for g in grad_u)
    return (np.asarray(grad_u),)


def _identity_shifts(plan: OperatorPlan):
    """(w h, xi) of the weighted nodes under the identity shift xi = z; xi
    is a (nodes, 1) column that broadcasts against the grid axis, so
    functions of xi cost one evaluation per node."""
    wh = plan.z_weights * plan.z_density
    keep = wh != 0.0
    return wh[keep], plan.z_nodes[keep][:, None]


def _build_band(plan: OperatorPlan, tau: float) -> _Band:
    """Resolve each weighted node's shift at tau and sum its cubic
    interpolation weights into the band."""
    g = plan.grid
    x = g.axis()
    n = g.n_total
    wh, xi = _identity_shifts(plan)
    counts = {"shift_fallback_points": 0}
    if plan.shift is not None:
        # one array per node, not one (nodes, n) block: the block measured
        # 1.6 MB more peak RSS over a benchmark run of repeated solves
        xi = [xi_on_grid(plan.shift, tau, x, float(zj), counts)
              for zj in xi[:, 0]]
    max_xi = max((float(np.max(np.abs(r))) for r in xi), default=0.0)
    if max_xi > g.pad * g.dx:
        raise OutOfDomainError(
            f"resolved shift reach {max_xi:.3f} exceeds the padding "
            f"{g.pad * g.dx:.3f}")
    # |xi| <= max_xi puts every stencil point within ceil(max_xi / dx) + 2
    # cells of its output point; one more cell absorbs rounding in floor()
    half = math.ceil(max_xi / g.dx) + 3
    band = np.zeros((2 * half + 1, n))
    xi_mean = np.zeros(n)
    exp_mean = np.zeros(n)
    cols = np.arange(n)
    for whj, xij in zip(wh, xi):
        base, weights = cubic_stencil(g.x_lo, g.dx, x + xij)
        rows = base - cols + half
        for off, wk in zip(CUBIC_OFFSETS, weights):
            band[rows + off, cols] += whj * wk
        xi_mean += whj * xij
        exp_mean += whj * np.expm1(xij)
    band[half] -= np.sum(wh)
    return _Band(wh, xi, band, xi_mean, exp_mean,
                 counts["shift_fallback_points"])


def _band(plan: OperatorPlan, tau: float) -> _Band:
    """The plan's quadrature band at tau, built on first use."""
    static = plan.shift is None or not plan.shift.strategy.time_dependent
    key = None if static else float(tau)
    cache = plan._bands
    got = cache.by_key.get(key)
    if got is None:
        t0 = perf_counter()
        got = _build_band(plan, tau)
        cache.build_s += perf_counter() - t0
        cache.fallback_points += got.fallback_points
        if len(cache.by_key) >= 2:
            cache.by_key.pop(next(iter(cache.by_key)))
        cache.by_key[key] = got
    return got


def apply_f(plan: OperatorPlan, u: GridField, grad_u=None,
            tau: float | None = None) -> GridField:
    """Jump operator f(u) = integral of [u(x+xi) - u(x) - xi . grad u] dnu.

    Identity-shift plans with a symbol take the fast path: frequency-domain
    product with the sampled symbol, then mass and mean subtractions using
    grad_u (computed spectrally when not supplied).  Other plans apply the
    precomputed quadrature band.
    """
    _check_field(plan, u)
    tau = u.time_tag if tau is None else tau
    grads = _grad_values(plan, u, grad_u)
    if plan.uses_fft:
        out = (Transforms(plan.grid).apply(plan.symbol_conv, u.values)
               - plan.fft_mass * u.values)
        for mean, du in zip(plan.fft_mean, grads):
            out = out - mean * du
        return u.with_values(out)
    if plan.dim != 1:
        raise UnsupportedConfigurationError(
            "two-dimensional quadrature path is not available; "
            "use an identity-shift plan")
    b = _band(plan, tau)
    return u.with_values(b.apply(u.values) - b.xi_mean * grads[0])


def apply_f_tilde(plan: OperatorPlan, u: GridField, grad_u=None,
                  tau: float | None = None) -> GridField:
    """Compensated operator: integral of [u(x+xi) - u(x) - (e^xi - 1) grad u].

    Equal to f(u) - delta * grad(u) with delta from the same nodes.
    One-dimensional only.
    """
    if plan.dim != 1:
        raise UnsupportedConfigurationError("compensated operator is 1-D only")
    _check_field(plan, u)
    tau = u.time_tag if tau is None else tau
    grads = _grad_values(plan, u, grad_u)
    if plan.uses_fft:
        out = (Transforms(plan.grid).apply(plan.symbol_conv, u.values)
               - plan.fft_mass * u.values - plan.fft_exp_mean * grads[0])
        return u.with_values(out)
    b = _band(plan, tau)
    return u.with_values(b.apply(u.values) - b.exp_mean * grads[0])


# Weighted nodes per closed-form block in apply_f_tilde_fn.  A few nodes
# times the grid stays in cache; one block of all nodes measured slower than
# a loop over single nodes (27 ms against 16 ms on 320 nodes x 768 points).
_FN_BLOCK = 8


def apply_f_tilde_fn(plan: OperatorPlan, fn: Callable[[np.ndarray], np.ndarray],
                     dfn: Callable[[np.ndarray], np.ndarray],
                     tau: float) -> np.ndarray:
    """Compensated operator on a closed-form field, no interpolation.

    fn and dfn evaluate the field and its derivative at arbitrary points, so
    shifted arguments are exact; use this for analytic sources and for fields
    (such as exponentials) whose growth defeats grid interpolation.  Values
    are on the grid axis; a feedback shift's resolved nodes come from the
    plan's band at tau.  fn and dfn must act elementwise on arrays of any
    shape: fn is called on the 1-D grid axis and on 2-D (nodes, n) blocks of
    shifted points of _FN_BLOCK weighted nodes each, and the blocks are
    summed with one matrix-vector product each.
    """
    if plan.dim != 1:
        raise UnsupportedConfigurationError("compensated operator is 1-D only")
    xv = plan.grid.axis()
    if plan.shift is None:
        wh, xi = _identity_shifts(plan)
    else:
        b = _band(plan, tau)
        wh, xi = b.wh, b.xi
    base = np.asarray(fn(xv), dtype=float)
    slope = np.asarray(dfn(xv), dtype=float)
    out = np.zeros_like(base)
    for j in range(0, len(wh), _FN_BLOCK):
        xij = np.asarray(xi[j:j + _FN_BLOCK])
        terms = (np.asarray(fn(xv + xij), dtype=float) - base
                 - np.expm1(xij) * slope)
        out += wh[j:j + _FN_BLOCK] @ terms
    return out


def delta_on_plan_nodes(plan: OperatorPlan, tau: float) -> np.ndarray:
    """Drift correction delta(tau, x) on the plan's jump nodes, on the grid
    axis.

    Identity shift gives the constant integral of (e^z - 1 - z) dnu; with
    feedback the resolved xi replaces z pointwise, from the plan's band.
    """
    if plan.dim != 1:
        raise UnsupportedConfigurationError("drift correction is 1-D only")
    if plan.shift is None:
        return np.full(plan.grid.n_total, plan.delta0)
    b = _band(plan, tau)
    return b.exp_mean - b.xi_mean


@dataclass(frozen=True)
class FBoundReport:
    passed: bool
    gamma: float
    max_ratio: float
    ratios: tuple


def f_bound_probe(plan: OperatorPlan, fields: Sequence[GridField],
                  gamma: float) -> FBoundReport:
    """Ratios of ||f(u)||_L2 to the fractional norm of the gradient.

    Refuses regularity parameters outside [1/2, 1) or at or below
    (alpha - dim) / (2 omega); zero fields are skipped.
    """
    if not 0.5 <= gamma < 1.0:
        raise ParameterDomainError("gamma must satisfy 1/2 <= gamma < 1")
    pair = isinstance(plan.measure, AxisJumpPair)
    alpha = max(plan.measure.axis_x.shape.alpha, plan.measure.axis_y.shape.alpha) \
        if pair else plan.measure.shape.alpha
    omega = plan.shift.strategy.holder_exponent if plan.shift is not None else 1.0
    floor = (alpha - plan.dim) / (2.0 * omega)
    if gamma <= floor:
        raise ParameterDomainError(
            f"gamma = {gamma} must exceed (alpha - dim)/(2 omega) = {floor:.4f}")
    norm = FractionalNorm(plan.grid, gamma - 0.5)
    ratios = []
    for u in fields:
        if float(np.max(np.abs(u.values))) == 0.0:
            continue
        fu = apply_f(plan, u)
        grads = gradient(u)
        den = math.sqrt(sum(norm(u.with_values(g)) ** 2 for g in grads))
        ratios.append(fu.l2() / den)
    mx = max(ratios) if ratios else 0.0
    finite = all(math.isfinite(r) for r in ratios)
    return FBoundReport(finite, gamma, mx, tuple(ratios))


def plan_symbol_table(plan: OperatorPlan, wavenumbers: Sequence[float],
                      rel_tol: float = 1e-10):
    """Rows (k, plan symbol, reference symbol, relative gap) for diagnostics.

    The plan symbol is evaluated from the quadrature nodes, matching what the
    operator actually applies; the reference comes from adaptive quadrature.
    """
    if plan.dim != 1:
        raise UnsupportedConfigurationError("symbol table is 1-D only")
    rows = []
    wh = plan.z_weights * plan.z_density
    for k in wavenumbers:
        node_sym = complex(np.sum(wh * (np.exp(1j * k * plan.z_nodes)
                                        - 1.0 - 1j * k * plan.z_nodes)))
        ref = reference_symbol(plan.measure, float(k), rel_tol)
        gap = abs(node_sym - ref) / max(abs(ref), 1e-300)
        rows.append((float(k), node_sym, ref, gap))
    return rows
