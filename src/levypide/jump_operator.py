"""Discrete non-local jump operator on padded periodic grids.

Two evaluation paths share one immutable plan, and the shift picks one.
Under the identity shift the operator commutes with lattice translations,
so it is a Fourier multiplier, applied with the mass * u and mean * grad(u)
subtractions: the symbol of the density sampled on the lattice (alpha = 0,
with lattice moments), or for a singular density the stencil symbol of the
Gauss-Legendre node sum in the jump size z with u cubic-interpolated at
x + z_j (node moments).  Under a feedback shift the nodes land at
x + xi(tau, x, z) instead, and no multiplier represents the sum.

That feedback sum is one linear map, precomputed as a band: entry (i, o)
holds the weight output point i puts on point (i + o - half) mod n, filled
from each node's resolved shift with the cubic Lagrange weights of
grids.cubic_stencil, with the node mass taken off the centre offset.
Applying it is one product with a sliding window of the wrapped values.
The build keeps the shifts as one (nodes, n) array, resolved a block of
nodes per call, and the two vectors sum w h xi and sum w h (e^xi - 1),
which give the subtracted drift terms and delta(tau, x).  The band is
cached on the plan for strategies that ignore tau; a time-dependent
strategy has it rebuilt at each new tau.

The compensated variant replaces the subtracted xi * grad(u) by
(e^xi - 1) * grad(u); on closed-form fields (apply_f_tilde_fn) it kills
c0 + c1 e^x pair by pair — the cancellation is algebraic, not a quadrature
limit.  A closed form that is such a profile outside a live interval (the
Black-Scholes value outside the few kernel widths where N(d) is not
saturated) therefore needs only the pairs (x, x + xi) with an end inside
it.  Under the identity shift the nodes ascend, so each column's landings
x + z_j split into a run below the interval, a live run and a run above
it: the saturated runs are sums of c0 + c1 e^x terms, read from prefix and
suffix sums of w h and w h e^z, and the closed form is evaluated on the
live landings alone.  Under a feedback shift the landings need not be
sorted by node, and apply_f_tilde_fn sums each block of nodes over the
window of grid columns its shifts can reach.

With infinite activity the inner |z| < eps part is folded into a diffusion
correction; the compensated node sums converge because the integrand
scales like z^2 near the origin even when the density does not integrate.
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
from .measures import (JUMP_TAIL_TOL, AxisJumpPair, LevyMeasure,
                       check_density_sample)
from .quadrature import adaptive_quad, gauss_legendre_panels, quad_line
from .shift import ShiftModel, xi_on_grid

__all__ = [
    "OperatorPlan", "build_plan", "apply_f", "apply_f_tilde_fn",
    "delta_on_plan_nodes", "reference_symbol", "small_jump_compensation",
    "f_bound_probe", "FBoundReport", "plan_symbol_table",
]


def reference_symbol(measure: LevyMeasure, k: float) -> complex:
    """Plane-wave multiplier of the operator, by adaptive quadrature.

    Independent of any plan: the integral of (e^{ikz} - 1 - ikz) h(z) dz over
    the line, taken as its real part (cos kz - 1) h and its imaginary part
    (sin kz - kz) h, one quadrature.quad_line each.  One-dimensional
    measures only.
    """
    if measure.dim != 1:
        raise ParameterDomainError("reference symbol is one-dimensional")
    h = measure.density
    re = quad_line(lambda z: (np.cos(k * z) - 1.0) * h(z))
    im = quad_line(lambda z: (np.sin(k * z) - k * z) * h(z))
    return complex(re, im)


def small_jump_compensation(measure, eps_in: float) -> float:
    """Second moment of a 1-D jump density over |z| < eps_in.

    This is the diffusion coefficient picked up when inner jumps are folded
    away; no drift survives because the integrand is compensated.  Only 1-D
    plans have an inner cutoff: 2-D plans need a density bounded at the origin.
    """
    if measure.dim != 1:
        raise ParameterDomainError("small-jump compensation is one-dimensional")
    if eps_in <= 0:
        raise ParameterDomainError("eps_in must be positive")
    h = measure.density
    s2 = (adaptive_quad(lambda z: z * z * float(h(z)), 0.0, eps_in, 1e-12)
          + adaptive_quad(lambda z: z * z * float(h(-z)), 0.0, eps_in, 1e-12))
    return float(s2)


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


# Node blocks.  A band resolves its shifts _NODE_BLOCK nodes per resolver
# call into one (nodes, n) array and scatters it into the band _FN_BLOCK
# nodes at a time.  apply_f_tilde_fn sums the closed form over blocks of
# _FN_BLOCK nodes without a live window and, under a feedback shift, of
# _NODE_BLOCK nodes with one (the identity shift's live window needs no
# blocks).  A block of closed-form terms must stay in cache.  Best of five
# on a 2-core machine, ms per put source at 4, 8, 16, 32 and 64 nodes per
# block:
#   full sum, Merton, 320 nodes x 1458 points:   10.3, 8.5, 14.7, 21.2, 19.1
#   windowed, tanh_ramp band, 768 points, 0..1:    6.4, 4.6, 3.6, 3.0, 3.1
# Blocks also set the peak RSS: `levypide price` on the merton_call and
# kou_put demo configs in one process peaked at 84.3 MB with 8/8 nodes
# (full/windowed), 85.0 MB with 8/32, 86.8 MB with 8/64 and 87.2 MB with
# 32/32 when their windowed sums still ran in blocks, so the full sum keeps
# its small blocks.  So does the scatter: four
# rounds of the benchmark's impacted_book in one process peak at 91.1 MB
# with 8-node scatters and 93.9 MB with 32-node ones.
_FN_BLOCK = 8
_NODE_BLOCK = 32
# The identity shift's live landings are evaluated in runs of grid columns
# of about _PAIR_BLOCK pairs.  Five price_european calls under the
# alpha = 0.5 exponential tail (n_core 256, dt 0.04, 1,472 nodes) peak at
# 91.5 MB in one process with every live pair of a level at once and at
# 85.5 MB, as with the node-block windows, in runs of 8192; runs of 4096 to
# 16384 price equally fast.
_PAIR_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class _Band:
    """The quadrature operator at one tau, precomputed on the grid axis.

    band is (n, 2 half + 1), half covering the largest resolved shift: row i
    holds the weights that output point i puts on the points
    (i + o - half) mod n, o = 0 .. 2 half, summed over the nodes, with the
    node mass already subtracted at o = half.  The offsets run along the
    rows so that the apply reads each output point's weights contiguously:
    read with a stride of n entries, the (2 half + 1, n) transpose takes
    14.7 ms per apply against 1.05 ms at n = 3072, where the band is 20 MB.

    xi is the (nodes, n) array of the plan's resolved shifts, row j node j
    across the grid, resolved _NODE_BLOCK nodes per resolver call.  xi_min
    and xi_max are each node's extremes over the grid; xi_mean and exp_mean
    are plan.wh @ xi and @ (e^xi - 1), summed one resolver block at a time.
    """

    xi: np.ndarray
    xi_min: np.ndarray
    xi_max: np.ndarray
    band: np.ndarray
    xi_mean: np.ndarray
    exp_mean: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """sum_j wh_j (u(x + xi_j) - u(x)) with u cubic-interpolated."""
        n = values.shape[0]
        width = self.band.shape[1]
        half = width // 2
        wrapped = np.concatenate([values[n - half:], values, values[:half]])
        return np.einsum("io,io->i", self.band,
                         sliding_window_view(wrapped, width))


def _new_stats() -> dict:
    return {"plan_build_s": 0.0, "operator_build_s": 0.0,
            "shift_resolve_s": 0.0, "shift_fp_iterations": 0,
            "shift_fallback_points": 0, "source_pairs": 0}


@dataclass(frozen=True, eq=False)
class OperatorPlan:
    """Immutable precomputation for evaluating the jump operator on one grid.

    z_nodes and wh = w h hold the 1-D quadrature nodes of nonzero weight
    (None in 2-D).  symbol_conv is the identity shift's symbol (see
    build_plan), else None.  mass, mean_jump and delta0, the moments of h,
    z h and (e^z - 1 - z) h (delta0 is 0.0 in 2-D), are lattice sums beside
    the lattice symbol and node sums otherwise.  sigma2_correction is the
    diffusion coefficient of the folded inner jumps, 0.0 unless the plan
    has an inner cutoff (1-D infinite activity).

    stats counts the work done on the plan: the perf_counter seconds of
    build_plan itself (plan_build_s: radius search, nodes, symbol and
    small-jump correction), those spent building quadrature bands
    (operator_build_s) and, within them, resolving shifts
    (shift_resolve_s), the shift resolver's fixed-point entry-iterates
    (shift_fp_iterations) and the points it handed to its bracketed root
    solve (shift_fallback_points), and the (node, point) pairs on which
    apply_f_tilde_fn evaluated the closed form (source_pairs: every pair of
    a full sum, the pairs of the column windows under a feedback shift and
    the live landings alone under the identity shift).
    """

    grid: Grid
    measure: object
    shift: ShiftModel | None
    z_nodes: np.ndarray | None
    wh: np.ndarray | None
    mass: float
    mean_jump: np.ndarray
    delta0: float
    sigma2_correction: float
    symbol_conv: np.ndarray | None
    _bands: dict = field(default_factory=dict, init=False, repr=False)
    stats: dict = field(default_factory=_new_stats, init=False, repr=False)


def _lattice_symbol(grid: Grid, measure, r_out: float):
    """(symbol, mass, mean, delta0) of the density sampled on the grid
    lattice within r_out, one n^dim array in FFT storage order; delta0, the
    (e^z - 1 - z) moment, is 1-D only.  An axis pair puts its axis_x density
    on column 0 and its axis_y density on row 0, as line masses dx wide."""
    n, dx = grid.n_total, grid.dx
    idx = np.arange(n)
    z = np.where(idx <= n // 2, idx, idx - n) * dx  # FFT storage order
    coords = (z,) if grid.dim == 1 else (z[:, None], z[None, :])
    if isinstance(measure, AxisJumpPair):
        h = np.zeros((n, n))
        h[:, 0] = measure.axis_x.density(z) / dx
        h[0, :] += measure.axis_y.density(z) / dx
    else:
        h = np.asarray(measure.density(*coords), dtype=float)
    h[np.sqrt(sum(za ** 2 for za in coords)) > r_out] = 0.0
    check_density_sample(h, *coords)
    cell = dx ** grid.dim
    mean = np.array([float(np.sum(za * h)) for za in coords]) * cell
    delta0 = float(np.sum(np.expm1(z) * h) * dx - mean[0]) \
        if grid.dim == 1 else 0.0
    return (np.conj(Transforms(grid).fwd(h)) * cell, float(np.sum(h) * cell),
            mean, delta0)


def _stencil_symbol(grid: Grid, z: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """The identity shift's node sum as a multiplier: every point applies
    one row, wh_j times node j's cubic weights at offset z_j, summed onto
    the lattice offsets mod n (FFT storage order); conj(rfft(row))."""
    n = grid.n_total
    base, weights = cubic_stencil(0.0, grid.dx, z)
    row = np.bincount(
        np.concatenate([(base + off) % n for off in CUBIC_OFFSETS]),
        np.concatenate([wh * w for w in weights]), minlength=n)
    return np.conj(Transforms(grid).fwd(row))


def build_plan(grid: Grid, measure,
               shift: ShiftModel | None = None) -> OperatorPlan:
    """Precompute weighted nodes, the identity shift's symbol, and moments.

    The outer cutoff r_out is the measure's jump_radius; the inner cutoff
    eps_in is 0 for finite-activity measures and otherwise the radius whose
    z^2-weighted inner mass is below JUMP_TAIL_TOL, with the inner jumps
    folded into sigma2_correction (0.0 in 2-D, where alpha = 0).  A shift
    model with rho = 0 is normalized away so the identity path is taken
    verbatim.  Every identity plan gets a symbol: for alpha = 0 the lattice
    symbol, whose lattice moments replace the node moments, and for
    alpha > 0 the stencil symbol (_stencil_symbol).  The padding must cover
    r_out, in 2-D too; resolved shifts reaching further are rejected when
    the band is built, which the solvers' stability check does before
    marching.
    """
    t0 = perf_counter()
    if shift is not None and shift.rho == 0.0:
        shift = None

    if measure.dim != grid.dim:
        raise ParameterDomainError(
            f"measure dim {measure.dim} does not match grid dim {grid.dim}")
    axes = (measure.axis_x, measure.axis_y) \
        if isinstance(measure, AxisJumpPair) else (measure,)
    alpha = max(m.shape.alpha for m in axes)
    if grid.dim == 2:
        if shift is not None:
            raise UnsupportedConfigurationError(
                "feedback shifts are unsupported on two-dimensional grids")
        if alpha > 0:
            raise UnsupportedConfigurationError(
                "two-dimensional plans require a density bounded at the origin")
    if alpha >= grid.dim + 2:
        raise ParameterDomainError(
            "envelope exponent implies a divergent second jump moment")

    r_out = measure.jump_radius
    if grid.pad * grid.dx < r_out:
        raise OutOfDomainError(
            f"padding {grid.pad * grid.dx:.3f} is below the operator reach "
            f"{r_out:.3f}; enlarge the pad")
    eps_in = 0.0
    if grid.dim == 1 and not measure.finite_activity:
        eps_in = float(np.clip((JUMP_TAIL_TOL * (3.0 - alpha) / (2.0 * measure.shape.c0))
                               ** (1.0 / (3.0 - alpha)), 1e-10, 0.05))

    # quadrature nodes: 1-D only; the 2-D paths are symbol-based
    z_nodes = wh = None
    mass = delta0 = 0.0
    mean = np.zeros(grid.dim)
    if grid.dim == 1:
        edges = _panel_edges(eps_in, r_out, alpha)
        pos_nodes, pos_w = gauss_legendre_panels(edges)
        z = np.concatenate([-pos_nodes[::-1], pos_nodes])
        h = np.asarray(measure.density(z), dtype=float)
        check_density_sample(h, z)
        wh = np.concatenate([pos_w[::-1], pos_w]) * h
        mass = float(np.sum(wh))
        mean = np.array([float(np.sum(wh * z))])
        delta0 = float(np.sum(wh * (np.expm1(z) - z)))
        keep = wh != 0.0
        z_nodes, wh = z[keep], wh[keep]

    sigma2_corr = small_jump_compensation(measure, eps_in) if eps_in > 0 else 0.0

    # the identity shift's operator is a Fourier multiplier
    symbol_conv = None
    if shift is None and alpha == 0.0:
        symbol_conv, mass, mean, delta0 = _lattice_symbol(grid, measure, r_out)
    elif shift is None:
        symbol_conv = _stencil_symbol(grid, z_nodes, wh)

    plan = OperatorPlan(
        grid=grid, measure=measure, shift=shift, z_nodes=z_nodes,
        wh=wh, mass=mass, mean_jump=mean, delta0=delta0,
        sigma2_correction=sigma2_corr, symbol_conv=symbol_conv)
    plan.stats["plan_build_s"] = perf_counter() - t0
    return plan


def _check_field(plan: OperatorPlan, u: GridField) -> None:
    if u.grid != plan.grid:
        raise PlanInvalidError("field grid does not match the plan grid")


def _build_band(plan: OperatorPlan, tau: float) -> _Band:
    """Resolve the weighted nodes' feedback shifts at tau, _NODE_BLOCK
    nodes per resolver call, and sum their cubic interpolation weights into
    the band, _FN_BLOCK nodes per scatter."""
    g = plan.grid
    x = g.axis()
    n = g.n_total
    wh, z = plan.wh, plan.z_nodes
    xi = np.empty((wh.size, n))
    xi_mean = np.zeros(n)
    exp_mean = np.zeros(n)
    for j in range(0, wh.size, _NODE_BLOCK):
        nodes = slice(j, j + _NODE_BLOCK)
        t0 = perf_counter()
        xi[nodes] = xi_on_grid(plan.shift, tau, x, z[nodes], plan.stats)
        plan.stats["shift_resolve_s"] += perf_counter() - t0
        xi_mean += wh[nodes] @ xi[nodes]
        exp_mean += wh[nodes] @ np.expm1(xi[nodes])
    xi_min = np.min(xi, axis=1)
    xi_max = np.max(xi, axis=1)
    max_xi = float(np.max(np.abs([xi_min, xi_max]), initial=0.0))
    if max_xi > g.pad * g.dx:
        raise OutOfDomainError(
            f"resolved shift reach {max_xi:.3f} exceeds the padding "
            f"{g.pad * g.dx:.3f}")
    # |xi| <= max_xi puts every stencil point within ceil(max_xi / dx) + 2
    # cells of its output point; one more cell absorbs rounding in floor()
    half = math.ceil(max_xi / g.dx) + 3
    band = np.zeros((n, 2 * half + 1))
    cols = np.arange(n)
    for j in range(0, wh.size, _FN_BLOCK):
        nodes = slice(j, j + _FN_BLOCK)
        base, weights = cubic_stencil(g.x_lo, g.dx, x + xi[nodes])
        offsets = base - cols + half
        # one bincount onto the band columns this slice reaches
        lo = int(np.min(offsets)) + CUBIC_OFFSETS[0]
        hi = int(np.max(offsets)) + CUBIC_OFFSETS[-1] + 1
        flat = cols * (hi - lo) + offsets - lo
        whk = wh[nodes, None]
        band[:, lo:hi] += np.bincount(
            np.concatenate([(flat + off).ravel() for off in CUBIC_OFFSETS]),
            np.concatenate([(whk * wk).ravel() for wk in weights]),
            minlength=n * (hi - lo)).reshape(n, hi - lo)
    band[:, half] -= np.sum(wh)
    return _Band(xi, xi_min, xi_max, band, xi_mean, exp_mean)


def _band(plan: OperatorPlan, tau: float) -> _Band:
    """The feedback-shift plan's quadrature band at tau, built on first
    use.  A time-dependent strategy's plan keeps the latest tau's band only:
    the marchers never ask for an earlier tau again."""
    key = float(tau) if plan.shift.strategy.time_dependent else None
    bands = plan._bands
    got = bands.get(key)
    if got is None:
        t0 = perf_counter()
        got = _build_band(plan, tau)
        plan.stats["operator_build_s"] += perf_counter() - t0
        bands.clear()
        bands[key] = got
    return got


def apply_f(plan: OperatorPlan, u: GridField, grad_u=None,
            tau: float | None = None) -> GridField:
    """Jump operator f(u) = integral of [u(x+xi) - u(x) - xi . grad u] dnu.

    Identity-shift plans take a frequency-domain product with their symbol,
    then the plan's mass and mean subtractions using grad_u, the tuple of
    per-axis gradient arrays (computed spectrally when not supplied).
    Feedback-shift plans apply the precomputed quadrature band.
    """
    _check_field(plan, u)
    tau = u.time_tag if tau is None else tau
    grads = gradient(u) if grad_u is None else grad_u
    if plan.shift is None:
        out = (Transforms(plan.grid).apply(plan.symbol_conv, u.values)
               - plan.mass * u.values)
        for mean, du in zip(plan.mean_jump, grads):
            out = out - mean * du
        return u.with_values(out)
    b = _band(plan, tau)
    return u.with_values(b.apply(u.values) - b.xi_mean * grads[0])


def apply_f_tilde_fn(plan: OperatorPlan, fn: Callable[[np.ndarray], np.ndarray],
                     dfn: Callable[[np.ndarray], np.ndarray],
                     tau: float, live: tuple | None = None) -> np.ndarray:
    """Compensated operator on a closed-form field, no interpolation.

    fn and dfn evaluate the field and its derivative at arbitrary points, so
    shifted arguments are exact; use this for analytic sources and for fields
    (such as exponentials) whose growth defeats grid interpolation.  Values
    are on the grid axis.  fn and dfn must act elementwise on arrays of any
    shape: fn is called on the 1-D grid axis, on 2-D (nodes, columns)
    blocks of shifted points and on 1-D vectors of shifted points.  The
    evaluated (node, point) pairs are added to plan.stats["source_pairs"].

    live = (lo, hi, below, above) declares fn to be c0 + c1 e^x below lo
    with (c0, c1) = below and above hi with (c0, c1) = above (up to a
    negligible remainder), as BlackScholesClosedForm.live_interval does for
    the closed form.  Every term annihilates such a profile, so a pair
    (x, x + xi) with both ends on one side adds nothing and is skipped.

    * Without live every pair is summed, _FN_BLOCK nodes per matrix-vector
      product.
    * Identity shift with live: z_nodes ascend, so the landings x + z_j of
      column x split at jl = searchsorted(z, lo - x) and
      jr = searchsorted(z, hi - x, "right").  A saturated landing's term is
      (c0 - u + u') + (c1 e^x - u') e^{z_j}, so the nodes j < jl (for
      x >= lo) and j >= jr (for x <= hi) add (c0 - u + u') W + (c1 e^x - u') E
      with W and E the sums of wh and wh e^z over them: prefix sums from the
      left end below, suffix sums from the right end above (a total minus a
      prefix would cancel the heavy nodes next to z = 0 of a singular
      density).  Only the live landings jl <= j < jr call fn, once per pair,
      in runs of grid columns of about _PAIR_BLOCK pairs, accumulated by
      column with np.bincount.
    * Feedback shift with live: the landings x + xi_j(x) need not be sorted
      by j, so each block of _NODE_BLOCK rows of the shift array of the
      plan's band at tau is summed over the columns
      x in [lo - max(0, b), hi - min(0, a)], [a, b] its shifts' range.
    """
    if plan.grid.dim != 1:
        raise UnsupportedConfigurationError("compensated operator is 1-D only")
    xv = plan.grid.axis()
    base = np.asarray(fn(xv), dtype=float)
    slope = np.asarray(dfn(xv), dtype=float)
    if plan.shift is None:
        if live is not None:
            return _split_landings(plan, fn, xv, base, slope, live)
        # a (nodes, 1) column: functions of xi cost one evaluation per node
        xi = plan.z_nodes[:, None]
    else:
        b = _band(plan, tau)
        xi = b.xi
    out = np.zeros_like(base)
    block = _FN_BLOCK if live is None else _NODE_BLOCK
    for j in range(0, len(plan.wh), block):
        nodes = slice(j, j + block)
        cols = slice(0, xv.size)
        if live is not None:
            cols = slice(
                np.searchsorted(xv, live[0] - max(0.0, b.xi_max[nodes].max())),
                np.searchsorted(xv, live[1] - min(0.0, b.xi_min[nodes].min()),
                                side="right"))
        xij = xi[nodes, cols]
        terms = (np.asarray(fn(xv[cols] + xij), dtype=float) - base[cols]
                 - np.expm1(xij) * slope[cols])
        out[cols] += plan.wh[nodes] @ terms
        plan.stats["source_pairs"] += terms.size
    return out


def _split_landings(plan: OperatorPlan, fn, xv: np.ndarray, base: np.ndarray,
                    slope: np.ndarray, live: tuple) -> np.ndarray:
    """apply_f_tilde_fn under the identity shift with a live window: the
    saturated landings from node prefix and suffix sums, fn on the live
    ones only."""
    lo, hi, below, above = live
    z, wh = plan.z_nodes, plan.wh
    n = xv.size
    jl = np.searchsorted(z, lo - xv)
    jr = np.searchsorted(z, hi - xv, side="right")
    # the sums of wh and wh e^z over the nodes j < k (left) and j >= k
    # (right), each taken from its own end
    sums = np.stack([wh, wh * np.exp(z)])
    zero = np.zeros((2, 1))
    left = np.hstack([zero, np.cumsum(sums, axis=1)])
    right = np.hstack([np.cumsum(sums[:, ::-1], axis=1)[:, ::-1], zero])
    ex = np.exp(xv)
    out = np.zeros(n)
    start = np.searchsorted(xv, lo)  # x >= lo from here on
    stop = np.searchsorted(xv, hi, side="right")  # x <= hi before here
    for (c0, c1), cols, (W, E) in (
            (below, slice(start, n), left[:, jl[start:]]),
            (above, slice(0, stop), right[:, jr[:stop]])):
        u, du = base[cols], slope[cols]
        out[cols] += (c0 - u + du) * W + (c1 * ex[cols] - du) * E
    # the live landings, in runs of columns of about _PAIR_BLOCK pairs
    counts = jr - jl
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_PAIR_BLOCK, ends[-1], _PAIR_BLOCK))
    for a, b in zip([0, *cuts], [*cuts, n]):
        run = counts[a:b]
        col = np.repeat(np.arange(a, b), run)
        node = np.arange(col.size) + np.repeat(jl[a:b] - (np.cumsum(run) - run),
                                               run)
        zj = z[node]
        terms = wh[node] * (np.asarray(fn(xv[col] + zj), dtype=float)
                            - base[col] - np.expm1(zj) * slope[col])
        out += np.bincount(col, terms, minlength=n)
    plan.stats["source_pairs"] += int(ends[-1])
    return out


def delta_on_plan_nodes(plan: OperatorPlan, tau: float) -> np.ndarray:
    """Drift correction delta(tau, x) on the plan's jump nodes, on the grid
    axis.

    Identity shift gives the plan's constant moment delta0 of
    (e^z - 1 - z) dnu (the lattice moment beside the lattice symbol, the
    node sum otherwise); with feedback the resolved xi replaces z
    pointwise, from the plan's band.
    """
    if plan.grid.dim != 1:
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
    (alpha - dim) / (2 omega); zero fields are skipped, and at least one
    field must be nonzero.
    """
    if not 0.5 <= gamma < 1.0:
        raise ParameterDomainError("gamma must satisfy 1/2 <= gamma < 1")
    # 2-D plans need a density bounded at the origin
    alpha = plan.measure.shape.alpha if plan.grid.dim == 1 else 0.0
    omega = plan.shift.strategy.holder_exponent if plan.shift is not None else 1.0
    floor = (alpha - plan.grid.dim) / (2.0 * omega)
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
    if not ratios:
        raise ParameterDomainError("f_bound_probe needs a nonzero field")
    mx = max(ratios)
    finite = all(math.isfinite(r) for r in ratios)
    return FBoundReport(finite, gamma, mx, tuple(ratios))


def plan_symbol_table(plan: OperatorPlan, wavenumbers: Sequence[float]):
    """Rows (k, node symbol, reference symbol, relative gap) for diagnostics.

    The node symbol is evaluated exactly in z on the quadrature nodes.  An
    identity plan applies its symbol_conv instead, which `levypide diagnose
    operator` checks in its apply rows by applying the plan to cos(kx).
    The reference is adaptive quadrature.
    """
    if plan.grid.dim != 1:
        raise UnsupportedConfigurationError("symbol table is 1-D only")
    rows = []
    for k in wavenumbers:
        node_sym = complex(np.sum(plan.wh * (np.exp(1j * k * plan.z_nodes)
                                             - 1.0 - 1j * k * plan.z_nodes)))
        ref = reference_symbol(plan.measure, float(k))
        gap = abs(node_sym - ref) / max(abs(ref), 1e-300)
        rows.append((float(k), node_sym, ref, gap))
    return rows
