"""Command-line surface: pricing runs, diagnostics, and study artifacts.

Subcommands
-----------
price               solve the configured problem, compare with the matching
                    closed-form oracle when one exists, write price.csv
diagnose bessel     kernel mass / closed-form / modulus-of-continuity checks
diagnose operator   node and applied symbols vs adaptive-quadrature
                    reference, plus the exponential-annihilation check
diagnose decay      early-time decay slope of the compensated source
convergence-study   simultaneous (dt, h) halving ladder with observed orders
xi-probe            shift resolver growth/expansion/root diagnostics

Every run writes CSV artifacts (floats at 17 significant digits, header
comment carrying the config digest) plus manifest.json, and exits 0 exactly
when all enabled assertions pass.  Outputs are deterministic: identical
config bytes give identical CSV bytes, and no subcommand draws random
numbers.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bessel import BesselKernel, kernel_eval, modulus_of_continuity_probe
from .config import RunConfig, load_config
from .errors import LevyPideError
from .grids import GridField, make_grid
from .jump_operator import (apply_f, apply_f_tilde_fn, build_plan,
                            plan_symbol_table)
from .pricing import (bs_closed_form, estimate_reach, merton_series_oracle,
                      report_price, transform_to_pide)
from .shift import (count_xi_roots, growth_bound_probe,
                    resolve_xi_first_order, xi_on_grid)
from .solver import singular_source_decay_probe, solve_shifted

_SCHEMA = "levypide-csv-1"
# Accepted observed order of the convergence study's last level: the ladder
# halves dt and h together, and both schemes are second order in time.
ORDER_BAND = (1.5, 2.8)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (np.floating,)):
        return "%.17g" % float(v)
    return str(v)


def _write_csv(path: Path, digest: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={_SCHEMA} config_digest={digest}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(outdir: Path, cfg: RunConfig, outputs, t0: float,
                    command: str, record: dict, passed: bool) -> None:
    import scipy
    manifest = {
        "config_digest": cfg.digest,
        "command": command,
        "versions": {
            "levypide": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "grid": record.get("grid"),
        "scheme": record.get("scheme"),
        "stats": record.get("stats"),
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "outputs": [str(p) for p in outputs],
        "assertions_passed": passed,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grid_record(half_width: float, n_core: int, reach: float):
    """A grid sized for the reach, and the manifest record of it."""
    grid = make_grid(half_width, n_core, reach=reach)
    return grid, {"half_width": grid.half_width, "n_core": grid.n_core,
                  "reach": reach, "pad": grid.pad, "n_total": grid.n_total}


def _problem_grid(cfg: RunConfig, n_core: int | None = None):
    """The solve grid, padded for the estimated reach, and its record.  A
    spot outside the core window fails here, before anything is solved."""
    cfg.market.check_core_window(cfg.half_width)
    return _grid_record(cfg.half_width, n_core or cfg.n_core,
                        estimate_reach(cfg.measure, cfg.shift, cfg.half_width))


def _scheme_record(cfg: RunConfig) -> dict:
    return {"scheme": cfg.scheme.scheme, "dt": cfg.scheme.dt}


def _oracle(cfg: RunConfig) -> float:
    """The independent price of the configured contract: the Merton series
    or the Black-Scholes closed form without a shift, nan otherwise."""
    if cfg.shift is None and cfg.jump_family == "merton":
        return merton_series_oracle(cfg.market, cfg.merton_params)
    if cfg.shift is None and cfg.jump_family == "none":
        return bs_closed_form(cfg.market)
    return float("nan")


def _cmd_price(cfg: RunConfig, outdir: Path):
    grid, record = _problem_grid(cfg)
    problem = transform_to_pide(cfg.market, grid, cfg.measure, cfg.shift)
    result = solve_shifted(problem, cfg.scheme)
    price = report_price(cfg.market, result)
    oracle = _oracle(cfg)
    rel = abs(price / oracle - 1.0) if math.isfinite(oracle) else float("nan")
    rows = [(cfg.market.S0, cfg.market.K, cfg.market.T, price, oracle, rel)]
    _write_csv(outdir / "price.csv", cfg.digest,
               ("S0", "K", "T", "price_pide", "price_oracle", "rel_err"), rows)
    passed = (not math.isfinite(rel)) or rel < cfg.oracle_rel_tol
    return passed, [outdir / "price.csv"], {
        "grid": record, "scheme": _scheme_record(cfg), "stats": result.stats}


def _cmd_diagnose_bessel(cfg: RunConfig, outdir: Path):
    rows = []
    for order in (0.5, 1.0, 1.6):
        for dim in (1, 2):
            m = BesselKernel(order, dim).mass()
            rows.append(("mass", order, dim, m, 1.0, abs(m - 1.0) < 1e-6))
    from scipy.special import k0
    for x in (0.25, 1.0, 2.5):
        # order 2 on the line has the two-sided exponential closed form
        got = kernel_eval(2.0, 1, x)
        want = 0.5 * math.exp(-abs(x))
        rows.append(("closed_form_order2", x, 1, got, want,
                     abs(got - want) < 1e-6))
        # order 1 has the modified-Bessel closed form instead
        got1 = kernel_eval(1.0, 1, x)
        want1 = float(k0(abs(x))) / math.pi
        rows.append(("closed_form_order1", x, 1, got1, want1,
                     abs(got1 - want1) < 1e-6))
    shifts = np.geomspace(1e-3, 1e-1, 7)
    for alpha in (0.3, 0.5, 0.8):
        rep = modulus_of_continuity_probe(alpha, 1, shifts)
        rows.append(("modulus_spread", alpha, 1, rep.spread, 10.0, rep.passed))
    _write_csv(outdir / "bessel.csv", cfg.digest,
               ("check", "parameter", "dim", "value", "target", "passed"),
               rows)
    return all(r[-1] for r in rows), [outdir / "bessel.csv"], {}


def _cmd_diagnose_operator(cfg: RunConfig, outdir: Path):
    if cfg.measure is None:
        raise LevyPideError("diagnose operator needs a jump family in [jumps]")
    # diagnostic-owned grid: dx = pi / 256 and a pad of whole 256-cell
    # blocks make n_total a multiple of 512, so the box spans whole periods
    # of the probe wavenumbers k = 1, 2, 4 and cos(kx) is a lattice mode
    grid, record = _grid_record(
        4.0 * math.pi, 2048, estimate_reach(cfg.measure, None, 4.0 * math.pi))
    grid = replace(grid, pad=256 * math.ceil(grid.pad / 256))
    record.update(pad=grid.pad, n_total=grid.n_total)
    plan = build_plan(grid, cfg.measure)
    x = grid.axis()
    rows = []
    ok = True
    for k, sym, ref, gap in plan_symbol_table(plan, (1.0, 2.0, 4.0)):
        # the plan takes cos(kx) to Re S cos(kx) - Im S sin(kx) for the
        # symbol S it applies, its symbol_conv
        c, s = np.cos(k * x), np.sin(k * x)
        got = apply_f(plan, GridField(grid, c)).values
        applied = 2.0 * complex(np.mean(got * c), -np.mean(got * s))
        apply_gap = float(np.max(np.abs(got - ref.real * c + ref.imag * s))
                          ) / abs(ref)
        for check, value, rel in (("symbol", sym, gap),
                                  ("apply", applied, apply_gap)):
            good = rel < 1e-6
            ok &= good
            rows.append((check, k, value.real, value.imag, ref.real,
                         ref.imag, rel, good))
    K, r, tau = cfg.market.K, cfg.market.r, 0.5
    h = apply_f_tilde_fn(plan, lambda x: K * np.exp(x + r * tau),
                         lambda x: K * np.exp(x + r * tau), tau)
    # pointwise: each h(x) rounds with the size of the field at x
    ann = float(np.max(np.abs(h) / (K * np.exp(x + r * tau))))
    good = ann < 1e-6
    ok &= good
    rows.append(("annihilation", 0.0, ann, 0.0, 0.0, 0.0, ann, good))
    _write_csv(outdir / "operator.csv", cfg.digest,
               ("check", "k", "value_re", "value_im", "ref_re", "ref_im",
                "rel_gap", "passed"), rows)
    return ok, [outdir / "operator.csv"], {"grid": record}


def _cmd_diagnose_decay(cfg: RunConfig, outdir: Path):
    if cfg.measure is None:
        raise LevyPideError("diagnose decay needs a jump family in [jumps]")
    grid, record = _grid_record(3.0, 8192, estimate_reach(cfg.measure, None, 3.0))
    problem = transform_to_pide(cfg.market, grid, cfg.measure, None)
    rows = []
    for gamma in (0.5, 0.75):
        rep = singular_source_decay_probe(problem, gamma)
        rows.append((gamma, rep.slope, rep.bound, rep.passed))
    _write_csv(outdir / "decay.csv", cfg.digest,
               ("gamma", "slope", "bound", "passed"), rows)
    return all(r[-1] for r in rows), [outdir / "decay.csv"], {"grid": record}


def _cmd_convergence_study(cfg: RunConfig, outdir: Path, halvings: int):
    oracle = _oracle(cfg)
    # without an oracle the finest level is the reference, so an observed
    # order needs two more levels
    least = 2 if math.isfinite(oracle) else 3
    if halvings < least:
        raise LevyPideError(f"convergence-study needs --halvings >= {least}")
    # every level's grid first, so a refused one fails before any solve
    ladder = [_problem_grid(cfg, cfg.n_core * 2 ** i) for i in range(halvings)]
    grids = [record for _, record in ladder]
    prices = []
    levels = []
    for i, (grid, _) in enumerate(ladder):
        dt = cfg.scheme.dt / 2 ** i
        problem = transform_to_pide(cfg.market, grid, cfg.measure, cfg.shift)
        res = solve_shifted(problem, replace(cfg.scheme, dt=dt))
        prices.append(report_price(cfg.market, res))
        levels.append((i, grid.n_core, dt, grid.dx))
    if math.isfinite(oracle):
        errors = [abs(p / oracle - 1.0) for p in prices]
    else:
        # Richardson self-convergence against the finest level
        errors = [abs(p - prices[-1]) / max(abs(prices[-1]), 1e-300)
                  for p in prices[:-1]] + [float("nan")]
    rows = []
    orders = []
    for j, (i, n, dt, h) in enumerate(levels):
        order = float("nan")
        if j > 0 and math.isfinite(errors[j]) and math.isfinite(errors[j - 1]) \
                and errors[j] > 0:
            order = math.log2(errors[j - 1] / errors[j])
            orders.append(order)
        rows.append((i, n, dt, h, errors[j], order))
    _write_csv(outdir / "convergence.csv", cfg.digest,
               ("level", "n_core", "dt", "h", "rel_err", "observed_order"),
               rows)
    passed = bool(orders) and ORDER_BAND[0] <= orders[-1] <= ORDER_BAND[1]
    return passed, [outdir / "convergence.csv"], {
        "grid": grids, "scheme": _scheme_record(cfg)}


def _cmd_xi_probe(cfg: RunConfig, outdir: Path):
    if cfg.shift is None:
        raise LevyPideError("xi-probe needs [shift] with rho > 0")
    model = cfg.shift
    xs = np.linspace(-2.0, 2.0, 21)
    zs = np.concatenate([-np.geomspace(0.05, 2.0, 12)[::-1],
                         np.geomspace(0.05, 2.0, 12)])
    rows = []
    growth = growth_bound_probe(model, zs, xs)
    rows.append(("growth_spread", model.rho, growth.spread, 10.0,
                 growth.passed))
    # first-order expansion: gap to the fixed point shrinks ~4x as rho halves
    gaps = []
    for rho in (0.02, 0.01):
        mdl = replace(model, rho=rho)
        gap = xi_on_grid(mdl, 0.0, xs, zs) - resolve_xi_first_order(
            mdl, 0.0, xs, zs[:, None])
        gaps.append(float(np.max(np.abs(gap))))
    ratio = gaps[0] / gaps[1] if gaps[1] > 0 else float("inf")
    rows.append(("first_order_gap_ratio", 0.02, ratio, 4.0,
                 bool(3.0 <= ratio <= 5.0)))
    n_multi = 0
    for z in (-1.0, -0.3, 0.3, 1.0):
        for x in (-1.0, 0.0, 1.0):
            n_multi += int(count_xi_roots(model, 0.0, x, z) > 1)
    rows.append(("multi_root_cells", model.rho, n_multi, 0, True))
    _write_csv(outdir / "xi_probe.csv", cfg.digest,
               ("probe", "parameter", "value", "target", "passed"), rows)
    return all(r[-1] for r in rows), [outdir / "xi_probe.csv"], {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levypide",
        description="Jump-diffusion option pricing and operator diagnostics")
    parser.add_argument("--config", required=True, help="INI config path")
    parser.add_argument("--out", default="out", help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("price")
    diag = sub.add_parser("diagnose")
    diag.add_argument("what", choices=("bessel", "operator", "decay"))
    study = sub.add_parser("convergence-study")
    study.add_argument("--halvings", type=int, default=3)
    sub.add_parser("xi-probe")

    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
    except LevyPideError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "price":
            passed, outputs, record = _cmd_price(cfg, outdir)
        elif args.command == "diagnose":
            fn = {"bessel": _cmd_diagnose_bessel,
                  "operator": _cmd_diagnose_operator,
                  "decay": _cmd_diagnose_decay}[args.what]
            passed, outputs, record = fn(cfg, outdir)
        elif args.command == "convergence-study":
            passed, outputs, record = _cmd_convergence_study(
                cfg, outdir, args.halvings)
        else:
            passed, outputs, record = _cmd_xi_probe(cfg, outdir)
    except LevyPideError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    command = " ".join(["levypide"] + list(argv if argv is not None
                                           else sys.argv[1:]))
    _write_manifest(outdir, cfg, outputs, t0, command, record, passed)
    for p in outputs:
        print(p)
    if not passed:
        print("assertions FAILED", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
