"""Benchmark workloads: frozen contract tables, generated inputs, checked calls.

A workload is a fixed list of item kinds, one round.  A run repeats rounds
until its time is up, so every kind is called equally often and the work per
round does not depend on the seed.  Each kind has a table of parameter rows
(drawn once from the ranges in `freeze.py` and stored with their reference
values in `references.json`); the seed picks which row each round uses.
Grid size, step and maturity are fixed per kind, and so are the parameters
that set the grid padding and the shift resolver's work (see `freeze.RANGES`),
so every row of a kind costs the same.

Every call goes through a public entry point: `levypide.cli.main` on a
generated INI config, `levypide.pricing.price_european`, or
`levypide.solver.solve_direct`.  Module attributes are looked up at call time
so the timing wrappers in `tracing.py` see the calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = {
    "frictionless_book": ("bs", "merton", "kou"),
    "impacted_book": ("impact_tanh", "impact_sin", "impact_linear", "feedback"),
    "direct_march": ("sep2d", "pair_imex", "pair_etd2"),
    "infinite_activity": ("exptail",),
}

# Relative tolerances of the in-run checks.  Oracle tolerances sit about ten
# times above the worst error of the reference table at the stated size;
# reference drift allows the planned algorithm changes (node sets, propagated
# source) that move prices by up to ~3e-7 relative.
ORACLE_TOL = {"full": 5e-4, "tiny": 5e-2}
DRIFT_TOL = 1e-6
SEPARABILITY_TOL = 1e-6
PAIR_GAP_TOL = {"full": 1e-5, "tiny": 1e-2}

# Per-kind resolution: n_core, dt and (where fixed) the maturity.
SIZES = {
    "full": {
        "bs": (1024, 0.02), "merton": (1024, 0.02), "kou": (1024, 0.01),
        "impact": (512, 0.02), "feedback": (512, 0.0025),
        "sep2d": (256, 1e-3), "pair": (512, 0.0025), "exptail": (256, 0.04),
    },
    "tiny": {
        "bs": (128, 0.1), "merton": (128, 0.1), "kou": (128, 0.05),
        "impact": (64, 0.1), "feedback": (128, 0.025),
        "sep2d": (32, 0.01), "pair": (64, 0.025), "exptail": (64, 0.1),
    },
}
STRATEGY = {"impact_tanh": "tanh_ramp", "impact_sin": "sin",
            "impact_linear": "linear"}
# Kinds that share a parameter table, so one round solves one problem twice.
TABLE = {"pair_imex": "pair", "pair_etd2": "pair"}


def table_of(kind: str) -> str:
    return TABLE.get(kind, kind)


@dataclass(frozen=True)
class Check:
    """One comparison of an output with a reference: `kind` is "oracle"
    (independent computation) or "reference" (value frozen in
    references.json)."""

    kind: str
    what: str
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.err) and self.err <= self.tol


@dataclass
class Item:
    """One entry-point call, the check of its output, and the scalar that
    references.json freezes for it."""

    kind: str
    row: int
    call: Callable[[], object]
    check: Callable[[object, dict], list]
    value: Callable[[object], float] = float


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def rel(a: float, b: float) -> float:
    return abs(a / b - 1.0) if b != 0.0 else abs(a)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite output {value!r}")
    return value


def _drift(reference, value: float) -> list:
    if reference is None:
        return []
    return [Check("reference", "frozen value", rel(value, reference), DRIFT_TOL)]


# --- INI configs for the CLI kinds -----------------------------------------

def config_text(kind: str, p: dict, size: str) -> str:
    family = "impact" if kind in STRATEGY else kind
    n_core, dt = SIZES[size][family]
    lines = ["[market]", "spot = 100.0", f"strike = {p['K']!r}",
             f"maturity_years = {p['T']!r}", f"rate_per_year = {p['r']!r}",
             f"volatility = {p['sigma']!r}", f"option_type = {p['type']}",
             "", "[jumps]"]
    if kind == "bs":
        lines.append("family = none")
    elif kind == "kou":
        lines += ["family = kou", f"intensity_per_year = {p['lam']!r}",
                  f"p_up = {p['p_up']!r}", f"eta_up = {p['eta_up']!r}",
                  f"eta_down = {p['eta_down']!r}"]
    else:
        lines += ["family = merton", f"intensity_per_year = {p['lam']!r}",
                  f"jump_mean = {p['m']!r}", f"jump_std = {p['s']!r}"]
    if kind in STRATEGY:
        lines += ["", "[shift]", f"rho = {p['rho']!r}",
                  f"strategy = {STRATEGY[kind]}",
                  f"amplitude = {p['amplitude']!r}"]
    lines += ["", "[grid]", "half_width = 6.0", f"n_core = {n_core}",
              "", "[scheme]", "scheme = imex_bdf2", f"dt = {dt!r}"]
    if kind == "kou":
        lines += ["cross_check = true",
                  f"cross_check_tol = {1e-3 if size == 'full' else 5e-2!r}"]
    if size == "tiny":
        lines += ["", "[assertions]", f"oracle_rel_tol = {ORACLE_TOL['tiny']!r}"]
    return "\n".join(lines) + "\n"


def _cli_item(kind, row, p, reference, size, workdir: Path):
    import levypide.cli
    import levypide.config
    import levypide.pricing

    cfg = workdir / f"{kind}-{row}.cfg"
    cfg.write_text(config_text(kind, p, size))
    levypide.config.load_config(str(cfg))
    out = workdir / "out" / kind

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = levypide.cli.main(["--config", str(cfg), "--out", str(out),
                                      "price"])
        if code != 0:
            raise RuntimeError(f"levypide price exited {code} on {cfg.name}")
        with open(out / "price.csv") as fh:
            last = fh.read().splitlines()[-1]
        return _finite(float(last.split(",")[3]))

    def check(price, ctx):
        out = _drift(reference, price)
        market = levypide.pricing.MarketSpec(100.0, p["K"], p["T"], p["r"],
                                             p["sigma"], p["type"])
        if kind == "bs":
            want = levypide.pricing.bs_closed_form(market)
            out.append(Check("oracle", "bs_closed_form", rel(price, want),
                             ORACLE_TOL[size]))
        elif kind == "merton":
            want = levypide.pricing.merton_series_oracle(
                market, (p["lam"], p["m"], p["s"]))
            out.append(Check("oracle", "merton_series_oracle",
                             rel(price, want), ORACLE_TOL[size]))
        return out

    return Item(kind, row, call, check)


# --- library kinds ----------------------------------------------------------

def _exptail_item(row, p, reference, size):
    import levypide.pricing
    from levypide.measures import make_exponential_tail
    from levypide.solver import SchemeConfig

    n_core, dt = SIZES[size]["exptail"]
    market = levypide.pricing.MarketSpec(100.0, p["K"], p["T"], p["r"],
                                         p["sigma"], p["type"])
    measure = make_exponential_tail(p["c0"], p["alpha"], p["decay"])
    scheme = SchemeConfig(scheme="imex_bdf2", dt=dt)

    def call():
        res = levypide.pricing.price_european(market, measure, n_core=n_core,
                                              scheme=scheme)
        return _finite(res.price)

    return Item("exptail", row, call, lambda price, ctx: _drift(reference, price))


def _value_at_origin(grid, values) -> float:
    i = int(np.argmin(np.abs(grid.axis())))
    return float(values[i] if values.ndim == 1 else values[i, i])


def _feedback_item(row, p, reference, size):
    import levypide.solver
    from levypide.grids import GridField, make_grid
    from levypide.measures import make_merton
    from levypide.shift import ShiftModel, strategy_tanh_ramp

    n_core, dt = SIZES[size]["feedback"]
    g = make_grid(4.0, n_core, reach=3.2)
    payoff = GridField(g, np.maximum(np.exp(g.axis()) - 1.0, 0.0))
    problem = levypide.solver.CauchyProblem(
        g, sigma=p["sigma"], horizon=0.25, rate=p["r"],
        measure=make_merton(p["lam"], p["m"], p["s"]),
        shift=ShiftModel(strategy_tanh_ramp(p["amplitude"]), rho=p["rho"]),
        initial=payoff, diffusion_mode="feedback")
    scheme = levypide.solver.SchemeConfig(dt=dt)

    def call():
        res = levypide.solver.solve_direct(problem, scheme)
        return _finite(_value_at_origin(g, res.field.values))

    return Item("feedback", row, call,
                lambda value, ctx: _drift(reference, value))


def _sep2d_item(row, p, reference, size):
    import levypide.solver
    from levypide.grids import GridField, make_grid
    from levypide.measures import levy_pair, make_merton

    n_core, dt = SIZES[size]["sep2d"]
    nux = make_merton(p["lam_x"], p["m_x"], 0.25)
    nuy = make_merton(p["lam_y"], p["m_y"], 0.2)
    zero = lambda tau, x, u, du: np.zeros_like(u)
    g1 = make_grid(5.0, n_core, reach=3.0)
    x = g1.axis()
    a0 = np.exp(-p["a"] * x ** 2)
    b0 = np.exp(-p["b"] * x ** 2) * (1.0 + 0.3 * np.sin(x))
    g2 = make_grid(5.0, n_core, reach=3.0, dim=2)
    scheme = levypide.solver.SchemeConfig(scheme="mild_etd2", dt=dt)
    CP = levypide.solver.CauchyProblem
    problem2 = CP(g2, p["sigma"], 0.25, measure=levy_pair(nux, nuy),
                  nonlinearity=zero, initial=GridField(g2, np.outer(a0, b0)))

    def call():
        res = levypide.solver.solve_direct(problem2, scheme)
        if not np.all(np.isfinite(res.field.values)):
            raise ValueError("non-finite 2-D field")
        return res.field.values

    def check(values, ctx):
        # independent reference: the separable solve is the product of the
        # two 1-D solves
        ra = levypide.solver.solve_direct(
            CP(g1, p["sigma"], 0.25, measure=nux, nonlinearity=zero,
               initial=GridField(g1, a0)), scheme)
        rb = levypide.solver.solve_direct(
            CP(g1, p["sigma"], 0.25, measure=nuy, nonlinearity=zero,
               initial=GridField(g1, b0)), scheme)
        prod = np.outer(ra.field.values, rb.field.values)
        gap = float(np.linalg.norm(values - prod) / np.linalg.norm(prod))
        return ([Check("oracle", "product of 1-D solves", gap, SEPARABILITY_TOL)]
                + _drift(reference, _value_at_origin(g2, values)))

    return Item("sep2d", row, call, check,
                lambda values: _value_at_origin(g2, values))


def _pair_item(kind, row, p, reference, size):
    import levypide.solver
    from levypide.grids import GridField, make_grid
    from levypide.measures import make_merton

    n_core, dt = SIZES[size]["pair"]
    g = make_grid(4.0, n_core, reach=2.3)
    x = g.axis()
    problem = levypide.solver.CauchyProblem(
        g, sigma=p["sigma"], horizon=0.5, rate=p["r"],
        measure=make_merton(p["lam"], p["m"], p["s"]),
        initial=GridField(g, np.exp(-x ** 2 / p["width"])))
    name = "imex_bdf2" if kind == "pair_imex" else "mild_etd2"
    scheme = levypide.solver.SchemeConfig(scheme=name, dt=dt)

    def call():
        res = levypide.solver.solve_direct(problem, scheme)
        if not np.all(np.isfinite(res.field.values)):
            raise ValueError("non-finite field")
        return res.field.values

    def check(values, ctx):
        out = _drift(reference, _value_at_origin(g, values))
        other = ctx.get("pair_imex")
        if kind == "pair_etd2" and other is not None:
            # the two schemes solve the same problem to second order in dt
            gap = float(np.linalg.norm(values - other) / np.linalg.norm(values))
            out.append(Check("oracle", "imex_bdf2 vs mild_etd2", gap,
                             PAIR_GAP_TOL[size]))
        return out

    return Item(kind, row, call, check, lambda values: _value_at_origin(g, values))


def make_item(kind: str, row: int, params: dict, reference, size: str,
              workdir: Path) -> Item:
    if kind in ("bs", "merton", "kou") or kind in STRATEGY:
        return _cli_item(kind, row, params, reference, size, workdir)
    if kind == "exptail":
        return _exptail_item(row, params, reference, size)
    if kind == "feedback":
        return _feedback_item(row, params, reference, size)
    if kind == "sep2d":
        return _sep2d_item(row, params, reference, size)
    return _pair_item(kind, row, params, reference, size)


def schedule(workload: str, seed: int, rounds: int, table: dict) -> list:
    """Row index per round and kind, drawn from the seed; kinds sharing a
    table share the row."""
    rng = np.random.default_rng(seed)
    names = list(dict.fromkeys(table_of(k) for k in WORKLOADS[workload]))
    out = []
    for _ in range(rounds):
        pick = {t: int(rng.integers(len(table[t]["rows"]))) for t in names}
        out.append([pick[table_of(k)] for k in WORKLOADS[workload]])
    return out


def prepare(workload: str, seed: int, size: str, workdir: Path,
            rounds: int = 8, references: dict | None = None) -> list:
    """Generate and load the inputs of `rounds` rounds; returns item lists.

    This is the set-up a user pays before the first call: configs written
    and parsed, grids, measures and initial fields built.
    """
    table = load_references() if references is None else references
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for picks in schedule(workload, seed, rounds, table):
        items = []
        for kind, row in zip(WORKLOADS[workload], picks):
            entry = table[table_of(kind)]["rows"][row]
            items.append(make_item(kind, row, entry["params"],
                                   entry["value"][kind].get(size), size,
                                   workdir))
        out.append(items)
    return out
