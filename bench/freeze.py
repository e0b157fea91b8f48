"""Draw the parameter tables and freeze their reference values.

    python3 bench/freeze.py            # rewrites bench/references.json

Each table gets ROWS rows drawn from the ranges below with a fixed generator,
so rerunning this script at another commit draws the same rows and recomputes
their values there.  The committed file holds the values computed at the
commit that defined the benchmark; a run compares its outputs with them
(`ref_drift_max`).  The script also checks that every row of a table solves
on the same padded grid, which keeps the work of a round independent of the
rows the seed picks.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

ROWS = 8

CONTRACT = {"K": (90.0, 110.0), "r": (0.01, 0.05), "sigma": (0.15, 0.3),
            "type": ("call", "put")}
MERTON = {"lam": (0.3, 0.7), "m": (-0.15, -0.05), "s": 0.2}

# Merton jumps of the impacted tables: the jump mean is fixed, see below.
IMPACTED = {"lam": (0.3, 0.7), "m": -0.1, "s": 0.2}

# Ranges per table: (lo, hi) draws uniformly, a tuple of strings picks one,
# a bare number is fixed.  Tail-shaping parameters (Merton jump_std, the
# smaller Kou decay rate) stay fixed because they set the grid padding.  The
# impact strength rho and the Merton jump mean of the impacted tables stay
# fixed too: they set how many points the shift resolver hands to its
# bracketed-root fallback, so with them fixed every row of a table does the
# same resolver work.
RANGES = {
    "bs": {**CONTRACT, "T": 1.0},
    "merton": {**CONTRACT, "T": 1.0, "lam": (0.2, 0.8), "m": (-0.2, 0.05),
               "s": 0.2},
    "kou": {**CONTRACT, "T": 0.5, "lam": (0.2, 0.6), "p_up": (0.3, 0.7),
            "eta_up": (6.0, 12.0), "eta_down": 4.0},
    "impact_tanh": {**CONTRACT, "T": 1.0, **IMPACTED, "rho": 0.04,
                    "amplitude": 0.3},
    "impact_sin": {**CONTRACT, "T": 1.0, **IMPACTED, "rho": 0.04,
                   "amplitude": 0.3},
    "impact_linear": {**CONTRACT, "T": 1.0, **IMPACTED, "rho": 0.04,
                      "amplitude": 0.1},
    "feedback": {"sigma": (0.2, 0.3), "r": (0.01, 0.05), **IMPACTED,
                 "rho": 0.045, "amplitude": 0.3},
    "sep2d": {"lam_x": (0.2, 0.4), "m_x": (0.0, 0.15), "lam_y": (0.3, 0.5),
              "m_y": (-0.25, -0.1), "sigma": (0.25, 0.35), "a": (1.0, 1.6),
              "b": (0.6, 1.0)},
    "pair": {"sigma": (0.15, 0.25), "r": (0.01, 0.05), **MERTON,
             "width": (0.4, 0.6)},
    "exptail": {**CONTRACT, "T": 1.0, "c0": 1.0, "alpha": 0.5, "decay": 3.0},
}


def draw_rows(table: str, rows: int = ROWS) -> list:
    rng = np.random.default_rng(sorted(RANGES).index(table) + 20261017)
    out = []
    for _ in range(rows):
        p = {}
        for key, spec in RANGES[table].items():
            if isinstance(spec, tuple) and isinstance(spec[0], str):
                p[key] = spec[int(rng.integers(len(spec)))]
            elif isinstance(spec, tuple):
                p[key] = round(float(rng.uniform(*spec)), 4)
            else:
                p[key] = spec
        out.append(p)
    return out


def grid_points(kind: str, p: dict, size: str, workdir: Path) -> int:
    """Padded grid length the entry point will solve on for this row."""
    from levypide.config import load_config
    from levypide.grids import make_grid
    from levypide.measures import make_exponential_tail
    from levypide.pricing import estimate_reach

    n_core = workloads.SIZES[size][
        "impact" if kind in workloads.STRATEGY else workloads.table_of(kind)][0]
    if kind == "exptail":
        m = make_exponential_tail(p["c0"], p["alpha"], p["decay"])
        return make_grid(6.0, n_core, reach=estimate_reach(m, None, 6.0)).n_total
    if kind in ("bs", "merton", "kou") or kind in workloads.STRATEGY:
        cfg_path = workdir / "grid.cfg"
        cfg_path.write_text(workloads.config_text(kind, p, size))
        cfg = load_config(str(cfg_path))
        reach = estimate_reach(cfg.measure, cfg.shift, cfg.half_width)
        return make_grid(cfg.half_width, cfg.n_core, reach=reach).n_total
    return 0  # direct kinds pass their grids explicitly


def main() -> int:
    workdir = BENCH_DIR.parent / ".bench_out" / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    kinds = {}
    for workload, names in workloads.WORKLOADS.items():
        for kind in names:
            kinds.setdefault(workloads.table_of(kind), []).append(kind)
    result = {}
    for table, names in kinds.items():
        rows = draw_rows(table)
        entries = [{"params": p, "value": {k: {} for k in names}} for p in rows]
        for size in ("tiny", "full"):
            ctx = [{} for _ in rows]
            for kind in names:
                points = {grid_points(kind, p, size, workdir) for p in rows}
                if len(points) != 1:
                    raise SystemExit(f"{kind}/{size}: rows solve on grids {points}")
                for i, (p, entry) in enumerate(zip(rows, entries)):
                    item = workloads.make_item(kind, i, p, None, size, workdir)
                    t0 = time.perf_counter()
                    output = item.call()
                    took = time.perf_counter() - t0
                    value = item.value(output)
                    entry["value"][kind][size] = value
                    checks = item.check(output, ctx[i])
                    ctx[i][kind] = output
                    print(f"{kind:14s} {size:4s} row {i} grid {points} "
                          f"value {value!r:22s} {took:6.2f} s "
                          + " ".join(f"{c.what}={c.err:.2e}/{c.tol:.0e}"
                                     f"{'' if c.ok else ' MISS'}"
                                     for c in checks), flush=True)
        result[table] = {"ranges": {k: list(v) if isinstance(v, tuple) else v
                                    for k, v in RANGES[table].items()},
                         "rows": entries}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
