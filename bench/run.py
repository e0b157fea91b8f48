"""levypide benchmark: run one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload frictionless_book --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
`--trace 0` times the workload's entry-point calls and reports the
end-to-end metrics.  `--trace 1` runs the same rounds under the span
wrappers of `tracing.py` and reports the per-layer metrics.  Every output is checked against its oracle or frozen reference;
the human-readable lines come first and the last line of standard output is
one JSON object.  The exit status is 0 exactly when every call succeeded and
passed its checks.  See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5

END_TO_END = {"solves_per_s": "1/s", "solve_s_p50": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
LAYER_SHARES = (
    "blackscholes.u", "jump_operator.apply_f_tilde_fn",
    "grids.cubic_interp_periodic", "jump_operator.apply_f",
    "jump_operator.delta_on_plan_nodes", "shift.xi_on_grid",
    "jump_operator.build_plan", "quadrature.adaptive_quad", "numpy.fft",
    "solver", "bessel.FractionalNorm", "pricing.estimate_reach",
    "pricing.report_price", "pricing.merton_series_oracle",
    "config.load_config", "cli.main")
LAYER_CALLS = (
    "blackscholes.u", "jump_operator.apply_f_tilde_fn",
    "grids.cubic_interp_periodic", "jump_operator.apply_f",
    "jump_operator.delta_on_plan_nodes", "shift.xi_on_grid", "shift.brentq",
    "jump_operator.build_plan", "quadrature.adaptive_quad", "numpy.fft",
    "bessel.FractionalNorm")

SETUP_CODE = """\
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import levypide, workloads
workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5], Path(sys.argv[6]))
"""


def per_layer_units() -> dict:
    units = {f"{layer}.calls": "count/round" for layer in LAYER_CALLS}
    units.update({"blackscholes.u.points": "points/round",
                  "numpy.fft.points": "points/round",
                  "solver.solves": "count/round", "solver.levels": "count/round",
                  "jump_operator.plan_nodes": "nodes",
                  "solver.grid_points": "points"})
    units.update({f"{layer}.self_share": "ratio" for layer in LAYER_SHARES})
    units.update({"trace.overhead_frac": "ratio",
                  "trace.unattributed_frac": "ratio",
                  "pricing.rel_err_max": "ratio",
                  "pricing.ref_drift_max": "ratio"})
    return units


@dataclass
class Tally:
    """What a sequence of rounds did: per-call times, checks, failures."""

    times: dict = field(default_factory=dict)  # kind -> call times
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall: float = 0.0

    def run(self, plan: list, seconds: float, between=None) -> "Tally":
        """Run whole rounds for about `seconds` (at least one round).

        The run stops after the round that brings it closest to `seconds`.
        `between(fraction_done)` is called between rounds; its time is not
        counted in the run's wall time.
        """
        elapsed = 0.0
        for r in itertools.count():
            t_round = time.perf_counter()
            ctx = {}
            for item in plan[r % len(plan)]:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = item.call()
                    took = time.perf_counter() - t0
                    checks = item.check(out, ctx)
                except Exception as exc:  # every failure is counted, none stops the run
                    self.failed += 1
                    print(f"FAILED {item.kind} row {item.row}: {exc!r}",
                          file=sys.stderr)
                    continue
                ctx[item.kind] = out
                self.times.setdefault(item.kind, []).append(took)
                self.checks.extend(checks)
                for c in checks:
                    if not c.ok:
                        print(f"CHECK MISS {item.kind} row {item.row}: {c.what} "
                              f"rel {c.err:.3e} > {c.tol:.1e}", file=sys.stderr)
                if not all(c.ok for c in checks):
                    self.failed += 1
            elapsed += time.perf_counter() - t_round
            self.rounds += 1
            if elapsed * (1.0 + 0.5 / (r + 1)) >= seconds:
                break
            if between is not None:
                between(elapsed / seconds)
        self.wall += elapsed
        return self

    @property
    def solves(self) -> int:
        return sum(len(t) for t in self.times.values())

    def worst(self, kind: str) -> float:
        """Largest relative error of this kind of check; 0 when none ran."""
        return max((c.err for c in self.checks if c.kind == kind), default=0.0)


def git_sha(root: Path) -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


class SetupSampler:
    """Wall time of fresh processes that import levypide and generate and
    load the workload's inputs.  One sample is taken before the timed
    rounds, up to SETUP_SAMPLES - 2 at the first round ends past evenly
    spaced points of the run, and the rest after it, so that the samples
    see the machine in the same states as the timed calls."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path):
        self.cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR),
                    workload, str(seed), size, str(workdir)]
        self.samples = []
        self.marks = [k / (SETUP_SAMPLES - 1) for k in range(1, SETUP_SAMPLES - 1)]

    def sample(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True,
                              timeout=120)
        self.samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")

    def between(self, done: float) -> None:
        while self.marks and done >= self.marks[0]:
            self.marks.pop(0)
            self.sample()

    def finish(self) -> list:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return self.samples


def end_to_end(tally: Tally, setup: list) -> dict:
    return {
        "solves_per_s": tally.solves / tally.wall,
        "solve_s_p50": statistics.fmean(statistics.median(t)
                                        for t in tally.times.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Tally, span_cost: float) -> dict:
    rounds = traced.rounds
    m = {f"{layer}.calls": tracer.calls[layer] / rounds for layer in LAYER_CALLS}
    m["blackscholes.u.points"] = tracer.counts["blackscholes.u.points"] / rounds
    m["numpy.fft.points"] = tracer.counts["numpy.fft.points"] / rounds
    m["solver.solves"] = tracer.calls["solver"] / rounds
    m["solver.levels"] = tracer.counts["solver.levels"] / rounds
    m["jump_operator.plan_nodes"] = tracer.maxima.get("jump_operator.plan_nodes", 0)
    m["solver.grid_points"] = tracer.maxima.get("solver.grid_points", 0)
    for layer in LAYER_SHARES:
        m[f"{layer}.self_share"] = tracer.self_time[layer] / traced.wall
    m["trace.overhead_frac"] = tracer.spans * span_cost / traced.wall
    m["trace.unattributed_frac"] = 1.0 - tracer.top_level_s / traced.wall
    m["pricing.rel_err_max"] = traced.worst("oracle")
    m["pricing.ref_drift_max"] = traced.worst("reference")
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload at toy resolution (tests)")
    return p.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", references: dict | None = None) -> dict:
    """Set up, run and check one workload; returns the result record."""
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment()
    tag = f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    workdir = OUT / tag
    plan = workloads.prepare(workload, seed, size, workdir,
                             references=references)
    if not trace:
        sampler = SetupSampler(workload, seed, size, workdir)
        sampler.sample()
        tally = Tally().run(plan, seconds, sampler.between)
        setup = sampler.finish()
        metrics = end_to_end(tally, setup)
    else:
        import tracing

        setup = []
        tracer = tracing.Tracer()
        with tracer.installed():
            tally = Tally().run(plan, seconds)
        tracer.write_spans(OUT / f"spans-{tag}.csv")
        metrics = per_layer(tracer, tally, tracing.span_cost())
    return {"workload": workload, "seed": seed, "size": size,
            "trace": int(trace), "tag": tag, "env": env,
            "setup_s_samples": setup, "tally": tally, "metrics": metrics}


def report(record: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    tally, m = record["tally"], record["metrics"]
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# workload {record['workload']} size {record['size']} seed "
          f"{record['seed']} trace {record['trace']}: {tally.rounds} rounds, "
          f"{tally.solves} solves in {tally.wall:.3f} s")
    n_oracle = sum(c.kind == "oracle" for c in tally.checks)
    n_ref = sum(c.kind == "reference" for c in tally.checks)
    accuracy = {
        "rel_err_max": (tally.worst("oracle"), "ratio", f"n={n_oracle} oracle checks"),
        "ref_drift_max": (tally.worst("reference"), "ratio",
                          f"n={n_ref} frozen references"),
        "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio",
                        f"{tally.failed}/{tally.attempted} calls"),
    }
    units = per_layer_units() if record["trace"] else END_TO_END
    if record["trace"]:
        for name in sorted(m):
            print(f"{name:40s} {m[name]:.6g} {units[name]}")
    else:
        per_kind = ", ".join(f"{k} n={len(t)}" for k, t in tally.times.items())
        notes = {"solves_per_s": f"{tally.solves} solves in {tally.wall:.3f} s",
                 "solve_s_p50": f"mean of per-kind medians: {per_kind}",
                 "setup_s": f"median of {len(record['setup_s_samples'])} fresh processes",
                 "peak_rss_mb": "ru_maxrss of the run process"}
        for name, unit in END_TO_END.items():
            print(f"{name:16s} {m[name]:.6g} {unit:5s} ({notes[name]})")
    for name, (value, unit, note) in accuracy.items():
        print(f"{name:16s} {value:.3g} {unit:5s} ({note})")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in m.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "levypide" / "__init__.py").is_file():
        print(f"levypide sources not found under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size)
    final = report(record)
    saved = {k: v for k, v in record.items() if k != "tally"}
    saved["call_s"] = record["tally"].times
    saved.update(final)
    with open(OUT / f"result-{record['tag']}.json", "w") as fh:
        json.dump(saved, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
