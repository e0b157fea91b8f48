"""Compare two checkouts on one benchmark workload in ten alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed0 N]

Pair i runs each tree's BENCHMARK.json `command` with `--workload W --seed
N+i --seconds <its run_seconds> --trace 0` once in each tree, PARENT first
in even pairs and CHANGE first in odd ones, and reads the JSON object on
the last line of each run's standard output.  For every end-to-end metric
of CHANGE's BENCHMARK.json it prints the parent's median and quartiles (the
summary of bench/baseline.py), the change's median, and the pairs the
change won in the metric's `better` direction (a tie counts for neither
side), then each side's attempted and failed calls.  Each pair's line
also gives each run's wall seconds and the CPU seconds its process tree
used (user plus system), so a run starved by other load on the machine
shows in its own pair as CPU well below wall; it is a diagnostic, not a
gate.  The exit status is 1 when any run failed or its last line is no
such object.  The runs write bytecode nowhere, so each tree gains files
only in its git-ignored .bench_out/.
"""
import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
_spec = importlib.util.spec_from_file_location(
    "baseline", Path(__file__).resolve().parents[1] / "bench" / "baseline.py")
baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(baseline)


def parse_record(stdout: str) -> dict | None:
    """The final JSON object of a run, or None when the last line is not
    one with a metrics table and call counts."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            int(record[key])
        for metric in record["metrics"].values():
            float(metric["value"])
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return record


def summarize(pairs: list, better: dict) -> dict:
    """Per metric of better (name -> "higher" or "lower"): the parent's
    baseline.summary, the change's median and the pairs the change won;
    pairs holds one {"parent": record, "change": record} per pair."""
    out = {}
    for name, direction in better.items():
        parent, change = ([float(p[side]["metrics"][name]["value"])
                           for p in pairs] for side in SIDES)
        sign = 1.0 if direction == "higher" else -1.0
        out[name] = {
            "parent": baseline.summary(parent),
            "change_median": statistics.median(change),
            "change_wins": sum(sign * (c - p) > 0
                               for p, c in zip(parent, change)),
            "pairs": len(pairs)}
    return out


def timed_run(command: list, **kwargs):
    """subprocess.run(command, **kwargs) with its wall seconds and the CPU
    seconds (user plus system) of the children it waited for, from the
    RUSAGE_CHILDREN difference around it: (completed process, wall, cpu)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(command, **kwargs)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime
                                                - before.ru_stime)
    return proc, wall, cpu


def run_once(tree: Path, workload: str, seed: int):
    """One timed run in tree, as its BENCHMARK.json sets it: (record or
    None, exit status, wall seconds, child CPU seconds)."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc, wall, cpu = timed_run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    return parse_record(proc.stdout), proc.returncode, wall, cpu


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    pairs, ok = [], True
    for i in range(PAIRS):
        seed = args.seed0 + i
        pair, times = {}, {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            record, status, wall, cpu = run_once(trees[side], args.workload,
                                                 seed)
            if record is None or status != 0 or record["failed"]:
                ok = False
                print(f"pair {i} seed {seed} {side}: exit {status}, " + (
                    "malformed last line" if record is None
                    else f"{record['failed']} failed calls"))
            pair[side] = record
            times[side] = f"{side} wall {wall:.1f} s cpu {cpu:.1f} s"
        if all(pair.values()):
            pairs.append(pair)
            print(f"pair {i} seed {seed}: " + ", ".join(
                f"{name} {pair['parent']['metrics'][name]['value']:.6g} -> "
                f"{pair['change']['metrics'][name]['value']:.6g}"
                for name in better) + "; " + ", ".join(
                    times[side] for side in SIDES), flush=True)
    if len(pairs) >= 2:
        for name, s in summarize(pairs, better).items():
            q = s["parent"]
            print(f"{name:14s} parent {q['median']:.6g} "
                  f"[{q['q1']:.6g}, {q['q3']:.6g}] -> change "
                  f"{s['change_median']:.6g} ({better[name]} is better; "
                  f"change won {s['change_wins']} of {s['pairs']})")
    for side in SIDES:
        done = [pair[side] for pair in pairs]
        print(f"{side}: {sum(r['attempted'] for r in done)} calls attempted, "
              f"{sum(r['failed'] for r in done)} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
