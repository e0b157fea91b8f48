"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 bench/baseline.py --seeds 1-10 --seeds 11-20 --out bench/baseline.json

Each `--seeds` range is one set: every workload of BENCHMARK.json runs once
per seed, workloads interleaved, untraced.  For every end-to-end metric the
summary gives each set's values, median, quartiles
(`statistics.quantiles(values, n=4)`) and interquartile range over the
median, and the shift of each later set's median from the first.  With
`--trace-seed` each workload also runs once traced and its per-layer
metrics are stored.  Any run that fails or exits non-zero stops the script.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    final = json.loads(proc.stdout.splitlines()[-1])
    env = json.loads(proc.stdout.splitlines()[0].split(" ", 2)[2])
    return {"final": final, "env": env}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def write(result: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", action="append", required=True,
                   help="seed range such as 1-10; repeat for more sets")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    sets = [seed_range(s) for s in args.seeds]
    values = {w: [{m: [] for m in metrics} for _ in sets] for w in names}
    env = None
    for i, seeds in enumerate(sets):
        for seed in seeds:
            for w in names:
                got = run_once(spec, w, seed, 0)
                env = env or got["env"]
                for m in metrics:
                    values[w][i][m].append(got["final"]["metrics"][m]["value"])
                print(f"set {i + 1} seed {seed} {w}: " + ", ".join(
                    f"{m}={values[w][i][m][-1]:.4g}" for m in metrics),
                    flush=True)
    result = {"env": env, "run_seconds": spec["run_seconds"],
              "sets": [f"{s[0]}-{s[-1]}" for s in sets], "workloads": {}}
    for w in names:
        per_set = [{m: summary(values[w][i][m]) for m in metrics}
                   for i in range(len(sets))]
        entry = {"sets": per_set}
        if len(sets) > 1:
            entry["median_shift"] = {
                m: [s[m]["median"] / per_set[0][m]["median"] - 1.0
                    for s in per_set[1:]] for m in metrics}
        result["workloads"][w] = entry
    write(result, args.out)
    if args.trace_seed is not None:
        for w in names:
            got = run_once(spec, w, args.trace_seed, 1)["final"]["metrics"]
            result["workloads"][w]["per_layer"] = {
                k: v["value"] for k, v in got.items()}
        write(result, args.out)
    for w in names:
        for m in metrics:
            spreads = [s[m]["iqr_over_median"] for s in result["workloads"][w]["sets"]]
            print(f"{w:18s} {m:13s} iqr/median " +
                  " ".join(f"{x:.3f}" for x in spreads) +
                  "".join(f" shift {x:+.3f}" for x in
                          result["workloads"][w].get("median_shift", {}).get(m, [])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
