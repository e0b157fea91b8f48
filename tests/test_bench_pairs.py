"""The summary arithmetic of tools/bench_pairs.py on fixed run records."""
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(**values):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


def test_summary_counts_wins_in_the_better_direction(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [2.0, 2.0, 5.0, 1.0]
    rss_parent = [10.0, 10.0, 10.0, 10.0]
    rss_change = [9.0, 10.0, 11.0, 9.0]
    pairs = [{"parent": _record(rate=p, rss=rp),
              "change": _record(rate=c, rss=rc)}
             for p, c, rp, rc in zip(parent, change, rss_parent, rss_change)]
    got = bench_pairs.summarize(pairs, {"rate": "higher", "rss": "lower"})
    # quartiles as statistics.quantiles(n=4) places them: (n + 1) p
    assert got["rate"] == {"parent": {"values": parent, "median": 2.5,
                                      "q1": 1.25, "q3": 3.75,
                                      "iqr_over_median": 1.0},
                           "change_median": 2.0, "change_wins": 2, "pairs": 4}
    # the tied pairs count for neither side
    assert got["rss"]["change_wins"] == 2
    assert got["rss"]["parent"]["median"] == got["rss"]["parent"]["q1"] == 10.0


@pytest.mark.parametrize("stdout", [
    "", "no json here\n", '{"metrics": {}}\n',
    '{"attempted": 3, "failed": 0, "metrics": {"x": {"unit": "s"}}}\n',
    '# a line\n{"attempted": 3, "failed": 0, "metrics": {}}\ntrailing\n',
])
def test_a_malformed_last_line_is_no_record(bench_pairs, stdout):
    assert bench_pairs.parse_record(stdout) is None


def test_the_last_line_is_the_record(bench_pairs):
    record = _record(rate=1.5)
    stdout = "# env {}\nrate 1.5\n" + json.dumps(record) + "\n"
    assert bench_pairs.parse_record(stdout) == record


def test_a_run_reports_its_wall_and_child_cpu_seconds(bench_pairs):
    # a sleeping child uses almost no CPU; a busy one uses about its wall
    # time (one thread), never more than the machine's cores allow
    sleep = [sys.executable, "-c", "import time; time.sleep(0.3)"]
    proc, wall, cpu = bench_pairs.timed_run(sleep)
    assert proc.returncode == 0
    assert wall >= 0.3
    assert 0.0 <= cpu < 0.5 * wall
    busy = [sys.executable, "-c",
            "import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.3: pass"]
    proc, wall, cpu = bench_pairs.timed_run(busy, capture_output=True)
    assert proc.returncode == 0
    assert 0.3 <= cpu <= wall * (os.cpu_count() or 1) + 0.05
