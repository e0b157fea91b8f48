"""Each demo script runs as a program and prints its key lines.

The scripts write no files; their stdout is captured and read back.
"""
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run(name, capsys):
    capsys.readouterr()
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def _numbers(pattern, text):
    return [float(v) for v in re.findall(pattern, text)]


def test_diagnostics_tour(capsys):
    out = _run("diagnostics_tour.py", capsys)
    masses = _numbers(r"mass - 1 = ([-+.\de]+)", out)
    assert len(masses) == 4 and all(abs(m) < 1e-12 for m in masses)
    assert "at x=1: 0.183940  vs (1/2)e^-1 = 0.183940" in out
    assert float(re.search(r"spread at order 0.5: ([.\d]+)", out)[1]) < 10.0
    gaps = _numbers(r"rel gap ([-+.\de]+)", out)
    assert len(gaps) == 3 and max(gaps) < 1e-6
    # the early-time source decay probe at gamma = 0.5 and 0.75
    assert out.count("passed=True") == 2


def test_feedback_sweep(capsys):
    out = _run("feedback_sweep.py", capsys)
    assert "(frictionless)" in out
    moves = _numbers(r"move ([-+.\d]+)", out)
    # the price rises with rho, about linearly
    assert len(moves) == 3 and 0.0 < moves[0] < moves[1] < moves[2]
    gaps = _numbers(r"first order\| = ([.\de+-]+)", out)
    # halving rho shrinks the first-order gap about fourfold
    assert len(gaps) == 2 and 3.0 < gaps[0] / gaps[1] < 5.0


def test_price_merton(capsys):
    out = _run("price_merton.py", capsys)
    assert "series oracle     : 12.1642031956" in out
    errors = _numbers(r"rel err ([.\de+-]+)", out)
    assert len(errors) == 3 and errors[0] > errors[1] > errors[2]
    orders = _numbers(r"order ([.\d]+)", out)
    assert len(orders) == 2 and all(o == pytest.approx(2.0, abs=0.3)
                                    for o in orders)
