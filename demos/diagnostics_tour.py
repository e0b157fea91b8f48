"""Tour of the built-in diagnostics: smoothing kernels, operator symbol,
and early-time source decay."""
import math

import numpy as np

from levypide.bessel import (BesselKernel, kernel_eval,
                             modulus_of_continuity_probe)
from levypide.grids import make_grid
from levypide.jump_operator import build_plan, plan_symbol_table
from levypide.measures import make_merton
from levypide.solver import CauchyProblem, singular_source_decay_probe

MERTON = make_merton(0.5, -0.1, 0.2)


def kernels() -> None:
    print("smoothing kernels")
    for order, dim in ((0.5, 1), (1.0, 2), (1.6, 1), (2.0, 2)):
        mass = BesselKernel(order, dim).mass()
        print(f"  order {order} dim {dim}: mass - 1 = {mass - 1.0:+.2e}")
    # order 2 on the line is the two-sided exponential, a handy exact check
    x = 1.0
    print(f"  order 2 line kernel at x=1: {kernel_eval(2.0, 1, x):.6f}"
          f"  vs (1/2)e^-1 = {0.5 * math.exp(-1.0):.6f}")
    rep = modulus_of_continuity_probe(0.5, 1, np.geomspace(1e-3, 1e-1, 7))
    print(f"  L1 modulus spread at order 0.5: {rep.spread:.2f}"
          f"  (bounded means the kernel smooths Holder-0.5 data)")


def operator_symbol() -> None:
    print("jump operator symbol")
    grid = make_grid(6.0, 1024, reach=MERTON.jump_radius)
    plan = build_plan(grid, MERTON)
    for k, node_sym, ref_sym, gap in plan_symbol_table(plan, (1.0, 2.0, 4.0)):
        print(f"  k={k}: plan {node_sym:.6f}  reference {ref_sym:.6f}"
              f"  rel gap {gap:.1e}")


def source_decay() -> None:
    print("early-time compensated-source decay")
    grid = make_grid(3.0, 4096, reach=2.3)
    problem = CauchyProblem(grid, sigma=0.2, horizon=1.0, rate=0.05,
                            measure=MERTON, strike=100.0)
    for gamma in (0.5, 0.75):
        rep = singular_source_decay_probe(problem, gamma)
        print(f"  gamma={gamma}: slope {rep.slope:+.3f}"
              f"  bound {rep.bound:+.3f}  passed={rep.passed}")


if __name__ == "__main__":
    kernels()
    operator_symbol()
    source_decay()
