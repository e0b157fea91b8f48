"""Per-layer spans recorded from outside the program.

`Tracer.installed()` rebinds the module-level names that levypide's callers
look up (for example `levypide.solver.apply_f_tilde_fn`, the class attribute
`BlackScholesClosedForm.u`, the `numpy.fft` entry points) to timing wrappers,
and restores the originals on exit.  Each wrapper call records one span
(layer, start, end, parent) in memory.  A layer's self time is its span's
duration minus the time of the spans opened inside it, so the self times of
all layers add up to the time spent under top-level spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _points_of_x(tracer, layer, args, kwargs, result):
    # BlackScholesClosedForm.u(self, tau, x)
    tracer.counts[layer + ".points"] += int(np.size(args[2]))


def _points_of_input(tracer, layer, args, kwargs, result):
    tracer.counts[layer + ".points"] += int(np.size(args[0]))


def _levels(tracer, layer, args, kwargs, result):
    # solve_shifted / solve_direct(problem, scheme)
    tracer.counts["solver.levels"] += int(result.taus.size - 1)
    grid = args[0].grid
    tracer.maxima["solver.grid_points"] = max(
        tracer.maxima.get("solver.grid_points", 0), grid.n_total ** grid.dim)


def _plan_nodes(tracer, layer, args, kwargs, result):
    nodes = 0 if result.z_nodes is None else int(result.z_nodes.size)
    tracer.maxima["jump_operator.plan_nodes"] = max(
        tracer.maxima.get("jump_operator.plan_nodes", 0), nodes)


_FFT = ("rfft", "irfft", "rfft2", "irfft2", "fft", "ifft")

# layer name -> (names rebound to its wrapper, optional recorder of the
# call's size).  A function imported by name into several modules is rebound
# in each of them.
LAYERS = {
    "blackscholes.u": (
        [("levypide.blackscholes", "BlackScholesClosedForm.u")], _points_of_x),
    "jump_operator.apply_f_tilde_fn": (
        [("levypide.solver", "apply_f_tilde_fn")], None),
    "grids.cubic_interp_periodic": (
        [("levypide.jump_operator", "cubic_interp_periodic"),
         ("levypide.grids", "cubic_interp_periodic")], None),
    "jump_operator.apply_f": ([("levypide.solver", "apply_f")], None),
    "jump_operator.delta_on_plan_nodes": (
        [("levypide.solver", "delta_on_plan_nodes")], None),
    "shift.xi_on_grid": (
        [("levypide.jump_operator", "xi_on_grid"),
         ("levypide.shift", "xi_on_grid")], None),
    "shift.brentq": ([("levypide.shift", "brentq")], None),
    "jump_operator.build_plan": (
        [("levypide.solver", "build_plan")], _plan_nodes),
    "quadrature.adaptive_quad": (
        [("levypide.quadrature", "adaptive_quad"),
         ("levypide.measures", "adaptive_quad"),
         ("levypide.jump_operator", "adaptive_quad"),
         ("levypide.shift", "adaptive_quad")], None),
    "numpy.fft": ([("numpy.fft", name) for name in _FFT], _points_of_input),
    "solver": (
        [("levypide.solver", "solve_shifted"), ("levypide.solver", "solve_direct"),
         ("levypide.pricing", "solve_shifted"), ("levypide.cli", "solve_shifted")],
        _levels),
    "bessel.FractionalNorm": (
        [("levypide.bessel", "FractionalNorm.__init__"),
         ("levypide.bessel", "FractionalNorm.__call__")], None),
    "pricing.estimate_reach": (
        [("levypide.pricing", "estimate_reach"),
         ("levypide.cli", "estimate_reach")], None),
    "pricing.report_price": (
        [("levypide.pricing", "report_price"),
         ("levypide.cli", "report_price")], None),
    "pricing.merton_series_oracle": (
        [("levypide.pricing", "merton_series_oracle"),
         ("levypide.cli", "merton_series_oracle")], None),
    "config.load_config": (
        [("levypide.config", "load_config"), ("levypide.cli", "load_config")],
        None),
    "cli.main": ([("levypide.cli", "main")], None),
}


class Tracer:
    """In-memory span store with running self-time totals per layer."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.top_level_s = 0.0

    def _open(self, layer_id: int) -> int:
        idx = len(self.span_layer)
        self.span_layer.append(layer_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        layer = self.layers[self.span_layer[idx]]
        self.self_time[layer] += dur - self._child.pop()
        self.calls[layer] += 1
        if self._child:
            self._child[-1] += dur
        else:
            self.top_level_s += dur

    def wrap(self, layer: str, fn, record=None):
        layer_id = self._layer_id.setdefault(layer, len(self.layers))
        if layer_id == len(self.layers):
            self.layers.append(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if record is not None:
                record(self, layer, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every name in LAYERS to its wrapper for the block."""
        saved = []
        try:
            for layer, (targets, record) in LAYERS.items():
                for module_name, attr in targets:
                    owner = importlib.import_module(module_name)
                    *path, name = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, name)
                    saved.append((owner, name, original))
                    setattr(owner, name, self.wrap(layer, original, record))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    @property
    def spans(self) -> int:
        return len(self.span_layer)

    def write_spans(self, path) -> None:
        """One CSV row per span; times in seconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,layer,start_s,end_s\n")
            for i in range(len(self.span_layer)):
                fh.write(f"{i},{self.span_parent[i]},"
                         f"{self.layers[self.span_layer[i]]},"
                         f"{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f}\n")


def span_cost(calls: int = 100_000, repeats: int = 3) -> float:
    """Seconds one wrapper adds to a call, timed on a no-op function.

    Run-to-run noise on a shared machine (about 15% on one round) hides a
    cost of a few percent when a traced round is compared with an untraced
    one, so the overhead is taken as this cost times the spans recorded.
    """
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - t0 - bare) / calls)
    return sorted(costs)[len(costs) // 2]
