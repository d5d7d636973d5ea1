"""Spans around the public entry points of each `pops` module, from outside.

`Tracer.installed()` replaces each traced function on every `pops` module
attribute that holds it (so both the benchmark's calls and the package's own
calls through module globals go through the wrapper), on the solver table
`run_pops` dispatches through, and on `SeparableChannel.to_pathlist`.  It puts
the originals back on exit, so untraced rounds run with no wrappers at all.
No file of the package changes.

Each span records its name, start, end and parent; spans stay in memory and
are written out when the run ends.  A layer's self time is its spans' duration
minus the part their child spans cover.  Counters (paths, bytes, iterations)
are taken from the arguments and results at the same boundaries; byte counts
are computed from array shapes, not measured.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict

# Per-layer metrics, in report order: (name, unit, better).
LAYER_METRICS = [
    ("channel.to_pathlist.calls", "count", "lower"),
    ("channel.to_pathlist.s", "s", "lower"),
    ("channel.paths_out", "count", "lower"),
    ("kernels.build_ks_kin.calls", "count", "lower"),
    ("kernels.build_ks_kin.s", "s", "lower"),
    ("kernels.build_ks.calls", "count", "lower"),
    ("kernels.build_ks.s", "s", "lower"),
    ("kernels.build_ki.calls", "count", "lower"),
    ("kernels.build_ki.s", "s", "lower"),
    ("kernels.matrix_bytes", "B_computed", "lower"),
    ("optimizer.run_pops.calls", "count", "lower"),
    ("optimizer.run_pops.s", "s", "lower"),
    ("optimizer.half_step.calls", "count", "lower"),
    ("optimizer.half_step.s", "s", "lower"),
    ("optimizer.iterations", "count", "lower"),
    ("optimizer.converged_runs", "count", "higher"),
    ("optimizer.warnings", "count", "lower"),
    ("sinr.sinr.calls", "count", "lower"),
    ("sinr.sinr.s", "s", "lower"),
    ("sinr.sinr_conventional.calls", "count", "lower"),
    ("sinr.sinr_conventional.s", "s", "lower"),
    ("analysis.sweep.calls", "count", "lower"),
    ("analysis.sweep.s", "s", "lower"),
    ("analysis.sweep_points", "count", "higher"),
    ("bound.build_kronecker_system.calls", "count", "lower"),
    ("bound.build_kronecker_system.s", "s", "lower"),
    ("bound.upper_bound.calls", "count", "lower"),
    ("bound.upper_bound.s", "s", "lower"),
    ("bound.dimension", "count", "lower"),
    ("bound.matrix_bytes", "B_computed", "lower"),
    ("bound.refused", "count", "lower"),
    ("montecarlo.estimate_sinr.calls", "count", "lower"),
    ("montecarlo.estimate_sinr.s", "s", "lower"),
    ("montecarlo.trials", "count", "higher"),
    ("montecarlo.paths", "count", "lower"),
    ("scenario.load_scenario.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.artifact_bytes", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(self, exc)
                    raise
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced entry points for the duration of the block."""
        # importlib, because the package re-exports `sinr` the function over `sinr` the module.
        (analysis, bound, channel, cli, kernels, montecarlo, optimizer, scenario, sinr_mod) = [
            importlib.import_module(f"pops.{name}") for name in (
                "analysis", "bound", "channel", "cli", "kernels", "montecarlo", "optimizer",
                "scenario", "sinr")]

        def kernel_bytes(tr, km, args, kwargs):
            tr.count("kernels.matrix_bytes", km.data.nbytes)

        def kin_bytes(tr, pair, args, kwargs):
            # The KS of the pair comes from the inner build_ks call and is counted there.
            kernel_bytes(tr, pair[1], args, kwargs)

        def run_pops_result(tr, res, args, kwargs):
            tr.count("optimizer.iterations", res.iterations_used)
            tr.count("optimizer.converged_runs", int(res.converged))
            tr.count("optimizer.warnings", len(res.warnings))

        def kronecker_result(tr, sys_, args, kwargs):
            tr.count("bound.dimension", sys_.dimension)
            tr.count("bound.matrix_bytes", sys_.a_matrix.nbytes + sys_.b_matrix.nbytes)

        def kronecker_error(tr, exc):
            if isinstance(exc, ValueError) and "max_dimension" in str(exc):
                tr.count("bound.refused")

        def mc_result(tr, est, args, kwargs):
            ch, mc = args[2], args[5]
            tr.count("montecarlo.trials", est.trials)
            tr.count("montecarlo.paths", ch.K * (mc.doppler_grid_size
                                                 if isinstance(ch, channel.SeparableChannel) else 1))

        functions = [
            (kernels.build_ks_kin, "kernels.build_ks_kin", kin_bytes, None),
            (kernels.build_ks, "kernels.build_ks", kernel_bytes, None),
            (kernels.build_ki, "kernels.build_ki", kernel_bytes, None),
            (optimizer.run_pops, "optimizer.run_pops", run_pops_result, None),
            (sinr_mod.sinr, "sinr.sinr", None, None),
            (sinr_mod.sinr_conventional, "sinr.sinr_conventional", None, None),
            (bound.build_kronecker_system, "bound.build_kronecker_system",
             kronecker_result, kronecker_error),
            (bound.upper_bound, "bound.upper_bound", None, None),
            (montecarlo.estimate_sinr, "montecarlo.estimate_sinr", mc_result, None),
            (scenario.load_scenario, "scenario.load_scenario", None, None),
            (cli.main, "cli.main", None, None),
        ]
        functions += [(fn, "optimizer.half_step", None, None)
                      for fn in list(optimizer._SOLVERS.values())]
        functions += [
            (getattr(analysis, name), "analysis.sweep",
             lambda tr, res, a, k: tr.count("analysis.sweep_points", len(res.axis_values)), None)
            for name in ("sweep_ft", "sweep_doppler_delay", "sweep_time_sync",
                         "sweep_freq_sync", "sweep_mismatch")
        ]
        modules = [m for n, m in sys.modules.items() if n == "pops" or n.startswith("pops.")]
        restore = []
        try:
            for fn, name, on_result, on_error in functions:
                wrapper = self.wrap(name, fn, on_result, on_error)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            restore.append((module, attr, fn))
                            setattr(module, attr, wrapper)
                for key, value in list(optimizer._SOLVERS.items()):
                    if value is fn:
                        restore.append((optimizer._SOLVERS, key, fn))
                        optimizer._SOLVERS[key] = wrapper
            original = channel.SeparableChannel.to_pathlist
            restore.append((channel.SeparableChannel, "to_pathlist", original))
            channel.SeparableChannel.to_pathlist = self.wrap(
                "channel.to_pathlist", original,
                lambda tr, paths, a, k: tr.count("channel.paths_out", paths.K))
            yield self
        finally:
            for target, key, value in reversed(restore):
                if isinstance(target, dict):
                    target[key] = value
                else:
                    setattr(target, key, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced round (without trace.overhead_s)."""
    self_s = tracer.self_times()
    calls = tracer.call_counts()
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        if name.endswith(".calls"):
            out[name] = float(calls.get(name[: -len(".calls")], 0))
        elif name.endswith(".s") and unit == "s":
            out[name] = float(self_s.get(name[: -len(".s")], 0.0))
        else:
            out[name] = float(tracer.counters.get(name, 0.0))
    return out
