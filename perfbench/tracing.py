"""Spans around kerrsim's public functions, installed from outside the package.

Each wrap point is the module attribute under which a caller looks the
function up (``kerrsim.pipeline.reconstruct`` is what ``_run_alpha`` calls,
``kerrsim.tomography.build_povm`` is what ``reconstruct`` calls when it builds
its own POVM).  The span name is the layer that defines the function.  Spans
live in memory until the benchmark writes them out at its end.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

import numpy as np

# (calling module, attribute, span name)
WRAP_POINTS = (
    ("kerrsim.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("kerrsim.pipeline", "klm_compare", "pipeline.klm_compare"),
    ("kerrsim.pipeline", "simulate_forward", "pipeline.simulate_forward"),
    ("kerrsim.pipeline", "apply_conditional", "gates.apply_conditional"),
    ("kerrsim.pipeline", "sample_quadratures", "homodyne.sample_quadratures"),
    ("kerrsim.pipeline", "save_samples", "homodyne.save_samples"),
    ("kerrsim.pipeline", "build_povm", "tomography.build_povm"),
    ("kerrsim.pipeline", "bin_samples", "tomography.bin_samples"),
    ("kerrsim.pipeline", "reconstruct", "tomography.reconstruct"),
    ("kerrsim.pipeline", "save_density_matrix", "tomography.save_density_matrix"),
    ("kerrsim.pipeline", "run_ns_gate", "klm.run_ns_gate"),
    ("kerrsim.pipeline", "solve_ns_transmittances", "klm.solve_ns_transmittances"),
    ("kerrsim.cli", "main", "cli.main"),
    ("kerrsim.cli", "simulate_forward", "pipeline.simulate_forward"),
    ("kerrsim.cli", "sample_quadratures", "homodyne.sample_quadratures"),
    ("kerrsim.cli", "save_samples", "homodyne.save_samples"),
    ("kerrsim.cli", "load_samples", "homodyne.load_samples"),
    ("kerrsim.cli", "bin_samples", "tomography.bin_samples"),
    ("kerrsim.cli", "reconstruct", "tomography.reconstruct"),
    ("kerrsim.cli", "save_density_matrix", "tomography.save_density_matrix"),
    ("kerrsim.tomography", "build_povm", "tomography.build_povm"),
    ("kerrsim.tomography", "loss_adjoint_on_operator", "channels.loss_adjoint_on_operator"),
    ("kerrsim.homodyne", "apply_loss", "channels.apply_loss"),
    ("kerrsim.klm", "solve_ns_transmittances", "klm.solve_ns_transmittances"),
)

# spans an op starts from the benchmark; their own time is reported as self_s
ENTRY_SPANS = ("pipeline.run_pipeline", "pipeline.klm_compare", "cli.main")

# counts taken at the boundary: span name -> (counter names, fn(args, result) -> values)
COUNTERS = {
    "tomography.reconstruct": (
        ("iterations", "converged_flags", "occupied_bins"),
        lambda args, out: (
            out[1].iterations, int(out[1].converged), int(np.count_nonzero(args[0].counts))
        ),
    ),
    "tomography.build_povm": (("bytes",), lambda args, out: (out.nbytes,)),
    "tomography.bin_samples": (("out_of_range",), lambda args, out: (out.out_of_range,)),
    "homodyne.sample_quadratures": (("samples",), lambda args, out: (len(out),)),
    "homodyne.save_samples": (("bytes",), lambda args, out: (os.path.getsize(str(args[1])),)),
    "homodyne.load_samples": (("bytes",), lambda args, out: (os.path.getsize(str(args[0])),)),
}

# amplitudes whose reconstruct iterations are reported one by one
ALPHAS = (0.23, 0.53, 0.79)


def _time_key(name: str) -> str:
    return f"{name}.self_s" if name in ENTRY_SPANS else f"{name}.s"


def metric_names() -> list[str]:
    """Every per-op figure a traced op yields, zero where a layer is not used."""
    names = []
    for name in dict.fromkeys(n for _, _, n in WRAP_POINTS):
        names += [_time_key(name), f"{name}.calls"]
        names += [f"{name}.{key}" for key in COUNTERS.get(name, ((),))[0]]
    names += [f"tomography.reconstruct.iterations.alpha_{a:g}" for a in ALPHAS]
    names += ["tomography.reconstruct.s_per_iter", "trace.coverage"]
    return names


def metric_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric."""
    suffix = name.rsplit(".", 1)[-1]
    if suffix in ("s", "self_s", "s_per_iter", "overhead_s"):
        return "s", "lower"
    if suffix == "bytes":
        return "bytes", "lower"
    if suffix == "coverage":
        return "1", "higher"
    if suffix == "converged_flags":
        return "count", "higher"
    return "count", "lower"


class Tracer:
    """Records spans [op, name, start, end, parent index, counts] while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        count = COUNTERS[name][1] if name in COUNTERS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [self.op, name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def op_metrics(self, op: int, wall_s: float, alphas) -> dict[str, float]:
        """Per-layer figures of one traced op.

        A span's self time is its duration minus that of its child spans.
        ``trace.coverage`` is the share of the op's wall time spent in spans
        below the entry points, i.e. attributed to a named layer.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[0] == op]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s[4] is not None:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        out = dict.fromkeys(metric_names(), 0.0)
        covered = 0.0
        iterations = []
        for i, (_, name, start, end, parent, counts) in spans:
            own = end - start - child_time.get(i, 0.0)
            out[_time_key(name)] += own
            out[f"{name}.calls"] += 1
            if counts is not None:
                for key, value in zip(COUNTERS[name][0], counts):
                    out[f"{name}.{key}"] += value
            if parent is None:
                covered += end - start - own
            if name == "tomography.reconstruct":
                iterations.append(counts[0])
        for alpha, count in zip(alphas, iterations):
            out[f"tomography.reconstruct.iterations.alpha_{alpha:g}"] = count
        total = out["tomography.reconstruct.iterations"]
        if total:
            out["tomography.reconstruct.s_per_iter"] = out["tomography.reconstruct.s"] / total
        out["trace.coverage"] = covered / wall_s
        return out

    def dump(self) -> list[dict]:
        return [
            {"op": op, "name": name, "start": start, "end": end, "parent": parent,
             "counts": None if counts is None else dict(zip(COUNTERS[name][0], counts))}
            for op, name, start, end, parent, counts in self.spans
        ]
