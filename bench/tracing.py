"""Per-layer tracing of mdelab from outside the program.

``Tracer.install`` wraps each layer's public functions in every mdelab
module namespace that binds them (the package imports with
``from .x import y``, so one function can be bound in several modules)
and wraps the working methods of the layer's classes. ``uninstall``
puts the originals back. Nothing in ``src/`` is edited.

Every wrapped call is timed on a stack, so a layer's self time is the
time of its calls minus the time of the wrapped calls made inside them.
Calls of the hot per-atom helpers (``as_vector``, ``KernelSpec.phi``,
``VelocityField.__call__``, ...) are timed and counted but are not kept
as spans; every other call is kept as a span (id, parent id, name,
start, end) in memory and written out by ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("measure", "pvf", "kernels", "las", "transport", "fiber_metric",
          "analysis", "particles", "selfcheck", "cli")

# helpers called per atom or per table cell: timed and counted, no span
LEAF_FUNCTIONS = {"as_vector", "neumaier_prefix", "f17"}
LEAF_METHODS = {
    "measure": {"DiscreteMeasure": ("atoms", "mass_at", "mean"),
                "LiftedMeasure": ("atoms", "max_speed"),
                "LatticeMeasure": ("to_measure", "support_radius")},
    "pvf": {"VelocityField": ("__call__", "default_c")},
    "kernels": {"KernelSpec": ("phi", "bound_on", "lipschitz_on",
                               "sublinear_default")},
}

SELF_TIME_METRICS = (
    "measure.self_s", "pvf.self_s", "kernels.self_s", "las.self_s",
    "transport.self_s_1d", "transport.self_s_nd", "fiber_metric.self_s",
    "analysis.self_s", "particles.self_s", "selfcheck.self_s", "cli.self_s")
COUNT_METRICS = (
    "measure.build_calls", "measure.atoms_in", "measure.atoms_out",
    "measure.as_vector_calls", "pvf.evaluate_calls", "pvf.lifted_atoms",
    "pvf.sublinear_calls", "kernels.phi_calls", "las.steps",
    "las.atom_steps", "las.interpolate_calls", "transport.calls_nd",
    "transport.nd_atom_pairs", "transport.calls_1d", "transport.plan_entries",
    "fiber_metric.lp_calls", "fiber_metric.coupling_vars", "analysis.calls",
    "particles.rk4_steps", "cli.runs")

# measure builders that merge atoms, with the position of their atom list
BUILDERS = {"make_measure": 0, "make_lifted": 0, "make_lattice_measure": 2,
            "push_forward": None, "base_marginal": None}


def _wasserstein_path(args, kwargs) -> str:
    mu = args[0] if args else kwargs["mu"]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    one_d = mu.dim == 1 and method != "simplex"
    return "transport.self_s_1d" if one_d else "transport.self_s_nd"


class Tracer:
    """Wrap mdelab's layers, time them per round, keep the spans."""

    def __init__(self):
        self.stack: list[list] = [[0.0, 0]]  # frames: [child time, span id]
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.next_id = 0
        self._patches: list[tuple] = []

    # -- counting hooks, called with (args, kwargs, result) --------------

    def _hook(self, layer: str, name: str):
        counts = self.counts
        if layer == "measure" and name in BUILDERS:
            at = BUILDERS[name]

            def builder(args, kwargs, result):
                counts["measure.build_calls"] += 1
                counts["measure.atoms_in"] += (
                    len(args[at]) if at is not None else args[0].atom_count)
                counts["measure.atoms_out"] += result.atom_count
            return builder
        simple = {("measure", "as_vector"): "measure.as_vector_calls",
                  ("pvf", "sublinear_constant"): "pvf.sublinear_calls",
                  ("kernels", "phi"): "kernels.phi_calls",
                  ("las", "interpolate"): "las.interpolate_calls",
                  ("cli", "run"): "cli.runs"}
        if (layer, name) in simple:
            key = simple[layer, name]

            def count(args, kwargs, result):
                counts[key] += 1
            return count
        if layer == "analysis":
            def analysis_call(args, kwargs, result):
                counts["analysis.calls"] += 1
            return analysis_call
        if (layer, name) == ("pvf", "evaluate"):
            def evaluate(args, kwargs, result):
                counts["pvf.evaluate_calls"] += 1
                counts["pvf.lifted_atoms"] += result.atom_count
            return evaluate
        if (layer, name) == ("las", "las_step"):
            def step(args, kwargs, result):
                counts["las.steps"] += 1
                counts["las.atom_steps"] += args[0].atom_count
            return step
        if (layer, name) == ("transport", "wasserstein"):
            def wasserstein(args, kwargs, result):
                if _wasserstein_path(args, kwargs) == "transport.self_s_1d":
                    counts["transport.calls_1d"] += 1
                else:
                    counts["transport.calls_nd"] += 1
                    counts["transport.nd_atom_pairs"] += (
                        args[0].atom_count * args[1].atom_count)
                counts["transport.plan_entries"] += len(result.plan.entries)
            return wasserstein
        if (layer, name) == ("fiber_metric", "constrained_fiber_cost"):
            def fiber(args, kwargs, result):
                counts["fiber_metric.lp_calls"] += 1
                counts["fiber_metric.coupling_vars"] += (
                    args[0].atom_count * args[1].atom_count)
            return fiber
        if (layer, name) == ("particles", "integrate"):
            def rk4(args, kwargs, result):
                counts["particles.rk4_steps"] += len(result) - 1
            return rk4
        return None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, leaf: bool):
        stack = self.stack
        self_time = self.self_time
        spans = self.spans
        perf = time.perf_counter
        hook = self._hook(layer, name)
        materialize = BUILDERS.get(name) if layer == "measure" else None
        if (layer, name) == ("transport", "wasserstein"):
            key_of = _wasserstein_path
        else:
            key = ("transport.self_s_nd" if layer == "transport"
                   else f"{layer}.self_s")
            key_of = None
        label = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize is not None:
                # builders accept iterators; count the atoms without
                # consuming them
                args = list(args)
                args[materialize] = list(args[materialize])
            layer_key = key_of(args, kwargs) if key_of else key
            parent = stack[-1]
            if leaf:
                frame = [0.0, 0]
            else:
                tracer.next_id += 1
                frame = [0.0, tracer.next_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent[0] += t1 - t0
                self_time[layer_key] += t1 - t0 - frame[0]
                if not leaf:
                    spans.append((frame[1], parent[1], label, t0, t1))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function and method; record how to undo it."""
        import mdelab
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mdelab.{layer}"]
            for name, obj in vars(module).items():
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(
                        obj, layer, name, name in LEAF_FUNCTIONS))
            for cls_name, methods in LEAF_METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, layer, meth, True))
        modules = [mdelab] + [m for n, m in sys.modules.items()
                              if n.startswith("mdelab.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-round figures ------------------------------------------------

    def take_round(self) -> dict[str, float]:
        """Counts and self times since the last call, then reset them.

        ``instrumented_s`` is the time spent inside wrapped calls; the
        rest of a round is the benchmark's own loop."""
        figures = {k: self.counts.get(k, 0) for k in COUNT_METRICS}
        figures.update({k: self.self_time.get(k, 0.0)
                        for k in SELF_TIME_METRICS})
        figures["instrumented_s"] = self.stack[0][0]
        self.counts.clear()
        self.self_time.clear()
        self.stack[0][0] = 0.0
        return figures

    def write(self, path, header: dict) -> None:
        doc = dict(header, span_fields=["id", "parent", "name", "start_s",
                                        "end_s"], spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                        encoding="utf-8")
