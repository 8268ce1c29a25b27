"""Span tracing for the traced benchmark run.

Each layer's entry point is wrapped at the name its caller looks up (a
module attribute), so the program itself carries no tracing code. A span
records its name, its parent span, its inclusive time and its self time
(inclusive minus the time of its child spans). A layer whose every lookup
name has gone, after a refactor, is reported as absent, not as an error.
"""
import importlib
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _array_bytes(args, kwargs, result):
    """Computed bytes moved by one kernel call: every array argument read
    once and the result written once. Ignores caches and temporaries."""
    arrays = [a for a in (*args, *kwargs.values(), result) if isinstance(a, np.ndarray)]
    return sum(a.nbytes for a in arrays)


def _emitted_bytes(args, kwargs, result):
    path = Path(result)
    files = path.rglob("*") if path.is_dir() else [path]
    return sum(p.stat().st_size for p in files if p.is_file())


def _loaded_bytes(args, kwargs, result):
    arrays, _ = result
    return sum(a.nbytes for a in arrays.values())


def lookup(dotted):
    """(module, attribute, function) of "module.attribute" under kinfluid;
    the function is None when a refactor has removed the name."""
    mod_name, attr = dotted.rsplit(".", 1)
    try:
        module = importlib.import_module(f"kinfluid.{mod_name}")
    except ImportError:
        return None, attr, None
    fn = getattr(module, attr, None)
    return module, attr, fn if callable(fn) else None


@contextmanager
def patched(replacements):
    """Set each (module, attribute, value) while open; restore them on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


# layer -> (lookup names as "module.attribute" under kinfluid, bytes counter)
LAYERS = {
    "harness.loop": (
        ["harness.run_convergence", "harness.run_coupled", "harness.run_limit", "cli.run_coupled"], None),
    "harness.emit": (["cli.save_run_series", "harness.emit_csv"], _emitted_bytes),
    "harness.load": (["harness.load_state"], _loaded_bytes),
    "kinetic.step": (["harness.kinetic_step"], None),
    "kinetic.transport": (["kinetic._transport_raw"], None),
    "kinetic.drag": (["kinetic._drag_raw"], None),
    "kinetic.relax": (["kinetic._fp_raw"], None),
    "fluid.step": (["harness.ns_step"], None),
    "fluid.rusanov": (["fluid.rusanov_step"], None),
    "fluid.viscous": (["fluid.tridiag_dirichlet_solve", "limit.tridiag_dirichlet_solve"], None),
    "moments.compute": (
        ["harness.compute_moments", "kinetic.compute_moments", "entropy.compute_moments"], None),
    "entropy.report": (["harness.evaluate_entropy_report"], None),
    "entropy.ck_margin": (["harness.csiszar_kullback_margin"], None),
    "entropy.audit": (["harness.entropy_inequality_audit"], None),
    "limit.substep": (["harness._two_phase_substeps", "limit._two_phase_substeps"], None),
    "limit.picard_iterate": (["limit.picard_iterate"], None),
    "kernels.thomas_batch": (["_kernels.thomas_batch"], _array_bytes),
    "kernels.upwind_transport": (["_kernels.upwind_transport"], _array_bytes),
    "kernels.upwind_drag": (["_kernels.upwind_drag"], _array_bytes),
}

# layers reported by inclusive time: their child spans are their kernel
INCLUSIVE = ("kinetic.relax", "fluid.viscous", "limit.substep")


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans = []  # (name, parent name, inclusive s, self s, bytes)
        self._stack = []  # [name, child seconds] of the open spans
        self.absent_layers = []
        self.missing_names = []

    def _wrap(self, layer, fn, count_bytes):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                incl = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += incl
            nbytes = count_bytes(args, kwargs, result) if count_bytes else 0
            spans.append((layer, parent[0] if parent else None, incl, incl - frame[1], nbytes))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every lookup name that exists; restore them on exit."""
        replacements = []
        self.absent_layers, self.missing_names = [], []
        for layer, (names, count_bytes) in LAYERS.items():
            found = False
            for dotted in names:
                module, attr, fn = lookup(dotted)
                if fn is None:
                    self.missing_names.append(dotted)
                    continue
                replacements.append((module, attr, self._wrap(layer, fn, count_bytes)))
                found = True
            if not found:
                self.absent_layers.append(layer)
        with patched(replacements):
            yield self

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics per workload operation (totals / n_ops)."""
        calls = dict.fromkeys(LAYERS, 0)
        incl = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        nbytes = dict.fromkeys(LAYERS, 0)
        step_ms = []
        for name, parent, t_incl, t_self, b in self.spans:
            calls[name] += 1
            incl[name] += t_incl
            self_s[name] += t_self
            nbytes[name] += b
            if name == "kinetic.step":
                step_ms.append(1e3 * t_incl)

        def per_op(x):
            return x / n_ops

        def per_call(total, layer):
            return total / calls[layer] if calls[layer] else 0.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = per_op(calls[layer])
            if layer in INCLUSIVE:
                m[f"{layer}.incl_s"] = per_op(incl[layer])
            else:
                m[f"{layer}.self_s"] = per_op(self_s[layer])
        if step_ms:
            q = statistics.quantiles(step_ms, n=100, method="inclusive")
            m["kinetic.step.ms_p50"], m["kinetic.step.ms_p99"] = q[49], q[98]
        else:
            m["kinetic.step.ms_p50"] = m["kinetic.step.ms_p99"] = 0.0
        m["moments.compute.calls_per_step"] = per_call(calls["moments.compute"], "kinetic.step")
        m["entropy.report.ms_per_sample"] = 1e3 * per_call(incl["entropy.report"], "entropy.report")
        m["harness.emit.bytes"] = per_op(nbytes["harness.emit"])
        m["harness.load.bytes"] = per_op(nbytes["harness.load"])
        pairs = self.pairs()
        for parent in ("kinetic.relax", "fluid.viscous"):
            _, t_self = pairs.get(("kernels.thomas_batch", parent), (0, 0.0))
            m[f"kernels.thomas_batch.{parent}.self_s"] = per_op(t_self)
        for kernel in ("thomas_batch", "upwind_transport", "upwind_drag"):
            layer = f"kernels.{kernel}"
            m[f"{layer}.bytes_per_call_computed"] = per_call(nbytes[layer], layer)
        return m

    def pairs(self) -> dict:
        """(span, parent) -> [calls, self seconds] over all traced repeats."""
        out = {}
        for name, parent, _, t_self, _ in self.spans:
            row = out.setdefault((name, parent), [0, 0.0])
            row[0] += 1
            row[1] += t_self
        return out
