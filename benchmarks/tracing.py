"""Spans around the public functions of each ``strongarc`` layer.

``Tracer.install`` wraps every function in ``LAYERS`` and rebinds it in each
loaded ``strongarc`` module that holds it, because ``from .flow import
max_flow_unit`` copies the binding into the importing module.
``Tracer.uninstall`` puts the originals back, so untraced passes run the
program unchanged.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, instance,
extra]``; ``parent`` is an index into the same list (-1 for none) and
``extra`` is the function's work count (paths found, pairs offered, members
checked) where one exists.  Spans are recorded only while an instance is
open, so the benchmark's own checks leave none.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

LAYERS = {
    "flow": ("max_flow_unit", "arc_connectivity", "verify_cut"),
    "packing": ("lambda_2", "lambda_s_exact", "verify_certificate"),
    "constructions": (
        "lift_certificates",
        "cycle_cycle_family",
        "cycle_bicycle_family",
        "cycle_complete_family",
        "check_bounds",
        "check_product_formula",
        "product_lambda_formula",
    ),
    "product": ("cartesian_product",),
    "digraph": ("is_strong",),
    "generators": ("random_strong_digraph",),
}

# work count recorded per span: name -> (metric suffix, function of (args, result))
EXTRAS = {
    "flow.max_flow_unit": ("paths", lambda args, result: result.value),
    "packing.lambda_2": ("pairs", lambda args, result: args[0].n * (args[0].n - 1) // 2),
    "packing.verify_certificate": ("members", lambda args, result: len(args[1].members)),
}

SPAN_NAMES = [f"{layer}.{func}" for layer, funcs in LAYERS.items() for func in funcs]
INSTANCE = "instance"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current = -1
        self.instance: object = None
        self._bindings: list[tuple[object, str, object]] = []  # (module, name, original)

    def install(self) -> None:
        wrappers = {}
        for span_name in SPAN_NAMES:
            layer, func = span_name.split(".")
            original = getattr(sys.modules[f"strongarc.{layer}"], func)
            wrappers[id(original)] = self._wrap(span_name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "strongarc" and not mod_name.startswith("strongarc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, span_name: str, fn):
        extra_fn = EXTRAS.get(span_name, (None, None))[1]
        clock = time.perf_counter_ns
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            parent = self.current
            index = len(spans)
            span = [span_name, 0, 0, parent, self.instance, None]
            spans.append(span)
            self.current = index
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.current = parent
            if extra_fn is not None:
                span[5] = extra_fn(args, result)
            return result

        return wrapper

    def open_instance(self, instance: object) -> None:
        """Start the root span of one instance; spans below it carry its id."""
        self.instance = instance
        self.current = len(self.spans)
        self.spans.append([INSTANCE, time.perf_counter_ns(), 0, -1, instance, None])

    def close_instance(self) -> None:
        self.spans[self.current][2] = time.perf_counter_ns()
        self.current = -1
        self.instance = None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def layer_totals(spans: list[list], scales: dict) -> dict[str, float]:
    """Calls, self time and work counts per function, plus the cross-layer ratios.

    Self time is a span's duration minus the durations of its direct children,
    times the speed scale of the span's instance (see ``calibration``).
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    totals: dict[str, float] = {}
    for name in SPAN_NAMES:
        totals[f"{name}.calls"] = 0
        totals[f"{name}.self_s"] = 0.0
        if name in EXTRAS:
            totals[f"{name}.{EXTRAS[name][0]}"] = 0
    local_flows = packing_flows = 0
    for index, (name, start, end, parent, instance, extra) in enumerate(spans):
        if name == INSTANCE:
            continue
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += (end - start - child_ns[index]) / 1e9 * scales[instance]
        if extra is not None:
            totals[f"{name}.{EXTRAS[name][0]}"] += extra
        if name == "flow.max_flow_unit" and parent >= 0:
            parent_name = spans[parent][0]
            local_flows += parent_name == "flow.arc_connectivity"
            packing_flows += parent_name.startswith("packing.")
    connectivity_calls = totals["flow.arc_connectivity.calls"]
    pairs = totals["packing.lambda_2.pairs"]
    totals["flow.local_flows_per_call"] = local_flows / connectivity_calls if connectivity_calls else 0.0
    totals["packing.flow_calls"] = packing_flows
    totals["packing.flow_calls_per_pair"] = packing_flows / pairs if pairs else 0.0
    return totals


def per_pass_metrics(setup: tuple[list, dict], traced_passes: list[tuple[list, dict]]) -> dict[str, float]:
    """Per-layer figures of one pass: counts from the first traced pass, times as medians.

    ``setup`` and each traced pass are (spans, speed scale per instance id).
    Counts repeat exactly from pass to pass; spans of the traced set-up are
    added once.
    """
    setup = layer_totals(*setup)
    passes = [layer_totals(spans, scales) for spans, scales in traced_passes]
    merged: dict[str, float] = {}
    for key, value in passes[0].items():
        if key.endswith("_per_call") or key.endswith("_per_pair"):
            merged[key] = value
        elif key.endswith(".self_s"):
            merged[key] = setup[key] + statistics.median(p[key] for p in passes)
        else:
            merged[key] = setup[key] + value
    return merged
