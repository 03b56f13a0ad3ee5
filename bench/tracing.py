"""Per-layer tracing of dergrade from outside the package.

`Tracer.install()` replaces the public functions and methods of each dergrade
module with wrappers.  A layer is a module: every wrapped call pushes a frame,
and on return its duration minus the time of the wrapped calls it made is
added to its module's self time.  Counters and inclusive timers are kept at
the same boundaries.  Coarse boundaries also record a span (name, start, end,
parent span, operation id); the hot leaves (coefficient arithmetic, kernel
`mul`/`inv`, ...) are only counted, since a span for each of their millions
of calls would cost more memory than the run itself.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "coefficients",
    "groups",
    "algebra",
    "derivations",
    "grading",
    "sampling",
    "verification",
    "serialization",
    "cli",
)

# Value types whose methods only delegate to a kernel; their cost stays with
# the caller's layer.
SKIP_CLASSES = {"GroupElement", "Arrow"}

# Non-public callables that are the only boundary for a measured quantity:
# the CLI parses JSON text in `_load_json`; a `GradingSetup` is validated in
# its dataclass `__init__`.
EXTRA = {("cli", None, "_load_json"), ("grading", "GradingSetup", "__init__")}

ARITHMETIC = {"__add__", "__sub__", "__mul__", "__neg__", "__call__"}

# Layer entry points that also record a span; every other boundary is only
# counted and timed, since a span for each of the millions of coefficient or
# kernel calls would cost more memory than the run itself.
SPAN_LAYERS = {"cli", "verification", "serialization"}
SPANNED = {
    "group_from_name",
    "PermutationGroup.symmetric",
    "PermutationGroup.alternating",
    "PermutationGroup.derived_payloads",
    "PermutationGroup.center_payloads",
    "PermutationGroup.quotient_by",
    "PermutationGroup.derived_quotient",
    "Derivation.from_table",
    "Derivation.inner",
    "Derivation.central",
    "Derivation.bracket",
    "Derivation.apply",
    "GradingSetup.__init__",
    "GradingSetup.default",
    "decompose",
    "check_bracket_closure",
    "Sampler.derivation",
}

# Inclusive timers: the outermost call of any listed boundary is timed.
TIMERS = {
    "groups.kernel_build_s": {
        "group_from_name",
        "PermutationGroup.symmetric",
        "PermutationGroup.alternating",
    },
    "groups.quotient_s": {
        "Heisenberg.derived_quotient",
        "FreeAbelian.derived_quotient",
        "PermutationGroup.derived_quotient",
        "PermutationGroup.quotient_by",
        "GradingSetup.__init__",
        "GradingSetup.default",
    },
    "derivations.table_validation_s": {"Derivation.from_table"},
    "serialization.parse_s": {
        "_load_json",
        "derivation_from_json",
        "arrow_from_json",
        "AlgebraElement.from_json",
        "GaussianRational.from_json",
    },
    "serialization.dump_s": {
        "dumps",
        "derivation_to_json",
        "decomposition_to_json",
        "arrow_to_json",
        "AlgebraElement.to_json",
        "GaussianRational.to_json",
    },
}

COUNTERS = {
    "GaussianRational.__add__": "coefficients.ops",
    "GaussianRational.__sub__": "coefficients.ops",
    "GaussianRational.__mul__": "coefficients.ops",
    "GaussianRational.__neg__": "coefficients.ops",
    "Heisenberg.mul": "groups.mul_calls",
    "FreeAbelian.mul": "groups.mul_calls",
    "PermutationGroup.mul": "groups.mul_calls",
    "Heisenberg.inv": "groups.inv_calls",
    "FreeAbelian.inv": "groups.inv_calls",
    "PermutationGroup.inv": "groups.inv_calls",
    "AlgebraElement.__mul__": "algebra.mul_calls",
    "Derivation.apply_element": "derivations.apply_element_calls",
    "Derivation.from_table": "derivations.table_validations",
    "decompose": "grading.decompose_calls",
}

WORD = {"Heisenberg.word", "FreeAbelian.word", "PermutationGroup.word"}

MAX_SPANS = 200_000


def _boundaries(module, layer):
    """(owner, attribute, qualified name, kind) for every callable to wrap."""
    out = []
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if not name.startswith("_") or (layer, None, name) in EXTRA:
                out.append((module, name, name, "function"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            if name in SKIP_CLASSES:
                continue
            for attr, raw in vars(obj).items():
                wanted = (
                    not attr.startswith("_")
                    or attr in ARITHMETIC
                    or (layer, name, attr) in EXTRA
                )
                if not wanted:
                    continue
                if isinstance(raw, staticmethod):
                    kind = "static"
                elif inspect.isfunction(raw):
                    kind = "method"
                else:
                    continue
                out.append((obj, attr, f"{name}.{attr}", kind))
    return out


class Tracer:
    """Spans, counters and per-layer self time of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index, op id]
        self.dropped_spans = 0
        self.stack = []  # frames: [child seconds, span index]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.timers = defaultdict(float)
        self._depth = defaultdict(int)
        self._timer_start = {}
        self.op_id = -1

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap dergrade for the rest of this process's life."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dergrade.{layer}")
            for owner, attr, qual, kind in _boundaries(module, layer):
                raw = vars(owner)[attr]
                func = raw.__func__ if kind == "static" else raw
                wrapper = self._wrap(func, layer, qual)
                setattr(owner, attr, staticmethod(wrapper) if kind == "static" else wrapper)
                if kind == "function":
                    originals[id(func)] = (func, wrapper)
        # functions imported by name into other modules are rebound there too
        for name in ("dergrade",) + tuple(f"dergrade.{layer}" for layer in LAYERS):
            module = importlib.import_module(name)
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        return self

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, func, layer, qual):
        timers = tuple(t for t, names in TIMERS.items() if qual in names)
        counter = COUNTERS.get(qual)
        spanned = layer in SPAN_LAYERS or qual in SPANNED
        is_apply = qual == "Derivation.apply_element"
        stack, self_s, counts = self.stack, self.self_s, self.counts
        name = f"{layer}.{qual}"

        if not (spanned or timers or is_apply or qual in WORD or qual == "AlgebraElement.__mul__"):

            def leaf(*args, **kwargs):
                start = perf_counter()
                frame = [0.0, stack[-1][1] if stack else -1]
                stack.append(frame)
                try:
                    return func(*args, **kwargs)
                finally:
                    dur = perf_counter() - start
                    stack.pop()
                    self_s[layer] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                    if counter:
                        counts[counter] += 1

            return leaf

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            start = perf_counter()
            span = -1
            if spanned:
                if len(self.spans) < MAX_SPANS:
                    span = len(self.spans)
                    self.spans.append([name, start, None, parent, self.op_id])
                else:
                    self.dropped_spans += 1
            frame = [0.0, span if span >= 0 else parent]
            stack.append(frame)
            for t in timers:
                if self._depth[t] == 0:
                    self._timer_start[t] = start
                self._depth[t] += 1
            if counter:
                counts[counter] += 1
            if qual == "AlgebraElement.__mul__":
                counts["algebra.term_pairs"] += len(args[0]) * len(args[1])
            if qual in WORD and self._depth["apply_element"]:
                counts["derivations.cache_misses"] += 1
            if is_apply:
                self._depth["apply_element"] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                for t in timers:
                    self._depth[t] -= 1
                    if self._depth[t] == 0:
                        self.timers[t] += end - self._timer_start[t]
                if is_apply:
                    self._depth["apply_element"] -= 1
                if span >= 0:
                    self.spans[span][2] = end
            if qual in WORD:
                counts["groups.word_letters"] += len(result)
            elif qual == "dumps":
                counts["serialization.bytes_out"] += len(result.encode("utf-8"))
            elif qual == "run_all":
                counts["verification.checks"] += sum(r.passed + r.failed for r in result)
            return result

        return traced

    # -- results -----------------------------------------------------------------

    def summary(self, time_scale: float) -> dict:
        """Totals, with times multiplied by `time_scale`; `combine` adds
        summaries of several processes."""
        return {
            "self_s": {k: v * time_scale for k, v in self.self_s.items()},
            "counts": dict(self.counts),
            "timers": {k: v * time_scale for k, v in self.timers.items()},
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }


def combine(summaries) -> dict:
    total = {"self_s": defaultdict(float), "counts": defaultdict(int),
             "timers": defaultdict(float), "spans": 0, "dropped_spans": 0}
    for s in summaries:
        for key in ("self_s", "counts", "timers"):
            for name, value in s[key].items():
                total[key][name] += value
        total["spans"] += s["spans"]
        total["dropped_spans"] += s["dropped_spans"]
    return total


def per_layer_metrics(summary: dict, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a combined summary."""
    counts, timers, self_s = summary["counts"], summary["timers"], summary["self_s"]
    calls = counts.get("derivations.apply_element_calls", 0)
    misses = counts.get("derivations.cache_misses", 0)
    m = {
        "coefficients.ops": (counts.get("coefficients.ops", 0), "count"),
        "coefficients.self_s": (self_s.get("coefficients", 0.0), "s"),
        "groups.mul_calls": (counts.get("groups.mul_calls", 0), "count"),
        "groups.inv_calls": (counts.get("groups.inv_calls", 0), "count"),
        "groups.self_s": (self_s.get("groups", 0.0), "s"),
        "groups.word_letters": (counts.get("groups.word_letters", 0), "count"),
        "groups.kernel_build_s": (timers.get("groups.kernel_build_s", 0.0), "s"),
        "groups.quotient_s": (timers.get("groups.quotient_s", 0.0), "s"),
        "algebra.mul_calls": (counts.get("algebra.mul_calls", 0), "count"),
        "algebra.term_pairs": (counts.get("algebra.term_pairs", 0), "count"),
        "algebra.self_s": (self_s.get("algebra", 0.0), "s"),
        "derivations.apply_element_calls": (calls, "count"),
        "derivations.cache_misses": (misses, "count"),
        "derivations.cache_hit_ratio": ((calls - misses) / calls if calls else 0.0, "ratio"),
        "derivations.table_validations": (counts.get("derivations.table_validations", 0), "count"),
        "derivations.table_validation_s": (timers.get("derivations.table_validation_s", 0.0), "s"),
        "derivations.self_s": (self_s.get("derivations", 0.0), "s"),
        "grading.decompose_calls": (counts.get("grading.decompose_calls", 0), "count"),
        "grading.self_s": (self_s.get("grading", 0.0), "s"),
        "sampling.self_s": (self_s.get("sampling", 0.0), "s"),
        "verification.checks": (counts.get("verification.checks", 0), "count"),
        "verification.self_s": (self_s.get("verification", 0.0), "s"),
        "serialization.parse_s": (timers.get("serialization.parse_s", 0.0), "s"),
        "serialization.dump_s": (timers.get("serialization.dump_s", 0.0), "s"),
        "serialization.bytes_out": (counts.get("serialization.bytes_out", 0), "bytes"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
