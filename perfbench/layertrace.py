"""Per-layer timing and counting wrappers, installed from outside ``src/``.

``Tracer.install`` replaces each layer's public function by a wrapper in
every loaded ``mixmult`` module that holds a reference to it (the modules
import one another's functions by name, so patching the defining module
alone would miss most calls). Each call becomes a span: name, parent span,
start and end on ``perf_counter``. Spans stay in memory until
``summary`` folds them into per-layer figures at the end of the command.

A layer whose function does not exist in the code being measured is listed
as absent and the command still runs; the metrics built from that layer are
left out of the report instead of reading as zero.
"""

from __future__ import annotations

import functools
import sys
import time

# Layers traced, by module. Each gets <module>.<function>.calls/.s/.self_s.
LAYERS = {
    "groebner": ("buchberger", "saturation", "ideal_quotient", "ideal_intersection",
                 "in_radical", "is_nzd", "krull_dim"),
    "hilbert": ("series_of", "total_multiplicity"),
    "bigraded": ("degrees_report", "e_positivity", "e_value_via_criterion",
                 "e_table_full", "find_filter_regular", "_filter_step"),
    "ideal_mixed": ("mixed_report", "analytic_spread", "rees_presentation",
                    "sat_chain", "height_of"),
    "sv_cycles": ("sv_degrees",),
    "problemfile": ("parse_problem",),
}

# Counters kept by post-call hooks, with the layer each one needs.
COUNTERS = {
    "groebner.elimination_calls": "groebner.buchberger",
    "groebner.basis_size_max": "groebner.buchberger",
    "groebner.basis_terms_out": "groebner.buchberger",
    "groebner.saturation.colon_steps": "groebner.saturation",
    "hilbert.lead_gens": "hilbert.series_of",
    "bigraded.filter_attempts": "bigraded._filter_step",
    "bigraded.filter_rejected": "bigraded._filter_step",
    "ideal_mixed.nzd_attempts": "groebner.is_nzd",
    "ideal_mixed.nzd_rejected": "groebner.is_nzd",
    "sv_cycles.seed_retries": "sv_cycles.sv_degrees",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mixmult" or name.startswith("mixmult."))]
        for modname, funcs in LAYERS.items():
            home = sys.modules.get(f"mixmult.{modname}")
            for func in funcs:
                layer = f"{modname}.{func}"
                original = getattr(home, func, None) if home is not None else None
                if not callable(original):
                    self.absent.append(layer)
                    continue
                wrapper = self._wrap(layer, original, _HOOKS.get(layer))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        for name, layer in COUNTERS.items():
            if layer in self.absent:
                self.absent.append(name)
            else:
                self.counters[name] = 0

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, original, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None and layer not in self.broken:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # the code measured no longer has the shape the hook reads
                    self.broken.add(layer)
            return result

        return wrapper

    def open_layers(self) -> set:
        return {self.spans[i][0] for i in self.stack}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- report ------------------------------------------------------------

    def summary(self, solve_s: float) -> dict:
        """Calls, inclusive and self time per layer, counters, and the
        command's own (``cli``) self time: its wall time outside all spans."""
        child_time = [0.0] * len(self.spans)
        top = 0.0
        for name, parent, start, end in self.spans:
            if parent < 0:
                top += end - start
            else:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        for modname, funcs in LAYERS.items():
            for func in funcs:
                layer = f"{modname}.{func}"
                if layer not in self.absent:
                    layers[layer] = {"calls": 0, "s": 0.0, "self_s": 0.0}
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            # inclusive time counts only the outermost span of a recursion
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                entry["s"] += end - start
            if name == "groebner.ideal_quotient" and parent >= 0 \
                    and self.spans[parent][0] == "groebner.saturation":
                self.count("groebner.saturation.colon_steps")
        counters = {name: value for name, value in self.counters.items()
                    if COUNTERS.get(name) not in self.broken}
        memo = getattr(sys.modules.get("mixmult.hilbert"), "_numerator_memo", None)
        return {
            "layers": layers,
            "counters": counters,
            "absent": self.absent + sorted(n for n in self.counters if n not in counters),
            "cli.self_s": solve_s - top,
            "hilbert.numerator_memo_entries": len(memo) if isinstance(memo, dict) else None,
            "spans": self.spans,
        }


# -- post-call hooks: counters read from arguments and results ----------------


def _buchberger(tracer, args, kwargs, result):
    order = args[2] if len(args) > 2 else kwargs.get("order")
    if getattr(order, "block", ()):
        tracer.count("groebner.elimination_calls")
    size = len(result)
    if size > tracer.counters.get("groebner.basis_size_max", 0):
        tracer.counters["groebner.basis_size_max"] = size
    tracer.count("groebner.basis_terms_out", sum(len(h) for h in result))


def _series_of(tracer, args, kwargs, result):
    ideal = args[0] if args else kwargs.get("I")
    # the basis is cached on the handle by now, so this adds no work
    tracer.count("hilbert.lead_gens", len(ideal.leading_exponents()))


def _filter_step(tracer, args, kwargs, result):
    tracer.count("bigraded.filter_attempts")
    if not result.ok:
        tracer.count("bigraded.filter_rejected")


def _is_nzd(tracer, args, kwargs, result):
    if "ideal_mixed.sat_chain" in tracer.open_layers():
        tracer.count("ideal_mixed.nzd_attempts")
        if not result:
            tracer.count("ideal_mixed.nzd_rejected")


def _sv_degrees(tracer, args, kwargs, result):
    tracer.count("sv_cycles.seed_retries", len(result.seeds) - 1)


_HOOKS = {
    "groebner.buchberger": _buchberger,
    "hilbert.series_of": _series_of,
    "bigraded._filter_step": _filter_step,
    "groebner.is_nzd": _is_nzd,
    "sv_cycles.sv_degrees": _sv_degrees,
}
