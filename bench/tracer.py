"""Outside-in tracer for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of every grlat layer, and a
few methods on their classes, without touching ``src/``.  Each original
function object is wrapped once and every binding of it in every
``grlat.*`` namespace is replaced, so aliases such as ``polys._int_det``
(``intmat.det``) and imports such as ``spectrum.resultant_monic`` are
traced too.  Generator functions are left alone: their work happens in
the caller's loop, not inside the call.

A span is one call of a wrapped function.  Spans are not kept one by one;
each (span, parent span) pair keeps a running [calls, total_s, self_s],
where self time is the span's duration minus that of its child spans.
Time spent computing counters from arguments is charged to no layer.

``layer_metrics`` turns a report into the per-layer metrics named in
``BENCHMARK.json``.
"""

import functools
import inspect
import sys
import time

LAYERS = ("intmat", "grouprings", "polys", "abelian", "cohomology", "lattices", "monoid", "spectrum", "cli")

# Public methods of these classes are wrapped, together with the listed
# special methods.  Element-level classes (GroupElement, FinAbGroup) are
# not: they are called millions of times and hold no layer's work.
CLASSES = {
    "grouprings": {
        "GroupRing": ("__init__",),
        "GroupRingElem": ("__mul__",),
        "IdealLattice": ("__init__",),
        "FiniteModule": (),
    },
    "abelian": {"Subgroup": (), "QuotientData": ()},
}

HNF_ENTRY_POINTS = ("intmat.hnf", "intmat.hnf_with_pivots", "intmat.hnf_with_transform")

# per-layer metric -> the spans whose calls and self time it sums
SPAN_GROUPS = {
    "intmat.hnf": ("intmat.hnf", "intmat.hnf_with_pivots"),
    "intmat.hnf_with_transform": ("intmat.hnf_with_transform",),
    "intmat.snf": ("intmat.snf_with_transform",),
    "intmat.det": ("intmat.det",),
    "intmat.matmul": ("intmat.mat_mul", "intmat.vec_mat", "intmat.mat_pow"),
    "grouprings.mul": ("grouprings.GroupRingElem.__mul__",),
    "grouprings.translate": ("grouprings.GroupRingElem.translate",),
    "grouprings.ideal": ("grouprings.IdealLattice.__init__",),
    "polys.resultant": ("polys.resultant_monic",),
    "polys.hensel": ("polys.hensel_lift",),
    "polys.factor_mod_p": ("polys.factor_cyclotomic_mod_p",),
    "abelian.subgroups": ("abelian.enumerate_subgroups",),
    "abelian.sub_elements": ("abelian.Subgroup.elements",),
    "abelian.quotient": ("abelian.quotient_data",),
    "cohomology.tate": ("cohomology.tate_cohomology",),
    "cohomology.equiv": ("cohomology.module_equivalent",),
    "cohomology.triviality": ("cohomology.triviality_criterion",),
    "lattices.kernel": ("lattices.verify_kernel_presentation",),
    "lattices.ext": ("lattices.verify_extension_sequence",),
    "lattices.unit": ("lattices.verify_unit_transport",),
    "monoid.build_sets": ("monoid.build_sets",),
    "monoid.analyze": ("monoid.analyze_monoid",),
    "spectrum.build_sample": ("spectrum.build_sample",),
}
RING_BUILD = "grouprings.GroupRing.__init__"
LIFT = "cohomology.lifted_cyclotomic_factor"


def _max_bits(rows):
    top = 0
    for row in rows:
        if row:
            top = max(top, max(row), -min(row))
    return top.bit_length()


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, seconds covered by children]
        self.agg = {}  # (name, parent) -> [calls, total_s, self_s]
        self.hook_s = 0.0
        self.hnf_cells = 0
        self.hnf_max_bits = 0
        self._start = {}

    # -- wrapping --------------------------------------------------------

    def _hnf_hook(self, args, kwargs):
        rows = args[0]
        width = args[1] if len(args) > 1 else kwargs.get("width")
        if width is None:
            width = len(rows[0]) if rows else 0
        self.hnf_cells += len(rows) * width
        self.hnf_max_bits = max(self.hnf_max_bits, _max_bits(rows))

    def wrap(self, name, fn):
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        hook = self._hnf_hook if name in HNF_ENTRY_POINTS else None

        def wrapper(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                hook(args, kwargs)
                spent = clock() - h0
                self.hook_s += spent
                if stack:
                    stack[-1][1] += spent
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = agg.get((name, parent))
                if rec is None:
                    agg[(name, parent)] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self):
        import grlat.cli  # noqa: F401  (imports every layer)

        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"grlat.{layer}"]
            for attr, obj in vars(mod).items():
                traceable = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
                if (
                    traceable
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cname, special in CLASSES.get(layer, {}).items():
                self._wrap_methods(layer, getattr(mod, cname), special)
        for mname, mod in list(sys.modules.items()):
            if mname == "grlat" or mname.startswith("grlat."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced:
                        setattr(mod, attr, replaced[id(obj)])
        polys = sys.modules["grlat.polys"]
        self._cyclotomic = polys.cyclotomic.__wrapped__
        self._lift_cache = sys.modules["grlat.cohomology"]._LIFT_CACHE
        self._start = {"cyclotomic": self._cyclotomic.cache_info(), "lift_cache": len(self._lift_cache)}

    def _wrap_methods(self, layer, cls, special):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in special:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    # -- output ----------------------------------------------------------

    def report(self):
        info = self._cyclotomic.cache_info()
        start = self._start["cyclotomic"]
        return {
            "spans": [[name, parent, *rec] for (name, parent), rec in sorted(self.agg.items())],
            "hook_s": self.hook_s,
            "hnf_cells": self.hnf_cells,
            "hnf_max_bits": self.hnf_max_bits,
            "cyclotomic_hits": info.hits - start.hits,
            "cyclotomic_misses": info.misses - start.misses,
            "lift_cache_growth": len(self._lift_cache) - self._start["lift_cache"],
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, traced_wall, overhead, samples):
    """Per-layer metrics as {name: (value, unit)}.

    ``traced_wall`` is the summed command wall time of the traced run;
    ``overhead`` is its summed reference time (see ``calibrate.py``)
    over that of its untraced replay; ``samples`` is the number of
    spectrum samples the commands accepted.
    """
    calls, self_s = {}, {}
    for name, _parent, n, _total, own in trace["spans"]:
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own
    metrics = {}
    for layer in LAYERS:
        own = sum(s for name, s in self_s.items() if name.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = (own, "s")
    for group, names in SPAN_GROUPS.items():
        metrics[f"{group}.calls"] = (sum(calls.get(n, 0) for n in names), "count")
        metrics[f"{group}.self_s"] = (sum(self_s.get(n, 0.0) for n in names), "s")
    metrics["intmat.hnf.cells"] = (trace["hnf_cells"], "count")
    metrics["intmat.hnf.max_bits"] = (trace["hnf_max_bits"], "bits")
    metrics["grouprings.ring_builds"] = (calls.get(RING_BUILD, 0), "count")
    hits, misses = trace["cyclotomic_hits"], trace["cyclotomic_misses"]
    metrics["polys.cyclotomic.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    lifts = calls.get(LIFT, 0)
    metrics["cohomology.lift_cache.hit_ratio"] = (_ratio(lifts - trace["lift_cache_growth"], lifts), "ratio")
    metrics["spectrum.attempts_per_sample"] = (_ratio(calls.get("spectrum.build_sample", 0), samples), "ratio")
    metrics["spectrum.ring_builds_per_sample"] = (_ratio(calls.get(RING_BUILD, 0), samples), "ratio")
    metrics["trace.wrapped_calls"] = (sum(calls.values()), "count")
    metrics["trace.coverage"] = (_ratio(sum(self_s.values()), traced_wall), "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics
