"""Per-layer tracing from outside the program: wrappers around charvar's public names.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each traced name
where its callers look it up (``charvar.series.frac_sum`` for the partition sum
and the log, ``charvar.polynomials.frac_sum`` for ``FactoredFraction.__add__``,
class attributes such as ``SparsePoly.__rmul__`` beside ``__mul__`` and the
``MatrixGroup.mul`` property).  A name that no longer exists, say after a
refactor, is skipped and every metric that needs it is reported absent.

Spans (name, parent span, start, end) and counters stay in memory; the child
takes one record per phase (set-up, then each timed pass) and writes them all
out when it ends.  Private helpers (the trial divisions inside
``_try_divide``) are not traced: counting them needs the program's own hooks.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# span name -> the (module, attribute path) sites where callers look the name up
SPAN_SITES = {
    "polynomials.frac_sum": [
        ("charvar.series", "frac_sum"),
        ("charvar.polynomials", "frac_sum"),
        ("charvar.invariants", "frac_sum"),
    ],
    "polynomials.adams": [("charvar.series", "adams")],
    "polynomials.as_polynomial": [("charvar.polynomials", "FactoredFraction.as_polynomial")],
    "partitions.hook_term": [("charvar.series", "hook_term")],
    "series.hook_sum_series": [("charvar.series", "hook_sum_series")],
    "series.series_log": [("charvar.series", "series_log")],
    "series.extract_layers": [("charvar.invariants", "extract_layers")],
    "series.invariant_from_layer": [("charvar.invariants", "invariant_from_layer")],
    "invariants.compute_invariant": [
        ("charvar.invariants", "compute_invariant"),
        ("charvar.cli", "compute_invariant"),
        ("charvar.bridge", "compute_invariant"),
    ],
    "invariants.attached_checks": [("charvar.invariants", "attached_checks")],
    "invariants.cache_load": [("charvar.invariants", "InvariantCache.load")],
    "invariants.cache_store": [("charvar.invariants", "InvariantCache.store")],
    "cli.main": [("charvar.cli", "main")],
    "groups.mul_table": [("charvar.groups", "MatrixGroup.mul")],
    "groups.conjugacy": [("charvar.groups", "MatrixGroup.conjugacy")],
    "groups.commutator_distribution": [("charvar.groups", "commutator_distribution")],
    "groups.convolve": [("charvar.groups", "convolve_class_functions")],
    "characters.character_table": [
        ("charvar.characters", "character_table"),
        ("charvar.cli", "character_table"),
    ],
    "characters.frobenius_sums": [
        ("charvar.characters", "frobenius_sums"),
        ("charvar.cli", "frobenius_sums"),
    ],
    "bridge.point_count_bridge": [("charvar.bridge", "point_count_bridge")],
}

# hooks with counters: (hook, module, attribute path, wrapper factory method)
COUNTER_SITES = [
    ("polynomials.cancel", "charvar.polynomials", "FactoredFraction.__init__", "_wrap_cancel"),
    ("polynomials.mul", "charvar.polynomials", "SparsePoly.__mul__", "_wrap_mul"),
    ("polynomials.mul", "charvar.polynomials", "SparsePoly.__rmul__", "_wrap_mul"),
    ("invariants.cache_load.bytes", "charvar.invariants", "InvariantCache.load_bytes", "_wrap_bytes"),
]


def _resolve(module_name, path):
    """(owner, attribute, current value), or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # On a class only its own attributes count: object.__init__ is not the constructor.
    space = vars(owner)
    if attr not in space:
        return None
    return owner, attr, space[attr]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = defaultdict(int)
        self.sites = {}  # "module:path" -> installed?
        self.hooked = set()  # hook names with at least one installed site
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def _wrap_cancel(self, init):
        """FactoredFraction construction that offers factors to cancel is the cancel span."""
        counters = self.counters
        traced_init = self.span("polynomials.cancel", init)

        def constructor(obj, *args, **kwargs):
            num = args[0] if args else kwargs.get("num")
            den = args[1] if len(args) > 1 else kwargs.get("den")
            if not den or not kwargs.get("cancel", True) or num.is_zero():
                return init(obj, *args, **kwargs)
            traced_init(obj, *args, **kwargs)
            counters["polynomials.cancel.factors_in"] += sum(den.values())
            counters["polynomials.cancel.factors_out"] += sum(obj.den.values())

        return constructor

    def _wrap_mul(self, mul):
        """Count polynomial-by-polynomial products and their term products."""
        counters = self.counters
        poly_type = importlib.import_module("charvar.polynomials").SparsePoly

        def product(a, b):
            if isinstance(b, poly_type):
                counters["polynomials.mul.calls"] += 1
                counters["polynomials.mul.term_products"] += len(a.terms) * len(b.terms)
            return mul(a, b)

        return product

    def _wrap_bytes(self, load_bytes):
        counters = self.counters

        def loader(*args, **kwargs):
            raw = load_bytes(*args, **kwargs)
            if raw is not None:
                counters["invariants.cache_load.bytes"] += len(raw)
            return raw

        return loader

    # -- installation --------------------------------------------------------

    def _patch(self, hook, module_name, path, make):
        found = _resolve(module_name, path)
        self.sites[f"{module_name}:{path}"] = found is not None
        if found is None:
            return
        owner, attr, current = found
        if isinstance(current, property):
            replacement = property(make(current.fget), current.fset, current.fdel, current.__doc__)
        else:
            replacement = make(current)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, current))
        self.hooked.add(hook)

    def install(self):
        # Import every module first: one imported mid-install would bind names already wrapped.
        for module_name in {m for sites in SPAN_SITES.values() for m, _ in sites}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for name, sites in SPAN_SITES.items():
            for module_name, path in sites:
                self._patch(name, module_name, path, lambda fn, name=name: self.span(name, fn))
        for hook, module_name, path, factory in COUNTER_SITES:
            self._patch(hook, module_name, path, getattr(self, factory))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans and counters since the last take, as one phase record."""
        record = {"spans": self.spans[:], "counters": dict(self.counters)}
        self.spans.clear()
        self.counters.clear()
        return record


# -- per-layer metrics -----------------------------------------------------------------


def _aggregate(records):
    """Sums over records: total, self and call count per span name, and totals by parent."""
    agg = {"total": defaultdict(float), "self": defaultdict(float), "calls": defaultdict(int),
           "under": defaultdict(float), "counters": defaultdict(int)}
    for record in records:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, parent, start, end), inner in zip(spans, child_time):
            agg["total"][name] += end - start
            agg["self"][name] += end - start - inner
            agg["calls"][name] += 1
            if parent >= 0:
                agg["under"][(spans[parent][0], name)] += end - start
        for key, value in record["counters"].items():
            agg["counters"][key] += value
    return agg


def _hit_ratio(agg):
    offered = agg["counters"]["polynomials.cancel.factors_in"]
    kept = agg["counters"]["polynomials.cancel.factors_out"]
    return (offered - kept) / offered if offered else 0.0


def _divisor(agg):
    # The divisor step: the sums and Adams substitutions extract_layers makes itself.
    under = agg["under"]
    return (under[("series.extract_layers", "polynomials.frac_sum")]
            + under[("series.extract_layers", "polynomials.adams")])


def _total(name):
    return lambda agg: agg["total"][name]


def _self(name):
    return lambda agg: agg["self"][name]


def _calls(name):
    return lambda agg: agg["calls"][name]


def _counter(name):
    return lambda agg: agg["counters"][name]


# (metric, unit, hook it needs, value from the aggregate, phase). Values are per
# timed pass; "setup" metrics come from the traced child's one set-up instead.
# A .s metric is the spans' inclusive time, a .self_s metric excludes nested
# spans; groups.conjugacy.s excludes the multiplication table it builds first.
LAYER_METRICS = [
    ("polynomials.cancel.s", "s", "polynomials.cancel", _total("polynomials.cancel"), "pass"),
    ("polynomials.cancel.factors_in", "count", "polynomials.cancel",
     _counter("polynomials.cancel.factors_in"), "pass"),
    ("polynomials.cancel.factors_out", "count", "polynomials.cancel",
     _counter("polynomials.cancel.factors_out"), "pass"),
    ("polynomials.cancel.hit_ratio", "ratio", "polynomials.cancel", _hit_ratio, "pass"),
    ("polynomials.mul.calls", "count", "polynomials.mul", _counter("polynomials.mul.calls"), "pass"),
    ("polynomials.mul.term_products", "count", "polynomials.mul",
     _counter("polynomials.mul.term_products"), "pass"),
    ("polynomials.frac_sum.self_s", "s", "polynomials.frac_sum", _self("polynomials.frac_sum"), "pass"),
    ("polynomials.frac_sum.calls", "count", "polynomials.frac_sum", _calls("polynomials.frac_sum"), "pass"),
    ("polynomials.adams.s", "s", "polynomials.adams", _total("polynomials.adams"), "pass"),
    ("polynomials.as_polynomial.s", "s", "polynomials.as_polynomial",
     _total("polynomials.as_polynomial"), "pass"),
    ("partitions.hook_term.s", "s", "partitions.hook_term", _total("partitions.hook_term"), "pass"),
    ("partitions.hook_term.calls", "count", "partitions.hook_term", _calls("partitions.hook_term"), "pass"),
    ("series.hook_sum_series.s", "s", "series.hook_sum_series", _total("series.hook_sum_series"), "pass"),
    ("series.series_log.self_s", "s", "series.series_log", _self("series.series_log"), "pass"),
    ("series.divisor.s", "s", "series.extract_layers", _divisor, "pass"),
    ("series.extract_layers.calls", "count", "series.extract_layers",
     _calls("series.extract_layers"), "pass"),
    ("series.invariant_from_layer.self_s", "s", "series.invariant_from_layer",
     _self("series.invariant_from_layer"), "pass"),
    ("invariants.compute_invariant.calls", "count", "invariants.compute_invariant",
     _calls("invariants.compute_invariant"), "pass"),
    ("invariants.attached_checks.s", "s", "invariants.attached_checks",
     _total("invariants.attached_checks"), "pass"),
    ("invariants.cache_load.s", "s", "invariants.cache_load", _total("invariants.cache_load"), "pass"),
    ("invariants.cache_load.bytes", "B", "invariants.cache_load.bytes",
     _counter("invariants.cache_load.bytes"), "pass"),
    ("invariants.cache_store.s", "s", "invariants.cache_store", _total("invariants.cache_store"), "setup"),
    ("cli.main.self_s", "s", "cli.main", _self("cli.main"), "pass"),
    ("groups.mul_table.s", "s", "groups.mul_table", _total("groups.mul_table"), "pass"),
    ("groups.conjugacy.s", "s", "groups.conjugacy", _self("groups.conjugacy"), "pass"),
    ("groups.commutator_distribution.s", "s", "groups.commutator_distribution",
     _total("groups.commutator_distribution"), "pass"),
    ("groups.commutator_distribution.calls", "count", "groups.commutator_distribution",
     _calls("groups.commutator_distribution"), "pass"),
    ("groups.convolve.s", "s", "groups.convolve", _total("groups.convolve"), "pass"),
    ("characters.character_table.s", "s", "characters.character_table",
     _total("characters.character_table"), "pass"),
    ("characters.frobenius_sums.s", "s", "characters.frobenius_sums",
     _total("characters.frobenius_sums"), "pass"),
    ("bridge.point_count_bridge.self_s", "s", "bridge.point_count_bridge",
     _self("bridge.point_count_bridge"), "pass"),
]


def layer_metrics(setup_record, pass_records, hooked):
    """Metric name -> {"value", "unit"}; {"value": None, "absent": True} for a missing hook."""
    per_phase = {"setup": (_aggregate([setup_record]), 1),
                 "pass": (_aggregate(pass_records), len(pass_records))}
    out = {}
    for name, unit, hook, value_of, phase in LAYER_METRICS:
        if hook not in hooked:
            out[name] = {"value": None, "unit": unit, "absent": True}
            continue
        agg, count = per_phase[phase]
        value = value_of(agg)
        if unit != "ratio":
            value = value / count
            if unit != "s" and value == int(value):
                value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
