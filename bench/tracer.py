"""Per-layer tracing from outside the program.

The tracer wraps public functions of the pgog layers.  A wrapped call
either opens a span (name, start, end, parent span) kept in memory, or,
for the kernel's per-element arithmetic, only bumps a counter: a span per
multiply would cost more than the multiply.  Every binding of a wrapped
function is replaced, not just the one in its defining module: a
function imported by name into another module (gog.check_model_satisfies)
or looked up as a module global (closure calling mul) would otherwise
bypass the wrapper.  Methods are wrapped on their class.

Import every pgog module that a run will touch before install(); modules
that import lazily (`from .amalgam import ...` inside a function) then pick
up the wrapped attribute.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("pgog._kernels_py", "pgog.backend", "pgog.models",
           "pgog.presentations", "pgog.gog", "pgog.tower", "pgog.amalgam",
           "pgog.dsl", "pgog.analysis", "pgog.reports", "pgog.registry",
           "pgog.cli")


def _closure_elements(tracer, result):
    tracer.counts["kernel.closure.elements"] += len(result[0])


def _full_cache_hit(tracer, args, kwargs):
    model = args[0]
    generators = args[1] if len(args) > 1 else kwargs.get("generators")
    if generators is None and getattr(model, "_full_closure", None) is not None:
        tracer.counts["models.closure.full_cache_hits"] += 1


def _coset_result(tracer, table):
    tracer.counts["presentations.coset_enumerate.cosets_created"] += (
        table.cosets_created)
    if table.complete:
        tracer.counts["presentations.coset_enumerate.final_order"] += (
            table.order)


def _transversal_cosets(tracer, tables):
    tracer.counts["amalgam.transversal.cosets"] += sum(
        t.coset_count for t in tables.values())


# (module, attribute or Class.method, span name -- or a counter name ending
#  in ".calls" for a count-only wrapper --, hook on the arguments, hook on
#  the result)
TARGETS = (
    ("pgog._kernels_py", "mul", "kernel.mul.calls", None, None),
    ("pgog._kernels_py", "inv", "kernel.inv.calls", None, None),
    ("pgog._kernels_py", "closure", "kernel.closure", None, _closure_elements),
    ("pgog.models", "FiniteGroupModel.closure", "models.closure",
     _full_cache_hit, None),
    ("pgog.presentations", "check_model_satisfies",
     "presentations.check_model_satisfies", None, None),
    ("pgog.presentations", "hom_injective_on",
     "presentations.hom_injective_on", None, None),
    ("pgog.presentations", "GroupHom.verify", "presentations.hom_verify",
     None, None),
    ("pgog.presentations", "GroupHom.apply_element",
     "presentations.apply_element", None, None),
    ("pgog.presentations", "coset_enumerate", "presentations.coset_enumerate",
     None, _coset_result),
    ("pgog.gog", "GraphOfGroups._certify", "gog.certify", None, None),
    ("pgog.gog", "verify_properness_witness", "gog.verify_properness_witness",
     None, None),
    ("pgog.gog", "verify_specialisation", "gog.verify_specialisation",
     None, None),
    ("pgog.gog", "fundamental_presentation", "gog.fundamental_presentation",
     None, None),
    ("pgog.tower", "build_level", "tower.build_level", None, None),
    ("pgog.tower", "build_graphs", "tower.build_graphs", None, None),
    ("pgog.tower", "check_retraction_square", "tower.check_retraction_square",
     None, None),
    ("pgog.tower", "check_transition_maps", "tower.check_transition_maps",
     None, None),
    ("pgog.tower", "build_witnesses", "tower.build_witnesses", None, None),
    ("pgog.tower", "check_two_generation", "tower.check_two_generation",
     None, None),
    ("pgog.amalgam", "build_transversals", "amalgam.build_transversals",
     None, _transversal_cosets),
    ("pgog.amalgam", "normal_form", "amalgam.normal_form", None, None),
    ("pgog.amalgam", "nf_multiply", "amalgam.nf_multiply", None, None),
    ("pgog.amalgam", "separate", "amalgam.separate", None, None),
    ("pgog.dsl", "parse_dsl", "dsl.parse_dsl", None, None),
    ("pgog.analysis", "detect_collapse", "analysis.detect_collapse",
     None, None),
    ("pgog.analysis", "check_edge_bound", "analysis.check_edge_bound",
     None, None),
    ("pgog.reports", "Report.to_json", "reports.render", None, None),
    ("pgog.reports", "Report.to_text", "reports.render", None, None),
)

# every per-layer metric, in report order, with its unit; each is "calls"
# (wrapped calls), "s" (time in outermost spans of the name), "self_s"
# (span time minus child spans) or a counter bumped by a hook
METRICS = (
    ("kernel.mul.calls", "count"),
    ("kernel.inv.calls", "count"),
    ("kernel.closure.calls", "count"),
    ("kernel.closure.elements", "count"),
    ("kernel.closure.self_s", "s"),
    ("models.closure.calls", "count"),
    ("models.closure.full_cache_hits", "count"),
    ("models.closure.s", "s"),
    ("presentations.check_model_satisfies.calls", "count"),
    ("presentations.check_model_satisfies.s", "s"),
    ("presentations.hom_injective_on.calls", "count"),
    ("presentations.hom_injective_on.s", "s"),
    ("presentations.hom_verify.calls", "count"),
    ("presentations.hom_verify.s", "s"),
    ("presentations.apply_element.calls", "count"),
    ("presentations.apply_element.s", "s"),
    ("presentations.coset_enumerate.calls", "count"),
    ("presentations.coset_enumerate.s", "s"),
    ("presentations.coset_enumerate.cosets_created", "count"),
    ("presentations.coset_enumerate.useful_ratio", "ratio"),
    ("gog.certify.calls", "count"),
    ("gog.certify.s", "s"),
    ("gog.verify_properness_witness.s", "s"),
    ("gog.verify_specialisation.s", "s"),
    ("gog.fundamental_presentation.s", "s"),
    ("tower.build_level.s", "s"),
    ("tower.build_level.misses", "count"),
    ("tower.build_graphs.s", "s"),
    ("tower.check_retraction_square.s", "s"),
    ("tower.check_transition_maps.s", "s"),
    ("tower.build_witnesses.s", "s"),
    ("tower.check_two_generation.s", "s"),
    ("amalgam.build_transversals.s", "s"),
    ("amalgam.transversal.cosets", "count"),
    ("amalgam.normal_form.calls", "count"),
    ("amalgam.normal_form.s", "s"),
    ("amalgam.nf_multiply.calls", "count"),
    ("amalgam.nf_multiply.s", "s"),
    ("amalgam.tables.entries", "count"),
    ("amalgam.separate.s", "s"),
    ("dsl.parse_dsl.s", "s"),
    ("analysis.detect_collapse.s", "s"),
    ("analysis.check_edge_bound.s", "s"),
    ("reports.render.s", "s"),
    ("cli.import_s", "s"),
)


def _useful_ratio(summary):
    """Final coset-table order over cosets created, summed over calls."""
    created = summary.get("presentations.coset_enumerate.cosets_created", 0)
    if created:
        summary["presentations.coset_enumerate.useful_ratio"] = (
            summary.get("presentations.coset_enumerate.final_order", 0)
            / created)


def import_all():
    for name in MODULES:
        importlib.import_module(name)


def _bindings(original):
    """(module, name) of every pgog module global bound to original."""
    out = []
    for name, module in list(sys.modules.items()):
        if name == "pgog" or name.startswith("pgog."):
            for key, value in vars(module).items():
                if value is original:
                    out.append((module, key))
    return out


class Tracer:
    """Spans and counters for one traced window."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []
        self._lru_misses = {}

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn, name, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            counts[name + ".calls"] += 1
            if after is not None:
                after(self, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def install(self):
        """Wrap every target that exists; returns the targets not found."""
        missing = []
        for module_name, attr, span, before, after in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, meth = attr.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = (self._count_wrapper(fn, span)
                       if span.endswith(".calls")
                       else self._span_wrapper(fn, span, before, after))
            if hasattr(fn, "cache_info"):
                self._lru_misses[span] = (fn, fn.cache_info().misses)
            if owner_name:
                self._restore.append((owner, meth, fn))
                setattr(owner, meth, wrapper)
            else:
                for mod, key in _bindings(fn):
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, wrapper)
        return missing

    def uninstall(self):
        for lru_name, (fn, start) in self._lru_misses.items():
            self.counts[lru_name + ".misses"] += fn.cache_info().misses - start
        self._lru_misses = {}
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore = []

    # -- results ---------------------------------------------------------

    def summary(self):
        """Counts and times per metric name (times in raw seconds)."""
        out = dict(self.counts)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + duration - child[idx])
            # outermost span of its name: recursion is not counted twice
            up = parent
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up < 0:
                out[name + ".s"] = out.get(name + ".s", 0.0) + duration
        _useful_ratio(out)
        amalgam = sys.modules.get("pgog.amalgam")
        if amalgam is not None and hasattr(amalgam, "_TABLES"):
            # coset and pull-back entries of every transversal table held
            out["amalgam.tables.entries"] = sum(
                len(t._rep_of) + len(t._to_edge)
                for tables in amalgam._TABLES.values()
                for t in tables.transversals.values())
        return out

    def dump(self, fh, **extra):
        """Write the spans as JSON lines, then one summary line."""
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")
        fh.write(json.dumps({"summary": self.summary(), **extra},
                            sort_keys=True) + "\n")


# on nf-products these count the ops only, so that a change confined to
# set-up (closure) leaves them alone; amalgam.tables.entries is a snapshot,
# not a sum; the rest sum set-up and ops
OPS_ONLY = ("kernel.mul.calls", "kernel.inv.calls", "amalgam.tables.entries")


def merge_windows(setup, ops):
    """One summary from a set-up window and an op window."""
    out = {k: setup.get(k, 0) + ops.get(k, 0) for k in set(setup) | set(ops)}
    for key in OPS_ONLY:
        out[key] = ops.get(key, 0)
    _useful_ratio(out)
    return out
