"""Outside-in per-layer tracing of the arakelov package.

``Tracer.install()`` replaces each traced public function with a timing
wrapper wherever the function object is bound: in its defining module, in
every ``from .x import f`` copy held by another arakelov module, and on the
class for methods.  Nothing inside the library changes.  Each wrapper keeps
a call count and self time, which is the call's duration minus the time
covered by traced calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("linalg", "fields", "ideals", "existence", "lattice", "cli")

# span name -> attribute path inside arakelov.<layer>
SPANS = {
    "linalg.hnf_mod_d": "hnf_mod_d",
    "linalg.row_module_hnf": "row_module_hnf",
    "linalg.det": "det",
    "linalg.invert": "invert",
    "linalg.solve_bareiss": "solve_bareiss",
    "linalg.cholesky": "cholesky",
    "linalg.lll_reduce": "lll_reduce",
    "fields.make_field": "make_field",
    "fields.trace_pairing": "trace_pairing",
    "fields.is_totally_positive": "is_totally_positive",
    "fields.sqrt_integer": "sqrt_integer",
    "fields.FieldElement.mul": "FieldElement.__mul__",
    "fields.FieldElement.inverse": "FieldElement.inverse",
    "fields.FieldElement.norm": "FieldElement.norm",
    "fields.FieldElement.conj": "FieldElement.conj",
    "ideals.realize": "realize",
    "ideals.ideal_mul": "ideal_mul",
    "ideals.conj_ideal": "conj_ideal",
    "ideals.trace_dual": "trace_dual",
    "ideals.principal": "principal",
    "ideals.valuation": "valuation",
    "ideals.codifferent": "codifferent",
    "ideals.radical_above": "radical_above",
    "existence.classify": "classify",
    "existence.mod_prime_power": "mod_prime_power",
    "existence.mod_nonprimepower_trace": "mod_nonprimepower_trace",
    "existence.ConstructionWitness": "ConstructionWitness.__init__",
    "existence.rescale": "rescale",
    "lattice.build": "build",
    "lattice.verify_modularity": "verify_modularity",
    "lattice.minimum": "minimum",
    "lattice.theta_prefix": "theta_prefix",
    "cli.exists": "cmd_exists",
    "cli.construct": "cmd_construct",
    "cli.verify": "cmd_verify",
    "cli.catalog": "cmd_catalog",
}

# spans whose repeated arguments are counted: the work a cache would save
REPEAT_SPANS = ("ideals.realize", "ideals.trace_dual", "linalg.lll_reduce")


def _frozen(value):
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def cache_sizes():
    """Sizes of the arakelov module-level caches (globals named *_CACHE);
    every one is 0 in a cold process."""
    return {f"{name}.{attr}": len(value)
            for name, mod in list(sys.modules.items())
            if name.startswith("arakelov.")
            for attr, value in vars(mod).items()
            if attr.endswith("_CACHE") and isinstance(value, (dict, set, list))}


def metric_names():
    """Every per-layer metric name, with its unit."""
    names = {}
    for span in SPANS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
    names["linalg.hnf_mod_d.max_bits"] = "bits"
    names["linalg.hnf_mod_d.max_dim"] = "count"
    names["lattice.theta_prefix.vectors"] = "count"
    names["fields.make_field.hit_frac"] = "frac"
    for span in REPEAT_SPANS:
        names[f"{span}.repeat_frac"] = "frac"
    return names


class Tracer:
    def __init__(self):
        self.stats = {span: [0, 0.0] for span in SPANS}   # calls, self seconds
        self.counters = {"hnf_max_bits": 0, "hnf_max_dim": 0, "theta_vectors": 0,
                         "field_hits": 0}
        self.repeats = {span: 0 for span in REPEAT_SPANS}
        self._seen = {span: set() for span in REPEAT_SPANS}
        self._fields = []
        self._stack = [0.0]

    # -- wrapping -----------------------------------------------------------
    def install(self):
        modules = [importlib.import_module(f"arakelov.{layer}") for layer in LAYERS]
        namespaces = modules + [sys.modules["arakelov"]]
        for span, path in SPANS.items():
            owner = sys.modules["arakelov." + span.split(".", 1)[0]]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                namespaces_here = namespaces + [cls]
            else:
                original = getattr(owner, attr)
                namespaces_here = namespaces
            wrapper = self._wrap(span, original)
            for namespace in namespaces_here:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, name, wrapper)
        return self

    def _wrap(self, span, fn):
        stats = self.stats[span]
        stack = self._stack
        clock = time.perf_counter
        hook = self._hook(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - inner
                stack[-1] += elapsed
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, out)
                stack[-1] += clock() - h0   # bookkeeping is nobody's self time
            return out

        return wrapper

    def _hook(self, span):
        if span in REPEAT_SPANS:
            seen = self._seen[span]

            def repeat(args, kwargs, _out):
                key = (_frozen(args), _frozen(sorted(kwargs.items())))
                if key in seen:
                    self.repeats[span] += 1
                else:
                    seen.add(key)
            return repeat
        if span == "linalg.hnf_mod_d":
            def hnf_shape(args, _kwargs, _out):
                rows, modulus = args[0], args[1]
                c = self.counters
                c["hnf_max_bits"] = max(c["hnf_max_bits"], abs(modulus).bit_length())
                c["hnf_max_dim"] = max(c["hnf_max_dim"], len(rows[0]) if rows else 0)
            return hnf_shape
        if span == "lattice.theta_prefix":
            def vectors(_args, _kwargs, out):
                self.counters["theta_vectors"] += sum(count for _, count in out)
            return vectors
        if span == "fields.make_field":
            # a hit is a call returning a field object returned before
            def hit(_args, _kwargs, out):
                if any(out is f for f in self._fields):
                    self.counters["field_hits"] += 1
                else:
                    self._fields.append(out)
            return hit
        return None

    # -- results ------------------------------------------------------------
    def snapshot(self):
        """Raw counts, summable across processes."""
        return {"stats": self.stats, "counters": self.counters,
                "repeats": self.repeats}


def merge(snapshots):
    """Sum raw snapshots of several processes (maxima for shape counters)."""
    total = Tracer().snapshot()
    for snap in snapshots:
        for span, (calls, self_s) in snap["stats"].items():
            total["stats"][span][0] += calls
            total["stats"][span][1] += self_s
        for key, value in snap["counters"].items():
            if key.startswith("hnf_max"):
                total["counters"][key] = max(total["counters"][key], value)
            else:
                total["counters"][key] += value
        for span, value in snap["repeats"].items():
            total["repeats"][span] += value
    return total


def _frac(part, whole):
    return part / whole if whole else 0.0


def metrics(snapshot):
    """Per-layer metrics {name: (value, unit)} from a raw snapshot.  Each
    ratio's base is the ``.calls`` metric of the same span."""
    stats, counters = snapshot["stats"], snapshot["counters"]
    units = metric_names()
    values = {}
    for span, (calls, self_s) in stats.items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    values["linalg.hnf_mod_d.max_bits"] = counters["hnf_max_bits"]
    values["linalg.hnf_mod_d.max_dim"] = counters["hnf_max_dim"]
    values["lattice.theta_prefix.vectors"] = counters["theta_vectors"]
    values["fields.make_field.hit_frac"] = _frac(
        counters["field_hits"], stats["fields.make_field"][0])
    for span in REPEAT_SPANS:
        values[f"{span}.repeat_frac"] = _frac(snapshot["repeats"][span],
                                              stats[span][0])
    return {name: (values[name], units[name]) for name in units}
