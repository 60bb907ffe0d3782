"""Out-of-package tracing for the benchmark's traced run.

`Tracer.install` wraps the public functions of every algact layer module,
and the public methods of the classes those modules define, from outside the
package.  A wrapped function records a span (name, start, end, parent span,
invocation id); constructors and a few accessors called millions of times
record a call count only.  Spans stay in memory until `write` saves them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli", "actions", "lattices", "matrices", "polynomials", "modp",
    "polyring", "invariants", "groupoid", "orders", "arith",
)

# Only the entry point of the cli layer gets a span, so `cli.main` self time
# covers argument parsing, document loading, report assembly and JSON output.
_CLI_FUNCTIONS = {"main"}

# Called per element or per entry; a span each would multiply the traced
# run's time.  These record calls only.
_COUNT_ONLY = {
    "matrices.Matrix.row", "matrices.Matrix.col", "matrices.Matrix.entries",
    "matrices.Matrix.flat", "matrices.Matrix.apply", "matrices.Matrix.apply_row",
    "matrices.Matrix.is_integral", "matrices.Matrix.trace",
    "lattices.Lattice.member", "lattices.Lattice.index",
    "lattices.QuotientLevel.reduce", "lattices.QuotientLevel.to_cyclic",
    "lattices.QuotientLevel.from_cyclic", "lattices.QuotientLevel.size",
    "lattices.QuotientLevel.representatives",
    "polynomials.Poly.is_zero", "polynomials.Poly.leading", "polynomials.Poly.is_monic",
    "polynomials.Poly.is_integral", "polynomials.Poly.constant", "polynomials.Poly.x",
    "modp.ModPoly.is_zero", "modp.ModPoly.from_poly",
    "polyring.MPoly.is_zero", "polyring.MPoly.total_degree", "polyring.MPoly.leading",
    "polyring.MPoly.constant", "polyring.MPoly.variable", "polyring.MPoly.monomial",
    "polyring.QuotientAlgebra.coords",
    "orders.StructureRing.multiply", "orders.StructureRing.basis_vector",
    "actions.Word.is_identity", "actions.Word.is_monoid_word", "actions.Word.length",
    "groupoid.SemidirectElem.act",
}

# Results some ratios need, recorded per span: name -> function of the result.
_OBSERVE = {
    "actions.constructible_family": lambda family: len(family.lattices),
    "polyring.normal_form": lambda nf: int(bool(nf.terms)),
    "arith.prime_factors": lambda out: int(out[1] != 1),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (span id, parent id, name index, invocation, start ns, end ns)
        self.values: dict[int, int] = {}  # span id -> observed result
        self.counts: Counter = Counter()
        self.invocation = 0
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        observe = _OBSERVE.get(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, self.invocation, start, end))
            if observe is not None:
                self.values[sid] = observe(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        return self._count(name, fn) if name in _COUNT_ONLY else self._span(name, fn)

    # -- patching ----------------------------------------------------------

    def _set(self, target, attr, value):
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"algact.{layer}") for layer in LAYERS}
        package = importlib.import_module("algact")
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if layer == "cli" and attr not in _CLI_FUNCTIONS:
                        continue
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    self._set(mod, attr, replaced[id(obj)])
                elif inspect.isclass(obj) and layer != "cli":
                    self._wrap_class(f"{layer}.{attr}", obj)
        # Modules that imported a function by name hold their own binding.
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])

    def _wrap_class(self, qual, cls):
        if "__init__" in vars(cls):
            # Constructions are counted, not timed: `matrices.Matrix.calls`.
            self._set(cls, "__init__", self._count(qual, vars(cls)["__init__"]))
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qual}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, obj.__func__)))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per function: calls and self seconds.  Per parent>child edge: calls
        and the sum of the observed results.  Per observed function: the sum
        of its observed results."""
        child_ns = defaultdict(int)
        by_id = {}
        for sid, parent, index, _, start, end in self.spans:
            by_id[sid] = index
            if parent:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        edge_calls, edge_values = Counter(), Counter()
        for sid, parent, index, _, start, end in self.spans:
            name = self.names[index]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[sid]
            if parent:
                edge = f"{self.names[by_id[parent]]}>{name}"
                edge_calls[edge] += 1
                edge_values[edge] += self.values.get(sid, 0)
        calls.update(self.counts)
        values = Counter()
        for sid, value in self.values.items():
            values[self.names[by_id[sid]]] += value
        return {
            "calls": calls,
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "edge_calls": edge_calls,
            "edge_values": edge_values,
            "values": values,
        }

    def write(self, path):
        """Write every span as one JSON line: [id, parent, name, invocation,
        start_ns, end_ns], after a header line with the call counts."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "invocation", "start_ns", "end_ns"],
                                 "counts": dict(self.counts)}) + "\n")
            names = self.names
            for sid, parent, index, inv, start, end in self.spans:
                fh.write(f'[{sid},{parent},"{names[index]}",{inv},{start},{end}]\n')
