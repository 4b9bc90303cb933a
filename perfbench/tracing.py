"""In-process tracing of the recpascal layers, from outside the package.

Every public function of the traced layers is wrapped in each recpascal.*
namespace that binds it, including module-level dispatch tables such as the
CLI's generator map.  A wrapper records one span (name, start, end, parent,
op) and passes arguments, return values and exceptions through unchanged.
The two hottest kernels, exact_div and binomial, are only counted: a span
per call would cost more than the call, so their time stays in the caller's
self time.  Spans are kept in memory; the caller writes them out at the end.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "recpascal"
LAYERS = ("cli", "identities", "linalg", "matrices", "sequences", "combinatorics")
COUNTED = ("combinatorics.binomial", "combinatorics.exact_div")
GENERATORS = ("pascal_matrix", "reciprocal_pascal", "super_catalan_matrix",
              "g_matrix", "l_matrix", "d_matrix")

#: Functions whose inclusive time is reported, and those whose calls are.
TIMED = (
    "identities.r_inverse_via_factorization", "identities.check_integrality",
    "identities.det_comparison", "identities.check_von_szily_upto",
    "matrices.matmul", "matrices.to_integer",
    "linalg.invert_rational", "linalg.det_bareiss", "linalg.invert_unit_lower_triangular",
    "sequences.det_inverse_sequence", "sequences.emit_bfile", "sequences.parse_bfile",
    "sequences.crosscheck",
)
CALLED = (
    "identities.r_inverse_via_factorization", "matrices.matmul",
    "linalg.invert_rational", "linalg.det_bareiss",
) + COUNTED


class Tracer:
    """Span recorder for the package; install() patches, and undoes on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._names = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._names[obj] = f"{layer}.{attr}"

    def _wrap(self, fn, name):
        if name in COUNTED:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    @contextlib.contextmanager
    def install(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._names.items()}
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespaces = [vars(module)]
            namespaces += [v for k, v in vars(module).items()
                           if type(v) is dict and not k.startswith("__")]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        patched.append((ns, key, value))
                        ns[key] = wrappers[value]
        try:
            yield self
        finally:
            for ns, key, value in reversed(patched):
                ns[key] = value

    def take(self) -> tuple[list, Counter]:
        """Spans and counts recorded so far; the recorder starts empty again."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: list, counts: Counter) -> dict:
    """Self time per layer, inclusive time and calls per named function.

    A span's self time is its duration minus the durations of its direct
    children; none of the traced functions recurse, so inclusive sums per
    name do not double count.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive = defaultdict(float)
    calls = Counter(counts)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_s[name.partition(".")[0]] += end - start - child[index]
        inclusive[name] += end - start
        calls[name] += 1
    out = {f"{layer}.self_s": value for layer, value in self_s.items()}
    out.update({f"{name}.s": inclusive[name] for name in TIMED})
    out.update({f"{name}.calls": calls[name] for name in CALLED})
    out["matrices.generators.s"] = sum(inclusive[f"matrices.{g}"] for g in GENERATORS)
    return out
