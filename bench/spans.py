"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` wraps the public functions of each orbhilb module at
run time, in every orbhilb.* namespace that binds them (``from .x import f``
copies the name), plus LaurentPoly.__mul__ and RationalFn.__add__ on their
classes and `delta` outside its lru_cache.  Each call records a span
(id, parent, item, name, start, end) in memory; `restore()` puts every
original object back.  The interpreter of an untraced run never installs
it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric name); attribute "Class.method" patches a class
TARGETS = [
    ("exactpoly", "LaurentPoly.__mul__", "exactpoly.mul"),
    ("exactpoly", "RationalFn.__add__", "exactpoly.RationalFn.add"),
    ("exactpoly", "poly_divmod", "exactpoly.poly_divmod"),
    ("exactpoly", "exact_div", "exactpoly.exact_div"),
    ("exactpoly", "poly_gcd", "exactpoly.poly_gcd"),
    ("exactpoly", "poly_ext_gcd", "exactpoly.poly_ext_gcd"),
    ("exactpoly", "reduce_to_window", "exactpoly.reduce_to_window"),
    ("exactpoly", "expand", "exactpoly.expand"),
    ("exactpoly", "is_gorenstein_symmetric", "exactpoly.is_gorenstein_symmetric"),
    ("invmod", "build_modulus", "invmod.build_modulus"),
    ("invmod", "inv_mod", "invmod.inv_mod"),
    ("dedekind", "delta", "dedekind.delta"),
    ("dedekind", "sigma", "dedekind.sigma"),
    ("icecream", "p_orb", "icecream.p_orb"),
    ("icecream", "p_orb_general", "icecream.p_orb_general"),
    ("icecream", "porb_minus_dedekind", "icecream.porb_minus_dedekind"),
    ("hilbert", "parse_main", "hilbert.parse_main"),
    ("hilbert", "k3_series", "hilbert.k3_series"),
    ("hilbert", "fano3_series", "hilbert.fano3_series"),
    ("cy3", "cy3_ice_parts", "cy3.cy3_ice_parts"),
    ("cy3", "cy3_rr_fit", "cy3.cy3_rr_fit"),
    ("cy3", "_solve_exact", "cy3._solve_exact"),
    ("cli", "run", "cli.run"),
]

# per-layer metrics reported by the traced run: (name, unit)
CALL_METRICS = [
    "exactpoly.mul", "exactpoly.poly_divmod", "exactpoly.reduce_to_window",
    "invmod.build_modulus", "invmod.inv_mod", "dedekind.delta",
    "icecream.p_orb_general", "hilbert.parse_main", "cli.run",
]
SELF_METRICS = [
    "exactpoly.mul", "exactpoly.RationalFn.add", "exactpoly.poly_divmod",
    "exactpoly.exact_div", "exactpoly.poly_gcd", "exactpoly.poly_ext_gcd",
    "exactpoly.reduce_to_window", "exactpoly.expand", "exactpoly.is_gorenstein_symmetric",
    "invmod.build_modulus", "invmod.inv_mod", "dedekind.delta", "dedekind.sigma",
    "icecream.p_orb", "icecream.p_orb_general", "icecream.porb_minus_dedekind",
    "hilbert.parse_main", "hilbert.k3_series", "hilbert.fano3_series",
    "cy3.cy3_ice_parts", "cy3.cy3_rr_fit", "cy3._solve_exact", "cli.run",
]
COUNT_METRICS = [
    "exactpoly.mul.term_products", "dedekind.delta.distinct",
    "hilbert.parse_main.rejected", "cy3._solve_exact.unknowns", "cli.stdout_bytes",
]


def metric_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in CALL_METRICS}
    units.update({f"{name}.self_s": "s" for name in SELF_METRICS})
    units.update({name: "count" for name in COUNT_METRICS})
    units["cli.stdout_bytes"] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    return units


def _nterms(x) -> int:
    support = getattr(x, "support", None)
    if support is not None:
        return len(support)
    return 1 if x else 0


class Tracer:
    """Span recorder; one instance per traced run, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._delta_args: set = set()
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        before = self._before_hooks().get(name)
        on_error = self._error_hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else -1
            if before is not None:
                before(args)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.item, idx, start, end))

        wrapper.__bench_wrapped__ = True
        return wrapper

    def _before_hooks(self):
        counts = self.counts

        def mul(args):
            counts["exactpoly.mul.term_products"] += _nterms(args[0]) * _nterms(args[1])

        def delta(args):
            self._delta_args.add(args[0])

        def solve(args):
            counts["cy3._solve_exact.unknowns"] += len(args[0])

        return {"exactpoly.mul": mul, "dedekind.delta": delta, "cy3._solve_exact": solve}

    def _error_hooks(self):
        counts = self.counts

        def parse_main(exc):
            if type(exc).__name__ == "DecompositionError":
                counts["hilbert.parse_main.rejected"] += 1

        return {"hilbert.parse_main": parse_main}

    @staticmethod
    def _namespaces():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "orbhilb" or name.startswith("orbhilb."))]

    def install(self) -> None:
        import orbhilb.cli  # noqa: F401  (every orbhilb module is loaded from here on)

        for module, attr, name in TARGETS:
            mod = sys.modules[f"orbhilb.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                wrapper = self._wrap(name, original)
                for key, value in list(vars(cls).items()):
                    if value is original:  # __rmul__ = __mul__ binds it twice
                        self._patched.append((cls, key, original))
                        setattr(cls, key, wrapper)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for ns in self._namespaces():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    @classmethod
    def leftover_wrappers(cls) -> list[str]:
        """Names in orbhilb namespaces or classes still bound to a wrapper."""
        found = []
        for ns in cls._namespaces():
            for key, value in vars(ns).items():
                if getattr(value, "__bench_wrapped__", False):
                    found.append(f"{ns.__name__}.{key}")
                if isinstance(value, type):
                    for ckey, cval in vars(value).items():
                        if getattr(cval, "__bench_wrapped__", False):
                            found.append(f"{ns.__name__}.{key}.{ckey}")
        return found

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[tuple[int, int, int, float, float]]:
        """(span id, item, name index, duration, self time) per span."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(sid, item, idx, end - start, end - start - child[sid])
                for sid, parent, item, idx, start, end in self.spans]

    def layer_metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for _, _, idx, _, own in self.self_times():
            calls[self.names[idx]] += 1
            self_s[self.names[idx]] += own
        out: dict[str, float] = {}
        for name in CALL_METRICS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_METRICS:
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        out["dedekind.delta.distinct"] = len(self._delta_args)
        return out
