"""Per-layer tracing of the ncworlds package, applied from outside it.

``Tracer.install`` replaces every public function, method, static method and
arithmetic operator of each layer module with a wrapper, and rebinds every
name that held the original: aliases such as ``__rmul__ = __mul__``, names
imported into other modules (``parser.reduce_poly``, ``parser.symmetrize``,
``cli.parse``), the package's re-exports and functions stored in module
dictionaries such as ``suites.SUITES``. ``uninstall`` puts the originals back.

A call that enters a layer from another layer (or from the benchmark) opens
a span: name, request id, parent span, start and end. A call from a layer
into itself runs the original directly and opens no span, so a layer's
self time is its spans' durations minus the time their child spans cover,
less the wrappers' own cost as measured by ``wrapper_cost``.
Spans are kept in memory in flat arrays and written out at the end.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import statistics
import sys
import time
from array import array

LAYERS = ("scalar", "ncpoly", "quotient", "parser", "skewdiff", "constraints",
          "iterant", "suites", "cli")
PACKAGE = "ncworlds"
COST_CALLS, COST_REPEATS = 20000, 5     # about 0.3 s of calibration

# Operators wrapped besides the public names. Comparison and hashing are
# left alone: they are called as dictionary mechanics, not as layer calls.
OPERATORS = frozenset({"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__neg__", "__pow__"})

COUNTERS = ("scalar.mul_calls", "scalar.add_calls", "ncpoly.mul_pairs",
            "ncpoly.mul_terms_out", "quotient.calls", "quotient.terms_in",
            "quotient.terms_out", "quotient.scalar_muls", "quotient.errors",
            "parser.chars", "skewdiff.points", "skewdiff.window_errors",
            "constraints.sym_products", "constraints.sym_terms_out",
            "constraints.derive_adds", "iterant.mul_calls")


def _size(x) -> int:
    """Number of stored terms of a polynomial (its canonical term map)."""
    return len(x._terms)


def _noop(a, b):
    return None


def wrapper_cost() -> dict[str, float]:
    """Seconds the wrapper adds to one call, measured on a wrapped no-op of
    two arguments (most wrapped calls are binary operators).

    "in" is the part inside a span's [start, end] (charged to the called
    layer), "out" the rest of a span-opening call (charged to the caller's
    layer) and "pass" a call from a layer into itself. Each is the median
    over COST_REPEATS loops of COST_CALLS calls, less the same loop of bare
    calls.
    """
    probe = Tracer()
    ix = LAYERS.index("cli")
    wrapped = probe._wrap("cli", "noop", _noop)
    clock, calls, n = time.perf_counter, range(COST_CALLS), COST_CALLS
    out: dict[str, list[float]] = {"in": [], "out": [], "pass": []}
    for _ in range(COST_REPEATS):
        t0 = clock()
        for _ in calls:
            pass
        t1 = clock()
        for _ in calls:
            _noop(1, 2)
        t2 = clock()
        before = probe.self_s[ix]
        probe._stack.append([ix - 1, -1, 0.0])     # called from another layer
        for _ in calls:
            wrapped(1, 2)
        t3 = clock()
        probe._stack[-1] = [ix, -1, 0.0]           # called from its own layer
        for _ in calls:
            wrapped(1, 2)
        t4 = clock()
        probe._stack.pop()
        bare = t2 - t1
        inside = probe.self_s[ix] - before - (bare - (t1 - t0))
        out["in"].append(inside / n)
        out["out"].append((t3 - t2 - bare - inside) / n)
        out["pass"].append((t4 - t3 - bare) / n)
    return {key: statistics.median(values) for key, values in out.items()}


class Tracer:
    def __init__(self):
        self.request = 0
        self.calls = [0] * len(LAYERS)
        self.passes = [0] * len(LAYERS)   # wrapped calls from a layer into itself
        # wrapper cost per call at the reference speed; see wrapper_cost()
        self.cost = {"in": 0.0, "out": 0.0, "pass": 0.0}
        self.self_s = [0.0] * len(LAYERS)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.names: list[str] = []
        # one entry per span
        self.span_request = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []      # open spans: [layer, span id, child time]
        self._open = {"reduce_poly": 0, "symmetrize": 0, "derive": 0}
        self._restore: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _hooked(self, layer: str, qualname: str, fn):
        """The original with this function's counters around it."""
        counts, opened = self.counts, self._open
        module = sys.modules[f"{PACKAGE}.{layer}"]

        if qualname == "Scalar.__mul__":
            def hooked(*args, **kwargs):
                counts["scalar.mul_calls"] += 1
                if opened["reduce_poly"]:
                    counts["quotient.scalar_muls"] += 1
                return fn(*args, **kwargs)
        elif qualname == "Scalar.__add__":
            def hooked(*args, **kwargs):
                counts["scalar.add_calls"] += 1
                return fn(*args, **kwargs)
        elif qualname == "NcPoly.__mul__":
            poly = module.NcPoly

            def hooked(a, b):
                out = fn(a, b)
                if isinstance(b, poly):
                    counts["ncpoly.mul_pairs"] += _size(a) * _size(b)
                    counts["ncpoly.mul_terms_out"] += _size(out)
                    if opened["symmetrize"]:
                        counts["constraints.sym_products"] += 1
                return out
        elif qualname == "reduce_poly":
            error = module.ReductionError

            def hooked(e, *args, **kwargs):
                counts["quotient.calls"] += 1
                counts["quotient.terms_in"] += _size(e)
                opened["reduce_poly"] += 1
                try:
                    out = fn(e, *args, **kwargs)
                except error:
                    counts["quotient.errors"] += 1
                    raise
                finally:
                    opened["reduce_poly"] -= 1
                counts["quotient.terms_out"] += _size(out)
                return out
        elif qualname == "parse":
            def hooked(src, *args, **kwargs):
                counts["parser.chars"] += len(src)
                return fn(src, *args, **kwargs)
        elif layer == "skewdiff":
            sequence = module.Sequence

            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                if isinstance(out, sequence):
                    counts["skewdiff.points"] += len(out)
                return out
        elif qualname in ("symmetrize", "CPoly.derive"):
            key = "symmetrize" if qualname == "symmetrize" else "derive"

            def hooked(*args, **kwargs):
                opened[key] += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    opened[key] -= 1
                if key == "symmetrize":
                    counts["constraints.sym_terms_out"] += _size(out)
                return out
        elif qualname == "CPoly.__add__":
            def hooked(*args, **kwargs):
                if opened["derive"]:
                    counts["constraints.derive_adds"] += 1
                return fn(*args, **kwargs)
        elif qualname == "IterantElement.__mul__":
            def hooked(*args, **kwargs):
                counts["iterant.mul_calls"] += 1
                return fn(*args, **kwargs)
        else:
            return fn
        return hooked

    def _wrap(self, layer: str, qualname: str, fn):
        inner = self._hooked(layer, qualname, fn)
        ix = LAYERS.index(layer)
        name_id = len(self.names)
        self.names.append(f"{layer}:{qualname}")
        stack, calls, passes, self_s = self._stack, self.calls, self.passes, self.self_s
        s_req, s_par, s_name = self.span_request, self.span_parent, self.span_name
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter
        window_error = sys.modules[f"{PACKAGE}.skewdiff"].WindowError if layer == "skewdiff" else ()
        counts = self.counts

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == ix:
                passes[ix] += 1
                return inner(*args, **kwargs)
            span = len(s_start)
            s_req.append(self.request)
            s_par.append(stack[-1][1] if stack else -1)
            s_name.append(name_id)
            s_start.append(0.0)
            s_end.append(0.0)
            calls[ix] += 1
            frame = [ix, span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            except window_error:
                counts["skewdiff.window_errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self_s[ix] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                s_start[span] = t0
                s_end[span] = t1

        return wrapper

    def _targets(self):
        """(owner, attribute, layer, name prefix) for everything to wrap."""
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, name, layer, ""
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    generated = dataclasses.is_dataclass(obj)
                    for attr, value in list(vars(obj).items()):
                        if attr == "__init__" and generated:
                            continue
                        if attr.startswith("_") and attr not in OPERATORS:
                            continue
                        if isinstance(value, (staticmethod, classmethod)) or inspect.isfunction(value):
                            yield obj, attr, layer, f"{name}."

    def install(self) -> None:
        wrappers: dict[int, object] = {}       # id(original function) -> wrapper
        for owner, attr, layer, prefix in self._targets():
            value = vars(owner)[attr]
            fn = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
            if id(fn) not in wrappers:
                # an alias such as __rmul__ is named after the function it binds
                wrappers[id(fn)] = self._wrap(layer, prefix + fn.__name__, fn)
            new = wrappers[id(fn)]
            if isinstance(value, (staticmethod, classmethod)):
                new = type(value)(new)
            self._restore.append((owner, attr, value))
            setattr(owner, attr, new)
        # every other binding of a wrapped function: imports and dict entries
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in wrappers:
                            self._restore.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def net_self_s(self, scale: float) -> list[float]:
        """Each layer's self time, times ``scale`` (reference seconds per
        second), less the wrapper cost charged to it: its spans' inner part,
        the outer part of the spans it opened in other layers, and its calls
        into itself."""
        layer_of = [LAYERS.index(name.partition(":")[0]) for name in self.names]
        opened = [0] * len(LAYERS)
        for parent in self.span_parent:
            if parent >= 0:
                opened[layer_of[self.span_name[parent]]] += 1
        cost = self.cost
        return [self.self_s[ix] * scale - self.calls[ix] * cost["in"] - opened[ix] * cost["out"]
                - self.passes[ix] * cost["pass"] for ix in range(len(LAYERS))]

    def metrics(self, scale: float) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for ix, (layer, self_s) in enumerate(zip(LAYERS, self.net_self_s(scale))):
            if layer != "quotient":
                out[f"{layer}.calls"] = (self.calls[ix], "count")
            out[f"{layer}.self_s"] = (self_s, "s")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        muls = self.counts["quotient.scalar_muls"]
        out["quotient.yield"] = (self.counts["quotient.terms_out"] / muls if muls else 0.0,
                                 "ratio")
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, request, parent, function, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\trequest\tparent\tfunction\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_request[i]}\t{self.span_parent[i]}\t"
                         f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\n")
