"""Per-layer tracing of chaink0 from outside the program.

A Recorder replaces the public functions and methods of every chaink0
module with wrappers, at every place a function is bound: the defining
module, each module that imported it by name, and the package namespace.
Nothing under src/ changes; `restore` puts every original back.

Two modes, run as separate passes over the same operations:

- spans: each wrapped call is a span.  A layer's self time is the summed
  duration of its spans minus the time of the spans they directly
  contain.  The rings module is not wrapped here: its methods run once per
  matrix entry, and a wrapper there would swamp the times it measures.
  Ring arithmetic is therefore part of its caller's self time.
- counts: no clock is read.  Every wrapped call is counted, and so are
  RingElement arithmetic and Ring comparison; a few hooks record sizes
  (matmul products, SNF cells, transform bit-lengths, instant F ranks,
  report bytes).
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("cli", "complexes", "constructions", "corpus", "documents",
           "instant", "intlinalg", "matrices", "projective", "rings",
           "verdicts")

# Operators that do whole-object work (not per-entry access) and so are
# wrapped like public methods.
OPERATORS = ("__init__", "__matmul__", "__add__", "__sub__", "__neg__",
             "__eq__")

# Counted in the rings module: element arithmetic and ring comparison.
RING_ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__neg__")


def _int_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            b = abs(x).bit_length()
            if b > best:
                best = b
    return best


class Recorder:
    """Installs wrappers on chaink0 and accumulates what they observe."""

    def __init__(self, mode: str):
        if mode not in ("spans", "counts"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.calls: Counter = Counter()          # "module.qualname" -> calls
        self.self_s: defaultdict = defaultdict(float)   # module -> seconds
        self.inclusive_s: defaultdict = defaultdict(float)  # qualname -> s
        self.sizes: Counter = Counter()          # hook totals and maxima
        self._stack: list[float] = []
        self._undo: list[tuple] = []
        self._hooks = self._size_hooks()

    # --- wrappers ---------------------------------------------------------
    def _timed(self, layer: str, key: str, fn):
        stack, calls = self._stack, self.calls
        self_s, inclusive_s = self.self_s, self.inclusive_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                self_s[layer] += dt - inner
                inclusive_s[key] += dt
                if stack:
                    stack[-1] += dt

        return wrapper

    def _counted(self, key: str, fn):
        calls, hook = self.calls, self._hooks.get(key)
        if hook is None:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                out = fn(*args, **kwargs)
                hook(out, *args, **kwargs)
                return out
        return wrapper

    def _size_hooks(self) -> dict:
        sizes = self.sizes

        def matmul(out, a, b):
            sizes["matmul_products"] += a.rows * a.cols * b.cols

        def snf(out, m, cols=None):
            rows = len(m)
            width = cols if cols is not None else (len(m[0]) if rows else 0)
            sizes["snf_cells"] += rows * width
            bits = max(_int_bits(out.u), _int_bits(out.v),
                       _int_bits(out.u_inv), _int_bits(out.v_inv))
            sizes["snf_max_bits"] = max(sizes["snf_max_bits"], bits)

        def instant(out, d):
            sizes["F_rank_max"] = max(sizes["F_rank_max"], out.F_rank)

        def canonical(out, obj):
            sizes["report_bytes"] += len(out.encode("utf-8"))

        return {"matrices.Mat.__matmul__": matmul,
                "intlinalg.smith_normal_form": snf,
                "instant.build_instant": instant,
                "documents.canonical_json": canonical}

    def _wrap(self, layer: str, key: str, fn):
        if self.mode == "spans":
            wrapper = self._timed(layer, key, fn)
        else:
            wrapper = self._counted(key, fn)
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # --- installation -----------------------------------------------------
    def _wrap_class(self, layer: str, cls, names) -> None:
        for attr, val in list(vars(cls).items()):
            if attr not in names:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self._wrap(layer, key, val.__func__)))
            elif isinstance(val, property) and val.fget is not None:
                self._set(cls, attr, property(self._wrap(layer, key, val.fget),
                                              val.fset, val.fdel, val.__doc__))
            elif inspect.isfunction(val):
                self._set(cls, attr, self._wrap(layer, key, val))

    def install(self) -> "Recorder":
        """Wrap every public function and method; returns self."""
        package = importlib.import_module("chaink0")
        mods = {name: importlib.import_module(f"chaink0.{name}") for name in MODULES}
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            if layer == "rings":
                if self.mode == "counts":
                    self._wrap_ring_counts(mod)
                continue
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    public = {a for a in vars(obj) if not a.startswith("_")}
                    self._wrap_class(layer, obj, public | set(OPERATORS))
        # Every binding site of a wrapped function, the package included.
        for mod in [package, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, wrapper)
        return self

    def _wrap_ring_counts(self, rings) -> None:
        self._wrap_class("rings", rings.RingElement, set(RING_ELEMENT_OPS))
        for obj in vars(rings).values():
            if inspect.isclass(obj) and issubclass(obj, rings.Ring):
                self._wrap_class("rings", obj, {"__eq__"})

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- summaries ----------------------------------------------------------
    def summary(self) -> dict:
        """Plain-data snapshot, mergeable with `merge_summaries`."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "inclusive_s": dict(self.inclusive_s), "sizes": dict(self.sizes)}


MAX_SIZES = ("snf_max_bits", "F_rank_max")


def merge_summaries(parts) -> dict:
    """Sum calls and times over several summaries; sizes add, maxima max."""
    out = {"calls": Counter(), "self_s": Counter(), "inclusive_s": Counter(),
           "sizes": Counter()}
    for part in parts:
        for field in ("calls", "self_s", "inclusive_s"):
            out[field].update(part[field])
        for k, v in part["sizes"].items():
            if k in MAX_SIZES:
                out["sizes"][k] = max(out["sizes"][k], v)
            else:
                out["sizes"][k] += v
    return out
