"""Per-layer tracing installed from outside the package.

Every public function of every credalfans module is wrapped, and the
wrapper is bound in *each* module namespace that holds the original: the
modules import kernels by name (``from .exactla import solve_unique``), so
patching only the defining module would miss most calls. The small vector
helpers in ``SKIP`` are left alone; their cost is charged to the caller.

A wrapper records one span per call (name, start, end, parent). Spans are
folded into per-function aggregates as they close (calls, total seconds,
self seconds = span minus child spans), and the first ``keep_spans`` raw
spans are kept in memory for the trace file written at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("exactla", "polytope", "cones", "fanwalk", "credal", "chains2mono", "pri", "cli")
SKIP = frozenset({
    "rat", "format_rat", "vec", "zeros", "unit", "ones", "dot", "vadd", "vsub", "vscale",
    "vneg", "is_multiple",
})


def _modules():
    return [importlib.import_module(f"credalfans.{m}") for m in MODULES]


def _observers():
    """Result-dependent counters, keyed by traced function name."""
    return {
        "exactla.solve_nonneg": lambda res: {"feasible": res is not None},
        "cones.is_mesc": lambda res: {"true": bool(res)},
        "cones.are_adjacent": lambda res: {"true": bool(res)},
        "fanwalk.neighbor_candidates": lambda res: {"hit": bool(res)},
        "fanwalk.verify_graph": lambda res: {"not_ok": not res.ok},
        "pri.pri_neighbors": lambda res: {"emitted": len(res)},
        "pri.enumerate_extreme_pri": lambda res: {"new_cones": max(len(res[1].nodes) - 1, 0)},
    }


class Tracer:
    """Span recorder; ``install``/``uninstall`` swap the wrappers in and out."""

    def __init__(self, keep_spans: int = 50_000):
        self.keep_spans = keep_spans
        self.spans: list = []
        self.dropped = 0
        self.agg: dict = {}        # name -> [calls, total_s, self_s]
        self.counters: dict = {}   # "name.key" -> count
        self.edges: dict = {}      # (parent name, child name) -> calls
        self._stack: list = []     # [name, child_s] per open span
        self._saved: list = []     # (namespace, attr, original)
        self._observe = _observers()

    def _wrap(self, name, fn):
        observe = self._observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                a = self.agg.get(name)
                if a is None:
                    a = self.agg[name] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                key = (parent, name)
                self.edges[key] = self.edges.get(key, 0) + 1
                if len(self.spans) < self.keep_spans:
                    self.spans.append((name, t0, t1, parent))
                else:
                    self.dropped += 1
            if observe is not None:
                for k, v in observe(result).items():
                    ck = f"{name}.{k}"
                    self.counters[ck] = self.counters.get(ck, 0) + int(v)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if attr in SKIP or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def merge(self, other: dict):
        """Fold in the ``snapshot()`` of a tracer from another process."""
        for name, (calls, total, self_s) in other["agg"].items():
            a = self.agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for k, v in other["counters"].items():
            self.counters[k] = self.counters.get(k, 0) + v
        for parent, child, calls in other["edges"]:
            self.edges[(parent, child)] = self.edges.get((parent, child), 0) + calls
        room = max(self.keep_spans - len(self.spans), 0)
        self.spans.extend(tuple(s) for s in other["spans"][:room])
        self.dropped += other["dropped"] + max(len(other["spans"]) - room, 0)

    def snapshot(self) -> dict:
        return {
            "agg": self.agg,
            "counters": self.counters,
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def dump(self, path, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta, **self.snapshot()}, fh)

    # ------------------------------------------------------------ metrics

    def calls(self, name) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def module_self_s(self, module) -> float:
        return sum(a[2] for n, a in self.agg.items() if n.split(".")[0] == module)

    def ratio(self, counter, name) -> float:
        """counter / calls of name; 0 when name was never called."""
        calls = self.calls(name)
        return self.counters.get(f"{name}.{counter}", 0) / calls if calls else 0.0

    def child_calls(self, parent, child) -> int:
        return self.edges.get((parent, child), 0)
