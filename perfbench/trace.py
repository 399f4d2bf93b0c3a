"""Run one job with a span around every public function of every layer.

    python perfbench/trace.py <spans.json> cli <diotuple argv...>
    python perfbench/trace.py <spans.json> lib <jobs.py items...>

The job's stdout is left exactly as the untraced job writes it.  Each
public function of `diotuple.{exact,core,search,bounds,sieve,ff,cli}` is
replaced by a wrapper in every `diotuple` module that holds a reference to
it (so `search.integer_kth_root`, bound by `from .exact import ...`, is
rebound too).  Spans (name, parent, start, end) are kept in memory and
written to <spans.json> when the job ends, together with the `lru_cache`
statistics and the result counters below.  Every wrapper is removed before
the file is written; a wrapper left behind is reported as `restored: false`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("exact", "core", "search", "bounds", "sieve", "ff", "cli")


def _scanned(args, kwargs, result):
    return {"ff.scanned": result.scanned}


def _usable(args, kwargs, result):
    return {"sieve.evaluations": 1, "sieve.usable": int(result.bound is not None)}


def _height(args, kwargs, result):
    budget = kwargs.get("budget", args[1] if len(args) > 1 else None)
    return {"search.multipliers": budget.height}


def _multipliers(args, kwargs, result):
    A = kwargs.get("A", args[0] if args else ())
    return {"search.multipliers": len(set(A))}


# counts taken from a call's arguments and result, where the work happens
HOOKS = {
    "ff.ff_scan_bipartite": _scanned,
    "sieve.gallagher_bound": _usable,
    "search.search_tuples": _height,
    "search.search_bipartite": _height,
    "search.candidates_for": _multipliers,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack, span_name, parent = self.stack, self.span_name, self.parent
        start, end, clock = self.start, self.end, time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return wrapper

    def install(self):
        targets = {}  # id(original) -> (qualified name, original)
        for layer in LAYERS:
            module = importlib.import_module(f"diotuple.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self.patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def remove(self) -> bool:
        for module, attr, original in self.patches:
            setattr(module, attr, original)
        return all(getattr(module, attr) is original
                   for module, attr, original in self.patches)

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "diotuple" or name.startswith("diotuple."))]

    def caches(self) -> dict:
        out = {}
        for layer in LAYERS:
            module = importlib.import_module(f"diotuple.{layer}")
            for attr, obj in vars(module).items():
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if defined_here and hasattr(obj, "cache_info"):
                    info = obj.cache_info()
                    out[f"{layer}.{attr}"] = {"hits": info.hits, "misses": info.misses}
        return out

    def document(self) -> dict:
        return {"names": self.names,
                "span_name": self.span_name.tolist(),
                "parent": self.parent.tolist(),
                "start": [t - self.origin for t in self.start],
                "end": [t - self.origin for t in self.end]}


def main(argv: list[str]) -> int:
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    import diotuple.cli  # noqa: F401  (imports every layer)
    if kind == "lib":
        import jobs
    imported = time.perf_counter() - tracer.origin
    tracer.install()
    try:
        if kind == "cli":
            rc = diotuple.cli.main(rest)
        else:
            rc = jobs.run(rest, sys.stdout)
    except SystemExit as exc:  # argparse exits on bad flags
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        restored = tracer.remove()
    doc = {"kind": kind, "exit": rc, "restored": restored, "import_s": imported,
           "counters": tracer.counters, "caches": tracer.caches(),
           **tracer.document()}
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
