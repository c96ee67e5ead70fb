"""Outside-in timing spans around the public functions of lpstats.

`Tracer.install()` wraps every function named in the `__all__` of each
layer module, plus the CLI's `render_json` and `cmd_*` handlers, and
rebinds each wrapper in every `lpstats.*` namespace that holds the original
function object. Without the rebinding, calls made from inside the package,
such as `cli.make_sample` or `copula.build_score_basis`, would escape the
trace. Classes in `__all__` are not wrapped: a wrapper would break
`isinstance` checks and dataclass construction. Nothing in the package is
edited; `uninstall()` puts every original back.

A span is (name, start, end, parent, invocation). A span's self time is its
duration minus the durations of its child spans; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass

# The modules that do work; `datasets` and `errors` do none.
LAYERS = ("cli", "empirical", "scores", "lp", "compdensity", "copula",
          "twosample")

# Counts read at a span's end from (args, result).
_VALUES = {
    "cli.ingest_csv": lambda args, result: os.path.getsize(args[0]),
    # render_json emits ASCII only (json.dumps escapes the rest), so its
    # length in characters is its length in bytes.
    "cli.render_json": lambda args, result: len(result),
    "compdensity.maxent_fit": lambda args, result: result.maxent_iterations,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    value: float | None = None


def traced_functions() -> dict:
    """Qualified name -> function object, for every function to wrap."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lpstats.{layer}")
        names = list(mod.__all__)
        if layer == "cli":
            names += ["render_json"] + sorted(
                k for k in vars(mod) if k.startswith("cmd_"))
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn):
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in traced_functions().items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lpstats"
                                   or modname.startswith("lpstats.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn):
        value_of = _VALUES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.invocation)
            if value_of is not None:
                spans[index].value = value_of(args, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def write_spans(fh, spans: list[Span]) -> None:
    """Write one CSV row per span to a text stream: index, name, start, end,
    parent, invocation, value; times in seconds on the perf_counter clock."""
    fh.write("index,name,start,end,parent,invocation,value\n")
    for i, s in enumerate(spans):
        parent = "" if s.parent is None else s.parent
        value = "" if s.value is None else s.value
        fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},"
                 f"{s.invocation},{value}\n")
