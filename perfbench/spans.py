"""In-memory span recorder around the public functions of the whsic modules.

Each span is a list [name, start, end, parent, op_id]: the traced function's
"<layer>.<function>" name, perf_counter start and end, the index of the span
that was open when it started (-1 for none) and the id of the benchmark op it
belongs to. Spans stay in memory until `dump` writes them out.

Wrapping replaces every module-level binding of a public function in every
loaded whsic module, so calls made through `from .x import f` bindings and
module globals are recorded too. Calls through methods and local aliases are
not.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "fileio", "weyl", "clifford", "monomial", "adapted16",
          "sic", "mub", "crt")

# O(1) index helpers called once per matrix entry; a span per call would
# swamp the timings of the functions that call them.
UNTRACED = frozenset({"monomial.flatten", "monomial.vector_order"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        # an exception raised between begin and the caller's try (a timeout
        # alarm) can leave deeper entries behind; drop them with this span
        del self._stack[self._stack.index(idx):]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"whsic.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "whsic" and not modname.startswith("whsic."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def adopt(self, child_spans: list[list], parent: int, op_id: int) -> None:
        """Append spans recorded in another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, _ in child_spans:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par, op_id])

    def self_times(self, first: int = 0) -> dict:
        """Per-function call count, total and self seconds over spans[first:].

        Self time is a span's duration minus the durations of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first and end is not None:
                child[parent] += end - start
        table: dict[str, list] = {}
        for idx in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[idx]
            if end is None:
                continue
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(table.items())}

    def dump(self, path, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id"],
                       "spans": self.spans, **(extra or {})}, fh)
