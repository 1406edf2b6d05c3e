"""Span recorder for the traced benchmark run.

The layers are the modules of nearmiss4: cli, search, sequences and
identities, whose public functions are wrapped, and exactmath, whose
QuadElem operators are wrapped.  Each call becomes one span holding its
name, start, end, parent span and op id.  Spans stay in memory and are
written out after the op; nothing inside the program is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

WRAPPED_MODULES = ("cli", "search", "sequences", "identities")

# QuadElem attribute -> span name suffix.  Reflected operators are
# separate class attributes, so each is wrapped under its base name.
QUADELEM_OPS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__pow__": "pow",
    "inverse": "inverse",
}


class Tracer:
    """Records a span for every call of the functions it wraps.

    Calls are single-threaded and strictly nested, so the innermost open
    span is the parent of the next one.
    """

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        fn = inspect.getattr_static(owner, attr)
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()

        setattr(owner, attr, traced)

    def install(self, package: str = "nearmiss4") -> None:
        """Wrap every layer of the imported package in place."""
        for layer in WRAPPED_MODULES:
            module = importlib.import_module(f"{package}.{layer}")
            for attr in module.__all__:
                if inspect.isfunction(getattr(module, attr)):
                    self.wrap(module, attr, f"{layer}.{attr}")
        quad = importlib.import_module(f"{package}.exactmath").QuadElem
        for attr, op in QUADELEM_OPS.items():
            self.wrap(quad, attr, f"exactmath.{op}")

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds].

        Self time is a span's duration minus the time its direct child
        spans cover; children of one span never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_s
        return out

    def write(self, path: str) -> None:
        """One TSV line per span: op id, name, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{self.op_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
