"""In-memory spans around the benchmark's calls into the library.

A span has a name, a start, an end, a parent and an operation id.  Names
are "<module>.<function>" for calls into simclass (cli.* for a CLI
process) and "bench.*" for the benchmark's own work, so self time can be
summed per module.  With tracing off, span() hands back one shared no-op
context and call() calls straight through.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, op]
        self._stack = []

    def span(self, name: str, op=None):
        return self._span(name, op) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str, op):
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        rec = [name, time.perf_counter(), None, parent, op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name, None):
            return fn(*args, **kwargs)

    def self_times(self) -> dict:
        """Seconds per module of each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (end - start - c)
        return out

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
