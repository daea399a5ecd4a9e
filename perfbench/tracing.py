"""Spans for the traced run, recorded from the benchmark's own code.

The traced run replaces public yansql functions with wrappers at the
module attribute their callers look them up through (`cli.compile_sql`,
`pipeline.flat_gyo`, ...), so no file under src/ changes.  Each wrapper
records one span: name, start, end, parent span and the operation it
belongs to.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time covered by its child
spans; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    span_id: int
    parent: int          # 0 for a root span
    op: int              # operation id shared by every span of one call
    pass_no: int
    name: str
    start_ns: int
    end_ns: int
    attrs: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.pass_no = 0
        self._stack: list = []
        self._next_id = 1
        self._op = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, attrs=None):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(span_id, parent, self._op, self.pass_no,
                               name, start, end, attrs))

    def begin_op(self, kind: str) -> tuple:
        """Open the root span of one benchmark operation."""
        self._op += 1
        span_id, parent = self._open()
        return span_id, parent, f"op.{kind}", time.perf_counter_ns()

    def end_op(self, token: tuple):
        span_id, parent, name, start = token
        self._close(span_id, parent, name, start)

    def span(self, name: str, fn: Callable, *args):
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, name: str, fn: Callable,
             attrs_of: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                attrs = None
                if attrs_of is not None and result is not None:
                    attrs = attrs_of(args, kwargs, result)
                tracer.spans.append(Span(span_id, parent, tracer._op,
                                         tracer.pass_no, name, start, end,
                                         attrs))

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets):
        """Replace each (module, attribute, span name, attrs_of) target."""
        for module, attr, name, attrs_of in targets:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, attrs_of))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_seconds(self) -> dict:
        """span id -> self time in seconds."""
        child = defaultdict(int)
        for s in self.spans:
            if s.parent:
                child[s.parent] += s.end_ns - s.start_ns
        return {s.span_id: (s.end_ns - s.start_ns - child[s.span_id]) / 1e9
                for s in self.spans}

    def op_kinds(self) -> dict:
        """operation id -> kind, read from the operation's root span."""
        return {s.op: s.name[3:] for s in self.spans
                if s.parent == 0 and s.name.startswith("op.")}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "op": s.op,
                    "pass": s.pass_no, "name": s.name,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")
