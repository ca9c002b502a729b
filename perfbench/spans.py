"""Span tracing installed from outside the phasemax package.

`Tracer.installed` replaces chosen module functions and class methods with
timing wrappers for the duration of a `with` block and restores the originals
afterwards, so the program's source is never edited. Each wrapper appends one
span per call: name, start, end, index of the enclosing span (-1 at the top)
and the id of the unit of work (one recovery, one sweep call or one verify
call) it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

NAME, START, END, PARENT, OP, EXTRA = range(6)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr` is recorded as span `name`.

    new_op starts a new unit-of-work id at each call; extra(args, result), when
    given, stores a small value on the span (a size, an iteration count).
    """

    owner: Any
    attr: str
    name: str
    new_op: bool = False
    extra: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def wrap(self, fn, target: Target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, new_op, extra = target.name, target.new_op, target.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_op:
                self._op += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target that exists for the duration of a `with` block;
        yields the names of targets absent from this version of the program."""
        saved, missing = [], []
        try:
            for t in targets:
                raw = vars(t.owner).get(t.attr) if isinstance(t.owner, type) else getattr(t.owner, t.attr, None)
                if raw is None:
                    missing.append(t.name)
                elif isinstance(raw, classmethod):
                    saved.append((t.owner, t.attr, raw))
                    setattr(t.owner, t.attr, classmethod(self.wrap(raw.__func__, t)))
                else:
                    saved.append((t.owner, t.attr, raw))
                    setattr(t.owner, t.attr, self.wrap(raw, t))
            yield missing
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
