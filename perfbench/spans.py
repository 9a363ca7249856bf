"""Layer spans recorded from outside the program.

A :class:`SpanRecorder` wraps public functions of the program under test
(module attributes or class methods) so that every call records a span:
name, start, end and the span that was open when it began on the same
thread.  Spans live in memory; :meth:`SpanRecorder.write` dumps them
once the run ends.  :func:`self_times` gives each span's duration minus
the part of it that its child spans cover.

The recorder changes nothing the wrapped functions compute.  It is only
installed for the traced run, and :meth:`SpanRecorder.uninstall` puts
the original attributes back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans around wrapped calls, one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn: Callable, args, kwargs, on_return=None):
        """Run ``fn`` inside a span; ``on_return(result, args, kwargs)``
        sees the result after the span has closed.  ``name`` is a string
        or a function of ``(args, kwargs)``."""
        if callable(name):
            name = name(args, kwargs)
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if on_return is not None:
            on_return(result, args, kwargs)
        return result

    def wrap(self, owner: Any, attr: str, name, on_return=None) -> None:
        """Replace ``owner.attr`` (of a module, class or object) with a
        span-recording wrapper."""
        original = vars(owner)[attr]
        target = getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            return self.call(name, target, args, kwargs, on_return)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end,
                }) + "\n")


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
            if end > span.start and start < span.end
        ]
        out.append(span.duration - covered(clipped))
    return out
