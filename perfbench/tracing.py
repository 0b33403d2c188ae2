"""In-memory span recorder for the traced benchmark run.

The recorder replaces module attributes with timing wrappers at run time and
puts the originals back afterwards, so the program's own source is never
edited.  A span is opened around each wrapped call; spans opened by a thread
with no open span of its own (shard workers) take as parent the innermost
open span of the thread that installed the recorder.
"""

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    meta: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; use as a context manager so that every
    attribute it replaced is restored on exit."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._patched = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, meta=None):
        """Run fn(*args, **kwargs) inside a span called name.  meta, if given,
        maps (args, kwargs, result) to a dict stored on the span."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        span = Span(name, 0.0, parent=parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if meta is not None:
            span.meta = meta(args, kwargs or {}, result)
        return result

    def wrap(self, owner, attr, name, meta=None):
        """Replace owner.attr by a wrapper that records a span per call.  A
        missing attribute is noted in .missing instead of raising."""
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, meta)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> dict:
    """Wall time attributed to each span, keyed by id(span).

    At each instant the innermost open spans (those with no open child) share
    the elapsed time equally, so concurrent shard threads split it and the
    attributed times of all spans sum to the wall time the root spans cover.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    points = sorted({t for span in spans for t in (span.start, span.end)})
    own = dict.fromkeys(map(id, spans), 0.0)
    for a, b in zip(points, points[1:]):
        active = [s for s in spans if s.start <= a and s.end >= b]
        leaves = [
            s
            for s in active
            if not any(c.start <= a and c.end >= b for c in children[id(s)])
        ]
        for span in leaves:
            own[id(span)] += (b - a) / len(leaves)
    return own
