"""In-memory spans around the benchmark's calls into deltasieve.

A span records name (``module.function``), start, end, parent span and run
id.  Spans stay in a list until the run ends; ``run.py`` writes them out.
With ``enabled=False`` a call goes straight through, so the untraced passes
that give the end-to-end metrics pay nothing for tracing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "tags": tags,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, tags: dict | None = None, memory=False, **kwargs):
        """fn(*args, **kwargs) inside a span.  With ``memory`` the span keeps
        the call as ``probe`` so that its peak memory can be measured later,
        outside the timed pass."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, **(tags or {})):
            if memory:
                self.spans[-1]["probe"] = (fn.__module__, fn.__name__, args, kwargs)
            return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
