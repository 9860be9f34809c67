"""In-memory spans around layerchain's public callables, recorded from outside.

The tracer replaces a callable at the name its caller looks up (a module
global such as ``monotonicity.certify_sign``, or a class attribute such as
``Polynomial.exact_div``) with a wrapper that records one span per call:
id, parent id, name, start and end.  Calls are synchronous and run in one
thread, so a span's children lie inside it and do not overlap, and its self
time is its duration minus theirs.  The originals are restored on exit.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` is recorded under ``name``.

    ``observe`` maps each return value to a small value kept for the
    layer metrics (a verdict, a state count), so results are not retained.
    """

    owner: Any
    attr: str
    name: str
    observe: Optional[Callable[[Any], Any]] = None


@dataclass(frozen=True)
class Totals:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    def __init__(self):
        self.spans: list[Optional[tuple[int, int, str, float, float]]] = []
        self.observed: dict[str, list] = defaultdict(list)
        self._stack = [-1]

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans, stack, observed = self.spans, self._stack, self.observed[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id now, so ids follow start order
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end)
            if observe is not None:
                observed.append(observe(result))
            return result

        return traced

    @contextmanager
    def patched(self, targets: list[Target]):
        saved = []
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(t.name, original, t.observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, Totals]:
        """Calls, inclusive time and self time per span name."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[span_id]
        return {name: Totals(calls[name], total[name], own[name]) for name in calls}

    def write(self, path: Path, trace_id: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "start", "end")
        with path.open("w") as out:
            json.dump(
                {"trace_id": trace_id, "spans": [dict(zip(fields, s)) for s in self.spans]},
                out,
            )
