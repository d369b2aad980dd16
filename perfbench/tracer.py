"""In-memory spans around the program's public functions.

A span records a name, start, end, its parent span and the request (the
outermost span) it belongs to, plus counts taken at the same boundary.
Spans are wrapped from the outside by replacing module attributes, so the
program itself carries no tracing code; `Tracer.restore` puts every
original back.
"""

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None   # index into Tracer.spans
    request: int = 0               # index of the outermost span
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self._pending: List[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        request = idx if parent is None else self.spans[parent].request
        self.spans.append(Span(name, time.perf_counter(), parent=parent, request=request))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def count(self, idx: int, key: str, value: float) -> None:
        counts = self.spans[idx].counts
        counts[key] = counts.get(key, 0.0) + value

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Replace owner.attr by a spanned call. An exception adds the count
        `raised` to the span and propagates. on_result(tracer, span, args,
        result) may add counts; it runs once the request's outermost span
        has closed, so its own cost falls inside no span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.count(idx, "raised", 1)
                self._close(idx)
                raise
            if on_result is not None:
                self._pending.append((on_result, idx, args, result))
            self._close(idx)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def _close(self, idx: int) -> None:
        self.end(idx)
        if not self._stack:
            pending, self._pending = self._pending, []
            for on_result, i, args, result in pending:
                on_result(self, i, args, result)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def write(self, path: str) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request, "counts": s.counts} for s in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f)


def self_time(spans: List[Span], idx: int, kids: Dict[int, List[int]]) -> float:
    """Span duration minus the part of its interval its children cover."""
    span = spans[idx]
    covered = 0.0
    reach = span.start
    for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids.get(idx, [])):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered
