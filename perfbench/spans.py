"""In-memory span recorder for the traced benchmark run.

A span is one timed call at a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it began (its
parent), and the id shared by every span of one run. Spans stay in memory
while the run works and are written out once, when it ends.

Spans are named ``<layer>.<stage>``; the layer is the harkit module the call
goes into. Self time is a span's duration minus the time its child spans
cover, so the self times of one tree add up to its root's duration.
"""
from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Recorder.spans
    error: str | None = None   # exception class name when the call raised
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        """End span ``index`` and any span still open inside it."""
        end = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = end
            if top == index:
                return
        raise ValueError(f"span {index} is not open")

    def top(self) -> int | None:
        """Index of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def top_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def timed(self, fn: Callable, name: str | Callable[..., str],
              attrs: Callable[..., dict] | None = None) -> Callable:
        """Wrap ``fn`` so each call is a span.

        ``name`` may be a function of the call's arguments. ``attrs``, given
        the result followed by the arguments, returns values stored on the
        span. A call that raises keeps its exception class on the span.
        """
        def traced(*args, **kwargs):
            index = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[index].error = type(exc).__name__
                raise
            finally:
                self.close(index)
            if attrs is not None:
                self.spans[index].attrs.update(attrs(result, *args, **kwargs))
            return result
        return traced

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until ``unpatch``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def roots(self) -> list[int]:
        """Index of each span's root span."""
        out: list[int] = []
        for index, s in enumerate(self.spans):  # parents precede children
            out.append(index if s.parent is None else out[s.parent])
        return out

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write(self, path: Path, meta: dict) -> None:
        payload = {
            "run_id": self.run_id,
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "error", "attrs"],
            "spans": [[s.name, s.start, s.end, s.parent, s.error, s.attrs]
                      for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
