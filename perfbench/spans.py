"""In-memory spans recorded around calls into the program's public functions.

A :class:`Tracer` replaces a function where its caller looks it up (a module
attribute or a class attribute) with a wrapper that opens a span, calls the
original and closes the span.  Spans carry name, start, end, parent (the
enclosing span of the same thread), the run id and an optional request id;
they stay in memory until :meth:`Tracer.dump` writes them out.  A span's
self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    rid: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one run; installs and removes the wrappers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, rid: int | None = None, **attrs) -> Span:
        parent = self.current()
        if rid is None and parent is not None:
            rid = parent.rid
        sp = Span(next(self._ids), name, time.perf_counter(),
                  parent=None if parent is None else parent.sid,
                  rid=rid, attrs=attrs)
        self._stack().append(sp)
        return sp

    def end(self, sp: Span, **attrs) -> None:
        sp.end = time.perf_counter()
        sp.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is sp:
            stack.pop()
        with self._lock:
            self.spans.append(sp)

    def record(self, name: str, start: float, end: float, *,
               parent: int | None = None, rid: int | None = None,
               **attrs) -> Span:
        """Add a span measured elsewhere (e.g. a request's queue wait)."""
        sp = Span(next(self._ids), name, start, end, parent, rid, attrs)
        with self._lock:
            self.spans.append(sp)
        return sp

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None) -> None:
        """Trace ``owner.attr``.  ``before(args, kwargs)`` runs ahead of the
        call and its value reaches ``after(span, args, kwargs, result, ctx)``,
        which runs once the span is closed and may set attributes on it."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            sp = tracer.begin(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.end(sp)
            if after is not None:
                after(sp, args, kwargs, out, ctx)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def finished(self) -> list[Span]:
        with self._lock:
            return list(self.spans)

    def self_seconds(self) -> dict[int, float]:
        """Self time of every span: duration minus its children's union."""
        spans = self.finished()
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in spans:
            covered, cursor = 0.0, s.start
            for a, b in sorted(kids.get(s.sid, ())):
                a, b = max(a, cursor, s.start), min(b, s.end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[s.sid] = s.seconds - covered
        return out

    def table(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total seconds, self seconds)`` per span name."""
        selfs = self.self_seconds()
        rows: dict[str, list] = {}
        for s in self.finished():
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += selfs[s.sid]
        return sorted(((n, c, t, st) for n, (c, t, st) in rows.items()),
                      key=lambda r: -r[3])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.finished():
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.sid, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "rid": s.rid, "attrs": s.attrs,
                }, default=float) + "\n")
