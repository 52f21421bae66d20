"""Per-layer timers and spans applied from outside the package.

A :class:`Tracer` replaces a module attribute with a timing wrapper and puts
the original back in :meth:`Tracer.restore`. Each name is patched where its
caller looks it up: ``engine`` imports ``build_preferences`` into its own
namespace, so that name is patched on ``engine``, while ``engine`` calls
``recommender.train`` through the module, so ``train`` is patched on
``recommender``.

Every timed call keeps a frame on one stack, so a call's self time is its
duration minus the time of the timed calls made inside it. Coarse
boundaries are also recorded as spans (id, parent id, name, start, end) and
kept in memory; hot functions keep only a call count and times.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0


@dataclass
class _Frame:
    name: str
    span: Span | None
    span_id: int | None  # own span, else the nearest enclosing one
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    """Call counts, cumulative and self times, and spans of patched functions."""

    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def begin(self, name: str, span: bool = False) -> int:
        """Open a frame and return the stack depth to pass to :meth:`end`."""
        depth = len(self._stack)
        parent_id = self._stack[-1].span_id if self._stack else None
        now = time.perf_counter()
        record = None
        if span:
            record = Span(len(self.spans), parent_id, name, now)
            self.spans.append(record)
        span_id = record.span_id if record else parent_id
        self._stack.append(_Frame(name, record, span_id, now))
        return depth

    def end(self, depth: int) -> None:
        """Close the frame opened at ``depth`` and any still open inside it."""
        now = time.perf_counter()
        while len(self._stack) > depth:
            frame = self._stack.pop()
            elapsed = now - frame.start
            stat = self.stats.get(frame.name)
            if stat is None:
                stat = self.stats[frame.name] = Stat()
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - frame.child_s
            if self._stack:
                self._stack[-1].child_s += elapsed
            if frame.span is not None:
                frame.span.end = now

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        span: bool = False,
        on_call: Callable[..., None] | None = None,
        on_return: Callable[[], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper recorded as ``name``.

        ``on_call`` receives the call's arguments before its frame opens and
        ``on_return`` runs after it closes, so neither is timed as this call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            depth = self.begin(name, span)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(depth)
                if on_return is not None:
                    on_return()

        self._patched.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def unaccounted_share(self, root: str) -> float:
        """Share of the root's time that no timed call below it accounts for."""
        stat = self.stats[root]
        return stat.self_s / stat.total_s if stat.total_s > 0 else 0.0
