"""In-memory spans around calls into incdepth's public functions.

`Tracer.wrap` swaps a module attribute or a class method for a wrapper that
records one span per call, and `restore` puts the originals back, so the
package is never edited and untraced passes call it unaltered. A call made
while another wrapped call is running becomes that call's child; the self
time of a span is its duration minus the durations of its children.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "arg", "start", "end", "result")

    def __init__(self, name: str, parent: "Span | None", arg):
        self.name = name
        self.parent = parent
        self.arg = arg
        self.start = self.end = 0.0
        self.result = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[Span] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, under: str | None = None,
             keep: bool = False) -> None:
        """Record a span called `name` for every call of `owner.attr`.

        With `under`, only calls made directly inside a span of that name are
        recorded. With `keep`, the span holds the call's return value. An
        attribute the program no longer has is listed in `missing`.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            if under is not None and (parent is None or parent.name != under):
                return original(*args, **kwargs)
            span = Span(name, parent, args[0] if args else None)
            spans.append(span)
            open_spans.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if keep:
                span.result = result
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name, over every recorded span."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span in self.spans:
            seconds = span.end - span.start
            total[span.name] += seconds
            own[span.name] += seconds
            if span.parent is not None:
                own[span.parent.name] -= seconds
        return total, own

    def results(self, name: str) -> list:
        return [s.result for s in self.spans if s.name == name]
