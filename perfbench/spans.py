"""In-memory spans recorded around calls into leakgames modules."""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans ``{name, start, end, parent, op}`` in memory.

    ``parent`` is the index of the enclosing span, or None for a root.
    Extra keyword attributes (byte counts, replay flags) ride along.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": self.op, **attrs}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({**span, "self": own}) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for c in sorted(children[i], key=lambda k: spans[k]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out

