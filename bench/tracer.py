"""In-memory span recorder for calls into the tracker's modules.

A `Tracer` replaces a module attribute with a wrapper that records one span
per call (name, layer, start, end, parent span) and, through an optional
hook, adds counts taken from the call's arguments and result.  Spans stay in
memory until `dump` writes them out; `restore` puts the original functions
back.
"""

from __future__ import annotations

import collections
import functools
import json
import time
import tracemalloc


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, name, layer, count=None, alloc_metric=None) -> bool:
        """Trace `owner.name`; False if the attribute does not exist.

        `count(args, result)` returns a dict of counts to add after each call.
        `alloc_metric` names a count that receives the peak of traced
        allocations made during the call, in MB (tracemalloc runs only then).
        """
        fn = getattr(owner, name, None)
        if fn is None:
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "layer": layer,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            if alloc_metric:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                if alloc_metric:
                    self.counts[alloc_metric] += tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
            if count is not None:
                self.counts.update(count(args, result))
            return result

        setattr(owner, name, traced)
        self._patched.append((owner, name, fn))
        return True

    def restore(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def seconds(self, *names) -> float:
        """Total duration of the spans of the named functions."""
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] in names), 0.0)

    def top_level_seconds(self) -> float:
        """Total duration of spans no other traced call encloses."""
        return sum((s["end"] - s["start"] for s in self.spans if s["parent"] is None), 0.0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
