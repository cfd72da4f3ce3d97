"""Outside-in tracing: wrap library attributes and record spans in memory.

The benchmark never edits the library.  It replaces public module (or class)
attributes with wrappers that record a span around each call; because the
library itself calls those functions through the same module attributes,
calls made inside `train`, `evaluate` and `discover` are caught too.  Every
wrapper is removed again when the `installed` block ends.

A span is (id, name, start, end, parent id, operation id).  Operations are
the benchmark's own units of work (one set-up, one train call, one query),
and every span recorded while one runs carries its id.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int      # sid of the enclosing span, -1 at the top
    op: int          # operation id, -1 outside any operation

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Map span id -> duration minus the part of it covered by child spans.

    Children are clipped to their parent's interval and overlapping children
    are merged, so covered time is never counted twice.
    """
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        intervals = sorted((max(c.start, s.start), min(c.end, s.end))
                           for c in children.get(s.sid, ()))
        covered = 0.0
        run_start, run_end = None, None
        for a, b in intervals:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.sid] = s.duration - covered
    return out


class Tracer:
    """Span recorder plus the counters its wrappers update."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.missing = []        # wrap targets that no longer exist
        self._stack = []
        self._op = -1
        self._n_ops = 0
        self._installed = []     # (owner, attr, original, owned)

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} ended out of order")

    @contextmanager
    def span(self, name):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    @contextmanager
    def operation(self, name):
        """One benchmark operation: a root span whose id tags every span inside."""
        outer = self._op
        self._op = self._n_ops
        self._n_ops += 1
        try:
            with self.span(f"bench.{name}"):
                yield
        finally:
            self._op = outer

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore.

        targets are (owner, attr, span name, before hook, after hook); the
        owner is a module or class.  A missing attribute is recorded in
        `missing` with a warning instead of failing the run.
        """
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for owner, attr, name, before, after in targets:
                original = getattr(owner, attr, None)
                if original is None:
                    if name not in self.missing:
                        self.missing.append(name)
                        print(f"warning: {name} not found; its per-layer "
                              f"metrics are absent", file=sys.stderr)
                    continue
                owned = attr in vars(owner)
                setattr(owner, attr, self._wrapper(name, original, before, after))
                self._installed.append((owner, attr, original, owned))
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        while self._installed:
            owner, attr, original, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """One JSON line per span, self time included."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(asdict(s), self=selfs[s.sid])) + "\n")
