"""Spans recorded around calls into the program's layers, from outside it.

A span holds a name, start and end times, the index of its parent span
and the job it belongs to.  Spans are kept in memory and written out when
the job ends.  A layer's self time is its span's duration minus the part
of that interval its child spans cover.  While tracemalloc runs, each
span also records the peak of traced memory above its starting level.
A span named in the tracer's `memory` set turns tracemalloc on for its
own duration, so spans outside those are timed without it.
"""

import functools
import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MIB = 2 ** 20


@dataclass
class Span:
    name: str
    job: str
    start: float
    parent: int = None
    end: float = None
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, job, clock=time.perf_counter, memory=()):
        self.job = job
        self.clock = clock
        self.memory = frozenset(memory)
        self.spans = []
        self._stack = []  # indices of open spans
        self._peaks = []  # highest traced memory seen so far, per open span
        self._bases = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        owner = name in self.memory and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        memory = tracemalloc.is_tracing()
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
            self._bases.append(current)
            self._peaks.append(current)
        record = Span(name, self.job, self.clock(), parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()
            if memory:
                peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
                record.peak_bytes = peak - self._bases.pop()
                tracemalloc.reset_peak()
                if self._peaks:
                    self._peaks[-1] = max(self._peaks[-1], peak)
            if owner:
                tracemalloc.stop()

    def count(self, name, value):
        """Add `value` to counter `name` on the innermost open span."""
        counts = self.spans[self._stack[-1]].counts
        counts[name] = counts.get(name, 0) + value

    def records(self):
        return [asdict(s) for s in self.spans]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of each span (dicts with start, end, parent), by index.

    Only spans of one job may be passed: parents are list indices.
    """
    children = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(k)
    out = []
    for k, s in enumerate(spans):
        inside = [
            (max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
            for c in children[k]
        ]
        out.append((s["end"] - s["start"]) - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def traced(tracer, name, fn, counter=None):
    """Wrap `fn` in a span; `counter(bound_args, result)` yields counts."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    tracer.count(key, value)
            return result

    return wrapper


def install(tracer, layers, package="wwm"):
    """Replace each layer function wherever the package resolves it.

    `layers` maps "module.function" to a counter (or None).  Every module
    attribute of the package that holds the original function object, in
    the defining module or in one that imported it by name, is pointed at
    the wrapper.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
    for span_name, counter in layers.items():
        module, function = span_name.rsplit(".", 1)
        original = getattr(sys.modules[f"{package}.{module}"], function)
        wrapper = traced(tracer, span_name, original, counter)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
