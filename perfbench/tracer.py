"""In-memory span tracer for the benchmark's traced runs.

The tracer swaps module and class attributes that davit looks up at
call time for wrappers that record one span around each call, and puts
the originals back when the traced unit ends. Nothing under src/ knows
about it. A wrapper records only while a unit of work is open, so
checks and bookkeeping between units leave no spans.

A span holds its name, a stage/block label, start and end times, the
index of its parent span, the unit-of-work id and an optional info dict
of counts taken at the call (output bytes, FLOPs, file sizes).
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "unit", "info")

    def __init__(self, name, label, start, parent, unit):
        self.name = name
        self.label = label
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def to_list(self):
        return [self.name, self.label, self.start, self.end, self.parent, self.unit, self.info]


@contextmanager
def patched(pairs):
    """Set each (owner, attr, value) for the duration of the block.

    The originals are restored in reverse order even when the block
    raises, so every patched attribute `is` its original afterwards.
    """
    saved = []
    try:
        for owner, attr, value in pairs:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Records spans around the targets it is installed on.

    A target is (owner, attr, span name, describe); describe, when not
    None, maps (args, result) to the span's info dict. The span named
    "autodiff.backward" is special: before the replay starts it wraps
    every Node.run on the loss's tape, so each replayed node becomes a
    "bwd.<op>" span.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self.unit = None
        self._stack: list[int] = []
        self._stage = -1
        self._block = -1

    @contextmanager
    def unit_of_work(self, unit):
        """Install the wrappers and attribute every span to `unit`."""
        wrappers = []
        for owner, attr, name, describe in self.targets:
            original = getattr(owner, attr)
            if name == "autodiff.backward":
                wrappers.append((owner, attr, self._backward_wrapper(original)))
            else:
                wrappers.append((owner, attr, self._wrapper(name, original, describe)))
        self.unit = unit
        try:
            with patched(wrappers):
                yield self
        finally:
            self.unit = None
            self._stack.clear()

    def _label(self, name):
        # Stage and block indices follow call order inside one forward:
        # the i-th patch embedding opens stage i, the j-th block after it
        # is block j. These match the registry names of named_parameters.
        if name == "model.forward":
            self._stage = -1
        elif name == "model.patch_embed":
            self._stage += 1
            self._block = -1
            return f"stages.{self._stage}.embed"
        elif name == "model.block":
            self._block += 1
            return f"stages.{self._stage}.blocks.{self._block}"
        elif name.startswith("attention."):
            return f"stages.{self._stage}.blocks.{self._block}.{name.split('.', 1)[1]}"
        return None

    def _call(self, name, fn, args, kwargs, describe=None, info=None):
        if self.unit is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._label(name), 0.0, parent, self.unit)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if describe is not None:
            span.info = describe(args, result)
        elif info is not None:
            span.info = info
        return result

    def _wrapper(self, name, fn, describe):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, describe)

        traced.__wrapped__ = fn
        return traced

    def _backward_wrapper(self, fn):
        def traced(loss, *args, **kwargs):
            # The tape is reachable only through the loss tensor.
            tape = loss._tape
            info = None
            if self.unit is not None and tape is not None and not tape.consumed:
                info = {"nodes": len(tape.nodes),
                        "out_bytes": sum(node.out.data.nbytes for node in tape.nodes)}
                for node in tape.nodes:
                    node.run = self._wrapper(f"bwd.{node.op}", node.run, None)
            return self._call("autodiff.backward", fn, (loss, *args), kwargs, info=info)

        traced.__wrapped__ = fn
        return traced


class PeakMeter:
    """Peak tracemalloc bytes above the level at entry, per wrapped call.

    Wrapped calls may nest: every entry and exit folds the peak so far
    into each open call and resets tracemalloc's peak, so an outer call
    still sees the peak reached inside an inner one.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._open: list[list[int]] = []

    def _fold(self):
        _, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()

    def wrap(self, key, fn):
        def measured(*args, **kwargs):
            self._fold()
            current, _ = tracemalloc.get_traced_memory()
            frame = [current, current]
            self._open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                self._open.pop()
                self.peaks[key] = max(self.peaks.get(key, 0), frame[1] - frame[0])

        measured.__wrapped__ = fn
        return measured


def view_parents(spans, in_view):
    """Index of each span's nearest ancestor that lies in the view, or None."""
    parents = []
    for span in spans:
        p = span.parent
        while p is not None and not in_view(spans[p]):
            p = spans[p].parent
        parents.append(p)
    return parents


def self_times(spans, in_view):
    """Self time of each span in the view: its duration minus the time its
    nearest descendants in the same view cover. Spans outside the view
    get 0. Spans of one thread nest, so children never overlap."""
    parents = view_parents(spans, in_view)
    own = [span.duration if in_view(span) else 0.0 for span in spans]
    for i, span in enumerate(spans):
        if in_view(span) and parents[i] is not None:
            own[parents[i]] -= span.duration
    return own
