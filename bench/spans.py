"""Span tracing for the benchmark's traced run.

The tracer replaces module and class attributes of p3game with wrappers
that record one span per call: name, start, end and the span that was
open when the call began.  Spans live in flat arrays in memory and are
written out once, at the end of the run.  Nothing inside p3game is
edited; the wrappers sit at the boundaries between its modules.

A name that no longer exists is skipped and reported as absent, so a
later refactor that removes one makes the traced run report that layer
missing instead of crashing.

A wrapper's own bookkeeping costs about a microsecond per call, as much
as a cheap callee.  ``wrapper_cost`` measures it on a no-op, and
``Tracer.totals`` takes it off, so that self times read net of tracing.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from array import array

#: A sampled wrapper keeps the arguments and result of every this-many-th call.
SAMPLE_STRIDE = 32
#: Kind of a wrapper that neither samples nor counts hits (see Tracer.kinds).
PLAIN = (False, False)
#: Wrapped no-op calls per wrapper_cost measurement.
COST_CALLS = 20000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self._patches = []
        self.absent: list[str] = []
        #: span name -> [(args, result)] for every SAMPLE_STRIDE-th call
        self.samples: dict[str, list] = {}
        #: span name -> number of calls whose result counted as a hit
        self.hits: dict[str, int] = {}
        #: span name index -> wrapper kind, (samples, counts hits);
        #: PLAIN when missing
        self.kinds: dict[int, tuple] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, span, *, sample=False, hit=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``span`` is the span name, or a function of the call's
        positional arguments that returns it.  ``sample`` keeps every
        SAMPLE_STRIDE-th call's arguments and result for replay.
        ``hit`` is a predicate on the result; calls where it holds are
        counted in ``hits``.
        """
        original = owner.__dict__.get(attr)
        label = "%s.%s" % (getattr(owner, "__name__", owner), attr)
        if original is None or not callable(original):
            self.absent.append(label)
            return
        fixed = None if callable(span) else self._id(span)
        if fixed is not None:
            self.kinds[fixed] = (sample, hit is not None)
        start, end, names, parents = self.start, self.end, self.name, self.parent
        stack, clock = self._stack, time.perf_counter
        ident = self._id
        key = span if fixed is not None else label
        kept = self.samples.setdefault(key, []) if sample else None
        calls = [0]
        if hit is not None:
            self.hits[key] = 0
        hits = self.hits

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fixed if fixed is not None else ident(span(args)))
            parents.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if kept is not None:
                if calls[0] % SAMPLE_STRIDE == 0:
                    kept.append((args, result))
                calls[0] += 1
            if hit is not None and hit(result):
                hits[key] += 1
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------

    def totals(self, factor=None, cost=None):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus its children's durations.
        ``factor`` holds one multiplier per span that rescales its times
        (see hostspeed).  ``cost`` maps a wrapper kind to the (inside,
        outside) seconds of bookkeeping that wrapper adds per call (see
        wrapper_cost): inside comes off the span's own self time,
        outside off its parent's.  Inclusive time is the sum of self
        times over a span and its descendants."""
        n, width = len(self.name), len(self.names)
        if factor is None:
            factor = array("d", [1.0]) * n
        inside, outside = [0.0] * width, [0.0] * width
        if cost is not None:
            for k in range(width):
                inside[k], outside[k] = cost[self.kinds.get(k, PLAIN)]
        parent = self.parent
        own = [0.0] * n
        for i, (k, p, s, e, f) in enumerate(zip(self.name, parent, self.start,
                                                self.end, factor)):
            d = (e - s) * f
            own[i] += d - inside[k]
            if p >= 0:
                own[p] -= d + outside[k]
        incl = own[:]
        for i in range(n - 1, -1, -1):
            if parent[i] >= 0:
                incl[parent[i]] += incl[i]
        calls = [0] * width
        sum_incl = [0.0] * width
        sum_own = [0.0] * width
        for k, a, b in zip(self.name, incl, own):
            calls[k] += 1
            sum_incl[k] += a
            sum_own[k] += b
        return {name: (calls[k], sum_incl[k], sum_own[k])
                for k, name in enumerate(self.names)}

    # -- output --------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON header line, then the start, end, name and parent
        arrays as raw machine values, in that order."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": [["start", "d"], ["end", "d"],
                             ["name", "i"], ["parent", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(fh)


def read_spans(path: str):
    """Inverse of Tracer.write: (names, {array name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[name] = arr
    return header["names"], arrays


def wrapper_cost(kind):
    """Seconds a wrapper of ``kind`` adds per call, as (inside, outside):
    inside the span it records, and outside it, where the calling span's
    self time absorbs it.  Measured on COST_CALLS wrapped calls of a
    no-op, against the same loop unwrapped."""
    calls = COST_CALLS
    holder = types.SimpleNamespace(noop=lambda a, b: None)

    def call_noop():
        for _ in range(calls):
            holder.noop(1, 2)

    def empty():
        for _ in range(calls):
            pass

    outer = types.SimpleNamespace(run=call_noop)
    clock = time.perf_counter
    t0 = clock()
    empty()
    t1 = clock()
    call_noop()
    t2 = clock()
    loop_s, plain_s = t1 - t0, t2 - t1
    tracer = Tracer()
    tracer.wrap(holder, "noop", "child", sample=kind[0],
                hit=(lambda value: value is not None) if kind[1] else None)
    tracer.wrap(outer, "run", "parent")
    outer.run()
    tracer.uninstall()
    totals = tracer.totals()
    return ((totals["child"][1] - (plain_s - loop_s)) / calls,
            (totals["parent"][2] - plain_s) / calls)


def replay_us(fn, samples, repeats: int = 3) -> float:
    """Median microseconds per call of ``fn`` over recorded
    (args, result) samples, in a tight loop without wrappers.  Raises
    AssertionError when an output differs from its recorded result."""
    if not samples:
        return 0.0
    inputs = [args for args, _ in samples]
    expected = [result for _, result in samples]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        got = [fn(*args) for args in inputs]
        times.append(time.perf_counter() - t0)
        if got != expected:
            raise AssertionError("replay of %s disagrees with its recorded "
                                 "outputs" % getattr(fn, "__name__", fn))
    return statistics.median(times) / len(inputs) * 1e6
