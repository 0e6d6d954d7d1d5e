"""In-memory span tracer that instruments functions by patching module names.

A span records its name, start, end, parent span and the step (one timed
operation of the workload) that caused it. Self time is a span's duration
minus the time covered by its direct children. Spans stay in column arrays
until `save` writes them out, so tracing does no I/O while it measures.

Modules that did `from .lstm import cell_forward` hold their own binding of
the name, so `instrument` replaces every binding of the original function in
every given module, and puts each one back on exit.
"""

import contextlib
import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name = array("H")
        self._parent = array("q")
        self._step = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.step = -1  # set by the caller; -1 marks set-up work
        self._wrappers: list[tuple[object, object]] = []  # (original, traced)

    @property
    def span_count(self) -> int:
        return len(self._start)

    def add(self, name: str, original, before=None, after=None) -> None:
        """Register `original` for instrumentation under `name`. `before`
        gets (args, kwargs) ahead of each call and `after` gets
        (args, kwargs, result) once it returns; both run outside the span."""
        nid = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = [0, 0.0, 0.0]
        stack = self._stack
        names, parents, steps = self._name, self._parent, self._step
        starts, ends = self._start, self._end
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            steps.append(self.step)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        self._wrappers.append((original, traced))

    @contextlib.contextmanager
    def instrument(self, modules):
        """Swap every registered function for its traced wrapper in each of
        `modules` for the duration of the block."""
        swapped = []
        try:
            for original, traced in self._wrappers:
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            swapped.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(swapped):
                setattr(mod, attr, original)

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total_s(self, name: str) -> float:
        return self.stats[name][1]

    def self_s(self, name: str) -> float:
        return self.stats[name][2]

    def save(self, path) -> None:
        """Write every span as columns: name id, parent span index (-1 for
        a root), step, start and end in perf_counter seconds."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self._name, dtype=np.uint16),
                 parent=np.frombuffer(self._parent, dtype=np.int64),
                 step=np.frombuffer(self._step, dtype=np.int64),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64))
