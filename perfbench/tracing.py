"""In-memory span recorder with timing shims installed from outside.

The library under test carries no tracing of its own.  For a traced run
the benchmark wraps the public functions and methods at each layer
boundary (module attributes, class attributes, or attributes of one
instance) in a shim that records a span: name, start, end, parent span
and a request or round tag.  Spans stay in memory and are written as
JSON lines when the run ends.  :meth:`Tracer.restore` undoes every shim.
"""

import json
import time
from collections import defaultdict


class Tracer:
    """Parent-linked spans over ``time.perf_counter``.

    A span is the list ``[name, start, end, parent, tag, note]``;
    ``parent`` is the index of the enclosing span (``-1`` for a root)
    and ``note`` an optional number the shim derived from the call, such
    as the rows in a batch.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.tag = None
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------
    def begin(self, name, note=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.tag, note])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name, fn, note=None):
        """``fn`` wrapped so every call records one span named ``name``.

        ``note(args, kwargs)`` may derive a number to keep on the span.
        """
        tracer = self

        def shim(*args, **kwargs):
            index = tracer.begin(name, None if note is None
                                 else note(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        shim.__wrapped__ = fn
        return shim

    def patch(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a timing shim until :meth:`restore`.

        ``owner`` may be a module, a class or an instance.  On a module
        or class the stored function is wrapped, so a method shim binds
        like the original; on an instance the bound method is wrapped
        and stored on the instance, shadowing the class attribute.
        """
        if isinstance(owner, type) or attr in vars(owner):
            original = vars(owner)[attr] if attr in vars(owner) \
                else getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, note))
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
            self._undo.append(lambda: delattr(owner, attr))

    def restore(self):
        """Remove every shim this tracer installed, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------
    def self_times(self):
        """``{name: (calls, total_s, self_s)}`` over all closed spans.

        A span's self time is its duration minus the durations of its
        direct children; children never outlive their parent, because
        spans nest on one thread's call stack.
        """
        children = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0 and end is not None:
                children[parent] += end - start
        table = {}
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            if end is None:
                continue
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            duration = end - start
            table[name] = (calls + 1, total + duration,
                           own + duration - children[index])
        return table

    def named(self, name):
        """Closed spans called ``name``, in start order."""
        return [span for span in self.spans
                if span[0] == name and span[2] is not None]

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, tag, note) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "tag": tag, "note": note}) + "\n")
