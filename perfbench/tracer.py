"""Outside-in span recorder for the benchmark's traced runs.

Nothing in the package is edited: the recorder replaces module attributes,
class attributes and per-instance attributes with timing wrappers, and puts
every original back when it is uninstalled.  Each wrapped call pushes a frame
on a thread-local stack, so calls made from the command line's replication
threads nest under their own estimate rather than under whatever the main
thread is doing.

A frame ends in two places.  Its name's aggregate (calls, total seconds and
self seconds) is always updated.  Calls that are not in a sampling loop also
become span records ``(id, name, start, end, parent, estimate, thread)``,
kept in memory and written out at the end; calls inside sampling loops (prior
densities, the likelihood, MH steps) are only aggregated, since a 100-d run
makes millions of them, and those that make no wrapped calls themselves get
a leaner wrapper that keeps no frame.  Self time is a call's duration minus
the time its child calls took, including the child wrappers' own cost, so
the recorder's overhead is charged to no layer.
"""

from __future__ import annotations

import itertools
import json
import threading
import warnings
from contextlib import contextmanager, nullcontext
from time import perf_counter

# frame fields
_NAME, _START, _CHILD, _SPAN, _SPAN_PARENT, _ESTIMATE = range(6)


class _ThreadState:
    __slots__ = ("thread", "stack", "spans", "stats", "counters")

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.spans = []
        self.stats = {}      # name -> [calls, total_s, self_s]
        self.counters = {}   # name -> number


class NullTracer:
    """Stands in for the recorder in untraced runs: no wrapping, no cost."""

    def span(self, name, estimate=False):
        return nullcontext()

    def count_warnings(self, counter, needle):
        return nullcontext()

    def add(self, counter, value=1):
        pass


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._estimate_ids = itertools.count(1)
        self._undo = []
        self.origin = perf_counter()

    # --- recording -------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _push(self, st, name, estimate, materialize):
        stack = st.stack
        if stack:
            parent = stack[-1]
            est = parent[_ESTIMATE]
            span_parent = parent[_SPAN] or parent[_SPAN_PARENT]
        else:
            est, span_parent = 0, 0
        if estimate:
            est = next(self._estimate_ids)
        frame = [name, 0.0, 0.0, next(self._span_ids) if materialize else 0,
                 span_parent, est]
        stack.append(frame)
        return frame

    def _pop(self, st, frame, end, t_in, post=None, args=None, result=None,
             token=None):
        st.stack.pop()
        name = frame[_NAME]
        dur = end - frame[_START]
        agg = st.stats.get(name)
        if agg is None:
            agg = st.stats[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[_CHILD]
        if frame[_SPAN]:
            st.spans.append((frame[_SPAN], name, frame[_START], end,
                             frame[_SPAN_PARENT], frame[_ESTIMATE], st.thread))
        if post is not None:
            post(self, args, result, token)
        if st.stack:
            st.stack[-1][_CHILD] += perf_counter() - t_in

    def wrap(self, fn, name, materialize=True, estimate=False, pre=None,
             post=None):
        """Timing wrapper around fn.

        pre(args) runs before the clock starts and its value reaches
        post(tracer, args, result, value), which runs after it stops.
        """
        state, push, pop = self._state, self._push, self._pop

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            st = state()
            frame = push(st, name, estimate, materialize)
            token = pre(args) if pre is not None else None
            frame[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                pop(st, frame, perf_counter(), t_in)
                raise
            pop(st, frame, perf_counter(), t_in, post, args, result, token)
            return result

        return wrapper

    def wrap_leaf(self, fn, name):
        """A cheaper wrapper for hot calls that make no wrapped calls."""
        local, state = self._local, self._state

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            dur = perf_counter() - start
            try:
                st = local.state
            except AttributeError:
                st = state()
            try:
                agg = st.stats[name]
            except KeyError:
                agg = st.stats[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur
            if st.stack:
                st.stack[-1][_CHILD] += perf_counter() - start
            return result

        return wrapper

    @contextmanager
    def span(self, name, estimate=False):
        """A span around a block of the benchmark's own code."""
        t_in = perf_counter()
        st = self._state()
        frame = self._push(st, name, estimate, True)
        frame[_START] = perf_counter()
        try:
            yield
        finally:
            self._pop(st, frame, perf_counter(), t_in)

    def add(self, counter, value=1):
        counters = self._state().counters
        counters[counter] = counters.get(counter, 0) + value

    @contextmanager
    def count_warnings(self, counter, needle):
        """Count the warnings raised in the block whose text has needle."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield
        self.add(counter, sum(needle in str(w.message) for w in caught))

    # --- patching --------------------------------------------------------

    def patch(self, owner, attr, name, leaf=False, **kw):
        """Replace owner.attr with a wrapper; restore() puts it back."""
        raw = vars(owner).get(attr)
        fn = getattr(owner, attr)
        setattr(owner, attr, self.wrap_leaf(fn, name) if leaf
                else self.wrap(fn, name, **kw))
        with self._lock:
            self._undo.append((owner, attr, raw))

    def restore(self):
        with self._lock:
            undo, self._undo = self._undo, []
        for owner, attr, raw in reversed(undo):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # --- results ---------------------------------------------------------

    def stats(self):
        """name -> (calls, total seconds, self seconds), all threads."""
        out = {}
        for st in self._states:
            for name, (calls, total, own) in st.stats.items():
                c, t, s = out.get(name, (0, 0.0, 0.0))
                out[name] = (c + calls, t + total, s + own)
        return out

    def counters(self):
        out = {}
        for st in self._states:
            for name, value in st.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    def spans(self):
        return sorted((s for st in self._states for s in st.spans),
                      key=lambda s: s[2])

    def write(self, path):
        """Spans as JSON lines, times in seconds since the recorder began."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, est, thread in self.spans():
                fh.write(json.dumps({
                    "id": sid, "name": name,
                    "start": start - self.origin, "end": end - self.origin,
                    "parent": parent, "estimate": est, "thread": thread,
                }) + "\n")


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
