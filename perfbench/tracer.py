"""In-memory span recorder that instruments the package from outside.

`Tracer.patch` replaces one attribute of a module or class with a wrapper
that records a span (name, start, end, parent span) around every call, and
`Tracer.restore` puts every original back.  Nothing under `src/` is edited:
the wrappers are installed in the benchmark's child process after import, in
the namespace each caller looks the function up in (a function bound by
`from x import f` at import time has to be patched where it was bound).

Spans stay in memory until `write_jsonl`; `aggregate` folds them into
per-name call counts, total time and self time (duration minus the part
covered by direct child spans).
"""

from __future__ import annotations

import collections
import functools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []        # [id, parent_id, name, t0, t1, attrs]
        self.counts = collections.Counter()
        self._local = threading.local()
        self._patches = []     # (owner, attr, original)

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span of the calling thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, **attrs) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, attrs]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        if self._stack().pop() is not span:
            raise RuntimeError(f"span {span[2]!r} closed out of order")

    def count(self, key: str, value=1) -> None:
        self.counts[key] += value

    # -- instrumentation ----------------------------------------------------
    def wrap(self, fn, name: str, measure=None, attrs=None):
        """`fn` inside a span; `attrs(args, kwargs)` labels the span before
        the call and `measure(tracer, span, args, kwargs, result)` adds
        counts after it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer.begin(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sp)
            if measure is not None:
                measure(tracer, sp, args, kwargs, result)
            return result
        return wrapper

    def counter(self, fn, name: str):
        """`fn` with a call count only, for functions called once per
        integrand evaluation, where a span would cost more than the call."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace `owner.attr` (defined on owner itself) by
        `make_wrapper(original)`."""
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original
                 for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # -- output -------------------------------------------------------------
    def aggregate(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over all closed spans."""
        child_time = collections.defaultdict(float)
        for sid, parent, name, t0, t1, attrs in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = collections.defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, parent, name, t0, t1, attrs in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child_time[sid]
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "t0": t0, "t1": t1,
                                     "attrs": attrs}) + "\n")
