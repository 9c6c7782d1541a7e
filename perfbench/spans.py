"""In-memory span recorder for the traced benchmark run.

Wrappers go on the names through which the calling module looks a
function up (``cpi.py`` imports ``find_roots`` by name, so the wrapper
sits on ``gensync.cpi.find_roots``). Each wrapped call records a span
``(id, parent, name, sync, start, end)``; the parent is the innermost
open span of the same thread, and ``sync`` is the sync the benchmark
has in flight, so the spans of one sync share an identifier across the
client and server threads. Calls too frequent to keep one span each
(``add_element``, ``keyed_hash``) only update counters.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.sync: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._totals: Counter = Counter()  # (name, sync) -> value, under _lock
        self._calls: dict = {}  # name -> itertools.count, bumped by every call
        self._marks: dict = {}  # name -> count value when the sync began
        self._timed: dict = {}  # name -> [seconds, calls]
        # sync -> [frames, bytes up, bytes down, turns, last send was the client's]
        self._wire: dict = defaultdict(lambda: [0, 0, 0, 0, False])

    # -- sync boundaries ------------------------------------------------

    def begin_sync(self, sync: int) -> None:
        self.sync = sync
        self._marks = {name: next(c) for name, c in self._calls.items()}

    def end_sync(self) -> None:
        for name, c in self._calls.items():
            # each next() here also advances the count once, hence the - 1
            self._totals[(name, self.sync)] += next(c) - self._marks[name] - 1
        self.sync = None

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = getattr(self._local, "open", None)
            sid = next(self._ids)
            self._local.open = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._local.open = parent
                self.spans.append((sid, parent, name, self.sync, start, end))
            if on_result is not None:
                on_result(self.sync, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that calls are counted per sync, and nothing else.

        ``next`` on an ``itertools.count`` is one C call, so concurrent
        callers lose no update and the wrapper stays cheap.
        """
        bump = self._calls.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args):
            bump()
            return fn(*args)

        return wrapper

    def timed_counter(self, name: str, fn):
        """Wrap ``fn`` to add up its calls and seconds; one caller thread only."""
        acc = self._timed.setdefault(name, [0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            result = fn(*args)
            acc[0] += clock() - start
            acc[1] += 1
            return result

        return wrapper

    def add(self, name: str, value, sync) -> None:
        with self._lock:
            self._totals[(name, sync)] += value

    def wire_send(self, fn):
        """Count frames, bytes per direction and turns of each sync.

        A turn starts at each client send that follows a server send or
        the start of the sync, the rule documented for the cost model.
        """

        @functools.wraps(fn)
        def wrapper(endpoint, frame):
            with self._lock:
                rec = self._wire[self.sync]
                rec[0] += 1
                if endpoint.is_client:
                    rec[1] += frame.wire_size
                    if not rec[4]:
                        rec[3] += 1
                    rec[4] = True
                else:
                    rec[2] += frame.wire_size
                    rec[4] = False
            return fn(endpoint, frame)

        return wrapper

    # -- installation ---------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until ``unpatch``.

        Class attributes keep their descriptor kind: a classmethod stays a
        classmethod wrapping the original function.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading --------------------------------------------------------

    def seconds_per_sync(self, name: str) -> dict:
        """Seconds inside spans named ``name``, summed per sync."""
        out: dict = defaultdict(float)
        for _, _, span_name, sync, start, end in self.spans:
            if span_name == name:
                out[sync] += end - start
        return out

    def calls_per_sync(self, name: str) -> Counter:
        """Number of spans named ``name`` per sync."""
        return Counter(sync for _, _, span_name, sync, _, _ in self.spans if span_name == name)

    def total(self, name: str, sync):
        """A counter's or an ``add`` total's value within one sync."""
        return self._totals[(name, sync)]

    def timed(self, name: str) -> tuple[float, int]:
        seconds, calls = self._timed.get(name, (0.0, 0))
        return seconds, calls

    def wire(self, sync: int) -> list:
        return self._wire[sync]

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, sync, start, end in self.spans:
                record = {"id": sid, "parent": parent, "name": name, "sync": sync, "start": start, "end": end}
                out.write(json.dumps(record) + "\n")
