"""In-memory spans and counters recorded around calls into macsim.

The benchmark never edits the program.  It replaces module and class
attributes with wrappers for the length of one workload and puts the
originals back afterwards.  Each wrapper records a span (name, start, end,
parent) or, for functions called hundreds of thousands of times, adds to a
per-span aggregate so that memory stays small:

* ``span``  - one span per call; optional ``after`` hook sees the result.
* ``leaf``  - timed, but only its total is kept, charged to the innermost
  open span (used for ``Simulator.step``).
* ``count`` - call count only (``on_schedule_end``, the closed-form chain
  entry).

A name that no longer exists in the program is recorded in ``missing`` and
its metrics are left out, so a removed function never reads as zero work.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

_MISSING = object()


class Tracer:
    """Span store plus the attribute patches that feed it."""

    def __init__(self, spans: bool = True):
        self.spans = spans
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.leaf_s: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_total: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.leaf_s.append(0.0)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _MISSING)
        else:
            original = getattr(owner, attr, _MISSING)
        if original is _MISSING or not callable(original):
            self.missing.append(label)
            return
        wrapper = functools.wraps(original)(make(original, label))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span(self, owner, attr: str, name, after=None) -> None:
        """One span per call.  ``name`` may be a callable of (args, kwargs).

        ``after(tracer, result, args, kwargs)`` runs after each call; if it
        raises, the call's result is still returned and the name is recorded
        as missing, so its counters are left out rather than wrong.
        """

        def make(fn, label):
            def finish(result, args, kwargs):
                if after is None:
                    return
                try:
                    after(self, result, args, kwargs)
                except Exception as exc:  # a changed result type: stop counting
                    note = f"{label} ({type(exc).__name__} in counter)"
                    if note not in self.missing:
                        self.missing.append(note)

            def wrapper(*args, **kwargs):
                if not self.spans:
                    result = fn(*args, **kwargs)
                    finish(result, args, kwargs)
                    return result
                sid = self.open(name(args, kwargs) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(sid)
                finish(result, args, kwargs)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def leaf(self, owner, attr: str, name: str) -> None:
        def make(fn, label):
            clock = time.perf_counter

            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self.leaf_total[name] += dt
                    self.counts[name] += 1
                    if self.stack:
                        self.leaf_s[self.stack[-1]] += dt

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        def make(fn, label):
            counts = self.counts

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put every original back, newest patch first, and check it stuck."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- derived numbers ---------------------------------------------------

    def _durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus direct child spans and leaf time charged to it."""
        dur = self._durations()
        own = [d - leaf for d, leaf in zip(dur, self.leaf_s)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[sid]
        return own

    def layer_of(self, sid: int) -> str:
        return self.names[sid].split(".", 1)[0]

    def inclusive(self, layer: str) -> float:
        """Seconds inside the layer's outermost spans (nested calls once)."""
        dur = self._durations()
        total = 0.0
        for sid in range(len(self.names)):
            if self.layer_of(sid) != layer:
                continue
            parent = self.parents[sid]
            while parent >= 0 and self.layer_of(parent) != layer:
                parent = self.parents[parent]
            if parent < 0:
                total += dur[sid]
        return total

    def self_total(self, layer: str) -> float:
        own = self.self_times()
        return sum(t for sid, t in enumerate(own) if self.layer_of(sid) == layer)

    def durations_named(self, name: str) -> list[float]:
        dur = self._durations()
        return [dur[sid] for sid, n in enumerate(self.names) if n == name]

    def dump(self, path) -> None:
        """Write spans as JSON: one [name, start, end, parent, self_s] per span."""
        own = self.self_times()
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [self.names[i], self.starts[i] - t0, self.ends[i] - t0, self.parents[i], own[i]]
            for i in range(len(self.names))
        ]
        payload = {
            "spans": rows,
            "counts": dict(self.counts),
            "leaf_s": dict(self.leaf_total),
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
