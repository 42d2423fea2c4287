"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: the tracer swaps public
functions of the package for timing wrappers at the module attributes where
they are looked up (their import sites), and swaps them back afterwards.
Per-candidate calls (``t_verdict``, ``nt_verdict``, ``_phi``) are never
wrapped, so tracing adds a cost per model, not per candidate.

A span is ``(name, start, end, parent, item, data)``.  Spans stay in memory
and are written out when the run ends.  A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

perf = time.perf_counter


class Tracer:
    """Collects spans while installed; the wrappers it installs call back
    into it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self._patches: list[tuple[object, str, object]] = []
        self._phi_seen: set[tuple[int, int]] = set()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), 0.0, parent, self.item, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int, data: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = perf()
        if data:
            span[5] = data
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def _wrap_generator(self, fn, name):
        """One span per resumption, so consumer work between resumptions is
        not charged to the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield value

        return wrapper

    def _wrap_sweep_model(self, fn, name):
        """``sweep_model`` reports its mode and candidate count through its
        ``stats`` argument; copy them onto the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = {}
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(
                    idx,
                    {"mode": stats.get("mode"), "candidates": stats.get("candidates", 0)},
                )

        return wrapper

    def _wrap_phi_table(self, fn, name):
        """Only the first table per model and direction is work; later calls
        are cache hits and are not recorded."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, i):
            key = (id(model), i)
            if key in tracer._phi_seen:
                return fn(model, i)
            tracer._phi_seen.add(key)
            idx = tracer.open(name)
            try:
                return fn(model, i)
            finally:
                tracer.close(idx)

        return wrapper

    def _wrap_init(self, cls, name):
        fn = cls.__init__
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            idx = tracer.open(name)
            try:
                fn(obj, *args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def patch(self, owner, attr: str, name: str, kind: str = "call") -> None:
        """Replace ``owner.attr`` by a traced wrapper; a missing attribute
        is skipped, so the benchmark survives refactors of the package."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        if kind == "init":
            wrapped = self._wrap_init(owner, name)
        elif kind == "phi_table":
            wrapped = self._wrap_phi_table(original, name)
        elif kind == "sweep_model":
            wrapped = self._wrap_sweep_model(original, name)
        elif inspect.isgeneratorfunction(original):
            wrapped = self._wrap_generator(original, name)
        else:
            wrapped = self._wrap_call(original, name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self, sites) -> None:
        """``sites`` is an iterable of ``(owner, attr, span_name, kind)``."""
        self._phi_seen.clear()
        for owner, attr, name, kind in sites:
            self.patch(owner, attr, name, kind)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> list[float]:
        """Self time of each span in ``spans[first:last]``."""
        spans = self.spans[first:last]
        out = [s[2] - s[1] for s in spans]
        for s in spans:
            parent = s[3]
            if parent >= first:
                out[parent - first] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, item, data) in enumerate(self.spans):
                doc = {
                    "id": idx,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "item": item,
                }
                if data:
                    doc["data"] = data
                fh.write(json.dumps(doc) + "\n")
