"""Benchmark-side span recording around the program's public entry points.

The traced run wraps the public functions each layer is entered through
(``SpanRecorder.wrap``), from the benchmark's own files: nothing under
``src/`` changes.  Each call records name, start, end, parent span and
the trace id current when it started (one per device, request or fleet
chunk).  Spans stay in memory in flat lists and are written once, when
the run ends.

A span's *self time* is its duration minus the time its child spans
cover; children of one span never overlap because the in-process
workloads are single-threaded.
"""

from __future__ import annotations

import gzip
import json
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import wraps
from pathlib import Path


@dataclass
class SpanStats:
    """Aggregates of all spans of one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: int = 0  # sum of the per-call sizes the wrapper recorded

    def mean_ms(self, *, self_time: bool = False) -> float:
        if not self.count:
            return 0.0
        return (self.self_s if self_time else self.total_s) / self.count * 1e3

    def mean_size(self) -> float:
        return self.size / self.count if self.count else 0.0


class SpanRecorder:
    """Flat in-memory span store plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.trace_id: object = None
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans (patches stay installed)."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[object] = []
        self.sizes: list[int] = []
        self._stack: list[int] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.traces.append(self.trace_id)
        self.sizes.append(1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        size: Callable[[tuple, object], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``owner`` is a class (methods, classmethods) or a module (plain
        functions).  ``size(args, result)`` optionally records a per-call
        work size, e.g. a batch length.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        recorder = self

        @wraps(func)
        def wrapper(*args, **kwargs):
            index = recorder._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._close(index)
            if size is not None:
                recorder.sizes[index] = size(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # --- analysis ------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        out: dict[str, SpanStats] = {}
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            entry = out.setdefault(name, SpanStats())
            entry.count += 1
            entry.total_s += duration
            entry.self_s += duration - child_time[index]
            entry.size += self.sizes[index]
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines (written once, at the end)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                            "trace": self.traces[index],
                            "size": self.sizes[index],
                        }
                    )
                )
                handle.write("\n")
