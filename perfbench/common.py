"""Shared measurement helpers: the fast-replay timing statistic,
percentiles, the host reference loop, peak RSS, and the record each
workload returns to ``run.py``."""

from __future__ import annotations

import gc
import math
import os
import statistics
import struct
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

#: Set-up is repeated this many times per run; ``setup_s`` is the median
#: of their host-scaled times.
#: The first set-up serves the run; the others are spread over the timed
#: phase (between rounds, untimed) and discarded.  The host alternates
#: between a fast and a slow state every few seconds, so back-to-back
#: set-ups would all sample one state.
SETUP_REPEATS = 5

T = TypeVar("T")

#: Host probe reading (``host_probe_ms``) that timings are scaled to:
#: the probe's reading in the fast state of a 2-vCPU 2.0 GHz Xeon VM.
#: Every timing metric is reported as if the host had read this.
PROBE_REF_MS = 2.4

#: Share of each unit's replays that the timing metrics keep: the fastest
#: after host scaling.  Scaling follows the host's slow state; keeping
#: the fastest quarter drops replays hit by short bursts of heavier
#: contention that the probes on either side did not see.
FAST_SHARE = 0.25


def extra_setups_due(done: int, total: int) -> int:
    """Spread set-ups (beyond the first) due once ``done`` of ``total`` rounds ran."""
    return done * (SETUP_REPEATS - 1) // total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Replay:
    """One timed replay of a unit of fixed work.

    A unit is a home (onboard-home), one fleet gateway's record stream
    (fleet-batch) or one pass of report requests (report-http).  Every
    replay of a unit does the same work, so replays of one unit differ
    only in the host's speed while they ran.
    """

    seconds: float
    frames: int
    latencies: list[float]
    T = TypeVar("T")

#: Host probe reading around the replay (``host_probe_ms``).
    host_ms: float = 0.0
    #: Devices or reports given a final directive; set by the output check.
    answered: int = 0
    #: What the output check reads; dropped once it has run.
    outputs: object = None


def scaled_seconds(replay: Replay) -> float:
    """The replay's time as if the host probe had read ``PROBE_REF_MS``."""
    return replay.seconds * PROBE_REF_MS / replay.host_ms


def fast_replays(units: list[list[Replay]]) -> list[Replay]:
    """The fastest ``FAST_SHARE`` of each unit's replays, by scaled time."""
    kept = []
    for replays in units:
        keep = math.ceil(len(replays) * FAST_SHARE)
        kept.extend(sorted(replays, key=scaled_seconds)[:keep])
    return kept


def timing_metrics(units: list[list[Replay]]) -> tuple[dict[str, float], int]:
    """Host-scaled rates and verdict latencies over the fast replays.

    Returns the metrics and the number of latency samples behind them.
    """
    kept = fast_replays(units)
    seconds = sum(scaled_seconds(replay) for replay in kept)
    latencies = [s * PROBE_REF_MS / replay.host_ms for replay in kept for s in replay.latencies]
    return {
        "ids_per_s": sum(replay.answered for replay in kept) / seconds,
        "verdict_p50_ms": percentile(latencies, 50) * 1e3,
        "verdict_p99_ms": percentile(latencies, 99) * 1e3,
        "frames_per_s": sum(replay.frames for replay in kept) / seconds,
    }, len(latencies)


def timed_setup(build: Callable[[], T], probe: Callable[[], float]) -> tuple[T, float]:
    """Run one set-up; return what it built and its host-scaled seconds.

    ``probe`` is read on either side of the set-up, as for a replay.
    """
    gc.collect()
    before = probe()
    start = time.perf_counter()
    built = build()
    elapsed = time.perf_counter() - start
    return built, elapsed * PROBE_REF_MS / ((before + probe()) / 2.0)


_PROBE_WORDS = [f"w{i}" for i in range(512)]
_PROBE_BLOB = bytes(range(256)) * 16
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.random((64, 23))
_PROBE_B = _PROBE_RNG.random((23, 16))
_PROBE_V = _PROBE_RNG.random(256)


def host_probe_ms() -> float:
    """A short host-speed reading (about 3 ms), taken between replays.

    Fixed work in the program's mix, owned by the benchmark: dict and
    string handling, header unpacking and small numpy kernels.  Over
    repeated replays of one unit, log replay time against log reading
    has slope 0.8-1.0 for this probe and 1.3-1.4 for a tight arithmetic
    loop, which slows less than the program in the host's slow state.
    """
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(1200):
        word = _PROBE_WORDS[i & 511]
        table[word] = table.get(word, 0) + i
        fields = struct.unpack_from("!HHI", _PROBE_BLOB, (i * 7) & 4000)
        key = f"{word}:{fields[0]}"
        if len(key) > 6:
            table[key[:4]] = fields[2] % 97
    sorted(table.items(), key=lambda item: item[1])
    for _ in range(120):
        (_PROBE_A @ _PROBE_B).argmax(1)
        np.abs(_PROBE_V - _PROBE_V.mean()).sum()
        np.sort(_PROBE_V[:64])
    return (time.perf_counter() - start) * 1e3


def all_cpus_probe_ms() -> float:
    """``host_probe_ms`` on each CPU this process may use, averaged.

    For work spread over processes (report-http's client and server),
    whose CPUs each have their own speed state.  The first reading after
    moving to a CPU runs with cold caches and is discarded.
    """
    cpus = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            host_probe_ms()
            readings.append(host_probe_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(readings)


def probed(replays: Iterable[Callable[[], Replay]]) -> list[Replay]:
    """Run replays one after another, with a host probe between each two.

    Each replay's ``host_ms`` is the mean of the probes on either side.
    """
    out = []
    before = host_probe_ms()
    for replay_once in replays:
        replay = replay_once()
        after = host_probe_ms()
        replay.host_ms = (before + after) / 2.0
        before = after
        out.append(replay)
    return out


#: Timings of the reference loop per reading; the reading is their median.
REF_LOOP_REPEATS = 7


def ref_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a probe of host speed.

    Timed before and after each run, so run-to-run spread can be set
    against the host's own drift rather than blamed on the program.
    """
    samples = []
    for _ in range(REF_LOOP_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS.

    Called after every set-up the run discards, so the in-process peak
    is that of the timed workload, not of a second service being built.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``.

    ``end_to_end`` and ``per_layer`` map metric name to value; units come
    from the metric tables in ``run.py``.  ``problems`` lists failed
    output checks; a run with any problem prints no metrics.
    """

    attempted: int
    failed: int
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
