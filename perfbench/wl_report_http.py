"""report-http: the IoTSSP as deployed, one report per HTTP request.

``python -m repro serve --corpus … --port 0 --rate 0`` runs in its own
process with its shipped recording provider.  One client thread sends a
fixed sequence of single ``POST /v1/report`` requests through
``HttpTransport`` (one connection per request).  The fingerprints come
from fresh setup runs of all 27 types, not the training runs.  Three
non-sibling types are held out of the server's training corpus and
enrolled with ``POST /v1/types`` at 1/4, 1/2 and 3/4 of the sequence, so
writes land beside reads on the identifier and each holdout is reported
as ``unknown`` until it is enrolled.  No packet, extractor or SDN code
runs on this path.

Each of the four enrolment phases sends one fixed pass of 54 reports
(two of each type) over and over; the timing metrics come from each phase's fastest passes
(``common``).

The server is always terminated, also on failure or timeout; its peak
RSS is read before shutdown and its output is kept as
``server-<k>.log`` beside the run's other artifacts.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from urllib.parse import urlsplit

from repro.core.identifier import UNKNOWN_DEVICE
from repro.core.persistence import fingerprint_to_dict, save_registry
from repro.devices import DEVICE_PROFILES
from repro.obs import names as obs_names
from repro.securityservice import (
    FingerprintReport,
    HttpTransport,
    IoTSecurityService,
    ProtocolError,
    ServiceUnavailable,
    TransportTimeout,
)
from repro.securityservice.http.wire import report_to_dict

import inputs
from common import (
    Outcome,
    Replay,
    all_cpus_probe_ms,
    extra_setups_due,
    timed_setup,
    timing_metrics,
    vm_hwm_mb,
)
from tracing import SpanRecorder

TRAIN_RUNS = 12
#: Report requests per second of ``--seconds``.
REQUESTS_PER_SECOND = 200
#: Reports of each type per pass (27 types): a pass is the unit that is
#: repeated, and whose fastest repeats the timing metrics keep.
PASS_PER_TYPE = 2
FINGERPRINTS_PER_TYPE = 20
ENROLL_RUNS = 12
#: Seconds the server may take to print its address and answer /healthz.
READY_TIMEOUT = 90.0
REQUEST_TIMEOUT = 10.0
#: Failed requests after which the sequence is abandoned (the rest count as failed).
MAX_FAILURES = 3

_URL_LINE = re.compile(r"IoTSSP serving on (http://\S+)")
_FAULTS = (ProtocolError, ServiceUnavailable, TransportTimeout)


class Server:
    """One ``repro serve`` child process; a context manager that always
    terminates it and waits for it to exit."""

    def __init__(self, root: Path, corpus: Path, seed: int, log: Path) -> None:
        self._log = open(log, "wb")
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--corpus", str(corpus), "--host", "127.0.0.1", "--port", "0",
                "--rate", "0", "--seed", str(seed),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self._log_path = log
        self.base_url = ""

    def wait_ready(self) -> None:
        """Read the ephemeral address from the log, then poll /healthz."""
        deadline = time.monotonic() + READY_TIMEOUT
        while not self.base_url:
            match = _URL_LINE.search(self._log_path.read_text(errors="replace"))
            if match:
                self.base_url = match.group(1)
                break
            self._alive_before(deadline)
            time.sleep(0.005)
        probe = HttpTransport(self.base_url, timeout=5.0)
        while True:
            try:
                probe.request_json("GET", "/healthz")
                return
            except _FAULTS:
                self._alive_before(deadline)
                time.sleep(0.005)

    def _alive_before(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"server exited with code {self.process.returncode}; see {self._log_path}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"server not ready after {READY_TIMEOUT:.0f} s; see {self._log_path}")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def metrics(self) -> dict[tuple[str, str], float]:
        """Scrape ``/metrics`` into ``{(sample name, label text): value}``."""
        parts = urlsplit(self.base_url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=REQUEST_TIMEOUT)
        try:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            head, _, value = line.rpartition(" ")
            name, _, labels = head.partition("{")
            samples[(name, labels.rstrip("}"))] = float(value)
        return samples

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                self.process.terminate()
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=10)
        finally:
            self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _span(samples: dict, span: str, field: str) -> float:
    return samples.get((f"{obs_names.METRIC_SPAN_DURATION}_{field}", f'span="{span}"'), 0.0)


def _counter(samples: dict, name: str, **match: str) -> float:
    wanted = [f'{k}="{v}"' for k, v in match.items()]
    return sum(
        value for (sample, labels), value in samples.items()
        if sample == name and all(w in labels for w in wanted)
    )


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _start(root: Path, corpus: Path, seed: int, workdir: Path, k: int) -> tuple[Server, float]:
    def launch() -> Server:
        server = Server(root, corpus, seed, workdir / f"server-{k}.log")
        try:
            server.wait_ready()
        except BaseException:
            server.close()
            raise
        return server

    return timed_setup(launch, all_cpus_probe_ms)


def run(seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    root = Path.cwd()
    kept = tuple(p for p in DEVICE_PROFILES if p.identifier not in inputs.HOLDOUTS)
    corpus = workdir / "corpus.json"
    save_registry(inputs.training_registry(seed, kept, TRAIN_RUNS), corpus)
    phases = len(inputs.HOLDOUTS) + 1
    pass_len = PASS_PER_TYPE * len(DEVICE_PROFILES)
    repeats = math.ceil(seconds * REQUESTS_PER_SECOND / (phases * pass_len))
    plan = inputs.report_plan(seed, repeats, PASS_PER_TYPE, FINGERPRINTS_PER_TYPE, ENROLL_RUNS)
    reports = [FingerprintReport(fingerprint=fp) for fp in plan.fingerprints]
    enroll_bodies = {
        label: {"label": label, "fingerprints": [fingerprint_to_dict(fp) for fp in fps]}
        for label, fps in plan.enroll_sets.items()
    }

    server, first = _start(root, corpus, seed, workdir, 0)
    setup_times = [first]

    def extra_setup() -> None:
        """A throwaway server, started and stopped between passes."""
        spare, elapsed = _start(root, corpus, seed, workdir, len(setup_times))
        spare.close()
        setup_times.append(elapsed)
        gc.collect()

    with server:
        return _drive(server, plan, reports, enroll_bodies, setup_times, extra_setup, trace, workdir)


def _send_pass(transport, reports, one_pass, failures: list[str], recorder, number: int) -> Replay:
    """Send pass ``number``; its outputs are the directives, by position."""
    clock = time.perf_counter
    latencies: list[float] = []
    directives: list[object] = []
    for pos, idx in enumerate(one_pass):
        if recorder is not None:
            recorder.trace_id = number * len(one_pass) + pos
        start = clock()
        try:
            directive = transport.submit(reports[idx])
        except _FAULTS as exc:
            directive = None
            failures.append(f"report {idx}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - start)
        directives.append(directive)
        if len(failures) >= MAX_FAILURES:
            break  # a broken server: stop well inside the run's time limit
    return Replay(
        seconds=sum(latencies),
        frames=sum(len(reports[idx].fingerprint) for idx in one_pass[: len(latencies)]),
        latencies=latencies,
        outputs=directives,
    )


def _check_pass(plan, one_pass, replay: Replay, enrolled: set[str], assessor, problems) -> int:
    """Output checks for one pass; returns the correct labels.

    Sets ``replay.answered``.  A holdout not yet enrolled is truly ``unknown``.
    """
    correct = 0
    for idx, directive in zip(one_pass, replay.outputs):
        if directive is None:
            continue
        if directive.provisional:
            problems.append(f"report {idx}: provisional directive from the service")
            continue
        replay.answered += 1
        truth = plan.labels[idx]
        if truth in inputs.HOLDOUTS and truth not in enrolled:
            truth = UNKNOWN_DEVICE
        correct += directive.device_type == truth
        want = assessor.assess_type(directive.device_type).level
        if directive.level is not want:
            problems.append(
                f"report {idx}: level {directive.level.value} != assess_type "
                f"({directive.device_type}) {want.value}"
            )
    replay.outputs = None
    return correct


def _drive(
    server: Server, plan, reports, enroll_bodies, setup_times, extra_setup, trace: bool, workdir
) -> Outcome:
    transport = HttpTransport(server.base_url, timeout=REQUEST_TIMEOUT)
    recorder = SpanRecorder() if trace else None
    per_layer: dict[str, float] = {}
    for idx in plan.warmup:
        transport.submit(reports[idx])
    if recorder is not None:
        per_layer["trace.overhead_share"] = _overhead(transport, plan, reports, recorder)
        recorder.reset()

    problems: list[str] = []
    failures: list[str] = []
    assessor = IoTSecurityService()
    enrolled: set[str] = set()
    correct = 0
    enroll_times: list[float] = []
    units: list[list[Replay]] = []
    # Traced runs scrape /metrics around every enrolment, so server-side
    # report metrics come from windows that hold only report requests.
    windows: list[tuple[dict, dict]] = []
    window_start = server.metrics() if trace else None
    phase_start = window_start
    clock = time.perf_counter
    total_passes = len(plan.passes) * plan.repeats
    setups = 0
    gc.collect()
    try:
        for phase, one_pass in enumerate(plan.passes):
            if phase:
                label = inputs.HOLDOUTS[phase - 1]
                if trace:
                    windows.append((window_start, server.metrics()))
                start = clock()
                transport.request_json("POST", "/v1/types", enroll_bodies[label])
                enroll_times.append(clock() - start)
                enrolled.add(label)
                if trace:
                    window_start = server.metrics()
            replays: list[Replay] = []
            units.append(replays)
            for _ in range(plan.repeats):
                done = phase * plan.repeats + len(replays)
                before = all_cpus_probe_ms()
                replay = _send_pass(transport, reports, one_pass, failures, recorder, done)
                replay.host_ms = (before + all_cpus_probe_ms()) / 2.0
                correct += _check_pass(plan, one_pass, replay, enrolled, assessor, problems)
                replays.append(replay)
                if failures:
                    break
                done += 1
                while setups < extra_setups_due(done, total_passes):
                    extra_setup()
                    setups += 1
            if failures:
                break
        if trace:
            phase_end = server.metrics()
            windows.append((window_start, phase_end))
        peak_rss = server.peak_rss_mb()
    finally:
        if recorder is not None:
            recorder.unwrap_all()

    problems = failures + problems
    total = plan.requests
    answered = sum(replay.answered for replays in units for replay in replays)
    outcome = Outcome(attempted=total, failed=total - answered, problems=problems[:20])
    if problems:
        return outcome
    timing, samples = timing_metrics(units)
    outcome.end_to_end = {
        "setup_s": median(setup_times),
        # Report-http carries no frames; each fingerprint row is one setup
        # frame the gateway distilled, so ``frames_per_s`` counts frames
        # identified.
        **timing,
        "verdict_accuracy": correct / total,
        "success_share": answered / total,
        "peak_rss_mb": peak_rss,
    }
    outcome.notes = {
        "setup_s": setup_times,
        "verdict_samples": samples,
        "passes_per_phase": plan.repeats,
        "replays": [[(r.seconds, r.host_ms) for r in unit] for unit in units],
    }
    if trace:
        per_layer.update(_server_layers(windows, _delta(phase_end, phase_start)))
        stats = recorder.stats()
        client = stats["http.client"].mean_ms()
        per_layer["http.client_ms"] = client
        per_layer["http.wire_ms"] = client - per_layer["http.server_ms"]
        per_layer["http.enroll_ms"] = sum(enroll_times) / len(enroll_times) * 1e3
        per_layer["http.request_bytes"] = sum(
            len(json.dumps(report_to_dict(reports[idx])).encode("utf-8"))
            for one_pass in plan.passes
            for idx in one_pass
        ) / sum(len(one_pass) for one_pass in plan.passes)
        outcome.per_layer = per_layer
        recorder.write(workdir / "spans.jsonl.gz")
    return outcome


def _server_layers(windows: list[tuple[dict, dict]], phase: dict) -> dict[str, float]:
    """Server-side per-layer metrics from ``/metrics`` deltas.

    Span means come from the report-only windows; each window also holds
    the one ``/metrics`` request that opened it.  Counters span the whole
    timed phase.
    """
    report_window: dict[tuple[str, str], float] = {}
    for before, after in windows:
        for key, value in _delta(after, before).items():
            report_window[key] = report_window.get(key, 0.0) + value

    def mean_ms(span: str) -> float:
        count = _span(report_window, span, "count")
        return _span(report_window, span, "sum") / count * 1e3 if count else 0.0

    identifications = _counter(phase, obs_names.METRIC_IDENTIFICATIONS)
    unknown = _counter(phase, obs_names.METRIC_IDENTIFICATIONS, outcome="unknown")
    discriminations = _counter(phase, obs_names.METRIC_DISCRIMINATIONS)
    classify_calls = _span(report_window, obs_names.SPAN_CLASSIFY, "count")
    return {
        "http.server_ms": mean_ms(obs_names.SPAN_HTTP_REQUEST),
        "service.report_ms": mean_ms(obs_names.SPAN_SERVICE_REPORT),
        "identify.classify_ms": mean_ms(obs_names.SPAN_CLASSIFY),
        "identify.classify_batch": (
            _counter(report_window, obs_names.METRIC_IDENTIFICATIONS) / classify_calls
            if classify_calls else 0.0
        ),
        "identify.discriminate_ms": mean_ms(obs_names.SPAN_DISCRIMINATE),
        "identify.discriminations": discriminations,
        "identify.discriminate_share": discriminations / identifications if identifications else 0.0,
        "identify.unknown_share": unknown / identifications if identifications else 0.0,
    }


def _overhead(transport: HttpTransport, plan, reports, recorder: SpanRecorder) -> float:
    """Median request time over the warm-up set, untraced vs traced, twice.

    Leaves the client wrapper installed for the timed phase.
    """
    clock = time.perf_counter

    def timed_warmup() -> list[float]:
        out = []
        for idx in plan.warmup:
            start = clock()
            transport.submit(reports[idx])
            out.append(clock() - start)
        return out

    plain: list[float] = []
    traced: list[float] = []
    for _ in range(2):
        plain.extend(timed_warmup())
        recorder.wrap(HttpTransport, "submit", "http.client")
        traced.extend(timed_warmup())
        recorder.unwrap_all()
    recorder.wrap(HttpTransport, "submit", "http.client")
    return median(traced) / median(plain) - 1.0
