"""onboard-home: the paper's scalar per-device path, frame by frame.

Homes of 25 devices, drawn round-robin from all 27 profiles (10 of them
in sibling groups, so stage-2 discrimination is frequent), are replayed
into fresh ``SecurityGateway``s over an in-process ``IoTSecurityService``
(``DirectTransport``).  Every setup frame goes through
``SecurityGateway.process_frame``: decode, flow-table miss, controller
punt, monitor.  After the idle gap each device sends its post-setup
traffic (two permitted cloud flows, one non-permitted endpoint, one LAN
peer; three packets per flow); the first of those frames fires the
setup-phase detector, so it carries identification, the directive and
the first flow-rule install.  Every fourth device then detaches.

One round replays every home of the pool; a run does a fixed number
of rounds derived from ``--seconds``.  Closed loop, one thread.  The
timing metrics come from each home's fastest replays (``common``).
"""

from __future__ import annotations

import gc
import time
from functools import partial
from statistics import median

from repro.devices import DEVICE_PROFILES
from repro.gateway.gateway import SecurityGateway
from repro.obs import RecordingProvider
from repro.sdn.overlay import IsolationLevel
from repro.securityservice import DirectTransport, IoTSecurityService

import inputs
import layers
from common import (
    Outcome,
    Replay,
    host_probe_ms,
    probed,
    scaled_seconds,
    timed_setup,
    timing_metrics,
)
from tracing import SpanRecorder

HOME_SIZE = 25
POOL_HOMES = 40
TRAIN_RUNS = 12
#: Rounds (whole-pool replays) per second of ``--seconds``.
ROUNDS_PER_SECOND = 0.25
#: Homes replayed untimed before the timed phase.
WARMUP_HOMES = 2


def _build_service(seed: int, registry) -> IoTSecurityService:
    service = IoTSecurityService(
        random_state=seed, endpoint_directory=inputs.endpoint_directory()
    )
    service.train(registry)
    return service


def _setup(seed: int, registry, pool) -> tuple[IoTSecurityService, float]:
    """One set-up: train the service and build one home's gateway."""

    def build() -> IoTSecurityService:
        service = _build_service(seed, registry)
        _gateway(service, pool[0])
        return service

    return timed_setup(build, host_probe_ms)


def _gateway(service: IoTSecurityService, home: inputs.Home) -> SecurityGateway:
    gateway = SecurityGateway(DirectTransport(service))
    for device in home.devices:
        gateway.attach_device(device.mac, "wifi", now=device.setup[0].timestamp)
    return gateway


def _replay_home(
    gateway: SecurityGateway, home: inputs.Home, recorder: SpanRecorder | None
) -> Replay:
    """Replay one home; only frame processing and detaches are timed.

    The replay's outputs for the checks are each frame's dropped flag,
    every device's directive and the flow-table size.
    """
    macs = [device.mac for device in home.devices]
    stream = home.stream
    durations = [0.0] * len(stream)
    dropped = [False] * len(stream)
    process = gateway.process_frame
    clock = time.perf_counter
    for pos, (j, ts, frame, _) in enumerate(stream):
        if recorder is not None:
            recorder.trace_id = macs[j]
        start = clock()
        result = process(macs[j], frame, ts)
        durations[pos] = clock() - start
        dropped[pos] = result.dropped
    directives = [gateway.directive_for(mac) for mac in macs]
    table_rules = gateway.flow_rule_count
    end_ts = stream[-1][1] + 1.0
    start = clock()
    for j in home.detach:
        if recorder is not None:
            recorder.trace_id = macs[j]
        gateway.detach_device(macs[j], now=end_ts)
    detach_seconds = clock() - start
    return Replay(
        seconds=sum(durations) + detach_seconds,
        frames=len(stream),
        latencies=[durations[pos] for pos in home.fire],
        outputs=(dropped, directives, table_rules),
    )


def _run_round(service, pool, recorder=None) -> list[Replay]:
    gateways = [_gateway(service, home) for home in pool]
    gc.collect()
    return probed(partial(_replay_home, gateway, home, recorder) for gateway, home in zip(gateways, pool))


def _expected_allowed(home: inputs.Home, directives: list, flow: inputs.Flow, first_pos: int) -> bool:
    """The Fig. 3 overlay policy for a flow's first packet."""
    own = directives[flow.device]
    if flow.kind != "lan":
        if own.level is IsolationLevel.TRUSTED:
            return True
        if own.level is IsolationLevel.STRICT:
            return False
        return flow.dst_ip in own.permitted_endpoints
    # A LAN peer counts only once it has a directive of its own.
    if home.fire[flow.peer] > first_pos:
        return False
    return own.level.overlay == directives[flow.peer].level.overlay


def _check_home(
    home: inputs.Home, replay: Replay, service: IoTSecurityService, problems: list[str]
) -> int:
    """Output checks for one home's replay; returns the correct labels.

    Sets ``replay.answered``; a device without a final directive fails.
    """
    dropped, directives, _ = replay.outputs
    correct = 0
    for device, directive in zip(home.devices, directives):
        if directive is None or directive.provisional:
            continue
        replay.answered += 1
        correct += directive.device_type == device.label
        want = service.assess_type(directive.device_type).level
        if directive.level is not want:
            problems.append(
                f"{device.mac}: level {directive.level.value} != assess_type "
                f"({directive.device_type}) {want.value}"
            )
    if replay.answered < len(home.devices):
        return correct
    first_pos: dict[int, int] = {}
    for pos, (j, _, _, flow_id) in enumerate(home.stream):
        if flow_id < 0:
            if dropped[pos]:
                problems.append(f"{home.devices[j].mac}: setup frame {pos} dropped")
            continue
        first = first_pos.setdefault(flow_id, pos)
        flow = home.flows[flow_id]
        allowed = _expected_allowed(home, directives, flow, first)
        if dropped[pos] == allowed:
            problems.append(
                f"{home.devices[j].mac}: {flow.kind} flow to {flow.dst_ip} "
                f"{'dropped' if dropped[pos] else 'forwarded'} against its overlay policy"
            )
    return correct


def run(seed: int, seconds: int, trace: bool, workdir) -> Outcome:
    registry = inputs.training_registry(seed, DEVICE_PROFILES, TRAIN_RUNS)
    pool = inputs.homes(seed, POOL_HOMES, HOME_SIZE)
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))

    problems: list[str] = []
    correct = 0
    table_rules: list[int] = []

    def check(replays: list[Replay]) -> None:
        nonlocal correct
        for home, replay in zip(pool, replays):
            correct += _check_home(home, replay, service, problems)
            table_rules.append(replay.outputs[2])
            replay.outputs = None

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        layers.install(recorder)
    try:
        service, first = _setup(seed, registry, pool)
        setup_times = [first]
        per_layer = layers.setup_metrics(recorder) if recorder is not None else {}

        for home in pool[:WARMUP_HOMES]:
            _replay_home(_gateway(service, home), home, None)

        if recorder is not None:
            # Probe: the first two homes, untraced vs traced.
            per_layer["trace.overhead_share"] = layers.overhead_share(
                lambda rec: sum(map(scaled_seconds, _run_round(service, pool[:2], rec))), recorder
            )
            recorder.reset()
        provider = RecordingProvider(record_span_durations=False) if trace else None
        results, peak_rss = layers.run_rounds(
            rounds,
            lambda: _run_round(service, pool, recorder),
            check,
            lambda: setup_times.append(_setup(seed, registry, pool)[1]),
            recorder,
            provider,
        )
    finally:
        if recorder is not None:
            recorder.unwrap_all()

    replays = [replay for replays in results for replay in replays]
    devices = len(replays) * HOME_SIZE
    answered = sum(replay.answered for replay in replays)
    units = [list(home) for home in zip(*results)]
    timing, samples = timing_metrics(units)
    outcome = Outcome(attempted=devices, failed=devices - answered, problems=problems[:20])
    outcome.end_to_end = {
        "setup_s": median(setup_times),
        **timing,
        "verdict_accuracy": correct / devices,
        "success_share": answered / devices,
        "peak_rss_mb": peak_rss,
    }
    outcome.notes = {
        "setup_s": setup_times,
        "rounds": rounds,
        "verdict_samples": samples,
        "replays": [[(r.seconds, r.host_ms) for r in unit] for unit in units],
    }
    if recorder is not None:
        frames = sum(replay.frames for replay in replays)
        per_layer.update(layers.metrics(recorder, provider, frames))
        per_layer["sdn.table_rules"] = median(table_rules)
        outcome.per_layer = per_layer
        recorder.write(workdir / "spans.jsonl.gz")
    return outcome
