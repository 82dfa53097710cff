"""fleet-batch: the columnar fleet path into a sharded IoTSSP.

A 4-shard ``ShardedSecurityService`` is trained once into a fresh
``ModelStore`` and warm-started on the other three shards.  Gateways run
in ``batch_profiling`` mode with a few hundred devices each, drawn from
the 17 confusion-group-free profiles.  Their staggered, interleaved setup
captures (plus one post-idle-gap frame per device, so the detector fires)
go in as 256-record ``PacketBatch`` chunks to
``gateway.monitor.observe_batch``, each chunk followed by
``drain_profiling``: columnar parse, batched features, the compiled
bank at batch sizes well above 1, and the ring fan-out.  Scalar decode,
controller punts, HTTP and most of stage 2 are bypassed.

A device's verdict latency runs from the start of the chunk holding the
frame that completes its setup phase to the end of the drain that put
its directive in force.  One round replays every gateway's stream into
fresh gateways; a run does a fixed number of rounds.  The timing metrics
come from each gateway stream's fastest replays (``common``).
"""

from __future__ import annotations

import gc
import time
from functools import partial
from statistics import median

from repro.core import ModelStore
from repro.gateway.gateway import SecurityGateway
from repro.obs import RecordingProvider
from repro.packets.batch import PacketBatch
from repro.securityservice import DirectTransport, ShardedSecurityService

import inputs
import layers
from common import (
    Outcome,
    Replay,
    fast_replays,
    host_probe_ms,
    probed,
    scaled_seconds,
    timed_setup,
    timing_metrics,
)
from tracing import SpanRecorder

GATEWAYS = 4
DEVICES_PER_GATEWAY = 300
NUM_SHARDS = 4
TRAIN_RUNS = 12
CHUNK = 256
#: Rounds (whole-pool replays) per second of ``--seconds``.
ROUNDS_PER_SECOND = 3.5
#: Every N-th device of each gateway is re-identified with scalar ``identify``.
SAMPLE_EVERY = 10


def _build_front(seed: int, registry, store_dir) -> ShardedSecurityService:
    front = ShardedSecurityService(
        NUM_SHARDS,
        store=ModelStore(store_dir),
        random_state=seed,
        endpoint_directory=inputs.endpoint_directory(),
    )
    front.train(registry)
    if front.cache_hits != NUM_SHARDS - 1:
        raise RuntimeError(f"expected {NUM_SHARDS - 1} warm starts, saw {front.cache_hits}")
    return front


def _setup(seed: int, registry, pool, store_dir) -> tuple[ShardedSecurityService, float]:
    """One set-up: train into a fresh store, warm-start 3 shards, one gateway."""

    def build() -> ShardedSecurityService:
        front = _build_front(seed, registry, store_dir)
        _gateway(front, pool[0])
        return front

    return timed_setup(build, host_probe_ms)


def _gateway(front: ShardedSecurityService, fleet_gateway: inputs.FleetGateway) -> SecurityGateway:
    gateway = SecurityGateway(DirectTransport(front), batch_profiling=True)
    for device in fleet_gateway.devices:
        gateway.attach_device(device.mac, "wifi", now=device.setup[0].timestamp)
    return gateway


def _replay(gateway: SecurityGateway, chunks: list[list], recorder) -> Replay:
    """Replay one gateway's stream; its outputs are the directives given,
    by MAC, and the number of drain sweeps that gave any."""
    clock = time.perf_counter
    observe = gateway.monitor.observe_batch
    drain = gateway.drain_profiling
    seconds = 0.0
    frames = sweeps = 0
    latencies: list[float] = []
    directives: dict = {}
    for index, chunk in enumerate(chunks):
        if recorder is not None:
            recorder.trace_id = index
        start = clock()
        observe(PacketBatch.from_records(chunk))
        answered = drain(now=chunk[-1].timestamp)
        elapsed = clock() - start
        seconds += elapsed
        frames += len(chunk)
        if answered:
            sweeps += 1
            latencies.extend([elapsed] * len(answered))
            directives.update(answered)
    return Replay(seconds=seconds, frames=frames, latencies=latencies, outputs=(directives, sweeps))


def _run_round(front, pool, chunked, recorder=None) -> list[Replay]:
    gateways = [_gateway(front, fleet_gateway) for fleet_gateway in pool]
    gc.collect()
    return probed(partial(_replay, gateway, chunks, recorder) for gateway, chunks in zip(gateways, chunked))


def _check_gateway(
    fleet_gateway: inputs.FleetGateway,
    replay: Replay,
    front,
    scalar_labels: dict[str, str],
    problems: list[str],
) -> int:
    """Output checks for one gateway's replay; returns the correct labels.

    Sets ``replay.answered``.  ``scalar_labels`` caches the scalar
    ``identify`` label of each sampled device across rounds (the replayed
    fingerprints are identical).
    """
    directives, _ = replay.outputs
    scalar = next(iter(front.shards.values())).identifier
    correct = 0
    for j, device in enumerate(fleet_gateway.devices):
        directive = directives.get(device.mac)
        if directive is None or directive.provisional:
            continue
        replay.answered += 1
        correct += directive.device_type == device.label
        want = front.assess_type(directive.device_type).level
        if directive.level is not want:
            problems.append(
                f"{device.mac}: level {directive.level.value} != assess_type "
                f"({directive.device_type}) {want.value}"
            )
        if j % SAMPLE_EVERY == 0:
            label = scalar_labels.get(device.mac)
            if label is None:
                label = scalar.identify(inputs.setup_fingerprint(device)).label
                scalar_labels[device.mac] = label
            if label != directive.device_type:
                problems.append(
                    f"{device.mac}: batch label {directive.device_type} != scalar identify {label}"
                )
    return correct


def run(seed: int, seconds: int, trace: bool, workdir) -> Outcome:
    registry = inputs.training_registry(seed, inputs.NON_SIBLING, TRAIN_RUNS)
    pool = inputs.fleet_gateways(seed, GATEWAYS, DEVICES_PER_GATEWAY)
    chunked = [
        [list(fg.records[i : i + CHUNK]) for i in range(0, len(fg.records), CHUNK)] for fg in pool
    ]
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))

    problems: list[str] = []
    scalar_labels: dict[str, str] = {}
    correct = 0

    def check(replays: list[Replay]) -> None:
        nonlocal correct
        for fleet_gateway, replay in zip(pool, replays):
            correct += _check_gateway(fleet_gateway, replay, front, scalar_labels, problems)
            replay.outputs = replay.outputs[1]  # keep only the sweep count

    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        layers.install(recorder)
    try:
        front, first = _setup(seed, registry, pool, workdir / "store-0")
        setup_times = [first]

        def extra_setup() -> None:
            store = workdir / f"store-{len(setup_times)}"
            setup_times.append(_setup(seed, registry, pool, store)[1])

        per_layer = layers.setup_metrics(recorder) if recorder is not None else {}

        _replay(_gateway(front, pool[0]), chunked[0], None)

        if recorder is not None:
            # Probe: the first two gateways' streams, untraced vs traced.
            per_layer["trace.overhead_share"] = layers.overhead_share(
                lambda rec: sum(map(scaled_seconds, _run_round(front, pool[:2], chunked[:2], rec))),
                recorder,
            )
            recorder.reset()
        handled_before = {sid: shard.reports_handled for sid, shard in front.shards.items()}
        provider = RecordingProvider(record_span_durations=False) if trace else None
        results, peak_rss = layers.run_rounds(
            rounds,
            lambda: _run_round(front, pool, chunked, recorder),
            check,
            extra_setup,
            recorder,
            provider,
        )
    finally:
        if recorder is not None:
            recorder.unwrap_all()

    devices = len(results) * GATEWAYS * DEVICES_PER_GATEWAY
    answered = sum(replay.answered for replays in results for replay in replays)
    units = [list(gateway) for gateway in zip(*results)]
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
        "drain_sweeps": sum(replay.outputs for replay in fast_replays(units)),
        "replays": [[(r.seconds, r.host_ms) for r in unit] for unit in units],
    }
    if recorder is not None:
        per_layer.update(layers.metrics(recorder, provider, 0))
        handled = [
            shard.reports_handled - handled_before[sid] for sid, shard in front.shards.items()
        ]
        per_layer["shard.max_load_share"] = max(handled) / sum(handled)
        outcome.per_layer = per_layer
        recorder.write(workdir / "spans.jsonl.gz")
    return outcome
