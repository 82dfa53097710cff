"""Per-layer metrics of the in-process workloads (onboard-home, fleet-batch).

``install`` wraps the public entry point of each layer with a
:class:`~tracing.SpanRecorder` span; ``metrics`` turns the recorded spans
plus the program's own counters (a ``RecordingProvider`` installed for
the traced phase) into the per-layer metric table.  A layer the workload
never enters reports 0.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from contextlib import nullcontext
from statistics import median

import repro.sdn.switch as switch_module
import repro.securityservice.sharding as sharding_module
from repro.core.identifier import DeviceIdentifier
from repro.gateway.gateway import SecurityGateway
from repro.gateway.monitor import DeviceMonitor
from repro.gateway.sentinel_module import SentinelModule
from repro.obs import RecordingProvider, use_provider
from repro.obs import names as obs_names
from repro.packets.batch import PacketBatch
from repro.sdn.flowtable import FlowTable
from repro.securityservice import IoTSecurityService, ShardedSecurityService

from common import Replay, extra_setups_due, reset_peak_rss, vm_hwm_mb
from tracing import SpanRecorder


def _length_of_arg(args: tuple, result: object) -> int:
    return len(args[1])


def _length_of_result(args: tuple, result: object) -> int:
    return len(result)


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry point (undo with ``unwrap_all``)."""
    wrap = recorder.wrap
    # OpenVSwitch.process_frame resolves ``decode`` through its module.
    wrap(switch_module, "decode", "packets.decode")
    wrap(PacketBatch, "from_records", "packets.batch", _length_of_result)
    wrap(SentinelModule, "on_packet_in", "gateway.packet_in")
    wrap(DeviceMonitor, "observe_batch", "gateway.observe_batch", _length_of_arg)
    wrap(SecurityGateway, "drain_profiling", "gateway.drain", _length_of_result)
    wrap(SecurityGateway, "detach_device", "sdn.detach")
    wrap(DeviceIdentifier, "classify_batch", "identify.classify", _length_of_arg)
    wrap(DeviceIdentifier, "discriminate", "identify.discriminate")
    wrap(IoTSecurityService, "handle_report", "service.report")
    wrap(IoTSecurityService, "handle_reports", "service.report", _length_of_arg)
    wrap(IoTSecurityService, "assess_type", "service.assess")
    wrap(IoTSecurityService, "train", "setup.train")
    wrap(ShardedSecurityService, "handle_reports", "shard.route", _length_of_arg)
    wrap(FlowTable, "lookup", "sdn.lookup")
    # The sharded front warm-starts through its module's import; the
    # recorded size is the cache-hit flag (0 = trained, 1 = loaded).
    wrap(sharding_module, "warm_start_identifier", "setup.warm_start", lambda a, r: int(r[1]))


def counter_total(provider: RecordingProvider, name: str, **match: str) -> float:
    """Sum of a counter family's children whose labels include ``match``."""
    family = provider.metrics.get(name)
    if family is None:
        return 0.0
    wanted = set(match.items())
    return sum(child.value for labels, child in family.children() if wanted <= set(labels))


def setup_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """``setup.train_s`` / ``setup.warm_start_s`` from the set-up spans (medians)."""
    trains: list[float] = []
    warm: list[float] = []
    for index, name in enumerate(recorder.names):
        duration = recorder.ends[index] - recorder.starts[index]
        if name == "setup.train":
            trains.append(duration)
        elif name == "setup.warm_start":
            (warm if recorder.sizes[index] else trains).append(duration)
    out = {}
    if trains:
        out["setup.train_s"] = sorted(trains)[len(trains) // 2]
    if warm:
        out["setup.warm_start_s"] = sorted(warm)[len(warm) // 2]
    return out


def metrics(recorder: SpanRecorder, provider: RecordingProvider, frames: int) -> dict[str, float]:
    """The per-layer table for one traced timed phase.

    ``frames`` is the number of frames the gateways processed one by one
    (the denominator of ``sdn.fast_path_share``; 0 for the batch path).
    """
    stats = recorder.stats()

    def mean_ms(name: str, *, self_time: bool = False) -> float:
        entry = stats.get(name)
        return entry.mean_ms(self_time=self_time) if entry else 0.0

    def mean_size(name: str) -> float:
        entry = stats.get(name)
        return entry.mean_size() if entry else 0.0

    punts = counter_total(provider, obs_names.METRIC_PACKET_INS)
    identifications = counter_total(provider, obs_names.METRIC_IDENTIFICATIONS)
    unknown = counter_total(provider, obs_names.METRIC_IDENTIFICATIONS, outcome="unknown")
    discriminations = counter_total(provider, obs_names.METRIC_DISCRIMINATIONS)
    batch = stats.get("packets.batch")
    report = stats.get("service.report")
    out = {
        "packets.decode_us": mean_ms("packets.decode") * 1e3,
        "packets.batch_us_per_frame": batch.total_s / batch.size * 1e6 if batch and batch.size else 0.0,
        "gateway.packet_in_us": mean_ms("gateway.packet_in", self_time=True) * 1e3,
        "gateway.observe_batch_ms": mean_ms("gateway.observe_batch"),
        "gateway.drain_ms": mean_ms("gateway.drain"),
        "gateway.drain_batch": mean_size("gateway.drain"),
        "gateway.sessions_completed": counter_total(provider, obs_names.METRIC_SESSIONS_COMPLETED),
        "gateway.punts": punts,
        "identify.classify_ms": mean_ms("identify.classify"),
        "identify.classify_batch": mean_size("identify.classify"),
        "identify.discriminate_ms": mean_ms("identify.discriminate"),
        "identify.discriminations": discriminations,
        "identify.discriminate_share": discriminations / identifications if identifications else 0.0,
        "identify.unknown_share": unknown / identifications if identifications else 0.0,
        "service.report_ms": report.total_s / report.size * 1e3 if report and report.size else 0.0,
        "service.assess_us": mean_ms("service.assess") * 1e3,
        "shard.route_ms": mean_ms("shard.route", self_time=True),
        "sdn.lookup_us": mean_ms("sdn.lookup") * 1e3,
        "sdn.fast_path_share": 1.0 - punts / frames if frames else 0.0,
        "sdn.rule_installs": counter_total(provider, obs_names.METRIC_FLOW_MODS, command="add"),
        "sdn.detach_ms": mean_ms("sdn.detach"),
    }
    return out


def run_rounds(
    rounds: int,
    run_round: Callable[[], list[Replay]],
    check_round: Callable[[list[Replay]], None],
    extra_setup: Callable[[], None],
    recorder: SpanRecorder | None,
    provider: RecordingProvider | None,
) -> tuple[list[list[Replay]], float]:
    """The timed phase: ``rounds`` rounds, each checked as soon as it ends.

    Returns every round's replays and the peak RSS of the rounds in MiB.
    Checking right away lets ``check_round`` drop a round's bulky outputs,
    so retained results do not grow the heap the collector walks in later
    rounds.  The spread set-ups (``extra_setup``) run between rounds, and
    the peak RSS restarts after each, so it is the peak of the rounds.
    Checks and set-ups run with the wrappers and the provider removed, so
    they never count as program work in the per-layer metrics.
    """
    results = []
    setups = 0
    gc.collect()
    reset_peak_rss()
    peak = 0.0
    for done in range(1, rounds + 1):
        with use_provider(provider) if provider is not None else nullcontext():
            result = run_round()
        peak = max(peak, vm_hwm_mb())
        if recorder is not None:
            recorder.unwrap_all()
        check_round(result)
        if setups < extra_setups_due(done, rounds):
            while setups < extra_setups_due(done, rounds):
                extra_setup()
                setups += 1
            gc.collect()
            reset_peak_rss()
        if recorder is not None:
            install(recorder)
        results.append(result)
    return results, peak


def overhead_share(probe: Callable[[SpanRecorder | None], float], recorder: SpanRecorder) -> float:
    """Traced over untraced time of the same probe work, minus 1.

    ``probe(recorder_or_None)`` runs a fixed piece of work and returns its
    host-scaled seconds.  The two variants alternate three times; the wrappers
    are installed again on return.
    """
    plain, traced = [], []
    for _ in range(3):
        recorder.unwrap_all()
        plain.append(probe(None))
        install(recorder)
        traced.append(probe(recorder))
    return median(traced) / median(plain) - 1.0
