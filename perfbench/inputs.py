"""Seeded input generation for the three workloads.

Everything a workload feeds the program is built here from ``--seed``
alone: training corpora, device pools (setup captures plus post-setup
traffic), fleet record streams and the HTTP report sequence.  The same
seed gives equal inputs (the self-check compares them); the program
only ever sees the generated frames, fingerprints and reports.

Capture generation costs about 1 ms per device, so each workload builds
one pool here and replays it into fresh gateways.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.extractor import SetupPhaseDetector, fingerprint_from_records
from repro.core.fingerprint import Fingerprint
from repro.core.registry import DeviceTypeRegistry
from repro.devices import (
    DEVICE_PROFILES,
    NetworkEnvironment,
    TrafficGenerator,
    collect_fingerprints,
    instance_mac,
    profile_by_name,
)
from repro.devices.profiles import DeviceProfile
from repro.packets.builder import udp_raw_frame
from repro.packets.pcap import CaptureRecord

#: The gateway MAC every generated device talks to (``SecurityGateway``'s default).
GATEWAY_MAC = "02:00:00:00:00:01"

#: Profiles outside every confusion group: stage 2 is (almost) never needed.
NON_SIBLING = tuple(p for p in DEVICE_PROFILES if p.confusion_group is None)

#: Held out of the report-http server's training and enrolled over HTTP.
HOLDOUTS = ("Withings", "EdnetCam", "WeMoLink")

# Independent random streams per input family, so changing one family's
# size never shifts another family's draws.
_STREAM_TRAIN = 1
_STREAM_HOMES = 2
_STREAM_FLEET = 3
_STREAM_REPORTS = 4
_STREAM_ORDER = 5
_STREAM_ENROLL = 6


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def cloud_endpoints(label: str) -> tuple[str, str]:
    """Two vendor-cloud IPs per type (the restricted allow-list, Fig. 2)."""
    index = [p.identifier for p in DEVICE_PROFILES].index(label)
    return (f"34.{index + 1}.0.10", f"34.{index + 1}.0.11")


def endpoint_directory() -> dict[str, frozenset[str]]:
    return {p.identifier: frozenset(cloud_endpoints(p.identifier)) for p in DEVICE_PROFILES}


def training_registry(
    seed: int, profiles: tuple[DeviceProfile, ...], runs: int
) -> DeviceTypeRegistry:
    """The lab corpus the service trains on (``runs`` setups per type)."""
    rng = rng_for(seed, _STREAM_TRAIN)
    registry = DeviceTypeRegistry()
    for profile in profiles:
        registry.add_many(profile.identifier, collect_fingerprints(profile, runs, rng=rng))
    return registry


@dataclass(frozen=True)
class Device:
    """One device instance: its true type, addressing and setup capture."""

    label: str
    mac: str
    ip: str
    setup: tuple[CaptureRecord, ...]


def _make_device(
    profile: DeviceProfile,
    rng: np.random.Generator,
    env: NetworkEnvironment,
    start: float,
    used_macs: set[str],
) -> Device:
    mac = instance_mac(profile, rng)
    while mac in used_macs:
        mac = instance_mac(profile, rng)
    used_macs.add(mac)
    generator = TrafficGenerator(
        mac, profile.dialogue, env=env, port_base=profile.port_base, rng=rng
    )
    return Device(
        label=profile.identifier,
        mac=mac,
        ip=generator.device_ip,
        setup=tuple(generator.run(start)),
    )


def firing_index(timestamps: list[float]) -> int | None:
    """Index of the frame on which the setup-phase detector fires."""
    detector = SetupPhaseDetector()
    for index, timestamp in enumerate(timestamps):
        if detector.observe(timestamp):
            return index
    return None


# --- onboard-home ------------------------------------------------------------

#: Flow kinds of the post-setup traffic, in the order a device sends them.
FLOW_KINDS = ("cloud", "cloud", "other", "lan")
PACKETS_PER_FLOW = 3


@dataclass(frozen=True)
class Flow:
    device: int  # index into Home.devices
    kind: str  # "cloud" | "other" | "lan"
    dst_ip: str
    peer: int  # device index of the LAN peer, -1 for remote flows


@dataclass(frozen=True)
class Home:
    """One home: its devices and the merged, time-ordered frame stream.

    ``stream`` rows are ``(device index, timestamp, frame, flow id)`` with
    flow id -1 for setup frames.  ``fire`` maps each device to the stream
    position of the frame that completes its setup phase; ``detach`` lists
    the devices unplugged after the traffic.
    """

    devices: tuple[Device, ...]
    flows: tuple[Flow, ...]
    stream: tuple[tuple[int, float, bytes, int], ...]
    fire: tuple[int, ...]
    detach: tuple[int, ...]


def _home(
    rng: np.random.Generator, profiles: list[DeviceProfile], used_macs: set[str]
) -> Home:
    env = NetworkEnvironment(gateway_mac=GATEWAY_MAC)
    devices = tuple(
        _make_device(profile, rng, env, j * 1.5 + float(rng.uniform(0.0, 1.0)), used_macs)
        for j, profile in enumerate(profiles)
    )
    n = len(devices)
    rows: list[tuple[float, int, bytes, int]] = []
    flows: list[Flow] = []
    for j, device in enumerate(devices):
        rows.extend((rec.timestamp, j, rec.data, -1) for rec in device.setup)
        t = device.setup[-1].timestamp + 6.0 + float(rng.uniform(0.0, 2.0))
        cloud = cloud_endpoints(device.label)
        for k, kind in enumerate(FLOW_KINDS):
            peer = -1
            if kind == "cloud":
                dst_ip, dst_mac, port = cloud[k], GATEWAY_MAC, 443 + k
            elif kind == "other":
                dst_ip, dst_mac, port = f"198.51.100.{j % 250 + 1}", GATEWAY_MAC, 443
            else:
                peer = (j - 1) % n
                dst_ip, dst_mac, port = devices[peer].ip, devices[peer].mac, 8080
            flow_id = len(flows)
            flows.append(Flow(device=j, kind=kind, dst_ip=dst_ip, peer=peer))
            for p in range(PACKETS_PER_FLOW):
                payload = bytes(int(rng.integers(40, 200)))
                frame = udp_raw_frame(
                    device.mac, dst_mac, device.ip, dst_ip, 40000 + k, port, payload
                )
                rows.append((t, j, frame, flow_id))
                t += 0.05
            t += 0.4
    # Stable sort: ties keep generation order, so each device's own frames
    # stay in capture order.
    rows.sort(key=lambda row: row[0])
    stream = tuple((j, ts, frame, flow) for ts, j, frame, flow in rows)
    fire = [-1] * n
    per_device: list[list[int]] = [[] for _ in range(n)]
    for pos, (j, ts, _, _) in enumerate(stream):
        per_device[j].append(pos)
    for j, positions in enumerate(per_device):
        index = firing_index([stream[pos][1] for pos in positions])
        if index is None:
            raise RuntimeError(f"device {devices[j].mac}: setup phase never ends")
        fire[j] = positions[index]
    detach = tuple(j for j in range(n) if j % 4 == 3)
    return Home(devices=devices, flows=tuple(flows), stream=stream, fire=tuple(fire), detach=detach)


def homes(seed: int, count: int, size: int) -> tuple[Home, ...]:
    """``count`` homes of ``size`` devices, drawn round-robin from all 27 profiles."""
    rng = rng_for(seed, _STREAM_HOMES)
    used: set[str] = set()
    out = []
    for h in range(count):
        chosen = [DEVICE_PROFILES[(h * size + j) % len(DEVICE_PROFILES)] for j in range(size)]
        out.append(_home(rng, chosen, used))
    return tuple(out)


# --- fleet-batch -------------------------------------------------------------


@dataclass(frozen=True)
class FleetGateway:
    """One fleet gateway's devices and its interleaved record stream."""

    devices: tuple[Device, ...]
    records: tuple[CaptureRecord, ...]


def fleet_gateways(seed: int, count: int, size: int) -> tuple[FleetGateway, ...]:
    """Gateways of ``size`` confusion-group-free devices with staggered setups.

    Setup captures start every half second (plus jitter), and one frame
    after the idle gap closes each setup phase, so completions spread
    evenly over the stream instead of arriving in bursts.
    """
    rng = rng_for(seed, _STREAM_FLEET)
    used: set[str] = set()
    out = []
    for _ in range(count):
        env = NetworkEnvironment(gateway_mac=GATEWAY_MAC)
        devices = []
        rows: list[CaptureRecord] = []
        for j in range(size):
            profile = NON_SIBLING[int(rng.integers(0, len(NON_SIBLING)))]
            start = j * 0.5 + float(rng.uniform(0.0, 0.25))
            device = _make_device(profile, rng, env, start, used)
            devices.append(device)
            rows.extend(device.setup)
            last = device.setup[-1].timestamp + 6.0 + float(rng.uniform(0.0, 2.0))
            frame = udp_raw_frame(
                device.mac, GATEWAY_MAC, device.ip, cloud_endpoints(device.label)[0],
                40000, 443, bytes(64),
            )
            rows.append(CaptureRecord(timestamp=last, data=frame))
        rows.sort(key=lambda rec: rec.timestamp)
        out.append(FleetGateway(devices=tuple(devices), records=tuple(rows)))
    return tuple(out)


def setup_fingerprint(device: Device) -> Fingerprint:
    """The device's fingerprint as the scalar extractor sees it."""
    return fingerprint_from_records(list(device.setup), device.mac, label=device.label)


# --- report-http -------------------------------------------------------------


@dataclass(frozen=True)
class ReportPlan:
    """The fixed request sequence of one report-http run.

    The run has one phase per enrolment state: before any holdout is
    enrolled, then after each enrolment.  Phase ``k`` sends its pass
    ``passes[k]`` (indices into ``fingerprints``) ``repeats`` times; the
    holdout ``HOLDOUTS[k - 1]`` is enrolled with ``enroll_sets`` just
    before phase ``k`` starts.
    """

    fingerprints: tuple[Fingerprint, ...]
    labels: tuple[str, ...]
    passes: tuple[tuple[int, ...], ...]
    repeats: int
    enroll_sets: dict[str, tuple[Fingerprint, ...]]
    warmup: tuple[int, ...]

    @property
    def requests(self) -> int:
        return sum(len(one_pass) for one_pass in self.passes) * self.repeats


def report_plan(
    seed: int, repeats: int, pass_per_type: int, per_type: int, enroll_runs: int
) -> ReportPlan:
    """Fresh setup runs of all 27 types (not the training runs); one
    seeded pass per enrolment phase, each sent ``repeats`` times.

    Every pass holds ``pass_per_type`` fingerprints of each type, in a
    seeded order, so each seed's passes share one mix of types and the
    latency tail (stage-2 discrimination of sibling types) is drawn
    from the same mix.
    """
    rng = rng_for(seed, _STREAM_REPORTS)
    fingerprints: list[Fingerprint] = []
    labels: list[str] = []
    for profile in DEVICE_PROFILES:
        for fp in collect_fingerprints(profile, per_type, rng=rng):
            fingerprints.append(fp)
            labels.append(profile.identifier)
    order = rng_for(seed, _STREAM_ORDER)
    # Fingerprints of type t sit at t * per_type .. (t + 1) * per_type - 1.
    drawn = [
        [t * per_type + int(i) for i in order.permutation(per_type)]
        for t in range(len(DEVICE_PROFILES))
    ]
    passes = []
    for k in range(len(HOLDOUTS) + 1):
        chosen = [
            own[(k * pass_per_type + i) % per_type]
            for own in drawn
            for i in range(pass_per_type)
        ]
        passes.append(tuple(chosen[int(i)] for i in order.permutation(len(chosen))))
    enroll_rng = rng_for(seed, _STREAM_ENROLL)
    enroll_sets = {
        label: tuple(collect_fingerprints(profile_by_name(label), enroll_runs, rng=enroll_rng))
        for label in HOLDOUTS
    }
    known = [i for i, label in enumerate(labels) if label not in HOLDOUTS]
    warmup = tuple(known[int(i)] for i in order.integers(0, len(known), size=100))
    return ReportPlan(
        fingerprints=tuple(fingerprints),
        labels=tuple(labels),
        passes=tuple(passes),
        repeats=repeats,
        enroll_sets=enroll_sets,
        warmup=warmup,
    )
