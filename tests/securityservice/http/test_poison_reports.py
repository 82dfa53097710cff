"""Poison reports and client-driven state on the report endpoint.

A report the identifier cannot score must come back as a counted 400,
never a 500: ``HttpTransport`` retries a 5xx, so a poison report would be
resent until the gateway's circuit breaker opens.  And no stream of valid
reports may grow process-wide state: the packet-symbol intern table holds
reference packets only.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import fingerprint as fingerprint_module
from repro.core.constants import NUM_FEATURES
from repro.core.features import FEATURE_NAMES
from repro.core.persistence import fingerprint_to_dict
from repro.obs import RecordingProvider, metrics_snapshot, use_provider
from repro.securityservice.http import ServiceApp


@pytest.fixture(scope="module")
def app(service):
    return ServiceApp(service)


def post(app, fingerprint: dict):
    body = json.dumps({"fingerprint": fingerprint}).encode()
    return app.handle("POST", "/v1/report", {}, body)


def counted(provider, status: str) -> float:
    snapshot = metrics_snapshot(provider.metrics)
    return sum(
        sample["value"]
        for sample in snapshot["service_http_requests_total"]["samples"]
        if sample["labels"] == {"endpoint": "/v1/report", "status": status}
    )


def packets_of(probe) -> list[list[float]]:
    return [list(packet) for packet in probe.packets]


class TestPoisonReportsAreCounted400s:
    def assert_counted_400(self, app, fingerprint: dict, message: str) -> None:
        with use_provider(RecordingProvider()) as provider:
            response = post(app, fingerprint)
            assert response.status == 400
            assert message in response.json["error"]
            assert counted(provider, "400") == 1.0
            assert counted(provider, "500") == 0.0

    def test_narrow_packet_vector(self, app, probe):
        packets = packets_of(probe)
        packets[1] = packets[1][: NUM_FEATURES - 1]
        self.assert_counted_400(
            app,
            {"mac": "02:00:00:00:00:01", "packets": packets},
            f"packet 1 has {NUM_FEATURES - 1} features, expected {NUM_FEATURES}",
        )

    def test_wide_packet_vector(self, app, probe):
        packets = packets_of(probe)
        packets[0] = packets[0] + [0.0]
        self.assert_counted_400(
            app,
            {"mac": "02:00:00:00:00:01", "packets": packets},
            f"packet 0 has {NUM_FEATURES + 1} features",
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature(self, app, probe, value):
        packets = packets_of(probe)
        packets[2][0] = value
        self.assert_counted_400(
            app,
            {"mac": "02:00:00:00:00:01", "packets": packets},
            "packet 2 has a non-finite feature",
        )

    def test_empty_fingerprint(self, app):
        self.assert_counted_400(
            app, {"mac": "02:00:00:00:00:01", "packets": []}, "fingerprint has no packets"
        )

    def test_poison_enrolment_is_rejected_too(self, app):
        body = json.dumps(
            {"label": "Poison", "fingerprints": [{"mac": "02:aa", "packets": []}]}
        ).encode()
        response = app.handle("POST", "/v1/types", {}, body)
        assert response.status == 400
        assert "no packets" in response.json["error"]


def test_valid_reports_do_not_grow_the_symbol_table(app, service, small_registry):
    # Compile every type's references first: they are interned once, on
    # first use, and bound the table.
    for label in service.identifier.labels:
        service.identifier._models[label].reference_patterns()
    size = len(fingerprint_module._SYMBOL_IDS)

    rng = np.random.default_rng(2024)
    size_column = FEATURE_NAMES.index("packet_size")
    pool = [fp for label in small_registry.labels for fp in small_registry.fingerprints(label)]
    with use_provider(RecordingProvider()) as provider:
        for _ in range(200):
            base = pool[int(rng.integers(len(pool)))]
            packets = packets_of(base)
            # Fresh packet sizes make packets no reference holds.
            for row in rng.choice(len(packets), size=max(1, len(packets) // 3), replace=False):
                packets[int(row)][size_column] = float(rng.integers(2000, 60000))
            response = post(app, fingerprint_to_dict(base) | {"packets": packets})
            assert response.status == 200
        snapshot = metrics_snapshot(provider.metrics)
    # The table would have grown through stage 2, so make sure it ran.
    assert snapshot["identify_discriminations_total"]["samples"][0]["value"] > 20
    assert len(fingerprint_module._SYMBOL_IDS) == size
