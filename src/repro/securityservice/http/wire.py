"""JSON wire format for the serving tier.

Both sides of the HTTP boundary share these codecs: the server decodes
request bodies and encodes directives with them, the
:class:`~repro.securityservice.http.client.HttpTransport` does the
reverse.  Fingerprints reuse the persistence layer's
``fingerprint_to_dict``/``fingerprint_from_dict`` shape (``{"mac",
"label", "packets"}``) so a report body is the same JSON an exported
registry holds.

Anything malformed raises :class:`WireError`; the app layer maps that to
a 400 with the message in the response body, so a misbehaving client
learns *what* was wrong instead of getting a bare status code.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.core.constants import NUM_FEATURES
from repro.core.fingerprint import Fingerprint
from repro.core.persistence import fingerprint_from_dict, fingerprint_to_dict
from repro.sdn.overlay import IsolationLevel

from ..protocol import FingerprintReport, IsolationDirective

__all__ = [
    "WireError",
    "report_to_dict",
    "report_from_dict",
    "directive_to_dict",
    "directive_from_dict",
]


class WireError(ValueError):
    """A request or response body that does not parse into a message."""


def _require_mapping(data: object, what: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise WireError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _check_fingerprint(fingerprint: Fingerprint) -> None:
    """Reject what the identifier cannot score: it would raise (a 500)
    or hand back a confident verdict for a fingerprint that carries none."""
    if not fingerprint.packets:
        raise WireError("fingerprint has no packets")
    for index, packet in enumerate(fingerprint.packets):
        if len(packet) != NUM_FEATURES:
            raise WireError(
                f"packet {index} has {len(packet)} features, expected {NUM_FEATURES}"
            )
        if not all(map(math.isfinite, packet)):
            raise WireError(f"packet {index} has a non-finite feature")


def report_to_dict(report: FingerprintReport) -> dict:
    body: dict = {"fingerprint": fingerprint_to_dict(report.fingerprint)}
    if report.gateway_id is not None:
        body["gateway_id"] = report.gateway_id
    return body


def report_from_dict(data: object) -> FingerprintReport:
    mapping = _require_mapping(data, "report")
    raw = mapping.get("fingerprint")
    if raw is None:
        raise WireError("report is missing the 'fingerprint' field")
    _require_mapping(raw, "report['fingerprint']")
    try:
        fingerprint = fingerprint_from_dict(dict(raw))
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed fingerprint: {exc}") from exc
    _check_fingerprint(fingerprint)
    gateway_id = mapping.get("gateway_id")
    if gateway_id is not None and not isinstance(gateway_id, str):
        raise WireError("report 'gateway_id' must be a string when present")
    return FingerprintReport(fingerprint=fingerprint, gateway_id=gateway_id)


def directive_to_dict(directive: IsolationDirective) -> dict:
    return {
        "device_type": directive.device_type,
        "level": directive.level.value,
        "permitted_endpoints": sorted(directive.permitted_endpoints),
        "ttl_seconds": directive.ttl_seconds,
        "vulnerability_ids": list(directive.vulnerability_ids),
        "provisional": directive.provisional,
    }


def directive_from_dict(data: object) -> IsolationDirective:
    mapping = _require_mapping(data, "directive")
    try:
        level = IsolationLevel(mapping["level"])
    except KeyError as exc:
        raise WireError("directive is missing the 'level' field") from exc
    except ValueError as exc:
        raise WireError(f"unknown isolation level {mapping['level']!r}") from exc
    device_type = mapping.get("device_type")
    if not isinstance(device_type, str):
        raise WireError("directive 'device_type' must be a string")
    try:
        return IsolationDirective(
            device_type=device_type,
            level=level,
            permitted_endpoints=frozenset(mapping.get("permitted_endpoints", ())),
            ttl_seconds=float(mapping.get("ttl_seconds", 86400.0)),
            vulnerability_ids=tuple(mapping.get("vulnerability_ids", ())),
            provisional=bool(mapping.get("provisional", False)),
        )
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed directive: {exc}") from exc
