"""End-to-end and per-layer benchmark of the IoT Sentinel stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload onboard-home --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
metric each layer should move):

* ``onboard-home`` — homes of devices onboarded frame by frame through
  ``SecurityGateway.process_frame`` over an in-process IoTSSP;
* ``report-http``  — single ``POST /v1/report`` requests against
  ``python -m repro serve`` in its own process, with type enrolments;
* ``fleet-batch``  — batch-profiling gateways feeding 256-record
  ``PacketBatch`` chunks to a 4-shard ``ShardedSecurityService``.

Inputs come from ``--seed`` alone, and each timed phase does a fixed
amount of work derived from ``--seconds``.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` is a separate run that wraps
each layer's public entry point and reports the per-layer metrics.
Output checks run before any number is printed; the last line of
standard output is one JSON object.  Artifacts (result, server log,
spans) go to ``.perfbench/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

WORKLOADS = ("onboard-home", "report-http", "fleet-batch")

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ids_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "frames_per_s": "1/s",
    "verdict_accuracy": "share",
    "success_share": "share",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "packets.decode_us": "us",
    "packets.batch_us_per_frame": "us",
    "gateway.packet_in_us": "us",
    "gateway.observe_batch_ms": "ms",
    "gateway.drain_ms": "ms",
    "gateway.drain_batch": "count",
    "gateway.sessions_completed": "count",
    "gateway.punts": "count",
    "identify.classify_ms": "ms",
    "identify.classify_batch": "count",
    "identify.discriminate_ms": "ms",
    "identify.discriminations": "count",
    "identify.discriminate_share": "share",
    "identify.unknown_share": "share",
    "service.report_ms": "ms",
    "service.assess_us": "us",
    "shard.route_ms": "ms",
    "shard.max_load_share": "share",
    "http.client_ms": "ms",
    "http.server_ms": "ms",
    "http.wire_ms": "ms",
    "http.request_bytes": "bytes",
    "http.enroll_ms": "ms",
    "sdn.lookup_us": "us",
    "sdn.table_rules": "count",
    "sdn.fast_path_share": "share",
    "sdn.rule_installs": "count",
    "sdn.detach_ms": "ms",
    "setup.train_s": "s",
    "setup.warm_start_s": "s",
    "host.ref_loop_ms": "ms",
    "trace.overhead_share": "share",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10, help="sizes the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: src/repro not found; run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))

    from common import ref_loop_ms

    if args.workload == "onboard-home":
        import wl_onboard as workload
    elif args.workload == "report-http":
        import wl_report_http as workload
    else:
        import wl_fleet as workload

    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    ref_before = ref_loop_ms()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace), workdir)
    ref_after = ref_loop_ms()
    outcome.per_layer["host.ref_loop_ms"] = (ref_before + ref_after) / 2.0

    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "host_ref_loop_ms": {"before": ref_before, "after": ref_after},
        "notes": outcome.notes,
    }
    (workdir / "result.json").write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")

    if outcome.problems:
        for problem in outcome.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, outcome.attempted),
                          "failed": outcome.failed, "metrics": {}}))
        return 1

    table = PER_LAYER if args.trace else END_TO_END
    values = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in table.items()}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"host_ref_loop_ms={ref_before:.2f}/{ref_after:.2f} {outcome.notes}")
    for name, entry in metrics.items():
        print(f"  {name:30s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
