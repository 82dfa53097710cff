"""Determinism self-check of the benchmark.

Run from the repository root (it is outside the tier-1 ``tests/`` tree)::

    python3 -m pytest perfbench -q

Two runs with one seed must agree exactly on ``verdict_accuracy``,
``success_share`` and every per-layer count; a different seed must change
the generated inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from run import PER_LAYER, WORKLOADS  # noqa: E402

#: Per-layer values that are counts or ratios of counts, so must repeat exactly.
EXACT_LAYER_METRICS = sorted(
    name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")
) + [
    "identify.discriminate_share",
    "identify.unknown_share",
    "shard.max_load_share",
    "sdn.fast_path_share",
]


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(workload):
    first, second = _run(workload, 7, 0), _run(workload, 7, 0)
    for name in ("verdict_accuracy", "success_share"):
        assert first[name] == second[name], name
    first, second = _run(workload, 7, 1), _run(workload, 7, 1)
    for name in EXACT_LAYER_METRICS:
        assert first[name] == second[name], name


def test_seed_fixes_the_inputs():
    assert inputs.homes(1, 2, 5) == inputs.homes(1, 2, 5)
    assert inputs.homes(1, 2, 5) != inputs.homes(2, 2, 5)
    assert inputs.fleet_gateways(1, 1, 20) != inputs.fleet_gateways(2, 1, 20)
    assert inputs.report_plan(1, 2, 1, 2, 2) != inputs.report_plan(2, 2, 1, 2, 2)
    profiles = inputs.NON_SIBLING[:3]
    first = inputs.training_registry(1, profiles, 2).fingerprints(profiles[0].identifier)
    second = inputs.training_registry(2, profiles, 2).fingerprints(profiles[0].identifier)
    assert first != second
