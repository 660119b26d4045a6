"""Regenerate ``expected.json``: the results every benchmark run checks.

    python3 perfbench/make_expected.py

Replays each pinned trace of ``workloads.py`` once, serially and without
a disk cache, and records every (scheme, flow) result.  Run it only when
a change to the program is meant to change replay results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from repro.exec.engine import run_replay_parallel  # noqa: E402
from repro.netmodel.scenarios import generate_timeline  # noqa: E402
from repro.netmodel.topology import ServiceSpec  # noqa: E402
from repro.routing.registry import STANDARD_SCHEME_NAMES  # noqa: E402
from repro.simulation.results import ReplayConfig  # noqa: E402
from repro.topogen import resolve_workload  # noqa: E402


def replay_rows(resolved, weeks, seed, schemes):
    _events, timeline = generate_timeline(
        resolved.topology, workloads.scenario(weeks), seed=seed
    )
    result, _telemetry = run_replay_parallel(
        resolved.topology,
        timeline,
        list(resolved.flows),
        ServiceSpec(),
        scheme_names=schemes,
        config=ReplayConfig(detection_delay_s=workloads.DETECTION_DELAY_S),
        max_workers=0,
        use_cache=False,
    )
    return workloads.pair_rows(result)


def main() -> int:
    expected = {}
    for workload in workloads.REPLAY_WORKLOADS.values():
        resolved = resolve_workload(*workload.topology)
        for suffix, weeks in (("", workload.weeks), ("/cache", workload.cache_weeks)):
            expected[workload.name + suffix] = replay_rows(
                resolved, weeks, workloads.TRACE_SEED, workload.schemes
            )
            print(f"{workload.name + suffix}: {len(expected[workload.name + suffix])} pairs")
    reference = resolve_workload()
    for seed in workloads.SERVE_TRACE_SEEDS:
        expected[f"{workloads.SERVE}/{seed}"] = replay_rows(
            reference, workloads.SERVE_WEEKS, seed, STANDARD_SCHEME_NAMES
        )
        print(f"{workloads.SERVE}/{seed}: done")
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
