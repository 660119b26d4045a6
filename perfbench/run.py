"""The repository's benchmark: end-to-end figures, or a traced per-layer split.

    python3 perfbench/run.py --workload e2-replay --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark runs the program from
the checkout's ``src`` directory in fresh child processes (``unit.py``),
one after another, until ``--seconds`` is used up; each child starts
cold with its own empty cache directory under ``.perfbench/``.  Every
result is checked (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
Their timings are seconds at the reference speed of ``hostclock.py``:
each is scaled by how fast a fixed reference work ran on the same core
around it, which takes out most of the host's speed drift.  The measured
medians are printed beside them.
``--trace 1`` makes one untraced child and two traced children under
different ``PYTHONHASHSEED`` values, prints the per-layer metrics and
split of the first traced child, checks that every count repeats
exactly in the second, and keeps the spans in ``.perfbench/``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  An exception the program raises is a failed
operation and still gives a result.  No result is printed, and the exit
code is not 0, when there is no program to run (2) or a unit process
died or ran out of time (1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: A run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0
#: Names of the per-layer metrics whose values are counts: two traced
#: children under different hash seeds must report them identically.
COUNT_SUFFIXES = ("_calls", "_cases", "_rows", "_max_lossy", ".boundaries")
COUNT_PREFIXES = ("interval.prob_", "exec.shards_", "serve.context_")
#: Request kinds of the per-layer split, as the units label them.
KINDS = {
    "replay_s": "the cold replay",
    "miss_s": "requests that computed a shard",
    "hit_s": "requests served from cached shards",
}


class UnitError(RuntimeError):
    """A child process failed to produce a result."""


def _metric_specs() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    return end_to_end, per_layer


def run_unit(
    workload: str, seed: int, deadline: float, *, budget_s: float = 0.0,
    traced: bool = False, hash_seed: str | None = None,
    spans_out: Path | None = None,
) -> dict:
    command = [
        sys.executable, str(HERE / "unit.py"),
        "--workload", workload, "--seed", str(seed),
        "--work-dir", str(OUT / f"work-{os.getpid()}"),
        "--budget-s", str(budget_s),
    ]
    if traced:
        command.append("--traced")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise UnitError("no time left for another unit")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as error:
        raise UnitError(f"unit timed out after {timeout:.0f} s") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = "\n".join(completed.stderr.strip().splitlines()[-5:])
        raise UnitError(f"unit exited with {completed.returncode}: {tail}")
    return json.loads(lines[-1])


def pooled(units: list[dict], name: str, key: str = "samples") -> list[float]:
    return [value for unit in units for value in unit[key].get(name, ())]


def percentile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def end_to_end(units: list[dict], key: str = "samples") -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count), pooled over the run's units;
    ``key="raw"`` gives the measured figures.  A metric without samples
    (its operations all failed) reads 0 with count 0."""
    median = statistics.median
    figures = {
        "setup_s": (median, pooled(units, "setup_s", key)),
        "replay_s": (median, pooled(units, "replay_s", key)),
        "peak_rss_mb": (median, [unit["peak_rss_mb"] for unit in units]),
        "requests_per_s": (median, pooled(units, "requests_per_s", key)),
        "hit_p50_s": (median, pooled(units, "hit_s", key)),
        "hit_p90_s": (lambda values: percentile(values, 90), pooled(units, "hit_s", key)),
        "miss_p50_s": (median, pooled(units, "miss_s", key)),
    }
    return {
        name: (summary(values) if values else 0.0, len(values))
        for name, (summary, values) in figures.items()
    }


def count_mismatches(first: dict, second: dict) -> list[str]:
    return [
        f"{name}: {first[name]} vs {second.get(name)}"
        for name in sorted(first)
        if (name.endswith(COUNT_SUFFIXES) or name.startswith(COUNT_PREFIXES))
        and first[name] != second.get(name)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = _metric_specs()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    try:
        if args.trace:
            untraced = run_unit(args.workload, args.seed, deadline, hash_seed="0")
            spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = [
                run_unit(
                    args.workload, args.seed, deadline, traced=True,
                    hash_seed=hash_seed,
                    spans_out=spans_out if hash_seed == "1" else None,
                )
                for hash_seed in ("1", "2")
            ]
            units = [untraced, *traced]
        else:
            units = []
            budget_end = started + args.seconds
            while True:
                unit_start = time.monotonic()
                units.append(
                    run_unit(
                        args.workload, args.seed, deadline,
                        budget_s=budget_end - unit_start,
                    )
                )
                # Start another unit only if it would end within --seconds.
                if time.monotonic() + (time.monotonic() - unit_start) > budget_end:
                    break
    except UnitError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    attempted = sum(unit["attempted"] for unit in units)
    failed = sum(unit["failed"] for unit in units)
    correct = failed == 0
    for unit in units:
        for message in unit["errors"]:
            print(f"check failed: {message}")
    backend = units[0]["info"].get("kernel_backend")
    calibration = pooled(units, "host.calib_s")
    reference = [unit["info"]["host.reference_s"] for unit in units]
    print(
        f"{args.workload} seed {args.seed}: {len(units)} fresh-process unit(s), "
        f"{attempted} operations, {failed} failed; kernel backend "
        f"{backend or 'n/a'}; host.calib_s {statistics.median(calibration):.4f} "
        f"(min {min(calibration):.4f}, max {max(calibration):.4f}); reference "
        f"work {statistics.median(reference) * 1e3:.2f} ms (reference speed "
        f"{hostclock.REFERENCE_S * 1e3:.2f} ms)"
    )

    metrics: dict[str, dict[str, float | str]] = {}
    if args.trace:
        layers = dict(traced[0]["layers"])
        # A replay that raised has no sample (and the run is not correct).
        untraced_replay = statistics.median(pooled([untraced], "replay_s") or [1.0])
        traced_replay = statistics.median(pooled(traced[:1], "replay_s") or [0.0])
        layers["host.calib_s"] = statistics.median(calibration)
        layers["trace.replay_s"] = traced_replay
        layers["trace.overhead_frac"] = traced_replay / untraced_replay - 1.0
        drift = count_mismatches(traced[0]["layers"], traced[1]["layers"])
        for message in drift:
            print(f"count differs under another PYTHONHASHSEED: {message}")
        correct = correct and not drift
        for kind, split in sorted(traced[0]["split"].items()):
            evaluation = sum(split.values())
            print(
                f"\nself time per layer over {KINDS.get(kind, kind)} "
                f"({evaluation:.3f} s):"
            )
            for layer, seconds in sorted(split.items(), key=lambda item: -item[1]):
                if seconds > 0:
                    share = 100 * seconds / evaluation
                    print(f"  {layer:28s} {seconds:9.3f} s {share:6.1f} %")
        print()
        for name, unit_name in layer_units.items():
            metrics[name] = {"value": layers[name], "unit": unit_name}
            print(f"  {name:40s} {layers[name]:>14.6g} {unit_name}")
    else:
        figures = end_to_end(units)
        measured = end_to_end(units, "raw")
        print(f"\n  {'metric':16s} {'value':>12s} {'unit':4s}  {'samples':>7s}  measured")
        for name, unit_name in e2e_units.items():
            value, samples = figures[name]
            correct = correct and samples > 0
            metrics[name] = {"value": value, "unit": unit_name}
            print(
                f"  {name:16s} {value:>12.6g} {unit_name:4s}  {samples:7d}  "
                f"{measured[name][0]:.6g}"
            )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
