"""E11 -- Does the result survive other topologies, and at what scale?

The paper evaluates one commercial 12-site overlay.  This bench
regenerates the headline comparison on seeded :mod:`repro.topogen`
overlays of growing size, in two parts:

* **scaling points** (N in ``SIZES``): per-subsystem timings of the
  operations that must stay tractable at scale -- artifact generation,
  targeted-policy attach (problem-graph precomputation), and one
  targeted re-route decision, with the candidate-beam counters from
  :mod:`repro.obs` recording how hard the pruning works;
* **end-to-end replay** (N in ``REPLAY_SIZES``): the four-scheme
  gap-coverage table (dynamic-single baseline, flooding optimal) over a
  ``REPRO_BENCH_E11_WEEKS``-week trace, showing the targeted approach's
  advantage is a property of the method, not of the 12-site layout.

Replay is restricted to the smaller sizes so the bench fits a CI budget;
the scaling points still cover every size.  Knobs:

* ``REPRO_BENCH_E11_WEEKS`` -- replay trace length (default 0.25);
* ``REPRO_BENCH_E11_FAMILY`` -- generator family (default ``isp-hier``).
"""

from __future__ import annotations

import os
import time

import common

from repro.analysis.metrics import gap_coverage
from repro.exec.engine import run_replay_parallel
from repro.exec.telemetry import aggregate_telemetry, session_records
from repro.netmodel.conditions import LinkState
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.netmodel.topologies import coast_to_coast_flows
from repro.obs import Observability
from repro.routing.registry import make_policy
from repro.simulation.results import ReplayConfig
from repro.topogen import generate_topology
from repro.util.tables import render_table
from repro.util.validation import ValidationError

SIZES = (50, 100, 250, 500)
REPLAY_SIZES = (50, 100)
REPLAY_WEEKS = float(os.environ.get("REPRO_BENCH_E11_WEEKS", "0.25"))
FAMILY = os.environ.get("REPRO_BENCH_E11_FAMILY", "isp-hier")
REPLAY_FLOWS = 4
SCHEMES = ("dynamic-single", "static-two-disjoint", "targeted", "flooding")


def _scaling_point(size: int) -> dict[str, float]:
    """Generation / attach / decide timings plus beam counters at one N."""
    generate_topology.cache_clear()  # time a cold generation
    start = time.perf_counter()
    generated = generate_topology(FAMILY, size, common.BENCH_SEED)
    generate_s = time.perf_counter() - start
    topology = generated.topology()
    flow = coast_to_coast_flows(topology, 2)[0]
    policy = make_policy("targeted")
    obs = Observability()
    policy.set_observability(obs)
    start = time.perf_counter()
    policy.attach(topology, flow, common.service())
    attach_s = time.perf_counter() - start
    # Degrade one middle edge of the base graph so the decision takes the
    # re-route path -- the candidate-enumeration hot spot this bench (and
    # the beam cap) exists for.
    middle = next(
        edge
        for edge in policy._base_graph.edges
        if flow.source not in edge and flow.destination not in edge
    )
    observed = {middle: LinkState(loss_rate=0.5)}
    start = time.perf_counter()
    policy.update(0.0, observed)
    decide_s = time.perf_counter() - start
    return {
        "generate_s": round(generate_s, 6),
        "attach_s": round(attach_s, 6),
        "decide_s": round(decide_s, 6),
        "links": float(len(generated.links)),
        "candidates_considered": obs.metrics.counter(
            "routing.targeted.candidates.considered"
        ).value,
        "candidates_kept": obs.metrics.counter(
            "routing.targeted.candidates.kept"
        ).value,
        "candidate_cap": float(policy.candidate_cap),
    }


def _replay_point(size: int) -> dict[str, float]:
    """Four-scheme gap coverage on one generated overlay."""
    generated = generate_topology(FAMILY, size, common.BENCH_SEED)
    topology = generated.topology()
    flows = coast_to_coast_flows(topology, REPLAY_FLOWS)
    scenario = Scenario(duration_s=REPLAY_WEEKS * WEEK_S)
    _events, timeline = generate_timeline(
        topology, scenario, seed=common.BENCH_SEED
    )
    result, _telemetry = run_replay_parallel(
        topology,
        timeline,
        flows,
        common.service(),
        scheme_names=SCHEMES,
        config=ReplayConfig(detection_delay_s=common.DETECTION_DELAY_S),
        max_workers=common.BENCH_WORKERS,
        use_cache=common.BENCH_USE_CACHE,
        label=f"topology scaling ({FAMILY} N={size})",
    )
    point = {
        "targeted_availability": result.totals("targeted").availability,
        "targeted_msgs": result.totals("targeted").average_cost_messages,
        "flooding_msgs": result.totals("flooding").average_cost_messages,
    }
    try:
        point["static2_gap_pct"] = 100 * gap_coverage(
            result, "static-two-disjoint"
        )
        point["targeted_gap_pct"] = 100 * gap_coverage(result, "targeted")
    except ValidationError:
        # A short trace can leave the dynamic-single baseline flawless on
        # a small overlay; gap coverage is then undefined and the point
        # reports availabilities only.
        pass
    return point


def test_e11_topology_scaling(benchmark):
    def sweep():
        scaling = {size: _scaling_point(size) for size in SIZES}
        replays = {size: _replay_point(size) for size in REPLAY_SIZES}
        return scaling, replays

    mark = len(session_records())
    scaling, replays = benchmark.pedantic(sweep, rounds=1, iterations=1)
    totals = aggregate_telemetry(session_records()[mark:])
    common.stage_metrics(kernel_backend=totals.kernel_backend, **totals.counters)
    for size, point in scaling.items():
        common.stage_metrics(
            **{f"n{size}_{name}": value for name, value in point.items()}
        )
    for size, point in replays.items():
        common.stage_metrics(
            **{f"n{size}_{name}": value for name, value in point.items()}
        )
    print(
        common.banner(
            f"E11: {FAMILY} scaling points (generate / attach / decide)"
        )
    )
    print(
        render_table(
            (
                "N",
                "links",
                "generate s",
                "attach s",
                "decide s",
                "beam kept/considered",
            ),
            [
                [
                    str(size),
                    f"{point['links']:.0f}",
                    f"{point['generate_s']:.3f}",
                    f"{point['attach_s']:.3f}",
                    f"{point['decide_s']:.4f}",
                    f"{point['candidates_kept']:.0f}/"
                    f"{point['candidates_considered']:.0f}"
                    f" (cap {point['candidate_cap']:.0f})",
                ]
                for size, point in scaling.items()
            ],
        )
    )
    print(
        common.banner(
            f"E11: gap coverage on {FAMILY} overlays "
            f"({REPLAY_WEEKS:g}-week traces, {REPLAY_FLOWS} flows)"
        )
    )
    print(
        render_table(
            (
                "topology",
                "static-2 %",
                "targeted %",
                "targeted avail",
                "targeted msgs/pkt",
                "flooding msgs/pkt",
            ),
            [
                [
                    f"N={size}",
                    (
                        f"{point['static2_gap_pct']:.1f}"
                        if "static2_gap_pct" in point
                        else "n/a"
                    ),
                    (
                        f"{point['targeted_gap_pct']:.1f}"
                        if "targeted_gap_pct" in point
                        else "n/a"
                    ),
                    f"{point['targeted_availability']:.6f}",
                    f"{point['targeted_msgs']:.2f}",
                    f"{point['flooding_msgs']:.2f}",
                ]
                for size, point in replays.items()
            ],
        )
    )
    print("  (targeted stays near-optimal while flooding's cost grows with size)")
