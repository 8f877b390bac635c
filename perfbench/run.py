"""Credo benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: ``oneshot-rand200k``, ``grid8-sync``, ``stream-churn``,
``serve-mixed`` (see ``workloads.py`` for what one op is and why).

``--trace 0`` sets the program up ``setup_reps`` times (``setup_s`` is
the median), then runs ops for ``--seconds`` with tracing off and reports
the end-to-end metrics.  On the CPU-bound workloads every timing is
scaled by ``common.HostSpeed``, a fixed kernel timed right after it, to
the reference host speed: neighbours on a shared host otherwise move the
run-to-run medians by up to 40%.  The detail line has the unscaled values.

``--trace 1`` runs half the time untraced and half traced (spans from
``layers.LayerProbe``), and reports the per-layer metrics: self time per layer, sweep counts and costs, stream and serve
internals, the tracing overhead and how much of the traced end-to-end
time the layers account for (which must be within 5%).

Output: ``metric`` lines and one ``detail`` JSON line (provenance,
workload-specific metrics such as ``solve_s``/``update_ms``/``query_p90_ms``,
the largest error each check saw), then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``.  A failed op or a
failed check makes ``failed`` > 0 and ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC, Tally, median, peak_rss_mib, provenance

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
#: The op is a solve (oneshot-rand200k, grid8-sync), an update
#: (stream-churn) or an open-loop query (serve-mixed).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``;
#: a layer that does no work on a workload reports 0.  Times are per op
#: (per answered query on serve-mixed); ``credo.plan_s`` is per plan.
PER_LAYER = (
    ("io.parse_s", "s"),
    ("io.parse_mib_per_s", "MiB/s"),
    ("credo.select_s", "s"),
    ("credo.plan_s", "s"),
    ("backend.overhead_s", "s"),
    ("backend.modeled_s", "s"),
    ("backend.modeled_over_wall", "ratio"),
    ("state.build_s", "s"),
    ("state.export_s", "s"),
    ("kernels.lower_s", "s"),
    ("sweep.count", "count"),
    ("sweep.edges", "count"),
    ("sweep.active_frac", "ratio"),
    ("sweep.full.ns_per_edge", "ns"),
    ("sweep.partial.ns_per_edge", "ns"),
    ("sweep.gather_s", "s"),
    ("sweep.message_s", "s"),
    ("sweep.store_s", "s"),
    ("sweep.combine_s", "s"),
    ("sweep.driver_s", "s"),
    ("schedule.update_s", "s"),
    ("schedule.queue_ops", "count"),
    ("bp.iterations", "count"),
    ("bp.run_overhead_s", "s"),
    ("stream.apply_delta_s", "s"),
    ("stream.edges_per_update", "count"),
    ("stream.sweeps_per_update", "count"),
    ("stream.dirty_fraction", "ratio"),
    ("stream.incremental_frac", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.union_sweep_s", "s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("serve.update_apply_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_sum_frac", "ratio"),
)

#: the layers must account for the traced end-to-end time within this
COVERAGE_TOL = 0.05


def timed(wl, seconds: float, tally: Tally):
    setups, raw_setups = wl.measure_setup()
    phase = wl.run(seconds, tally)
    metrics = {
        "setup_s": median(setups),
        "op_p50_ms": 1e3 * median(phase.latencies),
        "ops_per_s": phase.ops_per_s,
        "peak_rss_mib": peak_rss_mib(),
    }
    detail = {"ops": len(phase.latencies), "scaled": wl.host is not None,
              "unscaled": {"setup_s": median(raw_setups),
                           "op_p50_ms": 1e3 * median(phase.raw),
                           "ops_per_s": phase.ops_per_s * sum(phase.latencies) / sum(phase.raw)},
              "setup_samples_s": raw_setups, "extra": phase.extra, "info": phase.info}
    return metrics, detail, True


def traced(wl, seconds: float, tally: Tally):
    from layers import LayerProbe, coverage, layer_metrics, serve_coverage

    wl.setup()
    base = wl.run(seconds / 2, tally)
    wl.teardown()
    with LayerProbe() as probe:
        wl.setup()
        phase = wl.run(seconds / 2, tally, probe)
    events = probe.events
    answered = phase.counters.get("serve.answered")
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    metrics.update(layer_metrics(events, int(answered or len(phase.latencies))))
    metrics.update({k: v for k, v in phase.counters.items() if k in metrics})
    metrics["trace.overhead_frac"] = median(phase.latencies) / median(base.latencies) - 1.0
    if answered is not None:
        e2e, layers = serve_coverage(events, phase.counters["serve.total_s"])
    else:
        e2e, layers = coverage(events)
    metrics["trace.layer_sum_frac"] = layers / e2e if e2e else 0.0
    ok = abs(metrics["trace.layer_sum_frac"] - 1.0) <= COVERAGE_TOL
    detail = {"ops": len(phase.latencies), "untraced_ops": len(base.latencies),
              "traced_e2e_s": e2e, "layers_s": layers, "events": len(events),
              "extra": phase.extra, "info": phase.info}
    return metrics, detail, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (self-test only)")
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one checked output (self-test only)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny, plant=args.plant)
    tally = Tally()
    try:
        wl.prepare(tally)
        run = traced if args.trace else timed
        metrics, detail, ok = run(wl, args.seconds, tally)
    finally:
        wl.close()

    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    detail.update(
        provenance=provenance(wl.name, args.seed, wl.params()),
        errors=wl.errors,
        failures=dict(tally.reasons),
    )
    print("detail " + json.dumps(detail, default=float))
    print(json.dumps({
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
