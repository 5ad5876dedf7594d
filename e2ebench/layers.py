"""The traced run's per-layer report.

Three sources, all outside ``src/``:

* **probes** — calls into each layer's public functions from this
  benchmark's own files, timed with spans: a fresh-interpreter cold query
  (``cold_probe.py``) on cold-start, and the update path
  (``NetClusIndex.apply_updates`` with the coverage cache off and on,
  ``save_index``, ``IndexFarm.apply_updates``) on update-churn;
* **counters the program publishes** — ``/metrics`` deltas over the
  measured phase, and ``index.build_stats`` from set-up;
* **client timings** — open-loop lateness and the traced-minus-untraced
  tracing overhead.

Each workload's blocking layers are summed next to its end-to-end figure
and the remainder is reported as ``<workload>.unaccounted_ms``.  A metric of
a layer the workload does not measure reads 0.  Serving ``*_ms`` layer
figures are per answered query (sum over the measured phase / answers).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from e2ebench import harness

KERNELS = ("marginal_gains", "marginal_gain", "absorb", "gain_updates")
BUILD_STAGES = ("clustering", "representatives", "registration", "neighbors")
COLD_LAYERS = (
    "interpreter.start_ms",
    "import.repro_service_ms",
    "serialization.load_index_ms",
    "netclus.instance_for_ms",
    "netclus.prepare_coverage_ms",
    "greedy.select_ms",
    "placement.replay_ms",
    "server.encode_ms",
)
UNITS: dict[str, str] = {
    **{name: "ms" for name in COLD_LAYERS},
    "netclus.coverage_entries": "count",
    "cold-start.unaccounted_ms": "ms",
    "covcache.materialise_ms": "ms",
    "netclus.coverage_build_ms": "ms",
    "placement.greedy_ms": "ms",
    **{f"greedy.kernel_{k}_calls": "count" for k in KERNELS},
    **{f"greedy.kernel_{k}_ms": "ms" for k in KERNELS},
    "placement.result_cache_hits": "count",
    "placement.greedy_runs": "count",
    "covcache.hits": "count",
    "netclus.coverage_builds": "count",
    "server.coalesced_specs": "count",
    "server.service_p50_ms": "ms",
    "server.overhead_ms": "ms",
    "serve-warm.unaccounted_ms": "ms",
    "netclus.apply_updates_ms": "ms",
    "covcache.patch_ms": "ms",
    "covcache.patches": "count",
    "serialization.save_index_ms": "ms",
    "farm.commit_ms": "ms",
    "server.update_p50_ms": "ms",
    "client.queue_wait_ms": "ms",
    "update-churn.unaccounted_ms": "ms",
    **{f"build.{stage}_s": "s" for stage in BUILD_STAGES},
    "server.start_ms": "ms",
    "trace.overhead_ms": "ms",
}
#: update batches replayed by the update-path probe
UPDATE_PROBES = 3
COLD_PROBES = 5


def per_layer(ctx, out) -> dict[str, float]:
    values = {name: 0.0 for name in UNITS}
    for stage in BUILD_STAGES:
        values[f"build.{stage}_s"] = harness.median(
            [stats.get(stage, 0.0) for stats in out.trace["build_stats"]]
        )
    if "server_start_s" in out.trace:
        values["server.start_ms"] = out.trace["server_start_s"] * 1000.0
    if ctx.workload == "cold-start":
        _cold(ctx, out, values)
    if out.trace.get("metrics_after"):
        _served(ctx, out, values)
    if ctx.workload == "update-churn":
        _updates(ctx, out, values)
    if ctx.workload != "cold-start":
        values["trace.overhead_ms"] = ctx.tracer.overhead_ms()
    ctx.tracer.write(harness.WORK / f"spans-{ctx.workload}-{ctx.seed}.json")
    return values


# ---------------------------------------------------------------------- #
def _cold(ctx, out, values: dict[str, float]) -> None:
    """Spans of traced cold queries in fresh interpreters, medians of COLD_PROBES.

    Each probe's interpreter start runs from its exec to its first
    statement; its remainder is its exec-to-answer time minus the layers.
    The tracing overhead is the probes' exec-to-answer median minus the
    untraced ``query`` processes' ``first_answer_ms``.
    """
    probes = []
    for _ in range(COLD_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("cold_probe.py")),
             str(out.trace["cold_dir"]), str(ctx.work / "batch.json")],
            check=True, capture_output=True, text=True, env=harness.child_env(),
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        ctx.tracer.span("cold_probe", start, probe["clock.answered"])
        probe["interpreter.start_ms"] = (probe["clock.start"] - start) * 1000.0
        probe["answer_ms"] = (probe["clock.answered"] - start) * 1000.0
        probe["unaccounted_ms"] = probe["answer_ms"] - sum(
            probe.get(name, 0.0) for name in COLD_LAYERS)
        probes.append(probe)
    for name in COLD_LAYERS + ("netclus.coverage_entries",):
        values[name] = harness.median([probe.get(name, 0.0) for probe in probes])
    values["cold-start.unaccounted_ms"] = harness.median(
        [probe["unaccounted_ms"] for probe in probes])
    values["trace.overhead_ms"] = harness.median(
        [probe["answer_ms"] for probe in probes]) - out.metrics["first_answer_ms"]


def _series(metrics: dict[str, float], name: str, **labels: str) -> float:
    """Sum of every sample of *name* whose labels include *labels*."""
    total = 0.0
    for key, value in metrics.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        if all(f'{k}="{v}"' in rest for k, v in labels.items()):
            total += value
    return total


def _served(ctx, out, values: dict[str, float]) -> None:
    """``/metrics`` deltas over the measured phase, per answered query."""
    before, after = out.trace["metrics_before"], out.trace["metrics_after"]
    latencies = out.trace["latencies"]
    answers = max(1, len(latencies))

    def delta(name: str, **labels: str) -> float:
        return _series(after, name, **labels) - _series(before, name, **labels)

    def per_query_ms(name: str, **labels: str) -> float:
        return delta(name, **labels) * 1000.0 / answers

    values["covcache.materialise_ms"] = per_query_ms(
        "netclus_service_coverage_materialise_seconds")
    values["netclus.coverage_build_ms"] = per_query_ms(
        "netclus_service_coverage_build_seconds")
    values["placement.greedy_ms"] = per_query_ms("netclus_service_greedy_seconds")
    values["placement.replay_ms"] = per_query_ms("netclus_service_replay_seconds")
    for kernel in KERNELS:
        values[f"greedy.kernel_{kernel}_calls"] = delta(
            "netclus_kernel_calls_total", kernel=kernel)
        values[f"greedy.kernel_{kernel}_ms"] = per_query_ms(
            "netclus_kernel_seconds_total", kernel=kernel)
    values["placement.result_cache_hits"] = delta("netclus_service_cache_hits")
    values["placement.greedy_runs"] = delta("netclus_service_greedy_runs")
    values["covcache.hits"] = delta("netclus_service_coverage_cache_hits")
    values["netclus.coverage_builds"] = delta("netclus_service_coverage_builds")
    values["server.coalesced_specs"] = delta("netclus_server_coalesced_specs_total")
    latency = "netclus_server_request_latency_seconds"
    values["server.service_p50_ms"] = 1000.0 * _series(
        after, latency, endpoint="query", quantile="0.5")
    values["server.update_p50_ms"] = 1000.0 * _series(
        after, latency, endpoint="update", quantile="0.5")
    client_p50 = harness.quantile(latencies, 0.5) * 1000.0
    values["server.overhead_ms"] = client_p50 - values["server.service_p50_ms"]
    if ctx.workload == "serve-warm":
        mean_ms = 1000.0 * sum(latencies) / answers
        accounted = (values["covcache.materialise_ms"] + values["netclus.coverage_build_ms"]
                     + values["placement.greedy_ms"] + values["placement.replay_ms"])
        values["serve-warm.unaccounted_ms"] = mean_ms - accounted


def _updates(ctx, out, values: dict[str, float]) -> None:
    """The update path, layer by layer, on the run's own first update batches."""
    from repro.core.netclus import UpdateBatch
    from repro.service.farm import IndexFarm
    from repro.service.placement import PlacementService
    from repro.service.serialization import save_index
    from repro.trajectory.model import Trajectory

    from e2ebench.inputs import build_index, warm_specs

    city = out.trace["city"]

    def batch_of(delta: dict) -> UpdateBatch:
        return UpdateBatch(
            add_trajectories=[Trajectory.from_nodes(t["traj_id"], t["nodes"], city.network)
                              for t in delta["add_trajectories"]],
            remove_trajectories=delta["remove_trajectories"],
            add_sites=delta["add_sites"],
            remove_sites=delta["remove_sites"],
        )

    def timed(name: str, call) -> float:
        start = time.perf_counter()
        call()
        end = time.perf_counter()
        ctx.tracer.span(name, start, end)
        return end - start

    plain = build_index(city)
    cached = build_index(city)
    PlacementService(cached, engine="auto", coverage_cache=True).batch_query(warm_specs())
    farm_dir = save_index(cached, ctx.work / "probe-farm")
    farm = IndexFarm(engine="auto", coverage_cache=True)
    farm.add_tenant("city", farm_dir)
    farm.batch_query("city", warm_specs())
    off, on, saves, commits, patches = [], [], [], [], 0
    for delta in out.trace["deltas"][:UPDATE_PROBES]:
        off.append(timed("netclus.apply_updates", lambda: plain.apply_updates(batch_of(delta))))
        before = cached.coverage_cache.stats()["patches"]
        on.append(timed("netclus.apply_updates+covcache",
                        lambda: cached.apply_updates(batch_of(delta))))
        patches += cached.coverage_cache.stats()["patches"] - before
        saves.append(timed("serialization.save_index",
                           lambda: save_index(cached, ctx.work / "probe-save")))
        commits.append(timed("farm.apply_updates",
                             lambda: farm.apply_updates("city", batch_of(delta))))
    farm.close()
    probes = max(1, len(off))
    values["netclus.apply_updates_ms"] = harness.median(off) * 1000.0
    values["covcache.patch_ms"] = (harness.median(on) - harness.median(off)) * 1000.0
    values["covcache.patches"] = patches / probes
    values["serialization.save_index_ms"] = harness.median(saves) * 1000.0
    values["farm.commit_ms"] = harness.median(commits) * 1000.0
    lateness = out.trace["lateness"]
    values["client.queue_wait_ms"] = 1000.0 * sum(lateness) / max(1, len(lateness))
    values["update-churn.unaccounted_ms"] = out.metrics["update_commit_ms"] - (
        values["netclus.apply_updates_ms"] + values["covcache.patch_ms"]
        + values["serialization.save_index_ms"])
