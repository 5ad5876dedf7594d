"""The three workloads: cold-start, serve-warm, update-churn.

Each returns a :class:`Outcome`: the nine end-to-end metrics, attempted and
failed operations by type, the check results, and (for the traced run)
the raw material the per-layer report is built from.  Set-up is repeated
several times per run and reported as a median; the program measured is
the one the last set-up before the measured phase produced.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.placement import PlacementService
from repro.service.serialization import save_index
from repro.service.specs import QuerySpec

from e2ebench import harness
from e2ebench.checks import Checks, check_against_dense, check_answer, check_prefixes
from e2ebench.inputs import (
    Churn,
    City,
    build_index,
    churn_pool,
    cold_batch,
    make_city,
    serve_pools,
    serve_round,
    warm_specs,
)

#: set-ups per run (medians are reported), half before and half after the
#: measured phase: a noisy moment on a shared host then moves at most half
COLD_SETUP_REPS = 6
SERVING_SETUP_REPS = 4
MIB = float(1 << 20)
#: update-churn schedule, the same every 1 s round: one update due 5 ms in,
#: then twenty queries.  The first four are due while the update holds the
#: index write lock (it holds it for 60 ms or more), so 20 % of queries wait
#: on the lock and query_p90_ms lands inside that band; the other sixteen
#: arrive after it.  With queries spread evenly or at random, 10-15 % of
#: them waited, p90 sat on the band's edge and spread 70-110 % across seeds.
ROUND_S = 1.0
UPDATE_OFFSET_S = 0.005
QUERY_OFFSETS_S = (0.02, 0.03, 0.04, 0.05) + tuple(0.32 + 0.04 * i for i in range(16))
#: rounds are time-bound; update deltas for at most this many are prepared
MAX_ROUNDS = 64
#: answers recomputed cold with the dense engine
DENSE_SAMPLE = 8


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    scale: str
    trace: bool
    work: Path
    tracer: harness.Tracer


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    ops: dict[str, list[int]] = field(default_factory=dict)  # type -> [attempted, failed]
    checks: Checks = field(default_factory=Checks)
    #: one line per failed operation: its type, status and the start of the body
    failures: list[str] = field(default_factory=list)
    #: material for the traced run (layers.py)
    trace: dict = field(default_factory=dict)

    def op(self, kind: str, failed: bool = False, why: str = "") -> None:
        counts = self.ops.setdefault(kind, [0, 0])
        counts[0] += 1
        counts[1] += int(failed)
        if failed and len(self.failures) < 20:
            self.failures.append(f"{kind}: {why}")


def _write_json(path: Path, payload: object) -> Path:
    path.write_text(json.dumps(payload))
    return path


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# ---------------------------------------------------------------------- #
# cold-start
# ---------------------------------------------------------------------- #
def cold_start(ctx: Context) -> Outcome:
    """Fresh ``query`` processes over a saved index; ``update`` processes between."""
    out = Outcome()
    city = make_city(ctx.seed, ctx.scale)
    churn = Churn(city, ctx.scale, ctx.seed)
    batch = cold_batch()
    specs_file = _write_json(ctx.work / "batch.json", [s.to_dict() for s in batch])

    setups, build_stats = [], []

    def set_up(rep: int) -> tuple[Path, Path]:
        start = time.perf_counter()
        index = build_index(city)
        cold_dir = save_index(index, ctx.work / f"cold{rep}")
        # the same index saved with its coverage parts (what --save-coverage writes)
        PlacementService(index, engine="auto", coverage_cache=True).batch_query(batch)
        warm_dir = save_index(index, ctx.work / f"warm{rep}")
        setups.append(time.perf_counter() - start)
        build_stats.append({s.stage: s.seconds for s in index.build_stats})
        return cold_dir, warm_dir

    for rep in range(COLD_SETUP_REPS // 2):
        cold_dir, warm_dir = set_up(rep)
    out.trace["build_stats"] = build_stats
    out.trace["cold_dir"] = cold_dir

    # update deltas are generated up front, outside every timed window
    deltas = []
    for _ in range(MAX_ROUNDS):
        delta = churn.next_batch()
        files = {key: _write_json(ctx.work / f"{key}{len(deltas)}.json", value)
                 for key, value in delta.items()}
        deltas.append((delta, files, set(churn.sites)))
    first_answers, warm_answers, commits, visibles, rss = [], [], [], [], []
    answered_specs = 0
    served: list[tuple[int, QuerySpec, dict]] = []  # (version, spec, answer)
    site_sets = [set(city.sites)]
    log = ctx.work / "cli.log"
    out_file = ctx.work / "answer.json"

    def query(directory: Path, version: int) -> tuple[float, float, int]:
        child, seconds = harness.run_to_marker(
            ["query", "--index", str(directory), "--specs", str(specs_file),
             "--engine", "auto", "--output", str(out_file)],
            log, "Wrote ",
        )
        rows = json.loads(out_file.read_text())
        for spec, row in zip(batch, rows):
            check_answer(out.checks, spec, row, site_sets[version])
            served.append((version, spec, row))
        return child.started, seconds, child.peak_rss_kb

    pending_update: float | None = None  # perf_counter of the last update's exec
    version = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < ctx.seconds and version < MAX_ROUNDS:
        started, seconds, peak = query(cold_dir, version)
        ctx.tracer.span("cli.query.cold", started, started + seconds)
        if pending_update is not None:
            visibles.append(started + seconds - pending_update)
        first_answers.append(seconds)
        rss.append(peak)
        out.op("query")
        started, seconds, peak = query(warm_dir, 0)
        ctx.tracer.span("cli.query.warm_parts", started, started + seconds)
        warm_answers.append(seconds)
        rss.append(peak)
        out.op("query")
        answered_specs += 2 * len(batch)

        _, files, sites = deltas[version]
        site_sets.append(sites)
        child, seconds = harness.run_to_marker(
            ["update", "--index", str(cold_dir),
             "--add-trajectories", str(files["add_trajectories"]),
             "--remove-trajectories", str(files["remove_trajectories"]),
             "--add-sites", str(files["add_sites"]),
             "--remove-sites", str(files["remove_sites"])],
            log, "Saved ",
        )
        pending_update = child.started
        ctx.tracer.span("cli.update", child.started, child.started + seconds)
        commits.append(seconds)
        out.op("update")
        version += 1
    measured = time.perf_counter() - begin

    # the last update becomes visible in one more cold query, whose answers
    # must equal an index rebuilt from scratch on the final state
    started, seconds, peak = query(cold_dir, version)
    visibles.append(started + seconds - pending_update)
    out.op("query")
    rss.append(peak)
    for rep in range(COLD_SETUP_REPS // 2, COLD_SETUP_REPS):
        set_up(rep)
    final_state = Churn(city, ctx.scale, ctx.seed)
    for _ in range(version):
        final_state.next_batch()
    final = [(spec, row) for v, spec, row in served if v == version]
    check_against_dense(out.checks, final_state.rebuilt_city(city), final, ctx.seed,
                        DENSE_SAMPLE, exact=False)
    initial = [(spec, row) for v, spec, row in served if v == 0]
    check_against_dense(out.checks, city, initial, ctx.seed, DENSE_SAMPLE)
    check_prefixes(out.checks, served)

    out.metrics = {
        "setup_s": harness.median(setups),
        "first_answer_ms": _ms(harness.median(first_answers)),
        "query_p50_ms": _ms(harness.quantile(warm_answers, 0.5)),
        "query_p90_ms": _ms(harness.quantile(warm_answers, 0.9)),
        "queries_per_s": answered_specs / measured,
        "update_commit_ms": _ms(harness.median(commits)),
        "update_visible_ms": _ms(harness.median(visibles)),
        "index_disk_mb": harness.dir_bytes(cold_dir) / MIB,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    out.trace.update(city=city, deltas=[d for d, _, _ in deltas[:version]])
    return out


# ---------------------------------------------------------------------- #
# serving set-up (serve-warm, update-churn)
# ---------------------------------------------------------------------- #
def _serving_setup(ctx: Context, city: City, command: list[str], query_path: str,
                   out: Outcome, reps: range) -> tuple[harness.Child, int, Path]:
    """Build + save + start + first answer + warm every part, once per rep.

    Returns the last rep's running server; the earlier ones are stopped.
    """
    record = out.trace.setdefault("setups", {"s": [], "first": [], "start": [], "build": []})
    child = port = directory = None
    for rep in reps:
        if child is not None:
            child.stop()
        start = time.perf_counter()
        index = build_index(city)
        directory = save_index(index, ctx.work / f"index{rep}")
        args = [a.replace("{dir}", str(directory)) for a in command]
        child, port = harness.start_server(args, ctx.work / f"server{rep}.log")
        harness.wait_healthy(port)
        healthy = time.perf_counter()
        conn = harness.Connection(port)
        for position, spec in enumerate(warm_specs()):
            conn.json("POST", query_path, [spec.to_dict()])
            if position == 0:
                record["first"].append(time.perf_counter() - child.started)
        conn.close()
        record["s"].append(time.perf_counter() - start)
        record["start"].append(healthy - child.started)
        record["build"].append({s.stage: s.seconds for s in index.build_stats})
    return child, port, directory


def _late_setups(ctx: Context, city: City, command: list[str], query_path: str,
                 out: Outcome) -> None:
    """The second half of the set-ups, after the measured phase; set-up metrics."""
    _serving_setup(ctx, city, command, query_path, out,
                   range(SERVING_SETUP_REPS // 2, SERVING_SETUP_REPS))[0].stop()
    record = out.trace["setups"]
    out.metrics["setup_s"] = harness.median(record["s"])
    out.metrics["first_answer_ms"] = _ms(harness.median(record["first"]))
    out.trace.update(build_stats=record["build"],
                     server_start_s=harness.median(record["start"]))


# ---------------------------------------------------------------------- #
# serve-warm
# ---------------------------------------------------------------------- #
def serve_warm(ctx: Context) -> Outcome:
    """Closed-loop traffic on one keep-alive connection against ``serve``.

    Each round is the fixed query mix, one hostile request and, last, one
    update: the coverage parts stay warm (updates patch them in place) and
    the update metrics are sampled across the whole run.
    """
    out = Outcome()
    city = make_city(ctx.seed, ctx.scale)
    pools = serve_pools(city)
    rng = random.Random(ctx.seed * 65537 + 11)
    churn = Churn(city, ctx.scale, ctx.seed)
    deltas = []
    for _ in range(MAX_ROUNDS):
        deltas.append((churn.next_batch(), set(churn.sites)))
    site_sets = {0: set(city.sites)}
    command = ["serve", "--index", "{dir}", "--coverage-cache", "--engine", "auto"]
    server, port, directory = _serving_setup(
        ctx, city, command, "/query", out, range(SERVING_SETUP_REPS // 2))
    try:
        before = harness.scrape_metrics(port) if ctx.trace else {}
        conn = harness.Connection(port)
        updates = harness.Connection(port)
        latencies, commits, visibles = [], [], []
        served: list[tuple[int, QuerySpec, dict]] = []
        version = 0
        begin = time.perf_counter()
        rounds = 0
        # whole rounds only, so hostile requests are always the same share
        while time.perf_counter() - begin < ctx.seconds and rounds < MAX_ROUNDS:
            ctx.tracer.round(rounds)
            for item in serve_round(pools, rng, rounds):
                if isinstance(item, str):
                    status = harness.hostile_request(port, item)
                    out.op("hostile", failed=status not in (400, 431),
                           why=f"{item} -> {status or 'connection dropped'}")
                    continue
                sent = time.perf_counter()
                status, raw = conn.request("POST", "/query",
                                           json.dumps([item.to_dict()]).encode())
                done = time.perf_counter()
                ctx.tracer.op("client.query", sent, done)
                if status != 200:
                    out.op("query", failed=True, why=f"{status} {raw[:200]!r}")
                    continue
                out.op("query")
                latencies.append(done - sent)
                payload = json.loads(raw)
                answer = payload["results"][0]
                check_answer(out.checks, item, answer, site_sets[payload["index_version"]])
                served.append((payload["index_version"], item, answer))
            delta, sites = deltas[rounds]
            commit, visible, version = _update(updates, conn, delta)
            commits.append(commit)
            visibles.append(visible)
            site_sets[version] = sites
            out.op("update")
            rounds += 1
        measured = time.perf_counter() - begin
        after = harness.scrape_metrics(port) if ctx.trace else {}
        final = conn.json("POST", "/query", [s.to_dict() for s in warm_specs()])
        conn.close()
        updates.close()
    finally:
        server.stop()
    _late_setups(ctx, city, command, "/query", out)
    final_state = Churn(city, ctx.scale, ctx.seed)
    for _ in range(rounds):
        final_state.next_batch()
    for spec, answer in zip(warm_specs(), final["results"]):
        check_answer(out.checks, spec, answer, final_state.sites)
    check_prefixes(out.checks, served)
    check_against_dense(out.checks, city, [(s, a) for v, s, a in served if v == 0],
                        ctx.seed, DENSE_SAMPLE)
    check_against_dense(out.checks, final_state.rebuilt_city(city),
                        list(zip(warm_specs(), final["results"])), ctx.seed,
                        len(warm_specs()), exact=False)
    out.metrics.update({
        "query_p50_ms": _ms(harness.quantile(latencies, 0.5)),
        "query_p90_ms": _ms(harness.quantile(latencies, 0.9)),
        "queries_per_s": len(latencies) / measured,
        "update_commit_ms": _ms(harness.median(commits)),
        "update_visible_ms": _ms(harness.median(visibles)),
        "index_disk_mb": harness.dir_bytes(directory) / MIB,
        "peak_rss_mb": server.peak_rss_kb / 1024.0,
    })
    out.trace.update(latencies=latencies, metrics_before=before, metrics_after=after,
                     city=city, deltas=[d for d, _ in deltas[:rounds]])
    return out


def _update(updates: harness.Connection, conn: harness.Connection,
            delta: dict) -> tuple[float, float, int]:
    """POST one update; returns (seconds to its 200, seconds until a probe
    answer carries its version, that version)."""
    probe = [warm_specs()[0].to_dict()]
    due = time.perf_counter()
    version = updates.json("POST", "/update", delta)["index_version"]
    commit = time.perf_counter() - due
    while conn.json("POST", "/query", probe)["index_version"] < version:
        pass
    return commit, time.perf_counter() - due, version


# ---------------------------------------------------------------------- #
# update-churn
# ---------------------------------------------------------------------- #
def update_churn(ctx: Context) -> Outcome:
    """Open-loop queries and periodic updates against ``farm`` with write-through."""
    out = Outcome()
    city = make_city(ctx.seed, ctx.scale)
    rng = random.Random(ctx.seed * 40503 + 5)
    pool = churn_pool(city)
    churn = Churn(city, ctx.scale, ctx.seed)
    rounds = max(1, round(ctx.seconds / ROUND_S))
    deltas, sites_after = [], []
    for _ in range(rounds):
        deltas.append(churn.next_batch())
        sites_after.append(set(churn.sites))
    queries = [[rng.choice(pool).to_dict() for _ in QUERY_OFFSETS_S]
               for _ in range(rounds)]
    path = "/t/city/query"
    command = ["farm", "--tenant", "city={dir}", "--coverage-cache", "--engine", "auto"]
    server, port, directory = _serving_setup(
        ctx, city, command, path, out, range(SERVING_SETUP_REPS // 2))
    records: list[tuple[float, float, float, int, dict, dict]] = []
    updates: list[tuple[float, float, float, int]] = []
    errors: list[BaseException] = []
    errors_seen: list[str] = []  # bodies of failed updates, in order
    try:
        before = harness.scrape_metrics(port) if ctx.trace else {}
        epoch = time.perf_counter() + 0.05

        def query_loop() -> None:
            conn = harness.Connection(port)
            try:
                for r in range(rounds):
                    ctx.tracer.round(r)
                    for i, spec in enumerate(queries[r]):
                        due = epoch + r * ROUND_S + QUERY_OFFSETS_S[i]
                        _sleep_until(due)
                        sent = time.perf_counter()
                        status, raw = conn.request("POST", path, json.dumps([spec]).encode())
                        done = time.perf_counter()
                        ctx.tracer.op("client.query", due, done)
                        if status != 200:
                            records.append((due, sent, done, -1, spec,
                                            {"error": f"{status} {raw[:200]!r}"}))
                            continue
                        payload = json.loads(raw)
                        records.append((due, sent, done, payload["index_version"], spec,
                                        payload["results"][0]))
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)
            finally:
                conn.close()

        def update_loop() -> None:
            conn = harness.Connection(port)
            try:
                for r, delta in enumerate(deltas):
                    due = epoch + r * ROUND_S + UPDATE_OFFSET_S
                    _sleep_until(due)
                    sent = time.perf_counter()
                    status, raw = conn.request("POST", "/t/city/update",
                                               json.dumps(delta).encode())
                    done = time.perf_counter()
                    version = json.loads(raw)["index_version"] if status == 200 else -1
                    updates.append((due, sent, done, version))
                    if status != 200:
                        errors_seen.append(f"{status} {raw[:200]!r}")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=query_loop), threading.Thread(target=update_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        measured = max(r[2] for r in records + updates) - epoch
        after = harness.scrape_metrics(port) if ctx.trace else {}
        conn = harness.Connection(port)
        final_specs = warm_specs() + [
            QuerySpec(k=12, tau_km=1.6, existing_sites=city.existing_pool[0])]
        final = conn.json("POST", path, [s.to_dict() for s in final_specs])
        conn.close()
    finally:
        server.stop()
    _late_setups(ctx, city, command, path, out)

    # the k-th update's 200 carries the version its site set belongs to
    site_sets = {0: set(city.sites)}
    for (_, _, _, version), sites in zip(updates, sites_after):
        site_sets[version] = sites

    commits, visibles, latencies, lateness = [], [], [], []
    for due, sent, done, version in updates:
        out.op("update", failed=version < 0,
               why=errors_seen.pop(0) if version < 0 and errors_seen else "")
        if version < 0:
            continue
        commits.append(done - due)
        seen = [r[2] for r in records if r[3] >= version and r[2] >= due]
        if seen:
            visibles.append(min(seen) - due)
        for r in records:
            if r[1] >= done and 0 <= r[3] < version:
                out.checks.fail(f"query sent after update {version}'s 200 answered "
                                f"at version {r[3]}")
    committed = [(done, version) for _, _, done, version in updates if version >= 0]
    served = []
    for due, sent, done, version, spec_dict, answer in records:
        out.op("query", failed=version < 0, why=answer.get("error", ""))
        if version < 0:
            continue
        latencies.append(done - due)
        lateness.append(sent - due)
        spec = QuerySpec.from_dict(spec_dict)
        # an update committed while the query was in flight leaves two
        # versions the answer may legitimately come from
        floor = max([v for d, v in committed if d <= sent], default=0)
        if version not in site_sets:
            # read while an update was between its sub-batches
            out.checks.count("answers_mid_update_version")
        upper = min([v for v in site_sets if v >= version], default=version)
        candidates = [v for v in site_sets if floor <= v <= upper]
        if candidates == [version]:
            check_answer(out.checks, spec, answer, site_sets[version])
            served.append((version, spec, answer))
            continue
        check_answer(out.checks, spec, answer, None)
        fits = [v for v in candidates if set(answer["sites"]) <= site_sets[v]]
        if not fits:
            out.checks.fail(f"answer fits no version in flight: {spec.to_dict()}")
        elif version not in fits:
            # computed before the update, labelled with the version after it
            out.checks.count("answers_labelled_newer")
    check_prefixes(out.checks, served)
    for spec, answer in zip(final_specs, final["results"]):
        check_answer(out.checks, spec, answer, set(churn.sites))
    check_against_dense(out.checks, churn.rebuilt_city(city),
                        list(zip(final_specs, final["results"])), ctx.seed,
                        len(final_specs), exact=False)
    if len(visibles) != len(commits):
        out.checks.fail("an update never became visible to a later query")
    out.metrics.update({
        "query_p50_ms": _ms(harness.quantile(latencies, 0.5)),
        "query_p90_ms": _ms(harness.quantile(latencies, 0.9)),
        "queries_per_s": len(latencies) / measured,
        "update_commit_ms": _ms(harness.median(commits)),
        "update_visible_ms": _ms(harness.median(visibles)),
        "index_disk_mb": harness.dir_bytes(directory) / MIB,
        "peak_rss_mb": server.peak_rss_kb / 1024.0,
    })
    out.trace.update(latencies=latencies, lateness=lateness, metrics_before=before,
                     metrics_after=after, city=city, deltas=deltas)
    return out


def _sleep_until(deadline: float) -> None:
    remaining = deadline - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)


WORKLOADS = {
    "cold-start": cold_start,
    "serve-warm": serve_warm,
    "update-churn": update_churn,
}
