"""Traced cold query in a fresh interpreter: one span per layer call.

Run as ``python cold_probe.py INDEX_DIR SPECS_JSON`` with ``PYTHONPATH``
naming the program sources.  It repeats what ``python -m repro.service
query --engine auto`` does for one batch — import, load, resolve each τ's
instance, build each (τ, ψ) coverage, one greedy run per k-sharing group,
prefix replay for the smaller k, JSON encode — timing each call, and
prints the spans (milliseconds) as one JSON line, with the
``perf_counter`` readings of its first statement and of its answer
(``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
parent can subtract its own exec timestamp).
"""

import time

start = time.perf_counter()
import json  # noqa: E402
import sys  # noqa: E402

import repro.service.cli  # noqa: E402,F401  (what `python -m repro.service` imports)

spans = {"import.repro_service_ms": time.perf_counter() - start}


def timed(name, call):
    t0 = time.perf_counter()
    value = call()
    spans[name] = spans.get(name, 0.0) + time.perf_counter() - t0
    return value


def main(index_dir, specs_path):
    import numpy as np

    from repro.core.greedy import IncGreedy, LazyGreedy
    from repro.service.serialization import load_index
    from repro.service.specs import QuerySpec

    specs = [QuerySpec.from_dict(d) for d in json.load(open(specs_path))]
    index = timed("serialization.load_index_ms", lambda: load_index(index_dir))
    instances, rows, entries = {}, [], 0
    groups = {}
    for spec in specs:
        groups.setdefault(spec.coverage_key, []).append(spec)
    for members in groups.values():
        tau = members[0].tau_km
        if tau not in instances:
            instances[tau] = timed("netclus.instance_for_ms", lambda: index.instance_for(tau))
        prepared = timed("netclus.prepare_coverage_ms", lambda: index.prepare_coverage(
            tau, members[0].preference_fn(), engine="auto", instance=instances[tau]))
        coverage = prepared.coverage
        entries += int(coverage.nnz)
        runs = {}
        for spec in members:
            runs.setdefault(spec.selection_key, []).append(spec)
        for run in runs.values():
            lead = max(run, key=lambda s: s.k)
            greedy = LazyGreedy(coverage) if getattr(coverage, "is_sparse", False) \
                else IncGreedy(coverage)
            columns, utilities, _ = timed("greedy.select_ms", lambda: greedy.select(lead.k))
            for spec in run:
                prefix = columns[: spec.k]
                values = utilities if len(prefix) == len(columns) else timed(
                    "placement.replay_ms", lambda: coverage.utilities_for_selection(prefix))
                rows.append({"spec": spec.to_dict(),
                             "sites": [int(coverage.site_labels[c]) for c in prefix],
                             "utility": float(np.sum(values))})
    timed("server.encode_ms", lambda: json.dumps(rows, indent=2))
    answered = time.perf_counter()
    spans.setdefault("placement.replay_ms", 0.0)
    result = {name: seconds * 1000.0 for name, seconds in spans.items()}
    result["netclus.coverage_entries"] = float(entries)
    result["clock.start"] = start
    result["clock.answered"] = answered
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
