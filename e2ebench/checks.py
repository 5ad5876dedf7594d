"""Correctness checks, computed apart from the serving path.

Three kinds, each failing the run:

* property checks on every answer (distinct sites, no removed or existing
  site, |sites| ≤ k, utility = Σ per-trajectory utilities, ψ ranges,
  capacity bound) and the k-prefix property across answers;
* a seeded sample of answers recomputed cold, in process, with
  ``engine="dense"`` on an index built afresh from the same inputs —
  sites and utility vectors must match byte for byte;
* updated ≡ rebuilt: final served answers equal those of an index built
  from scratch on the final trajectory and site sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.service.placement import PlacementService
from repro.service.specs import QuerySpec

from e2ebench.inputs import City, build_index

#: a marginal gain at or below this is floating-point residue, not coverage
NOISE_GAIN = 1e-9


@dataclass
class Checks:
    """Collects check failures; ``ok`` is the run's ``correct`` flag."""

    failures: list[str] = field(default_factory=list)
    counted: dict[str, int] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more ({message})"

    def count(self, name: str, n: int = 1) -> None:
        self.counted[name] = self.counted.get(name, 0) + n

    @property
    def ok(self) -> bool:
        return not self.failures


def check_answer(
    checks: Checks, spec: QuerySpec, answer: dict, sites: set[int] | None
) -> None:
    """Property checks on one answer (``answer`` as served: sites, utility, ...)."""
    checks.count("answers")
    chosen = [int(s) for s in answer["sites"]]
    where = f"{spec.to_dict()}"
    if len(set(chosen)) != len(chosen):
        checks.fail(f"duplicate sites in {where}: {chosen}")
    if spec.budget is not None:
        if len(chosen) > int(spec.budget // spec.site_cost):
            checks.fail(f"budget exceeded in {where}: {chosen}")
    elif len(chosen) > spec.k:
        checks.fail(f"more than k sites in {where}: {chosen}")
    if sites is not None and not set(chosen) <= sites:
        checks.fail(f"answer uses a site not in the live set: {where}")
    if set(chosen) & set(spec.existing_sites):
        checks.fail(f"answer re-selects an existing site: {where}")
    vector = answer.get("per_trajectory_utility")
    if vector is None:
        return
    values = np.asarray(vector, dtype=np.float64)
    if not np.isclose(float(np.sum(values)), float(answer["utility"]), rtol=1e-9, atol=1e-9):
        checks.fail(f"utility != sum of per-trajectory utilities: {where}")
    if spec.preference == "binary":
        if not np.all((values == 0.0) | (values == 1.0)):
            checks.fail(f"binary utilities outside {{0, 1}}: {where}")
    elif np.any(values < 0.0) or np.any(values > 1.0):
        checks.fail(f"graded utilities outside [0, 1]: {where}")
    if spec.capacity is not None and spec.preference == "binary":
        if float(answer["utility"]) > spec.capacity * spec.k + 1e-9:
            checks.fail(f"capacity bound exceeded: {where}")


def check_prefixes(checks: Checks, answers: list[tuple[int, QuerySpec, dict]]) -> None:
    """Specs that differ only in k: the smaller answer prefixes the larger one.

    *answers* holds ``(index_version, spec, answer)``; only answers served
    at the same index version are compared.
    """
    groups: dict[tuple, dict[int, tuple[int, ...]]] = {}
    for version, spec, answer in answers:
        if spec.budget is not None:
            continue
        sites = tuple(answer["sites"])
        bucket = groups.setdefault((version, spec.selection_key), {})
        if bucket.setdefault(spec.k, sites) != sites:
            checks.fail(f"same spec, same version, different answers: {spec.to_dict()}")
    for key, by_k in groups.items():
        ks = sorted(by_k)
        for small, large in zip(ks, ks[1:]):
            a, b = by_k[small], by_k[large]
            # a shorter-than-k answer (gains ran out) is a prefix of every larger one
            if b[: len(a)] != a:
                checks.fail(f"k={small} answer is not a prefix of k={large}: {key[1]}")
            checks.count("prefix_pairs")


def dense_reference(city: City) -> PlacementService:
    """A cold in-process dense service on an index built afresh from *city*."""
    return PlacementService(
        build_index(city), engine="dense", cache_size=0, coverage_cache=False
    )


def check_against_dense(
    checks: Checks,
    city: City,
    answers: list[tuple[QuerySpec, dict]],
    seed: int,
    sample: int,
    exact: bool = True,
) -> None:
    """Recompute a seeded sample of distinct answered specs with the dense engine."""
    distinct: dict[QuerySpec, dict] = {}
    for spec, answer in answers:
        distinct.setdefault(spec, answer)
    specs = sorted(distinct, key=lambda s: repr(s.to_dict()))
    picked = random.Random(seed * 31 + 17).sample(specs, min(sample, len(specs)))
    if not picked:
        checks.fail("no answers to recompute")
        return
    reference = dense_reference(city).batch_query(picked, use_cache=False)
    for spec, ref in zip(picked, reference):
        checks.count("dense_recomputed")
        got = distinct[spec]
        where = spec.to_dict()
        expected, strict = tuple(ref.sites), exact
        sites = tuple(int(s) for s in got["sites"])
        gains = ref.metadata.get("marginal_gains", [])
        real = sum(1 for gain in gains if gain > NOISE_GAIN)
        if gains and real < max(len(expected), len(sites)):
            # once real gains run out, both greedy engines may go on picking
            # sites whose gain is zero or float residue, each its own way;
            # only the sites chosen for a real gain are comparable
            checks.count("dense_noise_picks", len(expected) - real)
            checks.count("served_noise_picks", max(0, len(sites) - real))
            expected, sites, strict = expected[:real], sites[:real], False
        if sites != expected:
            checks.fail(f"sites differ from cold dense: {where}: "
                        f"{got['sites']} vs {list(expected)}")
            continue
        if strict:
            if float(got["utility"]) != float(ref.utility):
                checks.fail(f"utility differs from cold dense: {where}")
            vector = got.get("per_trajectory_utility")
            if vector is not None and (
                np.asarray(vector, dtype=np.float64).tobytes()
                != np.asarray(ref.per_trajectory_utility, dtype=np.float64).tobytes()
            ):
                checks.fail(f"utility vector differs from cold dense: {where}")
        else:
            vector = got.get("per_trajectory_utility")
            if not np.isclose(float(got["utility"]), float(ref.utility), rtol=1e-9, atol=1e-9):
                checks.fail(f"utility differs from rebuilt: {where}")
            if vector is not None and not np.allclose(
                np.asarray(vector), np.asarray(ref.per_trajectory_utility), atol=1e-9
            ):
                checks.fail(f"utility vector differs from rebuilt: {where}")
