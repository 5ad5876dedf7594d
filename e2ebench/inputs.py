"""Seeded inputs: the city, its trajectories and sites, spec mixes, update batches.

Everything here is a pure function of ``(seed, scale)`` and runs before any
timed window.  The program only ever receives what this module produces:
the road network, the trajectory set and the candidate sites (through the
offline build), the JSON spec batches and the JSON update deltas.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
from dataclasses import dataclass, field

from repro.datasets import beijing_like
from repro.service.specs import QuerySpec
from repro.trajectory.model import Trajectory, TrajectoryDataset

from e2ebench import harness

#: the index's τ ladder and the (τ, ψ) parts the spec mixes use: 4 × 2 = 8,
#: exactly the default coverage-cache part budget
TAU_RANGE = (0.4, 4.0)
TAUS = (0.8, 1.6, 2.4, 3.2)
PREFERENCES = ("binary", "linear")
#: the city every workload seed is drawn from (the service CLI's default seed)
CITY_SEED = 42

#: per-scale knobs; "small" is what the benchmark measures, "tiny" the smoke
SCALES = {
    "small": dict(dataset="small", held_trajectories=120, held_site_share=0.05,
                  churn_trajectories=8, churn_sites=3),
    "tiny": dict(dataset="tiny", held_trajectories=30, held_site_share=0.05,
                 churn_trajectories=3, churn_sites=2),
}


@dataclass
class City:
    """The generated world the program is built over."""

    network: object
    trajectories: list[Trajectory]  # the initial live set, in order
    sites: list[int]  # initial candidate sites, sorted
    held_trajectories: list[list[int]]  # node sequences for later additions
    held_sites: list[int]  # network nodes outside the initial site set
    existing_pool: list[tuple[int, ...]] = field(default_factory=list)

    def dataset(self) -> TrajectoryDataset:
        return TrajectoryDataset(self.trajectories)


def make_city(seed: int, scale: str) -> City:
    """The city for workload *seed*.

    The road network and the trajectory population come from one fixed
    city seed, so every workload seed measures the same city; the workload
    seed draws which trajectories start live and which are held back for
    updates, the candidate sites, the existing-site sets, and (elsewhere)
    the spec sequences and update batches.
    """
    knobs = SCALES[scale]
    bundle = _city_bundle(knobs["dataset"])
    rng = random.Random(seed * 7919 + 1)
    trajectories = list(bundle.trajectories)
    held_ids = set(rng.sample(range(len(trajectories)), knobs["held_trajectories"]))
    held = [t for i, t in enumerate(trajectories) if i in held_ids]
    live = [t for i, t in enumerate(trajectories) if i not in held_ids]
    nodes = sorted(bundle.network.node_ids())
    held_sites = sorted(rng.sample(nodes, int(len(nodes) * knobs["held_site_share"])))
    held_set = set(held_sites)
    sites = [n for n in nodes if n not in held_set]
    city = City(
        network=bundle.network,
        trajectories=live,
        sites=sites,
        held_trajectories=[list(t.nodes) for t in held],
        held_sites=held_sites,
    )
    # sets of already-operating sites for the TOPS-with-existing-services mix
    city.existing_pool = [tuple(sorted(rng.sample(sites, 3))) for _ in range(8)]
    return city


def _city_bundle(dataset: str):
    """The fixed city, generated once per checkout (~2.5 s at "small") and cached.

    The cache key hashes the generator sources, so a change to how cities
    are generated never reads a stale city.
    """
    sources = ("datasets/beijing.py", "trajectory/generators.py", "network/generators.py")
    digest = hashlib.sha256(dataset.encode() + str(CITY_SEED).encode())
    for name in sources:
        digest.update((harness.SRC / "repro" / name).read_bytes())
    path = harness.WORK / f"city-{dataset}-{digest.hexdigest()[:16]}.pickle"
    if path.is_file():
        return pickle.loads(path.read_bytes())
    bundle = beijing_like(scale=dataset, seed=CITY_SEED)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.partial")
    partial.write_bytes(pickle.dumps(bundle))
    os.replace(partial, path)
    return bundle


def build_index(city: City):
    """The offline phase over the generated inputs (what set-up times)."""
    from repro.core.problem import TOPSProblem

    problem = TOPSProblem(city.network, city.dataset(), city.sites)
    return problem.build_netclus_index(
        gamma=0.75, tau_min_km=TAU_RANGE[0], tau_max_km=TAU_RANGE[1]
    )


# ---------------------------------------------------------------------- #
# spec mixes
# ---------------------------------------------------------------------- #
def warm_specs() -> list[QuerySpec]:
    """One spec per (τ, ψ) part: what set-up sends to warm the coverage cache."""
    return [QuerySpec(k=5, tau_km=t, preference=p) for t in TAUS for p in PREFERENCES]


def cold_batch() -> list[QuerySpec]:
    """The cold-start batch: several τ and both ψ, one k-prefix pair."""
    return [
        QuerySpec(k=5, tau_km=0.8),
        QuerySpec(k=10, tau_km=0.8),
        QuerySpec(k=10, tau_km=1.6, preference="linear"),
        QuerySpec(k=8, tau_km=2.4),
    ]


@dataclass(frozen=True)
class ServeMix:
    """Per-round composition of serve-warm traffic (fixed; the seed picks specs)."""

    head: int = 12  # from 8 hot specs — result-cache hits after first use
    plain: int = 14  # k × τ × ψ
    existing: int = 8  # with already-operating sites
    budget: int = 6  # TOPS-COST
    capacity_binary: int = 8  # TOPS-CAPACITY, bitset path under --engine auto
    capacity_linear: int = 4  # TOPS-CAPACITY, sparse path
    hostile: int = 1  # one malformed request; the two kinds alternate by round
    updates: int = 1  # last in the round (the result cache restarts empty)

    @property
    def operations(self) -> int:
        return (self.head + self.plain + self.existing + self.budget
                + self.capacity_binary + self.capacity_linear + self.hostile
                + self.updates)


SERVE_MIX = ServeMix()


def serve_pools(city: City) -> dict[str, list[QuerySpec]]:
    """The spec pools serve-warm draws from (~960 specs; the result cache holds 128)."""
    plain = [QuerySpec(k=k, tau_km=t, preference=p)
             for k in range(3, 41) for t in TAUS for p in PREFERENCES]
    existing = [QuerySpec(k=k, tau_km=t, preference=p, existing_sites=e)
                for k in (8, 12, 16, 20) for t in TAUS for p in PREFERENCES
                for e in city.existing_pool]
    budget = [QuerySpec(k=1, tau_km=t, preference=p, budget=float(b))
              for b in (4, 6, 8, 10, 12) for t in TAUS for p in PREFERENCES]
    capacity = {
        p: [QuerySpec(k=k, tau_km=t, preference=p, capacity=c)
            for k in range(6, 21, 2) for t in (0.8, 1.6) for c in range(10, 61, 5)]
        for p in PREFERENCES
    }
    head = [QuerySpec(k=k, tau_km=t) for k in (5, 10) for t in TAUS]
    return {
        "head": head,
        "plain": plain,
        "existing": existing,
        "budget": budget,
        "capacity_binary": capacity["binary"],
        "capacity_linear": capacity["linear"],
    }


HOSTILE_KINDS = ("content_length", "long_header")


def serve_round(pools: dict[str, list[QuerySpec]], rng: random.Random,
                number: int) -> list:
    """Round *number*'s requests in a seeded order; strings mark hostile slots.

    The round's update is not listed: the caller sends it after these.
    """
    items: list = []
    for name in ("head", "plain", "existing", "budget", "capacity_binary",
                 "capacity_linear"):
        items += [rng.choice(pools[name]) for _ in range(getattr(SERVE_MIX, name))]
    items += [HOSTILE_KINDS[(number + i) % 2] for i in range(SERVE_MIX.hostile)]
    rng.shuffle(items)
    return items


def churn_pool(city: City) -> list[QuerySpec]:
    """update-churn's query specs: plain and existing-site specs over all parts."""
    plain = [QuerySpec(k=k, tau_km=t, preference=p)
             for k in (5, 10, 15, 20) for t in TAUS for p in PREFERENCES]
    existing = [QuerySpec(k=10, tau_km=t, preference=p, existing_sites=e)
                for t in TAUS for p in PREFERENCES for e in city.existing_pool[:2]]
    return plain + existing


# ---------------------------------------------------------------------- #
# update batches
# ---------------------------------------------------------------------- #
class Churn:
    """Size-preserving update batches: remove r trajectories and add r, toggle sites.

    Tracks the live trajectory list (in the order an index rebuilt from
    scratch must see it) and the live site set, so the final state can be
    rebuilt independently.
    """

    def __init__(self, city: City, scale: str, seed: int) -> None:
        knobs = SCALES[scale]
        self.network = city.network
        self.r = knobs["churn_trajectories"]
        self.s = knobs["churn_sites"]
        self.rng = random.Random(seed * 104729 + 3)
        self.live: list[Trajectory] = list(city.trajectories)
        self.pool: list[list[int]] = [list(n) for n in city.held_trajectories]
        self.sites = set(city.sites)
        self.outside = list(city.held_sites)
        # ids of re-added trajectories never collide with the generated ones
        self.next_id = max(10_000_000, 1 + max(t.traj_id for t in city.trajectories))

    def next_batch(self) -> dict:
        """The next delta as the server/CLI JSON vocabulary (and apply it locally)."""
        removed = self.rng.sample(range(len(self.live)), self.r)
        gone = [self.live[i] for i in sorted(removed, reverse=True)]
        for i in sorted(removed, reverse=True):
            del self.live[i]
        added = []
        for _ in range(self.r):
            nodes = self.pool.pop(self.rng.randrange(len(self.pool)))
            traj = Trajectory.from_nodes(self.next_id, nodes, self.network)
            self.next_id += 1
            added.append(traj)
        self.live.extend(added)
        self.pool.extend(list(t.nodes) for t in gone)
        remove_sites = self.rng.sample(sorted(self.sites), self.s)
        add_sites = self.rng.sample(self.outside, self.s)
        for site in remove_sites:
            self.sites.discard(site)
        for site in add_sites:
            self.sites.add(site)
            self.outside.remove(site)
        self.outside.extend(remove_sites)
        return {
            "remove_trajectories": [t.traj_id for t in gone],
            "add_trajectories": [
                {"traj_id": t.traj_id, "nodes": list(t.nodes)} for t in added
            ],
            "remove_sites": remove_sites,
            "add_sites": add_sites,
        }

    def rebuilt_city(self, city: City) -> City:
        """The final live state as a fresh :class:`City` (for a from-scratch build)."""
        return City(
            network=city.network,
            trajectories=list(self.live),
            sites=sorted(self.sites),
            held_trajectories=[],
            held_sites=[],
        )
