"""The four workloads: fixed instance pools and their request mix.

Each pool is drawn once from its workload seed, so the instances, and with
them the reference optima and the set of requests that hit a known fault, are
the same in every run.  The ``--seed`` of a run only orders the requests
inside each round (see ``serve.py``).

This module holds data and the generator call only; it imports ``layercloud``
inside ``write_pool`` so the checking process can import it without the
program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOAD_NAMES = ("area-min", "bbox-min", "sweep-2layer", "exact-klayer")
EPSILON = 1


@dataclass(frozen=True)
class Spec:
    """One instance of a pool: ``gen_random_instance`` arguments plus a label."""

    ident: str
    sizes: tuple[int, ...]
    width_range: tuple[int, int]
    seed: int


def _strip_family(
    prefix: str, workload_seed: int, classes: list[tuple[int, int, int, tuple[int, ...]]]
) -> list[Spec]:
    """Equal rows of n rectangles with widths 1..n, in size classes.

    Each class is (count, n_lo, n_hi, layer counts cycled through).  Widths up
    to the row length make the strip w_max * K tight, so part of the family
    has no layout inside it at all.
    """
    rng = random.Random(workload_seed)
    specs = []
    for count, n_lo, n_hi, layer_cycle in classes:
        for _ in range(count):
            layers = layer_cycle[len(specs) % len(layer_cycle)]
            n = rng.randint(n_lo, n_hi)
            specs.append(
                Spec(f"{prefix}{len(specs):02d}", (n,) * layers, (1, n), rng.randrange(2**31))
            )
    return specs


def _sweep_family(workload_seed: int) -> list[Spec]:
    """Two rows in three size classes: tie-search, medium and large."""
    rng = random.Random(workload_seed)
    specs = []
    for k in range(48):
        sizes = (rng.randint(3, 12), rng.randint(3, 12))
        specs.append(Spec(f"small{k:02d}", sizes, (1, 9), rng.randrange(2**31)))
    for k in range(12):
        sizes = (rng.randint(25, 100), rng.randint(25, 100))
        specs.append(Spec(f"medium{k:02d}", sizes, (1, 9), rng.randrange(2**31)))
    for k in range(2):
        sizes = (rng.randint(300, 700), rng.randint(300, 700))
        specs.append(Spec(f"large{k:02d}", sizes, (1, 5), rng.randrange(2**31)))
    return specs


def _klayer_family(workload_seed: int, count: int, max_total: int) -> list[Spec]:
    """3-5 rows holding at most ``max_total`` vertices in all, widths 1..5."""
    rng = random.Random(workload_seed)
    specs = []
    for k in range(count):
        layers = rng.randint(3, 5)
        sizes = [1] * layers
        for _ in range(rng.randint(0, max_total - layers)):
            sizes[rng.randrange(layers)] += 1
        specs.append(Spec(f"k{k:02d}", tuple(sizes), (1, 5), rng.randrange(2**31)))
    return specs


def pool(workload: str) -> list[Spec]:
    if workload == "area-min":
        return _strip_family(
            "a", 1001, [(30, 10, 30, (2, 3, 4)), (5, 31, 50, (2, 3, 4)), (1, 100, 120, (2,))]
        )
    if workload == "bbox-min":
        # Rows stay short: each request runs 6-10 flow solves.
        return _strip_family("b", 2002, [(36, 10, 16, (2, 3, 4)), (4, 17, 32, (2, 3, 4))])
    if workload == "sweep-2layer":
        return _sweep_family(3003)
    if workload == "exact-klayer":
        return _klayer_family(4004, 60, 10)
    raise ValueError(f"unknown workload {workload!r}")


def write_pool(workload: str, folder: Path) -> list[Path]:
    """Generate the pool with the program's generator and write one file each."""
    from layercloud.generate import gen_random_instance
    from layercloud.io import Instance, save_instance

    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in pool(workload):
        graph = gen_random_instance(
            len(spec.sizes), list(spec.sizes), spec.width_range, spec.seed
        )
        path = folder / f"{spec.ident}.json"
        save_instance(path, Instance(graph=graph, epsilon=Fraction(EPSILON)))
        paths.append(path)
    return paths
