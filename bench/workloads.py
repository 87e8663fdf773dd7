"""Seeded inputs for the three workloads and the order they run in.

The benchmark makes its own graphs, with its own generator, so the
library under test only ever sees .wgr text, and the oracles in
oracle.py can build every Laplacian from the same edge lists without
sharing code with the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

WEIGHT_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class Workload:
    name: str
    # vertex counts of the distinct graphs of one pass, in pass order
    sizes: tuple[int, ...]
    # non-tree vertex pairs that become edges, as a share of all of them
    density: float
    # verify's --suite value; None runs all six suites
    suites: Optional[tuple[str, ...]]
    samples: int
    # calibrated seconds one pass takes at the commit that fixed it; the
    # pass count of a run is derived from it (see passes_for)
    pass_nominal_s: float


ALL_SUITES = ("dirichlet", "neumann", "cheeger", "pinch", "ressum", "path-reduction")

# Why these workloads: see README.md. Within a pass the sizes are
# interleaved, so every size class is sampled across the whole run however
# the machine's speed drifts meanwhile, and the counts per size put the
# median and the tail percentile inside one size class, away from the edge
# between two.
WORKLOADS = {
    w.name: w for w in (
        Workload("corpus-verify", sizes=(5, 9, 6, 7, 9, 8) * 4 + (5, 6, 7, 8), density=0.4,
                 suites=None, samples=10, pass_nominal_s=12.4),
        Workload("surgery-sparse", sizes=(32, 34, 36, 38, 40) * 6, density=0.02,
                 suites=("pinch", "ressum", "path-reduction"), samples=2,
                 pass_nominal_s=16.2),
        Workload("boundary-verify", sizes=(11, 12, 13) * 5 + (11, 12), density=0.4,
                 suites=("dirichlet", "cheeger", "path-reduction"), samples=10,
                 pass_nominal_s=8.2),
    )
}


@dataclass(frozen=True)
class Graph:
    """One generated input: weights, sorted edges (u < v), the boundary
    vertex written into the file, and the .wgr text itself."""

    masses: tuple[float, ...]
    edges: tuple[tuple[int, int, float], ...]
    boundary: int
    text: str

    @property
    def n(self) -> int:
        return len(self.masses)


def make_graph(rng: random.Random, n: int, density: float) -> Graph:
    """Random connected graph: a random recursive tree on shuffled labels,
    plus exactly round(density * non-tree pairs) extra edges (the mean
    edge count of G(n, p = density) on top of the tree, without its
    spread), uniform weights, and one uniform boundary vertex."""
    labels = list(range(n))
    rng.shuffle(labels)
    tree = set()
    for i in range(1, n):
        u, v = labels[i], labels[rng.randrange(i)]
        tree.add((min(u, v), max(u, v)))
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = rng.sample(others, round(density * len(others)))
    masses = tuple(rng.uniform(*WEIGHT_RANGE) for _ in range(n))
    edges = tuple((u, v, rng.uniform(*WEIGHT_RANGE)) for (u, v) in sorted(tree | set(extra)))
    boundary = rng.randrange(n)
    lines = [f"vertex v{i} {m!r}" for i, m in enumerate(masses)]
    lines += [f"edge v{u} v{v} {k!r}" for (u, v, k) in edges]
    lines.append(f"boundary v{boundary}")
    return Graph(masses, edges, boundary, "\n".join(lines) + "\n")


def make_inputs(workload: Workload, seed: int) -> list[Graph]:
    """The distinct graphs of one pass; the same seed gives the same
    graphs."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [make_graph(rng, n, workload.density) for n in workload.sizes]


def passes_for(workload: Workload, seconds: float) -> int:
    """Whole passes in a run of `seconds`: fixed by the committed pass
    time, not by the clock, so every run makes the same operations and
    the same number of samples however fast the machine is that day."""
    return max(1, round(seconds / workload.pass_nominal_s))


def schedule(graph_count: int, passes: int) -> list[int]:
    """Graph indices in run order: whole passes, each over every graph."""
    return [i for _ in range(passes) for i in range(graph_count)]


def verify_args(workload: Workload, path: str) -> list[str]:
    args = ["verify", path, "--samples", str(workload.samples)]
    if workload.suites is not None:
        args += ["--suite", ",".join(workload.suites)]
    return args
