"""Erdos-Renyi sampling, Laplacians, spanning trees, sandpile groups.

Sign convention: the Laplacian carries +1 for edges off the diagonal and
-deg on the diagonal.  Cokernels are unaffected by the global sign; the
pairing flips sign with it, and the golden tests pin this convention.

Sampling and the experiment trials work on boolean adjacency arrays
(`er_adjacency`, `laplacian_array`, `component_count`); `Graph`,
`sample_er`, `laplacian` and `connected_components` convert to and from
them, with Python ints in edges and matrices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import rng
from .groups import FinAbGroup
from .intmat import IntMatrix
from .pairings import PairingGram, torsion_pairing


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < b < self.n):
                raise ValueError(f"bad edge ({a}, {b}); need 0 <= a < b < n, no loops")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        return Graph(n, frozenset((min(a, b), max(a, b)) for a, b in edges))

    def text(self) -> str:
        edges = ",".join(f"{a}-{b}" for a, b in sorted(self.edges))
        return f"{self.n}|{edges}"


def parse_graph(text: str) -> Graph:
    head, _, rest = text.partition("|")
    n = int(head)
    edges = []
    for tok in rest.split(","):
        tok = tok.strip()
        if tok:
            a, _, b = tok.partition("-")
            edges.append((int(a), int(b)))
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


@functools.lru_cache(maxsize=64)
def upper_indices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k): the (i, j) with j >= i + k, row-major."""
    iu, ju = np.triu_indices(n, k)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@dataclass(frozen=True)
class ERParams:
    n: int
    q: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs n >= 1")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("edge probability must lie in [0, 1]")


def er_adjacency(n: int, q: float, seed: int, trial: int = 0) -> np.ndarray:
    """Boolean adjacency matrix of one Erdos-Renyi draw.

    Pairs i < j are visited in lexicographic order; each consumes one
    64-bit draw from the (seed, trial) substream (see rng module for the
    scheme) and is an edge when the draw is below the probability threshold.
    """
    threshold = rng.probability_threshold(q)
    iu, ju = upper_indices(n, 1)
    if threshold == 1 << 64:  # q = 1; the threshold does not fit in uint64
        hit = True
    else:
        hit = rng.stream(seed, trial).u64_array(len(iu)) < np.uint64(threshold)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu, ju] = hit
    return adj | adj.T


def laplacian_array(adj: np.ndarray) -> np.ndarray:
    """int64 Laplacian of a boolean adjacency matrix (the sign convention above)."""
    lap = adj.astype(np.int64)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def component_count(adj: np.ndarray) -> int:
    """Number of connected components of a boolean adjacency matrix.

    Label propagation: each vertex takes the least label in its closed
    neighbourhood, then labels jump to their label's label.  Labels only
    decrease and stay inside the component, so at the fixed point each
    component carries its least vertex, the only vertex labelled by itself.
    """
    n = len(adj)
    far = np.where(adj, 0, n)  # added to a label, pushes non-neighbours past n
    np.fill_diagonal(far, 0)
    labels = np.arange(n)
    while True:
        least = (labels + far).min(axis=1, initial=n)
        least = least[least]
        if (least == labels).all():
            return int(np.count_nonzero(labels == np.arange(n)))
        labels = least


def adjacency(g: Graph) -> np.ndarray:
    ends = np.fromiter(itertools.chain.from_iterable(g.edges), np.int64, 2 * len(g.edges))
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[ends[0::2], ends[1::2]] = adj[ends[1::2], ends[0::2]] = True
    return adj


def graph_from_adjacency(adj: np.ndarray) -> Graph:
    i, j = np.nonzero(np.triu(adj, 1))
    return Graph(len(adj), frozenset(zip(i.tolist(), j.tolist())))


def sample_er(params: ERParams, trial: int = 0) -> Graph:
    """One Erdos-Renyi draw; deterministic in (n, q, seed, trial)."""
    return graph_from_adjacency(er_adjacency(params.n, params.q, params.seed, trial))


def laplacian(g: Graph) -> IntMatrix:
    return IntMatrix.from_array(laplacian_array(adjacency(g)))


def connected_components(g: Graph) -> int:
    return component_count(adjacency(g))


def spanning_tree_count(g: Graph) -> int:
    """|det| of the reduced Laplacian (last row and column deleted)."""
    if g.n <= 1:
        return 1
    lap = laplacian(g)
    reduced = IntMatrix.from_rows(
        [row[: g.n - 1] for row in lap.data[: g.n - 1]]
    )
    return abs(reduced.determinant())


def sandpile_with_pairing(g: Graph) -> tuple[FinAbGroup, int, PairingGram, bool]:
    """Torsion part of the sandpile group with its duality pairing.

    Returns (torsion, free rank of the full cokernel, Gram, connected).
    For connected graphs the torsion part is the whole sandpile group and
    the free rank is 1 (the all-ones kernel).
    """
    lap = laplacian(g)
    torsion, free_rank, gram = torsion_pairing(lap)
    return torsion, free_rank, gram, connected_components(g) == 1
