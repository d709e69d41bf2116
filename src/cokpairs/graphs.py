"""Erdos-Renyi sampling, Laplacians, spanning trees, sandpile groups.

Sign convention: the Laplacian carries +1 for edges off the diagonal and
-deg on the diagonal.  Cokernels are unaffected by the global sign; the
pairing flips sign with it, and the golden tests pin this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

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


def sample_er(params: ERParams, trial: int = 0) -> Graph:
    """One Erdos-Renyi draw; deterministic in (n, q, seed, trial).

    Pairs are visited in lexicographic order; each consumes one 64-bit
    draw from the (seed, trial) substream (see rng module for the scheme).
    """
    threshold = rng.probability_threshold(params.q)
    s = rng.stream(params.seed, trial)
    edges = []
    for i in range(params.n):
        for j in range(i + 1, params.n):
            if s.chance(threshold):
                edges.append((i, j))
    return Graph.from_edges(params.n, edges)


def laplacian(g: Graph) -> IntMatrix:
    a = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        a[i][j] = a[j][i] = 1
        a[i][i] -= 1
        a[j][j] -= 1
    return IntMatrix.from_rows(a)


def connected_components(g: Graph) -> int:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for v in range(g.n) if find(v) == v)


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
