"""Erdos-Renyi sampling, Laplacians, spanning trees, sandpile pairings."""

import random

from cokpairs.graphs import (
    ERParams,
    Graph,
    complete_graph,
    connected_components,
    laplacian,
    parse_graph,
    sample_er,
    sandpile_with_pairing,
    spanning_tree_count,
)
from cokpairs.intmat import smith_normal_form
from cokpairs.pairings import PairedGroup


def test_laplacian_k3():
    assert laplacian(complete_graph(3)).data == (
        (-2, 1, 1),
        (1, -2, 1),
        (1, 1, -2),
    )


def test_laplacian_empty_and_path():
    empty = Graph.from_edges(3, [])
    assert laplacian(empty).data == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert laplacian(p3).data == ((-1, 1, 0), (1, -2, 1), (0, 1, -1))


def test_sample_er_degenerate_probabilities():
    assert sample_er(ERParams(8, 0.0, 1)).edges == frozenset()
    assert len(sample_er(ERParams(8, 1.0, 1)).edges) == 8 * 7 // 2


def test_sample_er_deterministic_replay():
    a = sample_er(ERParams(15, 0.37, 99), trial=5)
    b = sample_er(ERParams(15, 0.37, 99), trial=5)
    assert a == b
    c = sample_er(ERParams(15, 0.37, 99), trial=6)
    assert a != c  # different trial stream


def test_sandpile_examples():
    tor, free, gram, conn = sandpile_with_pairing(complete_graph(3))
    assert tor.text() == "Z/3" and conn and free == 1
    assert PairedGroup(tor, gram).perfect

    tor, free, gram, conn = sandpile_with_pairing(complete_graph(4))
    assert tor.text() == "Z/4+Z/4" and conn
    assert spanning_tree_count(complete_graph(4)) == 16

    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    tor, free, gram, conn = sandpile_with_pairing(two_edges)
    assert tor.order == 1 and free == 2 and not conn
    assert spanning_tree_count(two_edges) == 0


def test_spanning_tree_cayley():
    for n in (3, 4, 5, 6):
        assert spanning_tree_count(complete_graph(n)) == n ** (n - 2)


def test_seeded_er_invariants():
    """Connected iff |torsion| = spanning trees; disconnected iff 0 trees;
    column sums vanish; free rank = number of components."""
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(2, 10)
        q = rng.choice([0.2, 0.4, 0.6, 0.8])
        g = sample_er(ERParams(n, q, 1234), trial)
        lap = laplacian(g)
        assert all(sum(lap.col(j)) == 0 for j in range(n))
        trees = spanning_tree_count(g)
        tor, free, gram, conn = sandpile_with_pairing(g)
        comps = connected_components(g)
        assert free == comps
        assert conn == (comps == 1)
        if conn:
            assert tor.order == trees
        else:
            assert trees == 0
        assert PairedGroup(tor, gram).perfect


def test_snf_product_vs_any_deleted_determinant():
    """The product of nonzero SNF invariants equals the tree count from
    deleting any row and column of the Laplacian."""
    rng = random.Random(42)
    from cokpairs.intmat import IntMatrix

    for trial in range(30):
        n = rng.randint(2, 8)
        g = sample_er(ERParams(n, 0.5, 777), trial)
        if connected_components(g) != 1:
            continue
        lap = laplacian(g)
        snf = smith_normal_form(lap)
        prod_d = 1
        for x in snf.d:
            if x:
                prod_d *= x
        for drop in range(n):
            reduced = IntMatrix.from_rows(
                [
                    [lap[i, j] for j in range(n) if j != drop]
                    for i in range(n)
                    if i != drop
                ]
            )
            assert abs(reduced.determinant()) == prod_d


def test_graph_text_roundtrip():
    g = Graph.from_edges(5, [(0, 3), (1, 2), (2, 4)])
    assert parse_graph(g.text()) == g
    assert g.text() == "5|0-3,1-2,2-4"


def test_edge_probability_marginal():
    """Sampled edge counts match the binomial mean within 4 sigma."""
    trials, n, q = 2000, 5, 0.3
    pairs = n * (n - 1) // 2
    total = sum(
        len(sample_er(ERParams(n, q, 2718), t).edges) for t in range(trials)
    )
    mean = trials * pairs * q
    sigma = (trials * pairs * q * (1 - q)) ** 0.5
    assert abs(total - mean) < 4 * sigma


def _er_edges_reference(n, q, seed, trial):
    """One scalar draw per pair in lexicographic order; an edge when the
    draw is below the probability threshold."""
    from cokpairs import rng

    threshold = rng.probability_threshold(q)
    s = rng.stream(seed, trial)
    return frozenset((i, j) for i in range(n) for j in range(i + 1, n) if s.u64() < threshold)


def _components_reference(n, edges):
    """Union-find with path halving."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for v in range(n) if find(v) == v)


def test_er_draw_matches_scalar_reference():
    from cokpairs.graphs import component_count, er_adjacency, laplacian_array

    for n in (1, 2, 40):
        for q in (0.0, 0.37, 0.5, 1.0):
            for trial in range(6):
                want = _er_edges_reference(n, q, 31, trial)
                g = sample_er(ERParams(n, q, 31), trial)
                assert g.edges == want
                assert all(type(x) is int for e in g.edges for x in e)
                adj = er_adjacency(n, q, 31, trial)
                assert laplacian_array(adj).tolist() == [list(r) for r in laplacian(g).data]
                assert component_count(adj) == connected_components(g) == _components_reference(n, want)


def test_components_match_union_find():
    """Sparse graphs (many components, long paths) and graphs given by hand."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 30)
        m = rng.randint(0, 2 * n)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(m)] if n > 1 else []
        g = Graph.from_edges(n, edges)
        assert connected_components(g) == _components_reference(n, g.edges)
    path = Graph.from_edges(50, [(i, i + 1) for i in range(49)])
    assert connected_components(path) == 1
    reversed_path = Graph.from_edges(50, [(49 - i, 48 - i) for i in range(49)])
    assert connected_components(reversed_path) == 1
    assert connected_components(Graph.from_edges(5, [])) == 5
    assert connected_components(Graph.from_edges(6, [(0, 5), (1, 4), (2, 3)])) == 3
