"""Finite abelian groups: enumeration counts, formulas, text forms."""

import itertools
import pickle
import random
from math import gcd, prod

import numpy as np
import pytest

from cokpairs.errors import BudgetExceeded
from cokpairs.modmaps import ModuleMap
from cokpairs.groups import (
    FinAbGroup,
    GroupElement,
    GroupHom,
    aut_order,
    construction_sizes,
    enumerate_homs,
    enumerate_surjections,
    hom_count,
    parse_group,
    subgroup_order,
)


def G(*orders):
    return FinAbGroup.from_orders(orders)


def identity_hom(g):
    n = g.rank
    return GroupHom(g, g, tuple(tuple(int(i == j) for i in range(n)) for j in range(n)))


def test_hom_count_examples():
    assert sum(1 for _ in enumerate_homs(G(2), G(2))) == 2
    assert sum(1 for _ in enumerate_homs(G(4), G(2))) == 2
    assert sum(1 for _ in enumerate_homs(G(2, 2), G(2))) == 4


def test_surjection_examples():
    assert sum(1 for _ in enumerate_surjections(G(3), G(3))) == 2
    assert sum(1 for _ in enumerate_surjections(G(2), G(4))) == 0
    assert sum(1 for _ in enumerate_surjections(G(2, 2), G(2))) == 3


def test_automorphism_examples():
    assert aut_order(G(2)) == 1
    assert aut_order(G(3)) == 2
    assert aut_order(G(2, 2)) == 6  # GL_2(F_2)


def test_hom_count_formula_matches_enumeration():
    pool = [
        G(),
        G(2),
        G(3),
        G(4),
        G(2, 2),
        G(6),
        G(8),
        G(2, 4),
        G(9),
        G(3, 3),
        G(12),
        G(2, 2, 2),
    ]
    for a in pool:
        for b in pool:
            expected = hom_count(a, b)
            assert expected == prod(
                gcd(oa, ob) for oa in a.generator_orders for ob in b.generator_orders
            )
            if expected <= 5000:
                assert sum(1 for _ in enumerate_homs(a, b)) == expected


def test_budget_exceeded():
    big = G(*([2] * 6))
    with pytest.raises(BudgetExceeded):
        list(enumerate_homs(big, big, budget=1000))


def all_elements(g: FinAbGroup):
    for coords in itertools.product(*[range(o) for o in g.generator_orders]):
        yield GroupElement(g, coords)


def enumerate_subgroups(g: FinAbGroup):
    """All subgroups as frozensets of coordinate tuples (closure BFS)."""
    zero = (0,) * g.rank
    elements = list(all_elements(g))

    def close(base, extra):
        new = set(base)
        stack = [extra]
        while stack:
            c = stack.pop()
            if c in new:
                continue
            new.add(c)
            for d in list(new):
                s = GroupElement(g, tuple(x + y for x, y in zip(c, d))).coords
                if s not in new:
                    stack.append(s)
        return frozenset(new)

    seen = {frozenset({zero})}
    frontier = [frozenset({zero})]
    out = []
    while frontier:
        sub = frontier.pop()
        out.append(sub)
        for el in elements:
            if el.coords not in sub:
                key = close(sub, el.coords)
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
    return out


def test_surjections_by_inclusion_exclusion():
    """#Sur(A, B) from Moebius inversion over the subgroup lattice of B."""
    cases = [
        (G(4), G(2)),
        (G(2, 2), G(2)),
        (G(4, 2), G(2, 2)),
        (G(8), G(4)),
        (G(2, 2, 2), G(2, 2)),
        (G(9), G(3)),
        (G(3, 3), G(3, 3)),
        (G(12), G(6)),
        (G(16, 2), G(4, 2)),
        (G(4, 4), G(4, 2)),
    ]
    for a, b in cases:
        subs = enumerate_subgroups(b)
        full = max(subs, key=len)
        assert len(full) == b.order
        mu = {full: 1}
        for h in sorted(subs, key=len, reverse=True):
            if h not in mu:
                mu[h] = -sum(mu[k] for k in subs if h < k)
        # Hom(A, H) counts images landing inside H, generator by generator
        def homs_into(h):
            return prod(
                sum(1 for coords in h if GroupElement(b, coords).scale(oa).is_zero())
                for oa in a.generator_orders
            )

        expected = sum(mu[h] * homs_into(h) for h in subs)
        direct = sum(1 for _ in enumerate_surjections(a, b))
        assert direct == expected, (a.text(), b.text(), direct, expected)


def test_automorphisms_closed_under_composition():
    rng = random.Random(12)
    for g in (G(4), G(2, 2), G(3, 3), G(4, 2)):
        auts = list(enumerate_surjections(g, g))
        mats = {a.matrix() for a in auts}
        for _ in range(20):
            f1 = rng.choice(auts)
            f2 = rng.choice(auts)
            assert f1.compose(f2).matrix() in mats


def test_construction_sizes():
    p = 5
    assert construction_sizes(G(p)) == (p, p, 1)
    assert construction_sizes(G(2, 2)) == (8, 8, 2)
    assert construction_sizes(FinAbGroup.trivial()) == (1, 1, 1)
    # mixed primes multiply
    s2, s2u, w2 = construction_sizes(G(2, 2))
    s3, s3u, w3 = construction_sizes(G(3))
    assert construction_sizes(G(2, 2, 3)) == (s2 * s3, s2u * s3u, w2 * w3)


def test_sym2_size_matches_pairing_count():
    """|Sym_2 G| equals the number of symmetric pairing Grams on G, and the
    enumerated blocks are distinct, symmetric and order-compatible."""
    from cokpairs.pairings import _enumerate_blocks

    for g in (G(2), G(4), G(2, 2), G(4, 2), G(9), G(3, 3)):
        total = 1
        for p, lam in g.types:
            blocks = _enumerate_blocks(p, lam)
            r = len(lam)
            assert blocks.shape == (len(blocks), r, r) and blocks.dtype == np.int64
            assert len({blk.tobytes() for blk in blocks}) == len(blocks)
            assert (blocks == blocks.transpose(0, 2, 1)).all()
            for i in range(r):
                for j in range(r):
                    assert (blocks[:, i, j] % p ** (lam[0] - min(lam[i], lam[j])) == 0).all()
            total *= len(blocks)
        assert total == construction_sizes(g)[0]


def test_tensor_with_cyclic():
    assert G(4).tensor_with_cyclic(2).text() == "Z/2"
    assert G(3).tensor_with_cyclic(2).order == 1
    assert G(12, 2).tensor_with_cyclic(4).text() == "Z/4+Z/2"


def test_text_roundtrip_and_normalization():
    g = parse_group("Z/2+Z/4+Z/3")
    assert g.text() == "Z/4+Z/2+Z/3"
    assert parse_group(g.text()) == g
    assert parse_group("Z/6").text() == "Z/2+Z/3"
    assert parse_group("1") == FinAbGroup.trivial()


def test_cached_invariants_leak_nowhere():
    """Reading the cached invariants changes no comparison, hash, repr or
    pickle of a group."""
    for orders in [(), (2,), (4, 2, 3), (9, 3, 3, 5)]:
        used, fresh = G(*orders), G(*orders)
        values = (used.generators, used.generator_orders, used.rank, used.order, used.exponent)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == fresh and hash(back) == hash(fresh)
        assert (back.generators, back.generator_orders, back.rank, back.order, back.exponent) == values


def test_element_arithmetic():
    g = G(4, 3)
    x = g.element((3, 2))
    assert (x + x).coords == (2, 1)
    assert (-x).coords == (1, 1)
    assert x.scale(12).is_zero()
    assert x.order() == 12


def test_hom_well_definedness_rejected():
    g = G(4)
    h = G(8)
    with pytest.raises(ValueError):
        GroupHom(g, h, ((1,),))  # 4 * 1 != 0 in Z/8


@pytest.mark.parametrize(
    "build, columns",
    [
        (lambda: ModuleMap.from_matrix(6, G(4), [(1,)]), ValueError),  # 6 is no multiple of 4
        (lambda: ModuleMap.from_matrix(4, G(2, 2), [(1, 0), (1,)]), ValueError),
        (lambda: GroupHom(G(4), G(2, 2), ((1, 0, 0),)), ValueError),
        (lambda: GroupHom(G(4, 2), G(2), ((1,),)), ValueError),  # one column for two generators
        (lambda: ModuleMap.from_matrix(4, G(4), [(5,), (-1,)]), ((1,), (3,))),
        (lambda: GroupHom(G(4), G(4), ((5,),)), ((1,),)),
        (lambda: GroupHom(G(6), G(6), ((3, 0), (0, 4))), ((1, 0), (0, 1))),
    ],
    ids=["modulus", "short-column", "long-column", "column-count", "reduce-map", "reduce-hom",
         "reduce-two-primes"],
)
def test_map_constructors_check_and_reduce_columns(build, columns):
    """Both map types refuse a bad modulus, a column of the wrong length and
    the wrong number of columns, store each column reduced mod the target's
    generator orders; a hom shows those columns as elements through `images`."""
    if columns is ValueError:
        with pytest.raises(ValueError):
            build()
        return
    f = build()
    assert f.columns == columns
    if isinstance(f, GroupHom):
        assert f.images == tuple(GroupElement(f.target, c) for c in f.columns)


def test_identity_and_apply():
    g = G(4, 2)
    i = identity_hom(g)
    x = g.element((3, 1))
    assert i.apply(x) == x
    assert i.source == i.target and i.is_surjective()


def test_subgroup_order():
    g = G(4, 2)
    assert subgroup_order(g, [(1, 0)]) == 4
    assert subgroup_order(g, [(2, 1)]) == 2
    assert subgroup_order(g, [(1, 0), (0, 1)]) == 8
    assert subgroup_order(g, []) == 1


def test_onto_check_matches_subgroup_closure():
    """The Nakayama onto check agrees with the order of the generated
    subgroup, computed by closure: on every map (Z/a)^n -> G, n <= 3, with
    every excluded set, and on every hom between a few multi-prime groups."""
    for target in (G(4), G(2, 2), G(6), G(3, 3)):
        elements = list(itertools.product(*(range(o) for o in target.generator_orders)))
        for n in range(4):
            for columns in itertools.product(elements, repeat=n):
                f = ModuleMap.from_matrix(target.exponent, target, columns)
                for size in range(n + 1):
                    for sigma in map(frozenset, itertools.combinations(range(n), size)):
                        assert f.surjective_avoiding(sigma) == (
                            f.image_index_avoiding(sigma) == 1
                        ), (target.text(), columns, sigma)
    for source, target in (
        (G(12), G(6)),
        (G(4, 3), G(2, 3)),
        (G(6, 2), G(2, 2, 3)),
        (G(18, 2), G(6, 3)),
        (G(30), G(10)),
    ):
        homs = list(enumerate_homs(source, target))
        assert len(homs) == hom_count(source, target)
        for f in homs:
            assert f.is_surjective() == (
                subgroup_order(target, f.columns) == target.order
            ), f.matrix()


def test_cyclic_prime_power_aut_order():
    """|Aut(Z/p^k)| = p^k - p^(k-1)."""
    assert aut_order(G(8)) == 4
    assert aut_order(G(16)) == 8
    assert aut_order(G(9)) == 6
    assert aut_order(G(27)) == 18


def test_aut_order_closed_form_matches_enumeration():
    """The Hillar-Rhea closed form equals the count of enumerated
    automorphisms on every group of order <= 200 at p = 2, 3 with
    |End| <= 2000, mixed primes included."""
    from cokpairs.theory import groups_at_primes

    groups = [g for g in groups_at_primes([2, 3], 200) if hom_count(g, g) <= 2000]
    assert len(groups) == 59
    for g in groups:
        assert aut_order(g) == sum(1 for _ in enumerate_surjections(g, g)), g.text()
