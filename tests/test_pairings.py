"""Pairing construction, classification, and the well-definedness checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cokpairs.errors import BudgetExceeded, NotInDual, NotSymmetric
from cokpairs.groups import FinAbGroup, GroupHom, enumerate_surjections
from cokpairs.intmat import IntMatrix, RationalVector, smith_normal_form, solve_scaled_membership
from cokpairs.pairings import (
    PairClassId,
    PairedGroup,
    PairingGram,
    QmodZ,
    aut_preserving_count,
    canonical_pair_class,
    dual_cokernel_pairing_value,
    gram_from_scaled_blocks,
    pair_isomorphic,
    pairing_class_table,
    parse_paired_group,
    pushforward,
    restrict_to_sylow,
    torsion_dual_pairing,
    torsion_pairing,
)


def G(*orders):
    return FinAbGroup.from_orders(orders)


def gram(g, rows):
    return PairingGram.from_fractions(g, rows)


def identity_hom(g):
    n = g.rank
    return GroupHom(g, g, tuple(tuple(int(i == j) for i in range(n)) for j in range(n)))


def random_symmetric(rng, n, lo=-4, hi=4):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return IntMatrix.from_rows(a)


def test_qmodz_arithmetic():
    x = QmodZ.of(5, 3)
    assert x.value == Fraction(2, 3)
    assert (x + QmodZ.of(1, 3)).is_zero()
    assert x.scale(3).is_zero()
    assert str(QmodZ.of(-1, 4)) == "3/4"


def test_torsion_pairing_examples():
    tor, free, gr = torsion_pairing(IntMatrix.from_rows([[3]]))
    assert tor.text() == "Z/3" and free == 0
    assert gr.entry(0, 0).value == Fraction(1, 3)

    tor, free, gr = torsion_pairing(IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert tor.text() == "Z/3" and free == 0
    assert gr.entry(0, 0).value == Fraction(2, 3)  # inverse-matrix value

    tor, free, gr = torsion_pairing(IntMatrix.from_rows([[0, 0], [0, 0]]))
    assert tor.order == 1 and free == 2
    assert gr.gram == ()

    with pytest.raises(NotSymmetric):
        torsion_pairing(IntMatrix.from_rows([[1, 2], [0, 1]]))


def test_dual_value_examples():
    m = IntMatrix.from_rows([[2]])
    half = RationalVector.of(Fraction(1, 2))
    assert dual_cokernel_pairing_value(m, half, half).value == Fraction(1, 2)
    assert dual_cokernel_pairing_value(m, RationalVector.of(7), half).is_zero()
    m2 = IntMatrix.from_rows([[2, 1], [1, 2]])
    x = RationalVector.of(Fraction(2, 3), Fraction(-1, 3))
    assert dual_cokernel_pairing_value(m2, x, x).value == Fraction(2, 3)
    with pytest.raises(NotInDual):
        dual_cokernel_pairing_value(m2, RationalVector.of(Fraction(1, 2), 0), x)


def generator_lifts(m):
    """Lifts of the canonical torsion generators to Z^n, via the SNF basis."""
    from fractions import Fraction as F

    from cokpairs.arith import factorint

    snf = smith_normal_form(m)
    n = m.rows
    # invert u exactly (det +-1) with fraction-free Gauss-Jordan
    u = [[F(x) for x in row] for row in snf.u.data]
    inv = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if u[i][c] != 0)
        u[c], u[piv] = u[piv], u[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        scale = u[c][c]
        u[c] = [x / scale for x in u[c]]
        inv[c] = [x / scale for x in inv[c]]
        for i in range(n):
            if i != c and u[i][c]:
                f = u[i][c]
                u[i] = [x - f * y for x, y in zip(u[i], u[c])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[c])]
    lifts = []
    for t, d in enumerate(snf.d):
        if d > 1:
            col = tuple(int(inv[i][t]) for i in range(n))
            for p, e in factorint(d).items():
                lifts.append((p, e, t, tuple((d // p**e) * x for x in col)))
    # canonical generator order: primes ascending, exponents descending,
    # ties resolved by descending SNF index (matches torsion_pairing)
    lifts.sort(key=lambda pe: (pe[0], -pe[1], -pe[2]))
    return snf, [(p, e, lift) for p, e, _, lift in lifts]


def test_pairing_matches_bosch_lorenzini_definition():
    """The Gram equals s^T m s' / (k k') on randomized valid lifts and
    scalings, so it is independent of every choice in the construction."""
    rng = random.Random(31)
    done = 0
    while done < 120:
        n = rng.randint(1, 4)
        m = random_symmetric(rng, n)
        tor, free, gr = torsion_pairing(m)
        if tor.order == 1:
            done += 1
            continue
        snf, lifts = generator_lifts(m)
        assert len(lifts) == tor.rank
        sols = []
        for _, _, t in lifts:
            # randomize the lift by any column-space shift, and the scaling
            shift = m.mul_vec([rng.randint(-2, 2) for _ in range(n)])
            t2 = tuple(a + b for a, b in zip(t, shift))
            k, s = solve_scaled_membership(m, t2)
            c = rng.randint(1, 3)
            sols.append((c * k, tuple(c * x for x in s)))
        for i in range(tor.rank):
            for j in range(tor.rank):
                ki, si = sols[i]
                kj, sj = sols[j]
                num = sum(a * b for a, b in zip(si, m.mul_vec(sj)))
                val = Fraction(num, ki * kj)
                want = gr.entry(i, j).value
                assert (val - want).denominator == 1, (m.data, i, j, val, want)
        done += 1


def test_pairing_perfect_on_random_matrices():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n)
        tor, free, gr = torsion_pairing(m)
        assert PairedGroup(tor, gr).perfect  # Gram induces a bijection


def test_invertible_case_matches_inverse_matrix():
    """For invertible m the pairing is X^T m^-1 Y on generator lifts."""
    rng = random.Random(123)
    done = 0
    while done < 80:
        n = rng.randint(1, 4)
        m = random_symmetric(rng, n)
        if m.determinant() == 0:
            continue
        tor, free, gr = torsion_pairing(m)
        assert free == 0
        snf, lifts = generator_lifts(m)
        det = m.determinant()
        # adjugate / det as exact inverse
        inv = [
            [Fraction(_cofactor(m, j, i), det) for j in range(n)] for i in range(n)
        ]
        for i, (_, _, ti) in enumerate(lifts):
            for j, (_, _, tj) in enumerate(lifts):
                val = sum(
                    ti[a] * inv[a][b] * tj[b] for a in range(n) for b in range(n)
                )
                assert (val - gr.entry(i, j).value).denominator == 1
        done += 1


def _cofactor(m, i, j):
    sub = [
        [m[a, b] for b in range(m.cols) if b != j] for a in range(m.rows) if a != i
    ]
    if not sub:
        return 1
    return (-1) ** (i + j) * IntMatrix.from_rows(sub).determinant()


def test_dual_and_group_sides_are_equivalent_data():
    """The map induced by the group-side Gram transports it to the dual-side
    Gram: <phi(g_i), phi(g_j)>_dual = <g_i, g_j>."""
    rng = random.Random(55)
    done = 0
    while done < 60:
        n = rng.randint(1, 4)
        m = random_symmetric(rng, n)
        tor, _, p_gram = torsion_pairing(m)
        if tor.order == 1:
            done += 1
            continue
        _, _, q_gram = torsion_dual_pairing(m)
        orders = tor.generator_orders
        r = tor.rank
        # phi(g_j) = sum_i c_ij dual_i with c_ij = order_i * P_ij
        c = [[int(p_gram.entry(i, j).value * orders[i]) for j in range(r)] for i in range(r)]
        for a in range(r):
            for b in range(r):
                val = sum(
                    c[i][a] * c[j][b] * q_gram.entry(i, j).value
                    for i in range(r)
                    for j in range(r)
                )
                assert (val - p_gram.entry(a, b).value).denominator == 1
        done += 1


def test_pushforward_examples():
    z4, z2 = G(4), G(2)
    f = next(
        h for h in enumerate_surjections(z4, z2) if h.images[0].coords == (1,)
    )
    pushed = pushforward(f, gram(z4, [[Fraction(1, 4)]]))
    assert pushed.entry(0, 0).is_zero()  # doubled dual generator kills 1/4

    z3 = G(3)
    double = next(
        h for h in enumerate_surjections(z3, z3) if h.images[0].coords == (2,)
    )
    pushed = pushforward(double, gram(z3, [[Fraction(1, 3)]]))
    assert pushed.entry(0, 0).value == Fraction(1, 3)  # 4/3 reduces to 1/3

    g = G(4, 2)
    base = gram(g, [[Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    assert pushforward(identity_hom(g), base) == base


def test_pushforward_matches_qz_definition():
    """The integer pushforward equals its definition in Q/Z: entry (i, j) is
    the source pairing evaluated on the coordinates of f^t(dual_i) and
    f^t(dual_j), f^t(dual_i)_a = f_ia o_a / o_i.  Every hom between groups
    of different exponents at p = 2, 3 and with two primes, on one Gram of
    every class."""
    from cokpairs.groups import enumerate_homs

    pairs = [(G(4, 2), G(2, 2)), (G(2, 2), G(8, 2)), (G(8), G(4, 2)), (G(9), G(3, 3))]
    pairs.append((G(12), G(6, 2)))
    for a, b in pairs:
        grams = [info.class_id.representative.pairing for info in pairing_class_table(a, False)]
        so, to = a.generator_orders, b.generator_orders
        for f in enumerate_homs(a, b):
            mat = f.matrix()
            lift = [[mat[i][k] * so[k] // to[i] for k in range(a.rank)] for i in range(b.rank)]
            for delta in grams:
                pushed = pushforward(f, delta)
                want = [[delta.evaluate(x, y) for y in lift] for x in lift]
                assert [list(row) for row in pushed.gram] == want, (a.text(), b.text(), mat)


def test_pushforward_functorial():
    rng = random.Random(9)
    a, b, c = G(4, 2), G(2, 2), G(2)
    surs_ab = list(enumerate_surjections(a, b))
    surs_bc = list(enumerate_surjections(b, c))
    grams = [info.class_id.representative.pairing for info in pairing_class_table(a, False)]
    for _ in range(25):
        f = rng.choice(surs_ab)
        g2 = rng.choice(surs_bc)
        delta = rng.choice(grams)
        lhs = pushforward(g2.compose(f), delta)
        rhs = pushforward(g2, pushforward(f, delta))
        assert lhs == rhs


def test_pair_isomorphic_examples():
    z3 = G(3)
    a = PairedGroup(z3, gram(z3, [[Fraction(1, 3)]]))
    b = PairedGroup(z3, gram(z3, [[Fraction(2, 3)]]))
    assert pair_isomorphic(a, a)
    assert not pair_isomorphic(a, b)
    z5 = G(5)
    c = PairedGroup(z5, gram(z5, [[Fraction(1, 5)]]))
    d = PairedGroup(z5, gram(z5, [[Fraction(4, 5)]]))
    assert pair_isomorphic(c, d)  # 2^2 = 4 is a square


def test_pair_isomorphic_is_equivalence():
    rng = random.Random(2)
    pool = []
    for g in (G(2), G(4), G(2, 2), G(8), G(4, 2), G(2, 2, 2), G(16), G(3, 3)):
        for info in pairing_class_table(g, perfect_only=False):
            pool.append(info.class_id.representative)
    sample = [rng.choice(pool) for _ in range(25)]
    for x in sample:
        assert pair_isomorphic(x, x)
    for x in sample:
        for y in sample:
            assert pair_isomorphic(x, y) == pair_isomorphic(y, x)
    for x in sample:
        for y in sample:
            for z in sample:
                if pair_isomorphic(x, y) and pair_isomorphic(y, z):
                    assert pair_isomorphic(x, z)


def test_aut_preserving_examples():
    z2, z3, z5 = G(2), G(3), G(5)
    assert aut_preserving_count(PairedGroup(z2, gram(z2, [[Fraction(1, 2)]]))) == 1
    assert aut_preserving_count(PairedGroup(z3, gram(z3, [[Fraction(1, 3)]]))) == 2
    assert aut_preserving_count(PairedGroup(z5, gram(z5, [[Fraction(1, 5)]]))) == 2


def test_aut_preserving_divides_aut_order():
    from cokpairs.groups import aut_order

    for g in (G(4), G(2, 2), G(9), G(4, 2)):
        auts = aut_order(g)
        for info in pairing_class_table(g, perfect_only=False):
            assert auts % aut_preserving_count(info.class_id.representative) == 0


def test_orbit_stabilizer():
    """(# raw Grams in the class) * |Aut(G, delta)| = |Aut(G)|."""
    from cokpairs.groups import aut_order

    for g in (G(2), G(4), G(2, 2), G(8), G(4, 2), G(2, 2, 2), G(16), G(9), G(3, 3)):
        auts = aut_order(g)
        table = pairing_class_table(g, perfect_only=False)
        for info in table:
            assert info.gram_count * info.aut_preserving == auts
        # classes partition all of Sym_2
        from cokpairs.groups import construction_sizes

        assert sum(info.gram_count for info in table) == construction_sizes(g)[0]


def test_enumerate_pairing_classes_examples():
    def texts(g):
        return [info.class_id.text for info in pairing_class_table(g, True)]

    assert texts(G(2)) == ["Z/2|1/2"]
    assert len(texts(G(3))) == 2
    assert texts(FinAbGroup.trivial()) == ["1|"]


def test_surjection_pushforward_partition():
    """Every surjection pushes the dual Gram to exactly one Gram, so the
    per-Gram counts sum to #Sur(A, B)."""
    cases = [
        (G(4), G(2)),
        (G(2, 2), G(2)),
        (G(4, 2), G(2, 2)),
        (G(8, 2), G(4)),
        (G(9), G(3)),
    ]
    rng = random.Random(4)
    for a, b in cases:
        source_grams = [
            info.class_id.representative.pairing for info in pairing_class_table(a, False)
        ]
        delta = rng.choice(source_grams)
        surs = list(enumerate_surjections(a, b))
        tally = {}
        for f in surs:
            key = pushforward(f, delta).text()
            tally[key] = tally.get(key, 0) + 1
        assert sum(tally.values()) == len(surs)
        # and every pushed Gram is a genuine Gram on b (constructible)
        for key in tally:
            parse_paired_group(f"{b.text()}|{key}")


def test_restrict_to_sylow():
    g = G(2, 3)
    pg = PairedGroup(
        g, gram(g, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    )
    at3 = restrict_to_sylow(pg, {3})
    assert at3.group.text() == "Z/3"
    assert at3.pairing.entry(0, 0).value == Fraction(1, 3)
    assert restrict_to_sylow(pg, {2, 3}) == pg
    at2 = restrict_to_sylow(pg, {2})
    assert at2.group.text() == "Z/2"
    assert at2.pairing.entry(0, 0).value == Fraction(1, 2)


def test_perfectness_matches_enumeration():
    """The determinant criterion agrees with brute-force injectivity of the
    induced map g -> <g, .> for small groups."""
    import itertools

    for g in (G(2), G(4), G(2, 2), G(4, 2), G(3), G(9)):
        for info in pairing_class_table(g, perfect_only=False):
            pg = info.class_id.representative
            orders = g.generator_orders
            injective = True
            seen = set()
            for coords in itertools.product(*[range(o) for o in orders]):
                row = tuple(
                    sum(
                        Fraction(c) * pg.pairing.entry(i, j).value
                        for i, c in enumerate(coords)
                    )
                    % 1
                    for j in range(g.rank)
                )
                if row in seen:
                    injective = False
                    break
                seen.add(row)
            assert pg.perfect == injective, pg.text()
    # entries beyond int64 stay exact: the hyperbolic and the all-1/p Gram
    # on Z/p+Z/p with p = 2^32 + 15, and 1/2^70 against 2/2^70 next to 1/2
    p = 2**32 + 15
    g = G(p, p)
    assert PairedGroup(g, gram(g, [[0, Fraction(1, p)], [Fraction(1, p), 0]])).perfect
    assert not PairedGroup(g, gram(g, [[Fraction(1, p)] * 2] * 2)).perfect
    g = G(2**70, 2)
    assert PairedGroup(g, gram(g, [[Fraction(1, 2**70), 0], [0, Fraction(1, 2)]])).perfect
    assert not PairedGroup(g, gram(g, [[Fraction(2, 2**70), 0], [0, Fraction(1, 2)]])).perfect


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: parse_paired_group("Z/4+Z/2|1/4,1/4,0/1,1/2"), id="asym-parse"),
        pytest.param(
            lambda: gram(G(4, 2), [[Fraction(1, 4), Fraction(1, 4)], [0, Fraction(1, 2)]]),
            id="asym-fractions",
        ),
        pytest.param(lambda: PairingGram(G(4, 2), (((1, 1), (0, 2)),)), id="asym-blocks"),
        pytest.param(
            lambda: gram_from_scaled_blocks(G(4, 2), {2: ((1, 1), (0, 2))}), id="asym-scaled"
        ),
        pytest.param(lambda: parse_paired_group("Z/4+Z/2|1/4,0/1,1/2"), id="count-parse"),
        pytest.param(lambda: gram(G(4, 2), [[Fraction(1, 4), 0], [0]]), id="count-fractions"),
        pytest.param(lambda: PairingGram(G(2, 3), (((1,),),)), id="count-blocks"),
        pytest.param(lambda: parse_paired_group("Z/4+Z/2|1/4,1/4,1/4,1/2"), id="den-parse"),
        pytest.param(
            lambda: gram(G(4, 2), [[Fraction(1, 4)] * 2, [Fraction(1, 4), Fraction(1, 2)]]),
            id="den-fractions",
        ),
        pytest.param(lambda: PairingGram(G(4, 2), (((1, 1), (1, 2)),)), id="den-blocks"),
        pytest.param(
            lambda: gram_from_scaled_blocks(G(4, 2), {2: ((1, 1), (1, 2))}), id="den-scaled"
        ),
        pytest.param(lambda: PairingGram(G(4, 2), (((4, 0), (0, 2)),)), id="range-blocks"),
        pytest.param(lambda: PairingGram(G(4, 2), (((1.0, 0), (0, 2)),)), id="float-blocks"),
        pytest.param(lambda: parse_paired_group("Z/2+Z/3|1/2,1/6,1/6,1/3"), id="cross-parse"),
        pytest.param(
            lambda: gram(G(2, 3), [[Fraction(1, 2), Fraction(1, 6)], [Fraction(1, 6), 0]]),
            id="cross-fractions",
        ),
        pytest.param(
            lambda: gram_from_scaled_blocks(G(4, 2), {2: ((1, 0, 0), (0, 2, 0), (0, 0, 2))}),
            id="shape-3x3-scaled",
        ),
        pytest.param(
            lambda: gram_from_scaled_blocks(G(4, 2), {2: ((1,),)}), id="shape-1x1-scaled"
        ),
        pytest.param(lambda: PairingGram(G(4, 2), (((1,),),)), id="shape-1x1-blocks"),
    ],
)
def test_bad_gram_is_rejected(build):
    """Every way in refuses an asymmetric Gram, a wrong entry count, an
    entry whose denominator exceeds the generator orders, a block entry out
    of range or not an int, a non-zero entry between two primes and a
    block of the wrong shape."""
    with pytest.raises(ValueError):
        build()


def test_trials_build_no_fraction(monkeypatch):
    """Classified trials (ER(40, 1/2) at p = 2) and moment trials (uniform
    mod 9 onto Z/3|1/3) give the same outputs when `pairings` cannot build
    a Fraction: the trial path works on integer blocks only."""
    from cokpairs import pairings
    from cokpairs.ensembles import KIND_ER, KIND_UNIFORM, EnsembleSpec, default_cap
    from cokpairs.experiments import _classify_trial, _moment_trial

    er = EnsembleSpec(kind=KIND_ER, n=40, seed=21, q=0.5)
    unif = EnsembleSpec(kind=KIND_UNIFORM, n=40, seed=22, modulus=9)
    target = parse_paired_group("Z/3|1/3")
    caps = {2: default_cap(2, 64)}

    def outputs():
        return (
            [_classify_trial(er, [2], caps, t) for t in range(30)],
            [_moment_trial(unif, target, t) for t in range(30)],
        )

    def no_fraction(*args):
        raise AssertionError("a Fraction was built on the trial path")

    with monkeypatch.context() as patch:
        patch.setattr(pairings, "Fraction", no_fraction)
        fraction_free = outputs()
    assert fraction_free == outputs()
    classes, moments = fraction_free
    assert len(set(classes)) > 3 and any(c for _, _, c in moments)


def test_paired_group_text_roundtrip():
    for g in (G(2), G(4, 2), G(2, 3)):
        for info in pairing_class_table(g, perfect_only=False):
            pg = info.class_id.representative
            assert parse_paired_group(pg.text()) == pg


def test_class_id_stable():
    z3 = G(3)
    a = canonical_pair_class(PairedGroup(z3, gram(z3, [[Fraction(1, 3)]])))
    b = canonical_pair_class(PairedGroup(z3, gram(z3, [[Fraction(1, 3)]])))
    assert a.text == b.text and a.digest == b.digest
    assert isinstance(a, PairClassId)


def test_aut_preserving_count_large_odd_cyclic():
    """On Z/3^14 the unit Gram (q-2)/q is kept by exactly the automorphisms
    +1 and -1; the orbit products must not wrap around int64."""
    q = 3**14
    z = G(q)
    assert aut_preserving_count(PairedGroup(z, gram(z, [[Fraction(q - 2, q)]]))) == 2


def test_orbit_products_refuse_int64_overflow():
    from orbit_oracle import transform_all

    one = np.ones((1, 1, 1), dtype=np.int64)
    assert transform_all(one, one[0] * 2, 3**19).tolist() == [[[2]]]
    with pytest.raises(BudgetExceeded):
        transform_all(one, one[0], 2**32)


def test_orbit_closure_refuses_int64_overflow():
    """Under a budget that lets them through, a block whose orbit products
    (q^2 = 2^64) or whose codes (2^66 symmetric blocks) would leave int64
    raises BudgetExceeded instead of wrapping."""
    from cokpairs.pairings import _block_class

    with pytest.raises(BudgetExceeded):
        _block_class(2, (32, 1), ((1, 0), (0, 2**31)), budget=2**40)
    with pytest.raises(BudgetExceeded):
        _block_class(2, (64, 1), ((1, 0), (0, 2**63)), budget=2**70)


def test_budget_errors_do_not_depend_on_call_history():
    """A small budget raises, or skips, whether or not a default-budget call
    has already classified the same group in this process."""
    from cokpairs.pairings import _block_class
    from cokpairs.theory import mass_check

    g = G(4, 2)  # |End| = 32
    pg = pairing_class_table(g, True)[0].class_id.representative
    canonical_pair_class(pg)
    aut_preserving_count(pg)
    for call in (
        lambda: pairing_class_table(g, True, budget=10),
        lambda: canonical_pair_class(pg, budget=10),
        lambda: aut_preserving_count(pg, budget=10),
        lambda: _block_class(2, (2, 1), pg.pairing.scaled_block(2), budget=10),
    ):
        with pytest.raises(BudgetExceeded):
            call()
    mass_check((2,), 16)
    assert mass_check((2,), 16, budget=100).skipped == (
        "Z/2+Z/2+Z/2",
        "Z/2+Z/2+Z/2+Z/2",
        "Z/4+Z/2+Z/2",
        "Z/4+Z/4",
    )


def test_aut_matrices_match_enumerated_automorphisms():
    """The automorphisms listed from invertible mod-p residues are distinct
    and, as a set, equal Aut(G) enumerated in pure Python, on every p-group
    of order <= 64 (p = 2, 3) with |End| <= 4096."""
    from orbit_oracle import aut_matrices

    from cokpairs.groups import aut_order, hom_count
    from cokpairs.theory import groups_at_primes

    groups = [
        g
        for p in (2, 3)
        for g in groups_at_primes([p], 64)
        if g.types and hom_count(g, g) <= 4096
    ]
    assert len(groups) == 24
    for g in groups:
        ((p, lam),) = g.types
        auts = [tuple(map(tuple, a)) for a in aut_matrices(p, lam).tolist()]
        assert len(auts) == len(set(auts)) == aut_order(g), g.text()
        assert set(auts) == {phi.matrix() for phi in enumerate_surjections(g, g)}, g.text()


def _orbit_minimum_text(pg, auts):
    """Class text by brute force: the Gram over all automorphisms whose
    scaled block is lexicographically smallest, in pure Python."""
    g = pg.group
    ((p, _),) = g.types
    best = None
    for images in auts:
        rows = [[pg.pairing.evaluate(x, y).value for y in images] for x in images]
        cand = PairingGram.from_fractions(g, rows)
        if best is None or cand.scaled_block(p) < best.scaled_block(p):
            best = cand
    return PairedGroup(g, best).text()


def test_orbit_index_matches_brute_force_orbits():
    """Every symmetric block, perfect or not, gets the brute-force orbit
    minimum as its class, whether the index is filled by classifying the
    blocks in shuffled order or by building the class table first."""
    from cokpairs import pairings

    rng = random.Random(8)
    for g in (G(4, 2), G(2, 2, 2), G(8), G(9), G(3, 3)):
        ((p, lam),) = g.types
        pgs = [
            PairedGroup(g, gram_from_scaled_blocks(g, {p: blk}))
            for blk in pairings._enumerate_blocks(p, lam)
        ]
        auts = [[img.coords for img in phi.images] for phi in enumerate_surjections(g, g)]
        expected = [_orbit_minimum_text(pg, auts) for pg in pgs]

        pairings._orbit_index.clear()
        order = list(range(len(pgs)))
        rng.shuffle(order)
        shuffled = {k: canonical_pair_class(pgs[k]).text for k in order}
        assert [shuffled[k] for k in range(len(pgs))] == expected, g.text()

        pairings._orbit_index.clear()
        pairing_class_table(g, perfect_only=False)
        assert [canonical_pair_class(pg).text for pg in pgs] == expected, g.text()


def test_closure_canonizer_matches_orbit_scan():
    """The closure canonizer gives the orbit scan's (canonical block, orbit
    size, stabilizer size) on every block, perfect or not, of every p-group
    with |End| <= 4096 at p = 2, 3, 5, and on every perfect block of every
    group in the default p = 2 prediction table."""
    from orbit_oracle import block_classes

    from cokpairs.groups import HOM_BUDGET, hom_count
    from cokpairs.pairings import _block_class, _enumerate_blocks, _perfect_mask
    from cokpairs.theory import groups_at_primes

    small = [
        g for p in (2, 3, 5) for g in groups_at_primes([p], 4096)
        if g.types and hom_count(g, g) <= 4096
    ]
    table = [g for g in groups_at_primes([2], 64) if g.types and hom_count(g, g) <= HOM_BUDGET]
    assert (len(small), len(table)) == (49, 26)
    for g, perfect_only in [(g, False) for g in small] + [(g, True) for g in table]:
        ((p, lam),) = g.types
        r = len(lam)
        blocks = _enumerate_blocks(p, lam)
        if perfect_only:
            blocks = blocks[_perfect_mask(p, lam, blocks)]
        flat = list(map(tuple, blocks.reshape(-1, r * r).tolist()))
        expected = block_classes(p, lam, flat)
        for b, block in zip(flat, blocks.tolist()):
            assert _block_class(p, lam, block, HOM_BUDGET) == expected[b], (g.text(), b)


def test_perfect_mask_matches_leibniz_determinant():
    """The elimination agrees with the oracle's Leibniz determinant on every
    residue matrix for r <= 3 at p = 2, 3 and r = 4 at p = 2, and on seeded
    random scaled blocks with r <= 6 at p = 5, 7: entries mod p^lam1, row i
    a multiple of p^(lam1 - lam_i), the residue read from its lowest digit."""
    from orbit_oracle import invertible_mod_p, mixed_radix

    from cokpairs.pairings import _perfect_mask

    for p, r in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
        mats = mixed_radix([p] * r * r, [1] * r * r).reshape(-1, r, r)
        assert np.array_equal(_perfect_mask(p, (1,) * r, mats), invertible_mod_p(mats, p))
    rng = np.random.default_rng(12)
    for p in (5, 7):
        for r in range(1, 7):
            lam = tuple(sorted(rng.integers(1, 3, size=r).tolist(), reverse=True))
            scale = np.array([p ** (lam[0] - e) for e in lam], dtype=np.int64)[:, None]
            residues = rng.integers(0, p, size=(500, r, r))
            high = p * rng.integers(0, p, size=(500, r, r))
            blocks = (residues + high) * scale % p ** lam[0]
            assert np.array_equal(
                _perfect_mask(p, lam, blocks), invertible_mod_p(residues, p)
            ), (p, lam)


def test_skipped_p2_groups_certified_at_raised_budget():
    """Two groups the default table skips, classified at a raised budget:
    (Z/2)^5 has one perfect class of 13,888 Grams, MacWilliams' count of
    nonsingular symmetric 5 x 5 matrices over F_2, and Z/4+(Z/2)^4 has
    three.  Each gram_count times stabilizer is |Aut(G)|."""
    from cokpairs.groups import aut_order
    from cokpairs.theory import mass_check

    macwilliams = 2**15 * Fraction(1, 2) * Fraction(7, 8) * Fraction(31, 32)
    for g, counts, stabs in (
        (G(2, 2, 2, 2, 2), [macwilliams], [720]),
        (G(4, 2, 2, 2, 2), [448, 13440, 448], [23040, 768, 23040]),
    ):
        table = pairing_class_table(g, perfect_only=True, budget=10**12)
        assert [info.gram_count for info in table] == counts, g.text()
        assert [info.aut_preserving for info in table] == stabs, g.text()
        assert all(info.gram_count * info.aut_preserving == aut_order(g) for info in table)
    assert mass_check((2,), 64).skipped == (
        "Z/2+Z/2+Z/2+Z/2+Z/2",
        "Z/2+Z/2+Z/2+Z/2+Z/2+Z/2",
        "Z/4+Z/2+Z/2+Z/2+Z/2",
    )


def test_odd_prime_perfect_class_counts_follow_wall():
    """At odd p a perfect pairing is fixed by the rank and the discriminant
    square class of each level (Wall's normal form), so a type with k
    distinct parts has 2^k perfect classes.  Checked on the 22 types at
    p = 3, 5, 7 with 4096 < |End| <= 2 * 10^5, beyond the orbit scan.

    On (Z/p)^m the stabilizer of a perfect class is an orthogonal group
    over F_q, q = p: |O(2k+1, q)| = 2 q^(k^2) prod_{i<=k} (q^(2i) - 1) for
    both classes at m = 2k+1, and |O^+-(2k, q)| = 2 q^(k(k-1)) (q^k -+ 1)
    prod_{i<k} (q^(2i) - 1) for the two classes at m = 2k.  Checked for
    p = 3, 5, 7 with m <= 3 and for (Z/3)^4, at a raised budget."""
    from math import prod

    from cokpairs.groups import hom_count
    from cokpairs.theory import groups_at_primes

    groups = [
        g for p in (3, 5, 7) for g in groups_at_primes([p], 117649)
        if g.types and 4096 < hom_count(g, g) <= 2 * 10**5
    ]
    assert len(groups) == 22
    for g in groups:
        ((_, lam),) = g.types
        assert len(pairing_class_table(g, perfect_only=True)) == 2 ** len(set(lam)), g.text()

    def orthogonal(m, q):
        k, odd = divmod(m, 2)
        if odd:
            return [2 * q ** (k * k) * prod(q ** (2 * i) - 1 for i in range(1, k + 1))] * 2
        rest = 2 * q ** (k * (k - 1)) * prod(q ** (2 * i) - 1 for i in range(1, k))
        return [rest * (q**k - 1), rest * (q**k + 1)]

    for p, m in [(p, m) for p in (3, 5, 7) for m in (1, 2, 3)] + [(3, 4)]:
        table = pairing_class_table(G(*[p] * m), perfect_only=True, budget=10**8)
        assert sorted(info.aut_preserving for info in table) == orthogonal(m, p), (p, m)


def test_cyclic_closed_form_matches_orbit_scan():
    """Rank one needs no orbit: the closed form agrees with the orbit scan
    on every c mod p^e for p^e up to 2^9, 3^6, 5^4, 7^3, 11^2 and 13^2."""
    from orbit_oracle import block_classes

    from cokpairs.pairings import _block_class

    for p, top in ((2, 9), (3, 6), (5, 4), (7, 3), (11, 2), (13, 2)):
        for e in range(1, top + 1):
            blocks = [(c,) for c in range(p**e)]
            expected = block_classes(p, (e,), blocks)
            for b in blocks:
                assert _block_class(p, (e,), (b,), p ** (e + 1)) == expected[b], (p, e, b)


def test_generators_close_to_aut():
    """The generating set generates: the closure of I under right
    multiplication by the generators is the list of all automorphism
    matrices, and has |Aut| elements by the closed form, on the 52 p-group
    types with |Aut| <= 50,000 and order <= 128, 243, 125, 49 at p = 2, 3,
    5, 7."""
    from orbit_oracle import aut_matrices

    from cokpairs.groups import aut_order_of_type
    from cokpairs.pairings import _generators
    from cokpairs.theory import groups_at_primes

    types = [
        g.types[0]
        for p, bound in ((2, 128), (3, 243), (5, 125), (7, 49))
        for g in groups_at_primes([p], bound)
        if g.types and aut_order_of_type(*g.types[0]) <= 50_000
    ]
    assert len(types) == 52
    for p, lam in types:
        r = len(lam)
        mods = np.array([p**a for a in lam], dtype=np.int64)[:, None]
        radices = [int(m) for m in mods[:, 0] for _ in range(r)]

        def codes(mats):
            return np.ravel_multi_index(tuple(mats.reshape(len(mats), r * r).T), radices)

        xs = []
        for i, j, t in _generators(p, lam):
            x = np.eye(r, dtype=np.int64)
            x[i, j] += t
            xs.append(x)
        frontier = np.eye(r, dtype=np.int64)[None]
        closure = codes(frontier)
        while len(frontier):
            images = np.concatenate([frontier[:0]] + [frontier @ x % mods for x in xs])
            found, first = np.unique(codes(images), return_index=True)
            new = ~np.isin(found, closure)
            frontier = images[first[new]]
            closure = np.union1d(closure, found[new])
        auts = np.sort(codes(aut_matrices(p, lam) % mods))
        assert len(closure) == aut_order_of_type(p, lam), (p, lam)
        assert np.array_equal(closure, auts), (p, lam)


def test_aut_preserving_count_large_cyclic_is_small():
    """Z/3^14 is classified in closed form: no automorphism list (about
    550 MB traced when all 3,188,646 were materialized)."""
    import tracemalloc

    q = 3**14
    z = G(q)
    tracemalloc.start()
    try:
        count = aut_preserving_count(PairedGroup(z, gram(z, [[Fraction(q - 2, q)]])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2
    assert peak < 50 * 2**20, peak


def test_elementary_abelian_large_prime_class():
    """(Z/53)^2 is classified by orbit closure without listing its 7.3 M
    automorphisms (828 MB RSS when they were listed)."""
    import tracemalloc

    from cokpairs import pairings

    z = G(53, 53)
    pg = PairedGroup(z, gram(z, [[0, Fraction(1, 53)], [Fraction(1, 53), 0]]))
    pairings._orbit_index.pop((53, (1, 1)), None)
    tracemalloc.start()
    try:
        text = canonical_pair_class(pg).text
        count = aut_preserving_count(pg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "Z/53+Z/53|0/1,1/53,1/53,0/1"
    assert count == 104
    assert peak < 250 * 2**20, peak
