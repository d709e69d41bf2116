"""Constants, predictions, mass accounting, and the lemma checkers."""

import dataclasses
import itertools
import random
from decimal import Decimal
from fractions import Fraction

import census_oracle
import pytest
from lift_oracle import standard_lift

from cokpairs import rng
from cokpairs.errors import BudgetExceeded, NotALift
from cokpairs.groups import FinAbGroup
from cokpairs.modmaps import ModuleMap
from cokpairs.moments import random_lift
from cokpairs.pairings import PairedGroup, PairingGram
from cokpairs.theory import (
    CensusResult,
    cl_constant,
    cl_constant_exact,
    clp_probability,
    code_distance,
    coefficient_table,
    depth,
    groups_at_primes,
    is_robust,
    lift_code_check,
    mass_check,
    special_pair_census,
    subgroup_index_ell,
)


def G(*orders):
    return FinAbGroup.from_orders(orders)


def gram(g, rows):
    return PairingGram.from_fractions(g, rows)


def test_cl_constant_examples():
    v, tail = cl_constant(2, 20)
    assert str(v).startswith("0.41942")
    assert tail < Decimal("1e-12")
    v, _ = cl_constant(1009, 5)
    assert v > Decimal("0.999")
    v, tail = cl_constant(2, 1)
    assert v == Decimal("0.5")
    assert tail <= Decimal("0.25")


def test_cl_constant_two_evaluation_orders():
    for p in (2, 3, 5):
        a, _ = cl_constant(p, 40)
        b, _ = cl_constant(p, 40, method="decimal_reverse")
        assert a == b  # 12 significant digits, both paths


def test_cl_tail_bound_is_rigorous():
    """Extending the truncation moves the value by less than the bound."""
    for p in (2, 3):
        for k in (1, 3, 8):
            v_k = cl_constant_exact(p, k)
            v_more = cl_constant_exact(p, k + 10)
            bound = Fraction(2, p ** (2 * k + 1))
            assert abs(v_more - v_k) <= bound * v_k
            assert abs(v_more - v_k) <= bound


def test_constants_reject_non_primes():
    for p in (0, 1, 4, 6):
        with pytest.raises(ValueError):
            cl_constant_exact(p, 5)
        for method in ("exact", "decimal_reverse"):
            with pytest.raises(ValueError):
                cl_constant(p, 5, method=method)


def test_clp_probability_examples():
    triv = PairedGroup(FinAbGroup.trivial(), PairingGram(FinAbGroup.trivial(), ()))
    pred = clp_probability(triv, [2])
    assert str(pred.probability).startswith("0.41942")
    z2 = G(2)
    pred = clp_probability(PairedGroup(z2, gram(z2, [[Fraction(1, 2)]])), [2])
    assert str(pred.probability).startswith("0.20971")
    z3 = G(3)
    pred = clp_probability(PairedGroup(z3, gram(z3, [[Fraction(1, 3)]])), [3])
    expected = cl_constant_exact(3, 40) / 6
    assert abs(Fraction(str(pred.probability)) - expected) < Fraction(1, 10**10)


def test_clp_degenerate_is_zero():
    z2 = G(2)
    degenerate = PairedGroup(z2, gram(z2, [[0]]))
    assert not degenerate.perfect
    assert clp_probability(degenerate, [2]).probability == 0


def test_mass_check_small_bounds():
    m1 = mass_check([2], 1)
    assert abs(m1.value - 0.41942244179510757) < 1e-12
    m2 = mass_check([2], 2)
    assert abs(m2.value - 1.5 * m1.value) < 1e-12


def test_mass_check_monotone():
    values = [mass_check([2], b).value for b in (1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_groups_at_primes():
    gs = groups_at_primes([2], 8)
    assert [g.text() for g in gs] == [
        "1",
        "Z/2",
        "Z/2+Z/2",
        "Z/4",
        "Z/2+Z/2+Z/2",
        "Z/4+Z/2",
        "Z/8",
    ]
    gs = groups_at_primes([2, 3], 6)
    assert {g.text() for g in gs} == {"1", "Z/2", "Z/3", "Z/4", "Z/2+Z/2", "Z/2+Z/3"}


def test_code_distance_examples():
    z2 = G(2)
    zero = ModuleMap.from_matrix(4, z2, [(0,), (0,), (0,)])
    assert code_distance(zero) == 0
    ones = ModuleMap.from_matrix(4, z2, [(1,), (1,), (1,)])
    assert code_distance(ones) == 3
    partial = ModuleMap.from_matrix(4, z2, [(1,), (0,), (0,)])
    assert code_distance(partial) == 1


def test_depth_examples():
    z2 = G(2)
    ones = ModuleMap.from_matrix(4, z2, [(1,), (1,), (1,)])
    assert depth(ones, Fraction(3, 10)) == 1
    partial = ModuleMap.from_matrix(4, z2, [(1,), (0,), (0,)])
    assert depth(partial, Fraction(2, 5)) == 2
    # any surjection with delta tiny has no admissible deleted set
    assert depth(ones, Fraction(1, 100)) == 1
    with pytest.raises(ValueError):
        depth(ones, Fraction(3, 2))


def test_depth_one_iff_code_exhaustive():
    """depth(F) = 1 iff F is a code of distance delta*n, for every map
    (Z/4)^3 -> Z/2."""
    import itertools

    z2 = G(2)
    delta = Fraction(2, 5)
    for images in itertools.product([(0,), (1,)], repeat=3):
        f = ModuleMap.from_matrix(4, z2, list(images))
        lhs = depth(f, delta) == 1
        rhs = code_distance(f) >= delta * 3
        assert lhs == rhs, images


def test_ell():
    assert subgroup_index_ell(1) == 0
    assert subgroup_index_ell(2) == 1
    assert subgroup_index_ell(12) == 3


def test_lift_code_check_examples():
    z2 = G(2)
    ones = ModuleMap.from_matrix(4, z2, [(1,), (1,), (1,)])
    assert lift_code_check(ones, trials=20, seed=1)
    partial = ModuleMap.from_matrix(4, z2, [(1,), (0,), (0,)])
    assert lift_code_check(partial, trials=10, seed=2)


def test_lift_code_check_random_codes():
    """Random surjections onto Z/2 + Z/2 with n = 5 keep their distance."""
    import random

    rng = random.Random(6)
    g22 = G(2, 2)
    found = 0
    while found < 20:
        cols = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(5)]
        f = ModuleMap.from_matrix(4, g22, cols)
        if code_distance(f) < 1:
            continue
        assert lift_code_check(f, trials=5, seed=found)
        found += 1


def census_grid():
    for p in (2, 3):
        for lam in ((1,), (2,), (1, 1)):
            for n in (2, 3):
                if len(lam) <= n:
                    yield p, lam, n


# (p, lam, n) -> (special pairs = |Sym^2 H| / |G|, pairing checks) for the
# grid that `cokpairs verify-lemmas` runs
CENSUS_PINNED = {
    (2, (1,), 2): (2, 4),
    (2, (1,), 3): (2, 4),
    (2, (2,), 2): (4, 16),
    (2, (2,), 3): (4, 16),
    (2, (1, 1), 2): (16, 128),
    (2, (1, 1), 3): (16, 128),
    (3, (1,), 2): (3, 9),
    (3, (1,), 3): (3, 9),
    (3, (2,), 2): (9, 81),
    (3, (2,), 3): (9, 81),
    (3, (1, 1), 2): (81, 2187),
    (3, (1, 1), 3): (81, 2187),
}


def surjective_module_map(g, n):
    r = g.rank
    cols = [tuple(1 if i == j else 0 for i in range(r)) for j in range(n)]
    return ModuleMap.from_matrix(g.exponent**2, g, cols)


def test_special_pair_census_grid():
    for p, lam, n in census_grid():
        g = FinAbGroup.from_prime_types({p: lam})
        f = surjective_module_map(g, n)
        res = special_pair_census(f, seed=p * 10 + n)
        assert res.kernel_size == res.predicted, (p, lam, n)
        assert res.d_of_a_failures == 0
        assert res.pairing_checks == res.kernel_size * (
            res.pairing_checks // res.kernel_size
        )
        special, checks = CENSUS_PINNED[(p, lam, n)]
        assert res == CensusResult(special, special, checks, 0, 1), (p, lam, n)


def test_census_examples():
    # |Sym^2 H| / |G| for G = Z/2 (H = Z/4) is 2; for G = Z/3 (H = Z/9) is 3
    z2 = G(2)
    res = special_pair_census(surjective_module_map(z2, 2), seed=1)
    assert res.kernel_size == 2
    z3 = G(3)
    res = special_pair_census(surjective_module_map(z3, 2), seed=1)
    assert res.kernel_size == 3


def test_census_rejects_nonsurjective_lift():
    z2 = G(2)
    f = ModuleMap.from_matrix(4, z2, [(0,), (0,)])
    with pytest.raises(ValueError):
        special_pair_census(f, seed=0)


def test_census_rejects_a_lift_of_another_map():
    # at the parent the first lift gave the census of (2, 1) and the second
    # ended in an IndexError
    f = ModuleMap.from_matrix(9, G(3), [(1,), (0,)])
    for columns in ([(2,), (4,)], [(1,), (3,), (1,)]):
        with pytest.raises(NotALift):
            special_pair_census(f, lift=ModuleMap.from_matrix(9, G(9), columns))


def test_census_budget():
    g = G(4, 4)
    f = surjective_module_map(g, 3)
    with pytest.raises(BudgetExceeded):
        special_pair_census(f, space_budget=10)


def test_coefficients_refuse_residues_that_overflow_int64():
    f = surjective_module_map(G(2**32), 1)
    with pytest.raises(BudgetExceeded, match="int64"):
        special_pair_census(f, space_budget=2**200)
    with pytest.raises(BudgetExceeded, match="int64"):
        coefficient_table(standard_lift(f), {}, {})


def test_census_matches_the_scalar_oracle():
    """The full CensusResult equals the plain enumeration's, with random
    lifts, on the grid, on Z/4+Z/2 (the one type here whose parts differ)
    and on 24 random surjective maps (p = 2, 3, 5 and Z/2+Z/3).  The scalar
    side skips the minimum on Z/4+Z/2 and on the grid's p = 3, n = 3 with
    lam = (2,) and (1, 1), where collecting it costs about 3.9 s; the grid
    test pins the grid's minima."""
    rand = random.Random(2021)
    maps = [surjective_module_map(FinAbGroup.from_prime_types({p: lam}), n) for p, lam, n in census_grid()]
    maps.append(surjective_module_map(G(4, 2), 2))
    slow = {maps[9], maps[11], maps[12]}
    targets = [G(2), G(4), G(2, 2), G(3), G(9), G(5), G(2, 3)]
    while len(maps) < 37:
        g = rand.choice(targets)
        n = rand.randint(g.rank, 2 if g.order == 9 else 3)
        f = ModuleMap.from_matrix(
            g.exponent**2, g, [[rand.randrange(o) for o in g.generator_orders] for _ in range(n)]
        )
        if f.surjective_avoiding():
            maps.append(f)
    for f in maps:
        lift = random_lift(f, rand.getrandbits(64))
        res = special_pair_census(f, lift=lift)
        want = census_oracle.special_pair_census(f, lift, collect_min_nonzero=f not in slow)
        if f in slow:
            res = dataclasses.replace(res, min_nonzero_nonspecial=None)
        assert res == want, (f.target.text(), f.columns, lift.columns)


def test_nonspecial_pairs_have_many_nonzero_coefficients():
    """With a full-distance lift, every non-special pair has at least
    ceil(distance/2) nonzero coefficients."""
    import math

    for p, lam, n in census_grid():
        g = FinAbGroup.from_prime_types({p: lam})
        f = surjective_module_map(g, n)
        lift = standard_lift(f)
        w = code_distance(lift)
        res = special_pair_census(f, lift=lift)
        special, checks = CENSUS_PINNED[(p, lam, n)]
        assert res == CensusResult(special, special, checks, 0, 1), (p, lam, n)
        if res.min_nonzero_nonspecial is not None:
            assert res.min_nonzero_nonspecial >= max(1, math.ceil(w / 2)), (p, lam, n)


def test_coefficient_table_zero_pair_vanishes():
    z2 = G(2)
    f = surjective_module_map(z2, 2)
    lift = standard_lift(f)
    table = coefficient_table(lift, {2: [[0], [0]]}, {2: [[0]]})
    assert table.nonzero_cells() == 0


def test_coefficient_table_nonzero_pairs_pinned():
    """E_ij for explicit nonzero (C, D) on standard and random lifts."""
    cases = [
        (G(2), 2, None, {2: [[1], [0]]}, {2: [[1]]}, [3, 0, 0]),
        (G(3), 2, None, {3: [[2], [1]]}, {3: [[5]]}, [2, 3, 0]),
        (G(2, 2), 3, None, {2: [[1, 0], [0, 1], [1, 1]]}, {2: [[1, 2], [0, 3]]}, [3, 2, 2, 1, 2, 0]),
        (G(3), 3, 1, {3: [[2], [1], [1]]}, {3: [[4]]}, [4, 6, 3, 0, 0, 0]),
        (G(4), 2, 1, {2: [[3], [1]]}, {2: [[7]]}, [11, 4, 0]),
    ]
    for g, n, lift_seed, c_digits, d_matrices, expected in cases:
        f = surjective_module_map(g, n)
        lift = standard_lift(f) if lift_seed is None else random_lift(f, rng.stream(lift_seed).u64())
        table = coefficient_table(lift, c_digits, d_matrices)
        ((p, _),) = g.types
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        assert [table.entries[cell][p] for cell in cells] == expected, g.text()
        assert table.nonzero_cells() == sum(1 for e in expected if e)


def test_robust_weak_classifier():
    """(0, D) is weak for any lift; a C separating the kernel is robust."""
    z2 = G(2)
    f = surjective_module_map(z2, 3)
    lift = standard_lift(f)
    gamma = Fraction(1, 2)
    czero = ModuleMap.from_matrix(lift.modulus, z2, [(0,), (0,), (0,)])
    assert not is_robust(lift, czero, gamma)
    # a C injective on ker(lift) restricted anywhere: images all distinct
    csep = ModuleMap.from_matrix(lift.modulus, z2, [(0,), (1,), (1,)])
    assert _robust_by_closure(lift, csep, gamma) is True
    assert is_robust(lift, csep, gamma) is True


def _robust_by_closure(lift, c_map, gamma):
    """is_robust by brute force: each restriction's image is closed under
    addition, in the lift's target alone and in the product of the two
    targets with the lift's coordinates first and C's after them."""
    orders = lift.target.generator_orders + c_map.target.generator_orders

    def image_order(gens):
        k = len(gens[0]) if gens else 0
        seen = {(0,) * k}
        frontier = list(seen)
        while frontier:
            fresh = []
            for x in frontier:
                for g in gens:
                    y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
                    if y not in seen:
                        seen.add(y)
                        fresh.append(y)
            frontier = fresh
        return len(seen)

    n = lift.n
    for size in range(n + 1):
        if size >= gamma * n:
            break
        for sigma in itertools.combinations(range(n), size):
            keep = [j for j in range(n) if j not in sigma]
            pairs = [lift.columns[j] + c_map.columns[j] for j in keep]
            if image_order(pairs) <= image_order([lift.columns[j] for j in keep]):
                return False
    return True


def test_is_robust_matches_a_closure_in_the_product_group():
    """On targets whose generators direct_sum reorders: two primes (lifts
    onto Z/4+Z/9 and Z/16+Z/9, C into Z/2+Z/3) and one prime (a map into Z/4
    with C into Z/8, which direct_sum puts first)."""
    rand = random.Random(19)
    cases = [(G(2, 3), G(2, 3), True), (G(4, 3), G(2, 3), True), (G(4), G(8), False)]
    disagree = robust = 0
    for g, c_target, lifted in cases:
        for _ in range(70):
            n = rand.randint(2, 3)
            modulus = g.exponent**2 if lifted else 8
            f = ModuleMap.from_matrix(
                modulus, g, [[rand.randrange(o) for o in g.generator_orders] for _ in range(n)]
            )
            lift = random_lift(f, rand.getrandbits(64)) if lifted else f
            c_map = ModuleMap.from_matrix(
                modulus, c_target, [[rand.randrange(o) for o in c_target.generator_orders] for _ in range(n)]
            )
            gamma = Fraction(rand.randint(1, 3), 3)
            want = _robust_by_closure(lift, c_map, gamma)
            disagree += is_robust(lift, c_map, gamma) != want
            robust += want
    assert disagree == 0
    assert 0 < robust < 210
