"""Sur* counting by independent routes, and moment estimation."""

import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest
from lift_oracle import standard_lift

from cokpairs.ensembles import EnsembleSpec, KIND_ER, KIND_UNIFORM
from cokpairs.errors import NotALift, NotSymmetric
from cokpairs.experiments import ExperimentConfig, run_moment
from cokpairs.groups import HOM_BUDGET, FinAbGroup, enumerate_surjections
from cokpairs.intmat import IntMatrix
from cokpairs.modmaps import ModuleMap
from cokpairs.moments import (
    _lift_plan,
    count_sur_star_pushforward,
    dual_gram_numerators,
    lift_codomain,
    lifted_equation_check,
    lifted_pairing_key,
    random_lift,
    sur_star_congruence_table,
    tensor_quotient_with_dual_pairing,
)
from cokpairs.pairings import (
    PairedGroup,
    PairingGram,
    gram_from_scaled_blocks,
    pairing_class_table,
    torsion_dual_pairing,
)


def G(*orders):
    return FinAbGroup.from_orders(orders)


def gram(g, rows):
    return PairingGram.from_fractions(g, rows)


def trivial_target():
    t = FinAbGroup.trivial()
    return (t, PairingGram(t, ()))


def count_sur_star_congruence(m, target_group, target_dual_gram, budget=HOM_BUDGET):
    """Count surjections (Z/a)^n -> G satisfying the kernel and pairing
    congruences against the matrix residues (a = exponent(G)^2).

    This is the independent matrix-side oracle for
    count_sur_star_pushforward composed with the cokernel pairing."""
    tables = sur_star_congruence_table(m, target_group, budget)
    total = 1
    for p, lam in target_group.types:
        nums = dual_gram_numerators(target_group, target_dual_gram, p)
        key = tuple(nums[(i, j)] for i in range(len(lam)) for j in range(i, len(lam)))
        total *= tables[p].get(key, 0)
    return total


def all_dual_grams(g):
    from cokpairs.pairings import _enumerate_blocks

    per_prime = [list(_enumerate_blocks(p, lam)) for p, lam in g.types]
    out = []
    for combo in itertools.product(*per_prime):
        blocks = {p: blk for (p, _), blk in zip(g.types, combo)}
        out.append(gram_from_scaled_blocks(g, blocks))
    return out


def test_pushforward_count_examples():
    z3 = G(3)
    third = gram(z3, [[Fraction(1, 3)]])
    two_thirds = gram(z3, [[Fraction(2, 3)]])
    assert count_sur_star_pushforward((z3, third), (z3, third)) == 2
    assert count_sur_star_pushforward((z3, third), (z3, two_thirds)) == 0
    assert count_sur_star_pushforward((z3, third), trivial_target()) == 1


def test_congruence_count_examples():
    m = IntMatrix.from_rows([[3]])
    z3 = G(3)
    assert count_sur_star_congruence(m, z3, gram(z3, [[Fraction(1, 3)]])) == 2
    assert count_sur_star_congruence(m, z3, gram(z3, [[Fraction(2, 3)]])) == 0
    assert count_sur_star_congruence(m, *trivial_target()) == 1


def test_lifted_check_examples():
    m = IntMatrix.from_rows([[3]])
    z3 = G(3)
    f = ModuleMap.from_matrix(9, z3, [(1,)])
    lift = standard_lift(f)
    assert lifted_equation_check(m, f, lift, gram(z3, [[Fraction(1, 3)]]))
    assert not lifted_equation_check(m, f, lift, gram(z3, [[Fraction(2, 3)]]))
    zero = ModuleMap.from_matrix(9, z3, [(0,)])
    assert lifted_equation_check(m, zero, standard_lift(zero), gram(z3, [[0]]))
    bad_lift = ModuleMap.from_matrix(9, lift_codomain(z3), [(2,)])
    with pytest.raises(NotALift):
        lifted_equation_check(m, f, bad_lift, gram(z3, [[Fraction(1, 3)]]))


def random_symmetric_mod(rng, n, a):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(0, a - 1)
    return IntMatrix.from_rows(rows)


def test_three_routes_agree():
    """Congruence counts, pushforward counts, and the lifted equations all
    agree, F by F where applicable (scaled-down twin of the acceptance run)."""
    rng = random.Random(3)
    cases = [(G(2), 2), (G(2, 2), 2), (G(3), 3), (G(4), 2)]
    for trial in range(25):
        n = rng.randint(1, 3)
        for target_group, p in cases:
            b = target_group.exponent
            a = b * b
            m = random_symmetric_mod(rng, n, a)
            table = sur_star_congruence_table(m, target_group)
            src = tensor_quotient_with_dual_pairing(m, b)
            lam = target_group.partition(p)
            r = len(lam)
            pairs = [(i, j) for i in range(r) for j in range(i, r)]
            for dual in all_dual_grams(target_group):
                nums = dual_gram_numerators(target_group, dual, p)
                key = tuple(nums[ij] for ij in pairs)
                c_cong = table[p].get(key, 0)
                c_push = count_sur_star_pushforward(src, (target_group, dual))
                assert c_cong == c_push, (m.data, target_group.text(), dual.text())
            # lifted route, F by F: the lifted key matches the congruences
            _assert_lifted_agrees(m, target_group, p, seed=trial)


def _assert_lifted_agrees(m, target_group, p, seed):
    """For every coefficient matrix F, the lifted equations hold exactly when
    the plain congruences do, with the same forced pairing numerators."""
    n = m.rows
    lam = target_group.partition(p)
    r = len(lam)
    mod = p ** (2 * lam[0])
    mm = [[x % mod for x in row] for row in m.data]
    count_checked = 0
    for cols in itertools.product(
        *[itertools.product(*[range(p ** lam[i]) for i in range(r)]) for _ in range(n)]
    ):
        f = ModuleMap.from_matrix(target_group.exponent ** 2, target_group, list(cols))
        fmat = f.block(p)
        # plain congruences
        ok = True
        fm = []
        for i in range(r):
            pi = p ** lam[i]
            row = [sum(fmat[i][k] * mm[k][l] for k in range(n)) for l in range(n)]
            if any(x % pi for x in row):
                ok = False
                break
            fm.append(row)
        plain_key = None
        if ok:
            plain_key = {}
            for i in range(r):
                for j in range(i, r):
                    z = sum(fm[i][l] * fmat[j][l] for l in range(n)) % (
                        p ** (lam[i] + lam[j])
                    )
                    plain_key[(i, j)] = z // p ** lam[i]
        lifted = lifted_pairing_key(m, f, random_lift(f, seed + count_checked))
        if plain_key is None:
            assert lifted is None
        else:
            assert lifted == {p: plain_key}
        count_checked += 1


def test_lift_independence():
    """Ten random lifts of the same map give identical lifted verdicts."""
    rng = random.Random(11)
    z4 = G(4)
    for trial in range(20):
        n = rng.randint(1, 3)
        m = random_symmetric_mod(rng, n, 16)
        cols = [(rng.randint(0, 3),) for _ in range(n)]
        f = ModuleMap.from_matrix(16, z4, cols)
        keys = {
            str(lifted_pairing_key(m, f, random_lift(f, rng.randint(0, 10**9))))
            for _ in range(10)
        }
        assert len(keys) == 1


def test_lean_lift_matches_reference():
    """random_lift and lifted_pairing_key against the scalar reference in
    lift_oracle, on every map (Z/a)^n -> G with n <= 3 (n <= 2 for the
    largest target): the same lift for the same seed, the same key (and key
    text), NotALift on the same bad lifts, and a lift equal to the map
    rebuilt from its columns.  Every target's lift plan is built afresh."""
    import lift_oracle

    rng = random.Random(14)
    targets = [G(2), G(2, 2), G(2, 2, 2), G(3), G(3, 3), G(4, 2), G(9), G(2, 3), G(4, 2, 3)]
    _lift_plan.cache_clear()
    seen_none = seen_key = 0
    for g in targets:
        a = g.exponent**2
        big_orders = lift_codomain(g).generator_orders
        for n in range(1, 3 if g.order > 12 else 4):
            m0 = [[rng.randrange(-3 * a, 3 * a) for _ in range(n)] for _ in range(n)]
            sym = [[m0[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            # the second matrix is 0 mod exp(G), so every map meets the kernel equations
            for m in (IntMatrix.from_rows(sym), IntMatrix.from_rows([[g.exponent * x for x in r] for r in sym])):
                maps = itertools.product(itertools.product(*[range(o) for o in g.generator_orders]), repeat=n)
                for cols in maps:
                    f = ModuleMap.from_matrix(a, g, list(cols))
                    seed = rng.getrandbits(64)
                    lift, ref = random_lift(f, seed), lift_oracle.random_lift(f, seed)
                    assert lift.columns == ref.columns
                    checked = ModuleMap.from_matrix(lift.modulus, lift.target, lift.columns)
                    assert lift == checked == ref and hash(lift) == hash(checked)
                    key = lifted_pairing_key(m, f, lift)
                    assert key == lift_oracle.lifted_pairing_key(m, f, ref)
                    assert str(key) == str(lift_oracle.lifted_pairing_key(m, f, ref))
                    seen_none += key is None
                    seen_key += key is not None
                    j, i = rng.randrange(n), rng.randrange(g.rank)
                    bad_cols = [list(c) for c in ref.columns]
                    bad_cols[j][i] = (bad_cols[j][i] + 1) % big_orders[i]
                    bad = ModuleMap.from_matrix(a, ref.target, bad_cols)
                    for route in (lifted_pairing_key, lift_oracle.lifted_pairing_key):
                        with pytest.raises(NotALift):
                            route(m, f, bad)
                        with pytest.raises(NotALift):
                            route(m, f, f)
    assert seen_none and seen_key
    info = _lift_plan.cache_info()
    assert info.misses == info.currsize == len(targets) and info.hits
    # row 0 of the lifted f.m passes, with its quadratic congruences, and row 1 fails
    g, m = G(2, 2), IntMatrix.from_rows([[2, 0], [0, 1]])
    f = ModuleMap.from_matrix(4, g, [(1, 0), (0, 1)])
    for seed in range(20):
        lift = random_lift(f, seed)
        fm = [[sum(map(operator.mul, row, m_row)) % 4 for m_row in m.data] for row in zip(*lift.columns)]
        assert not any(x % 2 for x in fm[0]) and any(x % 2 for x in fm[1])
        assert lifted_pairing_key(m, f, lift) is None
        assert lift_oracle.lifted_pairing_key(m, f, lift) is None


def test_cached_symmetry_is_invisible():
    """Once is_symmetric() has run, a matrix keeps its ==, hash, repr and
    pickle, and the cached flag still refuses a matrix that is not symmetric."""
    for rows in ([[1, 2], [2, 5]], [[1, 2], [3, 5]], [[1, 2, 3], [4, 5, 6]]):
        m, fresh = IntMatrix.from_rows(rows), IntMatrix.from_rows(rows)
        before = (repr(m), hash(m), pickle.dumps(m))
        flag = m.is_symmetric()
        assert (repr(m), hash(m), pickle.dumps(m)) == before
        assert m == fresh and pickle.loads(pickle.dumps(m)) == fresh
        assert pickle.loads(pickle.dumps(m)).is_symmetric() == flag == (rows == [[1, 2], [2, 5]])
    z2 = G(2)
    f = ModuleMap.from_matrix(4, z2, [(1,), (1,)])
    asym, wide = IntMatrix.from_rows([[0, 2], [0, 0]]), IntMatrix.from_rows([[0, 2, 0], [2, 0, 0]])
    for m in (asym, wide):
        assert not m.is_symmetric()
        with pytest.raises(NotSymmetric):
            sur_star_congruence_table(m, z2)
    with pytest.raises(NotSymmetric):
        lifted_pairing_key(asym, f, standard_lift(f))
    # a non-square matrix fails the shape check, which comes first
    with pytest.raises(ValueError, match="the map has 2 basis vectors"):
        lifted_pairing_key(wide, f, standard_lift(f))


def test_sur_star_routes_build_no_group_element(monkeypatch):
    """Moment trials (uniform mod 9 onto Z/3|1/3), the three Sur* routes on
    one small matrix, and the subgroup closures behind
    ModuleMap.image_index_avoiding, theory.depth and theory.is_robust (lifts
    onto Z/4+Z/9, C into Z/2+Z/3) give the same outputs when no GroupElement
    can be built: every route reads its maps as integer columns."""
    from cokpairs import groups
    from cokpairs.experiments import _moment_trial
    from cokpairs.pairings import parse_paired_group, pushforward
    from cokpairs.theory import depth, is_robust

    unif = EnsembleSpec(kind=KIND_UNIFORM, n=40, seed=22, modulus=9)
    target = parse_paired_group("Z/3|1/3")
    m, g = IntMatrix.from_rows([[0, 2, 0], [2, 0, 0], [0, 0, 2]]), G(2, 2)
    src_group, src_gram = tensor_quotient_with_dual_pairing(m, g.exponent)

    def outputs():
        columns = itertools.product(itertools.product(range(2), range(2)), repeat=m.rows)
        maps = [ModuleMap.from_matrix(4, g, cols) for cols in columns]
        h = G(2, 3)
        h_columns = itertools.product([(0, 0), (1, 0), (0, 1), (1, 2)], repeat=3)
        h_maps = [ModuleMap.from_matrix(36, h, cols) for cols in h_columns]
        return (
            [_moment_trial(unif, target, t) for t in range(20)],
            sur_star_congruence_table(m, g),
            [lifted_pairing_key(m, f, random_lift(f, seed)) for seed, f in enumerate(maps)],
            [pushforward(f, src_gram) for f in enumerate_surjections(src_group, g)],
            [f.image_index_avoiding(frozenset(range(k))) for f in maps for k in range(4)],
            [depth(f, Fraction(2, 5)) for f in maps],
            [
                is_robust(random_lift(f, seed), c, Fraction(2, 3))
                for seed, (f, c) in enumerate(zip(h_maps, reversed(h_maps)))
            ],
        )

    def no_element(self):
        raise AssertionError("a GroupElement was built on a Sur* route")

    with monkeypatch.context() as patch:
        patch.setattr(groups.GroupElement, "__post_init__", no_element)
        element_free = outputs()
    assert element_free == outputs()
    moments, _, keys, pushed, indices, depths, robust = element_free
    assert any(c for _, _, c in moments) and any(keys) and pushed
    assert set(indices) == {1, 2, 4} and set(depths) > {1} and 0 < sum(robust) < len(robust)


def test_lifted_key_rejects_bad_matrices():
    """A matrix of the wrong shape, or an asymmetric one, is refused rather
    than read in part."""
    z2 = G(2)
    f = ModuleMap.from_matrix(4, z2, [(1,), (1,)])
    lift = standard_lift(f)
    for rows in ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0]], [[0, 0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError):
            lifted_pairing_key(IntMatrix.from_rows(rows), f, lift)
    with pytest.raises(NotSymmetric):
        lifted_pairing_key(IntMatrix.from_rows([[0, 2], [0, 0]]), f, lift)
    assert lifted_pairing_key(IntMatrix.from_rows([[0, 2], [2, 0]]), f, lift) == {2: {(0, 0): 0}}


def test_pairing_partition():
    """Summing Sur* over all dual Grams on the target recovers #Sur."""
    rng = random.Random(5)
    sources = []
    for g in (G(4), G(2, 2), G(8), G(4, 2), G(16), G(9)):
        for info in pairing_class_table(g, perfect_only=False)[:3]:
            sources.append((g, info.class_id.representative.pairing))
    targets = [G(2), G(4), G(2, 2), G(3)]
    for src_group, src_gram in sources:
        for tgt in targets:
            total = sum(
                count_sur_star_pushforward((src_group, src_gram), (tgt, dual))
                for dual in all_dual_grams(tgt)
            )
            expected = sum(1 for _ in enumerate_surjections(src_group, tgt))
            assert total == expected, (src_group.text(), tgt.text())


def test_exact_dual_pairing_feeds_pushforward():
    """For nonsingular matrices the literal composition (torsion dual
    pairing, then pushforward counting) matches the congruence oracle,
    including multi-prime targets."""
    rng = random.Random(21)
    z6 = G(6)
    duals6 = all_dual_grams(z6)
    done = 0
    while done < 15:
        n = rng.randint(1, 3)
        m = random_symmetric_mod(rng, n, 36)
        if m.determinant() == 0:
            continue
        tor, free, dual_gram = torsion_dual_pairing(m)
        assert free == 0
        for dual in duals6:
            c_push = count_sur_star_pushforward((tor, dual_gram), (z6, dual))
            c_cong = count_sur_star_congruence(m, z6, dual)
            assert c_push == c_cong, (m.data, dual.text())
        done += 1


def test_empirical_moment_trivial_target():
    spec = EnsembleSpec(kind=KIND_UNIFORM, n=4, seed=1, modulus=4)
    report = run_moment(ExperimentConfig(ensemble=spec, trials=50, target="1|"))
    assert Fraction(report.moment["mean"]) == 1 and report.moment["stderr"] == 0
    assert report.config["trials"] == 50 and report.flagged["budget_exceeded"] == 0


def test_empirical_moment_er_small():
    """Small-n sanity: the ER moment for (Z/2, 1/2) sits near 1/2."""
    spec = EnsembleSpec(kind=KIND_ER, n=24, seed=31, q=0.5)
    report = run_moment(ExperimentConfig(ensemble=spec, trials=400, target="Z/2|1/2"))
    assert report.flagged["budget_exceeded"] == 0
    assert abs(report.moment["mean_float"] - 0.5) <= 4 * report.moment["stderr"]


def test_moment_counts_disconnected_graphs_exactly():
    """Moments over graphs include free-rank contributions: a two-component
    graph's quotient gains a Z/b factor per extra component."""
    # path 0-1 plus isolated vertex 2: sandpile of P2 is trivial, one extra
    # component, so S tensor Z/2 = Z/2 and Sur*(S, Z/2) counts the
    # surjections from that factor
    m = IntMatrix.from_rows([[-1, 1, 0], [1, -1, 0], [0, 0, 0]])
    z2 = G(2)
    target = PairedGroup(z2, gram(z2, [[Fraction(1, 2)]]))
    src_group, src_gram = tensor_quotient_with_dual_pairing(m, 2, zero_sum=True)
    assert src_group.text() == "Z/2"
    # the extra free direction pairs to zero on the dual side
    assert src_gram.entry(0, 0).is_zero()
    assert count_sur_star_pushforward(
        (src_group, src_gram), (target.group, target.pairing)
    ) == 0
    assert count_sur_star_pushforward(
        (src_group, src_gram), (z2, gram(z2, [[0]]))
    ) == 1


def test_hom_budget_respected():
    from cokpairs.errors import BudgetExceeded

    big = G(*([2] * 6))
    zero_gram = PairingGram.from_fractions(big, [[0] * 6 for _ in range(6)])
    dual = all_dual_grams(G(2))[1]
    with pytest.raises(BudgetExceeded):
        count_sur_star_pushforward((big, zero_gram), (G(2), dual), budget=10)
