"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py`.  The Monte Carlo criteria
use fixed master seeds, so every number here is reproducible bit for bit.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cokpairs.ensembles import EnsembleSpec, KIND_ER, KIND_UNIFORM
from cokpairs.experiments import (
    ExperimentConfig,
    counts_from_report,
    prediction_table,
    run_connectivity,
    run_distribution,
    run_moment,
    total_variation_pooled,
)
from cokpairs.graphs import ERParams, laplacian, sample_er, sandpile_with_pairing, spanning_tree_count
from cokpairs.groups import FinAbGroup, enumerate_surjections
from cokpairs.intmat import IntMatrix, smith_normal_form, solve_scaled_membership
from cokpairs.modmaps import ModuleMap
from cokpairs.moments import (
    dual_gram_numerators,
    lifted_pairing_key,
    random_lift,
    sur_star_congruence_table,
    tensor_quotient_with_dual_pairing,
)
from cokpairs.pairings import (
    PairedGroup,
    pushforward,
    torsion_pairing,
)
from cokpairs.theory import (
    cl_constant,
    code_distance,
    depth,
    lift_code_check,
    mass_check,
    special_pair_census,
)

TRIALS = 4000
SEED_ER_DIST = 20240801
SEED_UNIF_DIST = 20240802
SEED_ER_MOMENT = 20240803
SEED_UNIF_MOMENT = 20240804
SEED_CONN = 20240805

MASS_FLOOR = 0.98  # regression floor for mass_check([2], 64)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def er_distribution_report():
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_ER, n=40, seed=SEED_ER_DIST, q=0.5),
        primes=(2,),
        order_bound=64,
        trials=TRIALS,
    )
    return run_distribution(cfg)


@pytest.fixture(scope="module")
def uniform_distribution_report():
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_UNIFORM, n=40, seed=SEED_UNIF_DIST, modulus=8),
        primes=(2,),
        order_bound=64,
        trials=TRIALS,
    )
    return run_distribution(cfg)


# -------------------------------------------------------------------------
# criterion 1: exact-algebra suite


def test_criterion_1_exact_algebra():
    violations = 0

    # SNF invariants and tree counts over 500 seeded ER graphs, n <= 6
    rng = random.Random(101)
    for trial in range(500):
        n = rng.randint(2, 6)
        q = rng.choice([0.3, 0.5, 0.7])
        g = sample_er(ERParams(n, q, 555), trial)
        lap = laplacian(g)
        snf = smith_normal_form(lap)
        if (snf.u @ lap @ snf.v).data != snf.diagonal_matrix(n, n).data:
            violations += 1
        if abs(snf.u.determinant()) != 1 or abs(snf.v.determinant()) != 1:
            violations += 1
        trees = spanning_tree_count(g)
        torsion, free, gram, connected = sandpile_with_pairing(g)
        if connected and torsion.order != trees:
            violations += 1
        if not connected and trees != 0:
            violations += 1

    # pairing perfectness and lift independence on 500 random symmetric
    # matrices, n <= 5, entries in [-4, 4]
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-4, 4)
        m = IntMatrix.from_rows(a)
        torsion, free, gram = torsion_pairing(m)
        if not PairedGroup(torsion, gram).perfect:
            violations += 1
        # recompute one random entry from randomized valid (k, s) choices
        if torsion.rank:
            i = rng.randrange(torsion.rank)
            j = rng.randrange(torsion.rank)
            val = _pairing_entry_via_random_lifts(m, torsion, rng, i, j)
            if (val - gram.entry(i, j).value).denominator != 1:
                violations += 1

    verdict("1 exact-algebra", violations == 0, f"{violations} violations")


def _pairing_entry_via_random_lifts(m, torsion, rng, i, j):
    """Bosch-Lorenzini value from scratch with randomized lifts and scalings."""
    from tests.test_pairings import generator_lifts

    _, lifts = generator_lifts(m)
    sols = []
    for idx in (i, j):
        _, _, t = lifts[idx]
        shift = m.mul_vec([rng.randint(-2, 2) for _ in range(m.rows)])
        t2 = tuple(x + y for x, y in zip(t, shift))
        k, s = solve_scaled_membership(m, t2)
        c = rng.randint(1, 3)
        sols.append((c * k, tuple(c * x for x in s)))
    (ki, si), (kj, sj) = sols
    num = sum(x * y for x, y in zip(si, m.mul_vec(sj)))
    return Fraction(num, ki * kj)


# -------------------------------------------------------------------------
# criterion 2: oracle equivalence


def _oracle_check_one(m, group, p, lift_seed):
    """Three-route comparison for one matrix and one target group.

    Returns the number of disagreements.  Routes: plain congruences
    (tallied per pairing key), lifted equations per coefficient matrix with
    a random lift, and pushforward counting from the quotient's dual Gram.
    """
    bad = 0
    n = m.rows
    lam = group.partition(p)
    r = len(lam)
    mod = p ** (2 * lam[0])
    mm = [[x % mod for x in row] for row in m.data]
    a_mod = group.exponent ** 2

    plain_tally = {}
    checked = 0
    for cols in itertools.product(
        *[itertools.product(*[range(p ** lam[i]) for i in range(r)]) for _ in range(n)]
    ):
        f = ModuleMap.from_matrix(a_mod, group, list(cols))
        fmat = f.block(p)
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
            plain_key = tuple(
                (
                    sum(fm[i][l] * fmat[j][l] for l in range(n))
                    % (p ** (lam[i] + lam[j]))
                )
                // p ** lam[i]
                for i in range(r)
                for j in range(i, r)
            )
        lifted = lifted_pairing_key(m, f, random_lift(f, lift_seed + checked))
        lifted_key = None
        if lifted is not None:
            nums = lifted[p]
            lifted_key = tuple(nums[(i, j)] for i in range(r) for j in range(i, r))
        if plain_key != lifted_key:
            bad += 1
        if plain_key is not None and f.surjective_avoiding(frozenset()):
            plain_tally[plain_key] = plain_tally.get(plain_key, 0) + 1
        checked += 1

    table = sur_star_congruence_table(m, group)[p]
    if table != plain_tally:
        bad += 1

    src_group, src_gram = tensor_quotient_with_dual_pairing(m, group.exponent)
    push_tally = {}
    for f in enumerate_surjections(src_group, group):
        pushed = pushforward(f, src_gram)
        nums = dual_gram_numerators(group, pushed, p)
        key = tuple(nums[(i, j)] for i in range(r) for j in range(i, r))
        push_tally[key] = push_tally.get(key, 0) + 1
    if push_tally != plain_tally:
        bad += 1
    return bad


def test_criterion_2_oracle_equivalence():
    rng = random.Random(303)
    disagreements = 0
    cases = {
        4: [FinAbGroup.from_orders([2]), FinAbGroup.from_orders([2, 2]), FinAbGroup.from_orders([2, 2, 2])],
        9: [FinAbGroup.from_orders([3]), FinAbGroup.from_orders([3, 3])],
    }
    for modulus, groups in cases.items():
        p = 2 if modulus == 4 else 3
        for trial in range(300):
            n = rng.randint(1, 4)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(0, modulus - 1)
            m = IntMatrix.from_rows(rows)
            for group in groups:
                disagreements += _oracle_check_one(m, group, p, lift_seed=trial * 7919)
    verdict("2 oracle-equivalence", disagreements == 0, f"{disagreements} disagreements")


# -------------------------------------------------------------------------
# criterion 3: lemma census


def test_criterion_3_lemma_census():
    failures = []
    for p in (2, 3):
        for lam in ((1,), (2,), (1, 1)):
            for n in (2, 3):
                if len(lam) > n:
                    continue
                g = FinAbGroup.from_prime_types({p: lam})
                cols = [
                    tuple(1 if i == j else 0 for i in range(len(lam))) for j in range(n)
                ]
                f = ModuleMap.from_matrix(g.exponent ** 2, g, cols)
                res = special_pair_census(f, seed=n * 100 + p)
                if res.kernel_size != res.predicted or res.d_of_a_failures:
                    failures.append((p, lam, n, res))

    z2 = FinAbGroup.from_orders([2])
    ones = ModuleMap.from_matrix(4, z2, [(1,), (1,), (1,)])
    if not lift_code_check(ones, trials=25, seed=11):
        failures.append("lift_code_check all-ones")
    rng = random.Random(404)
    g22 = FinAbGroup.from_orders([2, 2])
    found = 0
    while found < 20:
        cols = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(5)]
        f = ModuleMap.from_matrix(4, g22, cols)
        if code_distance(f) < 1:
            continue
        if not lift_code_check(f, trials=5, seed=found):
            failures.append(("lift_code_check", cols))
        found += 1

    delta = Fraction(2, 5)
    for images in itertools.product([(0,), (1,)], repeat=3):
        f = ModuleMap.from_matrix(4, z2, list(images))
        if (depth(f, delta) == 1) != (code_distance(f) >= delta * 3):
            failures.append(("depth/code", images))

    verdict("3 lemma-census", not failures, f"{len(failures)} failed instances")


# -------------------------------------------------------------------------
# criterion 4: moment reproduction


def _moment_config(kind, seed):
    if kind == KIND_ER:
        spec = EnsembleSpec(kind=KIND_ER, n=40, seed=seed, q=0.5)
    else:
        spec = EnsembleSpec(kind=KIND_UNIFORM, n=40, seed=seed, modulus=8)
    return ExperimentConfig(ensemble=spec, trials=TRIALS, target="Z/2|1/2")


def test_criterion_4_moment_er():
    rep = run_moment(_moment_config(KIND_ER, SEED_ER_MOMENT))
    m = rep.moment
    ok = m["abs_deviation"] <= 3 * m["stderr"] and m["stderr"] <= 0.02
    verdict(
        "4a moment-ER",
        ok,
        f"mean {m['mean_float']:.4f} vs 0.5, stderr {m['stderr']:.4f}, "
        f"flagged {rep.flagged['budget_exceeded']}",
    )


def test_criterion_4_moment_uniform():
    rep = run_moment(_moment_config(KIND_UNIFORM, SEED_UNIF_MOMENT))
    m = rep.moment
    ok = m["abs_deviation"] <= 3 * m["stderr"] and m["stderr"] <= 0.02
    verdict(
        "4b moment-uniform-mod-8",
        ok,
        f"mean {m['mean_float']:.4f} vs 0.5, stderr {m['stderr']:.4f}",
    )


def test_criterion_4_supplement_mod9_z3_moment():
    """Companion check at p = 3: uniform mod 9, target (Z/3, dual 1/3)."""
    z3 = FinAbGroup.from_orders([3])
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_UNIFORM, n=30, seed=77, modulus=9),
        trials=1500,
        target="Z/3|1/3",
    )
    rep = run_moment(cfg)
    m = rep.moment
    ok = m["abs_deviation"] <= 3 * m["stderr"]
    verdict(
        "4c moment-uniform-mod-9",
        ok,
        f"mean {m['mean_float']:.4f} vs {1 / 3:.4f}, stderr {m['stderr']:.4f}",
    )


# -------------------------------------------------------------------------
# criterion 5: distribution reproduction


def test_criterion_5_distribution(er_distribution_report):
    rep = er_distribution_report
    counts = {row.key: row.count for row in rep.rows}
    trivial_freq = counts.get("1|", 0) / TRIALS
    z2_freq = counts.get("Z/2|1/2", 0) / TRIALS
    pvalue = rep.chi_square["pvalue"]
    ok = (
        abs(trivial_freq - 0.41942) <= 0.05
        and abs(z2_freq - 0.20971) <= 0.05
        and pvalue > 0.01
    )
    verdict(
        "5 distribution-ER",
        ok,
        f"trivial {trivial_freq:.4f} (target 0.41942), Z/2 {z2_freq:.4f} "
        f"(target 0.20971), chi2 p {pvalue:.4f}, flags {rep.flagged}",
    )


# -------------------------------------------------------------------------
# criterion 6: universality


def test_criterion_6_universality(er_distribution_report, uniform_distribution_report):
    predicted, _ = prediction_table((2,), 64)
    tv = total_variation_pooled(
        counts_from_report(er_distribution_report),
        TRIALS,
        counts_from_report(uniform_distribution_report),
        TRIALS,
        predicted,
    )
    verdict("6 universality", tv <= 0.05, f"pooled TV distance {tv:.4f}")


# -------------------------------------------------------------------------
# criterion 7: connectivity


def test_criterion_7_connectivity():
    cfg = ExperimentConfig(
        ensemble=EnsembleSpec(kind=KIND_ER, n=40, seed=SEED_CONN, q=0.5),
        trials=TRIALS,
    )
    rep = run_connectivity(cfg)
    frac = rep.connectivity["fraction"]
    verdict("7 connectivity", frac >= 0.999, f"connected fraction {frac:.5f}")


# -------------------------------------------------------------------------
# criterion 8: constants


def test_criterion_8_constants():
    a, _ = cl_constant(2, 40)
    b, _ = cl_constant(2, 40, method="decimal_reverse")
    twelve_digit_stable = a == b and str(a).startswith("0.41942")

    values = [mass_check([2], bound).value for bound in (1, 2, 4, 8, 16, 32, 64)]
    monotone = all(x < y for x, y in zip(values, values[1:]))
    floor_ok = values[-1] >= MASS_FLOOR
    ok = twelve_digit_stable and monotone and floor_ok
    verdict(
        "8 constants",
        ok,
        f"cl(2) = {a} (orders agree: {a == b}), mass(64) = {values[-1]:.5f} "
        f">= {MASS_FLOOR}, monotone: {monotone}",
    )
