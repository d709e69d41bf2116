"""Ensemble sampling, balance certificates, and the fast classifier."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from padic_oracle import _padic_snf_reference

from cokpairs.ensembles import (
    CapExceeded,
    EnsembleSpec,
    EntryDistribution,
    KIND_ALPHA,
    KIND_ER,
    KIND_UNIFORM,
    _as_array,
    _dual_block,
    _padic_snf,
    _residues,
    _sylow_block,
    cokernel_pairing_class,
    default_cap,
    quotient_dual_pairing,
    sample_array,
    sample_graph,
    sample_symmetric,
    sylow_paired_group,
)
from cokpairs.errors import BudgetExceeded, UnbalancedDistribution
from cokpairs.graphs import ERParams, complete_graph, connected_components, laplacian
from cokpairs.groups import FinAbGroup
from cokpairs.intmat import IntMatrix
from cokpairs.pairings import (
    PairedGroup,
    canonical_pair_class,
    gram_from_scaled_blocks,
    restrict_to_sylow,
    torsion_dual_pairing,
    torsion_pairing,
)


def test_balance_certificate():
    dist = EntryDistribution((0, 1), (Fraction(7, 10), Fraction(3, 10)))
    dist.check_balance(2, Fraction(3, 10))  # max residue weight 0.7 = 1 - 0.3
    with pytest.raises(UnbalancedDistribution):
        dist.check_balance(2, Fraction(4, 10))
    point = EntryDistribution((0,), (Fraction(1),))
    with pytest.raises(UnbalancedDistribution):
        point.check_balance(2, Fraction(1, 100))


def test_alpha_spec_validates():
    dist = EntryDistribution((0, 1), (Fraction(7, 10), Fraction(3, 10)))
    EnsembleSpec(kind=KIND_ALPHA, n=4, seed=1, modulus=2, entry_dist=dist, alpha=Fraction(3, 10))
    with pytest.raises(UnbalancedDistribution):
        EnsembleSpec(
            kind=KIND_ALPHA, n=4, seed=1, modulus=2, entry_dist=dist, alpha=Fraction(1, 2)
        )


def test_uniform_frequencies_chi_square():
    """n=1 uniform mod 2: entry frequencies balanced over 10^4 draws."""
    spec = EnsembleSpec(kind=KIND_UNIFORM, n=1, seed=5, modulus=2)
    ones = sum(sample_symmetric(spec, t)[0, 0] for t in range(10_000))
    # chi-square with 1 df at alpha 0.001 is 10.8; translate to a count window
    assert abs(ones - 5000) < 165


def test_entry_marginals_weighted():
    """Weighted draws match the declared marginals within 4 sigma (1e5 draws)."""
    dist = EntryDistribution((-1, 0, 2), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    spec = EnsembleSpec(
        kind=KIND_ALPHA, n=1, seed=17, modulus=3, entry_dist=dist, alpha=Fraction(1, 4)
    )
    counts = {-1: 0, 0: 0, 2: 0}
    draws = 100_000
    for t in range(draws):
        counts[sample_symmetric(spec, t)[0, 0]] += 1
    for value, w in zip(dist.support, dist.weights):
        mean = float(w) * draws
        sigma = (float(w) * (1 - float(w)) * draws) ** 0.5
        assert abs(counts[value] - mean) < 4 * sigma, (value, counts[value], mean)


def test_symmetry_and_exchangeability():
    """Sampled matrices are exactly symmetric, and for uniform mod 2 at n=3
    the upper triangle is exchangeable under simultaneous row/column
    permutation (pattern counts match across a transposition)."""
    spec = EnsembleSpec(kind=KIND_UNIFORM, n=3, seed=23, modulus=2)
    patterns = {}
    draws = 20_000
    for t in range(draws):
        m = sample_symmetric(spec, t)
        assert m.is_symmetric()
        patterns[m.data] = patterns.get(m.data, 0) + 1
    # conjugate by the permutation swapping rows/cols 0 and 1
    def conj(data):
        perm = (1, 0, 2)
        return tuple(tuple(data[perm[i]][perm[j]] for j in range(3)) for i in range(3))

    for data, count in patterns.items():
        other = patterns.get(conj(data), 0)
        total = count + other
        if data == conj(data) or total < 40:
            continue
        sigma = (total * 0.25) ** 0.5
        assert abs(count - total / 2) < 5 * sigma, (data, count, other)


def test_classifier_examples():
    lap = laplacian(complete_graph(3))
    res = cokernel_pairing_class(lap, [3], {3: 3}, free_rank=1)
    assert res.text == "Z/3|1/3"

    unimodular = IntMatrix.from_rows([[1, 0], [0, 1]])
    res = cokernel_pairing_class(unimodular, [2], {2: 3})
    assert res.text == "1|"

    zero = IntMatrix.from_rows([[8, 0], [0, 8]])  # == 0 mod 2^3
    res = cokernel_pairing_class(zero, [2], {2: 3})
    assert isinstance(res, CapExceeded)


def test_default_cap():
    assert default_cap(2, 64) == 8
    assert default_cap(3, 27) == 5
    assert default_cap(5, 4) == 2
    with pytest.raises(ValueError, match="order bound"):
        default_cap(2, 0)  # used to give cap 2


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_non_primes_are_rejected(p):
    # 0 and 1 used to loop forever; 4 and 6 gave classes of composite "Sylow" parts
    from cokpairs.theory import groups_at_primes

    with pytest.raises(ValueError):
        default_cap(p, 64)
    with pytest.raises(ValueError):
        groups_at_primes([2, p], 64)


def test_ensembles_reject_n_below_one():
    # n <= 0 used to run: `distribution --n -5` reported every trial as "1|"
    from cokpairs.cli import main

    for n in (0, -5):
        with pytest.raises(ValueError):
            EnsembleSpec(kind=KIND_ER, n=n, seed=1, q=0.5)
        with pytest.raises(ValueError):
            EnsembleSpec(kind=KIND_UNIFORM, n=n, seed=1, modulus=2)
        with pytest.raises(ValueError):
            ERParams(n, 0.5, 1)
    with pytest.raises(SystemExit) as exc:  # a bad argument: one line, exit code 2
        main(["sample", "--n", "-5"])
    assert exc.value.code == 2


def test_ensemble_ranges_beyond_below_are_rejected():
    # below() cannot draw from more than 2^64 values; these specs used to
    # construct, and their first trial then looped forever
    with pytest.raises(ValueError, match="modulus"):
        EnsembleSpec(kind=KIND_UNIFORM, n=2, seed=1, modulus=2**64 + 1)
    EnsembleSpec(kind=KIND_UNIFORM, n=2, seed=1, modulus=2**64)
    x = Fraction(1, 2**66 + 6)  # the common denominator is 2^65 + 3
    dist = EntryDistribution((0, 1), (Fraction(1, 2) - x, Fraction(1, 2) + x))
    with pytest.raises(ValueError, match="common denominator"):
        EnsembleSpec(kind=KIND_ALPHA, n=2, seed=1, modulus=2, entry_dist=dist, alpha=Fraction(1, 4))


@pytest.mark.parametrize("q", [1.5, -0.25, float("nan")])
def test_er_spec_rejects_probabilities_outside_unit_interval(q):
    # q = 1.5 used to construct and fail only inside the first trial
    with pytest.raises(ValueError, match="probability"):
        EnsembleSpec(kind=KIND_ER, n=4, seed=1, q=q)


def _symmetric_reference(spec, trial, entry):
    """Upper-triangle entries (diagonal included) drawn one at a time in
    row-major order by entry(stream)."""
    from cokpairs import rng

    s = rng.stream(spec.seed, trial)
    n = spec.n
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = entry(s)
    return a


@pytest.mark.parametrize("modulus", [9, 2**63 + 1, 3 * 2**62])
def test_uniform_draw_matches_scalar_reference(modulus):
    """2^63 + 1 rejects about half of all draws and 3 * 2^62 a quarter; both
    give object arrays, and a third of the entries mod 3 * 2^62 lie beyond
    the int64 maximum."""
    from cokpairs.ensembles import sample_array

    spec = EnsembleSpec(kind=KIND_UNIFORM, n=7, seed=19, modulus=modulus)
    big = 0
    for t in range(10):
        want = _symmetric_reference(spec, t, lambda s: s.below(modulus))
        got = sample_symmetric(spec, t)
        assert [list(r) for r in got.data] == want
        assert all(type(x) is int for r in got.data for x in r)
        assert sample_array(spec, t).dtype == (np.int64 if modulus <= 2**63 else object)
        big += sum(x >= 2**63 for r in want for x in r)
    assert (big > 0) == (modulus == 3 * 2**62)


def test_alpha_draw_matches_scalar_reference():
    """Negative support and an entry beyond int64, picked by the cumulative
    weights exactly as a per-entry scan would."""
    weights = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 6), Fraction(1, 4))
    dist = EntryDistribution((-7, 10**20, 0, -1), weights)
    spec = EnsembleSpec(
        kind=KIND_ALPHA, n=6, seed=23, modulus=2, entry_dist=dist, alpha=Fraction(1, 4)
    )
    den, cum = dist.sampler()

    def entry(s):
        r = s.below(den)
        return next(v for v, c in zip(dist.support, cum) if r < c)

    seen = set()
    for t in range(20):
        want = _symmetric_reference(spec, t, entry)
        got = sample_symmetric(spec, t)
        assert [list(r) for r in got.data] == want
        seen.update(x for r in want for x in r)
    assert seen == set(dist.support)


def test_sample_array_feeds_the_classifier_like_the_matrix():
    """cokernel_pairing_class and tensor_quotient_with_dual_pairing give one
    result for the array and the IntMatrix, and check both for symmetry."""
    from cokpairs.ensembles import sample_array
    from cokpairs.errors import NotSymmetric
    from cokpairs.graphs import connected_components
    from cokpairs.moments import tensor_quotient_with_dual_pairing

    for kind, extra in ((KIND_UNIFORM, {"modulus": 8}), (KIND_ER, {"q": 0.5})):
        spec = EnsembleSpec(kind=kind, n=8, seed=3, **extra)
        for t in range(10):
            a = sample_array(spec, t)
            m = sample_symmetric(spec, t)
            assert a.dtype == np.int64 and a.tolist() == [list(r) for r in m.data]
            zero_sum = kind == KIND_ER
            free = connected_components(sample_graph(spec, t)) if zero_sum else 0
            assert cokernel_pairing_class(a, [2], {2: 6}, free) == cokernel_pairing_class(m, [2], {2: 6}, free)
            assert tensor_quotient_with_dual_pairing(a, 4, zero_sum) == tensor_quotient_with_dual_pairing(
                m, 4, zero_sum
            )
    lopsided = np.array([[0, 1], [2, 0]])
    for m in (lopsided, IntMatrix.from_rows(lopsided.tolist()), np.zeros((2, 3), dtype=np.int64)):
        with pytest.raises(NotSymmetric):
            cokernel_pairing_class(m, [2], {2: 3})
        with pytest.raises(NotSymmetric):
            tensor_quotient_with_dual_pairing(m, 2)


def _congruent(rows, ops):
    """M and P M P^T, with P the product of the row operations (i, j, k):
    negate row i when i == j, else add k times row j to row i."""
    n = len(rows)
    pm = IntMatrix.from_rows([[int(a == b) for b in range(n)] for a in range(n)])
    for i, j, k in ops:
        op = [[int(a == b) for b in range(n)] for a in range(n)]
        op[i][j] = -1 if i == j else k
        pm = IntMatrix.from_rows(op) @ pm
    m = IntMatrix.from_rows(rows)
    return m, pm @ m @ pm.transpose()


@st.composite
def _congruent_pair(draw):
    """A symmetric M (n <= 5, entries in [-9, 9]) and P M P^T for a
    unimodular P made of one to four row operations."""
    n = draw(st.integers(1, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-9, 9))
    index = st.integers(0, n - 1)
    op = st.tuples(index, index, st.sampled_from([-3, -2, -1, 1, 2, 3]))
    ops = draw(st.lists(op, min_size=1, max_size=4))
    return _congruent(rows, ops)


def _class_outcome(m, free_rank):
    primes = (2, 3)
    try:
        res = cokernel_pairing_class(m, primes, {p: default_cap(p, 64) for p in primes}, free_rank)
    except BudgetExceeded:
        return "budget"
    return ("cap", res.prime) if isinstance(res, CapExceeded) else res.text


@given(_congruent_pair())
@example(_congruent([[9, -2, -3], [-2, 7, 7], [-3, 7, 3]], [(1, 0, 2), (2, 2, 0)]))  # cap at 3
@example(  # |End| over budget
    _congruent(
        [[-3, 6, 9, -6], [6, 0, 6, -6], [9, 6, 6, 6], [-6, -6, 6, -3]], [(0, 3, -1), (2, 1, 3)]
    )
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_class_is_invariant_under_unimodular_congruence(pair):
    m, congruent = pair
    free_rank = torsion_pairing(m)[1]
    assert _class_outcome(m, free_rank) == _class_outcome(congruent, free_rank)


def test_fast_classifier_matches_exact_group_side():
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-9, 9)
        m = IntMatrix.from_rows(a)
        tor, free, gram = torsion_pairing(m)
        pg = PairedGroup(tor, gram)
        for p in (2, 3, 5):
            lam = tor.partition(p)
            cap = (lam[0] if lam else 0) + 3
            res = sylow_paired_group(a, p, cap, free_rank=free, side="group")
            assert not isinstance(res, CapExceeded)
            g2, gram2 = res
            assert (
                canonical_pair_class(restrict_to_sylow(pg, {p})).text
                == canonical_pair_class(PairedGroup(g2, gram2)).text
            )


def test_fast_classifier_matches_exact_dual_side():
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-9, 9)
        m = IntMatrix.from_rows(a)
        tor, free, dgram = torsion_dual_pairing(m)
        pg = PairedGroup(tor, dgram)
        for p in (2, 3):
            lam = tor.partition(p)
            cap = (lam[0] if lam else 0) + 3
            res = sylow_paired_group(a, p, cap, free_rank=free, side="dual")
            assert not isinstance(res, CapExceeded)
            g2, gram2 = res
            assert (
                canonical_pair_class(restrict_to_sylow(pg, {p})).text
                == canonical_pair_class(PairedGroup(g2, gram2)).text
            )


@st.composite
def _sylow_case(draw):
    """(p, M) with p in {2, 5, 7} and M symmetric, n <= 5, its entries up to
    10^6 in size or small multiples of p^k, with up to two zero rows and
    columns (free rank > 0) in random places.  At p = 2 the trivial-2-part
    exit runs before the reduction."""
    p = draw(st.sampled_from([2, 5, 7]))
    n = draw(st.integers(1, 5))
    zero = draw(st.integers(0, min(2, n)))
    multiple = st.builds(lambda c, k: c * p**k, st.integers(-4, 4), st.integers(1, 4))
    entry = st.one_of(st.integers(-(10**6), 10**6), multiple)
    rows = [[0] * n for _ in range(n)]
    for i in range(n - zero):
        for j in range(i, n - zero):
            rows[i][j] = rows[j][i] = draw(entry)
    perm = draw(st.permutations(range(n)))
    return p, [[rows[i][j] for j in perm] for i in perm]


def _outcome(classify):
    try:
        return classify().text
    except BudgetExceeded:
        return "budget"


@given(_sylow_case())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_fast_classifier_matches_exact_torsion_pairing(case):
    """The mod-p^(2k) classifier against the exact Smith-form pairing, with
    the cap one above lam1 so that exponents reach cap - 1."""
    p, rows = case
    m = IntMatrix.from_rows(rows)
    tor, free, gram = torsion_pairing(m)
    lam = tor.partition(p)
    cap = (lam[0] if lam else 0) + 1
    fast = _outcome(lambda: cokernel_pairing_class(m, [p], {p: cap}, free))
    exact = _outcome(lambda: canonical_pair_class(restrict_to_sylow(PairedGroup(tor, gram), {p})))
    assert fast == exact
    group_side = sylow_paired_group(rows, p, cap, free, side="group")
    assert group_side == sylow_paired_group(rows, p, cap, free, side="dual")


def test_malformed_arguments_raise():
    rows = [[2, 1], [1, 2]]
    m = IntMatrix.from_rows(rows)
    with pytest.raises(ValueError, match="prime 3 is repeated"):
        cokernel_pairing_class(m, [3, 3], {3: 3})
    with pytest.raises(ValueError, match="free rank must be >= 0"):
        cokernel_pairing_class(m, [3], {3: 3}, free_rank=-1)
    with pytest.raises(ValueError, match="side must be"):
        sylow_paired_group(rows, 3, 3, side="Group")


def test_sylow_paired_group_rejects_asymmetric_matrix():
    """An asymmetric matrix raises NotSymmetric, as in cokernel_pairing_class,
    instead of giving Z/4 with pairing 1/2."""
    from cokpairs.errors import NotSymmetric

    rows = [[2, 1], [0, 2]]
    with pytest.raises(NotSymmetric):
        cokernel_pairing_class(rows, [2], {2: 4})
    with pytest.raises(NotSymmetric):
        sylow_paired_group(rows, 2, 4)


def test_quotient_dual_pairing_matches_augmented_snf():
    """The mod-p^(2k) tensor quotient agrees with the exact augmented-matrix
    computation, as paired-group classes, on the square presentation and on
    the zero-sum one (the last row dropped, n-1 x n) of each matrix."""
    from cokpairs.arith import valuation
    from cokpairs.intmat import smith_normal_form
    from cokpairs.pairings import PairingGram

    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-9, 9)
        shapes = (a, a[:-1]) if n > 1 else (a,)
        for pres, (p, k) in itertools.product(shapes, ((2, 1), (2, 2), (3, 1))):
            b = p**k
            h = len(pres)
            lam, block = quotient_dual_pairing(pres, p, k)
            aug = [list(pres[i]) + [b if i == t else 0 for t in range(h)] for i in range(h)]
            s = smith_normal_form(IntMatrix.from_rows(aug))
            gens = [(i, s.d[i]) for i in range(len(s.d)) if s.d[i] > 1]
            if lam is None:
                assert not gens
                continue
            order = sorted(range(len(gens)), key=lambda t: (-valuation(gens[t][1], p), -t))
            sym = IntMatrix.from_rows([row[:h] for row in pres])
            rows = []
            for i in order:
                row = []
                for j in order:
                    ti, di = gens[i]
                    tj, dj = gens[j]
                    num = sum(
                        x * y for x, y in zip(s.u.row(ti), sym.mul_vec(s.u.row(tj)))
                    )
                    row.append(Fraction(num % (di * dj), di * dj))
                rows.append(row)
            gex = FinAbGroup.from_prime_types(
                {p: tuple(valuation(d, p) for _, d in (gens[i] for i in order))}
            )
            exact_pg = PairedGroup(gex, PairingGram.from_fractions(gex, rows))
            gfast = FinAbGroup.from_prime_types({p: lam})
            fast_pg = PairedGroup(gfast, gram_from_scaled_blocks(gfast, {p: block}))
            assert (
                canonical_pair_class(exact_pg).text == canonical_pair_class(fast_pg).text
            ), (pres, p, k)


def _kernel_only_block(a, p, cap, free_rank):
    """_sylow_block without the trivial-2-part exit: the p-adic kernel, the
    unresolved and cap checks, then _dual_block."""
    n = len(a)
    mod = p ** (2 * cap)
    m = _residues(a, (n, n), mod)
    exps, u = _padic_snf(m, p, 2 * cap)
    unresolved = n - len(exps)
    if unresolved > free_rank:
        return CapExceeded(p, f"{unresolved} unresolved invariants beyond known free rank {free_rank}")
    over = [e for e in exps if e >= cap]
    if over:
        return CapExceeded(p, f"resolved exponent {max(over)} reaches cap {cap}")
    return _dual_block(u, exps, m, p, mod)


def _kernel_only_quotient(pres, sym, p, k):
    """quotient_dual_pairing without the full-rank-mod-2 exit."""
    h, w = len(pres), len(pres[0]) if len(pres) else 0
    mod = p ** (2 * k)
    exps, u = _padic_snf(_residues(pres, (h, w), mod), p, 2 * k)
    mus = [min(e, k) for e in exps] + [k] * (h - len(exps))
    return _dual_block(u, mus, _residues(sym, (h, h), mod), p, mod)


def _symmetric(n, entries):
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(((i, j) for i in range(n) for j in range(i, n)), entries):
        rows[i][j] = rows[j][i] = x
    return rows


def _exit_inputs():
    """(rows, free ranks) for the exit oracle: exhaustive small matrices,
    ER(40) Laplacians with one or more components, uniform and
    alpha-balanced draws, entries near 2^62 and beyond int64."""
    for n, values in ((1, (-2, -1, 0, 1, 2, 3, 4, 8)), (2, (-2, -1, 0, 1, 2, 3, 4, 8)), (3, (0, 1, 2))):
        for entries in itertools.product(values, repeat=n * (n + 1) // 2):
            yield _symmetric(n, entries), range(n + 1)
    for q in (0.5, 0.06):
        spec = EnsembleSpec(kind=KIND_ER, n=40, seed=53, q=q)
        for t in range(15):
            g = sample_graph(spec, t)
            yield [list(r) for r in laplacian(g).data], (connected_components(g),)
    dist = EntryDistribution((0, 1, 2), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    specs = (
        EnsembleSpec(kind=KIND_UNIFORM, n=6, seed=54, modulus=2),
        EnsembleSpec(kind=KIND_UNIFORM, n=9, seed=55, modulus=8),
        EnsembleSpec(kind=KIND_ALPHA, n=7, seed=56, modulus=2, entry_dist=dist, alpha=Fraction(1, 4)),
    )
    for spec in specs:
        for t in range(40):
            yield [list(r) for r in sample_symmetric(spec, t).data], (0, 1, 2)
    rng = random.Random(57)
    for _ in range(60):
        n = rng.randint(1, 5)
        big = rng.choice((2**62, 2**63 - 1, 2**70 + 1))
        entries = [rng.choice((0, 1, -1, 2)) * big + rng.randint(-2, 2) for _ in range(n * (n + 1) // 2)]
        yield _symmetric(n, entries), range(n + 1)


def test_trivial_2_part_exit_matches_the_kernel():
    """_sylow_block and quotient_dual_pairing, whose p = 2 exits skip the
    kernel, against the kernel alone: equal (lam, block), (None, None) or
    CapExceeded on every input, including overstated free ranks."""
    fired = 0
    for rows, free_ranks in _exit_inputs():
        a = _as_array(rows, (len(rows), len(rows)))
        for free_rank in free_ranks:
            for cap in (1, 3):
                res = _sylow_block(a, 2, cap, free_rank)
                assert res == _kernel_only_block(a, 2, cap, free_rank), (rows, free_rank, cap)
                fired += res == (None, None)
        for pres, sym in ((rows, rows), (rows[:-1], [r[:-1] for r in rows[:-1]])):
            for k in (1, 2):
                res = quotient_dual_pairing(pres, 2, k)
                assert res == _kernel_only_quotient(pres, sym, 2, k), (pres, sym, k)
    assert fired > 1000


def test_trivial_2_part_exit_traps(capsys):
    """The exit fires only when it can prove a trivial 2-part.  An overstated
    free rank with corank 2 mod 2 still gives Z/2, and a matrix whose row
    sums are 2^64 (zero once wrapped in int64) still reaches the cap."""
    from cokpairs.cli import main

    assert cokernel_pairing_class([[2, 0], [0, 0]], [2], {2: 8}, free_rank=2).text == "Z/2|1/2"
    top = 2**63
    wrap = _as_array([[top - 1, top - 1, 2], [top - 1, 0, 1 - top], [2, 1 - top, top - 3]], (3, 3))
    assert wrap.dtype == np.int64
    for cap in (33, 40):
        assert _sylow_block(wrap, 2, cap, 1) == CapExceeded(2, f"resolved exponent 64 reaches cap {cap}")
    assert main(["classify", "--matrix", "2 0; 0 0", "--free-rank", "2", "--primes", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Z/2|1/2"


def test_spec_serialization_roundtrip():
    dist = EntryDistribution((0, 1), (Fraction(7, 10), Fraction(3, 10)))
    specs = [
        EnsembleSpec(kind=KIND_ER, n=12, seed=3, q=0.25),
        EnsembleSpec(kind=KIND_UNIFORM, n=5, seed=9, modulus=8),
        EnsembleSpec(
            kind=KIND_ALPHA, n=4, seed=2, modulus=2, entry_dist=dist, alpha=Fraction(3, 10)
        ),
    ]
    for spec in specs:
        assert EnsembleSpec.from_dict(spec.to_dict()) == spec


def _assert_kernel_matches_reference(rows, p, big_k):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    mod = p**big_k
    a = _residues(rows, (nrows, ncols), mod)
    exps, u = _padic_snf(a, p, big_k)
    ref = _padic_snf_reference([[x % mod for x in row] for row in rows], nrows, ncols, p, big_k)
    assert (exps, u.tolist()) == ref, (rows, p, big_k)
    return a.dtype


def test_padic_kernel_matches_reference_on_random_inputs():
    """Same exponents and a bit-identical row transform as the list-loop kernel,
    on rectangular inputs with entries scaled by powers of p, so that
    non-unit pivots and all-p-divisible blocks occur."""
    rng = random.Random(31)

    def rows(p):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        scale = p ** rng.randint(0, 3)
        return [
            [rng.randint(-60, 60) * p ** rng.randint(0, 2) * scale for _ in range(ncols)]
            for _ in range(nrows)
        ]

    for _ in range(300):
        p = rng.choice((2, 3, 5))
        big_k = rng.randint(1, 8)
        _assert_kernel_matches_reference(rows(p), p, big_k)
    # p = 7, and the moduli 49, 121 and 169 of the residue table
    for p, big_k in [(7, k) for k in range(1, 9)] * 10 + [(7, 2), (11, 2), (13, 2)] * 30:
        _assert_kernel_matches_reference(rows(p), p, big_k)


def test_padic_kernel_matches_reference_without_a_unit_in_the_pivot_row():
    """Row 0 of the block has no unit mod p, so the pivot comes from the scan
    of the whole block: a unit in a later row, or, when p divides every
    entry, a pivot of valuation e >= 1."""
    rng = random.Random(34)
    first = set()
    for p, big_k in ((2, 4), (3, 2), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2)):
        for _ in range(12):
            nrows, ncols = rng.randint(2, 7), rng.randint(1, 7)
            low = rng.randint(0, 1)  # 1: p divides every entry
            rows = [
                [rng.randrange(p**big_k) * p ** rng.randint(max(low, i == 0), 2) for _ in range(ncols)]
                for i in range(nrows)
            ]
            _assert_kernel_matches_reference(rows, p, big_k)
            exps, _ = _padic_snf(_residues(rows, (nrows, ncols), p**big_k), p, big_k)
            first.add(exps[0] if exps else None)
    assert {0, 1, 2} <= first


def test_padic_kernel_matches_reference_on_uniform_mod_9_draws():
    """Uniform mod-9 draws at n = 40, a moment run's inputs, reduced mod 9 at
    p = 3: square, and in the zero-sum (n - 1) x n shape of a quotient."""
    spec = EnsembleSpec(kind=KIND_UNIFORM, n=40, seed=42, modulus=9)
    for t in range(25):
        rows = sample_array(spec, t).tolist()
        _assert_kernel_matches_reference(rows, 3, 2)
        _assert_kernel_matches_reference(rows[:-1], 3, 2)


def test_padic_kernel_matches_reference_on_large_entries():
    """Entries beyond int64 reduce to int64 residues; a modulus with
    n * mod^2 >= 2^62 runs the same code on Python ints."""
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(1, 6)
        rows = [
            [rng.randint(-(10**20), 10**20) * 3 ** rng.randint(0, 4) for _ in range(n)]
            for _ in range(n)
        ]
        assert _assert_kernel_matches_reference(rows, 3, 8) == np.int64
        assert _assert_kernel_matches_reference(rows, 3, 32) == object


def test_padic_kernel_matches_reference_on_er_laplacians():
    spec = EnsembleSpec(kind=KIND_ER, n=40, seed=41, q=0.5)
    for t in range(200):
        rows = [list(r) for r in laplacian(sample_graph(spec, t)).data]
        _assert_kernel_matches_reference(rows, 2, 16)


def test_large_cyclic_class_has_perfect_gram():
    """Z/3^14 needs the Python-int kernel and an orbit scan over 3^14 - 3^13
    automorphisms whose int64 products must not wrap."""
    m = IntMatrix.from_rows([[-4782969]])
    res = cokernel_pairing_class(m, [3], {3: default_cap(3, 5_000_000)})
    assert res.representative.group.text() == "Z/4782969"
    assert res.representative.perfect
    assert res.text != "Z/4782969|0/1"
