"""Ensemble sampling, balance certificates, and the fast classifier."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cokpairs.ensembles import (
    CapExceeded,
    EnsembleSpec,
    EntryDistribution,
    KIND_ALPHA,
    KIND_ER,
    KIND_UNIFORM,
    _padic_snf,
    _residues,
    cokernel_pairing_class,
    default_cap,
    quotient_dual_pairing,
    sample_graph,
    sample_symmetric,
    sylow_paired_group,
)
from cokpairs.errors import UnbalancedDistribution
from cokpairs.graphs import complete_graph, laplacian
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


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_non_primes_are_rejected(p):
    # 0 and 1 used to loop forever; 4 and 6 gave classes of composite "Sylow" parts
    from cokpairs.theory import groups_at_primes

    with pytest.raises(ValueError):
        default_cap(p, 64)
    with pytest.raises(ValueError):
        groups_at_primes([2, p], 64)


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


def test_quotient_dual_pairing_matches_augmented_snf():
    """The mod-p^(2k) tensor quotient agrees with the exact augmented-matrix
    computation, as paired-group classes."""
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
        for p, k in ((2, 1), (2, 2), (3, 1)):
            b = p**k
            lam, block = quotient_dual_pairing(a, a, p, k)
            aug = [list(a[i]) + [b if i == t else 0 for t in range(n)] for i in range(n)]
            s = smith_normal_form(IntMatrix.from_rows(aug))
            gens = [(i, s.d[i]) for i in range(len(s.d)) if s.d[i] > 1]
            if lam is None:
                assert not gens
                continue
            order = sorted(range(len(gens)), key=lambda t: (-valuation(gens[t][1], p), -t))
            sym = IntMatrix.from_rows(a)
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
            )


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


def _padic_snf_reference(a, nrows, ncols, p, big_k, want_u, want_v):
    """The list-loop p-adic Smith reduction the numpy kernel replaces.

    a is a list of row lists, entries reduced mod p^big_k, diagonalized in
    place.  Pivot: the first row-major entry of least valuation in the
    active block.  Returns (exponents, u, v) as lists.
    """
    mod = p**big_k
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if want_u else None
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)] if want_v else None
    exps = []
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best_i = best_j = -1
        best_v = big_k
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x:
                    vv = 0
                    while x % p == 0:
                        x //= p
                        vv += 1
                    if vv < best_v:
                        best_i, best_j, best_v = i, j, vv
                        if vv == 0:
                            break
            if best_v == 0:
                break
        if best_i < 0:
            break
        if best_i != t:
            a[t], a[best_i] = a[best_i], a[t]
            if u is not None:
                u[t], u[best_i] = u[best_i], u[t]
        if best_j != t:
            for row in a:
                row[t], row[best_j] = row[best_j], row[t]
            if v is not None:
                for row in v:
                    row[t], row[best_j] = row[best_j], row[t]
        pk = p**best_v
        unit = a[t][t] // pk
        inv = pow(unit, -1, mod)
        if inv != 1:
            a[t] = [x * inv % mod for x in a[t]]
            if u is not None:
                u[t] = [x * inv % mod for x in u[t]]
        at = a[t]
        for i in range(t + 1, nrows):
            x = a[i][t]
            if x:
                q = x // pk
                a[i] = [(y - q * z) % mod for y, z in zip(a[i], at)]
                if u is not None:
                    u[i] = [(y - q * z) % mod for y, z in zip(u[i], u[t])]
        for j in range(t + 1, ncols):
            x = at[j]
            if x:
                q = x // pk
                at[j] = 0
                if v is not None:
                    for row in v:
                        row[j] = (row[j] - q * row[t]) % mod
        exps.append(best_v)
        t += 1
    return exps, u, v


def _assert_kernel_matches_reference(rows, p, big_k, want_u, want_v):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    mod = p**big_k
    a = _residues(rows, (nrows, ncols), mod)
    exps, u, v = _padic_snf(a, p, big_k, want_u, want_v)
    ref = _padic_snf_reference(
        [[x % mod for x in row] for row in rows], nrows, ncols, p, big_k, want_u, want_v
    )
    got = (exps, None if u is None else u.tolist(), None if v is None else v.tolist())
    assert got == ref, (rows, p, big_k)
    return a.dtype


def test_padic_kernel_matches_reference_on_random_inputs():
    """Same exponents and bit-identical transforms as the list-loop kernel,
    on rectangular inputs with entries scaled by powers of p, so that
    non-unit pivots and all-p-divisible blocks occur."""
    rng = random.Random(31)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        big_k = rng.randint(1, 8)
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        scale = p ** rng.randint(0, 3)
        rows = [
            [rng.randint(-60, 60) * p ** rng.randint(0, 2) * scale for _ in range(ncols)]
            for _ in range(nrows)
        ]
        want_u, want_v = rng.random() < 0.5, rng.random() < 0.5
        _assert_kernel_matches_reference(rows, p, big_k, want_u, want_v)


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
        assert _assert_kernel_matches_reference(rows, 3, 8, True, True) == np.int64
        assert _assert_kernel_matches_reference(rows, 3, 32, True, True) == object


def test_padic_kernel_matches_reference_on_er_laplacians():
    spec = EnsembleSpec(kind=KIND_ER, n=40, seed=41, q=0.5)
    for t in range(200):
        rows = [list(r) for r in laplacian(sample_graph(spec, t)).data]
        _assert_kernel_matches_reference(rows, 2, 16, t % 2 == 0, t % 2 == 1)


def test_large_cyclic_class_has_perfect_gram():
    """Z/3^14 needs the Python-int kernel and an orbit scan over 3^14 - 3^13
    automorphisms whose int64 products must not wrap."""
    m = IntMatrix.from_rows([[-4782969]])
    res = cokernel_pairing_class(m, [3], {3: default_cap(3, 5_000_000)})
    assert res.representative.group.text() == "Z/4782969"
    assert res.representative.perfect
    assert res.text != "Z/4782969|0/1"
