"""Counting surjections that push the dual pairing onto a target pairing,
by two independent routes, and the tensored quotient that moment runs
(`experiments.run_moment`) count from.

Route one enumerates surjections from an already-computed group with dual
Gram and checks the pushforward.  Route two works straight from the matrix
residues: a surjection kills the column space iff its coefficient rows
satisfy one block of congruences, and it transports the pairing iff the
quadratic congruences with the target numerators hold on top.  The lifted
form of those equations (over the enlarged group with doubled exponents)
is checked by lifted_equation_check; all three must agree everywhere.
"""

from __future__ import annotations

import itertools

from . import rng
from .ensembles import quotient_dual_pairing
from .errors import BudgetExceeded, NotALift, NotSymmetric
from .groups import HOM_BUDGET, FinAbGroup, _rank_mod_p, enumerate_surjections
from .intmat import IntMatrix
from .modmaps import ModuleMap
from .pairings import PairingGram, gram_from_scaled_blocks, pushforward


def count_sur_star_pushforward(
    source: tuple[FinAbGroup, PairingGram],
    target: tuple[FinAbGroup, PairingGram],
    budget: int = HOM_BUDGET,
) -> int:
    """Surjections source -> target whose transpose carries the dual Gram of
    the source exactly onto the dual Gram of the target (no isomorphism
    slack: Gram equality entry by entry)."""
    src_group, src_gram = source
    tgt_group, tgt_gram = target
    count = 0
    for f in enumerate_surjections(src_group, tgt_group, budget):
        if pushforward(f, src_gram) == tgt_gram:
            count += 1
    return count


# ---------------------------------------------------------------------------
# congruence route (matrix side)


def dual_gram_numerators(group: FinAbGroup, gram: PairingGram, p: int) -> dict:
    """Numerators a_ij with <dual_i, dual_j> = a_ij / p^lam_j for i <= j
    (generators in canonical descending-exponent order within the p-block)."""
    lam = group.partition(p)
    idx = list(group.generator_indices(p))
    out = {}
    for a in range(len(lam)):
        for b in range(a, len(lam)):
            val = gram.gram[idx[a]][idx[b]].value
            scaled = val * p ** lam[b]
            if scaled.denominator != 1:
                raise ValueError("gram entry incompatible with generator orders")
            out[(a, b)] = int(scaled) % p ** lam[b]
    return out


def _congruence_table_single_prime(m_rows, n, p, lam):
    """Tally over surjective coefficient matrices satisfying the kernel
    congruences: key = tuple of pairing numerators a_ij (i <= j), value =
    number of matrices realizing it."""
    r = len(lam)
    mod = p ** (2 * lam[0])
    m = [[x % mod for x in row] for row in m_rows]
    tally: dict[tuple, int] = {}
    row_ranges = [range(p ** lam[i]) for i in range(r)]
    for rows in itertools.product(*[itertools.product(*(rng_ for _ in range(n))) for rng_ in row_ranges]):
        f = list(rows)
        # kernel congruences: sum_k f[i][k] m[k][l] = 0 mod p^lam_i
        ok = True
        fm = []
        for i in range(r):
            pi = p ** lam[i]
            fi = f[i]
            row_fm = []
            for l in range(n):
                s = sum(fi[k] * m[k][l] for k in range(n))
                if s % pi:
                    ok = False
                    break
                row_fm.append(s)
            if not ok:
                break
            fm.append(row_fm)
        if not ok:
            continue
        # surjectivity mod p
        if _rank_mod_p([[x % p for x in fi] for fi in f], p) < r:
            continue
        key = []
        for i in range(r):
            for j in range(i, r):
                mij = p ** (lam[i] + lam[j])
                z = sum(fm[i][l] * f[j][l] for l in range(n)) % mij
                # z is divisible by p^lam_i; the numerator is z / p^lam_i
                key.append(z // p ** lam[i])
        tally[tuple(key)] = tally.get(tuple(key), 0) + 1
    return tally


def sur_star_congruence_table(m: IntMatrix, group: FinAbGroup, budget: int = HOM_BUDGET):
    """For each prime block of `group`, the tally of pairing numerators over
    surjections of (Z/a)^n satisfying the kernel congruences.  Returns
    {p: {a_ij tuple: count}}; counts for a full target multiply across primes."""
    if not m.is_symmetric():
        raise NotSymmetric("congruence counting needs a symmetric matrix")
    n = m.rows
    total = group.order**n
    if total > budget:
        raise BudgetExceeded(f"{total} coefficient matrices exceed budget {budget}")
    out = {}
    for p, lam in group.types:
        out[p] = _congruence_table_single_prime([list(r) for r in m.data], n, p, lam)
    return out


def count_sur_star_congruence(
    m: IntMatrix,
    target_group: FinAbGroup,
    target_dual_gram: PairingGram,
    budget: int = HOM_BUDGET,
) -> int:
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
    if not target_group.types:
        return 1
    return total


# ---------------------------------------------------------------------------
# lifted equations


def lift_codomain(group: FinAbGroup) -> FinAbGroup:
    """The enlarged group with doubled top exponent: one generator of order
    p^(2*lam1) per generator of the p-block."""
    return FinAbGroup.from_prime_types(
        {p: tuple(2 * lam[0] for _ in lam) for p, lam in group.types}
    )


def standard_lift(f: ModuleMap) -> ModuleMap:
    """The lift whose coefficients are the representatives of f's own."""
    big = lift_codomain(f.target)
    cols = []
    for j in range(f.n):
        cols.append(tuple(f.images[j].coords))
    return ModuleMap.from_matrix(f.target.exponent**2, big, cols)


def random_lift(f: ModuleMap, seed: int) -> ModuleMap:
    """A uniformly random lift of f to the enlarged group."""
    big = lift_codomain(f.target)
    s = rng.stream(seed)
    orders = f.target.generator_orders
    big_orders = big.generator_orders
    cols = []
    for j in range(f.n):
        col = []
        for i in range(f.target.rank):
            step = orders[i]
            col.append(f.images[j].coords[i] + step * s.below(big_orders[i] // step))
        cols.append(tuple(col))
    return ModuleMap.from_matrix(f.target.exponent**2, big, cols)


def lifted_pairing_key(m: IntMatrix, f: ModuleMap, lift: ModuleMap):
    """Evaluate the lifted kernel equations; on success return the pairing
    numerators the lifted quadratic form forces, else None.

    The two diagonal scalings (by p^(2*lam1 - lam_i) and p^(lam1 - lam_i))
    fold into the congruences below.  The key is {p: {(i, j): a_ij}} with
    i <= j, matching the dual-Gram numerator convention.
    """
    group = f.target
    if lift.target != lift_codomain(group):
        raise NotALift("lift has the wrong codomain")
    n = f.n
    for p, lam in group.types:
        far = f.block(p)
        big = lift.block(p)
        for i, e in enumerate(lam):
            pi = p**e
            for j in range(n):
                if (big[i][j] - far[i][j]) % pi:
                    raise NotALift(f"lift disagrees with map mod {p}^{e}")
    key = {}
    for p, lam in group.types:
        r = len(lam)
        lam1 = lam[0]
        mod = p ** (2 * lam1)
        mm = [[x % mod for x in row] for row in m.data]
        big = lift.block(p)
        fm = [
            [sum(big[i][k] * mm[k][l] for k in range(n)) % mod for l in range(n)]
            for i in range(r)
        ]
        for i in range(r):
            scale = p ** (2 * lam1 - lam[i])
            for l in range(n):
                if scale * fm[i][l] % mod:
                    return None
        nums = {}
        for i in range(r):
            for j in range(i, r):
                lhs = (
                    p ** (2 * lam1 - lam[i] - lam[j])
                    * sum(fm[i][l] * big[j][l] for l in range(n))
                    % mod
                )
                # the kernel equations force divisibility by p^(2*lam1 - lam_j)
                step = p ** (2 * lam1 - lam[j])
                if lhs % step:
                    return None
                nums[(i, j)] = lhs // step % p ** lam[j]
        key[p] = nums
    return key


def lifted_equation_check(
    m: IntMatrix,
    f: ModuleMap,
    lift: ModuleMap,
    target_dual_gram: PairingGram,
) -> bool:
    """Whether the lifted kernel equations hold and the lifted quadratic
    form matches the symmetric element encoding the target pairing.  Must
    agree with the unlifted congruences for every input."""
    key = lifted_pairing_key(m, f, lift)
    if key is None:
        return False
    group = f.target
    for p, _ in group.types:
        if key[p] != dual_gram_numerators(group, target_dual_gram, p):
            return False
    return True


# ---------------------------------------------------------------------------
# the tensored quotient of a sampled matrix


def tensor_quotient_with_dual_pairing(
    m: IntMatrix, b: int, zero_sum: bool = False
) -> tuple[FinAbGroup, PairingGram]:
    """The cokernel-type quotient tensored with Z/b, with the pairing on its
    dual.  With zero_sum=True the quotient is taken inside the zero-sum
    sublattice (the sandpile convention for Laplacians): the presentation
    drops the last row and the pairing contracts to the leading block."""
    from .arith import factorint

    if zero_sum:
        pres = [list(row[:]) for row in m.data[:-1]]
        sym = [list(row[: m.cols - 1]) for row in m.data[:-1]]
    else:
        pres = [list(row) for row in m.data]
        sym = pres
    group = FinAbGroup.trivial()
    blocks = {}
    for p, k in factorint(b).items():
        lam, block = quotient_dual_pairing(pres, sym, p, k)
        if lam is None:
            continue
        part = FinAbGroup.from_prime_types({p: lam})
        group = group.direct_sum(part)
        blocks[p] = block
    gram = gram_from_scaled_blocks(group, blocks)
    return group, gram
