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

import functools
import itertools
import operator

from . import rng
from .arith import factorint
from .ensembles import quotient_dual_pairing, symmetric_array
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
    block = gram.scaled_block(p)
    return {
        (a, b): block[a][b] // p ** (lam[0] - lam[b])
        for a in range(len(lam))
        for b in range(a, len(lam))
    }


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
        if _rank_mod_p(f, p) < r:
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


# ---------------------------------------------------------------------------
# lifted equations


def lift_codomain(group: FinAbGroup) -> FinAbGroup:
    """The enlarged group with doubled top exponent: one generator of order
    p^(2*lam1) per generator of the p-block."""
    return _lift_plan(group)[0]


@functools.lru_cache(maxsize=64)
def _lift_plan(group: FinAbGroup):
    """What the lifted route needs of a target G, worked out once.

    Returns (codomain, modulus, steps, spans, blocks): the enlarged codomain
    (see lift_codomain) and the lift's modulus exp(G)^2; each generator's
    order and its number of lifts; and per prime (p, p^(2*lam1), rows),
    where row i is (g_i, p^lam_i, pairs), g_i the flat index of the block's
    generator i, and pairs holds for each j >= i the tuple
    (g_j, (i, j), p^(2*lam1 - lam_i - lam_j), p^(2*lam1 - lam_j), p^lam_j).
    """
    big = FinAbGroup.from_prime_types({p: tuple(2 * lam[0] for _ in lam) for p, lam in group.types})
    steps = group.generator_orders
    spans = tuple(b // s for s, b in zip(steps, big.generator_orders))
    blocks = []
    for p, lam in group.types:
        top, gens = 2 * lam[0], group.generator_indices(p)
        rows = []
        for i, e in enumerate(lam):
            pairs = tuple(
                (gens[j], (i, j), p ** (top - e - x), p ** (top - x), p**x)
                for j, x in enumerate(lam)
                if j >= i
            )
            rows.append((gens[i], p**e, pairs))
        blocks.append((p, p**top, tuple(rows)))
    return big, group.exponent**2, steps, spans, tuple(blocks)


def random_lift(f: ModuleMap, seed: int) -> ModuleMap:
    """A uniformly random lift of f to the enlarged group, drawn column by
    column, coordinate by coordinate."""
    big, modulus, steps, spans, _ = _lift_plan(f.target)
    below = rng.stream(seed).below
    columns = [[c + s * below(k) for c, s, k in zip(col, steps, spans)] for col in f.columns]
    return ModuleMap(modulus, big, columns)


def lifted_pairing_key(m: IntMatrix, f: ModuleMap, lift: ModuleMap):
    """Evaluate the lifted kernel equations; on success return the pairing
    numerators the lifted quadratic form forces, else None.  m must be the
    symmetric n x n matrix of f's domain (else ValueError or NotSymmetric)
    and lift a lift of f (else NotALift).

    The two diagonal scalings (by p^(2*lam1 - lam_i) and p^(lam1 - lam_i))
    fold into the congruences below.  The key is {p: {(i, j): a_ij}} with
    i <= j, matching the dual-Gram numerator convention.  Row i of the
    lifted f.m is formed only once the rows before it have passed.
    """
    n, rows, cols = f.n, m.data, lift.columns
    if m.rows != n or m.cols != n:
        raise ValueError(f"m is {m.rows} x {m.cols}, the map has {n} basis vectors")
    if not m.is_symmetric():
        raise NotSymmetric("lifted equations need a symmetric matrix")
    big, _, steps, _, blocks = _lift_plan(f.target)
    if lift.target != big or len(cols) != n:
        raise NotALift("lift has the wrong domain or codomain")
    for c, fc in zip(cols, f.columns):
        if tuple(map(operator.mod, c, steps)) != fc:
            raise NotALift("lift disagrees with the map modulo the target's orders")
    # row g holds generator g's coordinates of the lift (empty rows when n = 0)
    lifted = list(zip(*cols)) or [()] * len(steps)
    key = {}
    for p, mod, eqs in blocks:
        nums = {}
        for g, order, pairs in eqs:
            # row l of the symmetric m is its column l
            fm = [sum(map(operator.mul, lifted[g], m_row)) % mod for m_row in rows]
            # p^(2*lam1 - lam_i) * fm = 0 mod p^(2*lam1), i.e. p^lam_i | fm
            if any(x % order for x in fm):
                return None
            for h, ij, top, step, radix in pairs:
                lhs = top * sum(map(operator.mul, fm, lifted[h])) % mod
                # the kernel equations force divisibility by p^(2*lam1 - lam_j)
                if lhs % step:
                    return None
                nums[ij] = lhs // step % radix
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
    m, b: int, zero_sum: bool = False
) -> tuple[FinAbGroup, PairingGram]:
    """The cokernel-type quotient of the symmetric m (an IntMatrix or a
    square integer array) tensored with Z/b, with the pairing on its dual.
    With zero_sum=True the quotient is taken inside the zero-sum sublattice
    (the sandpile convention for Laplacians): the presentation drops the
    last row and the pairing contracts to the leading block."""
    a = symmetric_array(m, "tensor_quotient_with_dual_pairing")
    pres = a[:-1] if zero_sum else a
    types, blocks = {}, {}
    for p, k in factorint(b).items():
        types[p], blocks[p] = quotient_dual_pairing(pres, p, k)
    group = FinAbGroup.from_prime_types(types)
    return group, gram_from_scaled_blocks(group, blocks)
