"""Closed-form predictions and brute-force checkers for the structural
combinatorics behind the distribution results.

The predicted frequency of a pair class (G, delta) at primes P is

    prod_{p in P} prod_{k>=1} (1 - p^(1-2k))  /  (|G| * |Aut(G, delta)|)

with the infinite products truncated and bounded rigorously.  The rest of
the module verifies, by exhaustive enumeration at small sizes, the counting
facts the distribution proof leans on: special coefficient pairs number
|Sym^2 H| / |G| (a census in exact int64 products), lifts of codes are
codes, and depth-one maps are codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import prod

import numpy as np

from . import rng
from .arith import factorint, partitions, require_prime
from .errors import BudgetExceeded, NotALift
from .groups import HOM_BUDGET, FinAbGroup, subgroup_order
from .modmaps import ModuleMap
from .moments import lift_codomain, random_lift
from .pairings import (
    PairClassId,
    PairedGroup,
    aut_preserving_count,
    canonical_pair_class,
    pairing_class_table,
)


def _to_decimal(fr: Fraction, digits: int = 12) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(fr.numerator) / Decimal(fr.denominator)


def cl_constant_exact(p: int, truncation: int) -> Fraction:
    """Partial product prod_{k=1}^{K} (1 - p^(1-2k)), exact; p must be prime."""
    require_prime(p)
    acc = Fraction(1)
    for k in range(1, truncation + 1):
        acc *= 1 - Fraction(1, p ** (2 * k - 1))
    return acc


def cl_constant(p: int, truncation: int, method: str = "exact") -> tuple[Decimal, Decimal]:
    """(value, tail_bound): the normalization constant truncated at K factors.

    The dropped tail satisfies 1 - prod_{k>K}(1 - p^(1-2k)) <= 2 p^(-1-2K).
    method="decimal_reverse" re-evaluates with 34-digit decimals in reverse
    factor order, an independent path for cross-checking the rounding.
    """
    require_prime(p)
    if truncation < 1:
        raise ValueError("need at least one factor")
    tail = _to_decimal(Fraction(2, p ** (2 * truncation + 1)))
    if method == "exact":
        return _to_decimal(cl_constant_exact(p, truncation)), tail
    if method == "decimal_reverse":
        with localcontext() as ctx:
            ctx.prec = 34
            acc = Decimal(1)
            for k in range(truncation, 0, -1):
                acc *= 1 - Decimal(1) / Decimal(p) ** (2 * k - 1)
        with localcontext() as ctx:
            ctx.prec = 12
            return +acc, tail
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ClpPrediction:
    target: PairClassId
    probability: Decimal
    error_bound: Decimal


DEFAULT_TRUNCATION = 40


def clp_probability(
    target: PairedGroup,
    primes,
    truncation: int = DEFAULT_TRUNCATION,
    budget: int = HOM_BUDGET,
) -> ClpPrediction:
    """Predicted asymptotic frequency of the class of `target` at `primes`.

    Degenerate pairings get probability exactly 0.
    """
    primes = sorted(set(primes))
    bad = [p for p in target.group.primes if p not in primes]
    if bad:
        raise ValueError(f"target has primes {bad} outside the tracked set")
    cid = canonical_pair_class(target, budget)
    if not target.perfect:
        return ClpPrediction(cid, Decimal(0), Decimal(0))
    const = Fraction(1)
    tail_sum = Fraction(0)
    for p in primes:
        const *= cl_constant_exact(p, truncation)
        tail_sum += Fraction(2, p ** (2 * truncation + 1))
    denom = target.group.order * aut_preserving_count(target, budget)
    value = const / denom
    return ClpPrediction(cid, _to_decimal(value), _to_decimal(value * tail_sum))


def groups_at_primes(primes, order_bound: int):
    """All groups supported on `primes` with order <= order_bound (trivial first)."""
    primes = sorted(set(primes))
    for p in primes:
        require_prime(p)

    def rec(i, bound):
        if i == len(primes):
            yield {}
            return
        p = primes[i]
        size = 0
        q = 1
        choices = [((), 1)]
        while q * p <= bound:
            q *= p
            size += 1
            for lam in partitions(size):
                choices.append((lam, q))
        for lam, used in choices:
            for rest in rec(i + 1, bound // used):
                out = dict(rest)
                if lam:
                    out[p] = lam
                yield out

    groups = map(FinAbGroup.from_prime_types, rec(0, order_bound))
    return sorted(groups, key=lambda g: (g.order, g.text()))


@dataclass(frozen=True)
class MassCheckRow:
    group_text: str
    class_text: str
    probability: float


@dataclass(frozen=True)
class MassCheckResult:
    value: float
    rows: tuple[MassCheckRow, ...]
    skipped: tuple[str, ...]  # groups whose class enumeration exceeded budget
    order_bound: int

    @property
    def tail_note(self) -> str:
        return (
            f"classes with |G| > {self.order_bound} unexplored; "
            f"skipped over budget: {', '.join(self.skipped) if self.skipped else 'none'}"
        )


def mass_check(
    primes,
    order_bound: int,
    truncation: int = DEFAULT_TRUNCATION,
    budget: int = HOM_BUDGET,
) -> MassCheckResult:
    """Sum of predicted class frequencies over all (group, perfect pairing)
    classes with |G| <= order_bound.  Monotone in the bound; the full sum
    over all classes is 1, so this approaches 1 from below."""
    primes = sorted(set(primes))
    const = prod(float(cl_constant_exact(p, truncation)) for p in primes)
    rows = []
    skipped = []
    total = 0.0
    for g in groups_at_primes(primes, order_bound):
        try:
            table = pairing_class_table(g, perfect_only=True, budget=budget)
        except BudgetExceeded:
            skipped.append(g.text())
            continue
        for info in table:
            prob = const / (g.order * info.aut_preserving)
            rows.append(MassCheckRow(g.text(), info.class_id.text, prob))
            total += prob
    return MassCheckResult(total, tuple(rows), tuple(skipped), order_bound)


# ---------------------------------------------------------------------------
# codes and depth


def code_distance(f: ModuleMap) -> int:
    """Largest w such that deleting any w-1 basis vectors keeps f onto.

    0 means f is not even surjective.  Searches deleted sets by increasing
    size with early exit; for a trivial target every restriction is onto
    and the distance is n + 1.
    """
    if not f.surjective_avoiding(frozenset()):
        return 0
    for size in range(1, f.n + 1):
        for sigma in itertools.combinations(range(f.n), size):
            if not f.surjective_avoiding(frozenset(sigma)):
                return size
    return f.n + 1


def subgroup_index_ell(d: int) -> int:
    """l(D) = sum of prime exponents of D."""
    return sum(factorint(d).values()) if d > 1 else 0


def depth(f: ModuleMap, delta: Fraction) -> int:
    """Maximal index D = [G : f(V_sigma)] achievable with |sigma| < l(D)*delta*n.

    Returns 1 when no deleted set achieves a proper index within its size
    allowance; in that case f is a code of distance delta*n.
    """
    delta = Fraction(delta)
    ell_g = subgroup_index_ell(f.target.order)
    if not (0 < delta and (ell_g == 0 or delta < Fraction(1, ell_g))):
        raise ValueError("delta must lie in (0, 1/l(|G|))")
    best = 1
    for size in range(0, f.n + 1):
        for sigma in itertools.combinations(range(f.n), size):
            d = f.image_index_avoiding(frozenset(sigma))
            if d > 1 and Fraction(size) < subgroup_index_ell(d) * delta * f.n:
                best = max(best, d)
    return best


def lift_code_check(f: ModuleMap, trials: int, seed: int = 0) -> bool:
    """For random lifts of f to the doubled-exponent group, the code distance
    never drops.  Returns the conjunction over all trials."""
    w = code_distance(f)
    for t in range(trials):
        lifted = random_lift(f, rng.stream(seed, t).u64())
        if code_distance(lifted) < w:
            return False
    return True


# ---------------------------------------------------------------------------
# coefficient machinery for the special-pair census


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients E_ij of the matrix entries in the linearized kernel and
    pairing conditions, per prime: entries[(i, j)][p]."""

    n: int
    entries: dict

    def nonzero_cells(self) -> int:
        return sum(1 for v in self.entries.values() if any(v.values()))


def _coefficients(lift: ModuleMap, p: int, lam: tuple[int, ...]):
    """The p-part of E as exact int64 maps (mod, L, W): E = c.L + d.W mod
    p^(2*lam1) on the cells i <= j, row-major.  c is C's n x r digit matrix
    read row by row (digit t on the m-th embedded generator means the value
    t * p^(2*lam1 - lam_m)), d holds D's cells x <= y.  Every sum formed
    from L or W stays below max(r, dcells) * mod^2 = dcells * mod^2.
    """
    r, mod = len(lam), p ** (2 * lam[0])
    x, y = np.triu_indices(r)
    if len(x) * mod**2 >= 2**63:
        raise BudgetExceeded(f"coefficients mod {mod} overflow int64")
    f = np.array(lift.block(p), dtype=np.int64)
    i, j = np.triu_indices(f.shape[1])
    up = p ** (2 * lam[0] - np.array(lam))  # p^(2*lam1 - lam_m)
    w = (f[x][:, i] * f[y][:, j] % mod + (i != j) * (f[y][:, i] * f[x][:, j] % mod)) % mod
    w = w * (up[x] * up[y] // mod)[:, None] % mod
    k, m = np.arange(f.shape[1])[:, None, None], np.arange(r)[:, None]
    lin = up[m] * (f[m, i] * (k == j) + f[m, j] * ((k == i) & (i != j))) % mod
    return mod, lin.reshape(-1, len(i)), w


def coefficient_table(lift: ModuleMap, c_digits: dict, d_matrices: dict) -> CoefficientTable:
    """E_ij for an explicit (C, D) pair.

    c_digits[p] is an n x r digit matrix (digit t means the functional value
    t * p^(2*lam1 - lam_m) on the m-th embedded generator); d_matrices[p] is
    the upper-triangular representative, entries mod p^(2*lam1).
    """
    n = lift.n
    entries: dict = {(i, j): {} for i in range(n) for j in range(i, n)}
    for p, big_lam in lift.target.types:
        lam = tuple(e // 2 for e in big_lam)
        r = len(lam)
        mod, lin, w = _coefficients(lift, p, lam)
        c = np.array(c_digits.get(p, [[0] * r] * n), dtype=np.int64).reshape(-1) % p ** lam[0]
        d = np.array(d_matrices.get(p, [[0] * r] * r), dtype=np.int64)[np.triu_indices(r)] % mod
        for cell, e in zip(entries, ((c @ lin % mod + d @ w % mod) % mod).tolist()):
            entries[cell][p] = e
    return CoefficientTable(n, entries)


@dataclass(frozen=True)
class CensusResult:
    kernel_size: int
    predicted: int
    pairing_checks: int          # (special pair, pairing data) combinations checked
    d_of_a_failures: int         # violations of D(-A) = 0 on special pairs
    min_nonzero_nonspecial: int | None


def special_pair_census(
    f: ModuleMap, lift: ModuleMap | None = None, seed: int = 0, space_budget: int = 10**7
) -> CensusResult:
    """Exhaustively enumerate coefficient pairs (C, D) for a lift of the
    surjection f, count those whose coefficients all vanish, and check the
    predicted count |Sym^2 H| / |G| together with D(-A) = 0 on each.

    Per prime (kernel sizes multiply), E over the whole D space for one C
    is one comparison of -L(C) with the products D.W, which also gives the
    fewest nonzero cells of a non-special pair.
    """
    group = f.target
    if lift is None:
        lift = random_lift(f, rng.stream(seed).u64())
    if lift.target != lift_codomain(group) or ModuleMap(f.modulus, group, lift.columns) != f:
        raise NotALift("lift is not a lift of f to the enlarged group")
    if not lift.surjective_avoiding():
        raise ValueError("census requires a surjective lift")

    n, cells = f.n, f.n * (f.n + 1) // 2
    space = prod(p ** (n * sum(lam) + lam[0] * len(lam) * (len(lam) + 1)) for p, lam in group.types)
    if space > space_budget:
        raise BudgetExceeded(f"census space {space} exceeds budget {space_budget}")
    coefficients = [_coefficients(lift, p, lam) for p, lam in group.types]

    kernel_size = predicted = 1
    pairing_checks = d_of_a_failures = 0
    fewest = cells + 1  # fewest nonzero cells of a non-special pair, if any
    for (p, lam), (mod, lin, w) in zip(group.types, coefficients):
        r, lam_m = len(lam), np.array(lam)
        predicted *= p ** (lam[0] * r * (r + 1)) // p ** sum(lam)
        c_space = np.indices(np.tile(p**lam_m, n)).reshape(n * r, -1)
        d_space = np.indices((mod,) * len(w)).reshape(len(w), -1)
        neg_lin, dw = -(c_space.T @ lin) % mod, d_space.T @ w % mod
        hits = np.zeros(len(dw), dtype=np.int64)  # per D, the Cs with (C, D) special
        for row in neg_lin:
            count = np.count_nonzero(dw != row, axis=1)
            hits += count == 0
            fewest = min(fewest, int(count.min(initial=fewest, where=count > 0)))
        # D(-A) = sum_{x <= y} p^(2*lam1 - lam_y) a_xy d_xy over the pairing
        # data a_xy mod p^lam_y, on the D rows of special pairs only
        a_radix = p ** lam_m[np.triu_indices(r)[1]]
        a_space = np.indices(a_radix).reshape(len(w), -1) * (mod // a_radix)[:, None]
        hit = np.flatnonzero(hits)
        failing = np.count_nonzero(d_space[:, hit].T @ a_space % mod, axis=1)
        d_of_a_failures += int(hits[hit] @ failing)
        kernel_size *= int(hits.sum())
        pairing_checks += int(hits.sum()) * a_space.shape[1]
    least = fewest if fewest <= cells else None
    return CensusResult(kernel_size, predicted, pairing_checks, d_of_a_failures, least)


# ---------------------------------------------------------------------------
# robust / weak classifier (diagnostic for the census)


def is_robust(lift: ModuleMap, c_map: ModuleMap, gamma: Fraction) -> bool:
    """Whether (C, D) is robust for the lift: on every restriction avoiding
    fewer than gamma*n coordinates, the kernel of (lift, C) is a proper
    subset of the kernel of the lift alone.  D plays no role.

    gamma has no pinned default; callers must choose it.
    """
    if c_map.n != lift.n or lift.modulus % c_map.target.exponent:
        raise ValueError("C must be defined on the same basis")
    n = lift.n
    joint_target = lift.target.direct_sum(c_map.target)
    # direct_sum orders generators prime by prime, exponents descending,
    # the lift's before C's on a tie: place each coordinate on its generator
    gens = lift.target.generators + c_map.target.generators
    order = sorted(range(len(gens)), key=lambda k: (gens[k][0], -gens[k][1], k))
    joint_columns = [[(a + b)[k] for k in order] for a, b in zip(lift.columns, c_map.columns)]

    for size in range(0, n + 1):
        if Fraction(size) >= gamma * n:
            break
        for sigma in itertools.combinations(range(n), size):
            keep = [j for j in range(n) if j not in sigma]
            joint_kept = [joint_columns[j] for j in keep]
            lift_kept = [lift.columns[j] for j in keep]
            if subgroup_order(joint_target, joint_kept) <= subgroup_order(lift.target, lift_kept):
                return False  # kernels coincide on this restriction: weak
    return True
