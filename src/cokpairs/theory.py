"""Closed-form predictions and brute-force checkers for the structural
combinatorics behind the distribution results.

The predicted frequency of a pair class (G, delta) at primes P is

    prod_{p in P} prod_{k>=1} (1 - p^(1-2k))  /  (|G| * |Aut(G, delta)|)

with the infinite products truncated and bounded rigorously.  The rest of
the module verifies, by exhaustive enumeration at small sizes, the counting
facts the distribution proof leans on: special coefficient pairs number
|Sym^2 H| / |G|, lifts of codes are codes, and depth-one maps are codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import prod

from . import rng
from .arith import factorint, is_prime, partitions
from .errors import BudgetExceeded
from .groups import HOM_BUDGET, FinAbGroup, _rank_mod_p
from .modmaps import ModuleMap
from .moments import lift_codomain, random_lift
from .pairings import (
    PairClassId,
    PairedGroup,
    pairing_class_table,
)


def _to_decimal(fr: Fraction, digits: int = 12) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(fr.numerator) / Decimal(fr.denominator)


def cl_constant_exact(p: int, truncation: int) -> Fraction:
    """Partial product prod_{k=1}^{K} (1 - p^(1-2k)), exact."""
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

    def as_float(self) -> float:
        return float(self.probability)


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
    from .pairings import aut_preserving_count, canonical_pair_class

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
    bad = [p for p in primes if not is_prime(p)]
    if bad:
        raise ValueError(f"not primes: {bad}")

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

    seen = set()
    out = []
    for types in rec(0, order_bound):
        g = FinAbGroup.from_prime_types(types)
        if g.types not in seen:
            seen.add(g.types)
            out.append(g)
    out.sort(key=lambda g: (g.order, g.text()))
    return out


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


def code_distance(f: ModuleMap, max_subset: int | None = None) -> int:
    """Largest w such that deleting any w-1 basis vectors keeps f onto.

    0 means f is not even surjective.  Searches deleted sets by increasing
    size with early exit; for a trivial target every restriction is onto
    and the distance is n + 1.
    """
    if not f.surjective_avoiding(frozenset()):
        return 0
    top = f.n if max_subset is None else min(f.n, max_subset)
    for size in range(1, top + 1):
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


def _census_weights(p: int, lam: tuple[int, ...], fmat):
    """Quadratic weights: for each cell (i <= j) the vector over dcells
    (x <= y) multiplying D_xy, all mod p^(2*lam1)."""
    r = len(lam)
    lam1 = lam[0]
    mod = p ** (2 * lam1)
    n = len(fmat[0]) if r else 0
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    dcells = [(x, y) for x in range(r) for y in range(x, r)]
    weights = {}
    for (i, j) in cells:
        vec = []
        for (x, y) in dcells:
            scale = p ** (2 * lam1 - lam[x] - lam[y])
            if i == j:
                w = scale * fmat[x][i] * fmat[y][i]
            else:
                w = scale * (fmat[x][i] * fmat[y][j] + fmat[y][i] * fmat[x][j])
            vec.append(w % mod)
        weights[(i, j)] = vec
    return cells, dcells, weights


def coefficient_table(lift: ModuleMap, c_digits: dict, d_matrices: dict) -> CoefficientTable:
    """E_ij for an explicit (C, D) pair.

    c_digits[p] is an n x r digit matrix (digit t means the functional value
    t * p^(2*lam1 - lam_m) on the m-th embedded generator); d_matrices[p] is
    the upper-triangular representative, entries mod p^(2*lam1).
    """
    big = lift.target
    n = lift.n
    entries: dict = {}
    for (i, j) in [(i, j) for i in range(n) for j in range(i, n)]:
        entries[(i, j)] = {}
    for p, big_lam in big.types:
        lam = tuple(e // 2 for e in big_lam)
        r = len(lam)
        lam1 = lam[0]
        mod = p ** (2 * lam1)
        fmat = lift.block(p)
        cd = c_digits.get(p, [[0] * r for _ in range(n)])
        dm = d_matrices.get(p, [[0] * r for _ in range(r)])
        cells, dcells, weights = _census_weights(p, lam, fmat)
        cvals = [
            [cd[jj][m] * p ** (2 * lam1 - lam[m]) % mod for m in range(r)]
            for jj in range(n)
        ]
        dvec = [dm[x][y] % mod for (x, y) in dcells]
        for (i, j) in cells:
            if i == j:
                lin = sum(fmat[m][i] * cvals[i][m] for m in range(r))
            else:
                lin = sum(
                    fmat[m][i] * cvals[j][m] + fmat[m][j] * cvals[i][m] for m in range(r)
                )
            quad = sum(d * w for d, w in zip(dvec, weights[(i, j)]))
            entries[(i, j)][p] = (lin + quad) % mod
    return CoefficientTable(n, entries)


@dataclass(frozen=True)
class CensusResult:
    kernel_size: int
    predicted: int
    pairing_checks: int          # (special pair, pairing data) combinations checked
    d_of_a_failures: int         # violations of D(-A) = 0 on special pairs
    min_nonzero_nonspecial: int | None


def special_pair_census(
    f: ModuleMap,
    lift: ModuleMap | None = None,
    seed: int = 0,
    space_budget: int = 10**7,
    collect_min_nonzero: bool = False,
) -> CensusResult:
    """Exhaustively enumerate coefficient pairs (C, D) for a lift of the
    surjection f, count those whose coefficients all vanish, and check the
    predicted count |Sym^2 H| / |G| together with D(-A) = 0 on each.

    The census runs per prime (the spaces are independent across primes);
    kernel sizes multiply.
    """
    group = f.target
    if lift is None:
        lift = random_lift(f, rng.stream(seed).u64())
    if lift.target != lift_codomain(group):
        raise ValueError("lift has the wrong codomain")
    big_ok = all(
        _rank_mod_p([[x % p for x in row] for row in lift.block(p)], p) == len(lam)
        for p, lam in group.types
    )
    if not big_ok:
        raise ValueError("census requires a surjective lift")

    n = f.n
    space = 1
    for p, lam in group.types:
        r = len(lam)
        space *= group.sylow({p}).order ** n * p ** (2 * lam[0] * r * (r + 1) // 2)
    if space > space_budget:
        raise BudgetExceeded(f"census space {space} exceeds budget {space_budget}")

    kernel_size = 1
    predicted = 1
    pairing_checks = 0
    d_of_a_failures = 0
    min_nonzero: int | None = None
    for p, lam in group.types:
        r = len(lam)
        lam1 = lam[0]
        mod = p ** (2 * lam1)
        fmat = lift.block(p)
        cells, dcells, weights = _census_weights(p, lam, fmat)
        gsize = p ** sum(lam)
        predicted_p = p ** (2 * lam1 * r * (r + 1) // 2) // gsize
        predicted *= predicted_p

        c_digit_ranges = [range(p ** lam[m]) for m in range(r)]
        c_space = list(itertools.product(*[
            itertools.product(*c_digit_ranges) for _ in range(n)
        ]))
        d_space = list(itertools.product(*[range(mod) for _ in dcells]))

        # pairing data tuples a_xy (x <= y), each mod p^lam_y, for D(-A) checks
        a_space = list(itertools.product(*[range(p ** lam[y]) for (x, y) in dcells]))

        kernel_p = 0
        for c_rows in c_space:
            cvals = [
                [c_rows[jj][m] * p ** (2 * lam1 - lam[m]) % mod for m in range(r)]
                for jj in range(n)
            ]
            lin = {}
            for (i, j) in cells:
                if i == j:
                    lin[(i, j)] = sum(fmat[m][i] * cvals[i][m] for m in range(r)) % mod
                else:
                    lin[(i, j)] = (
                        sum(fmat[m][i] * cvals[j][m] + fmat[m][j] * cvals[i][m] for m in range(r))
                        % mod
                    )
            for dvec in d_space:
                nonzero = 0
                for cell in cells:
                    w = weights[cell]
                    e = (lin[cell] + sum(d * ww for d, ww in zip(dvec, w))) % mod
                    if e:
                        nonzero += 1
                        if not collect_min_nonzero:
                            break
                if nonzero == 0:
                    kernel_p += 1
                    # D(-A) = 0 for every pairing assignment
                    for avec in a_space:
                        pairing_checks += 1
                        tot = 0
                        for (x, y), d, va in zip(dcells, dvec, avec):
                            tot += p ** (2 * lam1 - lam[y]) * va * d
                        if tot % mod:
                            d_of_a_failures += 1
                elif collect_min_nonzero:
                    if min_nonzero is None or nonzero < min_nonzero:
                        min_nonzero = nonzero
        kernel_size *= kernel_p

    return CensusResult(kernel_size, predicted, pairing_checks, d_of_a_failures, min_nonzero)


# ---------------------------------------------------------------------------
# robust / weak classifier (diagnostic for the census)


def is_robust(lift: ModuleMap, c_map: ModuleMap, gamma: Fraction) -> bool:
    """Whether (C, D) is robust for the lift: on every restriction avoiding
    fewer than gamma*n coordinates, the kernel of (lift, C) is a proper
    subset of the kernel of the lift alone.  D plays no role.

    gamma has no pinned default; callers must choose it.
    """
    if c_map.n != lift.n:
        raise ValueError("C must be defined on the same basis")
    n = lift.n
    joint_target = lift.target.direct_sum(c_map.target)
    joint = ModuleMap.from_matrix(
        lift.modulus,
        joint_target,
        [
            tuple(lift.images[j].coords) + tuple(c_map.images[j].coords)
            for j in range(n)
        ],
    )
    from .groups import subgroup_order

    for size in range(0, n + 1):
        if Fraction(size) >= gamma * n:
            break
        for sigma in itertools.combinations(range(n), size):
            ex = frozenset(sigma)
            gens_lift = [lift.images[j] for j in range(n) if j not in ex]
            gens_joint = [joint.images[j] for j in range(n) if j not in ex]
            if subgroup_order(joint_target, gens_joint) <= subgroup_order(lift.target, gens_lift):
                return False  # kernels coincide on this restriction: weak
    return True
