"""Finite abelian groups by per-prime type, with hom and surjection enumeration.

A group is stored as a map prime -> partition (weakly decreasing positive
exponents).  The canonical generator order is primes ascending, partition
parts descending; every coordinate-based object in the package (elements,
homs, pairing grams) uses that order.  Free parts of cokernels are never
stored here; a free rank travels alongside as a plain integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import mod, mul

from .arith import factorint
from .errors import BudgetExceeded

HOM_BUDGET = 10**7


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group as ((p, (lam_1 >= lam_2 >= ...)), ...), primes ascending.
    Derived invariants are cached; ==, hash, repr and pickles see `types` alone."""

    types: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.types]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("primes must be ascending and distinct")
        for _, lam in self.types:
            if not lam:
                raise ValueError("empty partition block; drop the prime instead")
            if any(a <= 0 for a in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
                raise ValueError(f"partition must be weakly decreasing and positive: {lam}")

    def __reduce__(self):
        return FinAbGroup, (self.types,)

    @staticmethod
    def trivial() -> "FinAbGroup":
        return FinAbGroup(())

    @staticmethod
    def from_prime_types(types: dict[int, tuple[int, ...]]) -> "FinAbGroup":
        items = tuple(
            (p, tuple(sorted(lam, reverse=True))) for p, lam in sorted(types.items()) if lam
        )
        return FinAbGroup(items)

    @staticmethod
    def from_orders(orders) -> "FinAbGroup":
        """Build from cyclic factor orders, e.g. [2, 4, 3] -> Z/2 + Z/4 + Z/3."""
        acc: dict[int, list[int]] = {}
        for o in orders:
            if o <= 0:
                raise ValueError("cyclic orders must be positive")
            if o == 1:
                continue
            for p, e in factorint(o).items():
                acc.setdefault(p, []).append(e)
        return FinAbGroup.from_prime_types({p: tuple(es) for p, es in acc.items()})

    @cached_property
    def generators(self) -> tuple[tuple[int, int], ...]:
        """Canonical generator list as (prime, exponent) pairs."""
        return tuple((p, e) for p, lam in self.types for e in lam)

    @cached_property
    def generator_orders(self) -> tuple[int, ...]:
        return tuple(p**e for p, e in self.generators)

    @cached_property
    def rank(self) -> int:
        return sum(len(lam) for _, lam in self.types)

    @cached_property
    def order(self) -> int:
        return prod(p ** sum(lam) for p, lam in self.types)

    @cached_property
    def exponent(self) -> int:
        return prod(p ** lam[0] for p, lam in self.types)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.types)

    def partition(self, p: int) -> tuple[int, ...]:
        for q, lam in self.types:
            if q == p:
                return lam
        return ()

    def sylow(self, primes) -> "FinAbGroup":
        keep = set(primes)
        return FinAbGroup(tuple((p, lam) for p, lam in self.types if p in keep))

    def generator_indices(self, p: int) -> range:
        """Positions of the p-block inside the flat generator list."""
        start = 0
        for q, lam in self.types:
            if q == p:
                return range(start, start + len(lam))
            start += len(lam)
        return range(start, start)

    def tensor_with_cyclic(self, b: int) -> "FinAbGroup":
        """Invariant factors gcd'd with b (tensor with Z/b)."""
        if b <= 0:
            raise ValueError("b must be positive")
        return FinAbGroup.from_orders(gcd(o, b) for o in self.generator_orders)

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        acc: dict[int, list[int]] = {p: list(lam) for p, lam in self.types}
        for p, lam in other.types:
            acc.setdefault(p, []).extend(lam)
        return FinAbGroup.from_prime_types({p: tuple(v) for p, v in acc.items()})

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def text(self) -> str:
        if not self.types:
            return "1"
        return "+".join(f"Z/{p**e}" for p, e in self.generators)

    def __str__(self) -> str:
        return self.text()


def parse_group(text: str) -> FinAbGroup:
    """Parse "Z/2+Z/4+Z/3" (any cyclic orders; normalized to per-prime types)."""
    text = text.strip()
    if text in ("1", "0", ""):
        return FinAbGroup.trivial()
    orders = []
    for piece in text.split("+"):
        piece = piece.strip()
        if not piece.startswith("Z/"):
            raise ValueError(f"bad group token: {piece!r}")
        orders.append(int(piece[2:]))
    return FinAbGroup.from_orders(orders)


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        orders = self.group.generator_orders
        if len(self.coords) != len(orders):
            raise ValueError("coordinate length does not match group rank")
        object.__setattr__(self, "coords", tuple(map(mod, self.coords, orders)))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * c for c in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        out = 1
        for c, o in zip(self.coords, self.group.generator_orders):
            out = out * (o // gcd(o, c)) // gcd(out, o // gcd(o, c))
        return out


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism stored as its coordinate columns: column a holds the
    target coordinates of the image of source generator a, each reduced
    mod its target generator order."""

    source: FinAbGroup
    target: FinAbGroup
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        orders = self.target.generator_orders
        if len(self.columns) != self.source.rank:
            raise ValueError("need one column per source generator")
        for col, o in zip(self.columns, self.source.generator_orders):
            if len(col) != len(orders):
                raise ValueError("column length does not match the target's rank")
            if any(c * o % t for c, t in zip(col, orders)):
                raise ValueError("not a well-defined homomorphism")
        object.__setattr__(self, "columns", tuple(tuple(map(mod, c, orders)) for c in self.columns))

    @property
    def images(self) -> tuple[GroupElement, ...]:
        return tuple(GroupElement(self.target, c) for c in self.columns)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Rows indexed by target generators, columns by source generators."""
        return tuple(tuple(c[i] for c in self.columns) for i in range(self.target.rank))

    def _image(self, coords) -> tuple[int, ...]:
        return tuple(sum(map(mul, coords, row)) for row in self.matrix())

    def apply(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise ValueError("element of the wrong group")
        return GroupElement(self.target, self._image(x.coords))

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner; inner maps into self.source."""
        if inner.target != self.source:
            raise ValueError("homs do not compose")
        return GroupHom(inner.source, self.target, tuple(map(self._image, inner.columns)))

    def is_surjective(self) -> bool:
        return _onto(self.target, self.columns)


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _onto(target: FinAbGroup, columns) -> bool:
    """Whether the coordinate columns generate target (Nakayama): for each
    prime p, the p-rows of the columns have full rank mod p.  A column of
    another prime's order is 0 in the p-rows, so it may be passed as well."""
    return all(
        _rank_mod_p([[col[i] for col in columns] for i in target.generator_indices(p)], p)
        == len(lam)
        for p, lam in target.types
    )


def hom_count(a: FinAbGroup, b: FinAbGroup) -> int:
    """|Hom(a, b)| = product over generator pairs of gcd of orders."""
    return prod(
        gcd(oa, ob) for oa in a.generator_orders for ob in b.generator_orders
    )


def enumerate_homs(a: FinAbGroup, b: FinAbGroup, budget: int = HOM_BUDGET):
    """Yield every homomorphism a -> b exactly once.

    Raises BudgetExceeded up front if |Hom(a, b)| > budget.
    """
    total = hom_count(a, b)
    if total > budget:
        raise BudgetExceeded(f"|Hom| = {total} exceeds budget {budget}")
    b_orders = b.generator_orders
    per_gen_choices = []
    for oa in a.generator_orders:
        cell_choices = []
        for ob in b_orders:
            g = gcd(oa, ob)
            step = ob // g
            cell_choices.append(tuple(t * step % ob for t in range(g)))
        per_gen_choices.append(cell_choices)
    flat = [c for cells in per_gen_choices for c in cells]
    r = b.rank
    for combo in itertools.product(*flat):
        yield GroupHom(a, b, tuple(combo[k * r : (k + 1) * r] for k in range(a.rank)))


def enumerate_surjections(a: FinAbGroup, b: FinAbGroup, budget: int = HOM_BUDGET):
    for f in enumerate_homs(a, b, budget):
        if f.is_surjective():
            yield f


def aut_order_of_type(p: int, lam: tuple[int, ...]) -> int:
    """|Aut| of the p-group of type lam (Hillar and Rhea, Amer. Math. Monthly
    114, 2007).  With the parts ascending, e_1 <= ... <= e_r, and 1-based
    d_k = max{m : e_m = e_k}, c_k = min{m : e_m = e_k}:

        prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (r - d_j))
                                 * prod_i p^((e_i - 1)(r - c_i + 1)).
    """
    e = sorted(lam)
    r = len(e)
    d = [max(m for m in range(r) if e[m] == x) + 1 for x in e]
    c = [min(m for m in range(r) if e[m] == x) + 1 for x in e]
    return (
        prod(p ** d[k] - p**k for k in range(r))
        * prod(p ** (e[j] * (r - d[j])) for j in range(r))
        * prod(p ** ((e[i] - 1) * (r - c[i] + 1)) for i in range(r))
    )


def aut_order(g: FinAbGroup, budget: int = HOM_BUDGET) -> int:
    """|Aut(g)|, the product of the closed form over the prime parts.  The
    budget is not used (nothing is enumerated); it is accepted so callers
    written for the enumerating count keep working."""
    return prod(aut_order_of_type(p, lam) for p, lam in g.types)


def construction_sizes(g: FinAbGroup) -> tuple[int, int, int]:
    """Sizes (|Sym_2 G|, |Sym^2 G|, |wedge^2 G|) of the invariant tensor square,
    the symmetric square, and the exterior square.

    Per prime with type lam: |Sym_2| = |Sym^2| = p^(sum_i i*lam_i) and
    |wedge^2| = p^(sum_i (i-1)*lam_i), indices starting at 1.
    """
    sym_lower = sym_upper = wedge = 1
    for p, lam in g.types:
        s = sum((i + 1) * e for i, e in enumerate(lam))
        w = sum(i * e for i, e in enumerate(lam))
        sym_lower *= p**s
        sym_upper *= p**s
        wedge *= p**w
    return sym_lower, sym_upper, wedge


def subgroup_order(ambient: FinAbGroup, columns) -> int:
    """Order of the subgroup generated by the coordinate columns, by closure
    per prime block."""
    total = 1
    for p, lam in ambient.types:
        idx = list(ambient.generator_indices(p))
        mods = [p ** e for e in lam]
        seen = {(0,) * len(idx)}
        frontier = [(0,) * len(idx)]
        gens_p = [tuple(col[i] for i in idx) for col in columns]
        gens_p = [t for t in gens_p if any(t)]
        while frontier:
            cur = frontier.pop()
            for gp in gens_p:
                nxt = tuple((c + d) % m for c, d, m in zip(cur, gp, mods))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        total *= len(seen)
    return total
