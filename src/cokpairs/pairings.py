"""Duality pairings on torsion cokernels of symmetric integer matrices.

The pairing on the torsion cokernel sends classes (t, t') to s^T m s' / (k k')
mod Z, where m s = k t and m s' = k' t' (the Bosch-Lorenzini construction).
With a Smith decomposition u m v = diag(d) the generator lifts can be taken
straight from the transforms, which collapses the whole computation to

    group side:  <g_i, g_j> = (v^T m v)_{ij} / (d_i d_j)  mod Z
    dual side :  <g^_i, g^_j> = (u m u^T)_{ij} / (d_i d_j)  mod Z

restricted to indices with d_i > 1.  A single Gram type serves pairings on a
group and on its dual; which side is meant is the caller's bookkeeping.
This exact path keeps both transforms and is the oracle the tests compare
the fast path against.  The fast path (`ensembles`) works mod p^(2k) and
takes both Grams from u m u^T: m is symmetric, so v^T m u^T = diag(d) too,
and the rows of u lift generators of the group as well as of its dual.

A PairingGram stores the integer scaled block of each prime part, its Gram
times p^lam1 mod p^lam1.  Classification, the perfectness test
(`_perfect_mask`), the text form, `pushforward` and the Sur* numerators all
read those blocks, so no trial builds a Fraction: parsing and this exact
path enter through `from_fractions`, and the `entry`, `gram` and
`evaluate` views return Q/Z values.

The class is the lexicographically minimal block over the orbit under
Aut(G_p), prime by prime.  Aut(G_p) is never listed.  On a cyclic p-part the
orbit of c is {u^2 c : u a unit}, and its minimum and stabilizer have closed
forms.  At rank >= 2 the orbit is the closure of the Gram under C -> x^T C x
for x in a fixed generating set of Aut(G_p): the transvections and the
diagonal unit generators, with their 2^k-th powers.  It is grown frontier by
frontier in numpy, each block identified by an int64 code whose order is the
lexicographic order of the blocks, and the stabilizer is |Aut(G_p)| /
|orbit| with |Aut(G_p)| from the Hillar-Rhea closed form
(`groups.aut_order_of_type`).  Each orbit is closed once, by `_class_of`, the
first time one of its members is met; every member is then indexed under
(canonical block, orbit size, stabilizer size), and class ids, class tables
and |Aut(G, pairing)| are all read from that index.

No floating point is used.  Codes stay below the number of symmetric blocks
(at most |End(G_p)|) and the orbit products below q^2, q = p^lam1; a type for
which either would reach 2^63 raises BudgetExceeded instead of wrapping.
|End(G)| is checked against the budget before the index is read, so whether
a call raises never depends on earlier calls.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import gcd, prod
from operator import mul

import numpy as np

from .arith import factorint
from .errors import BudgetExceeded, NotInDual, NotSymmetric
from .groups import HOM_BUDGET, FinAbGroup, GroupHom, aut_order_of_type, parse_group
from .intmat import IntMatrix, RationalVector, smith_normal_form


@dataclass(frozen=True)
class QmodZ:
    """Element of Q/Z as a reduced fraction in [0, 1)."""

    value: Fraction

    def __post_init__(self):
        f = Fraction(self.value)
        object.__setattr__(self, "value", f - (f.numerator // f.denominator))

    @staticmethod
    def of(num, den=1) -> "QmodZ":
        return QmodZ(Fraction(num, den))

    def __add__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ(self.value + other.value)

    def __neg__(self) -> "QmodZ":
        return QmodZ(-self.value)

    def scale(self, k: int) -> "QmodZ":
        return QmodZ(k * self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


@dataclass(frozen=True)
class PairingGram:
    """A symmetric pairing on a group, stored as one integer block per prime.

    blocks[k] belongs to the k-th prime p of group.types, of type lam: entry
    (a, b) is the pairing of the a-th and b-th generators of the p-part
    times p^lam1, reduced mod p^lam1.  Generators of two primes pair to 0,
    so those entries are not stored.  The `entry`, `gram` and `evaluate`
    views give Q/Z values over all generators.
    """

    group: FinAbGroup
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.group.types):
            raise ValueError("need one gram block per prime of the group")
        for (p, lam), blk in zip(self.group.types, self.blocks):
            if len(blk) != len(lam) or any(len(row) != len(lam) for row in blk):
                raise ValueError(f"gram block at p={p} must be {len(lam)} x {len(lam)}")
            for (i, a), (j, b) in itertools.product(enumerate(lam), repeat=2):
                x = blk[i][j]
                if x != blk[j][i]:
                    raise ValueError("gram must be symmetric")
                q, step = p ** lam[0], p ** (lam[0] - min(a, b))
                if not (isinstance(x, int) and 0 <= x < q and x % step == 0):
                    raise ValueError(f"entry ({i},{j}) at p={p} incompatible with generator orders")

    @staticmethod
    def from_fractions(group: FinAbGroup, rows) -> "PairingGram":
        """The pairing with this Gram over all generators (rationals mod Z)."""
        vals = [[Fraction(x) for x in row] for row in rows]
        places = _places(group)
        if len(vals) != len(places) or any(len(row) != len(places) for row in vals):
            raise ValueError("gram shape does not match group rank")
        tops = [p ** lam[0] for p, lam in group.types]
        for (k, _), row in zip(places, vals):
            for (l, _), x in zip(places, row):
                if (x * tops[k] if k == l else x).denominator != 1:
                    raise ValueError(f"entry {x} incompatible with generator orders")
        spans = [(p, q, group.generator_indices(p)) for (p, _), q in zip(group.types, tops)]
        scaled = {p: [[vals[i][j] * q for j in idx] for i in idx] for p, q, idx in spans}
        return gram_from_scaled_blocks(group, scaled)

    def _pairs(self) -> list[list[tuple[int, int]]]:
        """Each entry over all generators as (n, q), value n/q, row by row."""
        places = _places(self.group)
        tops = [p ** lam[0] for p, lam in self.group.types]
        return [
            [(self.blocks[k][a][b], tops[k]) if k == l else (0, 1) for l, b in places]
            for k, a in places
        ]

    @property
    def gram(self) -> tuple[tuple[QmodZ, ...], ...]:
        return tuple(tuple(QmodZ.of(n, q) for n, q in row) for row in self._pairs())

    def entry(self, i: int, j: int) -> QmodZ:
        return QmodZ.of(*self._pairs()[i][j])

    def text(self) -> str:
        """Row-major entries over all generators as reduced num/den."""
        return ",".join(
            f"{n // gcd(n, q)}/{q // gcd(n, q)}" for row in self._pairs() for n, q in row
        )

    def scaled_block(self, p: int) -> tuple[tuple[int, ...], ...]:
        """The p-block as integers mod p^lam1 (common denominator p^lam1)."""
        return dict(zip(self.group.primes, self.blocks)).get(p, ())

    def evaluate(self, x_coords, y_coords) -> QmodZ:
        rows = zip(x_coords, self._pairs())
        terms = (Fraction(x * y * n, q) for x, row in rows for y, (n, q) in zip(y_coords, row))
        return QmodZ(sum(terms))


def _places(group: FinAbGroup) -> list[tuple[int, int]]:
    """(position of its prime in group.types, index in that block) per generator."""
    return [(k, a) for k, (_, lam) in enumerate(group.types) for a in range(len(lam))]


def gram_from_scaled_blocks(group: FinAbGroup, blocks: dict[int, tuple]) -> PairingGram:
    """The pairing with these per-prime scaled blocks, entries taken mod p^lam1."""
    tops = {p: p ** lam[0] for p, lam in group.types}
    reduced = (tuple(tuple(int(x) % q for x in row) for row in blocks[p]) for p, q in tops.items())
    return PairingGram(group, tuple(reduced))


@dataclass(frozen=True)
class PairedGroup:
    """A finite abelian group with a symmetric pairing on it."""

    group: FinAbGroup
    pairing: PairingGram

    def __post_init__(self):
        if self.pairing.group != self.group:
            raise ValueError("pairing is on a different group")

    @cached_property
    def perfect(self) -> bool:
        """Whether G -> dual(G) is bijective, computed on first access; each
        block is a batch of one of Python ints, so no entry can wrap."""
        return all(
            _perfect_mask(p, lam, np.array([blk], dtype=object))[0]
            for (p, lam), blk in zip(self.group.types, self.pairing.blocks)
        )

    def text(self) -> str:
        return f"{self.group.text()}|{self.pairing.text()}"


@dataclass(frozen=True)
class PairClassId:
    """Isomorphism class of (group, pairing): canonical representative + hash."""

    representative: PairedGroup
    text: str
    digest: str

    def __lt__(self, other: "PairClassId") -> bool:
        return self.text < other.text


# ---------------------------------------------------------------------------
# block codes, orbits by closure and the orbit index, per prime block


def _check_end_budget(p: int, lam: tuple[int, ...], budget: int) -> None:
    """Raise BudgetExceeded if |End| of the p-group of type lam exceeds budget."""
    total = prod(p ** min(a, b) for a in lam for b in lam)
    if total > budget:
        raise BudgetExceeded(f"|End| = {total} for p={p}, type {lam} exceeds budget {budget}")


def _perfect_mask(p: int, lam: tuple[int, ...], blocks: np.ndarray) -> np.ndarray:
    """Mask of the (N, r, r) batch of scaled blocks whose pairing is perfect.

    Row i of a block is divisible by p^(lam1 - lam_i); the block is perfect
    iff the quotient is invertible mod p.  That is decided by r steps of
    fraction-free elimination mod p: step t swaps a row with a nonzero entry
    in column t up to row t and replaces each row x below it by
    (a x - b y) mod p, y the pivot row, a its entry and b the entry of x in
    column t.  No inverse is taken and products stay below p^2.  Int64
    batches come from `_enumerate_blocks`, whose code bound keeps p below
    2^21 at r >= 2 (r = 1 forms no product); single Grams pass object arrays.
    """
    scale = np.array([p ** (lam[0] - e) for e in lam], dtype=blocks.dtype)
    m = blocks // scale[:, None] % p
    every = np.arange(len(m))
    ok = np.ones(len(m), dtype=bool)
    for t in range(len(lam)):
        piv = t + (m[:, t:, t] != 0).argmax(axis=1)
        ok &= m[every, piv, t] != 0
        m[every, t], m[every, piv] = m[every, piv], m[every, t]
        a = m[:, t, t, None, None]
        b = m[:, t + 1 :, t, None]
        m[:, t + 1 :] = (a * m[:, t + 1 :] - b * m[:, t, None]) % p
    return ok


@cache
def _cells(p: int, lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(rows, cols, radices, scales) of the upper cells i <= j in row-major
    order; cell (i, j) holds p^min(lam_i, lam_j) values spaced by p^(lam1 - min).

    A block's code is its mixed-radix number over these cells, first cell
    most significant, digit entry/scale.  Lower cells repeat earlier upper
    ones, so code order is the lexicographic order of the full block.  Codes
    stay below the number of symmetric blocks (at most |End|); a type for
    which that reaches 2^63 raises BudgetExceeded.
    """
    rows, cols = np.triu_indices(len(lam))
    mins = [min(lam[i], lam[j]) for i, j in zip(rows, cols)]
    radices = tuple(p**e for e in mins)
    if prod(radices) >= 2**63:
        raise BudgetExceeded(f"{prod(radices)} symmetric blocks overflow int64 codes")
    scales = tuple(p ** (lam[0] - e) for e in mins)
    return tuple(rows.tolist()), tuple(cols.tolist()), radices, scales


def _encode(p: int, lam: tuple[int, ...], blocks: np.ndarray) -> np.ndarray:
    """The codes of a batch of blocks, shape (N, r, r) -> (N,)."""
    rows, cols, radices, scales = _cells(p, lam)
    return np.ravel_multi_index(tuple((blocks[:, rows, cols] // scales).T), radices)


def _decode(p: int, lam: tuple[int, ...], codes: np.ndarray) -> np.ndarray:
    """The blocks of a batch of codes, shape (N,) -> (N, r, r)."""
    rows, cols, radices, scales = _cells(p, lam)
    vals = np.array(np.unravel_index(codes, radices), dtype=np.int64).T * scales
    r = len(lam)
    blocks = np.zeros((len(vals), r, r), dtype=np.int64)
    blocks[:, rows, cols] = vals
    blocks[:, cols, rows] = vals
    return blocks


def _enumerate_blocks(p: int, lam: tuple[int, ...]) -> np.ndarray:
    """All symmetric scaled blocks mod p^lam1 with compatible entry orders,
    shape (N, r, r), in code order: block k has code k."""
    return _decode(p, lam, np.arange(prod(_cells(p, lam)[2])))


def _unit_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators of the units mod p^e, each with its order.

    At odd p one primitive root: the least root g mod p, or g + p when
    g^(p-1) = 1 mod p^2, which then generates mod every power of p.  At
    p = 2, -1 and 5 for e >= 3, -1 for e = 2 and none for e = 1.
    """
    q = p**e
    if p == 2:
        return [(q - 1, 2)] * (e >= 2) + [(5, q // 4)] * (e >= 3)
    g = next(
        g for g in range(2, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in factorint(p - 1))
    )
    if pow(g, p - 1, p * p) == 1:
        g += p
    return [(g % q, q - q // p)]


def _generators(p: int, lam: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """A generating set of Aut(G_p) as (i, j, t), for x = I + t E_ij.

    The transvections I + p^max(lam_i - lam_j, 0) E_ij (i != j) and the
    diagonal unit generators (t = u - 1 on cell (i, i)), each with its 2^k-th
    powers below its order, so that the closure depth is logarithmic.  Entry
    (i, j) is a coefficient of g_i, so t lives mod p^lam_i.
    """
    gens = []
    for i, a in enumerate(lam):
        q = p**a
        for j, b in enumerate(lam):
            if i != j:
                t = p ** max(a - b, 0)
                gens += [(i, j, (t << k) % q) for k in range((q // t - 1).bit_length())]
        for u, order in _unit_generators(p, a):
            gens += [(i, i, pow(u, 2**k, q) - 1) for k in range((order - 1).bit_length())]
    return gens


def _act(blocks: np.ndarray, i: int, j: int, t: int, q: int) -> np.ndarray:
    """x^T C x mod q for x = I + t E_ij and every block C of the batch:
    column j gains t times column i, then row j gains t times row i."""
    out = blocks.copy()
    out[:, :, j] = (out[:, :, j] + t * out[:, :, i]) % q
    out[:, j, :] = (out[:, j, :] + t * out[:, i, :]) % q
    return out


def _orbit_codes(p: int, lam: tuple[int, ...], code: int) -> np.ndarray:
    """The sorted codes of the orbit of one block under Aut(G_p): its closure
    under C -> x^T C x mod q = p^lam1 over the generators, frontier by
    frontier.  Entries and t lie below q, so int64 sums stay below q^2; a q
    for which that reaches 2^63 raises BudgetExceeded instead of wrapping.
    """
    q = p ** lam[0]
    if q * q >= 2**63:
        raise BudgetExceeded(f"q^2 = {q * q} overflows int64 orbit products")
    gens = _generators(p, lam)
    orbit = frontier = np.array([code], dtype=np.int64)
    while frontier.size:
        blocks = _decode(p, lam, frontier)
        images = np.concatenate([_encode(p, lam, _act(blocks, i, j, t, q)) for i, j, t in gens])
        frontier = np.setdiff1d(images, orbit)
        orbit = np.union1d(orbit, frontier)
    return orbit


def _cyclic_class(p: int, e: int, c: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(canonical block, orbit size, stabilizer size) of c on Z/p^e, in
    closed form.

    The orbit of c = p^k v (v a unit) is {u^2 c : u a unit}.  Its least
    member is p^k m, m the least unit in the square class of v mod p^(e-k):
    1 or the least non-residue at odd p, v mod 2^min(e-k, 3) at p = 2.  It
    is fixed by the u with u^2 = 1 mod p^(e-k): 2 roots of 1 at odd p; 1, 2
    or 4 at p = 2 for e-k = 1, 2, >= 3; each with p^k lifts mod p^e.  c = 0
    is fixed by all phi(p^e) units.
    """
    q = p**e
    aut = q - q // p
    if c % q == 0:
        return ((0,),), 1, aut
    k = 0
    while c % p == 0:
        c //= p
        k += 1
    if p == 2:
        level = min(e - k, 3)
        m, roots = c % 2**level, 2 ** (level - 1)
    else:
        half = (p - 1) // 2
        m = next(n for n in range(1, p) if pow(n, half, p) == pow(c, half, p))
        roots = 2
    stab = roots * p**k
    return ((p**k * m,),), aut // stab, stab


# (p, lam) -> {code of a block of rank >= 2: (canonical block, orbit size, stabilizer size)}
_orbit_index: dict[tuple[int, tuple[int, ...]], dict[int, tuple]] = {}


def _class_of(p: int, lam: tuple[int, ...], code: int) -> tuple:
    """(canonical block, orbit size, stabilizer size) of the block with this
    code.  Rank one is closed form.  At rank >= 2 the first member met pays
    the one closure of its orbit, which indexes every member under (least
    code decoded, orbit size, |Aut(G_p)| / orbit size).
    """
    if len(lam) == 1:
        return _cyclic_class(p, lam[0], code)
    index = _orbit_index.setdefault((p, lam), {})
    hit = index.get(code)
    if hit is None:
        orbit = _orbit_codes(p, lam, code)
        canonical = tuple(map(tuple, _decode(p, lam, orbit[:1])[0].tolist()))
        hit = (canonical, len(orbit), aut_order_of_type(p, lam) // len(orbit))
        index.update(dict.fromkeys(orbit.tolist(), hit))
    return hit


def _block_class(
    p: int, lam: tuple[int, ...], block, budget: int
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(canonical block, orbit size, stabilizer size) of one r x r block.

    The canonical block is the lexicographic minimum of the orbit under
    Aut(G_p).  |End| is checked against the budget first, so whether a call
    raises never depends on earlier calls.
    """
    _check_end_budget(p, lam, budget)
    code = 0
    for i, j, radix, scale in zip(*_cells(p, lam)):  # _encode on one block
        code = code * radix + block[i][j] // scale
    return _class_of(p, lam, code)


def _class_id(group: FinAbGroup, canonical_blocks: dict[int, tuple]) -> PairClassId:
    """The id of the class whose per-prime canonical blocks are given."""
    rep = PairedGroup(group, gram_from_scaled_blocks(group, canonical_blocks))
    text = rep.text()
    return PairClassId(rep, text, hashlib.sha256(text.encode()).hexdigest()[:16])


def blocks_pair_class(
    group: FinAbGroup, blocks: dict[int, tuple], budget: int = HOM_BUDGET
) -> PairClassId:
    """Class id of the pairing given by its per-prime scaled blocks mod p^lam1."""
    return _class_id(
        group,
        {p: _block_class(p, lam, blocks[p], budget)[0] for p, lam in group.types},
    )


def canonical_pair_class(pg: PairedGroup, budget: int = HOM_BUDGET) -> PairClassId:
    """Stable class id: per-prime lexicographically minimal Gram over Aut(G)."""
    return blocks_pair_class(pg.group, dict(zip(pg.group.primes, pg.pairing.blocks)), budget)


def pair_isomorphic(a: PairedGroup, b: PairedGroup, budget: int = HOM_BUDGET) -> bool:
    """True iff some group isomorphism carries one pairing to the other."""
    if a.group != b.group:
        return False
    return canonical_pair_class(a, budget).text == canonical_pair_class(b, budget).text


def aut_preserving_count(a: PairedGroup, budget: int = HOM_BUDGET) -> int:
    """|Aut(G, pairing)|: the product of the per-prime stabilizer sizes."""
    return prod(
        _block_class(p, lam, blk, budget)[2]
        for (p, lam), blk in zip(a.group.types, a.pairing.blocks)
    )


# ---------------------------------------------------------------------------
# pairing extraction from symmetric integer matrices (exact path)


def _snf_pairing(m: IntMatrix, side: str):
    """Common core: torsion group, free rank, Gram from SNF transforms."""
    if not m.is_symmetric():
        raise NotSymmetric("pairings are defined for symmetric matrices")
    snf = smith_normal_form(m)
    d = snf.d
    n = m.rows
    tor = [i for i, x in enumerate(d) if x > 1]
    free_rank = n - sum(1 for x in d if x)

    if side == "group":
        vecs = {i: snf.v.col(i) for i in tor}
    else:
        vecs = {i: snf.u.row(i) for i in tor}
    mv = {j: m.mul_vec(vecs[j]) for j in tor}
    raw = {
        (i, j): Fraction(sum(map(mul, vecs[i], mv[j])), d[i] * d[j]) for i in tor for j in tor
    }

    # split the SNF generators into canonical prime-power generators.  On the
    # group side the p-part generator is (d/p^e) * g.  On the dual side the
    # functional dual to that generator is c * g^ with c the CRT coefficient
    # (1 mod p^e, 0 mod d/p^e); a bare cofactor would rescale by a unit.
    gens = []  # (p, exponent, snf index, coefficient)
    for t in tor:
        for p, e in factorint(d[t]).items():
            cof = d[t] // p**e
            coeff = cof if side == "group" else cof * pow(cof, -1, p**e)
            gens.append((p, e, t, coeff))
    gens.sort(key=lambda g: (g[0], -g[1], -g[2]))
    group = FinAbGroup.from_prime_types(
        {
            p: tuple(e for q, e, _, _ in gens if q == p)
            for p in {g[0] for g in gens}
        }
    )
    rows = [[raw[ti, tj] * ci * cj for _, _, tj, cj in gens] for _, _, ti, ci in gens]
    return group, free_rank, PairingGram.from_fractions(group, rows)


def torsion_pairing(m: IntMatrix) -> tuple[FinAbGroup, int, PairingGram]:
    """Canonical duality pairing on the torsion cokernel of symmetric m.

    The Gram sits on the canonical generators derived from the SNF basis.
    Always perfect (checked by PairedGroup construction downstream).
    """
    return _snf_pairing(m, "group")


def torsion_dual_pairing(m: IntMatrix) -> tuple[FinAbGroup, int, PairingGram]:
    """The induced pairing on the Pontryagin dual of the torsion cokernel."""
    return _snf_pairing(m, "dual")


def dual_cokernel_pairing_value(m: IntMatrix, x: RationalVector, y: RationalVector) -> QmodZ:
    """Pairing (x, y) -> x m y^T mod Z on the dual of cok(m).

    x and y must satisfy m x, m y integral (they represent dual elements).
    """
    if not m.is_symmetric():
        raise NotSymmetric("dual pairing needs a symmetric matrix")
    for vec in (x, y):
        if len(vec) != m.cols:
            raise ValueError("vector length mismatch")
        for i in range(m.rows):
            s = sum(m[i, j] * vec[j] for j in range(m.cols))
            if s.denominator != 1:
                raise NotInDual(f"m @ vec has non-integer coordinate {i}")
    total = Fraction(0)
    for i in range(m.rows):
        if x[i]:
            for j in range(m.cols):
                if y[j]:
                    total += x[i] * m[i, j] * y[j]
    return QmodZ(total)


# ---------------------------------------------------------------------------
# pushforward along transposes


def pushforward(f: GroupHom, gram_on_dual_source: PairingGram) -> PairingGram:
    """Push a pairing on dual(source) forward to dual(target) along f^t.

    f^t sends the dual of target generator i to sum_a L_ia times the dual
    of source generator a, L_ia = f_ia o_a / o_i for generator orders o
    (exact, as f is a hom).  f keeps p-parts apart, so the pushed p-block
    is L B L^T for the source p-block B, read mod the source's p^lam1 and
    rescaled to the target's; that division is exact too, as the pushed
    values have denominators dividing the target's orders.
    """
    src, tgt, cols = f.source, f.target, f.columns
    if gram_on_dual_source.group != src:
        raise ValueError("gram must live on the dual of the source")
    so, to = src.generator_orders, tgt.generator_orders
    blocks = []
    for p, lam in tgt.types:
        b = gram_on_dual_source.scaled_block(p)
        qs, qt = p ** max(src.partition(p), default=0), p ** lam[0]
        idx = src.generator_indices(p)
        ls = [[cols[a][i] * so[a] // to[i] for a in idx] for i in tgt.generator_indices(p)]
        lb = [[sum(map(mul, row, col)) for col in b] for row in ls]  # b is symmetric
        blocks.append(tuple(tuple(sum(map(mul, u, w)) % qs * qt // qs for w in ls) for u in lb))
    return PairingGram(tgt, tuple(blocks))


# ---------------------------------------------------------------------------
# enumeration of all symmetric pairings on a group


@dataclass(frozen=True)
class PairingClassInfo:
    class_id: PairClassId
    gram_count: int          # raw Grams in the isomorphism class
    aut_preserving: int      # |Aut(G, pairing)| for the representative


def pairing_class_table(
    g: FinAbGroup, perfect_only: bool, budget: int = HOM_BUDGET
) -> list[PairingClassInfo]:
    """Partition all symmetric pairings on g (optionally only perfect ones)
    into isomorphism classes, with orbit and stabilizer sizes."""
    per_prime = []
    for p, lam in g.types:
        _check_end_budget(p, lam, budget)  # raises before any Gram work
        blocks = _enumerate_blocks(p, lam)  # block k has code k
        codes = range(len(blocks))
        if perfect_only:
            codes = np.flatnonzero(_perfect_mask(p, lam, blocks)).tolist()
        classes = {_class_of(p, lam, code) for code in codes}
        per_prime.append([(p, *cls) for cls in sorted(classes)])
    table = [
        PairingClassInfo(
            _class_id(g, {p: canon for p, canon, _, _ in combo}),
            prod(orbit for _, _, orbit, _ in combo),
            prod(stab for _, _, _, stab in combo),
        )
        for combo in itertools.product(*per_prime)
    ]
    return sorted(table, key=lambda info: info.class_id.text)


def parse_paired_group(text: str) -> PairedGroup:
    """Parse the canonical text form "group|gram", e.g. "Z/2+Z/4|0/1,1/4,...".

    Gram entries are row-major reduced fractions; a trivial group is "1|".
    """
    head, _, rest = text.partition("|")
    group = parse_group(head)
    r = group.rank
    entries = [tok for tok in rest.split(",") if tok.strip()]
    if len(entries) != r * r:
        raise ValueError(f"expected {r * r} gram entries, got {len(entries)}")
    vals = [Fraction(tok) for tok in entries]
    rows = [vals[i * r : (i + 1) * r] for i in range(r)]
    return PairedGroup(group, PairingGram.from_fractions(group, rows))


def restrict_to_sylow(a: PairedGroup, primes) -> PairedGroup:
    """Keep only the generators at the named primes, with their blocks.

    Generators of two primes pair to 0, so the kept blocks are an honest
    pairing on the Sylow part.
    """
    keep = set(primes)
    sub = a.group.sylow(keep)
    blocks = tuple(blk for p, blk in zip(a.group.primes, a.pairing.blocks) if p in keep)
    return PairedGroup(sub, PairingGram(sub, blocks))
