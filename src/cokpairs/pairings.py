"""Duality pairings on torsion cokernels of symmetric integer matrices.

The pairing on the torsion cokernel sends classes (t, t') to s^T m s' / (k k')
mod Z, where m s = k t and m s' = k' t' (the Bosch-Lorenzini construction).
With a Smith decomposition u m v = diag(d) the generator lifts can be taken
straight from the transforms, which collapses the whole computation to

    group side:  <g_i, g_j> = (v^T m v)_{ij} / (d_i d_j)  mod Z
    dual side :  <g^_i, g^_j> = (u m u^T)_{ij} / (d_i d_j)  mod Z

restricted to indices with d_i > 1.  A single Gram type serves pairings on a
group and on its dual; which side is meant is the caller's bookkeeping.

Classification canonicalizes a Gram by taking the lexicographically minimal
matrix over the automorphism orbit, prime by prime (entries live in Z/p^lam1
after scaling to the common denominator p^lam1).  Each orbit is scanned once,
by `_block_class`, the first time one of its members is met; every member is
then indexed under (canonical block, orbit size, stabilizer size), and class
ids, class tables and |Aut(G, pairing)| are all read from that index.

No floating point is used.  Automorphisms are the endomorphisms whose mod-p
reduction is invertible (Nakayama), decided by an exact mod-p determinant.
The batched congruence A^T C A is reduced mod q = p^lam1 between its two
products, so int64 sums stay below r q^2; q <= |End(G)| <= budget keeps that
under 2^63 at the default budget, and a budget that would not raises
BudgetExceeded.  |End(G)| is checked against the budget before the index is
read, so whether a call raises never depends on earlier calls.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

import numpy as np

from .arith import factorint
from .errors import BudgetExceeded, NotInDual, NotSymmetric
from .groups import HOM_BUDGET, FinAbGroup, GroupHom, _rank_mod_p
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

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


ZERO = QmodZ(Fraction(0))


@dataclass(frozen=True)
class PairingGram:
    """Symmetric matrix of Q/Z values on the canonical generators of a group."""

    group: FinAbGroup
    gram: tuple[tuple[QmodZ, ...], ...]

    def __post_init__(self):
        r = self.group.rank
        if len(self.gram) != r or any(len(row) != r for row in self.gram):
            raise ValueError("gram shape does not match group rank")
        orders = self.group.generator_orders
        for i in range(r):
            for j in range(r):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram must be symmetric")
                if gcd(orders[i], orders[j]) % self.gram[i][j].denominator:
                    raise ValueError(
                        f"entry ({i},{j}) denominator incompatible with generator orders"
                    )

    @staticmethod
    def from_fractions(group: FinAbGroup, rows) -> "PairingGram":
        return PairingGram(
            group, tuple(tuple(QmodZ(Fraction(x)) for x in row) for row in rows)
        )

    def entry(self, i: int, j: int) -> QmodZ:
        return self.gram[i][j]

    def text(self) -> str:
        return ",".join(str(x) for row in self.gram for x in row)

    def scaled_block(self, p: int) -> tuple[tuple[int, ...], ...]:
        """The p-block as integers mod p^lam1 (common denominator p^lam1)."""
        lam = self.group.partition(p)
        if not lam:
            return ()
        q = p ** lam[0]
        idx = list(self.group.generator_indices(p))
        out = []
        for i in idx:
            row = []
            for j in idx:
                val = self.gram[i][j].value
                row.append(int(val * q) % q)
            out.append(tuple(row))
        return tuple(out)

    def evaluate(self, x_coords, y_coords) -> QmodZ:
        total = Fraction(0)
        for i, a in enumerate(x_coords):
            if not a:
                continue
            for j, b in enumerate(y_coords):
                if b:
                    total += a * b * self.gram[i][j].value
        return QmodZ(total)


def gram_from_scaled_blocks(group: FinAbGroup, blocks: dict[int, tuple]) -> PairingGram:
    """Assemble a PairingGram from per-prime integer blocks mod p^lam1."""
    r = group.rank
    rows = [[Fraction(0)] * r for _ in range(r)]
    for p, lam in group.types:
        q = p ** lam[0]
        idx = list(group.generator_indices(p))
        blk = blocks[p]
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                rows[i][j] = Fraction(blk[a][b] % q, q)
    return PairingGram.from_fractions(group, rows)


def is_perfect_gram(gram: PairingGram) -> bool:
    """Whether the induced map G -> dual(G) is bijective (mod-p rank of the
    scaled block on each prime part)."""
    return all(
        _block_is_perfect(p, lam, gram.scaled_block(p)) for p, lam in gram.group.types
    )


@dataclass(frozen=True)
class PairedGroup:
    """A finite abelian group with a symmetric pairing, plus a perfectness flag."""

    group: FinAbGroup
    pairing: PairingGram
    perfect: bool = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.pairing.group != self.group:
            raise ValueError("pairing is on a different group")
        computed = is_perfect_gram(self.pairing)
        if self.perfect is None:
            object.__setattr__(self, "perfect", computed)
        elif self.perfect != computed:
            raise ValueError("perfect flag contradicts the Gram")

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
# automorphism matrices and the orbit index, per prime block


def _end_count(p: int, lam: tuple[int, ...], budget: int) -> int:
    """|End| of the p-group of type lam; raises BudgetExceeded above budget."""
    total = prod(p ** min(a, b) for a in lam for b in lam)
    if total > budget:
        raise BudgetExceeded(f"|End| = {total} for p={p}, type {lam} exceeds budget {budget}")
    return total


def _invertible_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Mask of the (N, r, r) batch whose reduction mod p is invertible.

    The determinant mod p is the Leibniz sum over permutations, reduced
    after every product; permutations through an entry that is 0 in every
    matrix of the batch are skipped.  Products stay below p^2, which for
    r >= 2 is at most |End|^(1/2) (for r = 1 the only product is 1 * entry).
    """
    r = mats.shape[1]
    m = mats % p
    nonzero = m.any(axis=0)
    det = np.zeros(len(m), dtype=np.int64)
    for perm in itertools.permutations(range(r)):
        if not all(nonzero[i, j] for i, j in enumerate(perm)):
            continue
        term = np.ones(len(m), dtype=np.int64)
        for i, j in enumerate(perm):
            term = term * m[:, i, j] % p
        odd = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :]) % 2
        det = (det - term if odd else det + term) % p
    return det != 0


_aut_cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}


def _aut_matrices(p: int, lam: tuple[int, ...], budget: int = HOM_BUDGET) -> np.ndarray:
    """All automorphism matrices of the p-group of type lam, shape (N, r, r).

    Entry (i, j) is the g_i coefficient of the image of g_j, reduced mod
    p^lam_i.  Enumerates endomorphisms in mixed radix and keeps those whose
    mod-p reduction is invertible (Nakayama).
    """
    total = _end_count(p, lam, budget)
    key = (p, lam)
    if key not in _aut_cache:
        r = len(lam)
        radices = [p ** min(a, b) for a in lam for b in lam]
        scales = np.array([p ** (a - min(a, b)) for a in lam for b in lam], dtype=np.int64)
        keep = []
        chunk = 1 << 18
        for lo in range(0, total, chunk):
            idx = np.arange(lo, min(lo + chunk, total))
            digits = np.array(np.unravel_index(idx, radices), dtype=np.int64)
            mats = (digits * scales[:, None]).T.reshape(-1, r, r)
            keep.append(mats[_invertible_mod_p(mats, p)])
        _aut_cache[key] = np.concatenate(keep)
    return _aut_cache[key]


def _transform_all(auts: np.ndarray, c: np.ndarray, q: int) -> np.ndarray:
    """A^T c A mod q for every automorphism matrix A in auts, shape (N, r, r).

    Entries of auts and c lie in [0, q) and the product is reduced mod q
    between the two multiplications, so every int64 sum stays below r q^2;
    a q for which that reaches 2^63 raises BudgetExceeded instead of wrapping.
    """
    r = c.shape[0]
    if r * q * q >= 2**63:
        raise BudgetExceeded(f"r q^2 = {r * q * q} overflows int64 orbit products")
    return np.swapaxes(auts, 1, 2) @ (c @ auts % q) % q


# (p, lam) -> {flat Gram block: (canonical block, orbit size, stabilizer size)}
_orbit_index: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], tuple]] = {}


def _block_class(
    p: int, lam: tuple[int, ...], flat_block: tuple[int, ...], budget: int
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(canonical block, orbit size, stabilizer size) for one prime block.

    The canonical block is the lexicographic minimum of the orbit under
    Aut(G_p).  The first member met pays the one scan of its orbit, which
    indexes every member; later members are lookups.
    """
    _end_count(p, lam, budget)
    index = _orbit_index.setdefault((p, lam), {})
    hit = index.get(flat_block)
    if hit is None:
        auts = _aut_matrices(p, lam, budget)
        r = len(lam)
        c = np.array(flat_block, dtype=np.int64).reshape(r, r)
        flat = _transform_all(auts, c, p ** lam[0]).reshape(len(auts), -1)
        flat = flat[np.lexsort(flat.T[::-1])]  # rows in lexicographic order
        orbit = flat[np.r_[True, np.any(flat[1:] != flat[:-1], axis=1)]]
        canonical = tuple(map(tuple, orbit[0].reshape(r, r).tolist()))
        hit = (canonical, len(orbit), len(auts) // len(orbit))
        index.update(dict.fromkeys(map(tuple, orbit.tolist()), hit))
    return hit


def _class_id(group: FinAbGroup, canonical_blocks: dict[int, tuple]) -> PairClassId:
    """The id of the class whose per-prime canonical blocks are given."""
    rep = PairedGroup(group, gram_from_scaled_blocks(group, canonical_blocks))
    text = rep.text()
    return PairClassId(rep, text, hashlib.sha256(text.encode()).hexdigest()[:16])


def canonical_pair_class(pg: PairedGroup, budget: int = HOM_BUDGET) -> PairClassId:
    """Stable class id: per-prime lexicographically minimal Gram over Aut(G)."""
    return _class_id(
        pg.group,
        {
            p: _block_class(p, lam, sum(pg.pairing.scaled_block(p), ()), budget)[0]
            for p, lam in pg.group.types
        },
    )


def pair_isomorphic(a: PairedGroup, b: PairedGroup, budget: int = HOM_BUDGET) -> bool:
    """True iff some group isomorphism carries one pairing to the other."""
    if a.group != b.group:
        return False
    return canonical_pair_class(a, budget).text == canonical_pair_class(b, budget).text


def aut_preserving_count(a: PairedGroup, budget: int = HOM_BUDGET) -> int:
    """|Aut(G, pairing)|: the product of the per-prime stabilizer sizes."""
    return prod(
        _block_class(p, lam, sum(a.pairing.scaled_block(p), ()), budget)[2]
        for p, lam in a.group.types
    )


# ---------------------------------------------------------------------------
# pairing extraction from symmetric integer matrices (exact path)


def _fraction_mod1(num: int, den: int) -> QmodZ:
    return QmodZ(Fraction(num % den, den))


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
    raw = {}
    for i in tor:
        for j in tor:
            num = sum(a * b for a, b in zip(vecs[i], mv[j]))
            raw[(i, j)] = (num, d[i] * d[j])

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
    rows = []
    for pi, _, ti, ci in gens:
        row = []
        for pj, _, tj, cj in gens:
            num, den = raw[(ti, tj)]
            row.append(_fraction_mod1(num * ci * cj, den))
        rows.append(tuple(row))
    gram = PairingGram(group, tuple(rows))
    return group, free_rank, gram


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


def dual_basis_change(f: GroupHom) -> tuple[tuple[int, ...], ...]:
    """Matrix of f^t on dual bases: row i gives the coefficients of
    dual_target_i composed with f in the dual basis of the source."""
    mat = f.matrix()
    src_orders = f.source.generator_orders
    tgt_orders = f.target.generator_orders
    out = []
    for i in range(f.target.rank):
        row = []
        for j in range(f.source.rank):
            num = src_orders[j] * mat[i][j]
            if num % tgt_orders[i]:
                raise ValueError("hom matrix violates order compatibility")
            row.append(num // tgt_orders[i])
        out.append(tuple(row))
    return tuple(out)


def pushforward(f: GroupHom, gram_on_dual_source: PairingGram) -> PairingGram:
    """Push a pairing on dual(source) forward to dual(target) along f^t."""
    if gram_on_dual_source.group != f.source:
        raise ValueError("gram must live on the dual of the source")
    lift = dual_basis_change(f)
    r = f.target.rank
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            row.append(gram_on_dual_source.evaluate(lift[i], lift[j]))
        rows.append(tuple(row))
    return PairingGram(f.target, tuple(rows))


# ---------------------------------------------------------------------------
# enumeration of all symmetric pairings on a group


def _enumerate_blocks(p: int, lam: tuple[int, ...]):
    """All symmetric scaled blocks mod p^lam1 with compatible entry orders."""
    r = len(lam)
    q = p ** lam[0]
    cells = [(i, j) for i in range(r) for j in range(i, r)]
    radices = [p ** min(lam[i], lam[j]) for i, j in cells]
    steps = [q // rad for rad in radices]

    def rec(k, acc):
        if k == len(cells):
            blk = [[0] * r for _ in range(r)]
            for (i, j), val in zip(cells, acc):
                blk[i][j] = blk[j][i] = val
            yield tuple(tuple(row) for row in blk)
            return
        for t in range(radices[k]):
            yield from rec(k + 1, acc + [t * steps[k]])

    yield from rec(0, [])


def _block_is_perfect(p, lam, blk) -> bool:
    q = p ** lam[0]
    r = len(lam)
    reduced = [
        [(blk[i][j] // (q // p ** lam[i])) % p for j in range(r)] for i in range(r)
    ]
    return _rank_mod_p(reduced, p) == r


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
        _end_count(p, lam, budget)  # raises before any Gram work
        r = len(lam)
        blocks = np.array(list(_enumerate_blocks(p, lam)), dtype=np.int64)
        if perfect_only:
            # row i of a block is divisible by p^(lam1 - lam_i); the block is
            # perfect iff the quotient is invertible mod p (_block_is_perfect)
            row_scale = np.array([p ** (lam[0] - e) for e in lam], dtype=np.int64)
            blocks = blocks[_invertible_mod_p(blocks // row_scale[:, None], p)]
        classes = {
            _block_class(p, lam, flat, budget)
            for flat in map(tuple, blocks.reshape(-1, r * r).tolist())
        }
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


def enumerate_pairing_classes(
    g: FinAbGroup, perfect_only: bool, budget: int = HOM_BUDGET
) -> list[PairClassId]:
    return [info.class_id for info in pairing_class_table(g, perfect_only, budget)]


def parse_paired_group(text: str) -> PairedGroup:
    """Parse the canonical text form "group|gram", e.g. "Z/2+Z/4|0/1,1/4,...".

    Gram entries are row-major reduced fractions; a trivial group is "1|".
    """
    from .groups import parse_group

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
    """Keep only the generators at the named primes, with the Gram block.

    Cross-prime Gram entries vanish (coprime orders force denominator 1),
    so the restriction is an honest pairing on the Sylow part.
    """
    keep = set(primes)
    sub = a.group.sylow(keep)
    idx = [
        i
        for p in sub.primes
        for i in a.group.generator_indices(p)
    ]
    rows = tuple(tuple(a.pairing.gram[i][j] for j in idx) for i in idx)
    return PairedGroup(sub, PairingGram(sub, rows))
