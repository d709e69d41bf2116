"""Random symmetric matrix ensembles and fast Sylow classification.

Sampling covers uniform residues mod a, finitely supported balanced entry
distributions, and Erdos-Renyi Laplacians; a draw is one numpy array
(`sample_array`), and `sample_symmetric` its IntMatrix form.  Classification of the Sylow
p-part of a cokernel with its pairing works modulo p^(2k) for an exponent
cap k: the pairing of a p-part with exponent p^e is determined by the
matrix entries modulo p^(2e), so every group below the cap is resolved
exactly, and anything at or beyond the cap is flagged CapExceeded rather
than silently truncated.  The reduction carries only its row transform u,
and both pairings, on the group and on its dual, are read from the Gram
u m u^T (the exact Smith path in `pairings` keeps v, as the oracle).  It
runs on numpy int64 residue arrays while n * p^(2K) < 2^62 (K = 2k, n the
matrix size), which bounds every product and dot product it forms; beyond
that the same code runs on object arrays of Python ints.

At p = 2 one GF(2) elimination on bitsets runs first.  When m has rank
n - f mod 2 (f the free rank) and f kernel vectors mod 2 kill m mod 2^(2k),
the 2-part is trivial without the reduction: the kernel would take n - f
unit pivots, and those f vectors, independent mod 2, force the remaining
f x f block to zero mod 2^(2k).  A tensor quotient whose presentation has
full rank mod 2 is trivial the same way.  Odd p always takes the reduction.

Each pivot search tests the top row of the active block for a unit before
it scans the whole block.  A row update reduces with a bit mask at p = 2,
and by a lookup in a residue table at odd p with p^K <= 2^8.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .arith import factorint, lcm, require_prime
from .errors import NotSymmetric, UnbalancedDistribution
from .graphs import Graph, er_adjacency, graph_from_adjacency, laplacian_array, upper_indices
from .groups import FinAbGroup
from .intmat import IntMatrix
from .pairings import blocks_pair_class, gram_from_scaled_blocks


@dataclass(frozen=True)
class CapExceeded:
    """Classification outcome for a trial the sampling modulus cannot resolve."""

    prime: int
    detail: str


# ---------------------------------------------------------------------------
# p-adic Smith form mod p^(2k)


def _as_array(rows, shape):
    """rows (an integer array or nested sequences of integers of any size)
    as an int64 array of this shape, or an object array of Python ints when
    some entry leaves int64.  An int64 array is returned as it is."""
    try:
        return np.asarray(rows, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(shape)


def _residues(rows, shape, mod):
    """rows (as for _as_array) as an array of residues mod `mod`.

    The dtype is int64 while n * mod^2 < 2^62 (n the larger dimension), which
    bounds every product and every length-n dot product the reduction and the
    Gram form; past that it is object, i.e. the same code on Python ints.
    """
    a = _as_array(rows, shape)
    if max(shape) * mod * mod >= 2**62:
        return a.astype(object) % mod
    return (a % mod).astype(np.int64, copy=False)  # object entries: residues fit


def _rem(x, p, e):
    """x mod p^e, elementwise.  At p = 2 a bit mask: the same residue, also for
    negative entries and Python ints, and several times faster on int64."""
    return x & (2**e - 1) if p == 2 else x % p**e


@functools.lru_cache(maxsize=16)
def _residue_table(mod):
    """d mod `mod` at index d + (mod - 1)^2, for every d in
    [-(mod - 1)^2, mod - 1]: the range of a - q b over residues a, q, b."""
    table = np.arange(-((mod - 1) ** 2), mod, dtype=np.int64) % mod
    table.flags.writeable = False  # one array serves every caller
    return table


def _least_valuation(block, p, big_k):
    """(e, i, j): the first row-major entry of least p-adic valuation e in
    block (residues mod p^big_k), or None when the block is zero.  A unit in
    row 0 is that entry, so row 0 is tested before the whole block."""
    units = _rem(block[0], p, 1) != 0
    j = int(units.argmax())
    if units[j]:
        return 0, 0, j
    for e in range(big_k):
        hits = _rem(block, p, e + 1) != 0
        k = int(hits.argmax())
        if hits.flat[k]:
            return (e, *divmod(k, block.shape[1]))
    return None


def _padic_snf(a, p, big_k):
    """Reduce the residue array a (mod p^big_k, from _residues); a is kept.

    Returns (exponents, u): u a v = diag(p^e) mod p^big_k for the unimodular
    row transform u and a column transform v that is never formed;
    exponents only for pivots resolved below big_k, ascending.  The remaining
    rows of u a are zero mod p^big_k.  a and u are reduced side by side as
    one array [a | u], so each row operation is one numpy call.  Left of the
    pivot column the active rows are already zero, so row updates touch only
    the active columns; pivot rows are never read again.  At odd p with
    int64 residues and p^big_k <= 2^8 a row update reads its residues from
    _residue_table instead of dividing.
    """
    nrows, ncols = a.shape
    mod = p**big_k
    table = _residue_table(mod) if p != 2 and mod <= 2**8 and a.dtype == np.int64 else None
    au = np.hstack([a, np.eye(nrows, dtype=a.dtype)])
    exps = []
    for t in range(min(nrows, ncols)):
        pivot = _least_valuation(au[t:, t:ncols], p, big_k)
        if pivot is None:
            break
        e, i, j = pivot
        if i:
            au[t], au[t + i] = au[t + i], au[t].copy()
        if j:
            au[t:, t], au[t:, t + j] = au[t:, t + j], au[t:, t].copy()
        pk = p**e
        inv = pow(int(au[t, t]) // pk, -1, mod)
        if inv != 1:
            au[t, t:] = _rem(au[t, t:] * inv, p, big_k)
        q = au[t + 1 :, t, None] // pk if e else au[t + 1 :, t, None]  # read before written
        d = au[t + 1 :, t:] - q * au[t, t:]
        au[t + 1 :, t:] = _rem(d, p, big_k) if table is None else table.take(d + (mod - 1) ** 2)
        exps.append(e)
    return exps, au[:, ncols:]


def _left_kernel_mod_2(m):
    """A basis of the left kernel of m mod 2: the rows y, independent mod 2,
    of a 0/1 array of m's dtype with y m = 0 mod 2.  Row i is the bitset of
    its parities | 1 << (w + i), reduced on its lowest set bit against the
    pivots so far; each XOR clears that bit, so a row takes at most w steps,
    and a row whose low w bits clear holds a kernel vector in its high bits.
    """
    h, w = m.shape
    packed = np.packbits(_rem(m, 2, 1).astype(np.uint8), axis=1, bitorder="little")
    pivots, kernel = {}, []
    for i, row in enumerate(packed):
        r = int.from_bytes(row.tobytes(), "little") | 1 << (w + i)
        while (low := r & -r) in pivots:
            r ^= pivots[low]
        if low >> w:
            kernel.append([r >> (w + c) & 1 for c in range(h)])
        else:
            pivots[low] = r
    return np.array(kernel, dtype=m.dtype).reshape(len(kernel), h)


def _dual_block(u, exps, sym, p, mod):
    """(lam, scaled Gram block) of the rows of u with exponent e >= 1, or
    (None, None) when there are none.

    Rows are taken in order (-e, -row), so lam is descending.  Entry (a, b)
    is w_a sym w_b^T mod p^(e_a + e_b) for the chosen rows w, rescaled to
    the common denominator p^lam1; the division is exact because the value
    is killed by both generator orders.
    """
    gens = sorted((-e, -i) for i, e in enumerate(exps) if e >= 1)
    if not gens:
        return None, None
    lam = tuple(-e for e, _ in gens)
    w = u[[-i for _, i in gens]]
    g = w @ (sym @ w.T % mod) % mod
    e = np.array(lam, dtype=w.dtype)
    den = p ** (e[:, None] + e[None, :])
    return lam, tuple(map(tuple, (g % den * p ** lam[0] // den).tolist()))


def _sylow_block(a, p, cap, free_rank):
    """(lam, scaled Gram block) of the Sylow p-part of the torsion cokernel
    of the symmetric n x n array a (from _as_array), (None, None) when it
    is trivial, or CapExceeded.  The Gram is u m u^T, which serves the group
    and its dual alike (see `pairings`).
    """
    if free_rank < 0:
        raise ValueError(f"free rank must be >= 0, got {free_rank}")
    n = len(a)
    big_k = 2 * cap
    mod = p**big_k
    m = _residues(a, (n, n), mod)
    if p == 2:
        # the exact trivial-2-part exit (module docstring); residues cannot wrap
        y = _left_kernel_mod_2(m)
        if len(y) == free_rank and not (y @ m % mod).any():
            return None, None
    exps, u = _padic_snf(m, p, big_k)
    unresolved = n - len(exps)
    if unresolved > free_rank:
        return CapExceeded(p, f"{unresolved} unresolved invariants beyond known free rank {free_rank}")
    over = [e for e in exps if e >= cap]
    if over:
        return CapExceeded(p, f"resolved exponent {max(over)} reaches cap {cap}")
    return _dual_block(u, exps, m, p, mod)


def sylow_paired_group(
    m_rows: list[list[int]],
    p: int,
    cap: int,
    free_rank: int = 0,
    side: str = "group",
):
    """Sylow p-part of the torsion cokernel with its pairing, mod p^(2*cap).

    m_rows is a square symmetric integer matrix (any sign); anything else
    raises NotSymmetric.  free_rank is the known rational kernel dimension
    (e.g. number of components for a graph Laplacian); unresolved diagonal
    entries beyond it, or resolved exponents at or above cap, yield
    CapExceeded.

    side is "group" (the pairing on the cokernel) or "dual" (the induced
    pairing on its dual).  For a symmetric matrix the two are isomorphic and
    both are read from the Gram u m u^T, so both values give one result.

    Returns (FinAbGroup, PairingGram) with generators in canonical order
    (exponents descending), or CapExceeded.
    """
    if side not in ("group", "dual"):
        raise ValueError(f"side must be 'group' or 'dual', got {side!r}")
    res = _sylow_block(symmetric_array(m_rows, "sylow_paired_group"), p, cap, free_rank)
    if isinstance(res, CapExceeded):
        return res
    lam, block = res
    group = FinAbGroup.from_prime_types({p: lam})
    return group, gram_from_scaled_blocks(group, {p: block})


def quotient_dual_pairing(pres_rows, p, k):
    """The p-part of a finite quotient tensored with Z/p^k, with the induced
    pairing on its dual.

    pres_rows (h x w, w >= h; an array or nested sequences) presents the
    quotient Z^h / col(pres), and its leading h x h block is the symmetric
    matrix computing the dual pairing in those coordinates.  Exponents are
    min(e, k), which is exact for the tensor (no cap flag needed).  Returns
    (exponents descending, scaled gram block mod p^lam1) or (None, None) for
    a trivial p-part.
    """
    h = len(pres_rows)
    w = len(pres_rows[0]) if h else 0
    big_k = 2 * k
    mod = p**big_k
    pres = _residues(pres_rows, (h, w), mod)
    if p == 2 and not len(_left_kernel_mod_2(pres)):
        return None, None  # full rank mod 2: every exponent is 0
    exps, u = _padic_snf(pres, p, big_k)
    mus = [min(e, k) for e in exps] + [k] * (h - len(exps))
    return _dual_block(u, mus, pres[:, :h], p, mod)


# ---------------------------------------------------------------------------
# entry distributions and ensemble specs


@dataclass(frozen=True)
class EntryDistribution:
    """Finitely supported integer distribution with exact rational weights."""

    support: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) != len(self.weights) or not self.support:
            raise ValueError("support and weights must be nonempty and aligned")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if sum(self.weights, Fraction(0)) != 1:
            raise ValueError("weights must sum to 1")

    def check_balance(self, modulus: int, alpha: Fraction) -> None:
        """Certify: every residue mod every prime of modulus has weight <= 1 - alpha."""
        for p in factorint(modulus):
            for t in range(p):
                mass = sum((w for s, w in zip(self.support, self.weights) if s % p == t), Fraction(0))
                if mass > 1 - alpha:
                    raise UnbalancedDistribution(
                        f"residue {t} mod {p} carries weight {mass} > 1 - alpha = {1 - alpha}"
                    )

    def sampler(self):
        """Exact cumulative sampler: (common denominator, cumulative numerators)."""
        den = 1
        for w in self.weights:
            den = lcm(den, w.denominator)
        cum = []
        acc = 0
        for w in self.weights:
            acc += w.numerator * (den // w.denominator)
            cum.append(acc)
        return den, cum


KIND_ER = "er_laplacian"
KIND_ALPHA = "alpha_balanced"
KIND_UNIFORM = "uniform_mod_a"


@dataclass(frozen=True)
class EnsembleSpec:
    """A seeded matrix ensemble; serializes to a JSON-compatible dict."""

    kind: str
    n: int
    seed: int
    modulus: int = 0
    q: float = 0.0
    entry_dist: EntryDistribution | None = None
    alpha: Fraction | None = None

    def __post_init__(self):
        if self.kind not in (KIND_ER, KIND_ALPHA, KIND_UNIFORM):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("ensemble needs n >= 1")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"edge probability q must lie in [0, 1], got {self.q}")
        # entries are drawn by below(), whose range is at most 2^64
        if self.kind == KIND_UNIFORM and not 2 <= self.modulus <= 2**64:
            raise ValueError(f"uniform ensemble needs 2 <= modulus <= 2^64, got {self.modulus}")
        if self.kind == KIND_ALPHA:
            if self.entry_dist is None or self.alpha is None or self.modulus < 2:
                raise ValueError("alpha-balanced ensemble needs entry_dist, alpha, modulus")
            den = self.entry_dist.sampler()[0]
            if den > 2**64:
                raise ValueError(f"entry weights need a common denominator <= 2^64, got {den}")
            self.entry_dist.check_balance(self.modulus, self.alpha)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "seed": self.seed}
        if self.kind == KIND_ER:
            out["q"] = self.q
        else:
            out["modulus"] = self.modulus
        if self.entry_dist is not None:
            out["support"] = list(self.entry_dist.support)
            out["weights"] = [str(w) for w in self.entry_dist.weights]
        if self.alpha is not None:
            out["alpha"] = str(self.alpha)
        return out

    @staticmethod
    def from_dict(d: dict) -> "EnsembleSpec":
        dist = None
        if "support" in d:
            dist = EntryDistribution(
                tuple(d["support"]), tuple(Fraction(w) for w in d["weights"])
            )
        return EnsembleSpec(
            kind=d["kind"],
            n=d["n"],
            seed=d["seed"],
            modulus=d.get("modulus", 0),
            q=d.get("q", 0.0),
            entry_dist=dist,
            alpha=Fraction(d["alpha"]) if "alpha" in d else None,
        )


def graph_adjacency(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """Boolean adjacency matrix of the er_laplacian draw (see er_adjacency)."""
    if spec.kind != KIND_ER:
        raise ValueError("not a graph ensemble")
    return er_adjacency(spec.n, spec.q, spec.seed, trial)


def sample_array(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """Symmetric matrix draw, deterministic per (spec, trial), as an int64
    array (object when some entry leaves int64).

    Upper-triangle entries (diagonal included) are drawn independently in
    row-major order, one block of below() draws; for er_laplacian the graph
    Laplacian is returned.
    """
    if spec.kind == KIND_ER:
        return laplacian_array(graph_adjacency(spec, trial))
    n = spec.n
    iu, ju = upper_indices(n, 0)
    s = rng.stream(spec.seed, trial)
    if spec.kind == KIND_UNIFORM:
        vals = s.below_array(spec.modulus, len(iu))
    else:
        den, cum = spec.entry_dist.sampler()
        r = s.below_array(den, len(iu))
        # entry t is support[t] for cum[t - 1] <= r < cum[t]; r < cum[-1] = den
        pick = np.searchsorted(_as_array(cum[:-1], (len(cum) - 1,)), r, side="right")
        support = spec.entry_dist.support
        vals = _as_array(support, (len(support),))[pick]
    a = np.zeros((n, n), dtype=vals.dtype)
    a[iu, ju] = vals
    a[ju, iu] = vals
    return a


def sample_graph(spec: EnsembleSpec, trial: int) -> Graph:
    return graph_from_adjacency(graph_adjacency(spec, trial))


def sample_symmetric(spec: EnsembleSpec, trial: int) -> IntMatrix:
    """sample_array as an IntMatrix."""
    return IntMatrix.from_array(sample_array(spec, trial))


# ---------------------------------------------------------------------------
# classification entry point


def symmetric_array(m, caller: str) -> np.ndarray:
    """m (an IntMatrix or a square integer array) as an array (see
    _as_array); NotSymmetric unless it is square and symmetric."""
    if isinstance(m, IntMatrix):
        a = _as_array(m.data, (m.rows, m.cols))
    else:
        a = _as_array(m, np.shape(m))
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise NotSymmetric(f"{caller} needs a symmetric matrix")
    return a


def cokernel_pairing_class(
    m,
    primes,
    exponent_cap: dict[int, int],
    free_rank: int = 0,
):
    """Classify the Sylow-P torsion cokernel of symmetric m (an IntMatrix or
    a square integer array) with its pairing.

    Returns a PairClassId, or CapExceeded when some p-part exponent reaches
    the cap (the sampling modulus cannot resolve it).  free_rank is the
    known rational kernel dimension of m.  BudgetExceeded propagates from
    the classification step; a repeated prime or free_rank < 0 raises
    ValueError.
    """
    a = symmetric_array(m, "cokernel_pairing_class")
    primes = sorted(primes)
    for p, q in zip(primes, primes[1:]):
        if p == q:
            raise ValueError(f"prime {p} is repeated")
    types, blocks = {}, {}
    for p in primes:
        res = _sylow_block(a, p, exponent_cap[p], free_rank)
        if isinstance(res, CapExceeded):
            return res
        types[p], blocks[p] = res
    return blocks_pair_class(FinAbGroup.from_prime_types(types), blocks)


def default_cap(p: int, order_bound: int) -> int:
    """Exponent cap lam1_max + 2 for groups of order <= order_bound."""
    require_prime(p)
    if order_bound < 1:
        raise ValueError(f"order bound must be >= 1, got {order_bound}")
    lam1 = 0
    q = p
    while q <= order_bound:
        lam1 += 1
        q *= p
    return lam1 + 2
