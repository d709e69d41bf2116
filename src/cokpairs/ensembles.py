"""Random symmetric matrix ensembles and fast Sylow classification.

Sampling covers uniform residues mod a, finitely supported balanced entry
distributions, and Erdos-Renyi Laplacians.  Classification of the Sylow
p-part of a cokernel with its pairing works modulo p^(2k) for an exponent
cap k: the pairing of a p-part with exponent p^e is determined by the
matrix entries modulo p^(2e), so every group below the cap is resolved
exactly, and anything at or beyond the cap is flagged CapExceeded rather
than silently truncated.  The reduction runs on numpy int64 residue arrays
while n * p^(2K) < 2^62 (K = 2k, n the matrix size), which bounds every
product and dot product it forms; beyond that the same code runs on
object arrays of Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .arith import is_prime
from .errors import UnbalancedDistribution
from .graphs import ERParams, Graph, laplacian, sample_er
from .groups import HOM_BUDGET, FinAbGroup
from .intmat import IntMatrix
from .pairings import (
    PairedGroup,
    PairingGram,
    canonical_pair_class,
    gram_from_scaled_blocks,
)


@dataclass(frozen=True)
class CapExceeded:
    """Classification outcome for a trial the sampling modulus cannot resolve."""

    prime: int
    detail: str


# ---------------------------------------------------------------------------
# p-adic Smith form mod p^(2k)


def _residues(rows, shape, mod):
    """rows (integers of any size) as an array of residues mod `mod`.

    The dtype is int64 while n * mod^2 < 2^62 (n the larger dimension), which
    bounds every product and every length-n dot product the reduction and the
    Gram form; past that it is object, i.e. the same code on Python ints.
    """
    if max(shape) * mod * mod >= 2**62:
        return np.array(rows, dtype=object).reshape(shape) % mod
    try:
        return np.array(rows, dtype=np.int64).reshape(shape) % mod
    except OverflowError:  # entries beyond int64; their residues fit
        return (np.array(rows, dtype=object).reshape(shape) % mod).astype(np.int64)


def _least_valuation(block, p, big_k):
    """(e, i, j): the first row-major entry of least p-adic valuation e in
    block (residues mod p^big_k), or None when the block is zero."""
    for e in range(big_k):
        hits = block % p ** (e + 1) != 0
        if hits.any():
            i, j = divmod(int(hits.argmax()), block.shape[1])
            return e, i, j
    return None


def _padic_snf(a, p, big_k, want_u, want_v):
    """Diagonalize the residue array a (mod p^big_k, from _residues) in place.

    Returns (exponents, u, v): u a v = diag(p^e) mod p^big_k with unimodular
    transforms (arrays, or None when not wanted); exponents only for pivots
    resolved below big_k, ascending.  Remaining rows and columns are zero mod
    p^big_k.  Left of the pivot column the active rows are already zero, so
    row updates touch only the active columns.
    """
    nrows, ncols = a.shape
    mod = p**big_k
    u = np.eye(nrows, dtype=a.dtype) if want_u else None
    v = np.eye(ncols, dtype=a.dtype) if want_v else None
    exps = []
    for t in range(min(nrows, ncols)):
        pivot = _least_valuation(a[t:, t:], p, big_k)
        if pivot is None:
            break
        e, i, j = pivot
        if i:
            a[[t, t + i]] = a[[t + i, t]]
            if u is not None:
                u[[t, t + i]] = u[[t + i, t]]
        if j:
            a[:, [t, t + j]] = a[:, [t + j, t]]
            if v is not None:
                v[:, [t, t + j]] = v[:, [t + j, t]]
        pk = p**e
        inv = pow(int(a[t, t]) // pk, -1, mod)
        if inv != 1:
            a[t, t:] = a[t, t:] * inv % mod
            if u is not None:
                u[t] = u[t] * inv % mod
        q = a[t + 1 :, t] // pk
        a[t + 1 :, t:] = (a[t + 1 :, t:] - np.outer(q, a[t, t:])) % mod
        if u is not None:
            u[t + 1 :] = (u[t + 1 :] - np.outer(q, u[t])) % mod
        q = a[t, t + 1 :] // pk
        a[t, t + 1 :] = 0
        if v is not None:
            v[:, t + 1 :] = (v[:, t + 1 :] - np.outer(v[:, t], q)) % mod
        exps.append(e)
    return exps, u, v


def _scaled_gram(w, m, p, exps, mod):
    """Scaled Gram block of the generator rows w (orders p^exps, descending)
    under the symmetric residue array m: entry (a, b) is w_a m w_b^T mod
    p^(e_a + e_b), rescaled to the common denominator p^exps[0].  The
    division is exact because the value is killed by both generator orders.
    """
    g = w @ (m @ w.T % mod) % mod
    e = np.array(exps, dtype=w.dtype)
    den = p ** (e[:, None] + e[None, :])
    return tuple(map(tuple, (g % den * p ** exps[0] // den).tolist()))


def sylow_paired_group(
    m_rows: list[list[int]],
    p: int,
    cap: int,
    free_rank: int = 0,
    side: str = "group",
):
    """Sylow p-part of the torsion cokernel with its pairing, mod p^(2*cap).

    m_rows is a square symmetric integer matrix (any sign).  free_rank is
    the known rational kernel dimension (e.g. number of components for a
    graph Laplacian); unresolved diagonal entries beyond it, or resolved
    exponents at or above cap, yield CapExceeded.

    Returns (FinAbGroup, PairingGram) with generators in canonical order
    (exponents descending), or CapExceeded.
    """
    n = len(m_rows)
    big_k = 2 * cap
    mod = p**big_k
    m = _residues(m_rows, (n, n), mod)
    want_u = side == "dual"
    exps, u, v = _padic_snf(m.copy(), p, big_k, want_u, not want_u)
    unresolved = n - len(exps)
    if unresolved > free_rank:
        return CapExceeded(p, f"{unresolved} unresolved invariants beyond known free rank {free_rank}")
    over = [e for e in exps if e >= cap]
    if over:
        return CapExceeded(p, f"resolved exponent {max(over)} reaches cap {cap}")

    tor = [(i, e) for i, e in enumerate(exps) if e >= 1]
    if not tor:
        group = FinAbGroup.trivial()
        return group, PairingGram(group, ())
    tor.reverse()  # canonical order: exponents descending
    idx = [i for i, _ in tor]
    lam = tuple(e for _, e in tor)
    block = _scaled_gram(u[idx] if want_u else v[:, idx].T, m, p, lam, mod)
    group = FinAbGroup.from_prime_types({p: lam})
    return group, gram_from_scaled_blocks(group, {p: block})


def quotient_dual_pairing(pres_rows, sym_rows, p, k):
    """The p-part of a finite quotient tensored with Z/p^k, with the induced
    pairing on its dual.

    pres_rows (h x w) presents the quotient Z^h / col(pres); sym_rows
    (h x h) is the symmetric matrix computing the dual pairing in those
    coordinates.  Exponents are min(e, k), which is exact for the tensor
    (no cap flag needed).  Returns (exponents descending, scaled gram block
    mod p^lam1) or (None, None) for a trivial p-part.
    """
    h = len(pres_rows)
    w = len(pres_rows[0]) if h else 0
    big_k = 2 * k
    mod = p**big_k
    exps, u, _ = _padic_snf(_residues(pres_rows, (h, w), mod), p, big_k, True, False)
    mus = [min(e, k) for e in exps] + [k] * (h - len(exps))
    gens = [(i, mu) for i, mu in enumerate(mus) if mu >= 1]
    if not gens:
        return None, None
    gens.sort(key=lambda t: (-t[1], -t[0]))
    lam = tuple(mu for _, mu in gens)
    sym = _residues(sym_rows, (h, h), mod)
    return lam, _scaled_gram(u[[i for i, _ in gens]], sym, p, lam, mod)


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
        from .arith import factorint

        for p in factorint(modulus):
            for t in range(p):
                mass = sum((w for s, w in zip(self.support, self.weights) if s % p == t), Fraction(0))
                if mass > 1 - alpha:
                    raise UnbalancedDistribution(
                        f"residue {t} mod {p} carries weight {mass} > 1 - alpha = {1 - alpha}"
                    )

    def sampler(self):
        """Exact cumulative sampler: (common denominator, cumulative numerators)."""
        from .arith import lcm

        den = 1
        for w in self.weights:
            den = lcm(den, w.denominator)
        cum = []
        acc = 0
        for w in self.weights:
            acc += w.numerator * (den // w.denominator)
            cum.append(acc)
        return den, cum

    def draw(self, stream: rng.Stream, den: int, cum: list[int]) -> int:
        r = stream.below(den)
        for val, c in zip(self.support, cum):
            if r < c:
                return val
        return self.support[-1]


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
        if self.kind == KIND_UNIFORM and self.modulus < 2:
            raise ValueError("uniform ensemble needs modulus >= 2")
        if self.kind == KIND_ALPHA:
            if self.entry_dist is None or self.alpha is None or self.modulus < 2:
                raise ValueError("alpha-balanced ensemble needs entry_dist, alpha, modulus")
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


def sample_graph(spec: EnsembleSpec, trial: int) -> Graph:
    if spec.kind != KIND_ER:
        raise ValueError("not a graph ensemble")
    return sample_er(ERParams(spec.n, spec.q, spec.seed), trial)


def sample_symmetric(spec: EnsembleSpec, trial: int) -> IntMatrix:
    """Symmetric matrix draw, deterministic per (spec, trial).

    Upper-triangle entries (diagonal included) are drawn independently in
    row-major order; for er_laplacian the graph Laplacian is returned.
    """
    if spec.kind == KIND_ER:
        return laplacian(sample_graph(spec, trial))
    s = rng.stream(spec.seed, trial)
    n = spec.n
    a = [[0] * n for _ in range(n)]
    if spec.kind == KIND_UNIFORM:
        for i in range(n):
            for j in range(i, n):
                x = s.below(spec.modulus)
                a[i][j] = a[j][i] = x
    else:
        den, cum = spec.entry_dist.sampler()
        for i in range(n):
            for j in range(i, n):
                x = spec.entry_dist.draw(s, den, cum)
                a[i][j] = a[j][i] = x
    return IntMatrix.from_rows(a)


# ---------------------------------------------------------------------------
# classification entry point


def cokernel_pairing_class(
    m: IntMatrix,
    primes,
    exponent_cap: dict[int, int],
    free_rank: int = 0,
    budget: int = HOM_BUDGET,
):
    """Classify the Sylow-P torsion cokernel of symmetric m with its pairing.

    Returns a PairClassId, or CapExceeded when some p-part exponent reaches
    the cap (the sampling modulus cannot resolve it).  free_rank is the
    known rational kernel dimension of m.  BudgetExceeded propagates from
    the classification step.
    """
    if not m.is_symmetric():
        from .errors import NotSymmetric

        raise NotSymmetric("cokernel_pairing_class needs a symmetric matrix")
    rows = [list(r) for r in m.data]
    parts: list[tuple[FinAbGroup, PairingGram]] = []
    for p in sorted(primes):
        res = sylow_paired_group(rows, p, exponent_cap[p], free_rank, side="group")
        if isinstance(res, CapExceeded):
            return res
        parts.append(res)
    group = FinAbGroup.trivial()
    for g, _ in parts:
        group = group.direct_sum(g)
    blocks = {}
    for g, gram in parts:
        for p, _ in g.types:
            blocks[p] = gram.scaled_block(p)
    gram = gram_from_scaled_blocks(group, blocks)
    return canonical_pair_class(PairedGroup(group, gram), budget)


def default_cap(p: int, order_bound: int) -> int:
    """Exponent cap lam1_max + 2 for groups of order <= order_bound."""
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    lam1 = 0
    q = p
    while q <= order_bound:
        lam1 += 1
        q *= p
    return lam1 + 2
