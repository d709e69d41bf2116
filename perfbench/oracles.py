"""Exact reference computations the benchmark checks the program against.

Nothing here imports cokpairs.  Each function recomputes a quantity from its
definition (the splitmix64 scheme documented in `cokpairs/rng.py`, Kirchhoff's
theorem, Smith form over Z/p^k, the Hillar-Rhea automorphism count), so a
fault in the program cannot hide inside its own check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

import numpy as np

MASK = (1 << 64) - 1
PHI = 0x9E3779B97F4A7C15
HOM_BUDGET = 10**7  # the program's enumeration budget, restated

# ---------------------------------------------------------------------------
# splitmix64 streams


def mix64(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def stream_state(master: int, *indices: int) -> int:
    """Initial state of the substream keyed by (master, *indices)."""
    state = mix64(master)
    for ix in indices:
        state = mix64(state ^ (((ix + 1) * PHI) & MASK))
    return state


def draws(state: int, count: int) -> np.ndarray:
    """The first `count` outputs of the stream with this state, as uint64.

    The k-th output is mix(state + k * PHI), so all of them are computed at
    once; uint64 arithmetic wraps mod 2^64 exactly like the scalar mask.
    """
    with np.errstate(over="ignore"):
        ks = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(state) + ks * np.uint64(PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def below_sequence(state: int, modulus: int, count: int) -> list[int]:
    """`count` uniform residues mod `modulus` by exact rejection, in order."""
    limit = (1 << 64) - (1 << 64) % modulus
    raw = draws(state, count)
    if modulus & (modulus - 1) == 0 or bool(np.all(raw < np.uint64(limit))):
        return [int(x) % modulus for x in raw.tolist()]
    out, k = [], 0
    while len(out) < count:  # a rejection happened: replay one draw at a time
        k += 1
        r = mix64(state + k * PHI)
        if r < limit:
            out.append(r % modulus)
    return out


def er_edges(seed: int, trial: int, n: int, threshold: int = 1 << 63) -> list[tuple[int, int]]:
    """Edges of the (seed, trial) Erdos-Renyi draw: one draw per pair in
    lexicographic order, an edge when the draw is below the threshold."""
    iu, ju = np.triu_indices(n, 1)
    hit = draws(stream_state(seed, trial), len(iu)) < np.uint64(threshold)
    return list(zip(iu[hit].tolist(), ju[hit].tolist()))


def uniform_symmetric(seed: int, trial: int, n: int, modulus: int) -> list[list[int]]:
    """Symmetric matrix with upper-triangle entries (diagonal included)
    drawn uniformly mod `modulus` in row-major order."""
    vals = below_sequence(stream_state(seed, trial), modulus, n * (n + 1) // 2)
    a = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = vals[k]
            k += 1
    return a


# ---------------------------------------------------------------------------
# graphs


def components(n: int, edges) -> int:
    """Number of connected components, by union-find."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def reduced_laplacian(n: int, edges) -> list[list[int]]:
    """Degree-minus-adjacency Laplacian with the last vertex deleted."""
    a = [[0] * n for _ in range(n)]
    for i, j in edges:
        a[i][j] -= 1
        a[j][i] -= 1
        a[i][i] += 1
        a[j][j] += 1
    return [row[: n - 1] for row in a[: n - 1]]


# ---------------------------------------------------------------------------
# exact linear algebra


def bareiss_det(rows) -> int:
    """Determinant by fraction-free (Bareiss) elimination over Z."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            a[i] = ai[: k + 1] + [(akk * x - aik * y) // prev for x, y in zip(ai[k + 1 :], ak[k + 1 :])]
        prev = akk
    return sign * a[n - 1][n - 1]


def valuation(x: int, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of 0")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def padic_invariants(rows, p: int, k: int) -> tuple[tuple[int, ...], int]:
    """Exponents e >= 1 of the p-parts of the invariant factors of a square
    integer matrix, descending, computed mod p^k; plus the number of
    diagonal places left unresolved (zero mod p^k).

    Smith form over the local ring Z/p^k: a pivot of least valuation
    divides every entry, so after clearing its column the pivot row is
    eliminated by column operations that touch nothing else.  Entries stay
    in int64 while products of two residues fit, else in Python integers.
    """
    mod = p**k
    a = np.array(rows, dtype=np.int64 if mod < 1 << 31 else object) % mod
    exps = []
    while a.size:
        unit = a % p != 0
        if unit.any():
            v, flat = 0, int(np.argmax(unit))
        else:
            nz = a != 0
            if not nz.any():
                break
            val = np.where(nz, 0, k)
            x = np.where(nz, a, 1)
            while (step := (x % p == 0) & nz).any():
                val = val + step
                x = np.where(step, x // p, x)
            flat = int(np.argmin(val))
            v = int(val.flat[flat])
        i, j = divmod(flat, a.shape[1])
        a[[0, i]] = a[[i, 0]]
        a[:, [0, j]] = a[:, [j, 0]]
        pv = p**v
        f = (a[1:, 0] // pv) * pow(int(a[0, 0]) // pv, -1, mod) % mod
        a = (a[1:, 1:] - np.outer(f, a[0, 1:])) % mod
        exps.append(v)
    return tuple(sorted((e for e in exps if e), reverse=True)), a.shape[0]


def kernel_mod_p(rows, p: int) -> list[list[int]]:
    """A basis of the right null space of the matrix mod p (p < 2^31)."""
    a = np.array(rows, dtype=np.int64) % p
    ncols = a.shape[1] if a.ndim == 2 else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == a.shape[0]:
            break
        nz = np.nonzero(a[r:, c])[0]
        if not len(nz):
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(range(r), pivots):
            v[pc] = int(-a[row, fc] % p)
        basis.append(v)
    return basis


def corank_mod_p(rows, p: int) -> int:
    return len(kernel_mod_p(rows, p))


def span_nonzero(basis, p: int) -> np.ndarray:
    """Every nonzero combination of the basis vectors mod p, one per row."""
    if not basis:
        return np.zeros((0, 0), dtype=np.int64)
    b = np.array(basis, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=len(basis)))[1:], dtype=np.int64)
    return coeffs @ b % p


def quadratic_count(rows, kernel, p: int, modulus: int, value: int) -> int:
    """#{v != 0 in the span of `kernel` mod p : v^T M v = value mod `modulus`};
    with `kernel` a basis of ker(M mod p) this counts over the whole kernel."""
    vs = span_nonzero(kernel, p)
    if not len(vs):
        return 0
    m = np.array(rows, dtype=np.int64) % modulus
    q = np.einsum("ki,ij,kj->k", vs, m, vs) % modulus
    return int(np.sum(q == value))


def kernel_form_tally(rows, p: int, k: int) -> dict[str, int]:
    """Over ordered k-tuples (v_1..v_k) of linearly independent vectors of
    ker(M mod p), the tally of the numerators a_ij = (v_i^T M v_j mod p^2) / p
    for i <= j, keyed "a_11,a_12,...".  These tuples are the surjections from
    the cokernel onto (Z/p)^k, and a_ij / p is the pairing they push forward.
    """
    basis = kernel_mod_p(rows, p)
    r = len(basis)
    coeffs = list(itertools.product(range(p), repeat=r))
    vecs = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), r) @ np.array(basis, dtype=np.int64).reshape(r, len(rows)) % p
    m = np.array(rows, dtype=np.int64) % (p * p)
    form = (vecs @ m @ vecs.T % (p * p) // p).tolist()
    tally: dict[str, int] = {}
    for pick in itertools.product(range(len(coeffs)), repeat=k):
        chosen = [coeffs[i] for i in pick]
        independent = all(
            any(sum(c * v[t] for c, v in zip(combo, chosen)) % p for t in range(r))
            for combo in itertools.product(range(p), repeat=k)
            if any(combo)
        )
        if independent:
            key = ",".join(str(form[pick[i]][pick[j]]) for i in range(k) for j in range(i, k))
            tally[key] = tally.get(key, 0) + 1
    return tally


# ---------------------------------------------------------------------------
# groups with pairings, read from their text form


def parse_class(text: str) -> tuple[list[int], list[list[Fraction]]]:
    """(cyclic orders, Gram) from text such as "Z/4+Z/2|1/4,0/1,0/1,1/2"."""
    group, sep, gram = text.partition("|")
    if not sep:
        raise ValueError(f"no '|' in class text {text!r}")
    toks = [] if group == "1" else group.split("+")
    if any(not tok.startswith("Z/") for tok in toks):
        raise ValueError(f"bad group in class text {text!r}")
    orders = [int(tok[2:]) for tok in toks]
    vals = [Fraction(x) for x in gram.split(",")] if gram else []
    r = len(orders)
    if len(vals) != r * r:
        raise ValueError(f"Gram of {len(vals)} entries on a rank-{r} group")
    return orders, [vals[i * r : (i + 1) * r] for i in range(r)]


def _p_torsion(orders, p):
    """Coordinates of the nonzero elements of G[p] for a p-group."""
    steps = [o // p for o in orders]
    for c in itertools.product(range(p), repeat=len(orders)):
        if any(c):
            yield [ci * s for ci, s in zip(c, steps)]


def torsion_value_count(orders, gram, p: int, value: Fraction) -> int:
    """#{x != 0 in G[p] : <x, x> = value mod 1}."""
    r = len(orders)
    count = 0
    for x in _p_torsion(orders, p):
        q = sum(x[i] * x[j] * gram[i][j] for i in range(r) for j in range(r))
        count += (q - value).denominator == 1
    return count


def gram_is_perfect(orders, gram, p: int) -> bool:
    """A pairing on a p-group is perfect iff no nonzero x in G[p] pairs to 0
    with every generator (the radical is a subgroup, so it meets G[p])."""
    r = len(orders)
    for x in _p_torsion(orders, p):
        if all(sum(x[i] * gram[i][j] for i in range(r)).denominator == 1 for j in range(r)):
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms


def aut_order(p: int, lam) -> int:
    """|Aut(G)| for the p-group of type lam (Hillar and Rhea 2007)."""
    e = sorted(lam)
    r = len(e)
    d = [max(m for m in range(r) if e[m] == e[k]) + 1 for k in range(r)]
    c = [min(m for m in range(r) if e[m] == e[k]) + 1 for k in range(r)]
    out = prod(p ** d[k] - p**k for k in range(r))
    out *= prod(p ** (e[j] * (r - d[j])) for j in range(r))
    out *= prod(p ** ((e[i] - 1) * (r - c[i] + 1)) for i in range(r))
    return out


def endo_count(p: int, lam) -> int:
    """|End(G)| for the p-group of type lam."""
    return prod(p ** min(a, b) for a in lam for b in lam)


def surjection_count(p: int, r: int, k: int) -> int:
    """Surjections F_p^r -> F_p^k: prod_{i<k} (p^r - p^i)."""
    return prod(p**r - p**i for i in range(k))


def cl_product(p: int, terms: int) -> Fraction:
    """prod_{k=1}^{terms} (1 - p^(1-2k)), exact."""
    return prod((1 - Fraction(1, p ** (2 * k - 1)) for k in range(1, terms + 1)), start=Fraction(1))
