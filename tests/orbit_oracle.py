"""Reference orbit scan for the canonizer in `cokpairs.pairings`.

It lists every automorphism matrix of the p-group (the lifts of the
invertible mod-p residues), transforms the Gram block by each one and takes
the lexicographically smallest image.  The stabilizer is |Aut| / |orbit|
counted over the listed matrices, so nothing here relies on the generating
set or on the closed form for |Aut| that the program uses, nor on its
perfectness test: a residue is invertible when its Leibniz determinant is
nonzero mod p.
"""

from __future__ import annotations

import itertools
from math import prod

import numpy as np

from cokpairs.errors import BudgetExceeded
from cokpairs.groups import HOM_BUDGET
from cokpairs.pairings import _check_end_budget


def mixed_radix(radices: list[int], scales: list[int]) -> np.ndarray:
    """The mixed-radix count over `radices`, first digit most significant,
    with digit k multiplied by scales[k]; int64, shape (prod(radices),
    len(radices))."""
    digits = np.array(np.unravel_index(np.arange(prod(radices)), radices), dtype=np.int64)
    return (digits * np.array(scales, dtype=np.int64)[:, None]).T


def invertible_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Mask of the (N, r, r) batch whose reduction mod p is invertible.

    The determinant mod p is the Leibniz sum over permutations, reduced
    after every product; permutations through an entry that is 0 in every
    matrix of the batch are skipped.  Products stay below p^2.
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


def aut_matrices(p: int, lam: tuple[int, ...], budget: int = HOM_BUDGET) -> np.ndarray:
    """All automorphism matrices of the p-group of type lam, shape (N, r, r).

    Entry (i, j) is the g_i coefficient of the image of g_j: p^min(lam_i,
    lam_j) values spaced by p^(lam_i - min), so it is 0 mod p unless
    lam_i <= lam_j.  A matrix is an automorphism iff its residue mod p is
    invertible (Nakayama), so the residues are listed once (p values on each
    cell with lam_i <= lam_j) and every lift is added to each invertible one.
    """
    _check_end_budget(p, lam, budget)
    r = len(lam)
    cells = [(a, b) for a in lam for b in lam]
    residues = mixed_radix([p if a <= b else 1 for a, b in cells], [1] * r * r)
    residues = residues[invertible_mod_p(residues.reshape(-1, r, r), p)]
    lifts = mixed_radix(
        [p ** (min(a, b) - (a <= b)) for a, b in cells],
        [p ** max(a - b, 1) for a, b in cells],
    )
    return (residues[:, None] + lifts).reshape(-1, r, r)


def transform_all(auts: np.ndarray, c: np.ndarray, q: int) -> np.ndarray:
    """A^T c A mod q for every automorphism matrix A in auts, shape (N, r, r).

    Entries of auts and c lie in [0, q) and the product is reduced mod q
    between the two multiplications, so every int64 sum stays below r q^2;
    a q for which that reaches 2^63 raises BudgetExceeded instead of wrapping.
    """
    r = c.shape[0]
    if r * q * q >= 2**63:
        raise BudgetExceeded(f"r q^2 = {r * q * q} overflows int64 orbit products")
    return np.swapaxes(auts, 1, 2) @ (c @ auts % q) % q


def orbit_scan(p: int, lam: tuple[int, ...], flat_block, auts: np.ndarray):
    """((canonical block, orbit size, stabilizer size), orbit) of one block.

    The orbit is returned as a list of flat blocks in lexicographic order,
    so a caller can file every member under the same result.
    """
    r = len(lam)
    c = np.array(flat_block, dtype=np.int64).reshape(r, r)
    flat = transform_all(auts, c, p ** lam[0]).reshape(len(auts), -1)
    flat = flat[np.lexsort(flat.T[::-1])]  # rows in lexicographic order
    orbit = flat[np.r_[True, np.any(flat[1:] != flat[:-1], axis=1)]]
    canonical = tuple(map(tuple, orbit[0].reshape(r, r).tolist()))
    return (canonical, len(orbit), len(auts) // len(orbit)), list(map(tuple, orbit.tolist()))


def block_classes(p: int, lam: tuple[int, ...], blocks) -> dict[tuple, tuple]:
    """{flat block: (canonical block, orbit size, stabilizer size)} for every
    block given (an iterable of flat tuples), one scan per orbit."""
    auts = aut_matrices(p, lam)
    out: dict[tuple, tuple] = {}
    for flat in blocks:
        if flat not in out:
            hit, orbit = orbit_scan(p, lam, flat, auts)
            out.update(dict.fromkeys(orbit, hit))
    return out
