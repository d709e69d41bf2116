"""Reference for `cokpairs.theory.special_pair_census`.

The census by plain enumeration: every (C, D) pair and every coefficient
cell in Python integers, then every pairing assignment A on each special
pair.  It shares nothing with the program's census but `ModuleMap.block`
and `CensusResult`.  With collect_min_nonzero=False it stops counting a pair's nonzero cells at
the first one and reports no minimum, which is much cheaper.
"""

from __future__ import annotations

import itertools

from cokpairs.modmaps import ModuleMap
from cokpairs.theory import CensusResult


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


def _linear_terms(p: int, lam: tuple[int, ...], fmat, c_rows, cells) -> dict:
    """The C-dependent linear part of E_ij mod p^(2*lam1), per cell (i <= j).

    c_rows is the n x r digit matrix of C: digit t on the m-th embedded
    generator means the functional value t * p^(2*lam1 - lam_m).
    """
    r = len(lam)
    mod = p ** (2 * lam[0])
    cvals = [[row[m] * p ** (2 * lam[0] - lam[m]) % mod for m in range(r)] for row in c_rows]
    return {
        (i, j): sum(
            fmat[m][i] * cvals[j][m] + (i != j) * fmat[m][j] * cvals[i][m] for m in range(r)
        ) % mod
        for (i, j) in cells
    }


def special_pair_census(f: ModuleMap, lift: ModuleMap, collect_min_nonzero: bool) -> CensusResult:
    group = f.target
    n = f.n
    kernel_size = 1
    predicted = 1
    pairing_checks = 0
    d_of_a_failures = 0
    min_nonzero = None
    for p, lam in group.types:
        r = len(lam)
        lam1 = lam[0]
        mod = p ** (2 * lam1)
        fmat = lift.block(p)
        cells, dcells, weights = _census_weights(p, lam, fmat)
        gsize = p ** sum(lam)
        predicted *= p ** (2 * lam1 * r * (r + 1) // 2) // gsize

        c_digit_ranges = [range(p ** lam[m]) for m in range(r)]
        c_space = list(itertools.product(*[
            itertools.product(*c_digit_ranges) for _ in range(n)
        ]))
        d_space = list(itertools.product(*[range(mod) for _ in dcells]))

        # pairing data tuples a_xy (x <= y), each mod p^lam_y, for D(-A) checks
        a_space = list(itertools.product(*[range(p ** lam[y]) for (x, y) in dcells]))

        kernel_p = 0
        for c_rows in c_space:
            lin = _linear_terms(p, lam, fmat, c_rows, cells)
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
