"""Reference for the p-adic kernel `cokpairs.ensembles._padic_snf`.

The reduction as list loops over Python ints: the pivot scan, the swaps,
the unit scaling and every row update entry by entry, with `%` on each
entry.  It shares no code with the program, so it holds the kernel's
pivot rule and its row transform u to the bit on any input.
"""

from __future__ import annotations


def _padic_snf_reference(a, nrows, ncols, p, big_k):
    """The list-loop p-adic Smith reduction the numpy kernel replaces.

    a is a list of row lists, entries reduced mod p^big_k, reduced in
    place.  Pivot: the first row-major entry of least valuation in the
    active block.  Returns (exponents, u) with u the row transform, a list.
    """
    mod = p**big_k
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    exps = []
    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best_i = best_j = -1
        best_v = big_k
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x:
                    vv = 0
                    while x % p == 0:
                        x //= p
                        vv += 1
                    if vv < best_v:
                        best_i, best_j, best_v = i, j, vv
                        if vv == 0:
                            break
            if best_v == 0:
                break
        if best_i < 0:
            break
        if best_i != t:
            a[t], a[best_i] = a[best_i], a[t]
            u[t], u[best_i] = u[best_i], u[t]
        if best_j != t:
            for row in a:
                row[t], row[best_j] = row[best_j], row[t]
        pk = p**best_v
        unit = a[t][t] // pk
        inv = pow(unit, -1, mod)
        if inv != 1:
            a[t] = [x * inv % mod for x in a[t]]
            u[t] = [x * inv % mod for x in u[t]]
        at = a[t]
        for i in range(t + 1, nrows):
            x = a[i][t]
            if x:
                q = x // pk
                a[i] = [(y - q * z) % mod for y, z in zip(a[i], at)]
                u[i] = [(y - q * z) % mod for y, z in zip(u[i], u[t])]
        exps.append(best_v)
        t += 1
    return exps, u
