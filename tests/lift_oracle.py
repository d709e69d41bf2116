"""Reference for the lifted route of `cokpairs.moments`.

Scalar `random_lift` and `lifted_pairing_key` that build every map through
the public, checking constructor, build the enlarged codomain afresh on
every call and form the lifted products entry by entry over the reduced
matrix.  They share nothing with the program's lift code but that
constructor and the splitmix64 stream.  `standard_lift` is the lift whose
coefficients are the map's own representatives.
"""

from __future__ import annotations

from cokpairs import rng
from cokpairs.errors import NotALift
from cokpairs.groups import FinAbGroup
from cokpairs.modmaps import ModuleMap


def lift_codomain(group: FinAbGroup) -> FinAbGroup:
    return FinAbGroup.from_prime_types({p: tuple(2 * lam[0] for _ in lam) for p, lam in group.types})


def standard_lift(f: ModuleMap) -> ModuleMap:
    return ModuleMap(f.target.exponent**2, lift_codomain(f.target), f.columns)


def random_lift(f: ModuleMap, seed: int) -> ModuleMap:
    big = lift_codomain(f.target)
    s = rng.stream(seed)
    orders = f.target.generator_orders
    big_orders = big.generator_orders
    cols = []
    for j in range(f.n):
        col = []
        for i in range(f.target.rank):
            step = orders[i]
            col.append(f.columns[j][i] + step * s.below(big_orders[i] // step))
        cols.append(tuple(col))
    return ModuleMap.from_matrix(f.target.exponent**2, big, cols)


def lifted_pairing_key(m, f: ModuleMap, lift: ModuleMap):
    """m must be the symmetric n x n matrix of f's domain (not checked)."""
    group = f.target
    if lift.target != lift_codomain(group):
        raise NotALift("lift has the wrong codomain")
    n = f.n
    for p, lam in group.types:
        far = f.block(p)
        big = lift.block(p)
        for i, e in enumerate(lam):
            pi = p**e
            for j in range(n):
                if (big[i][j] - far[i][j]) % pi:
                    raise NotALift(f"lift disagrees with map mod {p}^{e}")
    key = {}
    for p, lam in group.types:
        r = len(lam)
        lam1 = lam[0]
        mod = p ** (2 * lam1)
        mm = [[x % mod for x in row] for row in m.data]
        big = lift.block(p)
        fm = [
            [sum(big[i][k] * mm[k][l] for k in range(n)) % mod for l in range(n)]
            for i in range(r)
        ]
        for i in range(r):
            scale = p ** (2 * lam1 - lam[i])
            for l in range(n):
                if scale * fm[i][l] % mod:
                    return None
        nums = {}
        for i in range(r):
            for j in range(i, r):
                lhs = (
                    p ** (2 * lam1 - lam[i] - lam[j])
                    * sum(fm[i][l] * big[j][l] for l in range(n))
                    % mod
                )
                step = p ** (2 * lam1 - lam[j])
                if lhs % step:
                    return None
                nums[(i, j)] = lhs // step % p ** lam[j]
        key[p] = nums
    return key
