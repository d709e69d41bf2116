"""Arbitrary-precision integer matrices: Smith normal form with transforms,
cokernel structure, and scaled integer linear solves.

Everything here is exact.  No floating point; rationals appear only as
`fractions.Fraction` in callers.  The SNF uses minimal-absolute-value
pivoting, which keeps entries small for Laplacian-scale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .arith import lcm, xgcd
from .errors import NotInSpan, NotSymmetric
from .groups import FinAbGroup


@dataclass(frozen=True)
class IntMatrix:
    """Immutable; derived invariants are cached, and ==, hash, repr and
    pickles see rows, cols and data alone."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("shape does not match entries")

    def __reduce__(self):
        return IntMatrix, (self.rows, self.cols, self.data)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        return IntMatrix(len(data), len(data[0]) if data else 0, data)

    @staticmethod
    def from_array(a) -> "IntMatrix":
        """A 2-d int64 array, or object array of Python ints, as it is."""
        return IntMatrix(*a.shape, tuple(map(tuple, a.tolist())))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.data[ij[0]][ij[1]]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.data)) if self.data else ())

    def is_symmetric(self) -> bool:
        return self._symmetric

    @cached_property
    def _symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.data)) if other.data else []
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.data
        )
        return IntMatrix(self.rows, other.cols, out)

    def mul_vec(self, v) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(k * x for x in r) for r in self.data))

    def determinant(self) -> int:
        """Exact determinant by Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                piv = next((i for i in range(k + 1, n) if a[i][k]), None)
                if piv is None:
                    return 0
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class RationalVector:
    """Vector of reduced fractions (Fraction keeps denominators positive)."""

    coordinates: tuple[Fraction, ...]

    @staticmethod
    def of(*entries) -> "RationalVector":
        return RationalVector(tuple(Fraction(e) for e in entries))

    def __len__(self) -> int:
        return len(self.coordinates)

    def __getitem__(self, i: int) -> Fraction:
        return self.coordinates[i]


@dataclass(frozen=True)
class SnfResult:
    """u @ m @ v == diag(d), with u, v unimodular and d a divisibility chain.

    All ones come first, then proper factors, then zeros.
    """

    d: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix

    def diagonal_matrix(self, rows: int, cols: int) -> IntMatrix:
        out = [[0] * cols for _ in range(rows)]
        for i, x in enumerate(self.d):
            out[i][i] = x
        return IntMatrix.from_rows(out) if rows else IntMatrix(0, cols, ())


def _nearest_q(x: int, piv: int) -> int:
    """Quotient q minimizing |x - q*piv| (ties round toward zero)."""
    ap = abs(piv)
    q = x // ap
    if 2 * (x - q * ap) > ap:
        q += 1
    return q if piv > 0 else -q


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form with unimodular transforms, exact over Z.

    Pivoting picks the smallest-magnitude nonzero entry of the working
    block each round, which in practice keeps coefficient growth tame.
    """
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    t = 0
    while t < min(nr, nc):
        # locate minimal |entry| pivot in the trailing block
        best = None
        best_abs = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (best_abs is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
                    if best_abs == 1:
                        break
            if best_abs == 1:
                break
        if best is None:
            break
        if best != (t, t):
            if best[0] != t:
                _swap_rows(a, u, t, best[0])
            if best[1] != t:
                _swap_cols(a, v, t, best[1])

        while True:
            # clear column t with nearest-quotient row reductions
            dirty = False
            piv = a[t][t]
            for i in range(t + 1, nr):
                x = a[i][t]
                if x == 0:
                    continue
                q = _nearest_q(x, piv)
                if q:
                    a[i] = [ai - q * at for ai, at in zip(a[i], a[t])]
                    u[i] = [ui - q * ut for ui, ut in zip(u[i], u[t])]
                if a[i][t]:
                    _swap_rows(a, u, t, i)  # strictly smaller remainder becomes pivot
                    dirty = True
                    break
            if dirty:
                continue
            piv = a[t][t]
            for j in range(t + 1, nc):
                x = a[t][j]
                if x == 0:
                    continue
                q = _nearest_q(x, piv)
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j]:
                    _swap_cols(a, v, t, j)
                    dirty = True
                    break
            if not dirty:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    # move zero diagonal entries last, keeping nonzeros in encounter order
    diag_len = min(nr, nc)
    nonzero = [i for i in range(diag_len) if a[i][i]]
    for slot, src in enumerate(nonzero):
        if slot != src:
            _swap_rows(a, u, slot, src)
            _swap_cols(a, v, slot, src)

    # enforce the divisibility chain on the nonzero part with 2x2 fixes
    k = len(nonzero)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % di == 0:
                continue
            g, x, y = xgcd(di, dj)
            l = di // g * dj
            # rows (i, i+1) <- [[x, y], [-dj/g, di/g]] . rows;  cols <- cols . [[1, -y*dj/g], [1, x*di/g]]
            u[i], u[i + 1] = (
                [x * p + y * q for p, q in zip(u[i], u[i + 1])],
                [-(dj // g) * p + (di // g) * q for p, q in zip(u[i], u[i + 1])],
            )
            for row in v:
                ci, cj = row[i], row[i + 1]
                row[i] = ci + cj
                row[i + 1] = -(y * dj // g) * ci + (x * di // g) * cj
            a[i][i], a[i + 1][i + 1] = g, l
            changed = True

    d = tuple(a[i][i] for i in range(diag_len))
    return SnfResult(d, IntMatrix.from_rows(u) if nr else IntMatrix(0, 0, ()), IntMatrix.from_rows(v) if nc else IntMatrix(0, 0, ()))


def cokernel_structure(m: IntMatrix) -> tuple[FinAbGroup, int, SnfResult]:
    """Torsion part, free rank, and the SNF basis map of Z^rows / col(m)."""
    snf = smith_normal_form(m)
    torsion = FinAbGroup.from_orders(x for x in snf.d if x > 1)
    free_rank = m.rows - sum(1 for x in snf.d if x != 0)
    return torsion, free_rank, snf


def solve_scaled_membership(m: IntMatrix, t) -> tuple[int, tuple[int, ...]]:
    """Minimal positive k and integer s with m @ s == k * t.

    Requires symmetric m and t in the rational column span (equivalently
    orthogonal to the kernel); otherwise raises NotInSpan.  k is the lcm
    over torsion rows i of d_i / gcd(d_i, y_i) for y = u @ t.
    """
    if not m.is_symmetric():
        raise NotSymmetric("solve_scaled_membership needs a symmetric matrix")
    t = tuple(int(x) for x in t)
    snf = smith_normal_form(m)
    y = snf.u.mul_vec(t)
    n = m.rows
    k = 1
    for i in range(n):
        di = snf.d[i] if i < len(snf.d) else 0
        if di == 0:
            if y[i] != 0:
                raise NotInSpan(f"coordinate {i} of u@t is {y[i]} on a free row")
        else:
            k = lcm(k, di // gcd(di, y[i]))
    w = [0] * n
    for i in range(n):
        di = snf.d[i] if i < len(snf.d) else 0
        if di:
            w[i] = k * y[i] // di
    s = snf.v.mul_vec(w)
    return k, s
