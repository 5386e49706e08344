"""Exact rational linear algebra.

Everything here is computed over Q; no floating point is used anywhere.
A ``Matrix`` is dense and immutable.  It stores integer numerator rows over
one positive common denominator, kept in lowest terms, so equal matrices
have equal storage.  Products, sums, equality and hashing run on plain
``int``s, and the eliminations and ``signature`` run fraction-free on the
numerators (Bareiss, Math. Comp. 22, 1968).  Entries read back through
``m[i, j]``, ``row``, ``column``, ``tolist`` and ``flatten`` are
``Fraction``s.  Sizes are desk-scale (dimension <= 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul


class NotSymmetricError(ValueError):
    pass


class RankDeficientError(ValueError):
    pass


class NotComplexStructureError(ValueError):
    pass


class NotCommutingError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _wrap(num: tuple, den: int) -> "Matrix":
    """Matrix from numerator rows (tuples of int) already in lowest terms
    over den > 0; skips ``__init__``."""
    m = object.__new__(Matrix)
    m.rows = len(num)
    m.cols = len(num[0])
    m.numerators = num
    m.denominator = den
    return m


def _lowest(num, den: int) -> "Matrix":
    """Matrix with value num / den for integer rows num and den != 0."""
    if den < 0:
        num = [[-x for x in r] for r in num]
        den = -den
    g = den
    if g != 1:
        for r in num:
            g = gcd(g, *r)
            if g == 1:
                break
    if g != 1:
        num = [[x // g for x in r] for r in num]
        den //= g
    return _wrap(tuple(map(tuple, num)), den)


def _reduce_rows(m: list, ncols: int):
    """Fraction-free Gauss-Jordan elimination of the integer rows ``m`` in
    place, over their first ``ncols`` columns (Bareiss's exact division by
    the previous pivot keeps every entry an integer minor).

    Returns ``(pivots, p, sign)``: the pivot columns in order, the last
    pivot (positive) and the sign of the row operations, which swap or
    negate rows.  Pivot row r then holds p at column pivots[r] and every
    other row holds 0 there, so the first len(pivots) rows divided by p are
    the reduced row echelon form; the remaining rows are zero on the first
    ncols columns.  For a square matrix of full rank, sign * p is its
    determinant.
    """
    n = len(m)
    prev = sign = 1
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, n) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pr = m[r]
        p = pr[c]
        if p < 0:
            # negating one row keeps every entry a minor; with positive
            # pivots a +-1 matrix never rescales the rows it leaves alone
            pr = m[r] = [-x for x in pr]
            p = -p
            sign = -sign
        for i in range(n):
            if i != r:
                a = m[i][c]
                if a:
                    m[i] = [(x * p - a * y) // prev for x, y in zip(m[i], pr)]
                elif p != prev:
                    m[i] = [x * p // prev for x in m[i]]
        prev = p
        pivots.append(c)
        if len(pivots) == n:
            break
    return pivots, prev, sign


class Matrix:
    """Immutable dense rational matrix.

    ``numerators`` is a tuple of integer row tuples and ``denominator`` a
    positive integer sharing no factor with all of them; entry (i, j) is
    ``numerators[i][j] / denominator``.
    """

    __slots__ = ("rows", "cols", "numerators", "denominator")

    def __init__(self, data):
        rows = [[x if type(x) is int else _frac(x) for x in row] for row in data]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValueError("ragged or empty matrix rows")
        # Over the lcm of the entries' reduced denominators the numerators
        # are already coprime to the common denominator.
        den = lcm(*{x.denominator for r in rows for x in r})
        self.rows = len(rows)
        self.cols = width
        self.numerators = tuple(
            tuple(x.numerator * (den // x.denominator) for x in r) for r in rows
        )
        self.denominator = den

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        if n < 1:
            raise ValueError("matrix needs at least one row")
        return _wrap(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @staticmethod
    def from_numerators(rows, den: int = 1) -> "Matrix":
        """Matrix with entries rows[i][j] / den, for integer rows of equal
        length and an integer den != 0."""
        return _lowest(rows, den)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def from_columns(columns) -> "Matrix":
        cols = [list(c) for c in columns]
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    @staticmethod
    def block_diag(*blocks: "Matrix") -> "Matrix":
        if not blocks:
            raise ValueError("matrix needs at least one row")
        # Each block is in lowest terms, so after scaling every block to the
        # lcm of their denominators the whole matrix still is.
        den = lcm(*(b.denominator for b in blocks))
        width = sum(b.cols for b in blocks)
        out = []
        left = 0
        for b in blocks:
            f = den // b.denominator
            pad_l, pad_r = (0,) * left, (0,) * (width - left - b.cols)
            for r in b.numerators:
                out.append(pad_l + (r if f == 1 else tuple(x * f for x in r)) + pad_r)
            left += b.cols
        return _wrap(tuple(out), den)

    def kron(self, other: "Matrix") -> "Matrix":
        out = [
            [x * y for x in ra for y in rb]
            for ra in self.numerators
            for rb in other.numerators
        ]
        return _lowest(out, self.denominator * other.denominator)

    # -- basics --------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.numerators[i][j], self.denominator)

    def row(self, i: int):
        den = self.denominator
        return tuple(Fraction(x, den) for x in self.numerators[i])

    def column(self, j: int):
        den = self.denominator
        return tuple(Fraction(r[j], den) for r in self.numerators)

    def tolist(self):
        den = self.denominator
        return [[Fraction(x, den) for x in r] for r in self.numerators]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        return f"Matrix({[[str(x) for x in r] for r in self.tolist()]})"

    def _sum(self, other: "Matrix", sign: int) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        da, db = self.denominator, other.denominator
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        out = [
            [x * fa + y * fb for x, y in zip(ra, rb)]
            for ra, rb in zip(self.numerators, other.numerators)
        ]
        return _lowest(out, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, -1)

    def __neg__(self) -> "Matrix":
        return _wrap(tuple(tuple(-x for x in r) for r in self.numerators), self.denominator)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        p = c.numerator
        return _lowest([[p * x for x in r] for r in self.numerators], self.denominator * c.denominator)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in @")
        b = other.numerators
        inner = other.rows
        zero = (0,) * other.cols
        columns = None
        out = []
        for ra in self.numerators:
            if 3 * (inner - ra.count(0)) > inner:
                # dense row: one dot product per column of other
                if columns is None:
                    columns = tuple(zip(*b))
                out.append([sum(map(mul, ra, col)) for col in columns])
                continue
            # sparse row: add up the rows of other it selects
            acc = zero
            for k, a in enumerate(ra):
                if a:
                    term = b[k] if a == 1 else tuple(map(mul, b[k], repeat(a)))
                    acc = term if acc is zero else tuple(map(add, acc, term))
            out.append(acc)
        return _lowest(out, self.denominator * other.denominator)

    def transpose(self) -> "Matrix":
        return _wrap(tuple(zip(*self.numerators)), self.denominator)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        m = self.numerators
        return self.is_square() and all(m[i][j] == m[j][i] for i in range(self.rows) for j in range(i))

    def is_antisymmetric(self) -> bool:
        m = self.numerators
        return self.is_square() and all(
            m[i][j] == -m[j][i] for i in range(self.rows) for j in range(i + 1)
        )

    def is_integer(self) -> bool:
        return self.denominator == 1

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(r[i] for i, r in enumerate(self.numerators)), self.denominator)

    def denominator_lcm(self) -> int:
        return self.denominator

    def flatten(self):
        den = self.denominator
        return tuple(Fraction(x, den) for r in self.numerators for x in r)

    # -- elimination-based operations ----------------------------------------

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        pivots, p, sign = _reduce_rows([list(r) for r in self.numerators], n)
        if len(pivots) < n:
            return Fraction(0)
        return Fraction(sign * p, self.denominator**n)

    def inv(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.numerators)]
        pivots, p, _ = _reduce_rows(m, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        # (numerators)^-1 = right half / p, and self^-1 = denominator * that
        den = self.denominator
        return _lowest([[den * x for x in r[n:]] for r in m], p)

    def rank(self) -> int:
        return len(_reduce_rows([list(r) for r in self.numerators], self.cols)[0])

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs exactly; raises ValueError if inconsistent."""
        if self.rows != rhs.rows:
            raise ValueError("shape mismatch in solve")
        k, w = self.cols, rhs.cols
        m = [list(a) + list(b) for a, b in zip(self.numerators, rhs.numerators)]
        pivots, p, _ = _reduce_rows(m, k)
        if any(any(r[k:]) for r in m[len(pivots):]):
            raise ValueError("inconsistent linear system")
        # numerators @ Y = rhs numerators gives Y[c] = m[row of c][k:] / p,
        # and X = Y * self.denominator / rhs.denominator
        da = self.denominator
        sol = [[0] * w for _ in range(k)]
        for r, c in enumerate(pivots):
            sol[c] = [da * x for x in m[r][k:]]
        return _lowest(sol, p * rhs.denominator)

    def column_space_basis(self) -> "Matrix":
        """Matrix whose columns are the pivot columns of self (a basis of the image)."""
        pivots, _, _ = _reduce_rows([list(r) for r in self.numerators], self.cols)
        if not pivots:
            raise RankDeficientError("zero matrix has no column-space basis")
        return _lowest([[r[c] for c in pivots] for r in self.numerators], self.denominator)


@dataclass(frozen=True)
class Signature:
    """Sylvester signature (positive, negative, zero) of a symmetric form."""

    positive: int
    negative: int
    zero: int

    @property
    def dimension(self) -> int:
        return self.positive + self.negative + self.zero

    def is_positive_definite(self) -> bool:
        return self.negative == 0 and self.zero == 0


def signature(gram: Matrix) -> Signature:
    """Sylvester signature of a symmetric rational form.

    Congruence diagonalization using the first nonzero diagonal pivot; when
    the remaining diagonal vanishes but an off-diagonal entry survives, the
    standard rank-2 fix-up (add row+column) restores a diagonal pivot.  The
    positive common denominator does not change the signature, so the
    numerators are diagonalized, fraction-free: symmetric Bareiss
    elimination keeps the trailing block equal to the previous pivot times
    the true Schur complement, so each true pivot has the sign of the
    stored pivot times the sign of the previous one.
    """
    if not gram.is_square():
        raise NotSymmetricError("gram matrix must be square")
    if not gram.is_symmetric():
        raise NotSymmetricError("gram matrix must equal its transpose")
    n = gram.rows
    b = [list(r) for r in gram.numerators]
    # Only the trailing block b[k:][k:] is read after step k; swaps and the
    # fix-up are congruences of that block, so every entry stays an integer
    # minor of a congruent integer form and the Bareiss division is exact.
    prev = 1
    pos = neg = zero = 0
    for k in range(n):
        if b[k][k] == 0:
            j = next((t for t in range(k + 1, n) if b[t][t]), None)
            if j is not None:
                b[k], b[j] = b[j], b[k]
                for r in b[k:]:
                    r[k], r[j] = r[j], r[k]
            else:
                j = next((t for t in range(k + 1, n) if b[k][t]), None)
                if j is None:
                    zero += 1
                    continue
                # makes b[k][k] = 2*b[k][j] != 0
                b[k] = [x + y for x, y in zip(b[k], b[j])]
                for r in b[k:]:
                    r[k] += r[j]
        bk = b[k]
        p = bk[k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        tail = bk[k + 1 :]
        for br in b[k + 1 :]:
            a = br[k]
            if a:
                br[k + 1 :] = [(p * x - a * y) // prev for x, y in zip(br[k + 1 :], tail)]
            elif p != prev:
                br[k + 1 :] = [p * x // prev for x in br[k + 1 :]]
        prev = p
    return Signature(pos, neg, zero)
