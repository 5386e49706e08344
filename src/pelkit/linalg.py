"""Exact rational linear algebra.

Everything here is computed over Q; no floating point is used anywhere.
A ``Matrix`` is dense and immutable.  It stores integer numerator rows over
one positive common denominator, kept in lowest terms, so equal matrices
have equal storage.  Products, sums, equality and hashing run on plain
``int``s.  ``det``, ``inv``, ``rank``, ``solve`` and ``column_space_basis``
run on the numerators in one incremental fraction-free echelon,
``Echelon``, which the algebra closure shares; ``signature`` keeps its own
symmetric elimination.  Both divide exactly by the previous pivot, so
every entry stays an integer minor (Bareiss, Math. Comp. 22, 1968).
Catalog data are monomial (at most one nonzero per row), so the kernels
pay for nonzeros.  ``_monomial`` finds each row's one nonzero, or gives
up at the first row with two.  On a monomial matrix ``det`` is a signed
permutation product and ``signature`` counts 1 x 1 blocks and hyperbolic
planes, with no elimination.  Each row's nonzero column (the map) and its
numerator, over the denominator, are the matrix's *monomial form*.  A
matrix finds it only by scanning its own rows, when ``det`` or a form read
first needs it, and keeps it (``_form_of``), with its transpose's from the
first ``Transposed`` read on; products and transposes carry none.  Kept
forms compose in O(n) (``_product_form``), so that ``products_equal``
decides an equation between products of matrices, and
``signature`` and ``trace`` read a product, on forms when every factor
has one and else through ``@`` and ``==``.  A product row with one
nonzero is the row of the other factor it selects, times that entry, a
sparse one adds only the rows its nonzeros select, and a pivot change
rescales a kept row on its nonzeros alone.  Entries read back through
``m[i, j]``, ``row``, ``column`` and ``tolist`` are ``Fraction``s, and
``_entry_texts`` writes them without one.  Sizes are desk-scale (dimension <= 64).
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, count, repeat
from math import gcd, lcm, prod
from operator import add, matmul, mul, neg

from . import _Value
from .errors import InputError


class NotSymmetricError(InputError):
    pass


class RankDeficientError(InputError):
    pass


class NotComplexStructureError(InputError):
    pass


class NotCommutingError(InputError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
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
    m._form = False
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


def _monomial(rows):
    """The column of each row's one nonzero entry (None for a zero row), or
    None as soon as a row has two nonzeros, so a dense matrix costs a row."""
    cols = []
    for r in rows:
        nonzero = len(r) - r.count(0)
        if nonzero > 1:
            return None
        cols.append(next(compress(count(), r)) if nonzero else None)
    return cols


def _form_of(m: "Matrix", transposed: bool = False):
    """m's monomial form (cols, vals) as the slot's first two entries, row i
    being vals[i] over m's denominator at column cols[i] (None and 0 for a
    zero row), or with transposed the transpose's form; None for a
    non-monomial m, or a transpose with a repeated column.  Each is found
    on first use and kept: the first transposed read appends it to the slot."""
    form = m._form
    if form is False:
        rows = m.numerators
        cols = _monomial(rows)
        form = m._form = None if cols is None else (cols, [0 if c is None else r[c] for r, c in zip(rows, cols)])
    if not transposed or form is None:
        return form
    if len(form) == 2:  # the transpose's row c is the one row i of m with cols[i] == c
        cols, vals = form
        row_of = {c: i for i, c in enumerate(cols) if c is not None}
        tcols = [row_of.get(c) for c in range(m.cols)]
        repeated = len(row_of) < len(cols) - cols.count(None)
        form = m._form = cols, vals, None if repeated else (tcols, [0 if i is None else vals[i] for i in tcols])
    return form[2]


def _permutation_sign(cols) -> int:
    """The sign of the permutation i -> cols[i]: a cycle of length L
    contributes (-1)^(L - 1)."""
    sign, seen = 1, [False] * len(cols)
    for i in range(len(cols)):
        j = cols[i]
        seen[i] = True
        while not seen[j]:
            seen[j] = True
            j = cols[j]
            sign = -sign
    return sign


def _support(row):
    """The nonzero positions of row when under a quarter of it is nonzero,
    so that reducing by row or rescaling it walks them alone; None for a
    denser row."""
    return list(compress(range(len(row)), row)) if 4 * (len(row) - row.count(0)) < len(row) else None


class Echelon:
    """Incremental fraction-free Gauss-Jordan echelon of integer rows.

    Pivots are searched on the first ``ncols`` columns only; further columns
    ride along (the right-hand sides of ``inv`` and ``solve``, the star half
    of the algebra closure).  Each kept row ``rows[k]`` is p times its
    reduced row: p at ``pivots[k]`` and 0 at every other pivot.  The last
    pivot p stays positive, as a new row with a negative pivot is negated.
    When a new pivot q differs from p, a kept row that is zero at its column
    only rescales by q / p, on its nonzero positions; the rest of the row
    stays zero.  So a monomial matrix costs O(n) per row, not O(n^2).
    Kept rows are stored in pivot order; ``sign`` is the sign of those
    negations and of the row permutation that sorts them, so sign * p is the
    minor of the kept rows, in insertion order, on the pivot columns.
    """

    __slots__ = ("ncols", "rows", "pivots", "p", "sign", "_supports")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows, self.pivots, self._supports = [], [], []
        self.p = self.sign = 1

    def reduce(self, v) -> list:
        """p * v minus its components along the kept rows.  Its first ncols
        entries vanish exactly when v lies in their span on those columns."""
        p = self.p
        w = list(v) if p == 1 else [p * x for x in v]
        coeffs = [v[c] for c in self.pivots]
        rows, supports = self.rows, self._supports
        for k in compress(range(len(coeffs)), coeffs):
            a, row, nz = coeffs[k], rows[k], supports[k]
            if nz is False:  # found on first use: rows never used skip it
                nz = supports[k] = _support(row)
            if nz is None:
                w = [x - a * y for x, y in zip(w, row)]
            else:
                for i in nz:
                    w[i] -= a * row[i]
        return w

    def insert(self, v):
        """Keep v and return None if it is independent of the kept rows on
        the first ncols columns; otherwise return its residual ``reduce(v)``."""
        w = self.reduce(v)
        q = next(filter(None, w[: self.ncols]), 0)
        if not q:
            return w
        c = w.index(q)  # the first nonzero entry
        if q < 0:
            # with positive pivots a +-1 matrix never rescales the kept rows
            w, q = [-x for x in w], -q
            self.sign = -self.sign
        p = self.p
        rows, supports = self.rows, self._supports
        col = [row[c] for row in rows]
        # with p unchanged, a row that is zero at c stays as it is
        for k in compress(range(len(rows)), col) if q == p else range(len(rows)):
            a, row = col[k], rows[k]
            if a:
                rows[k] = [(q * x - a * y) // p for x, y in zip(row, w)]
                supports[k] = False
                continue
            # zero at c: a rescale by q/p, which keeps the support
            nz = supports[k]
            if nz is False:
                nz = supports[k] = _support(row)
            if nz is None:
                rows[k] = [q * x // p for x in row]
            else:
                for i in nz:
                    row[i] = q * row[i] // p
        # rows stay in pivot order: moving the new row up past the kept rows
        # with a later pivot is that many row swaps
        k = bisect(self.pivots, c)
        if (len(rows) - k) % 2:
            self.sign = -self.sign
        rows.insert(k, w)
        supports.insert(k, False)
        self.pivots.insert(k, c)
        self.p = q
        return None


class Matrix:
    """Immutable dense rational matrix.

    ``numerators`` is a tuple of integer row tuples and ``denominator`` a
    positive integer sharing no factor with all of them; entry (i, j) is
    ``numerators[i][j] / denominator``.  ``_form`` is the matrix's
    monomial form, None for a matrix that has none, and False until
    ``_form_of``, the only code that writes it, first needs it; after the
    first ``Transposed`` read it also holds the transpose's form.  ``==``
    and hashing ignore it.

    Immutability is a convention, not enforced: no caller assigns to a
    Matrix, and ``_form_of`` only fills in ``_form``.  The catalog
    generators, which every presentation of one catalog shares
    (``pelkit.algebras``), and the forms kept on them rely on it.
    """

    __slots__ = ("rows", "cols", "numerators", "denominator", "_form")

    def __init__(self, data):
        rows = tuple(map(tuple, data))
        if set(map(type, chain.from_iterable(rows))) <= {int}:
            den = 1  # plain ints are their own numerators
        else:
            rows = [[x if type(x) is int else _frac(x) for x in r] for r in rows]
            # Over the lcm of the entries' reduced denominators the numerators
            # are already coprime to the common denominator.
            den = lcm(*{x.denominator for r in rows for x in r})
            rows = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValueError("ragged or empty matrix rows")
        self.rows = len(rows)
        self.cols = width
        self.numerators = rows
        self.denominator = den
        self._form = False

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.scalar(n, 1)

    @staticmethod
    def scalar(n: int, c) -> "Matrix":
        """c times the n x n identity, written on the diagonal."""
        if n < 1:
            raise ValueError("matrix needs at least one row")
        c = c if type(c) is int else _frac(c)
        p, den = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        return _wrap(tuple((0,) * i + (p,) + (0,) * (n - i - 1) for i in range(n)), den)

    @staticmethod
    def from_numerators(rows, den: int = 1) -> "Matrix":
        """Matrix with entries rows[i][j] / den, for integer rows of equal
        length and an integer den != 0."""
        return _lowest(rows, den)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)])

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
        return f"Matrix({self._entry_texts()})"

    def _entry_texts(self) -> list:
        """The entries' texts "p" or "p/q" (lowest terms, q > 0), row by row, each distinct numerator written once."""
        den, text = self.denominator, {}
        for x in set(chain.from_iterable(self.numerators)):
            g = gcd(x, den)
            text[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
        return [list(map(text.__getitem__, r)) for r in self.numerators]

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
        return _wrap(tuple(tuple(map(neg, r)) for r in self.numerators), self.denominator)

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
            nonzero = inner - ra.count(0)
            if nonzero == 1:
                # monomial row: the one row of other it selects, times its entry
                k = next(compress(count(), ra))
                a = ra[k]
                out.append(b[k] if a == 1 else tuple(map(neg, b[k])) if a == -1 else tuple(map(mul, b[k], repeat(a))))
            elif 3 * nonzero > inner:
                # dense row: one dot product per column of other
                if columns is None:
                    columns = tuple(zip(*b))
                out.append([sum(map(mul, ra, col)) for col in columns])
            else:
                # sparse or zero row: add up the rows of other it selects
                acc = zero
                for k in compress(range(inner), ra):
                    a = ra[k]
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
        return self.is_square() and tuple(zip(*m)) == m

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(r[i] for i, r in enumerate(self.numerators)), self.denominator)

    # -- elimination-based operations ----------------------------------------

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        form = _form_of(self)
        if form is not None:  # nonzero only when the nonzeros sit on a permutation
            cols = form[0]
            if None in cols or len(set(cols)) < n:
                return Fraction(0)
            return Fraction(_permutation_sign(cols) * prod(form[1]), self.denominator**n)
        ech = Echelon(n)
        if any(ech.insert(r) is not None for r in self.numerators):
            return Fraction(0)
        return Fraction(ech.sign * ech.p, self.denominator**n)

    def inv(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        ech = Echelon(n)
        for i, r in enumerate(self.numerators):
            if ech.insert(r + (0,) * i + (1,) + (0,) * (n - i - 1)) is not None:
                raise ValueError("matrix is singular")
        # the right half over p is (numerators)^-1; self^-1 is denominator * that
        den = self.denominator
        return _lowest([[den * x for x in r[n:]] for r in ech.rows], ech.p)

    def rank(self) -> int:
        ech = Echelon(self.cols)
        return sum(ech.insert(r) is None for r in self.numerators)

    def solve(self, rhs: "Matrix") -> "Matrix":
        """Solve self @ X = rhs exactly; raises ValueError if inconsistent."""
        if self.rows != rhs.rows:
            raise ValueError("shape mismatch in solve")
        k, w = self.cols, rhs.cols
        ech = Echelon(k)
        for a, b in zip(self.numerators, rhs.numerators):
            res = ech.insert(a + b)
            if res is not None and any(res[k:]):
                raise ValueError("inconsistent linear system")
        # Y[c] = (row with pivot c)[k:] / p, and X = Y * self.denominator / rhs.denominator
        da = self.denominator
        sol = [[0] * w for _ in range(k)]
        for c, r in zip(ech.pivots, ech.rows):
            sol[c] = [da * x for x in r[k:]]
        return _lowest(sol, ech.p * rhs.denominator)

    def column_space_basis(self) -> "Matrix":
        """Matrix whose columns are the pivot columns of self (a basis of the
        image): each column not in the span of the columns before it."""
        ech = Echelon(self.rows)
        keep = [j for j, col in enumerate(zip(*self.numerators)) if ech.insert(col) is None]
        if not keep:
            raise RankDeficientError("zero matrix has no column-space basis")
        return _lowest([[r[c] for c in keep] for r in self.numerators], self.denominator)


class Transposed:
    """A factor of ``products_equal``, ``signature`` or ``trace`` read as
    the transpose of ``matrix``; on the form route it is never built."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: "Matrix"):
        self.matrix = matrix


def _product_form(factors):
    """The monomial form of the product of factors, each a square Matrix or
    Transposed of one size: (cols, vals, den), where row i is vals[i] / den
    at column cols[i], None and 0 for a zero row.  It composes the kept
    forms (``_form_of``) in O(n) per factor and builds none, so callers only
    read the lists, which may be a matrix's own.  None when a factor is not
    monomial, its transpose has a repeated column, or the sizes differ."""
    out = None
    for factor in factors:
        t = type(factor) is Transposed
        m = factor.matrix if t else factor
        if m.rows != m.cols or out and len(out[0]) != m.rows or (form := _form_of(m, t)) is None:
            return None
        cols, vals = form[0], form[1]
        if out is not None:  # row i of the product is row k = ocols[i] of this factor, times ovals[i]
            ocols, ovals, oden = out
            cols = [None if k is None else cols[k] for k in ocols]
            vals = [v and v * vals[k] for k, v in zip(ocols, ovals)]
        out = cols, vals, m.denominator * (oden if out else 1)
    return out


def _dense(factors) -> "Matrix":
    return reduce(matmul, [f.matrix.transpose() if type(f) is Transposed else f for f in factors])


def products_equal(lhs, rhs=(), scale=1) -> bool:
    """Whether the product of the factors lhs, each a Matrix or Transposed,
    equals scale (nonzero) times the product of rhs, or times the identity
    when rhs is empty.  When every factor has a monomial form
    (``_product_form``) it compares forms, in O(n); otherwise it multiplies
    with ``@`` and compares with ``==``."""
    f = _product_form(lhs)
    g = f and (_product_form(rhs) if rhs else (list(range(len(f[0]))), [1] * len(f[0]), 1))
    if f and g and scale:
        return f[0] == g[0] and [v * g[2] for v in f[1]] == [scale * f[2] * v for v in g[1]]
    a = _dense(lhs)
    b = _dense(rhs) if rhs else Matrix.identity(a.rows)
    return a == (b if scale == 1 else b.scale(scale))


def trace(*factors) -> Fraction:
    """The trace of the product of factors, as in ``products_equal``, off its form when it has one."""
    f = _product_form(factors)
    if f is None:
        return _dense(factors).trace()
    return Fraction(sum(v for i, c, v in zip(count(), f[0], f[1]) if c == i), f[2])


class Signature(_Value):
    """Sylvester signature (positive, negative, zero) of a symmetric form."""

    __slots__ = ("positive", "negative", "zero")  # ints

    def is_positive_definite(self) -> bool:
        return self.negative == 0 and self.zero == 0


def signature(*factors) -> Signature:
    """Sylvester signature of the symmetric form that is the product of
    factors (one Matrix, or several as in ``products_equal``).

    A symmetric monomial form is a sum of 1 x 1 blocks, each counted by its
    sign, and hyperbolic planes [[0, a], [a, 0]], each one positive and one
    negative; on factors with monomial forms neither the product nor its
    transpose is built.  Any other form goes to ``_bareiss_signature``.
    """
    f = _product_form(factors)
    if f is None:
        gram = _dense(factors)
        if not gram.is_square():
            raise NotSymmetricError("gram matrix must be square")
        if not gram.is_symmetric():
            raise NotSymmetricError("gram matrix must equal its transpose")
        f = _product_form((gram,))
        if f is None:
            return _bareiss_signature(gram.numerators)
    elif any(c is not None and (f[0][c] != i or f[1][c] != f[1][i]) for i, c in enumerate(f[0])):
        raise NotSymmetricError("gram matrix must equal its transpose")
    pos = neg = zero = 0
    for i, c, v in zip(count(), f[0], f[1]):
        if c is None:
            zero += 1
        elif c != i:  # row i of a plane; count the plane at its first row
            pos += i < c
            neg += i < c
        elif v > 0:
            pos += 1
        else:
            neg += 1
    return Signature(pos, neg, zero)


def _bareiss_signature(rows) -> Signature:
    """Sylvester signature of the symmetric form with integer rows ``rows``,
    the numerators of a form: its positive denominator leaves the signature
    as it is.

    Congruence diagonalization using the first nonzero diagonal pivot; when
    the remaining diagonal vanishes but an off-diagonal entry survives, the
    standard rank-2 fix-up (add row+column) restores a diagonal pivot.  It
    runs fraction-free: symmetric Bareiss
    elimination keeps the trailing block equal to the previous pivot times
    the true Schur complement, so each true pivot has the sign of the
    stored pivot times the sign of the previous one.
    """
    n = len(rows)
    b = [list(r) for r in rows]
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
            elif p != prev:  # rescale the row on its support
                for t in compress(range(k + 1, n), br[k + 1 :]):
                    br[t] = p * br[t] // prev
        prev = p
    return Signature(pos, neg, zero)
