"""The all-pairs algebra closure and anti-involution check, kept as the test
oracle for ``pelkit.algebras``.

The closure here multiplies every pair of basis elements until no product
is new, and the involution check compares the star of every such product
with the reversed product of the stars.  ``pelkit.algebras`` closes under
right multiplication by the generators alone and checks star reversal on
basis x generator pairs; tests cross-check the two.

The span below is a primitive-row echelon that carries each row's expression
in the inserted matrices as sparse ``Fraction`` coordinates, and ``_combine``
multiplies those back out to compare star images.  It shares no elimination
code with ``pelkit``, whose closure checks the star in the Bareiss echelon
of ``pelkit.linalg``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from pelkit.algebras import AlgebraPresentation, InvolutionReport, _trace_gram
from pelkit.linalg import Matrix, signature


class _Span:
    """Incremental echelon span of matrices, kept fraction-free.

    A matrix enters as its flattened numerators.  Each echelon row is a
    primitive integer vector stored with its pivot, its nonzero positions
    and its expression in the inserted matrices (sparse rational
    coordinates), so coordinates come out relative to the inserted basis.
    """

    def __init__(self):
        self.rows = []  # echelon vectors, lists of int
        self.pivots = []
        self.support = []  # nonzero positions of each echelon vector
        self.exprs = []  # each echelon vector as ((inserted index, Fraction), ...)
        self.size = 0  # number of inserted basis elements

    def _reduce(self, mat: Matrix):
        """Reduce the numerators of mat.  Returns (residual, s, coeff): the
        integer residual equals s * (mat - sum of coeff[i] * inserted[i]),
        flattened, for a nonzero integer s."""
        vec = [x for r in mat.numerators for x in r]
        den = mat.denominator
        s = 1
        coeff = {}
        for row, piv, nz, expr in zip(self.rows, self.pivots, self.support, self.exprs):
            c = vec[piv]
            if not c:
                continue
            p = row[piv]
            f = Fraction(c, p * s * den)  # coordinate of row in mat's expansion
            for i, e in expr:
                coeff[i] = coeff.get(i, 0) + f * e
            g = gcd(c, p)
            q, t = p // g, c // g
            if q != 1:
                vec = [q * x for x in vec]
                s *= q
            if 4 * len(nz) < len(vec):
                for i in nz:
                    vec[i] -= t * row[i]
            else:
                vec = [x - t * y for x, y in zip(vec, row)]
        return vec, s * den, coeff

    @staticmethod
    def _sparse(coeff):
        return tuple(sorted((i, c) for i, c in coeff.items() if c))

    def coords(self, mat: Matrix):
        """Coordinates in the inserted basis as ((index, Fraction), ...), or
        None if mat is not in the span."""
        res, _, coeff = self._reduce(mat)
        if any(res):
            return None
        return self._sparse(coeff)

    def insert(self, mat: Matrix):
        """Insert a new basis matrix; returns its coordinates if dependent."""
        res, s, coeff = self._reduce(mat)
        if not any(res):
            return self._sparse(coeff)
        g = gcd(*res)
        row = [x // g for x in res]
        # row = (s / g) * (mat - sum of coeff[i] * inserted[i])
        f = Fraction(s, g)
        self.rows.append(row)
        self.pivots.append(next(i for i, x in enumerate(row) if x))
        self.support.append([i for i, x in enumerate(row) if x])
        self.exprs.append(tuple((i, -f * c) for i, c in sorted(coeff.items()) if c) + ((self.size, f),))
        self.size += 1
        return None


class _Closure:
    def __init__(self, basis, star_of, prod_coords, linearity_witness, span):
        self.basis = basis  # list[Matrix]
        self.star_of = star_of  # list[Matrix]
        self.prod_coords = prod_coords  # dict[(i, g)] -> sparse coords of basis[i] @ basis[g]
        self.linearity_witness = linearity_witness
        self.span = span  # _Span whose inserted basis is exactly ``basis``


def _combine(mats, sparse_coords, dim):
    """The integer linear combination sum of c * mats[idx] over the sparse
    coordinates, over one common denominator."""
    den = lcm(*(c.denominator * mats[idx].denominator for idx, c in sparse_coords))
    rows = [[0] * dim for _ in range(dim)]
    for idx, c in sparse_coords:
        m = mats[idx]
        f = c.numerator * (den // (c.denominator * m.denominator))
        rows = [list(map(add, acc, map(mul, r, repeat(f)))) for acc, r in zip(rows, m.numerators)]
    return Matrix.from_numerators(rows, den)


def oracle_closure(alg: AlgebraPresentation) -> _Closure:
    dim = alg.dim_v
    span = _Span()
    basis: list[Matrix] = []
    star_of: list[Matrix] = []
    linearity_witness = None

    def push(mat: Matrix, star: Matrix):
        coords = span.insert(mat)
        if coords is None:
            basis.append(mat)
            star_of.append(star)
        return coords

    ident = Matrix.identity(dim)
    push(ident, ident)
    for act, star in alg.generators:
        coords = push(act, star)
        if coords is not None and linearity_witness is None:
            combo = _combine(star_of, coords, dim)
            if combo != star:
                linearity_witness = (act, star)
    prod_coords = {}
    while True:
        k = len(basis)
        todo = [(i, j) for i in range(k) for j in range(k) if (i, j) not in prod_coords]
        if not todo:
            break
        for i, j in todo:
            prod = basis[i] @ basis[j]
            coords = span.coords(prod)
            if coords is None:
                push(prod, star_of[j] @ star_of[i])
                prod_coords[(i, j)] = ((len(basis) - 1, Fraction(1)),)
            else:
                prod_coords[(i, j)] = coords
    return _Closure(basis, star_of, prod_coords, linearity_witness, span)


def oracle_check_anti_involution(alg: AlgebraPresentation) -> InvolutionReport:
    cl = oracle_closure(alg)
    dim = alg.dim_v
    if cl.linearity_witness is not None:
        return InvolutionReport(False, "star is not linear on dependent generators", cl.linearity_witness)
    star_coords = []
    for m, s in zip(cl.basis, cl.star_of):
        coords = cl.span.coords(s)
        if coords is None:
            return InvolutionReport(False, "star image leaves the algebra", (m, s))
        star_coords.append(coords)
    for m, s, sc in zip(cl.basis, cl.star_of, star_coords):
        ss = _combine(cl.star_of, sc, dim)
        if ss != m:
            return InvolutionReport(False, "star is not an involution", (m, s))
    for (i, j), coords in sorted(cl.prod_coords.items()):
        lhs = _combine(cl.star_of, coords, dim)
        rhs = cl.star_of[j] @ cl.star_of[i]
        if lhs != rhs:
            return InvolutionReport(
                False, "star does not reverse products", (cl.basis[i], cl.basis[j])
            )
    return InvolutionReport(True)


def oracle_check_positive(alg: AlgebraPresentation) -> bool:
    return signature(_trace_gram(oracle_closure(alg))).is_positive_definite()
