"""The all-pairs algebra closure and anti-involution check, kept as the test
oracle for ``pelkit.algebras``.

The closure here multiplies every pair of basis elements until no product
is new, and the involution check compares the star of every such product
with the reversed product of the stars.  ``pelkit.algebras`` closes under
right multiplication by the generators alone and checks star reversal on
basis x generator pairs; tests cross-check the two.
"""

from __future__ import annotations

from fractions import Fraction

from pelkit.algebras import (
    AlgebraPresentation,
    InvolutionReport,
    _Closure,
    _combine,
    _Span,
    _trace_gram,
)
from pelkit.linalg import Matrix, signature


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
