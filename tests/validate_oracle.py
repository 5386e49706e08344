"""The full axiom sequence of validation, kept as the test oracle for
``pelkit.peldata.validate``.

This runs every axiom on every datum in the coordinates of V, the two
involution axioms through the algebra closure included.  ``validate`` reads
a structured datum in catalog coordinates and skips the closure, since its
involution is the catalog's canonical positive one; it must return the same
report as this on every datum.
"""

from __future__ import annotations

from pelkit.algebras import AlgebraPresentation, check_anti_involution, check_positive
from pelkit.linalg import Matrix, NotSymmetricError, signature
from pelkit.peldata import PelDatum, ValidationReport


def is_antisymmetric(m: Matrix) -> bool:
    """Whether m is square and its transpose is -m."""
    rows = m.numerators
    return m.is_square() and tuple(zip(*rows)) == tuple(tuple(-x for x in r) for r in rows)


def v_generators(alg: AlgebraPresentation) -> tuple:
    """The generators of alg acting on V: for a structured presentation
    with basis b, each catalog generator (a, s) moved to (b^-1 a b, b^-1 s b)."""
    b, b_inv = alg.basis, alg.basis_inv
    if b is None:
        return alg.generators
    return tuple((b_inv @ a @ b, b_inv @ s @ b) for a, s in alg.generators)


def oracle_validate(datum: PelDatum) -> ValidationReport:
    n = datum.dim_v
    gens = v_generators(datum.algebra)
    m = datum.pairing
    j = datum.j
    passed = []

    def fail(code, message):
        return ValidationReport(False, code, message, tuple(passed))

    if m.rows != n or m.cols != n or j.rows != n or j.cols != n:
        return fail("shape", "pairing and j must be dim_v x dim_v")
    passed.append("shape")

    if not is_antisymmetric(m):
        return fail("pairing_antisymmetric", "pairing is not alternating")
    passed.append("pairing_antisymmetric")

    if m.det() == 0:
        return fail("pairing_nondegenerate", "pairing is degenerate")
    passed.append("pairing_nondegenerate")

    for k, (act, star) in enumerate(gens):
        if act.transpose() @ m != m @ star:
            return fail(
                "star_adjoint",
                f"generator {k} is not adjoint to its star image under the pairing",
            )
    passed.append("star_adjoint")

    if j @ j != Matrix.identity(n).scale(-1):
        return fail("j_square", "j does not square to -identity")
    passed.append("j_square")

    for k, (act, _) in enumerate(gens):
        if j @ act != act @ j:
            return fail("j_commutes", f"j does not commute with generator {k}")
    passed.append("j_commutes")

    if j.transpose() @ m != -(m @ j):
        return fail("j_pairing_skew", "<ju, v> != -<u, jv>")
    passed.append("j_pairing_skew")

    try:
        sig = signature(m @ j)
    except NotSymmetricError:
        return fail("polarization_positive", "<u, jv> is not a symmetric form")
    if not sig.is_positive_definite():
        return fail(
            "polarization_positive",
            f"<u, jv> has signature ({sig.positive},{sig.negative},{sig.zero}), not positive definite",
        )
    passed.append("polarization_positive")

    alg = AlgebraPresentation.raw(n, gens)
    inv = check_anti_involution(alg)
    if not inv.ok:
        return fail("involution_anti", inv.reason)
    passed.append("involution_anti")

    if not check_positive(alg):
        return fail("involution_positive", "trace form of the involution is not positive definite")
    passed.append("involution_positive")

    return ValidationReport(True, None, "all axioms hold", tuple(passed))
