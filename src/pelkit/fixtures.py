"""Bundled example data and the conformance runner behind ``pel fixtures``.

``catalog_datum(blocks)`` builds a structured datum as the block sum, in the
given order, of blocks of one catalog factor each.  A block is a tuple: its
family, n, the group's parameters, then the coefficient algebra's.

- ``("sp", n, g)``: Sp_2g on M_n(Q) with 2g copies of Q^n;
- ``("unitary", n, a, b)``: U(a, b) on M_n(Q(i)) with a + b copies, the
  first a with complex structure i on each coordinate, the last b with -i;
- ``("balanced", n, k, d)``: U(k, k) on M_n(Q(sqrt d)) with 2k copies, j
  swapping copy 2c with copy 2c + 1;
- ``("quaternion", n, m, a, b)``: O*_2m on M_n(D) with m copies, for the
  definite quaternion algebra D = (a, b) with a = -1 or b = -1.

``NAMED`` holds the blocks of the worked examples the package is pinned
against.  The 8-dimensional symplectic datum receiving the
determinant-twisted map is built by hand as the Kronecker image of gu11.
"""

from __future__ import annotations

from .admissibility import MorphismSpec, RepSide, decide
from .algebras import MAT_DEF_QUAT, MAT_IMAG_QUAD, MAT_Q, AlgebraPresentation, CatalogFactor, _coeff_generators
from .characters import TorusMap
from .hodge import auto_cochar, enumerate_av_irreducibles
from .linalg import Matrix
from .peldata import Classification, PelDatum, classify, validate

NAMED = {
    "modular_curve": (("sp", 1, 1),),  # Q on Q^2
    "modular_curve_m2": (("sp", 2, 1),),  # its Morita twin M_2(Q) on Q^4
    "gu11": (("unitary", 1, 1, 1),),  # Q(i) on Q(i)^2, j acting as (i, -i)
    "quaternion": (("quaternion", 1, 1, -1, -1),),  # (-1,-1) on itself
    "balanced_sqrt_minus_2": (("balanced", 1, 1, -2),),  # j rational forces U(1,1)
}
_J = Matrix([[0, 1], [-1, 0]])  # _J (x) T = [[0, T], [-T, 0]] pairs two copies


def _factor(block) -> CatalogFactor:
    """The catalog factor of one block; ``CatalogFactor`` refuses an n or a count below 1."""
    family, n, *p = block
    if family == "sp":
        (g,) = p
        return CatalogFactor(MAT_Q, n, 2 * g)
    if family == "unitary":
        a, b = p
        if min(a, b) < 0:
            raise ValueError("a and b must be >= 0")
        return CatalogFactor(MAT_IMAG_QUAD, n, a + b, d=-1)
    if family == "balanced":
        k, d = p
        return CatalogFactor(MAT_IMAG_QUAD, n, 2 * k, d=d)
    if family == "quaternion":
        m, a, b = p
        if -1 not in (a, b):
            raise ValueError("needs a = -1 or b = -1 for a rational u with u^2 = -1")
        return CatalogFactor(MAT_DEF_QUAT, n, m, a=a, b=b)
    raise ValueError(f"unknown family {family!r}")


def _quaternion_forms(factor: CatalogFactor):
    """Pairing and j on D = (a, b) acting on itself: j is right multiplication
    by a pure u with u^2 = -1 (-j if b = -1, else i), and <v, w> =
    Trd(conj(v) w t) = -4 (conj(v) w u)_0 with t = -2u.  On the integral
    left-regular matrices L_x, column c of j is L_{e_c} L_u 1 = e_c u, and
    row c of the pairing is -4 times the first row of L_{conj(e_c)} times j."""
    (one, _), (li, li_bar), (lj, lj_bar) = _coeff_generators(factor)
    lu = -lj if factor.b == -1 else li
    moved = [(x @ lu).numerators for x in (one, li, lj, li @ lj)]  # L_{e_c u}
    j = Matrix([[x[r][0] for x in moved] for r in range(4)])
    bar = Matrix([x.numerators[0] for x in (one, li_bar, lj_bar, lj_bar @ li_bar)])  # of 1, i, j, k
    return (bar @ j).scale(-4), j


def _forms(block, factor: CatalogFactor):
    """The pairing and j blocks, one per coordinate or pair of copies."""
    family, n, *p = block
    if family == "unitary":  # (2J, i) on each coordinate of the first a copies, (-2J, -i) on the last b
        a, b = (copies * n for copies in p)
        return [_J.scale(2)] * a + [_J.scale(-2)] * b, [-_J] * a + [_J] * b
    if family == "quaternion":
        pairing, j = _quaternion_forms(factor)
        return [pairing] * (n * p[0]), [j] * (n * p[0])
    # Sp and balanced: T is the trace form of Q, resp. Q(sqrt d), per coordinate
    t = Matrix.identity(n) if family == "sp" else Matrix.identity(n).kron(Matrix([[2, 0], [0, -2 * factor.d]]))
    return [_J.kron(t)] * p[0], [_J.kron(Matrix.scalar(t.rows, -1))] * p[0]


def catalog_datum(blocks) -> PelDatum:
    """The datum of a list of blocks.  A malformed block raises ``ValueError``
    naming it; a product past ``MAX_DIM_V`` raises ``CatalogTooLargeError``
    before any form is built."""
    blocks, factors = tuple(blocks), []
    for block in blocks:
        try:
            factors.append(_factor(block))
        except ValueError as exc:
            raise ValueError(f"block {block!r}: {exc}") from None
    algebra = AlgebraPresentation.from_catalog(factors)
    forms = [_forms(block, factor) for block, factor in zip(blocks, factors)]
    pairing, j = (Matrix.block_diag(*(x for f in forms for x in f[side])) for side in (0, 1))
    return PelDatum(algebra, pairing, j)


def expected_factors(blocks) -> dict:
    """The factorization a catalog datum classifies to, read off its blocks."""
    out = {"symplectic": [], "unitary": [], "orthogonal": []}
    for family, _, x, *y in blocks:
        kind = {"sp": "symplectic", "quaternion": "orthogonal"}.get(family, "unitary")
        out[kind].append([x, y[0] if family == "unitary" else x] if kind == "unitary" else x)
    return out


def modular_curve_datum() -> PelDatum:
    return catalog_datum(NAMED["modular_curve"])


def modular_curve_m2_datum() -> PelDatum:
    return catalog_datum(NAMED["modular_curve_m2"])


def gu11_datum() -> PelDatum:
    return catalog_datum(NAMED["gu11"])


def gsp8_tensor_datum() -> PelDatum:
    """B = Q on the 8-dimensional space V' (x) Q(i) built from the unitary
    datum: pairing and complex structure are the Kronecker products of the
    unitary ones with the trace form (resp. identity) of Q(i)."""
    gu = gu11_datum()
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, 1, 8)]),
        pairing=gu.pairing.kron(Matrix([[2, 0], [0, 2]])),
        j=gu.j.kron(Matrix.identity(2)),
    )


def quaternion_datum() -> PelDatum:
    return catalog_datum(NAMED["quaternion"])


def balanced_imag_quad_datum() -> PelDatum:
    return catalog_datum(NAMED["balanced_sqrt_minus_2"])


# -- mutations -------------------------------------------------------------------


def _break_star(datum: PelDatum) -> PelDatum:
    """Replace every generator's star image by the generator itself (the
    identity involution), breaking pairing-adjointness for noncommutative
    or imaginary-quadratic actions."""
    gens = tuple((a, a) for a, _ in datum.algebra.generators)
    return PelDatum(AlgebraPresentation.raw(datum.dim_v, gens), datum.pairing, datum.j)


def mutations():
    """Six single-axiom mutations of the bundled data, each with the
    diagnostic code validate() must fail with."""
    m1, m2, gu = modular_curve_datum(), modular_curve_m2_datum(), gu11_datum()
    return (
        ("modular_curve/negated_pairing", PelDatum(m1.algebra, -m1.pairing, m1.j), "polarization_positive"),
        ("modular_curve/negated_j", PelDatum(m1.algebra, m1.pairing, -m1.j), "polarization_positive"),
        ("modular_curve_m2/negated_pairing", PelDatum(m2.algebra, -m2.pairing, m2.j), "polarization_positive"),
        ("modular_curve_m2/negated_j", PelDatum(m2.algebra, m2.pairing, -m2.j), "polarization_positive"),
        ("gu11/negated_pairing", PelDatum(gu.algebra, -gu.pairing, gu.j), "polarization_positive"),
        ("gu11/broken_star", _break_star(gu), "star_adjoint"),
    )


# -- morphisms --------------------------------------------------------------------


def side_of(classification: Classification) -> RepSide:
    return RepSide(classification.root_datum, classification.standard_char)


def identity_morphisms():
    """The identity of the modular-curve group presented against each
    choice of datum on source and target (both directions)."""
    c1 = classify(modular_curve_datum())
    c2 = classify(modular_curve_m2_datum())
    ident = TorusMap.identity(2)
    return (
        ("q2_to_m2", MorphismSpec(side_of(c1), side_of(c2), ident)),
        ("m2_to_q2", MorphismSpec(side_of(c2), side_of(c1), ident)),
    )


def det_twist_morphism() -> MorphismSpec:
    """The unitary-to-symplectic map whose pullback of the standard
    representation is the standard representation twisted by the
    determinant character; it is not admissible."""
    src = classify(gu11_datum())
    dst = classify(gsp8_tensor_datum())
    pullback = TorusMap(((3, 2, 1, 2, 0), (2, 3, 2, 1, 0), (0, 0, 0, 0, 1)))
    return MorphismSpec(side_of(src), side_of(dst), pullback)


# -- conformance table -------------------------------------------------------------


def conformance_rows():
    """Deterministic pass/fail table over every bundled example.  ``data`` lists
    each bundled datum once, with the blocks whose factors it must classify to."""
    rows = []

    def row(name, check, expected, got):
        rows.append({"fixture": name, "check": check, "expected": expected, "got": got, "pass": expected == got})

    data = [(name, catalog_datum(blocks), blocks) for name, blocks in NAMED.items()]
    # the hand-built Kronecker image, with the blocks of the group it presents
    data.insert(3, ("gsp8_tensor", gsp8_tensor_datum(), (("sp", 1, 4),)))
    for name, datum, _ in data:
        row(name, "validate", "valid", "valid" if validate(datum).valid else "invalid")

    for name, datum, blocks in data:
        fact = classify(datum).factorization.to_dict()
        want = expected_factors(blocks)
        row(name, "classify", want, {k: fact[k] for k in want})

    for name, datum, code in mutations():
        row(name, "mutation_diagnostic", code, validate(datum).failure_code or "valid")

    for name, spec in identity_morphisms():
        verdict = decide(spec)
        got = {"admissible": verdict.admissible, "witness_in_1_2": verdict.witness_n in (1, 2)}
        row(name, "identity_admissible", {"admissible": True, "witness_in_1_2": True}, got)

    twist = decide(det_twist_morphism())
    got = {"admissible": twist.admissible, "names_missing_constituent": (3, 2, 1) in twist.missing_constituents}
    row("det_twist", "not_admissible", {"admissible": False, "names_missing_constituent": True}, got)

    for g in (1, 2, 3):
        cl = classify(catalog_datum([("sp", 1, g)]))
        found = enumerate_av_irreducibles(cl.root_datum, auto_cochar(cl), bound=4)
        std_weight = [1] + [0] * (g - 1) + [1]
        row(f"symplectic_rank_{g}", "av_irreducibles", [std_weight], [list(w) for w in found])

    return rows


def conformance_ok(rows) -> bool:
    return all(r["pass"] for r in rows)
