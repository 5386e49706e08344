"""Bundled example data and the conformance runner behind ``pel fixtures``.

The builders return the worked examples the package is pinned against: the
modular-curve datum over Q, its Morita twin over the 2x2 matrix algebra,
the indefinite unitary datum over Q(i), the 8-dimensional symplectic datum
receiving its determinant-twisted map, plus two extra data (a definite
quaternion datum and a balanced Q(sqrt-2) datum) exercising the remaining
classification branches.
"""

from __future__ import annotations

from .admissibility import MorphismSpec, RepSide, decide
from .algebras import (
    MAT_DEF_QUAT,
    MAT_IMAG_QUAD,
    MAT_Q,
    AlgebraPresentation,
    CatalogFactor,
)
from .characters import TorusMap
from .hodge import auto_cochar, enumerate_av_irreducibles
from .linalg import Matrix
from .peldata import Classification, PelDatum, classify, validate


def modular_curve_datum() -> PelDatum:
    """B = Q acting on Q^2 with the standard alternating form."""
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, 1, 2)]),
        pairing=Matrix([[0, 1], [-1, 0]]),
        j=Matrix([[0, -1], [1, 0]]),
    )


def modular_curve_m2_datum() -> PelDatum:
    """B = M_2(Q) acting diagonally on Q^4; same group as the Q^2 datum."""
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, 2, 2)]),
        pairing=Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
        j=Matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    )


def gu11_datum() -> PelDatum:
    """B = Q(i) on Q(i)^2 with pairings of opposite orientation on the two
    copies and complex structure acting as (i, -i): the indefinite unitary
    similitude group of signature (1,1)."""
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, 1, 2, d=-1)]),
        pairing=Matrix([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, -2], [0, 0, 2, 0]]),
        j=Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
    )


def gsp8_tensor_datum() -> PelDatum:
    """B = Q on the 8-dimensional space V' (x) Q(i) built from the unitary
    datum: pairing and complex structure are the Kronecker products of the
    unitary ones with the trace form (resp. identity) of Q(i)."""
    gu = gu11_datum()
    trace_form = Matrix([[2, 0], [0, 2]])
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, 1, 8)]),
        pairing=gu.pairing.kron(trace_form),
        j=gu.j.kron(Matrix.identity(2)),
    )


def quaternion_datum() -> PelDatum:
    """B = (-1,-1)-quaternions acting on themselves by left multiplication;
    the classified group is the rank-1 quaternionic orthogonal group."""
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_DEF_QUAT, 1, 1, a=-1, b=-1)]),
        pairing=Matrix(
            [[0, 0, -4, 0], [0, 0, 0, -4], [4, 0, 0, 0], [0, 4, 0, 0]]
        ),
        j=Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
    )


def balanced_imag_quad_datum() -> PelDatum:
    """B = Q(sqrt-2) on two copies of itself; the rationality of the complex
    structure forces the balanced signature (1,1)."""
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, 1, 2, d=-2)]),
        pairing=Matrix([[0, 0, 2, 0], [0, 0, 0, 4], [-2, 0, 0, 0], [0, -4, 0, 0]]),
        j=Matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    )


def u20_datum() -> PelDatum:
    """Definite unitary datum U(2,0): both copies of Q(i) carry the same
    orientation, so the complex structures agree everywhere."""
    return PelDatum(
        algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, 1, 2, d=-1)]),
        pairing=Matrix([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]),
        j=Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    )


# -- mutations -------------------------------------------------------------------


def _break_star(datum: PelDatum) -> PelDatum:
    """Replace every generator's star image by the generator itself (the
    identity involution), breaking pairing-adjointness for noncommutative
    or imaginary-quadratic actions."""
    gens = tuple((a, a) for a, _ in datum.algebra.generators)
    return PelDatum(
        algebra=AlgebraPresentation.raw(datum.dim_v, gens),
        pairing=datum.pairing,
        j=datum.j,
    )


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
    pullback = TorusMap(
        (
            (3, 2, 1, 2, 0),
            (2, 3, 2, 1, 0),
            (0, 0, 0, 0, 1),
        )
    )
    return MorphismSpec(side_of(src), side_of(dst), pullback)


# -- conformance table -------------------------------------------------------------


def conformance_rows():
    """Deterministic pass/fail table over every bundled example.  ``data`` lists
    each bundled datum once, with the factors it must classify to (see ``kinds``)."""
    rows = []

    def row(name, check, expected, got):
        rows.append(
            {
                "fixture": name,
                "check": check,
                "expected": expected,
                "got": got,
                "pass": expected == got,
            }
        )

    data = (
        ("modular_curve", modular_curve_datum(), [1], [], []),
        ("modular_curve_m2", modular_curve_m2_datum(), [1], [], []),
        ("gu11", gu11_datum(), [], [[1, 1]], []),
        ("gsp8_tensor", gsp8_tensor_datum(), [4], [], []),
        ("quaternion", quaternion_datum(), [], [], [1]),
        ("balanced_sqrt_minus_2", balanced_imag_quad_datum(), [], [[1, 1]], []),
    )
    for name, datum, *_ in data:
        row(name, "validate", "valid", "valid" if validate(datum).valid else "invalid")

    kinds = ("symplectic", "unitary", "orthogonal")
    for name, datum, *want in data:
        fact = classify(datum).factorization.to_dict()
        row(name, "classify", dict(zip(kinds, want)), {k: fact[k] for k in kinds})

    for name, datum, code in mutations():
        report = validate(datum)
        row(name, "mutation_diagnostic", code, report.failure_code or "valid")

    for name, spec in identity_morphisms():
        verdict = decide(spec)
        row(
            name,
            "identity_admissible",
            {"admissible": True, "witness_in_1_2": True},
            {"admissible": verdict.admissible, "witness_in_1_2": verdict.witness_n in (1, 2)},
        )

    twist = decide(det_twist_morphism())
    row(
        "det_twist",
        "not_admissible",
        {"admissible": False, "names_missing_constituent": True},
        {
            "admissible": twist.admissible,
            "names_missing_constituent": (3, 2, 1) in twist.missing_constituents,
        },
    )

    for g in (1, 2, 3):
        cl = classify(
            PelDatum(
                algebra=AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, 1, 2 * g)]),
                pairing=Matrix.block_diag(
                    *[Matrix([[0, 1], [-1, 0]]) for _ in range(g)]
                ),
                j=Matrix.block_diag(*[Matrix([[0, -1], [1, 0]]) for _ in range(g)]),
            )
        )
        found = enumerate_av_irreducibles(cl.root_datum, auto_cochar(cl), bound=4)
        std_weight = tuple([1] + [0] * (g - 1) + [1])
        row(
            f"symplectic_rank_{g}",
            "av_irreducibles",
            [list(std_weight)],
            [list(w) for w in found],
        )

    return rows


def conformance_ok(rows) -> bool:
    return all(r["pass"] for r in rows)
