"""End-to-end exercise of a datum with two factors of different types."""

from pelkit.admissibility import MorphismSpec, RepSide, decide
from pelkit.characters import Factor, RootDatum, TorusMap
from pelkit.fixtures import NAMED, catalog_datum
from pelkit.hodge import auto_cochar, is_av_type
from pelkit.peldata import GroupFactorization, classify, shimura_report, validate

MIXED = NAMED["modular_curve"] + NAMED["gu11"]  # Q on Q^2 plus Q(i) on Q(i)^2


def test_mixed_datum_classifies():
    datum = catalog_datum(MIXED)
    assert validate(datum).valid
    assert classify(datum).factorization == GroupFactorization((1,), ((1, 1),), ())
    report = shimura_report(classify(datum).factorization)
    assert report.is_shimura_datum_for_g0 and report.g_connected


def test_mixed_standard_char_and_cochar():
    cl = classify(catalog_datum(MIXED))
    assert cl.root_datum == RootDatum((Factor("C", 1), Factor("A", 2)), 1)
    assert cl.standard_char.dim() == 6
    hc = auto_cochar(cl)
    assert hc.mu2 == (1, 1, -1, 1)
    assert is_av_type(cl.standard_char, hc)


def test_mixed_identity_admissible():
    cl = classify(catalog_datum(MIXED))
    side = RepSide(cl.root_datum, cl.standard_char)
    verdict = decide(MorphismSpec(side, side, TorusMap.identity(4)))
    assert verdict.admissible and verdict.witness_n == 1


def test_mixed_missing_constituents_detected():
    # synthetic torus map killing the symplectic block: the symplectic part
    # of the mixed standard character pulls back to central-only weights,
    # which are not constituents of the unitary standard character
    mixed = classify(catalog_datum(MIXED))
    gu = classify(catalog_datum(NAMED["gu11"]))
    pullback = TorusMap(
        (
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )
    )
    spec = MorphismSpec(
        RepSide(gu.root_datum, gu.standard_char),
        RepSide(mixed.root_datum, mixed.standard_char),
        pullback,
    )
    verdict = decide(spec)
    assert not verdict.admissible
    assert (0, 0, 1) in verdict.missing_constituents


def test_quaternionic_morita_pair():
    # the same rank-1 quaternionic-orthogonal group presented over M_1(H)
    # acting on H and over M_2(H) acting on H^2; the identity morphism is
    # admissible for either assignment of the two data
    small = catalog_datum(NAMED["quaternion"])
    big = catalog_datum([("quaternion", 2, 1, -1, -1)])
    assert validate(big).valid
    assert classify(big).factorization == classify(small).factorization == GroupFactorization((), (), (1,))
    cs, cb = classify(small), classify(big)
    assert cs.standard_char.dim() == 4 and cb.standard_char.dim() == 8
    ident = TorusMap.identity(2)
    up = decide(MorphismSpec(RepSide(cs.root_datum, cs.standard_char),
                             RepSide(cb.root_datum, cb.standard_char), ident))
    down = decide(MorphismSpec(RepSide(cb.root_datum, cb.standard_char),
                               RepSide(cs.root_datum, cs.standard_char), ident))
    assert up.admissible and up.witness_n == 2
    assert down.admissible and down.witness_n == 1
