"""Independence of the presentation, as a seeded property.

A base change of V, and a positive rational multiple of the pairing,
present the same Shimura datum (Kottwitz, JAMS 5, 1992, section 1), so
validation, classification, the auto cocharacter and the Hodge type of the
standard representation must not see either, in memory or after a JSON
round trip.  Nor may the report on a mutant that breaks one axiom: moved
the same way, it fails with the same code and message after the same
checks, also in the coordinates of V (``validate_oracle``).  These are the
first two generators of the independence suite; Morita amplification is
the third.
"""

import json
from fractions import Fraction
from functools import lru_cache
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_mixed_factors import MIXED
from test_peldata import ALL_DATA, random_rational, random_unimodular
from validate_oracle import oracle_validate

from pelkit import serialize
from pelkit.fixtures import _break_star, catalog_datum
from pelkit.hodge import auto_cochar, hodge_type
from pelkit.linalg import Matrix
from pelkit.peldata import PelDatum, classify, validate

FIXTURES = ALL_DATA | {"mixed_datum": lambda: catalog_datum(MIXED)}


def invariants(datum: PelDatum):
    """Everything the presentation must not change: the validation report,
    the factorization, root datum and standard character, the auto
    cocharacter and the Hodge type of the standard representation."""
    cl = classify(datum)
    cochar = auto_cochar(cl)
    return (
        validate(datum),
        cl.factorization,
        cl.root_datum,
        cl.standard_char,
        cochar,
        hodge_type(cl.standard_char, cochar),
    )


@lru_cache(maxsize=None)
def canonical_invariants(name: str):
    return invariants(FIXTURES[name]())


def moved(datum: PelDatum, changes, seed: int, scale: Fraction) -> PelDatum:
    """datum moved by one seeded P per entry of changes ("u" draws a
    unimodular P, "r" a rational one), its pairing scaled by scale."""
    rng = Random(seed)
    for kind in changes:
        draw = random_unimodular if kind == "u" else random_rational
        datum = datum.conjugate(draw(rng, datum.dim_v))
    return PelDatum(datum.algebra, datum.pairing.scale(scale), datum.j)


def reload(datum: PelDatum) -> PelDatum:
    return serialize.datum_from_json(json.loads(serialize.dumps(serialize.datum_to_json(datum))))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(FIXTURES)),
    st.lists(st.sampled_from("ur"), max_size=2),
    st.integers(0, 2**32),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)
def test_presentation_is_invisible(name, changes, seed, scale):
    datum = moved(FIXTURES[name](), changes, seed, scale)
    expected = canonical_invariants(name)
    assert invariants(datum) == expected
    again = reload(datum)
    assert again == datum and again.algebra.basis == datum.algebra.basis
    assert invariants(again) == expected


def test_every_fixture_under_every_move():
    # the property draws its cases; this sweep moves each fixture by both
    # kinds of P, composed in both orders, whatever hypothesis draws
    for name in FIXTURES:
        for changes in ((), ("u",), ("r",), ("u", "r"), ("r", "u")):
            datum = moved(FIXTURES[name](), changes, 7, Fraction(3, 2))
            assert invariants(reload(datum)) == canonical_invariants(name), (name, changes)


def _bumped(m: Matrix) -> Matrix:
    rows = m.tolist()
    rows[0][0] += 1
    return Matrix(rows)


# Each breaks one axiom of a fixture; the identity star breaks none where
# every generator is self-adjoint.  A mutant is built in the fixture's own
# coordinates, and then moved.
MUTATIONS = {
    "bumped_pairing": lambda d: PelDatum(d.algebra, _bumped(d.pairing), d.j),
    "zero_pairing": lambda d: PelDatum(d.algebra, Matrix.zero(d.dim_v, d.dim_v), d.j),
    "identity_star": _break_star,
    "doubled_j": lambda d: PelDatum(d.algebra, d.pairing, d.j.scale(2)),
    "moved_j": lambda d: PelDatum(d.algebra, d.pairing, _moved_j(d)),
    "negated_j": lambda d: PelDatum(d.algebra, d.pairing, -d.j),
    "negated_pairing": lambda d: PelDatum(d.algebra, -d.pairing, d.j),
}


def _moved_j(d: PelDatum) -> Matrix:
    """j moved by a seeded rational Q that need not commute with the
    algebra, nor be symplectic: it still squares to -1."""
    q = random_rational(Random(d.dim_v), d.dim_v)
    return q.inv() @ d.j @ q


def assert_mutant_report_is_invisible(name, mutation, changes, seed, scale):
    mutant = MUTATIONS[mutation](FIXTURES[name]())
    expected = validate(mutant)
    datum = moved(mutant, changes, seed, scale)
    assert validate(datum) == expected and oracle_validate(datum) == expected
    assert validate(reload(datum)) == expected
    return expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(FIXTURES)),
    st.sampled_from(sorted(MUTATIONS)),
    st.lists(st.sampled_from("ur"), min_size=1, max_size=2),
    st.integers(0, 2**32),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
)
def test_moved_mutant_reports_as_the_canonical_mutant(name, mutation, changes, seed, scale):
    assert_mutant_report_is_invisible(name, mutation, changes, seed, scale)


def test_every_mutant_of_every_fixture_under_both_moves():
    codes = set()
    for name in FIXTURES:
        for mutation in MUTATIONS:
            report = assert_mutant_report_is_invisible(name, mutation, ("u", "r"), 11, Fraction(2, 3))
            assert report.failure_code or mutation == "identity_star", (name, mutation)
            codes.add(report.failure_code)
    assert codes == {
        None,
        "pairing_antisymmetric",
        "pairing_nondegenerate",
        "star_adjoint",
        "j_square",
        "j_commutes",
        "j_pairing_skew",
        "polarization_positive",
    }
