"""Independence of the presentation, as a seeded property.

A base change of V, and a positive rational multiple of the pairing,
present the same Shimura datum (Kottwitz, JAMS 5, 1992, section 1), so
validation, classification, the auto cocharacter and the Hodge type of the
standard representation must not see either, in memory or after a JSON
round trip.  These are the first two generators of the independence suite;
Morita amplification is the third.
"""

import json
from fractions import Fraction
from functools import lru_cache
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_mixed_factors import mixed_datum
from test_peldata import ALL_DATA, random_rational, random_unimodular

from pelkit import serialize
from pelkit.hodge import auto_cochar, hodge_type
from pelkit.peldata import PelDatum, classify, validate

FIXTURES = {build.__name__: build for build in ALL_DATA + [mixed_datum]}


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


def moved(name: str, changes, seed: int, scale: Fraction) -> PelDatum:
    """The fixture moved by one seeded P per entry of changes ("u" draws a
    unimodular P, "r" a rational one), its pairing scaled by scale."""
    rng = Random(seed)
    datum = FIXTURES[name]()
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
    datum = moved(name, changes, seed, scale)
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
            datum = moved(name, changes, 7, Fraction(3, 2))
            assert invariants(reload(datum)) == canonical_invariants(name), (name, changes)
