"""Brute-force admissibility oracle, kept beside the tests that use it.

``summand_search`` never compares constituent lists: it subtracts weight
multisets and re-peels, so it checks ``admissibility.decide`` by another
route.
"""

from pelkit.characters import NotACharacterError, RootDatum, WeightChar, decompose


def summand_search(rd: RootDatum, pulled: WeightChar, source_std: WeightChar, max_n: int):
    """Smallest n <= max_n such that n copies of the source standard
    character minus the pullback is still a genuine character, or None."""
    for n in range(1, max_n + 1):
        diff = WeightChar(
            {
                w: n * source_std.mult(w) - pulled.mult(w)
                for w in set(source_std.support()) | set(pulled.support())
            }
        )
        try:
            decompose(rd, diff, genuine=True)
        except NotACharacterError:
            continue
        return n
    return None
