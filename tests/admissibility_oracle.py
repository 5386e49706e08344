"""Admissibility oracles, kept beside the tests that use them.

``summand_search`` never compares constituent lists: it subtracts weight
multisets and re-peels, so it checks ``admissibility.decide`` by another
route.  ``symplectic_source_verdict`` states the symplectic-source lemma
with public pelkit calls only, so the tests check the lemma on the verdicts
that ``decide`` returns.
"""

from pelkit.admissibility import MorphismSpec, decide
from pelkit.characters import NotACharacterError, RootDatum, WeightChar, decompose, restrict
from pelkit.hodge import cochar_from_mu2, is_av_type


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
            decompose(rd, diff)
        except NotACharacterError:
            continue
        return n
    return None


def symplectic_source_verdict(m: MorphismSpec):
    """The verdict of ``decide`` on m when the symplectic-source lemma
    applies to m, else None.

    The lemma: a morphism from a group of pure symplectic type (C blocks and
    one central coordinate) is admissible whenever the pullback of the
    target's standard character has Hodge type {(-1,0), (0,-1)} for the
    source cocharacter that is +1 on every coordinate.  That type condition
    is the character-level shadow of a morphism compatible with the complex
    structures.
    """
    rd = m.source.root_datum
    if any(f.series != "C" for f in rd.factors) or rd.central_rank != 1:
        return None
    pulled = restrict(m.target.standard_char, m.torus_map)
    if not is_av_type(pulled, cochar_from_mu2((1,) * rd.total_rank)):
        return None
    return decide(m)
