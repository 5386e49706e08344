"""Admissibility of morphisms between groups with chosen standard
representations.

A morphism is presented by its torus map (weight pullback) together with
the two standard characters.  It is admissible when the pullback of the
target's standard representation is a summand of finitely many copies of
the source's: in a semisimple category that holds exactly when every
irreducible constituent of the pullback already occurs in the source
standard representation, so the decision runs entirely on multiplicity
lists.  The central coordinate takes part in constituent matching; this is
what detects determinant-twisted pullbacks that are invisible on the
semisimple part.
"""

from __future__ import annotations

from math import ceil

from . import _as_dict, _Value
from .characters import NotACharacterError, decompose, restrict
from .errors import InputError


class NotGenuineError(InputError):
    pass


class RepSide(_Value):
    __slots__ = ("root_datum", "standard_char")  # RootDatum, WeightChar


class MorphismSpec(_Value):
    __slots__ = ("source", "target", "torus_map")  # RepSide, RepSide, TorusMap

    def __post_init__(self):
        if self.torus_map.source_rank != self.source.root_datum.total_rank:
            raise ValueError("torus map rows do not match the source rank")
        if self.torus_map.target_rank != self.target.root_datum.total_rank:
            raise ValueError("torus map columns do not match the target rank")


class AdmissibilityVerdict(_Value):
    __slots__ = ("admissible", "witness_n", "missing_constituents")  # bool, int | None, tuple
    to_dict = _as_dict


def _genuine_constituents(rd, char, side):
    try:
        return decompose(rd, char, genuine=True)
    except NotACharacterError as exc:
        raise NotGenuineError(f"{side} standard character is not genuine: {exc}") from exc


def decide(m: MorphismSpec) -> AdmissibilityVerdict:
    """Decide whether the pulled-back target standard representation is a
    summand of some number of copies of the source standard representation."""
    source_parts = dict(_genuine_constituents(m.source.root_datum, m.source.standard_char, "source"))
    _genuine_constituents(m.target.root_datum, m.target.standard_char, "target")
    pulled = restrict(m.target.standard_char, m.torus_map)
    pulled_parts = decompose(m.source.root_datum, pulled, genuine=True)
    missing = []
    witness = 0
    for lam, mult in pulled_parts:
        have = source_parts.get(lam, 0)
        if have == 0:
            missing.append(lam)
        else:
            witness = max(witness, ceil(mult / have))
    if missing:
        return AdmissibilityVerdict(False, None, tuple(sorted(missing)))
    return AdmissibilityVerdict(True, max(witness, 1), ())
