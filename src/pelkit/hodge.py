"""Hodge bidegrees of weight characters.

A Hodge cocharacter is a pair of covectors (mu, mu_bar) pairing integrally
with every weight of a genuine character; a weight w contributes the
bidegree (p, q) = (-<w, mu>, -<w, mu_bar>).  The sum mu + mu_bar is the
central weight covector: pairing a weight against it reads off the total
weight -(p + q), which for the classified groups is the central coordinate.

On symplectic and quaternionic-orthogonal blocks the honest cocharacter is
half-integral on the saturated coordinate lattice (it is integral exactly
on the parity sublattice where genuine characters live), so covectors are
stored doubled.  The auto-generated cocharacter is pinned by the fixture
"standard character of a symplectic similitude datum has Hodge type
{(-1,0), (0,-1)}".

The enumeration of abelian-type irreducibles reads each candidate's Hodge
type off its highest weight, for the minuscule cocharacters that Deligne's
axiom SV1 allows; any other cocharacter raises ``UnsupportedTypeError``.
"""

from __future__ import annotations

import operator

from . import _as_dict, _Value
from .characters import (
    RootDatum,
    UnsupportedTypeError,
    WeightChar,
    _int_tuple,
    check_block_rank,
    check_weight_norm,
    irr_char,  # noqa: F401 -- not called here; the benchmark tracer patches this binding
)
from .errors import InternalCheckError, OutOfScopeError
from .peldata import Classification

AV_TYPES = frozenset(((-1, 0), (0, -1)))
_AV_DOUBLED = frozenset((-2 * p, -2 * q) for p, q in AV_TYPES)


class NonIntegralPairingError(OutOfScopeError):
    pass


class HodgeCochar(_Value):
    """Doubled covector pair: mu2 = 2*mu, mu_bar2 = 2*mu_bar, and the
    doubled central weight covector kappa2 = mu2 + mu_bar2."""

    __slots__ = ("mu2", "mu_bar2", "kappa2")
    to_dict = _as_dict

    def __init__(self, mu2, mu_bar2, kappa2):
        _Value.__init__(self, *(_int_tuple(w, ValueError) for w in (mu2, mu_bar2, kappa2)))

    def __post_init__(self):
        if len(self.mu2) != len(self.mu_bar2) or len(self.mu2) != len(self.kappa2):
            raise ValueError("covector lengths differ")
        if tuple(a + b for a, b in zip(self.mu2, self.mu_bar2)) != self.kappa2:
            raise ValueError("mu + mu_bar must equal the central weight covector")

    @property
    def rank(self) -> int:
        return len(self.mu2)


class HodgeType(_Value):
    __slots__ = ("pairs",)  # frozenset of (p, q) bidegrees

    def sorted_pairs(self):
        return sorted(self.pairs)


def _bidegrees(weights, hc: HodgeCochar) -> set:
    """The bidegrees of weights of length hc.rank, from both doubled
    pairings at once; the first weight with an odd pairing raises."""
    mu2, mu_bar2 = hc.mu2, hc.mu_bar2
    out = set()
    for w in weights:
        s = sum(map(operator.mul, w, mu2))
        t = sum(map(operator.mul, w, mu_bar2))
        if s % 2 or t % 2:
            raise NonIntegralPairingError(f"weight {w} pairs half-integrally; it is not a weight of this group")
        out.add((-(s // 2), -(t // 2)))
    return out


def hodge_type(x: WeightChar, hc: HodgeCochar) -> HodgeType:
    """Set of bidegrees realised by the support of x.  It is kept on x for
    this hc object (``is``, not ``==``), so after ``auto_cochar`` the
    standard character's needs no second pass; a raise keeps nothing."""
    kept = x._hodge
    if kept is not None and kept[0] is hc:
        return kept[1]
    if x.is_zero():
        raise ValueError("the zero character has no Hodge type")
    if x.rank() != hc.rank:  # every weight of x has this length
        raise ValueError("weight length does not match the cocharacter")
    object.__setattr__(x, "_hodge", (hc, HodgeType(frozenset(_bidegrees(x.support(), hc)))))
    return x._hodge[1]


def is_av_type(x: WeightChar, hc: HodgeCochar) -> bool:
    """True when every bidegree lies in {(-1,0), (0,-1)}.  A character whose
    support pairs half-integrally is not a character of the group at all and
    in particular not of this type."""
    try:
        return hodge_type(x, hc).pairs <= AV_TYPES
    except NonIntegralPairingError:
        return False


def cochar_from_mu2(mu2) -> HodgeCochar:
    """The cocharacter with doubled mu = mu2 whose doubled central weight
    covector is (0, ..., 0, 2): weight 1 on the last, central coordinate."""
    kappa2 = (0,) * (len(mu2) - 1) + (2,)
    return HodgeCochar(tuple(mu2), tuple(k - m for k, m in zip(kappa2, mu2)), kappa2)


def auto_cochar(classification: Classification) -> HodgeCochar:
    """Cocharacter pair for a classified datum, one block at a time.

    Each factor's doubled mu reads its signature (Kottwitz, JAMS 5, 1992,
    section 5): +1 on the first ``params[0]`` block coordinates and -1 on
    the remaining ``sum(params[1:])``.  That is the half-sum direction on
    symplectic and orthogonal blocks and "agreement first" on U(a, b).  The
    central entry makes the standard character land exactly on
    {(-1,0), (0,-1)}, which is checked (and kept) on construction.
    """
    mu2 = []
    for d in classification.details:
        mu2 += [1] * d.params[0] + [-1] * sum(d.params[1:])
    mu2.append(1)  # central coordinate
    hc = cochar_from_mu2(mu2)
    if not is_av_type(classification.standard_char, hc):
        raise InternalCheckError("auto-generated cocharacter fails the standard-character fixture")
    return hc


def enumerate_av_irreducibles(rd: RootDatum, hc: HodgeCochar, bound: int):
    """All dominant weights with |lambda|_1 <= bound whose irreducible
    character has Hodge type inside {(-1,0), (0,-1)}.

    Only pure symplectic-type root data (C blocks plus one central
    coordinate) are supported; the central coordinate of any such
    irreducible is forced to 1 by the type condition.

    Each candidate's Hodge type is read off its highest weight.  By Deligne's
    axiom SV1 the cocharacter is minuscule: on each C block the doubled mu is
    all +-1 or all 0, and kappa vanishes there.  The doubled pairings <w, mu2>
    over the weights of V(lambda) then fill -M..M in steps of 2, plus the
    central term, with M = sum lambda_i |mu2_i| their maximum over W.lambda
    (V(lambda) is U(n^-) applied to its top mu-eigenspace, and n^- has
    mu-degree -1 alone).  Other cocharacters raise ``UnsupportedTypeError``.
    """
    if any(f.series != "C" for f in rd.factors):
        raise UnsupportedTypeError("enumeration requires a pure C-type root datum")
    if rd.central_rank != 1:
        raise UnsupportedTypeError("enumeration requires exactly one central coordinate")
    if hc.rank != rd.total_rank:
        raise ValueError("cocharacter rank does not match the root datum")
    for f in rd.factors:
        check_block_rank(f)
    check_weight_norm(bound)
    for f, a, b in rd.block_slices():
        if any(hc.kappa2[a:b]) or set(hc.mu2[a:b]) not in ({0}, {1}, {-1}, {1, -1}):
            raise UnsupportedTypeError(f"the cocharacter is not minuscule on the block {f.series}{f.n}")
    mu_abs = tuple(map(abs, hc.mu2[:-1]))
    central, kappa = hc.mu2[-1], hc.kappa2[-1]
    starts = {a for _, a, _ in rd.block_slices()}

    def candidates(i, head, budget):
        # coordinates weakly decreasing within each block, sum <= budget
        if i == len(mu_abs):
            yield ()
            return
        for first in range(budget if i in starts else min(head, budget), -1, -1):
            for rest in candidates(i + 1, first, budget - first):
                yield (first,) + rest

    def av_type(lam):
        top = sum(map(operator.mul, lam, mu_abs))  # max of the block pairings over W.lambda
        return {(s, kappa - s) for s in range(central - top, central + top + 1, 2)} <= _AV_DOUBLED

    return tuple(lam + (1,) for lam in sorted(candidates(0, 0, bound)) if av_type(lam))
