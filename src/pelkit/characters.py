"""Virtual-character calculus for products of classical groups.

Coordinate conventions, fixed once for the whole package:

* A root datum is a list of simple blocks plus a number of central torus
  coordinates.  A weight is an integer vector laid out as the block
  coordinates in order, followed by the central coordinates.
* ``C`` blocks of length n are the rank-n symplectic factors; weights use
  the orthogonal coordinates, dominant means ``l1 >= ... >= ln >= 0`` and
  the Weyl group acts by signed permutations.
* ``A`` blocks of length n are general-linear factors carrying their full
  torus (the block's one-dimensional centre lives *inside* the block, not
  in the central coordinates).  Dominant means weakly decreasing, possibly
  negative; the Weyl group permutes coordinates.
* ``D`` blocks of length n are rank-n even-orthogonal factors; dominant
  means ``l1 >= ... >= l_{n-1} >= |l_n|`` and the Weyl group acts by
  permutations and evenly many sign changes.
* Central coordinates are untouched by all Weyl groups.

Weight multiplicities of an irreducible are computed with the Freudenthal
recursion, level by level; the total is cross-checked against the Weyl
dimension formula on every call.

A character is decomposed after one exact W-invariance check (every Weyl
generator preserves every multiplicity): a W-invariant character is fixed
by its dominant weights, so the peeling runs on those alone and subtracts
only the dominant part of each irreducible.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InternalCheckError, OutOfScopeError

MAX_BLOCK_RANK = 8
MAX_WEIGHT_NORM = 8  # bound on |lambda|_1 over all blocks
CACHE_SIZE = 1024  # entries in each memo table of irreducibles and constituents


class NotDominantError(ValueError):
    pass


class RankMismatchError(ValueError):
    pass


class NotACharacterError(ValueError):
    pass


class BoundExceededError(OutOfScopeError):
    pass


class UnsupportedTypeError(ValueError):
    pass


Weight = tuple  # tuple[int, ...]


@dataclass(frozen=True)
class Factor:
    series: str  # "C" | "A" | "D"
    n: int

    def __post_init__(self):
        if self.series not in ("C", "A", "D"):
            raise UnsupportedTypeError(f"unknown series {self.series!r}")
        if self.n < 1:
            raise ValueError("block length must be >= 1")


@dataclass(frozen=True)
class RootDatum:
    factors: tuple[Factor, ...]
    central_rank: int = 1

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.central_rank < 0:
            raise ValueError("central_rank must be >= 0")

    @property
    def total_rank(self) -> int:
        return sum(f.n for f in self.factors) + self.central_rank

    def block_slices(self):
        out = []
        start = 0
        for f in self.factors:
            out.append((f, start, start + f.n))
            start += f.n
        return out

    def split(self, w: Weight):
        """Split a full weight into (block parts, central part)."""
        if len(w) != self.total_rank:
            raise RankMismatchError(
                f"weight length {len(w)} != total rank {self.total_rank}"
            )
        blocks = [tuple(w[a:b]) for _, a, b in self.block_slices()]
        return blocks, tuple(w[self.total_rank - self.central_rank :]) if self.central_rank else ()


class WeightChar:
    """Finitely supported integer multiplicity function on weights.

    Multiplicities may be negative (virtual characters); zero entries are
    never stored.  Instances are immutable and hashable.
    """

    __slots__ = ("_m", "_hash")

    def __init__(self, mapping):
        m = {}
        for w, c in dict(mapping).items():
            if c:
                m[tuple(int(x) for x in w)] = int(c)
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_hash", hash(frozenset(m.items())))

    def __setattr__(self, *a):
        raise AttributeError("WeightChar is immutable")

    def items(self):
        return self._m.items()

    def support(self):
        return self._m.keys()

    def mult(self, w) -> int:
        return self._m.get(tuple(w), 0)

    def dim(self) -> int:
        return sum(self._m.values())

    def rank(self) -> int:
        if not self._m:
            raise ValueError("zero character has no rank")
        return len(next(iter(self._m)))

    def is_zero(self) -> bool:
        return not self._m

    def scale(self, k: int) -> "WeightChar":
        return WeightChar({w: k * c for w, c in self._m.items()})

    def sorted_items(self):
        return sorted(self._m.items())

    def __eq__(self, other):
        return isinstance(other, WeightChar) and self._m == other._m

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeightChar({self.sorted_items()})"


def trivial_char(rank: int) -> WeightChar:
    return WeightChar({(0,) * rank: 1})


def standard_char(rd: RootDatum, mults) -> WeightChar:
    """Character of the standard representation: the weights +-e_i of each
    block, with that block's multiplicity from ``mults``, all at central
    coordinate 1 (the centre acts by scalars)."""
    if rd.central_rank != 1:
        raise ValueError("the standard character needs exactly one central coordinate")
    total = rd.total_rank
    acc = {}
    for (_, a, b), mult in zip(rd.block_slices(), mults, strict=True):
        for i in range(a, b):
            for sign in (1, -1):
                w = [0] * total
                w[i] = sign
                w[-1] = 1
                acc[tuple(w)] = mult
    return WeightChar(acc)


def add_chars(*chars: WeightChar) -> WeightChar:
    acc = defaultdict(int)
    for x in chars:
        for w, c in x.items():
            acc[w] += c
    return WeightChar(acc)


# -- root system data per block ----------------------------------------------


def _e(n, i, c=1):
    v = [0] * n
    v[i] = c
    return tuple(v)


@lru_cache(maxsize=None)
def _positive_roots(series: str, n: int):
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(tuple(_sub(_e(n, i), _e(n, j))))
            if series in ("C", "D"):
                roots.append(tuple(_add(_e(n, i), _e(n, j))))
    if series == "C":
        roots.extend(_e(n, i, 2) for i in range(n))
    return tuple(roots)


@lru_cache(maxsize=None)
def _simple_roots(series: str, n: int):
    roots = [tuple(_sub(_e(n, i), _e(n, i + 1))) for i in range(n - 1)]
    if series == "C":
        roots.append(_e(n, n - 1, 2))
    elif series == "D" and n >= 2:
        roots.append(tuple(_add(_e(n, n - 2), _e(n, n - 1))))
    return tuple(roots)


def _rho(series: str, n: int):
    if series == "C":
        return tuple(range(n, 0, -1))
    return tuple(range(n - 1, -1, -1))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _is_dominant_block(series: str, v) -> bool:
    n = len(v)
    if any(v[i] < v[i + 1] for i in range(n - 2)):
        return False
    if series == "A":
        return n < 2 or v[-2] >= v[-1]
    if series == "C":
        return (n < 2 or v[-2] >= v[-1]) and v[-1] >= 0
    # D
    return n < 2 or v[-2] >= abs(v[-1])


def weyl_generator_maps(rd: RootDatum):
    """Weyl-group generators as callables on full weights (for symmetry checks)."""
    maps = []
    for f, a, b in rd.block_slices():
        for i in range(a, b - 1):

            def swap(w, i=i):
                v = list(w)
                v[i], v[i + 1] = v[i + 1], v[i]
                return tuple(v)

            maps.append(swap)
        if f.series == "C":

            def flip(w, i=b - 1):
                v = list(w)
                v[i] = -v[i]
                return tuple(v)

            maps.append(flip)
        elif f.series == "D" and f.n >= 2:

            def flip2(w, i=b - 2, j=b - 1):
                v = list(w)
                v[i], v[j] = -v[i], -v[j]
                return tuple(v)

            maps.append(flip2)
    return maps


# -- irreducible characters ----------------------------------------------------


def _block_weyl_dim(series: str, n: int, lam) -> int:
    pos = _positive_roots(series, n)
    rho = _rho(series, n)
    lr = _add(lam, rho)
    out = Fraction(1)
    for a in pos:
        out *= Fraction(_dot(lr, a), _dot(rho, a))
    if out.denominator != 1 or out <= 0:
        raise InternalCheckError(f"Weyl dimension of {lam} for {series}{n} is {out}")
    return int(out)


@lru_cache(maxsize=CACHE_SIZE)
def _block_irr(series: str, n: int, lam):
    """Weight multiplicities of the block irreducible, as sorted items."""
    pos = _positive_roots(series, n)
    if not pos:
        return ((lam, 1),)
    simples = _simple_roots(series, n)
    rho = _rho(series, n)
    lam_rho = _add(lam, rho)
    top_norm = _dot(lam_rho, lam_rho)
    lam_norm = _dot(lam, lam)
    mults = {lam: 1}
    current = [lam]
    while current:
        candidates = set()
        for w in current:
            for a in simples:
                candidates.add(_sub(w, a))
        level = []
        for mu in sorted(candidates):
            if mu in mults:
                continue
            num = 0
            for a in pos:
                k = 1
                while True:
                    hi = _add(mu, tuple(k * c for c in a))
                    if _dot(hi, hi) > lam_norm:
                        break
                    m = mults.get(hi, 0)
                    if m:
                        num += _dot(hi, a) * m
                    k += 1
            if num == 0:
                continue
            denom = top_norm - _dot(_add(mu, rho), _add(mu, rho))
            if denom <= 0:
                raise InternalCheckError("Freudenthal denominator must be positive off the top weight")
            q, r = divmod(2 * num, denom)
            if r or q <= 0:
                raise InternalCheckError(f"Freudenthal multiplicity of {mu} is {2 * num}/{denom}")
            mults[mu] = q
            level.append(mu)
        current = level
    if sum(mults.values()) != _block_weyl_dim(series, n, lam):
        raise InternalCheckError(
            f"Freudenthal multiplicities of {lam} for {series}{n} miss the Weyl dimension"
        )
    return tuple(sorted(mults.items()))


def weyl_dim(rd: RootDatum, highest: Weight) -> int:
    blocks, _ = rd.split(highest)
    out = 1
    for f, lam in zip(rd.factors, blocks):
        out *= _block_weyl_dim(f.series, f.n, lam)
    return out


def _irr_parts(rd: RootDatum, highest: Weight):
    """Block weight tables and central part of the irreducible with the
    given highest weight, after the bound and dominance checks."""
    blocks, central = rd.split(highest)
    for f, lam in zip(rd.factors, blocks):
        if f.n > MAX_BLOCK_RANK:
            raise BoundExceededError(f"block rank {f.n} exceeds {MAX_BLOCK_RANK}")
        if not _is_dominant_block(f.series, lam):
            raise NotDominantError(f"{lam} is not dominant for {f.series}{f.n}")
    if sum(abs(x) for b in blocks for x in b) > MAX_WEIGHT_NORM:
        raise BoundExceededError(f"|highest|_1 exceeds {MAX_WEIGHT_NORM}")
    return [_block_irr(f.series, f.n, lam) for f, lam in zip(rd.factors, blocks)], central


def _product(parts, central):
    """Weights of a product of block tables; distinct combinations give
    distinct weights."""
    acc = {}
    for combo in itertools.product(*parts):
        w = tuple(x for piece, _ in combo for x in piece) + central
        m = 1
        for _, c in combo:
            m *= c
        acc[w] = m
    return acc


def irr_char(rd: RootDatum, highest) -> WeightChar:
    """Full weight multiset of the irreducible with the given highest weight."""
    highest = tuple(int(x) for x in highest)
    return WeightChar(_product(*_irr_parts(rd, highest)))


@lru_cache(maxsize=CACHE_SIZE)
def _dominant_irr(rd: RootDatum, highest: Weight):
    """``(highest, items)``: the dominant weights of the irreducible with
    their multiplicities.  A full weight is dominant exactly when each block
    part is, so ``items`` is the product of the blocks' dominant entries.
    ``highest`` is the tuple this cache keeps, so decompositions share
    their weight tuples."""
    parts, central = _irr_parts(rd, highest)
    dom = [
        [(v, c) for v, c in part if _is_dominant_block(f.series, v)]
        for f, part in zip(rd.factors, parts)
    ]
    return highest, tuple(_product(dom, central).items())


@lru_cache(maxsize=CACHE_SIZE)
def _constituent(highest: Weight, mult: int):
    """One ``(highest, mult)`` entry of a decomposition, shared between the
    results that contain it: callers may keep many results alive."""
    return highest, mult


# -- character operations -------------------------------------------------------


def tensor(x: WeightChar, y: WeightChar) -> WeightChar:
    if x.is_zero() or y.is_zero():
        return WeightChar({})
    if x.rank() != y.rank():
        raise RankMismatchError("tensor factors live on different tori")
    acc = defaultdict(int)
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            acc[_add(w1, w2)] += c1 * c2
    return WeightChar(acc)


def dual(x: WeightChar) -> WeightChar:
    return WeightChar({tuple(-c for c in w): m for w, m in x.items()})


def _check_weyl_symmetric(rd: RootDatum, x: WeightChar):
    gens = weyl_generator_maps(rd)
    mult = x._m.get
    for w, m in x.items():
        for s in gens:
            if mult(s(w), 0) != m:
                raise NotACharacterError(f"support is not Weyl-symmetric at {w}")


def decompose(rd: RootDatum, x: WeightChar, genuine: bool = True):
    """Peel a Weyl-symmetric character into irreducible constituents.

    The character is first checked to be invariant under every Weyl
    generator; an asymmetric one raises ``NotACharacterError``.  The peeling
    then runs on the dominant weights alone: it repeatedly removes the
    lexicographically largest remaining dominant weight together with the
    dominant part of its irreducible.  With ``genuine=True`` a negative
    peeled multiplicity raises; with ``genuine=False`` signed constituent
    lists are returned.
    """
    rank = rd.total_rank
    if any(len(w) != rank for w in x.support()):
        raise RankMismatchError("character rank does not match the root datum")
    _check_weyl_symmetric(rd, x)
    # block slices are computed once, not once per weight
    slices = [(f.series, a, b) for f, a, b in rd.block_slices()]
    work = {
        w: m
        for w, m in x.items()
        if all(_is_dominant_block(series, w[a:b]) for series, a, b in slices)
    }
    out = []
    while work:
        best = max(work)
        m = work[best]
        if genuine and m < 0:
            raise NotACharacterError(
                f"multiplicity {m} at {best} went negative during peeling"
            )
        highest, dom = _dominant_irr(rd, best)
        out.append(_constituent(highest, m))
        for w, c in dom:
            nv = work.get(w, 0) - m * c
            if nv:
                work[w] = nv
            else:
                del work[w]
    return tuple(out)


@dataclass(frozen=True)
class TorusMap:
    """Integer torus map presented by its pullback action on weights.

    ``weight_pullback`` has one row per source coordinate and one column per
    target coordinate; a target weight w restricts to the source weight
    ``weight_pullback @ w``.
    """

    weight_pullback: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.weight_pullback)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged pullback matrix")
        object.__setattr__(self, "weight_pullback", rows)

    @staticmethod
    def identity(rank: int) -> "TorusMap":
        return TorusMap(tuple(_e(rank, i) for i in range(rank)))

    @property
    def source_rank(self) -> int:
        return len(self.weight_pullback)

    @property
    def target_rank(self) -> int:
        return len(self.weight_pullback[0]) if self.weight_pullback else 0

    def pull(self, w) -> Weight:
        if len(w) != self.target_rank:
            raise RankMismatchError("weight length does not match the torus map")
        return tuple(_dot(row, w) for row in self.weight_pullback)

    def compose(self, inner: "TorusMap") -> "TorusMap":
        """Pullback along (self after inner) on groups: inner pulls what self produced."""
        if inner.target_rank != self.source_rank:
            raise RankMismatchError("torus maps are not composable")
        rows = tuple(
            tuple(
                sum(inner.weight_pullback[i][k] * self.weight_pullback[k][j] for k in range(self.source_rank))
                for j in range(self.target_rank)
            )
            for i in range(inner.source_rank)
        )
        return TorusMap(rows)


def restrict(x: WeightChar, f: TorusMap) -> WeightChar:
    acc = defaultdict(int)
    for w, m in x.items():
        acc[f.pull(w)] += m
    return WeightChar(acc)
