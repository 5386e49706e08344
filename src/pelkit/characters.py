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
recursion on its dominant weights alone, each ``mu + k*alpha`` read at its
dominant representative; the multiplicities weighted by Weyl orbit sizes
are cross-checked against the Weyl dimension formula on every call.  Only
``irr_char`` expands the orbits into full weight tables.

The Weyl group is described once: every weight is W-conjugate to exactly
one dominant weight, ``_dominant_rep``, and ``_orbit_size`` counts its
orbit.  ``decompose`` groups a character's weights by that representative:
it is W-invariant exactly when each group has one multiplicity and fills
its orbit, and is then fixed by its dominant weights, so the peeling
subtracts only the dominant part of each irreducible.

``tensor`` builds the product weights in C from the larger factor's
coordinate columns, shifted once per weight of the other factor, and
wraps the sums without re-normalising them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, defaultdict
from functools import lru_cache

from . import _Value
from .errors import InputError, InternalCheckError, OutOfScopeError

MAX_BLOCK_RANK = 8
MAX_WEIGHT_NORM = 8  # bound on |lambda|_1 over all blocks
CACHE_SIZE = 1024  # entries in each memo table of irreducibles and constituents


class NotDominantError(InputError):
    pass


class RankMismatchError(InputError):
    pass


class NotACharacterError(InputError):
    pass


class BoundExceededError(OutOfScopeError):
    pass


class UnsupportedTypeError(InputError):
    pass


def _as_int(x, error):
    """x, not of type int, as an int; ``error`` unless it equals one."""
    if x != int(x):
        raise error(f"{x!r} is not an integer")
    return int(x)


def _int_tuple(w, error):
    return tuple([x if type(x) is int else _as_int(x, error) for x in w])


Weight = tuple  # tuple[int, ...]


class Factor(_Value):
    __slots__ = ("series", "n")  # "C" | "A" | "D", int

    def __post_init__(self):
        if self.series not in ("C", "A", "D"):
            raise UnsupportedTypeError(f"unknown series {self.series!r}")
        if self.n < 1:
            raise ValueError("block length must be >= 1")


class RootDatum(_Value):
    __slots__ = ("factors", "central_rank")

    def __init__(self, factors, central_rank: int = 1):
        _Value.__init__(self, tuple(factors), central_rank)  # tuple[Factor, ...], int

    def __post_init__(self):
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


class WeightChar(_Value):
    """Finitely supported integer multiplicity function on weights.

    Multiplicities may be negative (virtual characters); zero entries are
    never stored.  All weights have one length, the rank of the torus.
    Instances are immutable and hashable; ``==`` and ``hash`` ignore the
    derived ``_hash`` and ``_hodge`` (kept by ``hodge.hodge_type``).
    """

    __slots__ = ("_m", "_hash", "_hodge")

    def __init__(self, mapping):
        m = {}
        for w, c in dict(mapping).items():
            if c:
                c = c if type(c) is int else _as_int(c, NotACharacterError)
                m[_int_tuple(w, NotACharacterError)] = c
        if len(set(map(len, m))) > 1:
            raise RankMismatchError("the weights of a character differ in length")
        _Value.__init__(self, m, None, None)

    @classmethod
    def _of(cls, m):
        """Wrap ``m`` as is: a dict of int tuples to nonzero ints."""
        obj = object.__new__(cls)
        _Value.__init__(obj, m, None, None)
        return obj

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
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._m.items())))
        return self._hash

    def __repr__(self):
        return f"WeightChar({self.sorted_items()})"


def standard_char(rd: RootDatum, mults) -> WeightChar:
    """Character of the standard representation: the weights +-e_i of each
    block, with that block's multiplicity from ``mults``, all at central
    coordinate 1 (the centre acts by scalars)."""
    if rd.central_rank != 1:
        raise ValueError("the standard character needs exactly one central coordinate")
    total, mults = rd.total_rank, tuple(mults)
    acc = {}
    for (_, a, b), mult in zip(rd.block_slices(), mults, strict=True):
        for i in range(a, b):
            for sign in (1, -1):
                acc[_e(total - 1, i, sign) + (1,)] = mult
    return WeightChar._of(acc) if all(type(m) is int and m for m in mults) else WeightChar(acc)


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


def _rho(series: str, n: int):
    if series == "C":
        return tuple(range(n, 0, -1))
    return tuple(range(n - 1, -1, -1))


def _add(u, v):
    return tuple(map(operator.add, u, v))


def _sub(u, v):
    return tuple(map(operator.sub, u, v))


def _dot(u, v):
    return sum(map(operator.mul, u, v))


# -- irreducible characters ----------------------------------------------------


def _block_weyl_dim(series: str, n: int, lam) -> int:
    pos = _positive_roots(series, n)
    rho = _rho(series, n)
    lr = _add(lam, rho)
    num = den = 1
    for a in pos:
        num *= _dot(lr, a)
        den *= _dot(rho, a)
    q, r = divmod(num, den)
    if r or q <= 0:
        raise InternalCheckError(f"Weyl dimension of {lam} for {series}{n} is {num}/{den}")
    return q


def _dominant_rep(series: str, v):
    """The dominant weight in the block Weyl orbit of v."""
    if series == "A":
        return tuple(sorted(v, reverse=True))
    d = sorted(map(abs, v), reverse=True)
    if series == "D" and d[-1] and sum(x < 0 for x in v) % 2:
        d[-1] = -d[-1]
    return tuple(d)


def _is_dominant_block(series: str, v) -> bool:
    return _dominant_rep(series, v) == tuple(v)


def _orbit_size(series: str, mu) -> int:
    """|W mu|: orderings of the coordinates (of their absolute values for C
    and D) times the sign patterns on the nonzero ones, half of them for D
    when none is zero."""
    out = math.factorial(len(mu))
    for c in Counter(mu if series == "A" else map(abs, mu)).values():
        out //= math.factorial(c)
    if series == "A":
        return out
    nonzero = sum(1 for x in mu if x)
    return out << (nonzero - (series == "D" and nonzero == len(mu)))


def _orderings(vals):
    """The distinct orderings of the sorted tuple vals."""
    if len(vals) <= 1:
        return [vals]
    return [
        (x,) + rest
        for i, x in enumerate(vals)
        if not i or vals[i - 1] != x
        for rest in _orderings(vals[:i] + vals[i + 1 :])
    ]


def _orbit(series: str, mu):
    """The block Weyl orbit of the dominant weight mu, each weight once."""
    if series == "A":
        return _orderings(mu)
    out = [
        w
        for p in _orderings(tuple(map(abs, mu)))
        for w in itertools.product(*((x, -x) if x else (0,) for x in p))
    ]
    if series == "D" and all(mu):
        odd = mu[-1] < 0
        out = [w for w in out if (sum(x < 0 for x in w) % 2) == odd]
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _block_irr(series: str, n: int, lam):
    """Dominant weights of the block irreducible with their multiplicities,
    as sorted items.

    The dominant weights are the closure of ``lam`` under subtracting a
    positive root while staying dominant (Stembridge).  Freudenthal's
    recursion visits them by decreasing pairing with rho, which is positive
    on every positive root, so each ``mu + k*alpha`` it reads, taken at its
    dominant representative, is known before ``mu``."""
    pos = _positive_roots(series, n)
    if not pos:
        return ((lam, 1),)
    doms, todo = {lam}, [lam]
    while todo:
        w = todo.pop()
        for a in pos:
            v = _sub(w, a)
            if v not in doms and _is_dominant_block(series, v):
                doms.add(v)
                todo.append(v)
    rho = _rho(series, n)
    lam_rho = _add(lam, rho)
    top_norm = _dot(lam_rho, lam_rho)
    lam_norm = _dot(lam, lam)
    order = sorted(doms, key=lambda v: (_dot(v, rho), v), reverse=True)
    mults = {lam: 1}
    for mu in order[1:]:
        num = 0
        for a in pos:
            hi = _add(mu, a)
            while _dot(hi, hi) <= lam_norm:
                num += _dot(hi, a) * mults.get(_dominant_rep(series, hi), 0)
                hi = _add(hi, a)
        denom = top_norm - _dot(_add(mu, rho), _add(mu, rho))
        if denom <= 0:
            raise InternalCheckError("Freudenthal denominator must be positive off the top weight")
        q, r = divmod(2 * num, denom)
        if r or q <= 0:
            raise InternalCheckError(f"Freudenthal multiplicity of {mu} is {2 * num}/{denom}")
        mults[mu] = q
    if sum(m * _orbit_size(series, mu) for mu, m in mults.items()) != _block_weyl_dim(series, n, lam):
        raise InternalCheckError(
            f"Freudenthal multiplicities of {lam} for {series}{n} miss the Weyl dimension"
        )
    return tuple(sorted(mults.items()))


@lru_cache(maxsize=CACHE_SIZE)
def _block_weights(series: str, n: int, lam):
    """Every weight of the block irreducible with its multiplicity, as
    sorted items: the W-orbits of its dominant weights."""
    return tuple(sorted((w, m) for mu, m in _block_irr(series, n, lam) for w in _orbit(series, mu)))


def _require_dominant(f: Factor, lam):
    if not _is_dominant_block(f.series, lam):
        raise NotDominantError(f"{lam} is not dominant for {f.series}{f.n}")


def weyl_dim(rd: RootDatum, highest: Weight) -> int:
    blocks, _ = rd.split(_int_tuple(highest, NotDominantError))
    out = 1
    for f, lam in zip(rd.factors, blocks):
        _require_dominant(f, lam)
        out *= _block_weyl_dim(f.series, f.n, lam)
    return out


def check_block_rank(f: Factor) -> None:
    """Refuse a block past ``MAX_BLOCK_RANK``."""
    if f.n > MAX_BLOCK_RANK:
        raise BoundExceededError(f"block rank {f.n} exceeds {MAX_BLOCK_RANK}")


def check_weight_norm(norm: int) -> None:
    """Refuse a highest weight whose |lambda|_1 over all blocks passes ``MAX_WEIGHT_NORM``."""
    if norm > MAX_WEIGHT_NORM:
        raise BoundExceededError(f"|highest|_1 exceeds {MAX_WEIGHT_NORM}")


def _irr_parts(rd: RootDatum, highest: Weight):
    """``(series, n, lam)`` of each block and the central part of the
    irreducible with the given highest weight, after the bound and
    dominance checks."""
    blocks, central = rd.split(highest)
    for f, lam in zip(rd.factors, blocks):
        check_block_rank(f)
        _require_dominant(f, lam)
    check_weight_norm(sum(abs(x) for b in blocks for x in b))
    return [(f.series, f.n, lam) for f, lam in zip(rd.factors, blocks)], central


def _product(parts, central):
    """Weights of a product of block tables; distinct combinations give
    distinct weights."""
    acc = {}
    for combo in itertools.product(*parts):
        w = tuple(x for piece, _ in combo for x in piece) + central
        acc[w] = math.prod(c for _, c in combo)
    return acc


def irr_char(rd: RootDatum, highest) -> WeightChar:
    """Full weight multiset of the irreducible with the given highest weight."""
    blocks, central = _irr_parts(rd, _int_tuple(highest, NotDominantError))
    # _product keys are int tuples and its multiplicities positive ints
    return WeightChar._of(_product([_block_weights(*b) for b in blocks], central))


def check_bounds(rd: RootDatum, highest) -> None:
    """Raise what ``irr_char(rd, highest)`` raises on the bounds and on
    dominance, without building any weights."""
    _irr_parts(rd, _int_tuple(highest, NotDominantError))


@lru_cache(maxsize=CACHE_SIZE)
def _dominant_irr(rd: RootDatum, highest: Weight):
    """``(highest, items)``: the dominant weights of the irreducible with
    their multiplicities.  A full weight is dominant exactly when each block
    part is, so ``items`` is the product of the blocks' dominant tables.
    ``highest`` is the tuple this cache keeps, so decompositions share
    their weight tuples."""
    blocks, central = _irr_parts(rd, highest)
    return highest, tuple(_product([_block_irr(*b) for b in blocks], central).items())


@lru_cache(maxsize=CACHE_SIZE)
def _constituent(highest: Weight, mult: int):
    """One ``(highest, mult)`` entry of a decomposition, shared between the
    results that contain it: callers may keep many results alive."""
    return highest, mult


# -- character operations -------------------------------------------------------


def tensor(x: WeightChar, y: WeightChar) -> WeightChar:
    """The product character x (x) y, exact, with zero multiplicities
    dropped.  Its weights come in the order x outer, y inner, which is also
    the order in which ``decompose`` meets them."""
    if x.is_zero() or y.is_zero():
        return WeightChar({})
    if x.rank() != y.rank():
        raise RankMismatchError("tensor factors live on different tori")
    if not x.rank():  # the one weight () has no coordinate columns
        return WeightChar._of({(): x.mult(()) * y.mult(())})
    big, small = (x, y) if len(x._m) >= len(y._m) else (y, x)
    cols, cs = tuple(zip(*big._m)), tuple(big._m.values())
    add = operator.add
    # big's weights shifted by d, with big's multiplicities times c
    copies = [
        zip(*[map(add, col, itertools.repeat(s)) if s else col for col, s in zip(cols, d)])
        for d in small._m
    ]
    mults = [cs if c == 1 else map(operator.mul, cs, itertools.repeat(c)) for c in small._m.values()]
    join = itertools.chain.from_iterable
    if big is x:  # x outer: the copies interleave
        copies, mults = zip(*copies), zip(*mults)
    acc = {}
    get = acc.get
    for w, c in zip(join(copies), join(mults)):
        acc[w] = get(w, 0) + c
    return WeightChar._of({w: c for w, c in acc.items() if c})


def dual(x: WeightChar) -> WeightChar:
    return WeightChar({tuple(-c for c in w): m for w, m in x.items()})


def decompose(rd: RootDatum, x: WeightChar, genuine: bool = True):
    """Peel a Weyl-symmetric character into irreducible constituents.

    One pass keys each weight by the dominant representatives of its block
    parts, then its central part.  Zero multiplicities are never stored, so
    x is W-invariant exactly when each key is seen with one multiplicity
    and as often as its orbit is large, else ``NotACharacterError``.  The
    peeling runs on the keys, the dominant weights: it repeatedly removes
    the lexicographically largest remaining one with the dominant part of
    its irreducible.  With ``genuine=True`` a negative peeled multiplicity
    raises; with ``genuine=False`` signed constituent lists are returned.
    """
    rank = rd.total_rank
    if not x.is_zero() and x.rank() != rank:
        raise RankMismatchError("character rank does not match the root datum")
    # block slices are computed once, not once per weight
    slices = [(f.series, a, b) for f, a, b in rd.block_slices()]
    centre = rank - rd.central_rank
    work, seen = {}, {}
    for w, m in x.items():
        key = ()
        for series, a, b in slices:
            key += _dominant_rep(series, w[a:b])
        key += w[centre:]
        if work.setdefault(key, m) != m:
            raise NotACharacterError(f"support is not Weyl-symmetric at {w}")
        seen[key] = seen.get(key, 0) + 1
    for key, k in seen.items():
        if k != math.prod(_orbit_size(series, key[a:b]) for series, a, b in slices):
            raise NotACharacterError(f"support is not Weyl-symmetric at {key}")
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


class TorusMap(_Value):
    """Integer torus map presented by its pullback action on weights.

    ``weight_pullback`` has one row per source coordinate and one column per
    target coordinate; a target weight w restricts to the source weight
    ``weight_pullback @ w``.
    """

    __slots__ = ("weight_pullback",)

    def __init__(self, weight_pullback):
        _Value.__init__(self, tuple(_int_tuple(r, ValueError) for r in weight_pullback))

    def __post_init__(self):
        rows = self.weight_pullback
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged pullback matrix")

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
        cols = tuple(zip(*self.weight_pullback))
        return TorusMap(tuple(tuple(_dot(row, col) for col in cols) for row in inner.weight_pullback))


def restrict(x: WeightChar, f: TorusMap) -> WeightChar:
    acc = defaultdict(int)
    for w, m in x.items():
        acc[f.pull(w)] += m
    return WeightChar(acc)
