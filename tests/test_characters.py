import ast
import itertools
import math
import random
import re
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pelkit.characters import (
    CACHE_SIZE,
    MAX_WEIGHT_NORM,
    BoundExceededError,
    Factor,
    NotACharacterError,
    NotDominantError,
    RankMismatchError,
    RootDatum,
    TorusMap,
    WeightChar,
    _block_irr,
    _block_weights,
    _block_weyl_dim,
    _dominant_irr,
    _dominant_rep,
    _is_dominant_block,
    _orbit,
    _orbit_size,
    add_chars,
    decompose,
    dual,
    irr_char,
    restrict,
    standard_char,
    tensor,
    weyl_dim,
)
from pelkit.errors import InternalCheckError

from freudenthal_oracle import block_irr as oracle_block_irr
from freudenthal_oracle import irr_char_items as oracle_irr_char_items


def trivial_char(rank: int) -> WeightChar:
    return WeightChar({(0,) * rank: 1})


def weyl_generator_maps(rd: RootDatum):
    """Weyl-group generators as callables on full weights: the simple
    transpositions of every block, the last sign flip of a C block and the
    last double sign flip of a D block."""
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

# Whole-weight dominance helpers, built on the chamber inequalities rather
# than on pelkit's dominant representatives.


def oracle_is_dominant_block(series: str, v) -> bool:
    n = len(v)
    if any(v[i] < v[i + 1] for i in range(n - 2)):
        return False
    if series == "A":
        return n < 2 or v[-2] >= v[-1]
    if series == "C":
        return (n < 2 or v[-2] >= v[-1]) and v[-1] >= 0
    # D
    return n < 2 or v[-2] >= abs(v[-1])


def is_dominant(rd: RootDatum, w) -> bool:
    blocks, _ = rd.split(w)
    return all(oracle_is_dominant_block(f.series, b) for f, b in zip(rd.factors, blocks))


def _dominantize_block(series: str, v):
    if series == "A":
        return tuple(sorted(v, reverse=True))
    mags = sorted((abs(x) for x in v), reverse=True)
    if series == "C":
        return tuple(mags)
    flips = sum(1 for x in v if x < 0)
    if flips % 2:
        mags[-1] = -mags[-1]
    return tuple(mags)


def dominantize(rd: RootDatum, w):
    blocks, central = rd.split(w)
    out = []
    for f, b in zip(rd.factors, blocks):
        out.extend(_dominantize_block(f.series, b))
    out.extend(central)
    return tuple(out)


C1 = RootDatum((Factor("C", 1),), 1)
C2 = RootDatum((Factor("C", 2),), 1)


def std_char(rd: RootDatum, mult: int = 1) -> WeightChar:
    total = rd.total_rank
    acc = {}
    offset = 0
    for f in rd.factors:
        for i in range(f.n):
            for sign in (1, -1):
                w = [0] * total
                w[offset + i] = sign
                w[-1] = 1
                acc[tuple(w)] = mult
        offset += f.n
    return WeightChar(acc)


# -- independent Weyl dimension oracle (product over positive roots) ------------


def oracle_positive_roots(series, n):
    e = lambda i, c=1: tuple(c if k == i else 0 for k in range(n))
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(tuple(a - b for a, b in zip(e(i), e(j))))
            if series in ("C", "D"):
                roots.append(tuple(a + b for a, b in zip(e(i), e(j))))
    if series == "C":
        roots += [e(i, 2) for i in range(n)]
    return roots


def oracle_dim(series, lam):
    n = len(lam)
    rho = tuple(range(n, 0, -1)) if series == "C" else tuple(range(n - 1, -1, -1))
    out = Fraction(1)
    for a in oracle_positive_roots(series, n):
        num = sum(x * y for x, y in zip(tuple(l + r for l, r in zip(lam, rho)), a))
        den = sum(x * y for x, y in zip(rho, a))
        out *= Fraction(num, den)
    assert out.denominator == 1
    return int(out)


def dominant_block_weights(series, n, bound):
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        if sum(abs(x) for x in vec) > bound:
            continue
        if any(vec[i] < vec[i + 1] for i in range(n - 1)):
            ok_chain = False
        else:
            ok_chain = True
        if series == "A":
            if ok_chain:
                yield vec
            continue
        if series == "C":
            if ok_chain and vec[-1] >= 0:
                yield vec
            continue
        # D: weakly decreasing on the first n-1, last bounded by |.|
        if all(vec[i] >= vec[i + 1] for i in range(n - 2)) and (
            n < 2 or vec[-2] >= abs(vec[-1])
        ):
            yield vec


@pytest.mark.parametrize(
    "series,n",
    [("C", 1), ("C", 2), ("C", 3), ("A", 2), ("A", 3), ("D", 2), ("D", 3)],
)
def test_freudenthal_matches_dimension_formula(series, n):
    rd = RootDatum((Factor(series, n),), 0)
    for lam in dominant_block_weights(series, n, 4):
        char = irr_char(rd, lam)
        assert char.dim() == oracle_dim(series, lam)
        assert type(weyl_dim(rd, lam)) is int and weyl_dim(rd, lam) == char.dim()


def test_c2_standard_character():
    # oracle: the symplectic rank-2 torus diag(t1, t2, 1/t1, 1/t2) acts on
    # the standard 4-dimensional space with weights +-L1, +-L2
    char = irr_char(RootDatum((Factor("C", 2),), 0), (1, 0))
    assert dict(char.items()) == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert char.dim() == 4 == oracle_dim("C", (1, 0))


def test_c2_second_fundamental_dim_5():
    assert irr_char(RootDatum((Factor("C", 2),), 0), (1, 1)).dim() == 5
    assert oracle_dim("C", (1, 1)) == 5


def test_trivial_highest_weight():
    assert irr_char(C2, (0, 0, 3)) == WeightChar({(0, 0, 3): 1})


def test_gl_adjoint_has_zero_weight_twice():
    rd = RootDatum((Factor("A", 3),), 0)
    char = irr_char(rd, (1, 0, -1))
    assert char.dim() == 8 == oracle_dim("A", (1, 0, -1))
    assert char.mult((0, 0, 0)) == 2


def test_irr_char_rejects_non_dominant():
    with pytest.raises(NotDominantError):
        irr_char(C2, (0, 1, 0))
    with pytest.raises(NotDominantError):
        irr_char(C1, (-1, 0))


def test_bounds_enforced():
    with pytest.raises(BoundExceededError):
        irr_char(C2, (9, 0, 1))
    with pytest.raises(BoundExceededError):
        irr_char(RootDatum((Factor("C", 9),), 0), (1,) + (0,) * 8)


def test_tensor_unit_law_and_masses():
    std = std_char(C2)
    assert tensor(std, trivial_char(3)) == std
    assert tensor(std, std).dim() == 16
    assert tensor(dual(std), std).mult((0, 0, 0)) >= 1


def test_tensor_rank_mismatch():
    with pytest.raises(RankMismatchError):
        tensor(std_char(C2), std_char(C1))


def test_dual():
    assert dual(trivial_char(3)) == trivial_char(3)
    std = std_char(C2)
    assert dual(WeightChar({(2, 0, 1): 1})) == WeightChar({(-2, 0, -1): 1})
    # the symplectic standard weight set is symmetric, only the central
    # coordinate moves under duality
    assert {w[:2] for w in dual(std).support()} == {w[:2] for w in std.support()}


def test_decompose_std_tensor_std():
    std = std_char(C2)
    parts = decompose(C2, tensor(std, std))
    assert parts == (((2, 0, 2), 1), ((1, 1, 2), 1), ((0, 0, 2), 1))
    assert [weyl_dim(C2, w) for w, _ in parts] == [10, 5, 1]


def test_decompose_round_trip_single():
    lam = (2, 1, 1)
    assert decompose(C2, irr_char(C2, lam)) == ((lam, 1),)


def test_decompose_scaled_trivial():
    assert decompose(C2, trivial_char(3).scale(3)) == (((0, 0, 0), 3),)


def test_decompose_round_trip_randomized():
    rng = random.Random(23)
    rds = [C2, RootDatum((Factor("A", 2),), 1), RootDatum((Factor("D", 3),), 1)]
    for rd in rds:
        blocks = [f.n for f in rd.factors]
        for _ in range(8):
            chosen = {}
            for _ in range(rng.randint(1, 3)):
                lam = []
                budget = 3
                for n in blocks:
                    part = sorted(
                        (rng.randint(0, budget) for _ in range(n)), reverse=True
                    )
                    budget = max(0, budget - sum(part))
                    lam.extend(part)
                if rd.factors[0].series == "D" and rng.random() < 0.3:
                    lam[-1] = -lam[-1]
                    if not is_dominant(rd, tuple(lam) + (0,)):
                        lam[-1] = -lam[-1]
                lam = tuple(lam) + (rng.randint(-1, 1),)
                chosen[lam] = chosen.get(lam, 0) + rng.randint(1, 2)
            total = add_chars(
                *(irr_char(rd, lam).scale(m) for lam, m in chosen.items())
            )
            got = dict(decompose(rd, total))
            assert got == chosen


def test_decompose_refuses_a_virtual_character():
    x = add_chars(irr_char(C2, (1, 0, 1)), irr_char(C2, (0, 0, 0)).scale(-2))
    with pytest.raises(NotACharacterError, match=r"^multiplicity -2 at \(0, 0, 0\) went negative during peeling$"):
        decompose(C2, x)


def oracle_pointwise_symmetric(rd, x):
    """The old symmetry test: each multiplicity equals the one at the
    dominant weight of its orbit.  It misses orbits that are incomplete."""
    return all(x.mult(dominantize(rd, w)) == m for w, m in x.items())


def oracle_decompose(rd, x):
    """Reference peel on the full weight support: the pointwise symmetry
    test, then the lexicographically largest dominant weight of the whole
    remainder is removed with its full irreducible character."""
    if not x.is_zero() and x.rank() != rd.total_rank:
        raise RankMismatchError("character rank does not match the root datum")
    if not oracle_pointwise_symmetric(rd, x):
        raise NotACharacterError("support is not Weyl-symmetric")
    work = dict(x.items())
    out = []
    while work:
        doms = [w for w in work if is_dominant(rd, w)]
        if not doms:
            raise NotACharacterError("nonzero remainder with no dominant weight")
        best = max(doms)
        m = work[best]
        if m < 0:
            raise NotACharacterError(f"multiplicity {m} at {best} went negative")
        out.append((best, m))
        for w, c in irr_char(rd, best).items():
            nv = work.get(w, 0) - m * c
            if nv:
                work[w] = nv
            else:
                work.pop(w, None)
    return tuple(out)


def test_decompose_rejects_asymmetric_support():
    a3 = RootDatum((Factor("A", 3),), 1)
    cases = [
        (C2, WeightChar({(1, 0, 1): 1})),
        (RootDatum((Factor("A", 2),), 1), WeightChar({(1, 0, 1): 1})),
        (a3, add_chars(irr_char(a3, (1, 0, 0, 0)), WeightChar({(1, 1, 0, 0): 1}))),
        (RootDatum((Factor("D", 2),), 1), WeightChar({(1, 1, 0): 1})),
        (RootDatum((Factor("D", 3),), 1), WeightChar({(1, 0, 0, 1): 2})),
    ]
    for rd, x in cases:
        # each orbit is incomplete at a dominant weight, which the pointwise
        # test cannot see
        assert oracle_pointwise_symmetric(rd, x)
        with pytest.raises(NotACharacterError, match="not Weyl-symmetric"):
            decompose(rd, x)
        with pytest.raises(NotACharacterError):
            oracle_decompose(rd, x)


def test_decompose_rejects_weights_of_another_rank():
    with pytest.raises(RankMismatchError, match="root datum"):
        decompose(C2, WeightChar({(0, 1): 1, (1, 1): 1}))
    assert decompose(C2, WeightChar({})) == ()


def test_weights_of_one_character_share_their_length():
    for ragged in ({(1, 2): 1, (3,): 1}, {(0, 0, 1): 1, (0, 1): 1}, {(): 1, (0,): 2}):
        with pytest.raises(RankMismatchError, match="differ in length"):
            WeightChar(ragged)
    # a weight with multiplicity zero is not stored, so its length is not read
    assert WeightChar({(1, 2): 1, (3,): 0}) == WeightChar({(1, 2): 1})


def test_decompositions_share_their_entries():
    std = std_char(C2)
    first = decompose(C2, tensor(std, std))
    again = decompose(C2, tensor(std, tensor(std, trivial_char(3))))
    assert first == again
    assert all(a is b for a, b in zip(first, again))


def test_standard_char_per_block_multiplicities():
    rd = RootDatum((Factor("C", 1), Factor("A", 2)), 1)
    got = standard_char(rd, [2, 1])
    assert got.mult((1, 0, 0, 1)) == got.mult((-1, 0, 0, 1)) == 2
    assert got.mult((0, 1, 0, 1)) == got.mult((0, 0, -1, 1)) == 1
    assert got.dim() == 8
    assert standard_char(C2, [3]) == std_char(C2, mult=3)
    with pytest.raises(ValueError):
        standard_char(RootDatum((Factor("C", 1),), 0), [1])


def test_standard_char_stores_what_the_validating_constructor_stores():
    # nonzero ints are wrapped as they are; a zero, a bool or an integral
    # Fraction goes through WeightChar's checks, and a non-integer is refused
    rd = RootDatum((Factor("C", 1), Factor("A", 2)), 1)
    for mults in ([2, 1], [1, 3], [0, 1], [2, 0], [True, 1], [Fraction(4, 2), -1]):
        got = standard_char(rd, iter(mults))  # any iterable of multiplicities
        want = WeightChar({w: mults[0] if w[0] else mults[1] for w in std_char(rd).support()})
        assert got == want and got.items() == want.items()
        assert all(type(c) is int and c for c in got._m.values())
    with pytest.raises(NotACharacterError):
        standard_char(rd, [Fraction(1, 2), 1])


# -- dominant-weight peeling against the full-support oracle --------------------

# Every first block has a nontrivial Weyl group, which the perturbation
# test relies on.
PROPERTY_DATA = [
    C1,
    C2,
    RootDatum((Factor("C", 3),), 1),
    RootDatum((Factor("A", 2),), 1),
    RootDatum((Factor("A", 3),), 1),
    RootDatum((Factor("D", 2),), 1),
    RootDatum((Factor("D", 3),), 1),
    RootDatum((Factor("D", 4),), 1),
    RootDatum((Factor("C", 2), Factor("C", 2)), 1),
    RootDatum((Factor("C", 1), Factor("A", 2)), 1),
    RootDatum((Factor("A", 2), Factor("D", 3)), 1),
]
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _cap_norm(v, budget):
    """Shrink the largest coordinates towards 0 until |v|_1 <= budget."""
    v = list(v)
    while sum(abs(c) for c in v) > budget:
        i = max(range(len(v)), key=lambda k: abs(v[k]))
        v[i] -= 1 if v[i] > 0 else -1
    return v


@st.composite
def weights(draw, rd, budget, dominant):
    """A weight of ``rd`` whose block part has |.|_1 <= budget."""
    rank = rd.total_rank - rd.central_rank
    block = _cap_norm(draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)), budget)
    central = draw(st.lists(st.integers(-2, 2), min_size=rd.central_rank, max_size=rd.central_rank))
    w = tuple(block + central)
    return dominantize(rd, w) if dominant else w


@st.composite
def irreducible_sums(draw, mults):
    """(root datum, {highest: multiplicity}, sum of the irreducibles)."""
    rd = draw(st.sampled_from(PROPERTY_DATA))
    parts = {}
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(weights(rd, 4, dominant=True))
        parts[lam] = parts.get(lam, 0) + draw(mults)
    parts = {lam: m for lam, m in parts.items() if m}
    x = add_chars(*(irr_char(rd, lam).scale(m) for lam, m in parts.items()))
    return rd, parts, x


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (NotACharacterError, BoundExceededError) as exc:
        return type(exc)


@PROPERTY_SETTINGS
@given(irreducible_sums(st.integers(1, 3)))
def test_property_genuine_sums_match_oracle(case):
    rd, parts, x = case
    got = decompose(rd, x)
    assert got == oracle_decompose(rd, x)
    assert dict(got) == parts


@PROPERTY_SETTINGS
@given(irreducible_sums(st.integers(-3, 3).filter(bool)))
def test_property_virtual_sums_match_oracle(case):
    rd, parts, x = case
    assert _outcome(decompose, rd, x) == _outcome(oracle_decompose, rd, x)
    if all(m > 0 for m in parts.values()):
        assert dict(decompose(rd, x)) == parts
    else:  # the peeling meets the largest negative part first
        w = max(lam for lam, m in parts.items() if m < 0)
        with pytest.raises(NotACharacterError, match=re.escape(f"multiplicity {parts[w]} at {w} went negative")):
            decompose(rd, x)


@PROPERTY_SETTINGS
@given(irreducible_sums(st.integers(-2, 2)), st.data())
def test_property_asymmetric_perturbations_rejected(case, data):
    rd, _, x = case
    w = data.draw(weights(rd, 4, dominant=data.draw(st.booleans())))
    if all(s(w) == w for s in weyl_generator_maps(rd)):
        w = (w[0] + 1,) + w[1:]  # now moved by some generator, still within the bound
    bumped = add_chars(x, WeightChar({w: data.draw(st.sampled_from((-2, -1, 1, 2)))}))
    with pytest.raises(NotACharacterError, match="not Weyl-symmetric"):
        decompose(rd, bumped)
    with pytest.raises(NotACharacterError):
        oracle_decompose(rd, bumped)


def weyl_orbit(rd, lam):
    gens = weyl_generator_maps(rd)
    seen, todo = {lam}, [lam]
    while todo:
        w = todo.pop()
        for s in gens:
            v = s(w)
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


@PROPERTY_SETTINGS
@given(irreducible_sums(st.integers(0, 2)), st.data())
def test_property_highest_weights_past_the_bound(case, data):
    rd, _, x = case
    lam = list(data.draw(weights(rd, 12, dominant=False)))
    lam[0] = MAX_WEIGHT_NORM + 1 + abs(lam[0])
    lam = dominantize(rd, tuple(lam))
    m = data.draw(st.integers(1, 2))
    y = add_chars(x, WeightChar({w: m for w in weyl_orbit(rd, lam)}))
    with pytest.raises(BoundExceededError):
        decompose(rd, y)
    with pytest.raises(BoundExceededError):
        oracle_decompose(rd, y)


def test_character_caches_are_bounded():
    from pelkit import characters

    assert characters._block_irr.cache_info().maxsize == CACHE_SIZE
    assert characters._block_weights.cache_info().maxsize == CACHE_SIZE
    assert characters._orbit.cache_info().maxsize == CACHE_SIZE
    assert characters._orbit_size.cache_info().maxsize == CACHE_SIZE
    assert characters._dominant_irr.cache_info().maxsize == CACHE_SIZE
    assert characters._constituent.cache_info().maxsize == CACHE_SIZE


def test_weyl_invariance_of_irr_supports():
    cases = [
        (C2, (2, 1, 0)),
        (RootDatum((Factor("A", 3),), 0), (2, 0, -1)),
        (RootDatum((Factor("D", 3),), 0), (1, 1, -1)),
        (RootDatum((Factor("C", 1), Factor("D", 2)), 1), (2, 1, 1, 5)),
    ]
    for rd, lam in cases:
        char = irr_char(rd, lam)
        for g in weyl_generator_maps(rd):
            for w, m in char.items():
                assert char.mult(g(w)) == m


def test_dominantize():
    assert dominantize(C2, (-1, 2, 7)) == (2, 1, 7)
    rd_a = RootDatum((Factor("A", 3),), 0)
    assert dominantize(rd_a, (0, 2, -1)) == (2, 0, -1)
    rd_d = RootDatum((Factor("D", 2),), 0)
    assert dominantize(rd_d, (-3, 1)) == (3, -1)
    assert dominantize(rd_d, (-3, -1)) == (3, 1)


def test_restrict_identity_and_zero():
    std = std_char(C2)
    assert restrict(std, TorusMap.identity(3)) == std
    zero_map = TorusMap(((0, 0, 0),))
    assert restrict(std, zero_map) == WeightChar({(0,): 4})


def test_restrict_diagonal_embedding():
    # the 4-dimensional standard character of the matrix-algebra datum
    # restricts along the identity to two copies of the 2-dimensional one
    std4 = std_char(C1, mult=2)
    std2 = std_char(C1)
    assert restrict(std4, TorusMap.identity(2)) == add_chars(std2, std2)


def test_restrict_is_ring_map():
    rng = random.Random(31)
    pullback = TorusMap(((1, 0, 1), (0, -1, 2)))
    for _ in range(10):
        x = WeightChar(
            {tuple(rng.randint(-2, 2) for _ in range(3)): rng.randint(-2, 3) for _ in range(4)}
        )
        y = WeightChar(
            {tuple(rng.randint(-2, 2) for _ in range(3)): rng.randint(-2, 3) for _ in range(4)}
        )
        if x.is_zero() or y.is_zero():
            continue
        assert restrict(tensor(x, y), pullback) == tensor(
            restrict(x, pullback), restrict(y, pullback)
        )


def test_tensor_commutative_associative():
    rng = random.Random(37)
    for _ in range(10):
        chars = [
            WeightChar(
                {tuple(rng.randint(-1, 1) for _ in range(2)): rng.randint(1, 2) for _ in range(3)}
            )
            for _ in range(3)
        ]
        x, y, z = chars
        assert tensor(x, y) == tensor(y, x)
        assert tensor(tensor(x, y), z) == tensor(x, tensor(y, z))


def test_torus_map_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="not an integer"):
        TorusMap(((Fraction(1, 2), 1),))
    with pytest.raises(ValueError, match="not an integer"):
        TorusMap(((1, 0), (0, 1.5)))
    exact = TorusMap(((Fraction(2), 1),)).weight_pullback
    assert exact == ((2, 1),) and type(exact[0][0]) is int


# -- the fast tensor and W-invariance check against their slow forms ------------


def oracle_tensor(x, y):
    """The full product summed into a ``defaultdict`` with generator
    expressions and normalised entry by entry in ``WeightChar.__init__``."""
    if x.is_zero() or y.is_zero():
        return WeightChar({})
    acc = defaultdict(int)
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            acc[tuple(a + b for a, b in zip(w1, w2))] += c1 * c2
    return WeightChar(acc)


def oracle_check_weyl_symmetric(rd, x):
    for w, m in x.items():
        for s in weyl_generator_maps(rd):
            if x.mult(s(w)) != m:
                raise NotACharacterError(f"support is not Weyl-symmetric at {w}")


def _shift(x, e):
    return WeightChar({tuple(a + b for a, b in zip(w, e)): c for w, c in x.items()})


def _assert_tensor_matches_oracle(x, y):
    got, want = tensor(x, y), oracle_tensor(x, y)
    assert got == want and hash(got) == hash(want)
    assert list(got.items()) == list(want.items())  # first factor outer
    return got


@st.composite
def virtual_chars(draw, rank, max_size=8):
    entries = draw(
        st.lists(
            st.tuples(st.tuples(*[st.integers(-2, 2)] * rank), st.integers(-3, 3)),
            max_size=max_size,
        )
    )
    return WeightChar(dict(entries))


@PROPERTY_SETTINGS
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(virtual_chars(r), virtual_chars(r), st.tuples(*[st.integers(-2, 2)] * r))))
def test_property_tensor_matches_full_product(case):
    z, y, e = case
    # (z + z.t^e)(y - y.t^e) = zy - zy.t^2e: the middle terms cancel to zero
    x = add_chars(z, _shift(z, e))
    y2 = add_chars(y, _shift(y, e).scale(-1))
    # both orders and one size: either factor may be the larger
    for a, b in ((z, y), (y, z), (x, y2), (y2, x), (x, x), (x, WeightChar({}))):
        got = _assert_tensor_matches_oracle(a, b)
        assert all(c for _, c in got.items())


def test_tensor_cancelling_product_keeps_order_and_drops_zeros():
    x = WeightChar({(0, 1): 1, (1, 1): 1})
    y = WeightChar({(0, 0): 1, (1, 0): -1})
    got = tensor(x, y)
    assert list(got.items()) == [((0, 1), 1), ((2, 1), -1)]
    assert list(got.items()) == list(oracle_tensor(x, y).items())


TENSOR_TYPES = {
    spec: RootDatum(tuple(Factor(s[0], int(s[1:])) for s in spec.split("x")), 1)
    for spec in ("C3", "C4", "A4", "D4", "C2xC2", "C2xA2")
}


@pytest.mark.parametrize("spec", TENSOR_TYPES)
def test_tensor_powers_of_std_match_the_oracle_in_either_order(spec):
    """std^k (x) t and t (x) std^k for k up to 5, t = std or dual(std): the
    first factor larger, then smaller; then both of one size."""
    rd = TENSOR_TYPES[spec]
    rng = random.Random(f"tensor-{spec}")
    std = standard_char(rd, [1] * len(rd.factors))
    x = std
    for k in range(1, 6):
        t = rng.choice((std, dual(std)))
        assert len(x.support()) > len(t.support()) or k == 1
        _assert_tensor_matches_oracle(t, x)
        x = _assert_tensor_matches_oracle(x, t)
    for k in (1, 2):
        power = std if k == 1 else tensor(std, dual(std))
        for a, b in ((power, dual(power)), (power, power), (power.scale(-2), power.scale(3))):
            assert len(a.support()) == len(b.support())
            _assert_tensor_matches_oracle(a, b)


def test_tensor_with_multiplicities_and_zero_factors_matches_the_oracle():
    rd = TENSOR_TYPES["C2xA2"]
    std = standard_char(rd, [2, 3])
    square = tensor(std, std)
    for a, b in ((square, std), (std, square), (square.scale(-1), std.scale(2)), (std.scale(5), dual(square))):
        _assert_tensor_matches_oracle(a, b)
    zero = WeightChar({})
    for a, b in ((square, zero), (zero, square), (zero, zero)):
        assert _assert_tensor_matches_oracle(a, b).is_zero()
    # rank 0: the one weight () carries the product of the multiplicities
    assert _assert_tensor_matches_oracle(WeightChar({(): 2}), WeightChar({(): -3})) == WeightChar({(): -6})


@pytest.mark.parametrize("spec", TENSOR_TYPES)
def test_decompose_of_an_asymmetric_product_names_the_same_weight(spec):
    """decompose reads the product in its insertion order, so the weight its
    NotACharacterError names is the same on either product."""
    rd = TENSOR_TYPES[spec]
    rng = random.Random(f"skew-{spec}")
    std = standard_char(rd, [1] * len(rd.factors))
    square = tensor(std, std)
    for _ in range(6):
        # std plus one weight +-e_i on a block, which no Weyl group fixes
        i = rng.randrange(rd.total_rank - 1)
        e = (0,) * i + (rng.choice((1, -1)),) + (0,) * (rd.total_rank - 2 - i)
        extra = {e + (rng.randint(-1, 1),): rng.randint(1, 3)}
        skew = add_chars(std, WeightChar(extra))
        for a, b in ((square, skew), (skew, square), (skew, std)):
            with pytest.raises(NotACharacterError) as fast:
                decompose(rd, tensor(a, b))
            with pytest.raises(NotACharacterError) as slow:
                decompose(rd, oracle_tensor(a, b))
            assert str(fast.value) == str(slow.value)


def test_of_built_and_init_built_characters_agree():
    m = {(1, 0, 1): 2, (0, 1, 1): -1}
    fast, slow = WeightChar._of(dict(m)), WeightChar(m)
    assert fast == slow and hash(fast) == hash(slow)
    assert {fast: "x"}[slow] == "x"
    assert hash(WeightChar._of({})) == hash(WeightChar({}))


def _assert_irr_char_matches_init_built(rd, lam):
    got = irr_char(rd, lam)
    want = WeightChar(oracle_irr_char_items(rd, lam))
    assert got == want and hash(got) == hash(want)
    assert list(got.items()) == list(want.items())
    assert all(type(c) is int and c > 0 and all(type(x) is int for x in w) for w, c in got.items())


@PROPERTY_SETTINGS
@given(st.sampled_from(PROPERTY_DATA).flatmap(lambda rd: st.tuples(st.just(rd), weights(rd, 4, dominant=True))))
def test_property_irr_char_of_built_matches_init_built(case):
    _assert_irr_char_matches_init_built(*case)


def test_irr_char_of_built_on_c4_and_non_int_highest():
    _assert_irr_char_matches_init_built(RootDatum((Factor("C", 4),), 0), (4, 2, 1, 1))
    _assert_irr_char_matches_init_built(C2, (Fraction(2), True, -1))


# -- dominant-weight Freudenthal against the full-weight oracle -----------------


@st.composite
def dominant_blocks(draw):
    """(series, n, lam): a block of rank n <= 4 and a dominant lam with
    |lam|_1 <= 6; A weights may be negative, D weights may end negative."""
    series = draw(st.sampled_from("ACD"))
    n = draw(st.integers(1, 4))
    v = _cap_norm(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)), 6)
    return series, n, _dominantize_block(series, v)


@PROPERTY_SETTINGS
@given(dominant_blocks())
@example(("A", 3, (2, 0, -3)))
@example(("A", 4, (0, -1, -2, -3)))
@example(("D", 3, (2, 1, -1)))
@example(("D", 4, (2, 1, 1, -1)))
@example(("C", 4, (3, 1, 1, 1)))
def test_property_block_irr_matches_oracle(case):
    want = oracle_block_irr(*case)
    series = case[0]
    assert _block_irr(*case) == tuple((w, m) for w, m in want if oracle_is_dominant_block(series, w))
    assert _block_weights(*case) == want  # items and order
    for mu, _ in _block_irr(*case):
        orbit = _orbit(series, mu)
        assert len(set(orbit)) == len(orbit) == _orbit_size(series, mu)


def test_weyl_dim_rejects_non_dominant():
    a2 = RootDatum((Factor("A", 2),), 0)
    for rd, w in ((C2, (-4, -2, 0)), (C2, (0, 1, 0)), (a2, (-2, 2))):
        with pytest.raises(NotDominantError):
            weyl_dim(rd, w)
    # the integer Weyl product is 0 or negative off the dominant chamber
    for series, lam in (("C", (0, 1)), ("A", (-2, 2))):
        with pytest.raises(InternalCheckError):
            _block_weyl_dim(series, 2, lam)


@st.composite
def perturbed_chars(draw):
    """(root datum, a sum of irreducibles plus up to three weight bumps): a
    bump may zero one of the last two coordinates of a block, and may be a
    whole W-orbit, which keeps the character symmetric."""
    rd, _, x = draw(irreducible_sums(st.integers(-2, 2)))
    for _ in range(draw(st.integers(0, 3))):
        w = list(draw(weights(rd, 4, dominant=draw(st.booleans()))))
        for _, _, b in rd.block_slices():
            k = draw(st.sampled_from((None, b - 1, b - 2)))
            if k is not None and k >= 0:
                w[k] = 0
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        orbit = weyl_orbit(rd, tuple(w)) if draw(st.booleans()) else (tuple(w),)
        x = add_chars(x, WeightChar({v: c for v in orbit}))
    return rd, x


def _check_outcome(check, rd, x):
    try:
        check(rd, x)
    except NotACharacterError as exc:
        return str(exc)
    return None


def _weyl_check(rd, x):
    """``decompose`` up to its W-invariance check: the peeling's refusal of
    a negative multiplicity, which follows that check, passes."""
    try:
        decompose(rd, x)
    except NotACharacterError as exc:
        if "went negative" not in str(exc):
            raise


def _assert_asymmetric_witness(rd, x, message):
    """The weight named by ``message`` has a W-orbit on which x is not
    constant: partly supported, or with unequal multiplicities."""
    prefix = "support is not Weyl-symmetric at "
    assert message.startswith(prefix)
    w = ast.literal_eval(message[len(prefix) :])
    assert len({x.mult(v) for v in weyl_orbit(rd, w)}) > 1


@PROPERTY_SETTINGS
@given(perturbed_chars())
def test_property_weyl_check_matches_generator_maps(case):
    rd, x = case
    got = _check_outcome(_weyl_check, rd, x)
    want = _check_outcome(oracle_check_weyl_symmetric, rd, x)
    assert (got is None) == (want is None)
    if got is not None:
        _assert_asymmetric_witness(rd, x, got)


def test_weyl_check_on_d_weights_with_one_zero():
    d3 = RootDatum((Factor("D", 3),), 1)
    for w in ((1, 1, 0, 0), (1, 0, 1, 0), (2, 0, -1, 1)):
        x = WeightChar({v: 1 for v in weyl_orbit(d3, w)})
        assert _check_outcome(_weyl_check, d3, x) is None
        half = WeightChar({v: 1 for v in weyl_orbit(d3, w) if v[1] >= 0 and v[2] >= 0})
        got = _check_outcome(_weyl_check, d3, half)
        assert got is not None and _check_outcome(oracle_check_weyl_symmetric, d3, half) is not None
        _assert_asymmetric_witness(d3, half, got)


def test_is_dominant_block_matches_chamber_inequalities():
    for series in "ACD":
        for n in range(1, 5):
            for v in itertools.product(range(-2, 3), repeat=n):
                assert _is_dominant_block(series, v) == oracle_is_dominant_block(series, v), (series, v)
    h = Fraction(1, 2)
    for v in (
        (Fraction(5, 2), h),
        (h, -h),
        (-h, h),
        (Fraction(2), True, False),
        (True, True, -1),
        (False, True),
        (Fraction(3, 2), Fraction(3, 2), Fraction(-3, 2)),
        (Fraction(-1, 3),),
    ):
        for series in "ACD":
            assert _is_dominant_block(series, v) == oracle_is_dominant_block(series, v), (series, v)


def test_non_integral_entries_are_rejected():
    h = Fraction(1, 2)
    with pytest.raises(NotDominantError):
        irr_char(C2, (Fraction(5, 2), 0, 1))
    with pytest.raises(NotDominantError):
        weyl_dim(C2, (Fraction(5, 2), 0, 1))
    for bad in ({(h, 0): Fraction(3, 2)}, {(h, 0): 1}, {(1, 0): Fraction(3, 2)}, {(0, 0.5): 1}):
        with pytest.raises(NotACharacterError):
            WeightChar(bad)
    # entries that equal an int keep working
    assert WeightChar({(Fraction(2), True): Fraction(4, 2)}) == WeightChar({(2, 1): 2})
    assert irr_char(C2, (Fraction(2), True, 1)) == irr_char(C2, (2, 1, 1))
    assert weyl_dim(C2, (Fraction(2), True, 1.0)) == weyl_dim(C2, (2, 1, 1))


# -- the cached-orbit W-invariance check against the keyed loop it replaced -----


def keyed_decompose(rd, x):
    """``decompose`` as it was before it read cached orbits.  One pass keys
    each weight by the dominant representatives of its block parts, then
    its central part: x is W-invariant exactly when each key is seen with
    one multiplicity and as often as its orbit is large.  The peeling is
    the same."""
    rank = rd.total_rank
    if not x.is_zero() and x.rank() != rank:
        raise RankMismatchError("character rank does not match the root datum")
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
        if m < 0:
            raise NotACharacterError(f"multiplicity {m} at {best} went negative during peeling")
        highest, dom = _dominant_irr(rd, best)
        out.append((highest, m))
        for w, c in dom:
            nv = work.get(w, 0) - m * c
            if nv:
                work[w] = nv
            else:
                del work[w]
    return tuple(out)


# A with negative entries, C1, C3, D1, D3, D4 and C2 x A2, at central ranks 0, 1 and 2
KEYED_SHAPES = [
    RootDatum((Factor("A", 3),), 1),
    RootDatum((Factor("A", 2),), 0),
    RootDatum((Factor("C", 1),), 1),
    RootDatum((Factor("C", 3),), 0),
    RootDatum((Factor("D", 1),), 1),
    RootDatum((Factor("D", 3),), 1),
    RootDatum((Factor("D", 4),), 2),
    RootDatum((Factor("D", 4),), 0),
    RootDatum((Factor("C", 2), Factor("A", 2)), 1),
]
# D4 weights with a zero coordinate and with an odd number of negative signs
D4_WEIGHTS = [(1, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, -1), (2, 1, 1, -1), (1, 1, 1, 1), (2, 1, 0, 0)]
WITNESS = "support is not Weyl-symmetric at "


def _random_weight(rng, rd, budget):
    """A weight of ``rd`` whose block part has |.|_1 <= budget."""
    block = [rng.randint(-2, 2) for _ in range(rd.total_rank - rd.central_rank)]
    if rd.factors[0] == Factor("D", 4) and rng.random() < 0.3:
        block = [rng.choice((1, -1)) * c for c in rng.choice(D4_WEIGHTS)]
    return tuple(_cap_norm(block, budget)) + tuple(rng.randint(-1, 1) for _ in range(rd.central_rank))


def _random_invariant(rng, rd, genuine):
    """A W-invariant character: a sum of irreducibles, a tensor product of
    small irreducibles, a sum of whole W-orbits, or zero."""
    kind = rng.randrange(7)
    def irr(budget):
        return irr_char(rd, dominantize(rd, _random_weight(rng, rd, budget)))
    def mult():
        return rng.randint(1, 2) if genuine else rng.choice((-2, -1, 1, 2))
    if kind == 0:
        return WeightChar({})
    if kind <= 3:
        return add_chars(*(irr(3).scale(mult()) for _ in range(rng.randint(1, 3))))
    if kind <= 5:
        out = irr(2)
        for _ in range(rng.randint(1, 2)):
            out = tensor(out, irr(1))
        return out
    return add_chars(*(WeightChar({v: mult() for v in weyl_orbit(rd, _random_weight(rng, rd, 3))})
                       for _ in range(rng.randint(1, 2))))


def _perturb(rng, rd, x):
    """x with one weight dropped, one multiplicity changed, or one weight
    added that is not dominant and whose dominant weight is not in x."""
    m = dict(x.items())
    kind = rng.randrange(3)
    if kind < 2 and m:
        w = rng.choice(sorted(m))
        if kind == 0:
            del m[w]
        else:
            m[w] += rng.choice((-2, -1, 1, 2))
        return WeightChar(m)
    for _ in range(50):
        v = _random_weight(rng, rd, 4)
        if not is_dominant(rd, v) and dominantize(rd, v) not in m:
            m[v] = rng.choice((-1, 1, 2))
            break
    return WeightChar(m)


def _decompose_outcome(fn, rd, x):
    try:
        return fn(rd, x)
    except NotACharacterError as exc:
        return str(exc)


def test_orbit_check_matches_the_keyed_loop_and_the_generator_maps():
    rng = random.Random(20261021)
    asymmetric = symmetric = uncovered = 0
    for i in range(500):
        rd = KEYED_SHAPES[i % len(KEYED_SHAPES)]
        x = _random_invariant(rng, rd, genuine=bool(i % 2))
        if rng.random() < 0.5:
            x = _perturb(rng, rd, x)
        want_symmetric = _check_outcome(oracle_check_weyl_symmetric, rd, x) is None
        got, want = _decompose_outcome(decompose, rd, x), _decompose_outcome(keyed_decompose, rd, x)
        assert type(got) is type(want), (rd, x, got, want)
        if isinstance(want, tuple) or not want.startswith(WITNESS):
            assert got == want  # the constituents, or the peeling's own error
            assert want_symmetric
        else:
            assert not want_symmetric
            assert got.startswith(WITNESS)
            _assert_asymmetric_witness(rd, x, got)
            uncovered += not is_dominant(rd, ast.literal_eval(got[len(WITNESS):]))
        symmetric += want_symmetric
        asymmetric += not want_symmetric
    # both outcomes, and the witness of a weight whose dominant weight is absent
    assert symmetric > 150 and asymmetric > 100 and uncovered > 20, (symmetric, asymmetric, uncovered)


def test_orbit_check_refuses_an_orbit_larger_than_the_support_unbuilt():
    """A weight whose orbit cannot fit in the support is refused from the
    orbit sizes alone: a lone C8 or D20 weight with distinct coordinates
    has 8! * 2^8 or 20! * 2^19 orbit weights, and no orbit is cached."""
    from pelkit import characters

    for rd, w in (
        (RootDatum((Factor("C", 5),), 1), (5, 4, 3, 2, 1, 1)),
        (RootDatum((Factor("C", 8),), 1), (8, 7, 6, 5, 4, 3, 2, 1, 1)),
        (RootDatum((Factor("D", 20),), 0), tuple(range(20, 0, -1))),
        (RootDatum((Factor("C", 8), Factor("A", 3)), 0), (1,) * 8 + (2, 1, 0)),
    ):
        before = characters._orbit.cache_info().currsize
        with pytest.raises(NotACharacterError, match="not Weyl-symmetric") as exc:
            decompose(rd, WeightChar({w: 1}))
        assert str(exc.value) == f"{WITNESS}{w}"
        assert characters._orbit.cache_info().currsize == before
        with pytest.raises(NotACharacterError, match="not Weyl-symmetric"):
            keyed_decompose(rd, WeightChar({w: 1}))


def test_cold_orbit_cache_gives_the_warm_results():
    from pelkit import characters

    cases = [(rd, dominantize(rd, w)) for rd, w in (
        (C2, (2, 1, 1)),
        (RootDatum((Factor("A", 3),), 1), (2, 0, -1, 3)),
        (RootDatum((Factor("D", 4),), 2), (1, 1, 1, -1, 0, 1)),
        (RootDatum((Factor("C", 2), Factor("A", 2)), 1), (1, 1, 1, -1, 1)),
    )]
    def results():
        out = []
        for rd, lam in cases:
            x = irr_char(rd, lam)
            out.append((list(x.items()), decompose(rd, tensor(x, x)), _decompose_outcome(decompose, rd, x.scale(-1))))
        return out
    warm = results()
    characters._orbit.cache_clear()
    characters._orbit_size.cache_clear()
    characters._block_weights.cache_clear()
    assert results() == warm
    assert characters._orbit.cache_info().currsize > 0


def test_orbits_are_tuples_shared_between_callers():
    for series, mu in (("A", (2, 0, 0, -1)), ("C", (2, 1, 0)), ("D", (1, 1, -1)), ("D", (2, 0, 0))):
        orbit = _orbit(series, mu)
        assert type(orbit) is tuple and all(type(w) is tuple for w in orbit)
        assert _orbit(series, mu) is orbit  # one cached value, which no caller can change
        with pytest.raises(TypeError):
            orbit[0] = mu
