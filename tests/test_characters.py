import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    _is_dominant_block,
    add_chars,
    decompose,
    dual,
    irr_char,
    restrict,
    standard_char,
    tensor,
    trivial_char,
    weyl_dim,
    weyl_generator_maps,
)

# Whole-weight dominance helpers: pelkit itself filters block slices inline.


def is_dominant(rd: RootDatum, w) -> bool:
    blocks, _ = rd.split(w)
    return all(_is_dominant_block(f.series, b) for f, b in zip(rd.factors, blocks))


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


def test_decompose_virtual_signed():
    x = add_chars(irr_char(C2, (1, 0, 1)), irr_char(C2, (0, 0, 0)).scale(-2))
    with pytest.raises(NotACharacterError):
        decompose(C2, x, genuine=True)
    signed = dict(decompose(C2, x, genuine=False))
    assert signed == {(1, 0, 1): 1, (0, 0, 0): -2}


def oracle_pointwise_symmetric(rd, x):
    """The old symmetry test: each multiplicity equals the one at the
    dominant weight of its orbit.  It misses orbits that are incomplete."""
    return all(x.mult(dominantize(rd, w)) == m for w, m in x.items())


def oracle_decompose(rd, x, genuine=True):
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
        if genuine and m < 0:
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
    with pytest.raises(RankMismatchError):
        decompose(C2, WeightChar({(0, 0, 1): 1, (0, 1): 1}))


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
    got = decompose(rd, x, genuine=False)
    assert got == oracle_decompose(rd, x, genuine=False)
    assert dict(got) == parts
    assert _outcome(decompose, rd, x) == _outcome(oracle_decompose, rd, x)


@PROPERTY_SETTINGS
@given(irreducible_sums(st.integers(-2, 2)), st.data())
def test_property_asymmetric_perturbations_rejected(case, data):
    rd, _, x = case
    w = data.draw(weights(rd, 4, dominant=data.draw(st.booleans())))
    if all(s(w) == w for s in weyl_generator_maps(rd)):
        w = (w[0] + 1,) + w[1:]  # now moved by some generator, still within the bound
    bumped = add_chars(x, WeightChar({w: data.draw(st.sampled_from((-2, -1, 1, 2)))}))
    genuine = data.draw(st.booleans())
    with pytest.raises(NotACharacterError, match="not Weyl-symmetric"):
        decompose(rd, bumped, genuine=genuine)
    with pytest.raises(NotACharacterError):
        oracle_decompose(rd, bumped, genuine=genuine)


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
    genuine = data.draw(st.booleans())
    with pytest.raises(BoundExceededError):
        decompose(rd, y, genuine=genuine)
    with pytest.raises(BoundExceededError):
        oracle_decompose(rd, y, genuine=genuine)


def test_character_caches_are_bounded():
    from pelkit import characters

    assert characters._block_irr.cache_info().maxsize == CACHE_SIZE
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


def test_torus_map_composition():
    f = TorusMap(((1, 1), (0, 1)))  # source rank 2, target rank 2
    g = TorusMap(((2, 0), (1, 1)))
    composed = g.compose(f)
    w = (3, 5)
    assert composed.pull(w) == f.pull(g.pull(w))
