import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_catalog import TABLE
from test_peldata import random_unimodular

from pelkit import characters, hodge

from pelkit.characters import (
    BoundExceededError,
    Factor,
    NotDominantError,
    RootDatum,
    UnsupportedTypeError,
    WeightChar,
    dual,
    irr_char,
    tensor,
)
from pelkit.errors import InternalCheckError
from pelkit.fixtures import NAMED, catalog_datum
from pelkit.hodge import (
    AV_TYPES,
    HodgeCochar,
    HodgeType,
    NonIntegralPairingError,
    _bidegrees,
    auto_cochar,
    enumerate_av_irreducibles,
    hodge_type,
    is_av_type,
)
from pelkit.peldata import Classification, classify, validate


def gsp_cochar(g: int) -> HodgeCochar:
    mu2 = tuple([1] * g + [1])
    kappa2 = tuple([0] * g + [2])
    return HodgeCochar(mu2, tuple(k - m for k, m in zip(kappa2, mu2)), kappa2)


GSP2 = RootDatum((Factor("C", 1),), 1)
STD2 = WeightChar({(1, 1): 1, (-1, 1): 1})


def test_standard_hodge_type():
    assert hodge_type(STD2, gsp_cochar(1)).pairs == AV_TYPES


def test_trivial_hodge_type():
    assert hodge_type(WeightChar({(0, 0): 1}), gsp_cochar(1)).pairs == {(0, 0)}
    assert not is_av_type(WeightChar({(0, 0): 1}), gsp_cochar(1))


def test_tensor_square_hodge_type():
    assert hodge_type(tensor(STD2, STD2), gsp_cochar(1)).pairs == {(-2, 0), (-1, -1), (0, -2)}
    assert not is_av_type(tensor(STD2, STD2), gsp_cochar(1))


def test_av_type_standard():
    assert is_av_type(STD2, gsp_cochar(1))


def test_dual_negates_bidegrees():
    hc = gsp_cochar(2)
    x = irr_char(RootDatum((Factor("C", 2),), 1), (2, 1, 1))
    plain = hodge_type(x, hc).pairs
    flipped = hodge_type(dual(x), hc).pairs
    assert flipped == {(-p, -q) for p, q in plain}


def test_tensor_bidegrees_recomputed():
    hc = gsp_cochar(1)
    x = STD2
    y = irr_char(GSP2, (2, 2))
    lhs = hodge_type(tensor(x, y), hc).pairs
    # direct recomputation from realized weight sums, not assumed additivity
    rhs = set()
    for w1 in x.support():
        for w2 in y.support():
            w = tuple(a + b for a, b in zip(w1, w2))
            rhs |= _bidegrees((w,), hc)
    assert lhs == rhs


def test_cochar_invariant_checked():
    with pytest.raises(ValueError):
        HodgeCochar((1, 1), (0, 0), (0, 2))


def test_cochar_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="not an integer"):
        HodgeCochar((Fraction(3, 2),), (Fraction(-1, 2),), (1,))
    with pytest.raises(ValueError, match="not an integer"):
        HodgeCochar((1,), (1,), (2.5,))
    hc = HodgeCochar((Fraction(2),), (0,), (Fraction(2),))
    assert (hc.mu2, hc.kappa2) == ((2,), (2,)) and type(hc.mu2[0]) is int


def test_half_integral_pairing_rejected():
    hc = gsp_cochar(1)
    with pytest.raises(NonIntegralPairingError):
        hodge_type(WeightChar({(0, 1): 1}), hc)
    # and such supports are simply not of abelian type
    assert not is_av_type(WeightChar({(0, 1): 1}), hc)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_enumerate_av_single_factor(g):
    rd = RootDatum((Factor("C", g),), 1)
    hc = gsp_cochar(g)
    found = enumerate_av_irreducibles(rd, hc, bound=4)
    assert found == (tuple([1] + [0] * (g - 1) + [1]),)


def test_enumerate_av_stabilizes_in_bound():
    rd = RootDatum((Factor("C", 2),), 1)
    hc = gsp_cochar(2)
    outputs = {enumerate_av_irreducibles(rd, hc, bound=b) for b in (1, 2, 3, 4)}
    assert len(outputs) == 1


def test_enumerate_av_product_no_mixed_weights():
    rd = RootDatum((Factor("C", 2), Factor("C", 1)), 1)
    mu2 = (1, 1, 1, 1)
    kappa2 = (0, 0, 0, 2)
    hc = HodgeCochar(mu2, tuple(k - m for k, m in zip(kappa2, mu2)), kappa2)
    found = enumerate_av_irreducibles(rd, hc, bound=3)
    assert found == ((0, 0, 1, 1), (1, 0, 0, 1))
    # exhaustive oracle: check every dominant candidate with |lam|_1 <= 3 directly
    expected = []
    for l1 in range(4):
        for l2 in range(l1 + 1):
            for m1 in range(4 - l1 - l2):
                lam = (l1, l2, m1, 1)
                try:
                    char = irr_char(rd, lam)
                except Exception:
                    continue
                if is_av_type(char, hc):
                    expected.append(lam)
    assert sorted(found) == sorted(expected)


def test_av_bidegrees_sum_to_minus_one():
    rd = RootDatum((Factor("C", 2),), 1)
    hc = gsp_cochar(2)
    for lam in enumerate_av_irreducibles(rd, hc, bound=4):
        for p, q in hodge_type(irr_char(rd, lam), hc).pairs:
            assert p + q == -1


def test_enumerate_rejects_non_symplectic():
    rd = RootDatum((Factor("A", 2),), 1)
    hc = HodgeCochar((1, -1, 1), (-1, 1, 1), (0, 0, 2))
    with pytest.raises(UnsupportedTypeError):
        enumerate_av_irreducibles(rd, hc, bound=2)


def test_auto_cochar_fixtures():
    cl = classify(catalog_datum(NAMED["modular_curve"]))
    hc = auto_cochar(cl)
    assert hc.mu2 == (1, 1) and hc.kappa2 == (0, 2)
    assert is_av_type(cl.standard_char, hc)

    gu = classify(catalog_datum(NAMED["gu11"]))
    hcu = auto_cochar(gu)
    assert hcu.mu2 == (1, -1, 1)
    assert is_av_type(gu.standard_char, hcu)
    assert hodge_type(gu.standard_char, hcu).pairs == AV_TYPES

    quat = classify(catalog_datum(NAMED["quaternion"]))
    hcq = auto_cochar(quat)
    assert is_av_type(quat.standard_char, hcq)


def test_auto_cochar_check_raises_internal_error():
    cl = classify(catalog_datum(NAMED["modular_curve"]))
    broken = Classification(cl.factorization, cl.details, cl.root_datum, WeightChar({(2, 1): 1}))
    with pytest.raises(InternalCheckError):
        auto_cochar(broken)


def test_internal_checks_survive_python_O():
    # ``python -O`` strips assert statements; the cross-checks must still fire.
    code = (
        "from pelkit import characters\n"
        "from pelkit.errors import InternalCheckError\n"
        "from pelkit.fixtures import NAMED, catalog_datum\n"
        "from pelkit.hodge import auto_cochar\n"
        "from pelkit.peldata import Classification, classify\n"
        "cl = classify(catalog_datum(NAMED['modular_curve']))\n"
        "broken = Classification(cl.factorization, cl.details, cl.root_datum, characters.WeightChar({(2, 1): 1}))\n"
        "caught = []\n"
        "try:\n"
        "    auto_cochar(broken)\n"
        "except InternalCheckError:\n"
        "    caught.append('auto_cochar')\n"
        "weyl_dim = characters._block_weyl_dim\n"
        "characters._block_weyl_dim = lambda series, n, lam: 0\n"
        "try:\n"
        "    characters._block_irr.__wrapped__('C', 2, (1, 1))\n"
        "except InternalCheckError:\n"
        "    caught.append('freudenthal')\n"
        "characters._block_weyl_dim = weyl_dim\n"
        "characters._orbit_size = lambda series, mu: 0\n"
        "try:\n"
        "    characters._block_irr.__wrapped__('C', 2, (1, 1))\n"
        "except InternalCheckError:\n"
        "    caught.append('orbit_size')\n"
        "print(','.join(caught))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "auto_cochar,freudenthal,orbit_size"


# -- Hodge types from the highest weight against full characters ----------------


@lru_cache(maxsize=None)
def _oracle_candidates(rd, bound):
    """Every dominant highest weight with |lambda|_1 <= bound and central
    coordinate 1, with its full character."""
    out = []
    ranges = [range(bound + 1)] * (rd.total_rank - 1)
    for lam in itertools.product(*ranges):
        if sum(lam) > bound:
            continue
        highest = lam + (1,)
        try:
            out.append((highest, irr_char(rd, highest)))
        except NotDominantError:
            continue
    return tuple(sorted(out))


def oracle_enumerate(rd, hc, bound):
    """The per-candidate route: build each irreducible character and test
    its Hodge type weight by weight."""
    return tuple(highest for highest, char in _oracle_candidates(rd, bound) if is_av_type(char, hc))


def _cochar(mu2, kappa_central):
    kappa2 = (0,) * (len(mu2) - 1) + (kappa_central,)
    return HodgeCochar(mu2, tuple(k - m for k, m in zip(kappa2, mu2)), kappa2)


@st.composite
def minuscule_cases(draw):
    """(root datum, minuscule cocharacter, bound): each C block's doubled mu
    is all 0 or random +-1, kappa vanishes on the blocks."""
    shape, top = draw(st.sampled_from((((1,), 8), ((2,), 8), ((3,), 8), ((4,), 5), ((2, 1), 8))))
    rd = RootDatum(tuple(Factor("C", n) for n in shape), 1)
    mu2 = []
    for n in shape:
        if draw(st.booleans()):
            mu2.extend(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
        else:
            mu2.extend([0] * n)
    mu2.append(draw(st.integers(-1, 3)))
    hc = _cochar(tuple(mu2), draw(st.sampled_from((2, 2, 2, 0, 1, 3))))
    return rd, hc, draw(st.integers(0, top))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(minuscule_cases())
def test_property_enumerate_matches_character_oracle(case):
    rd, hc, bound = case
    assert enumerate_av_irreducibles(rd, hc, bound) == oracle_enumerate(rd, hc, bound)


@pytest.mark.parametrize("g,bound", [(1, 8), (2, 8), (3, 8), (4, 5)])
def test_enumerate_auto_cochar_matches_oracle_at_the_largest_bound(g, bound):
    rd = RootDatum((Factor("C", g),), 1)
    assert enumerate_av_irreducibles(rd, gsp_cochar(g), bound) == oracle_enumerate(rd, gsp_cochar(g), bound)


def test_enumerate_bounds_raise():
    rd = RootDatum((Factor("C", 2),), 1)
    with pytest.raises(BoundExceededError):
        enumerate_av_irreducibles(rd, gsp_cochar(2), bound=9)
    with pytest.raises(BoundExceededError):
        enumerate_av_irreducibles(RootDatum((Factor("C", 9),), 1), gsp_cochar(9), bound=1)


def test_enumerate_bounds_say_what_irr_char_says():
    # one owner of both bounds: the enumeration and irr_char refuse with the
    # same messages, and a negative bound is no error but an empty answer
    big = RootDatum((Factor("C", 2), Factor("C", 9)), 1)
    small = RootDatum((Factor("C", 2),), 1)
    cases = (
        (lambda: enumerate_av_irreducibles(big, gsp_cochar(11), bound=1), lambda: irr_char(big, (0,) * 12),
         "block rank 9 exceeds 8"),
        (lambda: enumerate_av_irreducibles(small, gsp_cochar(2), bound=9), lambda: irr_char(small, (9, 0, 0)),
         "|highest|_1 exceeds 8"),
    )
    for enumerate_call, irr_call, message in cases:
        for call in (enumerate_call, irr_call):
            with pytest.raises(BoundExceededError) as refused:
                call()
            assert str(refused.value) == message
    assert enumerate_av_irreducibles(small, gsp_cochar(2), bound=-1) == ()


@pytest.mark.parametrize(
    "mu2,kappa_central",
    [((2, 0, 1), 2), ((1, 0, 1), 2), ((3, 3, 1), 2), ((0, -2, 1), 2)],
)
def test_enumerate_rejects_non_minuscule_cochar(mu2, kappa_central):
    rd = RootDatum((Factor("C", 2),), 1)
    with pytest.raises(UnsupportedTypeError, match="not minuscule"):
        enumerate_av_irreducibles(rd, _cochar(mu2, kappa_central), bound=2)


def test_enumerate_rejects_kappa_on_the_block():
    rd = RootDatum((Factor("C", 1),), 1)
    hc = HodgeCochar((1, 1), (1, 1), (2, 2))
    with pytest.raises(UnsupportedTypeError, match="not minuscule"):
        enumerate_av_irreducibles(rd, hc, bound=2)


# -- one-pass hodge_type against the per-weight pairing it replaced ---------------


def _oracle_pair(hc, w, doubled):
    if len(w) != hc.rank:
        raise ValueError("weight length does not match the cocharacter")
    s = sum(a * b for a, b in zip(w, doubled))
    if s % 2:
        raise NonIntegralPairingError(f"weight {w} pairs half-integrally; it is not a weight of this group")
    return s // 2


def _oracle_bidegree(hc, w):
    return (-_oracle_pair(hc, w, hc.mu2), -_oracle_pair(hc, w, hc.mu_bar2))


def oracle_hodge_type(x, hc):
    if x.is_zero():
        raise ValueError("the zero character has no Hodge type")
    return frozenset(_oracle_bidegree(hc, w) for w in x.support())


def _result(f, *args):
    """("ok", f(*args)), or the type and message of what it raises."""
    try:
        return "ok", f(*args)
    except (ValueError, NonIntegralPairingError) as exc:
        return type(exc), str(exc)


def _random_cochar(rng, rank):
    mu2 = [rng.randint(-3, 3) for _ in range(rank)]
    kappa2 = [rng.choice((0, 0, 2, 1, -2)) for _ in range(rank)]
    return HodgeCochar(mu2, [k - m for k, m in zip(kappa2, mu2)], kappa2)


def test_one_pass_hodge_type_against_the_per_weight_oracle():
    # seeded cocharacters with odd entries, so that many weights pair
    # half-integrally in one or both pairings, and one character in eight
    # of the wrong rank
    rng = random.Random(2018_7)
    outcomes = set()
    for trial in range(400):
        rank = rng.randint(1, 6)
        hc = _random_cochar(rng, rank)
        length = rank + rng.choice((-1, 1)) if trial % 8 == 0 and rank > 1 else rank
        x = WeightChar({tuple(rng.randint(-2, 2) for _ in range(length)): rng.choice((1, 2, -1))
                        for _ in range(rng.randint(0, 6))})
        got, want = _result(lambda: hodge_type(x, hc).pairs), _result(oracle_hodge_type, x, hc)
        assert got == want
        if want[0] is NonIntegralPairingError:
            first = next(w for w in x.support() if _result(_oracle_bidegree, hc, w)[0] != "ok")
            assert want[1].startswith(f"weight {first} ")
        outcomes.add(want[0])
        for w in x.support():  # each weight alone
            single = WeightChar({w: 1})
            assert _result(lambda: hodge_type(single, hc).pairs) == _result(oracle_hodge_type, single, hc)
    assert outcomes == {"ok", ValueError, NonIntegralPairingError}


# -- one Hodge pass per classified datum: the kept result ------------------------


def _count_passes(monkeypatch):
    """The cocharacter of each ``_bidegrees`` call, in a list."""
    calls, real = [], hodge._bidegrees

    def counted(weights, hc):
        calls.append(hc)
        return real(weights, hc)

    monkeypatch.setattr(hodge, "_bidegrees", counted)
    return calls


def test_a_classified_datum_makes_one_hodge_pass(monkeypatch):
    # validate -> classify -> auto_cochar -> hodge_type(std): the fixture
    # check's pass is the caller's, on every named datum and a seeded sample
    # of the catalog table, canonical and base-changed
    rng = random.Random("one hodge pass")
    data = [catalog_datum(blocks) for blocks in [*NAMED.values(), *rng.sample(TABLE, 24)]]
    data += [d.conjugate(random_unimodular(rng, d.dim_v)) for d in rng.sample(data, 12)]
    calls = _count_passes(monkeypatch)
    for datum in data:
        calls.clear()
        assert validate(datum).valid
        cl = classify(datum)
        hc = auto_cochar(cl)
        assert hodge_type(cl.standard_char, hc).pairs == AV_TYPES
        assert calls == [hc]


def test_kept_hodge_type_against_a_fresh_pass(monkeypatch):
    # seeded characters and cocharacters with odd entries, so that about
    # half the passes raise NonIntegralPairingError
    rng = random.Random(2018_8)
    fresh_pass = hodge._bidegrees
    calls = _count_passes(monkeypatch)
    outcomes = set()
    for _ in range(300):
        rank = rng.randint(1, 5)
        hc, other = _random_cochar(rng, rank), _random_cochar(rng, rank)
        twin = HodgeCochar(hc.mu2, hc.mu_bar2, hc.kappa2)  # equal, not the same object
        x = WeightChar({tuple(rng.randint(-2, 2) for _ in range(rank)): rng.choice((1, 2, -1))
                        for _ in range(rng.randint(1, 6))})
        h = hash(x)
        fresh = _result(lambda: HodgeType(frozenset(fresh_pass(x.support(), hc))))
        calls.clear()
        assert _result(hodge_type, x, hc) == fresh
        assert _result(hodge_type, x, hc) == fresh
        if fresh[0] == "ok":
            assert calls == [hc] and x._hodge == (hc, fresh[1]) and x._hodge[0] is hc
        else:  # nothing kept, and the second call raises again
            assert calls == [hc, hc] and x._hodge is None
        assert _result(hodge_type, x, twin) == fresh and calls[-1] is twin
        calls.clear()
        assert _result(hodge_type, x, other) == _result(lambda: HodgeType(frozenset(fresh_pass(x.support(), other))))
        assert calls == [other]
        assert x == WeightChar(dict(x.items())) and hash(x) == h == hash(WeightChar(dict(x.items())))
        outcomes.add(fresh[0])
    assert outcomes == {"ok", NonIntegralPairingError}


@pytest.mark.parametrize("extra", [2, 1], ids=["bidegree-(-1,-1)", "half-integral"])
def test_auto_cochar_refuses_a_patched_non_av_standard_char(monkeypatch, extra):
    # one more weight, central only, on every standard character: (0, .., 2)
    # has bidegree (-1, -1) and (0, .., 1) pairs half-integrally
    real = characters.standard_char

    def patched(rd, mults):
        std = real(rd, mults)
        return characters.add_chars(std, WeightChar({(0,) * (std.rank() - 1) + (extra,): 1}))

    monkeypatch.setattr(characters, "standard_char", patched)
    for datum in (catalog_datum(NAMED[name]) for name in ("modular_curve", "gu11", "quaternion")):
        cl = classify(datum)
        with pytest.raises(InternalCheckError):
            auto_cochar(cl)
        assert (cl.standard_char._hodge is None) == (extra == 1)
