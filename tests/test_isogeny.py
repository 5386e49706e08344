import random
from fractions import Fraction
from math import gcd

import pytest

from pelkit import isogeny
from pelkit.isogeny import (
    ZERO_LATTICE,
    IsoMorphism,
    LatticeObject,
    ShapeMismatchError,
    arrow,
    compose,
    direct_sum,
    direct_sum_arrows,
    identity_arrow,
    lattice_change_iso,
    minimal_n,
    run_law_suite,
)
from pelkit.linalg import Matrix

Z1 = LatticeObject.standard(1)
Z2 = LatticeObject.standard(2)


def test_minimal_n_identity_into_scaled():
    assert minimal_n(Matrix.identity(2), Z2, LatticeObject.scaled(2, 3)) == 3


def test_minimal_n_already_integral():
    assert minimal_n(Matrix([[2]]), Z1, Z1) == 1


def test_minimal_n_denominator_lcm():
    f = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert minimal_n(f, Z2, Z2) == 6


def test_arrow_normalisation_independent_of_n():
    f = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    base = arrow(f, Z2, Z2)
    assert base.n_used == 6 and base.scale == Fraction(1, 6)
    padded = arrow(f, Z2, Z2, n=12)
    assert padded == base and padded.n_used == 6
    with pytest.raises(ValueError):
        arrow(f, Z2, Z2, n=4)


def test_compose_unit_law():
    f = arrow(Matrix([[Fraction(1, 2)]]), Z1, Z1)
    assert compose(f, identity_arrow(Z1)) == f
    assert compose(identity_arrow(Z1), f) == f


def test_compose_chain_of_scaled_lattices():
    l1, l2, l3 = Z1, LatticeObject.scaled(1, 2), LatticeObject.scaled(1, 6)
    f12 = arrow(Matrix.identity(1), l1, l2)
    f23 = arrow(Matrix.identity(1), l2, l3)
    assert f12.n_used == 2 and f23.n_used == 3
    chained = compose(f23, f12)
    direct = arrow(Matrix.identity(1), l1, l3)
    assert chained == direct and chained.n_used == 6


def test_compose_shape_mismatch():
    f = arrow(Matrix.identity(1), Z1, Z1)
    g = arrow(Matrix.identity(1), LatticeObject.scaled(1, 2), Z1)
    with pytest.raises(ShapeMismatchError):
        compose(g, f)


def test_lattice_change_iso():
    a, b = Z1, LatticeObject.scaled(1, 5)
    psi, psi_inv = lattice_change_iso(a, b)
    assert psi.n_used == 5
    assert psi_inv.n_used == 1
    # in lattice coordinates the inverse is multiplication by 5
    coords = psi_inv.dst.basis.inv() @ psi_inv.raw @ psi_inv.src.basis
    assert coords == Matrix([[5]])
    assert compose(psi_inv, psi) == identity_arrow(a)
    assert compose(psi, psi_inv) == identity_arrow(b)


def test_lattice_change_same_object_is_identity():
    psi, psi_inv = lattice_change_iso(Z2, Z2)
    assert psi == identity_arrow(Z2) == psi_inv


def test_direct_sum_objects():
    assert direct_sum(Z1, Z1) == Z2
    assert direct_sum(Z1, ZERO_LATTICE) == Z1
    assert direct_sum(ZERO_LATTICE, Z2) == Z2


def test_direct_sum_arrow_normalisation():
    f = identity_arrow(Z1)
    g = arrow(Matrix.identity(1), Z1, LatticeObject.scaled(1, 3))
    summed = direct_sum_arrows(f, g)
    assert summed.n_used == 3
    assert summed.src == Z2


def test_law_suite_all_pass():
    results = run_law_suite(trials=120, seed=2024)
    assert set(results) == {
        "independence_of_n",
        "category_laws",
        "psi_isomorphism",
        "psi_naturality",
        "direct_sum_functorial",
        "direct_sum_normalisation",
    }
    for law, report in results.items():
        assert report["pass"], f"{law}: {report}"
        assert report["failures"] == 0 and type(report["trials"]) is int and report["trials"] == 120


def test_law_suite_deterministic():
    assert run_law_suite(trials=40, seed=7) == run_law_suite(trials=40, seed=7)


@pytest.mark.parametrize("trials", [True, False, -1, -3, 2.0, "3", None])
def test_law_suite_refuses_a_count_that_is_not_an_int_at_least_0(trials):
    with pytest.raises(ValueError, match="trials must be an int >= 0"):
        run_law_suite(trials=trials, seed=1)
    ledger = run_law_suite(trials=1, seed=1)  # the refused call left no cached line behind
    assert all(type(entry["trials"]) is int and entry["trials"] == 1 for entry in ledger.values())
    assert all(entry["pass"] and entry["trials"] == 0 for entry in run_law_suite(trials=0).values())


def test_lattice_object_validation():
    with pytest.raises(ValueError, match="basis must be invertible"):
        LatticeObject(2, Matrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError, match="basis must be invertible"):
        LatticeObject(1, Matrix([[0]]))
    with pytest.raises(ValueError):
        LatticeObject(2, Matrix.identity(3))


def test_lattice_basis_inverse_is_computed_once():
    basis = Matrix([[2, 1], [0, Fraction(1, 3)]])
    lat = LatticeObject(2, basis)
    assert lat.basis_inv == basis.inv()
    assert lat.basis_inv is lat.basis_inv
    # the cached inverse is not a field: equality and hashing ignore it
    assert lat == LatticeObject(2, basis) and hash(lat) == hash(LatticeObject(2, basis))
    assert minimal_n(Matrix.identity(2), Z2, lat) == 2  # basis^-1 = [[1/2, -3/2], [0, 3]]


def test_zero_lattice_has_no_inverse():
    assert ZERO_LATTICE.basis_inv is None and direct_sum(ZERO_LATTICE, Z1).basis_inv == Matrix.identity(1)


def test_scale_is_one_over_n_used():
    f = arrow(Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), Z2, LatticeObject.scaled(2, 5))
    assert f.n_used == 30 and f.scale == Fraction(1, 30)
    assert "scale" not in isogeny.IsoMorphism.__slots__


# -- oracle: the Fraction-built random inputs the law suite used to draw -------


def fraction_unimodular(rng: random.Random, n: int) -> Matrix:
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return Matrix(m)


def fraction_lattice(rng: random.Random, n: int) -> LatticeObject:
    diag = Matrix(
        [
            [Fraction(rng.randint(1, 4), rng.randint(1, 4)) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
    )
    return LatticeObject(n, fraction_unimodular(rng, n) @ diag)


def fraction_map(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(
        [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def _same(a: Matrix, b: Matrix) -> bool:
    return (a.numerators, a.denominator) == (b.numerators, b.denominator)


def test_integer_generators_match_fraction_generators():
    for seed in range(1200):
        for n in (1, 2, 3, 4):
            old, new = random.Random(seed), random.Random(seed)
            lat_old, lat_new = fraction_lattice(old, n), isogeny._random_lattice(new, n)
            assert _same(lat_old.basis, lat_new.basis), (seed, n)
            assert _same(lat_old.basis_inv, lat_new.basis_inv), (seed, n)  # carried against inv()
            assert old.getstate() == new.getstate(), (seed, n)
            cols = 1 + (seed + n) % 3
            assert _same(fraction_map(old, n, cols), isogeny._random_map(new, n, cols)), (seed, n)
            u_old = fraction_unimodular(old, n)
            u, u_inv = isogeny._random_unimodular(new, n)
            assert _same(u_old, Matrix(u)) and _same(u_old.inv(), Matrix(u_inv)), (seed, n)
            assert old.getstate() == new.getstate(), (seed, n)


# (a, b) of randint; n of randrange; a sequence of choice
DRAWS = [(0, n - 1) for n in (1, 2, 3, 4)] + [(1, 4), (-2, 2), (-3, 3), (1, 1, 2, 3)]


@pytest.mark.parametrize("bound", DRAWS, ids=map(str, DRAWS))
def test_below_is_the_stream_of_random_random(bound):
    # the draws of _random_unimodular, _random_lattice and _random_map
    for seed in range(600):
        old, new = random.Random(seed), random.Random(seed)
        for _ in range(12):
            if len(bound) == 4:
                assert old.choice(bound) == bound[isogeny._below(new, len(bound))], seed
            elif bound[0] == 0:
                assert old.randrange(bound[1] + 1) == isogeny._below(new, bound[1] + 1), seed
            else:
                a, b = bound
                assert old.randint(a, b) == a + isogeny._below(new, b - a + 1), seed
        assert old.getstate() == new.getstate(), seed


def test_direct_sum_carries_the_inverse_of_its_basis():
    rng = random.Random(11)
    pool = [ZERO_LATTICE, Z1, Z2] + [isogeny._random_lattice(rng, 1 + k % 3) for k in range(30)]
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        s = direct_sum(a, b)
        if s.dim == 0:
            assert s is ZERO_LATTICE
            continue
        assert _same(s.basis_inv, s.basis.inv())
        assert s == LatticeObject(s.dim, s.basis)
        if len(pool) < 60 and s.dim <= 4:
            pool.append(s)


def test_carried_inverses_still_run_post_init(monkeypatch):
    calls = []
    post = LatticeObject.__post_init__
    monkeypatch.setattr(LatticeObject, "__post_init__", lambda lat: calls.append(lat) or post(lat))
    rng = random.Random(3)
    a, b = isogeny._random_lattice(rng, 2), isogeny._random_lattice(rng, 1)
    s = direct_sum(a, b)
    assert calls == [a, b, s]
    with pytest.raises(ValueError, match="square of size dim"):
        isogeny._with_inverse(Matrix([[1, 0]]), Matrix([[1, 0]]))


def test_minimal_n_matches_the_denominator_of_the_product():
    rng = random.Random(2026)
    for trial in range(1500):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        src = isogeny._random_lattice(rng, n) if n else ZERO_LATTICE
        dst = isogeny._random_lattice(rng, m) if m else ZERO_LATTICE
        if m == 0 or n == 0:
            f = Matrix.identity(max(m, n, 1))
            assert minimal_n(f, src, dst) == 1, trial
            continue
        f = Matrix.zero(m, n) if trial % 10 == 0 else isogeny._random_map(rng, m, n)
        assert minimal_n(f, src, dst) == (dst.basis_inv @ f @ src.basis).denominator, trial


def test_minimal_n_stopping_at_gcd_1_agrees_with_the_full_product():
    # the fold stops at the first entry of the product that is coprime to
    # the common denominator; split seeded maps by whether the very first
    # entry is, or no entry ever is
    rng = random.Random(23)
    first, never = 0, 0
    for trial in range(2000):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        src, dst = isogeny._random_lattice(rng, n), isogeny._random_lattice(rng, m)
        f = isogeny._random_map(rng, m, n)
        if trial % 3 == 0:  # a multiple of an integral-on-lattices map: no entry reaches gcd 1
            f = dst.basis @ Matrix.scalar(m, rng.randint(1, 6)) @ isogeny._random_map(rng, m, n).scale(6) @ src.basis_inv
        prod = dst.basis_inv @ f @ src.basis
        den = dst.basis_inv.denominator * f.denominator * src.basis.denominator
        entries = [x * (den // prod.denominator) for r in prod.numerators for x in r]
        if gcd(den, entries[0]) == 1:
            first += 1
        elif gcd(den, *entries) != 1:
            never += 1
        assert minimal_n(f, src, dst) == prod.denominator, trial
    assert first > 100 and never > 100, (first, never)


@pytest.mark.parametrize("seed", [0, 5, 7, 2024, 31337])
def test_law_suite_ledger_unchanged_on_fraction_inputs(seed, monkeypatch):
    new = run_law_suite(trials=40, seed=seed)
    monkeypatch.setattr(isogeny, "_random_lattice", fraction_lattice)
    monkeypatch.setattr(isogeny, "_random_map", fraction_map)
    assert run_law_suite(trials=40, seed=seed) == new


def test_arrow_equality_and_hash_ignore_the_stored_n():
    f = IsoMorphism(Z2, Z2, Matrix([[1, 0], [0, 2]]), 1)
    g = IsoMorphism(Z2, Z2, Matrix([[1, 0], [0, 2]]), 4)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != IsoMorphism(Z2, LatticeObject.scaled(2, 2), f.raw, 1)
    assert f != IsoMorphism(Z2, Z2, Matrix.identity(2), 1)
    assert f != (Z2, Z2, f.raw)
