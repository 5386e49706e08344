import json
import random
from fractions import Fraction

import pytest

from pelkit.algebras import (
    MAT_DEF_QUAT,
    MAT_IMAG_QUAD,
    MAT_Q,
    MAX_DIM_V,
    AlgebraPresentation,
    CatalogFactor,
    CatalogTooLargeError,
    _catalog_generators,
    _closure,
    _trace_gram,
    _with_star,
    check_anti_involution,
    check_positive,
)
from pelkit.fixtures import gu11_datum, quaternion_datum
from pelkit.linalg import Matrix, Signature, _monomial, signature
from pelkit.serialize import datum_from_json, datum_to_json

from closure_oracle import oracle_check_anti_involution, oracle_check_positive, oracle_closure
from test_peldata import ALL_DATA
from validate_oracle import v_generators


def unit(n, p, q):
    return Matrix([[1 if (i, j) == (p, q) else 0 for j in range(n)] for i in range(n)])


def m2_transpose():
    gens = [(unit(2, p, q), unit(2, q, p)) for p in range(2) for q in range(2)]
    return AlgebraPresentation.raw(2, gens)


def test_m2_transpose_is_positive_anti_involution():
    alg = m2_transpose()
    assert check_anti_involution(alg).ok
    assert check_positive(alg)


def test_scalar_algebra():
    alg = AlgebraPresentation.raw(2, [(Matrix.identity(2), Matrix.identity(2))])
    assert check_anti_involution(alg).ok
    assert check_positive(alg)


def test_m2_identity_star_fails_with_witness():
    # the identity map is not an anti-involution of M_2: for the matrix
    # units, (E12 E21)* = E11 but E21* E12* = E21 E12 = E22
    e12, e21 = unit(2, 0, 1), unit(2, 1, 0)
    assert e12 @ e21 == unit(2, 0, 0) and e21 @ e12 == unit(2, 1, 1)
    gens = [(unit(2, p, q), unit(2, p, q)) for p in range(2) for q in range(2)]
    report = check_anti_involution(AlgebraPresentation.raw(2, gens))
    assert not report.ok
    assert report.reason == "star does not reverse products"
    assert len(report.witness) == 2


def test_qxq_swap_not_positive():
    # trace form oracle by hand: basis e1 = diag(1,0), e2 = diag(0,1) with
    # star the swap; tr(e1 e1*) = tr(e1 e2) = 0 and tr(e1 e2*) = tr(e1 e1) = 1,
    # so the Gram matrix is [[0,1],[1,0]] with signature (1,1,0).
    assert signature(Matrix([[0, 1], [1, 0]])) == Signature(1, 1, 0)
    e1 = Matrix([[1, 0], [0, 0]])
    e2 = Matrix([[0, 0], [0, 1]])
    alg = AlgebraPresentation.raw(2, [(e1, e2), (e2, e1)])
    assert check_anti_involution(alg).ok
    assert not check_positive(alg)


def test_rotation_presentation_of_gaussian_field():
    r = Matrix([[0, -1], [1, 0]])
    alg = AlgebraPresentation.raw(2, [(Matrix.identity(2), Matrix.identity(2)), (r, -r)])
    assert check_anti_involution(alg).ok
    assert check_positive(alg)


def test_star_linearity_on_dependent_generators():
    # E11 + E22 = I, so declaring I* = -I contradicts linearity
    gens = [
        (unit(2, 0, 0), unit(2, 0, 0)),
        (unit(2, 1, 1), unit(2, 1, 1)),
        (Matrix.identity(2), -Matrix.identity(2)),
    ]
    report = check_anti_involution(AlgebraPresentation.raw(2, gens))
    assert not report.ok
    assert report.reason == "star is not linear on dependent generators"


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=-4)  # not squarefree
    with pytest.raises(ValueError):
        CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=3)  # not negative
    with pytest.raises(ValueError):
        CatalogFactor(MAT_DEF_QUAT, 1, 1, a=1, b=-1)
    with pytest.raises(ValueError):
        CatalogFactor("mat_r", 1, 1)


@pytest.mark.parametrize(
    "kind, params",
    [
        (MAT_Q, {"d": 7}),
        (MAT_Q, {"a": 3}),
        (MAT_Q, {"b": -1}),
        (MAT_IMAG_QUAD, {"d": -1, "a": -1}),
        (MAT_IMAG_QUAD, {"d": -1, "b": -2}),
        (MAT_DEF_QUAT, {"a": -1, "b": -1, "d": -1}),
    ],
)
def test_catalog_rejects_foreign_parameters(kind, params):
    # d belongs to mat_imag_quad and a, b to mat_def_quat alone; a foreign
    # one would be dropped by the JSON writer and break the round trip
    with pytest.raises(ValueError, match="takes no parameter"):
        CatalogFactor(kind, 1, 1, **params)


SQUAREFREE_NEG = [-1, -2, -3, -5, -6, -7]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_catalog_mat_q_grid(n):
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, n, 1)])
    assert check_anti_involution(alg).ok
    assert check_positive(alg)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", SQUAREFREE_NEG)
def test_catalog_imag_quad_grid(n, d):
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, n, 1, d=d)])
    assert check_anti_involution(alg).ok
    assert check_positive(alg)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ab", [(a, b) for a in (-1, -2, -3) for b in (-1, -2, -3)])
def test_catalog_quaternion_grid(n, ab):
    a, b = ab
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_DEF_QUAT, n, 1, a=a, b=b)])
    assert check_anti_involution(alg).ok
    assert check_positive(alg)


def test_positivity_is_conjugation_invariant():
    rng = random.Random(13)
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, 1, 2, d=-3)])
    for _ in range(5):
        while True:
            p = Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if p.det() != 0:
                break
        conj = alg.conjugate(p)
        assert check_anti_involution(conj).ok
        assert check_positive(conj)


def test_closure_from_small_generating_set():
    # E12 and E21 generate all of M_2; the canonical transpose star closes up
    gens = [(unit(2, 0, 1), unit(2, 1, 0)), (unit(2, 1, 0), unit(2, 0, 1))]
    alg = AlgebraPresentation.raw(2, gens)
    assert check_anti_involution(alg).ok
    assert check_positive(alg)


def _matmul_gram(alg):
    """The symmetrised trace form by one product per pair, over Fractions."""
    cl = _closure(alg)
    k = len(cl.basis)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for s in range(k):
        for t in range(s, k):
            v = ((cl.basis[s] @ cl.star_of[t]).trace() + (cl.basis[t] @ cl.star_of[s]).trace()) / 2
            gram[s][t] = gram[t][s] = v
    return gram


@pytest.mark.parametrize("name", ALL_DATA)
def test_integer_gram_is_positive_multiple_of_matmul_gram(name):
    rng = random.Random(31)
    alg = ALL_DATA[name]().algebra
    n = alg.dim_v
    for _ in range(3):
        old = _matmul_gram(alg)
        new = _trace_gram(_closure(alg)).tolist()
        ratio = new[0][0] / old[0][0]  # the identity comes first: tr(1) = dim > 0
        assert ratio > 0
        assert new == [[ratio * x for x in r] for r in old]
        assert signature(Matrix(old)) == signature(Matrix(new))
        while True:
            p = Matrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]).scale(Fraction(1, 2))
            if p.det():
                break
        alg = alg.conjugate(p)


# -- the generator closure against the all-pairs oracle ---------------------------

COEFF_GENERATORS = {MAT_Q: 1, MAT_IMAG_QUAD: 2, MAT_DEF_QUAT: 3}  # 1, sqrt d or i, j


def _random_factor(rng, kind, n):
    if kind == MAT_Q:
        return CatalogFactor(MAT_Q, n, rng.randint(1, 2))
    if kind == MAT_IMAG_QUAD:
        return CatalogFactor(MAT_IMAG_QUAD, n, rng.randint(1, 2), d=rng.choice(SQUAREFREE_NEG))
    return CatalogFactor(MAT_DEF_QUAT, n, 1, a=rng.choice((-1, -2, -3)), b=rng.choice((-1, -2, -3)))


def _unimodular(rng, n):
    """Determinant +-1: the identity after n row operations row_i += +-row_j."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rows[0] = [-x for x in rows[0]] if rng.random() < 0.5 else rows[0]
    return Matrix(rows)


def _rational_shear(rng, n):
    """Invertible with rational entries: the identity after n row operations
    row_i += c row_j with c in {+-1/2, 2}, then each column scaled by 1/2,
    -1 or 3.  Sparse, unlike a random rational matrix, so that the closure
    of a base-changed M_3(D) stays cheap."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((Fraction(1, 2), Fraction(-1, 2), Fraction(2)))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    scale = [rng.choice((Fraction(1, 2), -1, 3)) for _ in range(n)]
    return Matrix([[x * s for x, s in zip(r, scale)] for r in rows])


def _break_star(rng, gens):
    """One fault in the declared star of a generator list."""
    gens = list(gens)
    k = rng.randrange(len(gens))
    act, star = gens[k]
    fault = rng.randrange(6)
    if fault == 0:
        gens = [(a, a) for a, _ in gens]
    elif fault == 1:
        gens[k] = (act, -star)
    elif fault == 2:
        gens[k] = (act, star.transpose())
    elif fault == 3:
        gens[k] = (act, star.scale(2))
    elif fault == 4:
        gens[k] = (act, gens[rng.randrange(len(gens))][1])
    else:
        # the star images of the generators permuted among their actions
        acts = [a for a, _ in gens]
        gens = [(a, rng.choice(acts)) for a in acts]
    return gens


def _random_raw_presentation(seed):
    """A raw presentation on at most two small catalog factors: their
    generators, some of the words of length two in them, a dependent
    generator (star linear on it or not), a broken star and a base change,
    each present or not by the seed."""
    rng = random.Random(seed)
    factors = [_random_factor(rng, rng.choice(list(COEFF_GENERATORS)), rng.randint(1, 2))]
    if rng.random() < 0.4:
        factors.append(_random_factor(rng, MAT_Q if rng.random() < 0.5 else MAT_IMAG_QUAD, 1))
    cat = AlgebraPresentation.from_catalog(factors)
    dim = cat.dim_v
    gens = list(cat.generators)
    for _ in range(rng.randint(0, 3)):
        (a, s), (b, t) = rng.choice(gens), rng.choice(gens)
        gens.append((a @ b, t @ s))
    if rng.random() < 0.5:
        gens = rng.sample(gens, rng.randint(1, len(gens)))
    if rng.random() < 0.4:
        (a, s), (b, t) = rng.choice(gens), rng.choice(gens)
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        star = s + t.scale(c)
        if rng.random() < 0.5:
            star = star + Matrix.identity(dim)
        gens.insert(rng.randrange(len(gens) + 1), (a + b.scale(c), star))
    if rng.random() < 0.6:
        gens = _break_star(rng, gens)
    alg = AlgebraPresentation.raw(dim, gens)
    return alg.conjugate(_unimodular(rng, dim)) if rng.random() < 0.5 else alg


def _assert_matches_oracle(alg):
    new, old = check_anti_involution(alg), oracle_check_anti_involution(alg)
    assert (new.ok, new.reason, new.witness) == (old.ok, old.reason, old.witness)
    assert check_positive(alg) == oracle_check_positive(alg)
    assert len(_closure(alg).basis) == len(oracle_closure(alg).basis)
    return new.reason or "ok"


RAW_SEEDS = range(60)


@pytest.mark.parametrize("seed", RAW_SEEDS)
def test_closure_matches_oracle_on_random_raw_presentations(seed):
    _assert_matches_oracle(_random_raw_presentation(seed))


def test_random_raw_presentations_reach_every_verdict():
    seen = {
        check_anti_involution(alg).reason or ("ok" if check_positive(alg) else "not positive")
        for alg in map(_random_raw_presentation, RAW_SEEDS)
    }
    assert seen == {
        "ok",
        "not positive",
        "star is not linear on dependent generators",
        "star image leaves the algebra",
        "star is not an involution",
        "star does not reverse products",
    }


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", [MAT_Q, MAT_IMAG_QUAD, MAT_DEF_QUAT])
def test_closure_matches_oracle_on_base_changed_catalog(kind, n):
    rng = random.Random(7 * n + len(kind))
    alg = AlgebraPresentation.from_catalog([_random_factor(rng, kind, n)])
    moved = AlgebraPresentation.raw(alg.dim_v, v_generators(alg.conjugate(_unimodular(rng, alg.dim_v))))
    assert _assert_matches_oracle(moved) == "ok"
    broken = AlgebraPresentation.raw(moved.dim_v, _break_star(rng, moved.generators))
    _assert_matches_oracle(broken)


MIXED_CATALOGS = [
    [CatalogFactor(MAT_Q, 1, 2)],
    [CatalogFactor(MAT_Q, 3, 2)],
    [CatalogFactor(MAT_IMAG_QUAD, 1, 2, d=-1)],
    [CatalogFactor(MAT_IMAG_QUAD, 3, 1, d=-5)],
    [CatalogFactor(MAT_DEF_QUAT, 1, 2, a=-1, b=-3)],
    [CatalogFactor(MAT_DEF_QUAT, 2, 1, a=-2, b=-1)],
    [CatalogFactor(MAT_Q, 1, 2), CatalogFactor(MAT_IMAG_QUAD, 1, 2, d=-1)],
    [CatalogFactor(MAT_Q, 2, 1), CatalogFactor(MAT_DEF_QUAT, 1, 1, a=-1, b=-1)],
    [CatalogFactor(MAT_IMAG_QUAD, 2, 1, d=-3), CatalogFactor(MAT_Q, 1, 2), CatalogFactor(MAT_Q, 2, 2)],
]


@pytest.mark.parametrize("factors", MIXED_CATALOGS)
def test_catalog_generating_set_sizes(factors):
    alg = AlgebraPresentation.from_catalog(factors)
    cl = _closure(alg)
    assert len(alg.generators) == sum(COEFF_GENERATORS[f.kind] + 2 * (f.n - 1) for f in factors)
    assert len(cl.basis) == sum(f.n**2 * f.coeff_dim for f in factors)
    # when every factor has n = 1 their units E_11 (x) 1 sum to the identity
    # of V, so one generator is dependent
    units = [Matrix.identity(alg.dim_v)] + [a for a, _ in alg.generators]
    independent = Matrix([[x for r in m.numerators for x in r] for m in units]).rank() - 1
    assert independent == len(alg.generators) - all(f.n == 1 for f in factors)
    # one kept row [b | b*] per basis element, and every product of a basis
    # element with an independent generator reduces to zero with its
    # reversed star: the closure is closed and the star reverses products
    assert len(cl.echelon.rows) == len(cl.basis)
    gens = range(1, 1 + independent)  # basis[0] is the identity, then come these generators
    residuals = [
        cl.echelon.reduce(_with_star(b @ cl.basis[g], cl.star_of[g] @ s))
        for b, s in zip(cl.basis, cl.star_of)
        for g in gens
    ]
    assert len(residuals) == len(cl.basis) * independent and not any(map(any, residuals))
    assert check_anti_involution(alg).ok and check_positive(alg)


@pytest.mark.parametrize("kind", [MAT_Q, MAT_IMAG_QUAD, MAT_DEF_QUAT])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_catalog_has_a_generator_that_is_not_self_adjoint(kind, n):
    # the identity-star mutations must break star_adjoint on every catalog
    # datum but M_1(Q), whose one generator is its unit
    factor = _random_factor(random.Random(n), kind, n)
    gens = AlgebraPresentation.from_catalog([factor]).generators
    assert any(a != s for a, s in gens) == (kind != MAT_Q or n > 1)


# -- structured presentations: catalog factors and a basis, nothing else ---------


def _shear(n):
    return Matrix([[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)])


def test_structured_presentation_rejects_foreign_generators():
    gu = gu11_datum().algebra
    with pytest.raises(ValueError, match="catalog's"):
        AlgebraPresentation(4, (), gu.factors)
    gens = list(gu.generators)
    gens[1] = (gens[1][0], gens[1][0])  # sqrt(-1) made self-adjoint
    with pytest.raises(ValueError, match="catalog's"):
        AlgebraPresentation(4, tuple(gens), gu.factors)
    moved = gu.conjugate(_shear(4))
    with pytest.raises(ValueError, match="catalog's"):
        AlgebraPresentation(4, v_generators(moved), gu.factors, _shear(4))
    # the catalog's own generators, given or derived, are accepted for every
    # basis, and == tells the bases apart
    assert AlgebraPresentation(4, gu.generators, gu.factors) == gu
    assert AlgebraPresentation(4, gu.generators, gu.factors, _shear(4)) == moved
    assert moved.generators == gu.generators and moved != gu


def test_structured_presentation_rejects_singular_basis():
    gu = gu11_datum().algebra
    singular = Matrix([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="singular"):
        AlgebraPresentation(4, None, gu.factors, singular)
    with pytest.raises(ValueError, match="singular"):
        gu.conjugate(singular)
    with pytest.raises(ValueError, match="singular"):
        gu.conjugate(_shear(4)).conjugate(singular)


def test_raw_presentation_accepts_any_generators():
    gu = gu11_datum().algebra
    gens = tuple((a, a) for a, _ in gu.generators)
    for alg in (AlgebraPresentation(4, gens), AlgebraPresentation.raw(4, gens), AlgebraPresentation(4, ())):
        assert alg.mode == "raw" and alg.basis is None and alg.basis_inv is None
    assert AlgebraPresentation(4, gens).generators == gens


def test_raw_presentation_refuses_a_basis():
    for gens in ((), ((Matrix.identity(2), Matrix.identity(2)),)):
        with pytest.raises(ValueError, match="raw presentation takes no basis"):
            AlgebraPresentation(2, gens, (), Matrix.identity(2))


def test_catalog_past_the_desk_scale_is_refused_before_its_generators():
    # one dimension past the bound; the check reads the factors alone
    too_large = [CatalogFactor(MAT_Q, 1, MAX_DIM_V - 1), CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=-1)]
    for factors in (too_large, [CatalogFactor(MAT_DEF_QUAT, 2, 8, a=-1, b=-1), CatalogFactor(MAT_Q, 1, 1)]):
        with pytest.raises(CatalogTooLargeError, match=f"span dimension {MAX_DIM_V + 1}, past the bound"):
            AlgebraPresentation.from_catalog(factors)
    assert AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, 1, MAX_DIM_V)]).dim_v == MAX_DIM_V


def test_structured_presentation_keeps_its_basis_inverse():
    rng = random.Random(5)
    gu = gu11_datum().algebra
    p, q = _unimodular(rng, 4), _rational_shear(rng, 4)
    assert gu.basis_inv is None
    moved = gu.conjugate(p).conjugate(q)
    assert moved.basis == p @ q and moved.basis_inv == (p @ q).inv()


def _catalog_factor(rng, kind, n, multiplicity):
    if kind == MAT_Q:
        return CatalogFactor(MAT_Q, n, multiplicity)
    if kind == MAT_IMAG_QUAD:
        return CatalogFactor(MAT_IMAG_QUAD, n, multiplicity, d=rng.choice(SQUAREFREE_NEG))
    return CatalogFactor(MAT_DEF_QUAT, n, multiplicity, a=rng.choice((-1, -2, -3)), b=rng.choice((-1, -2, -3)))


STRUCTURED_CASES = [
    (kind, n, m) for kind in (MAT_Q, MAT_IMAG_QUAD, MAT_DEF_QUAT) for n in (1, 2, 3) for m in (1, 2)
] + [tuple(factors) for factors in MIXED_CATALOGS if len(factors) > 1]


def _case_id(case):
    if isinstance(case[0], str):
        return "{}-n{}-m{}".format(*case)
    return "+".join(f"{f.kind}-n{f.n}-m{f.multiplicity}" for f in case)


@pytest.mark.parametrize("case", STRUCTURED_CASES, ids=_case_id)
def test_involution_axioms_hold_on_structured_presentations(case):
    # the oracle for validate's structured fast path: the closure checks
    # pass on catalog data under 0, 1 and 2 composed base changes, one
    # unimodular and one rational, in a seeded order
    rng = random.Random(str(case))
    factors = [_catalog_factor(rng, *case)] if isinstance(case[0], str) else list(case)
    alg = AlgebraPresentation.from_catalog(factors)
    draws = rng.sample((_unimodular, _rational_shear), 2)
    for depth in range(3):
        assert alg.mode == "structured"
        assert check_anti_involution(alg).ok and check_positive(alg), depth
        if depth < 2:
            alg = alg.conjugate(draws[depth](rng, alg.dim_v))


# -- catalog generators: built once per catalog and shared -------------------------


def test_catalog_generators_are_built_once_per_catalog():
    # from_catalog, a JSON load and a base change of the datum, and of a
    # base-changed one, all read one build per distinct factor tuple
    _catalog_generators.cache_clear()
    data = (gu11_datum(), quaternion_datum(), gu11_datum())
    shared = {}
    for datum in data:
        factors = datum.algebra.factors
        moved = datum.conjugate(_shear(datum.dim_v))
        for alg in (
            datum.algebra,
            AlgebraPresentation.from_catalog(factors),
            datum_from_json(json.loads(json.dumps(datum_to_json(datum)))).algebra,
            moved.algebra,
            moved.conjugate(_shear(datum.dim_v)).algebra,
            datum_from_json(json.loads(json.dumps(datum_to_json(moved)))).algebra,
        ):
            assert alg.generators is shared.setdefault(factors, alg.generators)
    info = _catalog_generators.cache_info()
    assert len(shared) == info.misses == 2 and info.hits > 0


@pytest.mark.parametrize("case", STRUCTURED_CASES, ids=_case_id)
def test_shared_catalog_generators_equal_a_fresh_build(case):
    # every catalog kind, alone and mixed: the shared generators are the
    # uncached build, also after validate and products have remembered
    # their monomial maps on them
    rng = random.Random(str(case))
    factors = (_catalog_factor(rng, *case),) if isinstance(case[0], str) else tuple(case)
    alg = AlgebraPresentation.from_catalog(factors)
    fresh = _catalog_generators.__wrapped__(factors)
    assert alg.generators is _catalog_generators(factors) and alg.generators == fresh
    for act, star in alg.generators:
        (act @ star).det()
        star @ act
    assert alg.generators == fresh
    for m in (m for pair in alg.generators for m in pair):
        assert m._form is False or (m._form and m._form[0]) == _monomial(m.numerators)
