import random
from fractions import Fraction

import pytest

from pelkit.algebras import (
    LINEAR,
    MAT_DEF_QUAT,
    MAT_IMAG_QUAD,
    MAT_Q,
    ORTHOGONAL,
    SYMPLECTIC,
    AlgebraPresentation,
    CatalogFactor,
    _closure,
    _trace_gram,
    check_anti_involution,
    check_positive,
    classify_factor,
)
from pelkit.fixtures import (
    balanced_imag_quad_datum,
    gsp8_tensor_datum,
    gu11_datum,
    modular_curve_datum,
    modular_curve_m2_datum,
    quaternion_datum,
    u20_datum,
)
from pelkit.linalg import Matrix, Signature, signature


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


def test_classify_factor():
    assert classify_factor(CatalogFactor(MAT_Q, 1, 1)) == SYMPLECTIC
    assert classify_factor(CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=-1)) == LINEAR
    assert classify_factor(CatalogFactor(MAT_DEF_QUAT, 1, 1, a=-1, b=-1)) == ORTHOGONAL


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=-4)  # not squarefree
    with pytest.raises(ValueError):
        CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=3)  # not negative
    with pytest.raises(ValueError):
        CatalogFactor(MAT_DEF_QUAT, 1, 1, a=1, b=-1)
    with pytest.raises(ValueError):
        CatalogFactor("mat_r", 1, 1)


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


@pytest.mark.parametrize(
    "build",
    [
        modular_curve_datum,
        modular_curve_m2_datum,
        gu11_datum,
        gsp8_tensor_datum,
        quaternion_datum,
        balanced_imag_quad_datum,
        u20_datum,
    ],
)
def test_integer_gram_is_positive_multiple_of_matmul_gram(build):
    rng = random.Random(31)
    alg = build().algebra
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
