import random

import pytest
from gauss_oracle import simult_eigensplit

from pelkit.algebras import MAT_IMAG_QUAD, MAT_Q, AlgebraPresentation, CatalogFactor
from pelkit.characters import Factor, RootDatum
from pelkit.fixtures import (
    balanced_imag_quad_datum,
    gsp8_tensor_datum,
    gu11_datum,
    modular_curve_datum,
    modular_curve_m2_datum,
    mutations,
    quaternion_datum,
    u20_datum,
)
from pelkit.linalg import (
    Matrix,
    NotCommutingError,
    NotComplexStructureError,
    Signature,
    signature,
)
from pelkit.peldata import (
    DimensionMismatchError,
    GroupFactorization,
    PelDatum,
    StructuredModeRequiredError,
    _unitary_signature,
    classify,
    factorize,
    factorize_details,
    shimura_report,
    validate,
)

ALL_DATA = [
    modular_curve_datum,
    modular_curve_m2_datum,
    gu11_datum,
    gsp8_tensor_datum,
    quaternion_datum,
    balanced_imag_quad_datum,
    u20_datum,
]


@pytest.mark.parametrize("build", ALL_DATA)
def test_fixture_data_validate(build):
    report = validate(build())
    assert report.valid, report.message


def test_negated_pairing_fails_at_positivity():
    d = modular_curve_datum()
    # oracle: the polarization Gram flips to negative definite
    assert signature(-(d.pairing @ d.j)) == Signature(0, 2, 0)
    report = validate(PelDatum(d.algebra, -d.pairing, d.j))
    assert not report.valid and report.failure_code == "polarization_positive"


def test_negated_j_fails_at_positivity():
    d = modular_curve_datum()
    assert signature(d.pairing @ -d.j) == Signature(0, 2, 0)
    report = validate(PelDatum(d.algebra, d.pairing, -d.j))
    assert not report.valid and report.failure_code == "polarization_positive"


@pytest.mark.parametrize("name,datum,code", mutations())
def test_mutation_diagnostics(name, datum, code):
    report = validate(datum)
    assert not report.valid
    assert report.failure_code == code


def test_validate_shape_and_degenerate_checks():
    d = modular_curve_datum()
    bad = PelDatum(d.algebra, Matrix.identity(3), d.j)
    assert validate(bad).failure_code == "shape"
    sym = PelDatum(d.algebra, Matrix.identity(2), d.j)
    assert validate(sym).failure_code == "pairing_antisymmetric"
    degenerate = PelDatum(d.algebra, Matrix([[0, 0], [0, 0]]), d.j)
    assert validate(degenerate).failure_code == "pairing_nondegenerate"
    j_bad = PelDatum(d.algebra, d.pairing, Matrix.identity(2))
    assert validate(j_bad).failure_code == "j_square"


def test_factorize_fixture_groups():
    assert factorize(modular_curve_datum()) == GroupFactorization((1,), (), ())
    assert factorize(modular_curve_m2_datum()) == GroupFactorization((1,), (), ())
    assert factorize(gu11_datum()) == GroupFactorization((), ((1, 1),), ())
    assert factorize(gsp8_tensor_datum()) == GroupFactorization((4,), (), ())
    assert factorize(quaternion_datum()) == GroupFactorization((), (), (1,))
    assert factorize(balanced_imag_quad_datum()) == GroupFactorization((), ((1, 1),), ())
    assert factorize(u20_datum()) == GroupFactorization((), ((2, 0),), ())


def test_factorize_requires_structured_mode():
    d = modular_curve_datum()
    raw = PelDatum(
        AlgebraPresentation.raw(2, d.algebra.generators), d.pairing, d.j
    )
    assert validate(raw).valid
    with pytest.raises(StructuredModeRequiredError):
        factorize(raw)


@pytest.mark.parametrize("build", [modular_curve_m2_datum, gu11_datum, quaternion_datum])
def test_factorize_basis_invariant(build):
    rng = random.Random(17)
    base = build()
    expected = factorize(base)
    n = base.dim_v
    for _ in range(4):
        while True:
            p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if p.det() != 0:
                break
        moved = base.conjugate(p)
        assert validate(moved).valid
        assert factorize(moved) == expected


def test_negating_j_swaps_unitary_signature():
    d = u20_datum()
    flipped = PelDatum(d.algebra, -d.pairing, -d.j)
    assert validate(flipped).valid
    assert factorize(flipped) == GroupFactorization((), ((0, 2),), ())


def test_isotypic_dimensions_fill_v():
    # two factors at once: Q-factor on Q^2 plus Q(i)-factor on Q(i)^2
    alg = AlgebraPresentation.from_catalog(
        [CatalogFactor(MAT_Q, 1, 2), CatalogFactor(MAT_IMAG_QUAD, 1, 2, d=-1)]
    )
    m1, gu = modular_curve_datum(), gu11_datum()
    datum = PelDatum(
        alg,
        Matrix.block_diag(m1.pairing, gu.pairing),
        Matrix.block_diag(m1.j, gu.j),
    )
    assert validate(datum).valid
    fact = factorize(datum)
    assert fact == GroupFactorization((1,), ((1, 1),), ())
    details = factorize_details(datum)
    assert sum(
        blk.factor.isotypic_dim for blk in datum.algebra.factors
    ) == datum.dim_v
    # unitary signature sums to the Morita-reduced multiplicity
    assert details[1].params[0] + details[1].params[1] == 2


def test_shimura_report_flags():
    ok = shimura_report(factorize(modular_curve_datum()))
    assert ok.is_shimura_datum_for_g0 and ok.g_connected and ok.center_condition

    definite = shimura_report(factorize(u20_datum()))
    assert not definite.is_shimura_datum_for_g0
    assert definite.offending_factors == ("U(2,0)",)
    assert definite.g_connected

    quat = shimura_report(factorize(quaternion_datum()))
    assert quat.is_shimura_datum_for_g0
    assert not quat.g_connected

    # U(1,0) is exempt from the definite-factor obstruction
    small = shimura_report(GroupFactorization((), ((1, 0),), ()))
    assert small.is_shimura_datum_for_g0


def test_classification_bundle():
    cl = classify(gu11_datum())
    assert cl.root_datum == RootDatum((Factor("A", 2),), 1)
    assert cl.standard_char.dim() == 4
    assert cl.standard_char.mult((1, 0, 1)) == 1
    cl2 = classify(modular_curve_m2_datum())
    assert cl2.root_datum == RootDatum((Factor("C", 1),), 1)
    assert cl2.standard_char.mult((1, 1)) == 2

    clq = classify(quaternion_datum())
    assert clq.root_datum == RootDatum((Factor("D", 1),), 1)
    assert clq.standard_char.dim() == 4
    assert clq.standard_char.mult((1, 1)) == 2


def test_dimension_mismatch_detected():
    # a pairing j that fails to preserve the isotypic block only arises for
    # inconsistent hand-built data; simulate with a j commuting with nothing
    d = gu11_datum()
    j = Matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    broken = PelDatum(d.algebra, d.pairing, j)
    report = validate(broken)
    assert not report.valid and report.failure_code == "j_pairing_skew"
    with pytest.raises((DimensionMismatchError, ValueError)):
        # the balanced branch needs even multiplicity
        factorize(
            PelDatum(
                AlgebraPresentation.from_catalog(
                    [CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=-2)]
                ),
                Matrix([[0, 1], [-1, 0]]),
                Matrix([[0, -1], [1, 0]]),
            )
        )


# -- the unitary signature by one trace against the Q(i) eigenspace oracle ------

J2 = Matrix([[0, -1], [1, 0]])  # multiplication by i on the basis (1, i)
P2 = Matrix([[0, 2], [-2, 0]])


def unitary_datum(a: int, b: int, n: int) -> PelDatum:
    """M_n(Q(i)) on a + b copies of Q(i)^n: the first a copies carry the
    pairing P and complex structure i on each coordinate, the other b carry
    -P and -i, so the group is U(a, b)."""
    signs = [1] * a + [-1] * b
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, n, a + b, d=-1)])
    return PelDatum(
        alg,
        Matrix.block_diag(*[P2.scale(s) for s in signs for _ in range(n)]),
        Matrix.block_diag(*[J2.scale(s) for s in signs for _ in range(n)]),
    )


def balanced_datum(d: int, k: int) -> PelDatum:
    """Q(sqrt d) on 2k copies of itself, j swapping paired copies: U(k, k)."""
    t = -2 * d  # the trace form of Q(sqrt d) is diag(2, t)
    pairing = Matrix([[0, 0, 2, 0], [0, 0, 0, t], [-2, 0, 0, 0], [0, -t, 0, 0]])
    j = Matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, 1, 2 * k, d=d)])
    return PelDatum(alg, Matrix.block_diag(*[pairing] * k), Matrix.block_diag(*[j] * k))


def random_unimodular(rng, n: int) -> Matrix:
    """Integer matrix of determinant +-1: a signed permutation after random
    elementary row operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return Matrix([[rng.choice((-1, 1)) * x for x in r] for r in rows])


def _unitary_blocks(datum: PelDatum):
    """(c, j, d, n) on each imaginary quadratic block, as factorize_details
    restricts them."""
    out = []
    for blk in datum.algebra.factors:
        if blk.factor.kind != MAT_IMAG_QUAD:
            continue
        q = blk.unit_action.column_space_basis()
        out.append(
            (q.solve(blk.center_action @ q), q.solve(datum.j @ q), blk.factor.d, blk.factor.n)
        )
    return out


def oracle_unitary_signature(c: Matrix, j: Matrix, d: int, n: int):
    """(a, b) from the joint eigenspaces over Q(i) when d = -1; for d < -1
    the balanced rule dim / 4n, which needs an even multiplicity."""
    if d == -1:
        d1, d2, d3, d4 = simult_eigensplit(c, j).dims
        assert (d1, d2) == (d4, d3)
        assert d1 % n == 0 and d2 % n == 0
        return d1 // n, d2 // n
    m2, r = divmod(c.rows, 2 * n)
    assert r == 0 and m2 % 2 == 0
    return m2 // 2, m2 // 2


UNITARY_GRID = [
    (a, b, n) for n in (1, 2) for a in range(5) for b in range(5) if 1 <= a + b <= 4
]


@pytest.mark.parametrize("a,b,n", UNITARY_GRID, ids=[f"U{a}{b}-n{n}" for a, b, n in UNITARY_GRID])
def test_trace_split_matches_eigenspace_oracle(a, b, n):
    rng = random.Random(1000 * a + 100 * b + n)
    base = unitary_datum(a, b, n)
    assert validate(base).valid
    assert factorize(base) == GroupFactorization((), ((a, b),), ())
    for p in (Matrix.identity(base.dim_v), random_unimodular(rng, base.dim_v)):
        moved = base.conjugate(p)
        for c, j, d, k in _unitary_blocks(moved):
            assert _unitary_signature(c, j, d, k) == oracle_unitary_signature(c, j, d, k) == (a, b)
        assert factorize(moved) == GroupFactorization((), ((a, b),), ())


@pytest.mark.parametrize(
    "build,expected",
    [
        (u20_datum, (2, 0)),
        (gu11_datum, (1, 1)),
        (balanced_imag_quad_datum, (1, 1)),
        (lambda: balanced_datum(-3, 1), (1, 1)),
        (lambda: balanced_datum(-5, 2), (2, 2)),
        (lambda: balanced_datum(-7, 1), (1, 1)),
    ],
    ids=["u20", "gu11", "balanced-2", "balanced-3", "balanced-5x2", "balanced-7"],
)
def test_trace_split_on_fixtures_and_base_changes(build, expected):
    rng = random.Random(29)
    base = build()
    assert validate(base).valid
    for p in [Matrix.identity(base.dim_v)] + [random_unimodular(rng, base.dim_v) for _ in range(3)]:
        moved = base.conjugate(p)
        assert validate(moved).valid
        ((c, j, d, n),) = _unitary_blocks(moved)
        assert _unitary_signature(c, j, d, n) == oracle_unitary_signature(c, j, d, n) == expected
        assert (c @ j).trace() == (0 if d != -1 else 2 * n * (expected[1] - expected[0]))


def test_trace_split_rejects_bad_blocks():
    c, j = J2, Matrix.block_diag(J2, -J2)
    c2 = Matrix.block_diag(J2, J2)
    with pytest.raises(NotComplexStructureError):
        _unitary_signature(c2, j, -2, 1)  # c squares to -1, not -2
    with pytest.raises(NotComplexStructureError):
        _unitary_signature(c2, Matrix.identity(4), -1, 1)
    shear = Matrix([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotCommutingError):
        _unitary_signature(shear.inv() @ c2 @ shear, j, -1, 1)
    with pytest.raises(DimensionMismatchError):
        _unitary_signature(c, J2, -1, 2)  # U(1, 0) is not a multiple of n = 2
