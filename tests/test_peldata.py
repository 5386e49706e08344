import json
import random
from fractions import Fraction

import pytest
from classify_oracle import oracle_factorize_details
from gauss_oracle import simult_eigensplit
from test_linalg import J2
from test_mixed_factors import MIXED
from validate_oracle import oracle_validate, v_generators

import pelkit.linalg
from pelkit.algebras import (
    MAT_IMAG_QUAD,
    AlgebraPresentation,
    CatalogFactor,
    CatalogTooLargeError,
    _closure,
    _coeff_generators,
)
from pelkit.characters import Factor, RootDatum, standard_char
from pelkit.fixtures import NAMED, _break_star, catalog_datum, gsp8_tensor_datum, mutations
from pelkit.hodge import auto_cochar, cochar_from_mu2
from pelkit.linalg import (
    Matrix,
    NotCommutingError,
    NotComplexStructureError,
    Signature,
    signature,
)
from pelkit.peldata import (
    Classification,
    DimensionMismatchError,
    FactorGroup,
    GroupFactorization,
    PelDatum,
    StructuredModeRequiredError,
    _catalog_frame,
    _factorization,
    _isotypic_blocks,
    _unitary_signature,
    classify,
    factorize_details,
    root_datum_for,
    shimura_report,
    validate,
)
from pelkit.serialize import datum_from_json, datum_to_json

U20 = [("unitary", 1, 2, 0)]  # definite: both copies of Q(i) carry i
QUATERNION_M2 = [("quaternion", 2, 1, -1, -1)]  # M_2(H) on H^2, the Morita double of the quaternion fixture
ALL_DATA = {
    "modular_curve_datum": lambda: catalog_datum(NAMED["modular_curve"]),
    "modular_curve_m2_datum": lambda: catalog_datum(NAMED["modular_curve_m2"]),
    "gu11_datum": lambda: catalog_datum(NAMED["gu11"]),
    "gsp8_tensor_datum": gsp8_tensor_datum,
    "quaternion_datum": lambda: catalog_datum(NAMED["quaternion"]),
    "balanced_imag_quad_datum": lambda: catalog_datum(NAMED["balanced_sqrt_minus_2"]),
    "u20_datum": lambda: catalog_datum(U20),
}


@pytest.mark.parametrize("name", ALL_DATA)
def test_fixture_data_validate(name):
    report = validate(ALL_DATA[name]())
    assert report.valid, report.message


def test_negated_pairing_fails_at_positivity():
    d = catalog_datum(NAMED["modular_curve"])
    # oracle: the polarization Gram flips to negative definite
    assert signature(-(d.pairing @ d.j)) == Signature(0, 2, 0)
    report = validate(PelDatum(d.algebra, -d.pairing, d.j))
    assert not report.valid and report.failure_code == "polarization_positive"


def test_negated_j_fails_at_positivity():
    d = catalog_datum(NAMED["modular_curve"])
    assert signature(d.pairing @ -d.j) == Signature(0, 2, 0)
    report = validate(PelDatum(d.algebra, d.pairing, -d.j))
    assert not report.valid and report.failure_code == "polarization_positive"


@pytest.mark.parametrize("name,datum,code", mutations())
def test_mutation_diagnostics(name, datum, code):
    report = validate(datum)
    assert not report.valid
    assert report.failure_code == code


def test_validate_shape_and_degenerate_checks():
    d = catalog_datum(NAMED["modular_curve"])
    bad = PelDatum(d.algebra, Matrix.identity(3), d.j)
    assert validate(bad).failure_code == "shape"
    sym = PelDatum(d.algebra, Matrix.identity(2), d.j)
    assert validate(sym).failure_code == "pairing_antisymmetric"
    degenerate = PelDatum(d.algebra, Matrix([[0, 0], [0, 0]]), d.j)
    assert validate(degenerate).failure_code == "pairing_nondegenerate"
    j_bad = PelDatum(d.algebra, d.pairing, Matrix.identity(2))
    assert validate(j_bad).failure_code == "j_square"


def test_factorize_fixture_groups():
    for name, expected in (
        ("modular_curve_datum", GroupFactorization((1,), (), ())),
        ("modular_curve_m2_datum", GroupFactorization((1,), (), ())),
        ("gu11_datum", GroupFactorization((), ((1, 1),), ())),
        ("gsp8_tensor_datum", GroupFactorization((4,), (), ())),
        ("quaternion_datum", GroupFactorization((), (), (1,))),
        ("balanced_imag_quad_datum", GroupFactorization((), ((1, 1),), ())),
        ("u20_datum", GroupFactorization((), ((2, 0),), ())),
    ):
        assert classify(ALL_DATA[name]()).factorization == expected, name


def test_factorize_requires_structured_mode():
    d = catalog_datum(NAMED["modular_curve"])
    raw = PelDatum(
        AlgebraPresentation.raw(2, d.algebra.generators), d.pairing, d.j
    )
    assert validate(raw).valid
    with pytest.raises(StructuredModeRequiredError):
        classify(raw)


@pytest.mark.parametrize("name", ["modular_curve_m2_datum", "gu11_datum", "quaternion_datum"])
def test_factorize_basis_invariant(name):
    rng = random.Random(17)
    base = ALL_DATA[name]()
    expected = classify(base).factorization
    n = base.dim_v
    for _ in range(4):
        while True:
            p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if p.det() != 0:
                break
        moved = base.conjugate(p)
        assert validate(moved).valid
        assert classify(moved).factorization == expected


def test_negating_j_swaps_unitary_signature():
    d = catalog_datum(U20)
    flipped = PelDatum(d.algebra, -d.pairing, -d.j)
    assert validate(flipped).valid
    assert classify(flipped).factorization == GroupFactorization((), ((0, 2),), ())


def test_isotypic_dimensions_fill_v():
    datum = catalog_datum(MIXED)
    assert validate(datum).valid
    fact = classify(datum).factorization
    assert fact == GroupFactorization((1,), ((1, 1),), ())
    details = factorize_details(datum)
    assert sum(f.isotypic_dim for f in datum.algebra.factors) == datum.dim_v
    # unitary signature sums to the Morita-reduced multiplicity
    assert details[1].params[0] + details[1].params[1] == 2


def test_shimura_report_flags():
    ok = shimura_report(classify(catalog_datum(NAMED["modular_curve"])).factorization)
    assert ok.is_shimura_datum_for_g0 and ok.g_connected and ok.center_condition

    definite = shimura_report(classify(catalog_datum(U20)).factorization)
    assert not definite.is_shimura_datum_for_g0
    assert definite.offending_factors == ("U(2,0)",)
    assert definite.g_connected

    quat = shimura_report(classify(catalog_datum(NAMED["quaternion"])).factorization)
    assert quat.is_shimura_datum_for_g0
    assert not quat.g_connected

    # U(1,0) is exempt from the definite-factor obstruction
    small = shimura_report(GroupFactorization((), ((1, 0),), ()))
    assert small.is_shimura_datum_for_g0


def test_classification_bundle():
    cl = classify(catalog_datum(NAMED["gu11"]))
    assert cl.root_datum == RootDatum((Factor("A", 2),), 1)
    assert cl.standard_char.dim() == 4
    assert cl.standard_char.mult((1, 0, 1)) == 1
    cl2 = classify(catalog_datum(NAMED["modular_curve_m2"]))
    assert cl2.root_datum == RootDatum((Factor("C", 1),), 1)
    assert cl2.standard_char.mult((1, 1)) == 2

    clq = classify(catalog_datum(NAMED["quaternion"]))
    assert clq.root_datum == RootDatum((Factor("D", 1),), 1)
    assert clq.standard_char.dim() == 4
    assert clq.standard_char.mult((1, 1)) == 2


def test_dimension_mismatch_detected():
    # a pairing j that fails to preserve the isotypic block only arises for
    # inconsistent hand-built data; simulate with a j commuting with nothing
    d = catalog_datum(NAMED["gu11"])
    j = Matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    broken = PelDatum(d.algebra, d.pairing, j)
    report = validate(broken)
    assert not report.valid and report.failure_code == "j_pairing_skew"
    with pytest.raises((DimensionMismatchError, ValueError)):
        # the balanced branch needs even multiplicity
        classify(
            PelDatum(
                AlgebraPresentation.from_catalog(
                    [CatalogFactor(MAT_IMAG_QUAD, 1, 1, d=-2)]
                ),
                Matrix([[0, 1], [-1, 0]]),
                Matrix([[0, -1], [1, 0]]),
            )
        )


# -- the unitary signature by one trace against the Q(i) eigenspace oracle ------

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
    for f, jf in _isotypic_blocks(datum):
        if f.kind == MAT_IMAG_QUAD:
            sqrt_d = _coeff_generators(f)[1][0]
            out.append((Matrix.block_diag(*[sqrt_d] * (f.n * f.multiplicity)), jf, f.d, f.n))
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
    base = catalog_datum([("unitary", n, a, b)])
    assert validate(base).valid
    assert classify(base).factorization == GroupFactorization((), ((a, b),), ())
    for p in (Matrix.identity(base.dim_v), random_unimodular(rng, base.dim_v)):
        moved = base.conjugate(p)
        ((c, j, d, k),) = _unitary_blocks(moved)  # the oracle runs on the one unitary block
        assert _unitary_signature(c, j, d, k) == oracle_unitary_signature(c, j, d, k) == (a, b)
        assert classify(moved).factorization == GroupFactorization((), ((a, b),), ())


@pytest.mark.parametrize(
    "blocks,expected",
    [
        (U20, (2, 0)),
        (NAMED["gu11"], (1, 1)),
        (NAMED["balanced_sqrt_minus_2"], (1, 1)),
        ([("balanced", 1, 1, -3)], (1, 1)),
        ([("balanced", 1, 2, -5)], (2, 2)),
        ([("balanced", 1, 1, -7)], (1, 1)),
    ],
    ids=["u20", "gu11", "balanced-2", "balanced-3", "balanced-5x2", "balanced-7"],
)
def test_trace_split_on_fixtures_and_base_changes(blocks, expected):
    rng = random.Random(29)
    base = catalog_datum(blocks)
    assert validate(base).valid
    for p in [Matrix.identity(base.dim_v)] + [random_unimodular(rng, base.dim_v) for _ in range(3)]:
        moved = base.conjugate(p)
        assert validate(moved).valid
        ((c, j, d, n),) = _unitary_blocks(moved)
        assert _unitary_signature(c, j, d, n) == oracle_unitary_signature(c, j, d, n) == expected
        assert (c @ j).trace() == (0 if d != -1 else 2 * n * (expected[1] - expected[0]))


def test_isotypic_blocks_move_j_only_for_a_factor_that_reads_it():
    # A lone factor's block is all of V: a unitary factor gets the catalog
    # j itself, by identity on canonical data, and any other factor None.
    # With two factors each block is the slice of the catalog j.
    rng = random.Random("blocks")
    for blocks in [*NAMED.values(), U20, QUATERNION_M2, MIXED, MIXED[::-1], NAMED["quaternion"] + NAMED["gu11"]]:
        base = catalog_datum(blocks)
        factors, rows, lo, want = base.algebra.factors, base.j.tolist(), 0, []
        for f in factors:
            hi = lo + f.isotypic_dim
            reads = f.kind == MAT_IMAG_QUAD or len(factors) > 1
            want.append((f, Matrix([r[lo:hi] for r in rows[lo:hi]]) if reads else None))
            lo = hi
        for p in (Matrix.identity(base.dim_v), random_rational(rng, base.dim_v)):
            assert list(_isotypic_blocks(base.conjugate(p))) == want
        if len(factors) == 1:
            ((f, jf),) = _isotypic_blocks(base)
            assert jf is (base.j if f.kind == MAT_IMAG_QUAD else None)


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


# -- classification by slicing against the unit-action oracle --------------------


def random_rational(rng, n: int) -> Matrix:
    """Invertible matrix with small rational entries."""
    while True:
        p = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if p.det() != 0:
            return p


ORACLE_DATA = ALL_DATA | {
    "mixed": lambda: catalog_datum(MIXED),
    "mat_q-n1": lambda: catalog_datum([("sp", 1, 2)]),
    "mat_q-n2": lambda: catalog_datum([("sp", 2, 1)]),
    "imag_quad-n1": lambda: catalog_datum([("unitary", 1, 2, 1)]),
    "imag_quad-n2": lambda: catalog_datum([("unitary", 2, 1, 1)]),
    "imag_quad-d-5": lambda: catalog_datum([("balanced", 1, 1, -5)]),
    "def_quat-n1": ALL_DATA["quaternion_datum"],
    "def_quat-n2": lambda: catalog_datum(QUATERNION_M2),
}
BASE_CHANGES = [(), ("u",), ("r",), ("u", "r"), ("r", "u"), ("r", "r")]


@pytest.mark.parametrize("name", ORACLE_DATA)
def test_factorize_details_matches_column_space_oracle(name):
    rng = random.Random(name)
    base = ORACLE_DATA[name]()
    assert validate(base).valid
    expected = oracle_factorize_details(base)
    for changes in BASE_CHANGES:
        datum = base
        for kind in changes:
            draw = random_unimodular if kind == "u" else random_rational
            datum = datum.conjugate(draw(rng, datum.dim_v))
        assert validate(datum).valid
        assert factorize_details(datum) == oracle_factorize_details(datum) == expected, changes


@pytest.mark.parametrize("name", ["gu11_datum", "mixed", "def_quat-n2"])
def test_composed_base_changes_match_one_base_change(name):
    rng = random.Random(name)
    base = ORACLE_DATA[name]()
    p, q = random_rational(rng, base.dim_v), random_unimodular(rng, base.dim_v)
    twice, once = base.conjugate(p).conjugate(q), base.conjugate(p @ q)
    assert twice.algebra.generators == once.algebra.generators
    assert twice.algebra.basis == once.algebra.basis == p @ q
    assert twice == once
    assert factorize_details(twice) == factorize_details(once) == factorize_details(base)


def test_raw_presentation_keeps_no_basis():
    d = catalog_datum(NAMED["modular_curve"])
    raw = AlgebraPresentation.raw(2, d.algebra.generators)
    assert raw.conjugate(Matrix([[1, 1], [0, 1]])).basis is None


BLOCK_ERROR = "j does not preserve an isotypic block"


def test_j_of_wrong_shape_is_a_dimension_mismatch():
    gu = catalog_datum(NAMED["gu11"])
    for j in (J2, Matrix([[0] * 5 for _ in range(4)])):
        with pytest.raises(DimensionMismatchError, match=BLOCK_ERROR):
            classify(PelDatum(gu.algebra, gu.pairing, j))
        with pytest.raises(DimensionMismatchError, match=BLOCK_ERROR):
            oracle_factorize_details(PelDatum(gu.algebra, gu.pairing, j))


@pytest.mark.parametrize("entry", [(0, 2), (2, 0), (5, 1), (1, 5)])
def test_j_linking_two_isotypic_blocks_is_a_dimension_mismatch(entry):
    base = catalog_datum(MIXED)
    rows = base.j.tolist()
    rows[entry[0]][entry[1]] = 1
    linked = PelDatum(base.algebra, base.pairing, Matrix(rows))
    rng = random.Random(entry[0] * 10 + entry[1])
    for datum in (linked, linked.conjugate(random_rational(rng, linked.dim_v))):
        with pytest.raises(DimensionMismatchError, match=BLOCK_ERROR):
            classify(datum)
        with pytest.raises(DimensionMismatchError, match=BLOCK_ERROR):
            oracle_factorize_details(datum)


# -- validate's structured fast path against the full axiom sequence ---------------


def leaky_star_datum() -> PelDatum:
    """Raw: E_12 on two copies of the modular-curve datum, with its adjoint
    E_21 as star.  Every axiom up to the polarization holds, but E_21 lies
    outside the algebra span{1, E_12}."""
    m1 = catalog_datum(NAMED["modular_curve"])
    e12 = Matrix([[0, 1], [0, 0]]).kron(Matrix.identity(2))
    return PelDatum(
        AlgebraPresentation.raw(4, [(e12, e12.transpose())]),
        Matrix.block_diag(m1.pairing, m1.pairing),
        Matrix.block_diag(m1.j, m1.j),
    )


def validation_data():
    """Every fixture and the mixed datum, each canonical and under a
    unimodular, a rational and both base changes; for each of these the
    datum and its raw copy on V (``v_generators``), each also with j
    negated, and the identity-star mutation of the raw copy
    (``fixtures._break_star``); then the bundled mutations and the leaky
    raw datum."""
    rng = random.Random(12)
    out = [(name, datum) for name, datum, _ in mutations()] + [("leaky_star", leaky_star_datum())]
    for fixture, build in (ALL_DATA | {"mixed_datum": lambda: catalog_datum(MIXED)}).items():
        base = build()
        p, q = random_unimodular(rng, base.dim_v), random_rational(rng, base.dim_v)
        for tag, datum in (("", base), ("/u", base.conjugate(p)), ("/r", base.conjugate(q)), ("/ur", base.conjugate(p).conjugate(q))):
            name = fixture + tag
            raw = AlgebraPresentation.raw(datum.dim_v, v_generators(datum.algebra))
            for alg_name, alg in ((name, datum.algebra), (name + "/raw", raw)):
                out.append((alg_name, PelDatum(alg, datum.pairing, datum.j)))
                out.append((alg_name + "/negated_j", PelDatum(alg, datum.pairing, -datum.j)))
            out.append((name + "/broken_star", _break_star(PelDatum(raw, datum.pairing, datum.j))))
    # Sp data over M_1(Q), which commutes with every P: j moved by a P that
    # is not symplectic for the pairing squares to -1 and commutes, but is
    # not skew; -j is skew but negative
    for g in (2, 3, 4):
        base = catalog_datum([("sp", 1, g)])
        p = random_rational(rng, base.dim_v)
        raw = AlgebraPresentation.raw(base.dim_v, base.algebra.generators)
        for alg_name, alg in ((f"sp{2 * g}", base.algebra), (f"sp{2 * g}/raw", raw)):
            out.append((alg_name + "/moved_j", PelDatum(alg, base.pairing, p.inv() @ base.j @ p)))
            out.append((alg_name + "/negated_j", PelDatum(alg, base.pairing, -base.j)))
    return out


VALIDATION_DATA = validation_data()


@pytest.mark.parametrize("name,datum", VALIDATION_DATA, ids=[name for name, _ in VALIDATION_DATA])
def test_validate_matches_full_axiom_oracle(name, datum):
    assert validate(datum) == oracle_validate(datum)


def test_validation_data_reach_every_branch():
    reports = [(d.algebra.mode, validate(d)) for _, d in VALIDATION_DATA]
    assert {(mode, r.failure_code) for mode, r in reports} == {
        ("structured", None),
        ("structured", "j_pairing_skew"),
        ("structured", "polarization_positive"),
        ("raw", None),
        ("raw", "star_adjoint"),
        ("raw", "j_pairing_skew"),
        ("raw", "polarization_positive"),
        ("raw", "involution_anti"),
    }
    # both readings of g = m j: its symmetry, then its signature
    for name, datum in VALIDATION_DATA:
        if name.startswith("sp"):
            expected = "j_pairing_skew" if name.endswith("/moved_j") else "polarization_positive"
            assert validate(datum).failure_code == expected, name


def test_structured_validate_runs_no_closure():
    # a base change of its own, so no other test has met these generators
    datum = catalog_datum(QUATERNION_M2).conjugate(random_unimodular(random.Random("no closure"), 8))
    before = _closure.cache_info()
    assert validate(datum).valid
    assert _closure.cache_info() == before
    raw = PelDatum(AlgebraPresentation.raw(8, v_generators(datum.algebra)), datum.pairing, datum.j)
    assert validate(raw).valid
    after = _closure.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)


def _count_calls(monkeypatch, *names):
    """A list per Matrix method in names, which collects each call's self."""
    calls = {}
    for name in names:
        calls[name] = seen = []

        def counted(self, *args, method=getattr(Matrix, name), seen=seen):
            seen.append(self)
            return method(self, *args)

        monkeypatch.setattr(Matrix, name, counted)
    return calls


def test_validate_forms_the_polarization_gram_matrix_once(monkeypatch):
    # a rational base change of M_2(H): the four products that move the
    # pairing and j to catalog coordinates are the only ones; every axiom
    # then reads monomial forms, and g = m j is formed once, by signature,
    # for both j checks
    datum = catalog_datum(QUATERNION_M2).conjugate(random_rational(random.Random(5), 8))
    m, j = _catalog_frame(datum.algebra, datum.pairing, datum.j)
    grams = []

    def product_form(factors, form=pelkit.linalg._product_form):
        if len(factors) == 2 and factors[0] == m and factors[1] == j:
            grams.append(factors)
        return form(factors)

    calls = _count_calls(monkeypatch, "__matmul__", "inv")
    monkeypatch.setattr(pelkit.linalg, "_product_form", product_form)
    assert len(datum.algebra.generators) > 1 and validate(datum).valid
    assert len(calls["__matmul__"]) == 4 and calls["inv"] == [] and len(grams) == 1


def _loads(blocks, count):
    """count fresh JSON loads of catalog_datum(blocks), after one validate
    of another load has found the maps of the shared generators."""
    text = json.dumps(datum_to_json(catalog_datum(blocks)))
    assert validate(datum_from_json(json.loads(text))).valid
    return [datum_from_json(json.loads(text)) for _ in range(count)]


def test_validate_finds_each_monomial_map_at_most_once(monkeypatch):
    # canonical Sp_64 from JSON, each load validated twice: the
    # antisymmetry check scans the pairing and j_square scans j, once each;
    # det, every later check and the second validate read the kept maps
    scanned = []

    def counted(rows, monomial=pelkit.linalg._monomial):
        scanned.append(rows)
        return monomial(rows)

    loads = _loads([("sp", 1, 32)], 3)  # kept alive, so ids stay distinct
    monkeypatch.setattr(pelkit.linalg, "_monomial", counted)
    for datum in loads + loads:
        assert datum.dim_v == 64 and validate(datum).valid
    assert sorted(map(id, scanned)) == sorted(id(m.numerators) for d in loads for m in (d.pairing, d.j))


def test_validate_builds_each_monomial_form_once(monkeypatch):
    # canonical Sp_64 from JSON, each load validated twice, once the shared
    # generators keep their forms: each load builds the forms of its pairing
    # and j, and the pairing's transposed form for the antisymmetry check,
    # once each; every later read, and every read of a generator, reads a
    # kept form
    built = []

    def counted(m, transposed=False, form_of=pelkit.linalg._form_of):
        before = m._form
        form = form_of(m, transposed)
        after = m._form
        if before is False:
            built.append((id(m), False))
        if after and len(after) == 3 and (before is False or len(before) == 2):
            built.append((id(m), True))
        return form

    loads = _loads([("sp", 1, 32)], 3)  # kept alive, so ids stay distinct
    monkeypatch.setattr(pelkit.linalg, "_form_of", counted)
    for datum in loads + loads:
        assert validate(datum).valid
    expected = [(id(m), False) for d in loads for m in (d.pairing, d.j)] + [(id(d.pairing), True) for d in loads]
    assert len(built) == 9 and sorted(built) == sorted(expected)


@pytest.mark.parametrize("blocks", [[("sp", 1, 32)], [("sp", 2, 8)]], ids=["sp64", "m2q16"])
def test_a_warm_validate_forms_no_dense_product(monkeypatch, blocks):
    # canonical Sp_64 and M_2(Q)^16 from JSON, once the shared generators
    # know their maps: every equation and the Gram signature read monomial
    # forms, so no dense product, transpose or comparison is built
    (datum,) = _loads(blocks, 1)
    calls = _count_calls(monkeypatch, "__matmul__", "transpose", "__eq__", "is_symmetric")
    assert validate(datum).valid
    assert all(seen == [] for seen in calls.values())


def test_classify_reads_the_kept_basis_inverse(monkeypatch):
    # b j b^-1 is the only pair of products, made only where a factor reads
    # j: a unitary factor's signature (which reads monomial forms of the
    # centre action and j on its block) or the block check of two factors
    cases = (
        (NAMED["gu11"], 4, GroupFactorization((), ((1, 1),), ()), 2),
        (QUATERNION_M2, 8, GroupFactorization((), (), (1,)), 0),
        ([("sp", 2, 2)], 8, GroupFactorization((2,), (), ()), 0),
        ([("sp", 1, 1), ("quaternion", 1, 1, -1, -1)], 6, GroupFactorization((1,), (), (1,)), 2),
    )
    calls = _count_calls(monkeypatch, "__matmul__", "inv")
    for blocks, dim, factorization, products in cases:
        datum = catalog_datum(blocks).conjugate(random_rational(random.Random(4), dim))
        for seen in calls.values():
            seen.clear()
        assert classify(datum).factorization == factorization
        assert len(calls["__matmul__"]) == products and calls["inv"] == []


@pytest.mark.parametrize("name", ["gu11_datum", "quaternion_m2_datum"])
def test_conjugating_a_structured_presentation_moves_no_generator(monkeypatch, name):
    # one product composes the basis, one inverse gives basis_inv, whatever
    # the number of generators
    rng = random.Random(name)
    alg = catalog_datum(NAMED["gu11"] if name == "gu11_datum" else QUATERNION_M2).algebra
    moved = alg.conjugate(random_unimodular(rng, alg.dim_v))
    p = random_rational(rng, alg.dim_v)
    calls = _count_calls(monkeypatch, "__matmul__", "inv")
    again = moved.conjugate(p)
    assert len(calls["__matmul__"]) == 1 and len(calls["inv"]) == 1
    assert again.generators == alg.generators and again.basis == moved.basis @ p


def conjugate_oracle(datum: PelDatum, p: Matrix) -> PelDatum:
    """The base change as it was written with two inversions: one in the
    algebra (of the new basis, or of p on raw data) and one for j."""
    alg = datum.algebra
    if alg.factors:
        algebra = AlgebraPresentation(alg.dim_v, None, alg.factors, p if alg.basis is None else alg.basis @ p)
    else:
        q = p.inv()
        algebra = AlgebraPresentation(alg.dim_v, tuple((q @ a @ p, q @ s @ p) for a, s in alg.generators))
    return PelDatum(algebra, p.transpose() @ datum.pairing @ p, p.inv() @ datum.j @ p)


@pytest.mark.parametrize("kind", ["structured", "based", "raw"])
def test_conjugating_a_datum_inverts_once(monkeypatch, kind):
    rng = random.Random(kind)
    base = catalog_datum(QUATERNION_M2)
    if kind == "based":
        base = base.conjugate(random_unimodular(rng, 8))
    elif kind == "raw":
        base = PelDatum(AlgebraPresentation.raw(8, v_generators(base.algebra)), base.pairing, base.j)
    for p in [random_rational(rng, 8) for _ in range(3)] + [random_unimodular(rng, 8) for _ in range(3)]:
        expected = conjugate_oracle(base, p)
        calls = _count_calls(monkeypatch, "inv")
        moved = base.conjugate(p)
        monkeypatch.undo()
        assert len(calls["inv"]) == 1 and calls["inv"][0] is p
        assert moved == expected and moved.algebra.generators == expected.algebra.generators
        if kind == "raw":
            assert moved.algebra.basis is None and moved.algebra.basis_inv is None
        else:
            assert moved.algebra.basis_inv == moved.algebra.basis.inv() == expected.algebra.basis_inv


# -- the kind rule against the per-kind branches it replaced --------------------


def oracle_root_datum_for(details):
    factors = []
    for d in details:
        if d.kind == "symplectic":
            factors.append(Factor("C", d.params[0]))
        elif d.kind == "unitary":
            factors.append(Factor("A", d.params[0] + d.params[1]))
        else:
            factors.append(Factor("D", d.params[0]))
    return RootDatum(tuple(factors), central_rank=1)


def oracle_standard_char_for(details):
    return standard_char(
        oracle_root_datum_for(details),
        [d.catalog_n if d.kind in ("symplectic", "unitary") else 2 * d.catalog_n for d in details],
    )


def oracle_auto_cochar_mu2(details):
    mu2 = []
    for d in details:
        if d.kind == "unitary":
            a, b = d.params
            mu2.extend([1] * a + [-1] * b)
        else:
            mu2.extend([1] * d.params[0])
    mu2.append(1)
    return tuple(mu2)


KIND_RULE_CASES = [
    (FactorGroup("unitary", (3, 0), 1),),
    (FactorGroup("unitary", (0, 2), 2),),
    (FactorGroup("unitary", (2, 1), 1),),
    (FactorGroup("orthogonal", (2,), 1),),
    (FactorGroup("orthogonal", (3,), 2), FactorGroup("unitary", (0, 1), 1)),
    (FactorGroup("symplectic", (2,), 1), FactorGroup("unitary", (2, 1), 2), FactorGroup("orthogonal", (2,), 1)),
    (FactorGroup("orthogonal", (2,), 2), FactorGroup("unitary", (1, 0), 1), FactorGroup("symplectic", (1,), 3)),
]


def random_details(rng):
    out = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("symplectic", "unitary", "orthogonal"))
        if kind == "unitary":
            a = rng.randint(0, 3)
            params = (a, rng.randint(0 if a else 1, 3))
        else:
            params = (rng.randint(1, 4),)
        out.append(FactorGroup(kind, params, rng.randint(1, 3)))
    return tuple(out)


def _blocks_of(details):
    """The catalog blocks of a datum that classifies to details."""
    family = {"symplectic": "sp", "unitary": "unitary", "orthogonal": "quaternion"}
    return [(family[d.kind], d.catalog_n, *d.params) + ((-1, -1) if d.kind == "orthogonal" else ())
            for d in details]


def test_kind_rule_matches_the_per_kind_branches():
    # classify of the catalog datum of each case that fits under MAX_DIM_V,
    # and auto_cochar on every case
    rng = random.Random(18)
    cases = KIND_RULE_CASES + [random_details(rng) for _ in range(200)]
    kinds_seen = set()
    classified = 0
    for details in cases:
        rd = root_datum_for(details)
        assert rd == oracle_root_datum_for(details)
        std = oracle_standard_char_for(details)
        try:
            datum = catalog_datum(_blocks_of(details))
        except CatalogTooLargeError:
            pass
        else:
            cl = classify(datum)
            assert (cl.details, cl.root_datum, cl.standard_char) == (details, rd, std)
            classified += 1
        cl = Classification(_factorization(details), details, rd, std)
        assert auto_cochar(cl) == cochar_from_mu2(oracle_auto_cochar_mu2(details))
        kinds_seen.add(tuple(d.kind for d in details))
    assert classified > len(cases) // 2
    assert {k for ks in kinds_seen for k in ks} == {"symplectic", "unitary", "orthogonal"}
    assert len([ks for ks in kinds_seen if len(set(ks)) == 3]) > 5  # mixed catalog orders
