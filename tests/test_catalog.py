"""Every small catalog datum, built by ``fixtures.catalog_datum``.

The table enumerates every multiset of blocks with ``dim_v`` at most 8, over
the centres Q(sqrt d) for d in {-1, -2, -3} and the quaternion algebras
(-1, -1) and (-1, -3).  Each datum is checked against what its blocks
present, written down here from their parameters and not read off pelkit's
classifier (Kottwitz, JAMS 5, 1992, section 5): Sp_2g has doubled mu +1 on
g coordinates, U(a, b) +1 on a and -1 on b, O*_2m +1 on m, and the
similitude +1.  Enumerating all small inputs rather than sampling large
ones follows the small-scope hypothesis (Jackson, Software Abstractions,
2006).

Morita amplification, M_n(D) to M_2n(D), is the change of PEL datum that
must not change the Shimura datum: the same group and cocharacter, and a
standard character counted twice.
"""

import json
import random

import pytest
from classify_oracle import dense_unitary_signature, oracle_factorize_details
from test_peldata import _unitary_blocks, random_unimodular
from validate_oracle import oracle_validate, v_generators

from pelkit import linalg, serialize
from pelkit.admissibility import MorphismSpec, decide
from pelkit.algebras import AlgebraPresentation, CatalogTooLargeError
from pelkit.characters import TorusMap
from pelkit.errors import InputError
from pelkit.fixtures import catalog_datum, mutations, side_of
from pelkit.hodge import auto_cochar, hodge_type
from pelkit.linalg import Matrix
from pelkit.peldata import GroupFactorization, PelDatum, _unitary_signature, classify, shimura_report, validate

D_VALUES = (-1, -2, -3)
QUATERNION_ALGEBRAS = ((-1, -1), (-1, -3))
MAX_DIM = 8
RAW_MAX_DIM = 4


def block_dim(block) -> int:
    """n times the dimension of D times the number of copies."""
    family, n, x, *y = block
    return 2 * n * (x + y[0]) if family == "unitary" else n * x * {"sp": 2, "balanced": 4, "quaternion": 4}[family]


def _singles():
    ns, zs = range(1, MAX_DIM + 1), range(MAX_DIM + 1)
    out = [("sp", n, g) for n in ns for g in ns]
    out += [("unitary", n, a, b) for n in ns for a in zs for b in zs if a + b]
    out += [("balanced", n, k, d) for n in ns for k in ns for d in D_VALUES]
    out += [("quaternion", n, m, a, b) for n in ns for m in ns for a, b in QUATERNION_ALGEBRAS]
    return [b for b in out if block_dim(b) <= MAX_DIM]


SINGLES = _singles()


def shapes(max_dim: int, start: int = 0):
    """Every multiset of SINGLES of total dimension at most max_dim, each
    listed once, in the order of SINGLES."""
    for i in range(start, len(SINGLES)):
        dim = block_dim(SINGLES[i])
        if dim <= max_dim:
            yield (SINGLES[i],)
            for rest in shapes(max_dim - dim, i):
                yield (SINGLES[i],) + rest


TABLE = list(shapes(MAX_DIM))


def label(blocks) -> str:
    return "+".join("-".join(map(str, b)) for b in blocks)


def groups(blocks):
    """The real group of each block, as (kind, params)."""
    out = []
    for family, _, x, *y in blocks:
        if family == "sp":
            out.append(("symplectic", (x,)))
        elif family == "quaternion":
            out.append(("orthogonal", (x,)))
        else:
            out.append(("unitary", (x, y[0] if family == "unitary" else x)))
    return out


def expected(blocks):
    """(factorization, offending factors, doubled mu) the blocks present."""
    gs = groups(blocks)
    kinds = ("symplectic", "unitary", "orthogonal")
    fact = GroupFactorization(*(tuple(p if k == "unitary" else p[0] for k, p in gs if k == kind) for kind in kinds))
    # a definite unitary group of rank 2 or more obstructs the datum
    offending = tuple(f"U({a},{b})" for a, b in fact.unitary if min(a, b) == 0 and max(a, b) >= 2)
    mu2 = [s for k, p in gs for s in ([1] * p[0] + [-1] * p[1] if k == "unitary" else [1] * p[0])]
    return fact, offending, tuple(mu2 + [1])


def reload(datum: PelDatum) -> PelDatum:
    return serialize.datum_from_json(json.loads(serialize.dumps(serialize.datum_to_json(datum))))


def check_pipeline(datum: PelDatum, blocks):
    fact, offending, mu2 = expected(blocks)
    assert validate(datum).valid
    cl = classify(datum)
    assert cl.factorization == fact
    report = shimura_report(cl.factorization)
    assert report.offending_factors == offending
    assert report.is_shimura_datum_for_g0 == (not offending)
    assert report.g_connected == (not fact.orthogonal)
    cochar = auto_cochar(cl)
    assert cochar.mu2 == mu2
    assert hodge_type(cl.standard_char, cochar).pairs == {(-1, 0), (0, -1)}
    oracle = oracle_factorize_details(datum)
    assert oracle == cl.details
    assert [(d.kind, d.params) for d in oracle] == groups(blocks)


def raw_copy(datum: PelDatum) -> PelDatum:
    return PelDatum(AlgebraPresentation.raw(datum.dim_v, v_generators(datum.algebra)), datum.pairing, datum.j)


def test_table_covers_every_family_and_product():
    assert len(TABLE) == len(set(TABLE)) == 287
    assert {b[0] for b in SINGLES} == {"sp", "unitary", "balanced", "quaternion"}
    assert max(map(len, TABLE)) == 4
    assert all(sum(map(block_dim, blocks)) == catalog_datum(blocks).dim_v <= MAX_DIM for blocks in TABLE)


@pytest.mark.parametrize("blocks", TABLE, ids=label)
def test_catalog_datum_classifies_as_its_blocks(blocks):
    datum = catalog_datum(blocks)
    check_pipeline(datum, blocks)
    moved = reload(datum.conjugate(random_unimodular(random.Random(label(blocks)), datum.dim_v)))
    check_pipeline(moved, blocks)
    if datum.dim_v <= RAW_MAX_DIM:
        # the closure and the involution checks run on every small shape
        for raw in (raw_copy(datum), reload(raw_copy(moved))):
            assert raw.algebra.mode == "raw"
            assert validate(raw).valid and oracle_validate(raw) == validate(raw)


MORITA = [b for b in SINGLES if b[1] <= 2]


@pytest.mark.parametrize("block", MORITA, ids=lambda b: label([b]))
def test_morita_amplification_keeps_the_shimura_datum(block):
    family, n, *p = block
    twin = catalog_datum([(family, 2 * n, *p)])
    assert validate(twin).valid
    small, big = classify(catalog_datum([block])), classify(twin)
    assert big.factorization == small.factorization
    assert big.root_datum == small.root_datum
    assert auto_cochar(big) == auto_cochar(small)
    assert big.standard_char == small.standard_char.scale(2)
    ident = TorusMap.identity(len(auto_cochar(small).mu2))
    up = decide(MorphismSpec(side_of(small), side_of(big), ident))
    down = decide(MorphismSpec(side_of(big), side_of(small), ident))
    assert up.admissible and up.witness_n == 2
    assert down.admissible and down.witness_n == 1


@pytest.mark.parametrize(
    "block,reason",
    [
        (("so", 1, 1), "unknown family 'so'"),
        (("sp", 1), "not enough values"),
        (("sp", 0, 1), "must be >= 1"),
        (("sp", 1, 0), "must be >= 1"),
        (("unitary", 1, 0, 0), "must be >= 1"),
        (("unitary", 1, -1, 2), "a and b must be >= 0"),
        (("balanced", 1, 0, -2), "must be >= 1"),
        (("balanced", 1, 1, -4), "squarefree"),
        (("quaternion", 1, 0, -1, -1), "must be >= 1"),
        (("quaternion", 1, 1, -2, -3), "a = -1 or b = -1"),
    ],
)
def test_malformed_block_is_refused_by_name(block, reason):
    with pytest.raises(ValueError) as info:
        catalog_datum([("sp", 1, 1), block])
    assert str(info.value).startswith(f"block {block!r}: ")
    assert reason in str(info.value)


def test_product_past_the_bound_is_too_large():
    with pytest.raises(CatalogTooLargeError):
        catalog_datum([("sp", 1, 32), ("unitary", 1, 1, 0)])  # 64 + 2 dimensions
    # refused before any pairing is built
    with pytest.raises(CatalogTooLargeError):
        catalog_datum([("sp", 10**6, 1)])


# -- the monomial-form route against the dense route and the oracles --------------
#
# validate and classify read monomial forms (``linalg.products_equal``) when
# every factor of an equation has one; refusing every form sends each check
# through @ and ==, and the oracles compute on V.  All three must agree on
# the verdict, failure code, message and factorization.


def _outcome(fn, *args):
    """fn(*args), or the type and message of the InputError it raises:
    classify refuses many invalid data."""
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc), str(exc)


def _dense_route(fn, *args):
    """fn(*args) with every monomial form refused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_product_form", lambda factors: None)
        return _outcome(fn, *args)


def _on_forms(fn, *args):
    """(fn(*args), whether no check fell back to the dense route)."""
    dense = []

    def counted(factors, product=linalg._dense):
        dense.append(factors)
        return product(factors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_dense", counted)
        return _outcome(fn, *args), not dense


def _agree(datum):
    """validate's report, after checking it and classify against the dense
    route and the oracles."""
    report = validate(datum)
    assert report == _dense_route(validate, datum) == oracle_validate(datum)
    if datum.algebra.mode == "structured":
        classified = _outcome(classify, datum)
        assert classified == _dense_route(classify, datum)
        if report.valid:
            assert classified.details == oracle_factorize_details(datum)
    return report


@pytest.mark.parametrize("blocks", TABLE, ids=label)
def test_forms_agree_with_the_dense_route_and_the_oracles(blocks):
    # each datum, a base change of it, and their JSON twins
    datum = catalog_datum(blocks)
    moved = datum.conjugate(random_unimodular(random.Random("forms " + label(blocks)), datum.dim_v))
    for twin in (datum, moved, reload(datum), reload(moved)):
        assert _agree(twin).valid


@pytest.mark.parametrize("name,datum,code", mutations(), ids=[name for name, _, _ in mutations()])
def test_bundled_mutations_agree_with_the_dense_route(name, datum, code):
    assert _agree(datum).failure_code == code


def _one_entry(rng, x: Matrix):
    """Monomial copies of x with one nonzero entry negated, doubled, or
    moved to another column of its row."""
    rows = x.tolist()
    i = rng.choice([i for i, r in enumerate(rows) if any(r)])
    c = next(k for k, v in enumerate(rows[i]) if v)
    out = []
    for k, v in ((c, -rows[i][c]), (c, 2 * rows[i][c]), (rng.choice(range(len(rows))), rows[i][c])):
        if k != c or v != rows[i][c]:
            mutant = [list(r) for r in rows]
            mutant[i][c], mutant[i][k] = 0, v
            out.append(Matrix(mutant))
    return out


def _signed_permutation(rng, n):
    cols = rng.sample(range(n), n)
    return Matrix([[rng.choice((-1, 1)) * (c == cols[r]) for c in range(n)] for r in range(n)])


def _monomial_mutants(rng, datum: PelDatum):
    """Mutants of a canonical datum that stay monomial: one entry of the
    pairing, of j or of each star image changed (``_one_entry``; a changed
    star makes the presentation raw), and j moved by a signed permutation,
    which keeps j^2 = -1 but need not commute with the algebra or keep the
    pairing symmetric and positive."""
    alg, m, j = datum.algebra, datum.pairing, datum.j
    out = [PelDatum(alg, x, j) for x in _one_entry(rng, m)] + [PelDatum(alg, m, x) for x in _one_entry(rng, j)]
    for k, (act, star) in enumerate(alg.generators):
        gens = list(alg.generators)
        gens[k] = (act, rng.choice(_one_entry(rng, star)))
        out.append(PelDatum(AlgebraPresentation.raw(datum.dim_v, gens), m, j))
    for _ in range(2):
        p = _signed_permutation(rng, datum.dim_v)
        out.append(PelDatum(alg, m, p.transpose() @ j @ p))
    return out


def test_monomial_mutants_fail_each_equation_on_forms():
    # every mutant agrees with the dense route and the oracles, and each
    # equation of validate fails on some mutant that no check moved to the
    # dense route
    rng = random.Random("monomial mutants")
    reached = set()
    for blocks in TABLE:
        for mutant in _monomial_mutants(rng, catalog_datum(blocks)):
            report = _agree(mutant)
            on_forms, no_dense = _on_forms(validate, mutant)
            assert on_forms == report
            if no_dense:
                reached.add(report.failure_code)
    assert reached >= {
        "pairing_antisymmetric", "star_adjoint", "j_square", "j_commutes", "j_pairing_skew", "polarization_positive"
    }


def test_unitary_signature_fails_each_equation_on_forms():
    # one-entry mutants of the centre action and of j on each unitary
    # block, and j moved by a signed permutation: the same outcome as the
    # dense oracle, and each of the three equations fails on forms
    rng = random.Random("unitary mutants")
    reached = set()
    for blocks in TABLE:
        for c, j, d, n in _unitary_blocks(catalog_datum(blocks)):
            p = _signed_permutation(rng, j.rows)
            cases = [(x, j) for x in _one_entry(rng, c)] + [(c, x) for x in _one_entry(rng, j)]
            for cx, jx in cases + [(c, j), (c, p.transpose() @ j @ p)]:
                outcome, no_dense = _on_forms(_unitary_signature, cx, jx, d, n)
                assert outcome == _dense_route(_unitary_signature, cx, jx, d, n)
                assert outcome == _outcome(dense_unitary_signature, cx, jx, d, n)
                if no_dense and isinstance(outcome[1], str):
                    reached.add(outcome[1].split(" to ")[0])
    assert reached >= {"centre action does not square", "j does not square", "centre action and j do not commute"}
