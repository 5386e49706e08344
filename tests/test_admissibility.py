import itertools
import random

import pytest

from admissibility_oracle import summand_search, symplectic_source_verdict
from pelkit.admissibility import (
    AdmissibilityVerdict,
    MorphismSpec,
    NotGenuineError,
    RepSide,
    decide,
)
from pelkit.characters import (
    Factor,
    RootDatum,
    TorusMap,
    WeightChar,
    add_chars,
    irr_char,
    restrict,
    standard_char,
    tensor,
)
from pelkit.fixtures import NAMED, catalog_datum, det_twist_morphism, identity_morphisms, side_of
from pelkit.peldata import classify

C1 = RootDatum((Factor("C", 1),), 1)
C2 = RootDatum((Factor("C", 2),), 1)
STD1 = WeightChar({(1, 1): 1, (-1, 1): 1})
STD2 = WeightChar({(1, 0, 1): 1, (-1, 0, 1): 1, (0, 1, 1): 1, (0, -1, 1): 1})


def compose(outer, inner):
    """The torus map of (outer after inner) on groups: inner pulls back what
    outer pulled back, so its matrix is inner's times outer's."""
    cols = tuple(zip(*outer.weight_pullback))
    return TorusMap(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in inner.weight_pullback))


def test_torus_map_composition():
    f = TorusMap(((1, 1), (0, 1)))  # source rank 2, target rank 2
    g = TorusMap(((2, 0), (1, 1)))
    composed = compose(g, f)
    w = (3, 5)
    assert composed.pull(w) == f.pull(g.pull(w))


def det_twist_char():
    """The two-dimensional determinant-twist character of the unitary group
    (weights of det(V+)/det(V-) and its inverse)."""
    return WeightChar({(2, 2, 0): 1, (-2, -2, 0): 1})


def test_identity_same_datum_witness_one():
    spec = MorphismSpec(RepSide(C2, STD2), RepSide(C2, STD2), TorusMap.identity(3))
    verdict = decide(spec)
    assert verdict == AdmissibilityVerdict(True, 1, ())


def test_identity_between_morita_twins():
    verdicts = {name: decide(spec) for name, spec in identity_morphisms()}
    assert verdicts["q2_to_m2"].admissible and verdicts["q2_to_m2"].witness_n == 2
    assert verdicts["m2_to_q2"].admissible and verdicts["m2_to_q2"].witness_n == 1


def test_det_twist_morphism_not_admissible():
    spec = det_twist_morphism()
    # derived oracle: the pullback of the big standard character is the
    # unitary standard character twisted by the determinant character
    pulled = restrict(spec.target.standard_char, spec.torus_map)
    assert pulled == tensor(spec.source.standard_char, det_twist_char())
    verdict = decide(spec)
    assert not verdict.admissible
    assert (3, 2, 1) in verdict.missing_constituents
    assert verdict.witness_n is None


def test_doubling_source_does_not_change_verdict():
    for _, spec in identity_morphisms():
        doubled = MorphismSpec(
            RepSide(spec.source.root_datum, spec.source.standard_char.scale(2)),
            spec.target,
            spec.torus_map,
        )
        assert decide(doubled).admissible == decide(spec).admissible
    spec = det_twist_morphism()
    doubled = MorphismSpec(
        RepSide(spec.source.root_datum, spec.source.standard_char.scale(2)),
        spec.target,
        spec.torus_map,
    )
    assert not decide(doubled).admissible


def test_not_genuine_rejected():
    virtual = WeightChar({(1, 1): 1, (-1, 1): -1})
    with pytest.raises(NotGenuineError):
        decide(MorphismSpec(RepSide(C1, virtual), RepSide(C1, STD1), TorusMap.identity(2)))


def signed_permutation_maps(n):
    """Weight pullbacks of the Weyl self-maps of a rank-n symplectic block."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = []
            for i in range(n):
                row = [0] * (n + 1)
                row[perm[i]] = signs[i]
                rows.append(tuple(row))
            rows.append(tuple([0] * n + [1]))
            out.append(TorusMap(tuple(rows)))
    return out


def assert_symplectic_source_lemma(spec):
    verdict = symplectic_source_verdict(spec)
    assert verdict is not None, "the lemma's type condition fails on this morphism"
    assert verdict.admissible and verdict.witness_n >= 1, verdict


def test_weyl_twist_self_maps_admissible():
    for tm in signed_permutation_maps(2):
        assert_symplectic_source_lemma(MorphismSpec(RepSide(C2, STD2), RepSide(C2, STD2), tm))


def test_symplectic_source_checker_on_fixtures():
    for _, spec in identity_morphisms():
        assert_symplectic_source_lemma(spec)


def test_refutation_error_unreachable_on_valid_inputs():
    # the lemma holds for a scaled target, with three copies of the source
    big = MorphismSpec(
        RepSide(C1, STD1), RepSide(C1, STD1.scale(3)), TorusMap.identity(2)
    )
    assert_symplectic_source_lemma(big)
    assert decide(big).witness_n == 3


def random_symplectic_source_morphism(rng):
    """A morphism from a product of C1-C3 blocks into a product of C blocks.

    Each target block restricts to one or two copies of source blocks, and
    sometimes to a trivial part beside them; its coordinates are then
    permuted with random signs (a Weyl twist).  So the pullback of the
    target's standard character is Weyl-invariant, and it has the abelian
    Hodge type exactly when no trivial part was drawn.  Returns the
    morphism and whether a trivial part was drawn."""
    src = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    starts = [sum(src[:k]) for k in range(len(src))]
    columns, tgt, trivial = [], [], False
    for _ in range(rng.randint(1, 2)):
        coords = []
        for k in rng.choices(range(len(src)), k=rng.randint(1, 2)):
            coords += range(starts[k], starts[k] + src[k])
        if rng.random() < 0.3:
            coords += [None] * rng.randint(1, 2)
            trivial = True
        rng.shuffle(coords)
        tgt.append(len(coords))
        columns += [(i, rng.choice((1, -1))) for i in coords]
    rows = [[0] * (len(columns) + 1) for _ in range(sum(src) + 1)]
    for j, (i, sign) in enumerate(columns):
        if i is not None:
            rows[i][j] = sign
    rows[-1][-1] = 1  # the central coordinates match
    source = RootDatum(tuple(Factor("C", a) for a in src), 1)
    target = RootDatum(tuple(Factor("C", b) for b in tgt), 1)
    spec = MorphismSpec(
        RepSide(source, standard_char(source, [rng.randint(1, 2) for _ in src])),
        RepSide(target, standard_char(target, [rng.randint(1, 3) for _ in tgt])),
        TorusMap(tuple(map(tuple, rows))),
    )
    return spec, trivial


def test_property_symplectic_source_lemma():
    rng = random.Random(18)
    seen = {True: 0, False: 0}
    for _ in range(200):
        spec, trivial = random_symplectic_source_morphism(rng)
        verdict = symplectic_source_verdict(spec)
        assert (verdict is None) == trivial
        if trivial:
            # a trivial part is not of the abelian type, and it is no summand
            # of copies of the source standard representation
            assert not decide(spec).admissible
        else:
            assert verdict.admissible and verdict.witness_n >= 1
        seen[trivial] += 1
    assert seen[True] > 20 and seen[False] > 20


def random_genuine_char(rng, rd, pool, max_dim):
    while True:
        char = WeightChar({})
        parts = {}
        for _ in range(rng.randint(1, 3)):
            lam = rng.choice(pool)
            parts[lam] = parts.get(lam, 0) + 1
        char = add_chars(*(irr_char(rd, lam).scale(m) for lam, m in parts.items()))
        if char.dim() <= max_dim:
            return char


POOL = [
    (0, 0, 0),
    (0, 0, 1),
    (0, 0, 2),
    (1, 0, 1),
    (1, 0, 2),
    (1, 1, 2),
    (1, 1, 1),
]


def test_containment_matches_summand_search():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for _ in range(120):
        w = random_genuine_char(rng, C2, POOL, 12)
        v = random_genuine_char(rng, C2, POOL, 12)
        spec = MorphismSpec(RepSide(C2, v), RepSide(C2, w), TorusMap.identity(3))
        verdict = decide(spec)
        brute = summand_search(C2, restrict(w, spec.torus_map), v, max_n=4)
        fast = verdict.admissible and verdict.witness_n <= 4
        assert fast == (brute is not None)
        if brute is not None:
            assert brute == verdict.witness_n
        seen[verdict.admissible] += 1
    assert seen[True] > 5 and seen[False] > 5


def test_composition_closure_on_grid():
    # composable admissible morphisms on the fixture grid stay admissible;
    # a failure here is an open finding, not an accepted outcome
    c1 = classify(catalog_datum(NAMED["gu11"]))
    side_u = side_of(c1)
    ident_u = TorusMap.identity(3)
    f = MorphismSpec(side_u, side_u, ident_u)
    assert decide(f).admissible
    twists = []
    for name, spec in identity_morphisms():
        twists.append(spec)
    for a in twists:
        for b in twists:
            if a.target.root_datum == b.source.root_datum:
                composed = MorphismSpec(
                    a.source, b.target, compose(b.torus_map, a.torus_map)
                )
                if decide(a).admissible and decide(b).admissible:
                    assert decide(composed).admissible, "composition closure violated: open finding"


def test_symplectic_inclusion_across_ranks():
    # the rank-1 group embedded diagonally into the full symplectic group of
    # Q^2 + Q^2: the 4-dimensional standard character pulls back to two
    # copies of the 2-dimensional one, so the inclusion is admissible and
    # the symplectic-source guarantee applies
    big = RootDatum((Factor("C", 2),), 1)
    std4 = WeightChar({(1, 0, 1): 1, (-1, 0, 1): 1, (0, 1, 1): 1, (0, -1, 1): 1})
    incl = TorusMap(((1, 1, 0), (0, 0, 1)))
    spec = MorphismSpec(RepSide(C1, STD1), RepSide(big, std4), incl)
    pulled = restrict(std4, incl)
    assert pulled == WeightChar({(1, 1): 2, (-1, 1): 2})
    verdict = decide(spec)
    assert verdict.admissible and verdict.witness_n == 2
    assert_symplectic_source_lemma(spec)


def test_composition_of_weyl_twist_and_inclusion():
    big = RootDatum((Factor("C", 2),), 1)
    std4 = WeightChar({(1, 0, 1): 1, (-1, 0, 1): 1, (0, 1, 1): 1, (0, -1, 1): 1})
    incl = TorusMap(((1, 1, 0), (0, 0, 1)))
    f = MorphismSpec(RepSide(C1, STD1), RepSide(big, std4), incl)
    for g_map in signed_permutation_maps(2):
        g = MorphismSpec(RepSide(big, std4), RepSide(big, std4), g_map)
        composed = MorphismSpec(f.source, g.target, compose(g_map, incl))
        assert decide(f).admissible and decide(g).admissible
        assert decide(composed).admissible, "composition closure violated: open finding"
        for spec in (f, g, composed):
            assert_symplectic_source_lemma(spec)
