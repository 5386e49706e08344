"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Every tolerance is exact; time limits are asserted."""

import io
import itertools
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from admissibility_oracle import summand_search
from pelkit.admissibility import MorphismSpec, RepSide, decide
from pelkit.characters import (
    Factor,
    RootDatum,
    TorusMap,
    WeightChar,
    add_chars,
    decompose,
    irr_char,
    restrict,
    tensor,
)
from pelkit.cli import main as cli_main
from pelkit.fixtures import (
    det_twist_morphism,
    gu11_datum,
    identity_morphisms,
    modular_curve_datum,
    modular_curve_m2_datum,
    mutations,
)
from pelkit.hodge import HodgeCochar, enumerate_av_irreducibles
from pelkit.isogeny import run_law_suite
from pelkit.peldata import GroupFactorization, factorize, validate


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def report(criterion, detail, timer, limit):
    status = "PASS"
    print(f"{status} criterion {criterion}: {detail} [{timer.elapsed:.2f}s < {limit}s]")
    assert timer.elapsed < limit


def test_criterion_1_classification_fixtures():
    elapsed = []
    for build, expected in (
        (modular_curve_datum, GroupFactorization((1,), (), ())),
        (modular_curve_m2_datum, GroupFactorization((1,), (), ())),
        (gu11_datum, GroupFactorization((), ((1, 1),), ())),
    ):
        with Timer() as t:
            assert factorize(build()) == expected
        assert t.elapsed < 1.0
        elapsed.append(t.elapsed)
    print(
        "PASS criterion 1: both modular-curve data -> [Sp2], unitary datum -> [U(1,1)] "
        f"[max {max(elapsed):.2f}s < 1s each]"
    )


def test_criterion_2_validation_and_mutations():
    with Timer() as t:
        for build in (modular_curve_datum, modular_curve_m2_datum, gu11_datum):
            assert validate(build()).valid
        muts = mutations()
        assert len(muts) == 6
        for name, datum, code in muts:
            rep = validate(datum)
            assert not rep.valid and rep.failure_code == code, name
    report(2, "3 data valid, 6 single-axiom mutations fail with their codes", t, 1.0)


def test_criterion_3_admissibility_fixtures():
    with Timer() as t:
        verdicts = {name: decide(spec) for name, spec in identity_morphisms()}
        for name, v in verdicts.items():
            assert v.admissible and v.witness_n in (1, 2), name
        twist = decide(det_twist_morphism())
        assert not twist.admissible
        assert (3, 2, 1) in twist.missing_constituents
    report(3, "identity admissible both ways (witness 1/2); det-twist map refused", t, 5.0)


def gsp_cochar(g: int) -> HodgeCochar:
    mu2 = tuple([1] * g + [1])
    kappa2 = tuple([0] * g + [2])
    return HodgeCochar(mu2, tuple(k - m for k, m in zip(kappa2, mu2)), kappa2)


def test_criterion_4_symplectic_enumeration():
    with Timer() as t:
        for g in (1, 2, 3):
            rd = RootDatum((Factor("C", g),), 1)
            found = enumerate_av_irreducibles(rd, gsp_cochar(g), bound=4)
            assert found == (tuple([1] + [0] * (g - 1) + [1]),)
    report(4, "rank 1..3: only the standard weight is of abelian type", t, 30.0)


def _oracle_positive_roots(series, n):
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


def _oracle_dim(series, lam):
    n = len(lam)
    rho = tuple(range(n, 0, -1)) if series == "C" else tuple(range(n - 1, -1, -1))
    out = Fraction(1)
    shifted = tuple(l + r for l, r in zip(lam, rho))
    for a in _oracle_positive_roots(series, n):
        out *= Fraction(
            sum(x * y for x, y in zip(shifted, a)), sum(x * y for x, y in zip(rho, a))
        )
    assert out.denominator == 1
    return int(out)


def _dominants(series, n, bound):
    for vec in itertools.product(range(-bound, bound + 1), repeat=n):
        if sum(abs(x) for x in vec) > bound:
            continue
        head_ok = all(vec[i] >= vec[i + 1] for i in range(n - 2))
        if series == "A":
            if head_ok and (n < 2 or vec[-2] >= vec[-1]):
                yield vec
        elif series == "C":
            if head_ok and (n < 2 or vec[-2] >= vec[-1]) and vec[-1] >= 0:
                yield vec
        else:
            if head_ok and (n < 2 or vec[-2] >= abs(vec[-1])):
                yield vec


def test_criterion_5_character_oracle_equivalence():
    with Timer() as t:
        cases = [("C", 2), ("C", 3), ("A", 3), ("D", 3)]
        checked = 0
        for series, n in cases:
            rd = RootDatum((Factor(series, n),), 0)
            for lam in _dominants(series, n, 3):
                assert irr_char(rd, lam).dim() == _oracle_dim(series, lam)
                checked += 1
        assert checked == 39  # the full dominant set at this bound
        c2 = RootDatum((Factor("C", 2),), 1)
        std = WeightChar({(1, 0, 1): 1, (-1, 0, 1): 1, (0, 1, 1): 1, (0, -1, 1): 1})
        parts = decompose(c2, tensor(std, std))
        assert parts == (((2, 0, 2), 1), ((1, 1, 2), 1), ((0, 0, 2), 1))
        dims = [irr_char(c2, w).dim() for w, _ in parts]
        assert dims == [10, 5, 1] and sum(dims) == 16
    report(5, f"{checked} dimensions match the product formula; C2 square splits 10+5+1", t, 60.0)


POOL = [
    (0, 0, 0),
    (0, 0, 1),
    (0, 0, 2),
    (1, 0, 1),
    (1, 0, 2),
    (1, 1, 2),
    (1, 1, 1),
]


def _random_genuine(rng, rd, max_dim):
    while True:
        parts = {}
        for _ in range(rng.randint(1, 3)):
            lam = rng.choice(POOL)
            parts[lam] = parts.get(lam, 0) + 1
        char = add_chars(*(irr_char(rd, lam).scale(m) for lam, m in parts.items()))
        if char.dim() <= max_dim:
            return char


def test_criterion_6_containment_equals_summand_search():
    rd = RootDatum((Factor("C", 2),), 1)
    rng = random.Random(2025)
    with Timer() as t:
        agreements = 0
        outcomes = {True: 0, False: 0}
        for _ in range(220):
            pulled_src = _random_genuine(rng, rd, 12)
            source_std = _random_genuine(rng, rd, 12)
            spec = MorphismSpec(
                RepSide(rd, source_std), RepSide(rd, pulled_src), TorusMap.identity(3)
            )
            verdict = decide(spec)
            brute = summand_search(rd, restrict(pulled_src, spec.torus_map), source_std, 4)
            fast = verdict.admissible and verdict.witness_n <= 4
            assert fast == (brute is not None)
            if brute is not None:
                assert brute == verdict.witness_n
            agreements += 1
            outcomes[verdict.admissible] += 1
        assert agreements >= 200
        assert outcomes[True] >= 10 and outcomes[False] >= 10
    report(6, f"{agreements} random characters: verdicts agree with n<=4 search", t, 60.0)


def test_criterion_7_isogeny_law_suite():
    with Timer() as t:
        results = run_law_suite(trials=500, seed=0)
        assert len(results) == 6
        for law, rep in results.items():
            assert rep["trials"] == 500
            assert rep["failures"] == 0, law
    report(7, "6 laws x 500 seeded trials, zero failures", t, 30.0)


def test_criterion_8_fixture_determinism():
    with Timer() as t:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(["fixtures", "--seed", "0"])
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")
    report(8, "pel fixtures --seed 0 is byte-identical across runs", t, 30.0)
