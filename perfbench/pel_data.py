"""Seeded PEL data with known classifications, for the ``structure`` and
``cli`` workloads.

Every datum is built from its catalog parameters, so its factorization,
Shimura flags and auto cocharacter are known without running pelkit's own
classifier.  Mutations break exactly one axiom and carry the diagnostic
code ``validate`` must stop at.

Known defect, left as found: ``serialize.datum_to_json`` writes only the
catalog factors of a structured datum, not its generators.  A base-changed
structured datum therefore reloads with canonical generators but a
conjugated pairing and ``j``, and then fails ``star_adjoint``.  Base-changed
data are thus fed to the library in memory; only canonical data go through
JSON text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from pelkit.algebras import (
    MAT_DEF_QUAT,
    MAT_IMAG_QUAD,
    MAT_Q,
    AlgebraPresentation,
    CatalogFactor,
)
from pelkit.linalg import Matrix
from pelkit.peldata import CHECK_ORDER, PelDatum


@dataclass(frozen=True)
class Case:
    """A datum together with everything its pipeline must report."""

    label: str  # family, e.g. "sp", "m2q", "unitary", "balanced", "quat"
    datum: PelDatum | None  # None for data read from files the benchmark did not build
    kind: str  # "symplectic" | "unitary" | "orthogonal"
    params: tuple  # (g,), (a, b) or (r,)
    mutation: str | None = None
    failure_code: str | None = None
    base_changed: bool = False

    @property
    def dim(self) -> int:
        return self.datum.dim_v

    def expected(self) -> dict:
        """The pipeline's JSON payload fields that are known by construction."""
        if self.failure_code is not None:
            idx = CHECK_ORDER.index(self.failure_code)
            return {
                "validation": {
                    "valid": False,
                    "failure_code": self.failure_code,
                    "passed": list(CHECK_ORDER[:idx]),
                }
            }
        factors = {"symplectic": [], "unitary": [], "orthogonal": [], "similitude": True}
        if self.kind == "unitary":
            a, b = self.params
            factors["unitary"] = [[a, b]]
            mu2 = [1] * a + [-1] * b + [1]
            offending = [f"U({a},{b})"] if min(a, b) == 0 and max(a, b) >= 2 else []
        else:
            factors[self.kind] = [self.params[0]]
            mu2 = [1] * self.params[0] + [1]
            offending = []
        return {
            "factors": factors,
            "shimura": {
                "is_shimura_datum_for_g0": not offending,
                "g_connected": self.kind != "orthogonal",
                "offending_factors": offending,
            },
            "mu2": mu2,
            "hodge_type": [[-1, 0], [0, -1]],
        }


def _antidiag_pair(top: Matrix) -> Matrix:
    """[[0, top], [-top^T, 0]]: pairs the first copy with the second."""
    n = top.rows
    zero = [0] * n
    low = (-top).transpose()
    return Matrix([zero + list(top.row(i)) for i in range(n)] + [list(low.row(i)) + zero for i in range(n)])


def symplectic(n: int, g: int) -> Case:
    """M_n(Q) with multiplicity 2g on Q^(2gn): the group Sp_2g."""
    ident = Matrix.identity(n)
    pairing = Matrix.block_diag(*[_antidiag_pair(ident)] * g)
    j = Matrix.block_diag(*[_antidiag_pair(ident).scale(-1)] * g)
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_Q, n, 2 * g)])
    return Case("sp" if n == 1 else f"m{n}q", PelDatum(alg, pairing, j), "symplectic", (g,))


_GAUSS_P = Matrix([[0, 2], [-2, 0]])
_GAUSS_S = Matrix([[0, -1], [1, 0]])  # multiplication by i on the basis (1, i)


def unitary(signs) -> Case:
    """Q(i) with one copy per sign: +1 copies carry (P, i) and -1 copies
    (-P, -i), so the group is U(#plus, #minus)."""
    pairing = Matrix.block_diag(*[_GAUSS_P.scale(s) for s in signs])
    j = Matrix.block_diag(*[_GAUSS_S.scale(s) for s in signs])
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, 1, len(signs), d=-1)])
    a = sum(1 for s in signs if s > 0)
    return Case("unitary", PelDatum(alg, pairing, j), "unitary", (a, len(signs) - a))


def balanced(d: int, k: int) -> Case:
    """Q(sqrt d) with multiplicity 2k; j swaps paired copies, which forces
    the balanced signature U(k, k)."""
    trace_form = Matrix([[2, 0], [0, -2 * d]])
    pairing = Matrix.block_diag(*[_antidiag_pair(trace_form)] * k)
    j = Matrix.block_diag(*[_antidiag_pair(Matrix.identity(2)).scale(-1)] * k)
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_IMAG_QUAD, 1, 2 * k, d=d)])
    return Case("balanced", PelDatum(alg, pairing, j), "unitary", (k, k))


def _quat_mul(x, y, a, b):
    """Product in the quaternion algebra (a, b) on the basis 1, i, j, k = ij."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def _quat_blocks(a: int, b: int):
    """Pairing and complex structure on D = (a, b) acting on itself.

    u is a pure quaternion with u^2 = -1 (-j when b = -1, i when a = -1);
    j is right multiplication by u and <v, w> = Trd(conj(v) w t) with
    t = -2u, which makes the star adjoint, j skew and <v, jv> positive.
    """
    if b == -1:
        u = (0, 0, -1, 0)
    elif a == -1:
        u = (0, 1, 0, 0)
    else:
        raise ValueError("need a = -1 or b = -1 for a rational u with u^2 = -1")
    basis = [tuple(int(r == c) for c in range(4)) for r in range(4)]
    t = tuple(-2 * c for c in u)

    def conj(x):
        return (x[0], -x[1], -x[2], -x[3])

    pairing = [
        [2 * _quat_mul(_quat_mul(conj(ec), ed, a, b), t, a, b)[0] for ed in basis] for ec in basis
    ]
    right_u = [_quat_mul(ec, u, a, b) for ec in basis]  # image of each basis vector
    j = [[right_u[c][r] for c in range(4)] for r in range(4)]
    return Matrix(pairing), Matrix(j)


def quaternion(n: int, m: int, a: int, b: int) -> Case:
    """M_n(D) with multiplicity m, D = (a, b) definite: the group O*_2m."""
    p, j = _quat_blocks(a, b)
    copies = n * m
    alg = AlgebraPresentation.from_catalog([CatalogFactor(MAT_DEF_QUAT, n, m, a=a, b=b)])
    datum = PelDatum(alg, Matrix.block_diag(*[p] * copies), Matrix.block_diag(*[j] * copies))
    return Case("quat" if n == 1 else f"m{n}d", datum, "orthogonal", (m,))


# -- mutations ----------------------------------------------------------------


def _raw_identity_star(datum: PelDatum) -> AlgebraPresentation:
    return AlgebraPresentation.raw(datum.dim_v, tuple((a, a) for a, _ in datum.algebra.generators))


def mutations_for(case: Case):
    """Names of the mutations that break exactly one axiom of ``case``."""
    names = ["negate_pairing", "negate_j", "double_j", "perturb_pairing", "zero_pairing"]
    if case.label != "sp":  # a generator that is not self-adjoint exists
        names.append("identity_star")
    return names


def mutate(case: Case, name: str) -> Case:
    """Break one axiom; the expected code is the first check that fails."""
    d = case.datum
    n = d.dim_v
    if name == "negate_pairing":
        out, code = PelDatum(d.algebra, -d.pairing, d.j), "polarization_positive"
    elif name == "negate_j":
        out, code = PelDatum(d.algebra, d.pairing, -d.j), "polarization_positive"
    elif name == "double_j":
        out, code = PelDatum(d.algebra, d.pairing, d.j.scale(2)), "j_square"
    elif name == "perturb_pairing":
        bump = Matrix([[int(i == j == 0) for j in range(n)] for i in range(n)])
        out, code = PelDatum(d.algebra, d.pairing + bump, d.j), "pairing_antisymmetric"
    elif name == "zero_pairing":
        out, code = PelDatum(d.algebra, Matrix.zero(n, n), d.j), "pairing_nondegenerate"
    elif name == "identity_star":
        out, code = PelDatum(_raw_identity_star(d), d.pairing, d.j), "star_adjoint"
    else:
        raise ValueError(f"unknown mutation {name!r}")
    return Case(case.label, out, case.kind, case.params, name, code, case.base_changed)


# -- base change --------------------------------------------------------------


def unimodular(rng, n: int) -> Matrix:
    """Integer matrix of determinant +-1 for a base change of Q^n.

    A fixed matrix per n (the identity after n row operations
    row_i += c * row_j, c = +-1, drawn from a generator seeded with n),
    followed by seeded sign flips of the coordinates.  The seed so changes
    the signs of the entries but not their places or sizes, which is what
    the cost of exact arithmetic follows: different seeds give different
    data of the same difficulty.  A seeded permutation of the coordinates
    changes the pivots that elimination meets, and with it the cost of a
    base-changed datum, by up to a half between seeds.
    """
    fixed = Random(n)
    core = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = fixed.sample(range(n), 2)
        c = fixed.choice((-1, 1))
        core[i] = [x + c * y for x, y in zip(core[i], core[j])]
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return Matrix([[x * s for x, s in zip(row, signs)] for row in core])


def base_change(case: Case, rng) -> Case:
    p = unimodular(rng, case.dim)
    return Case(
        case.label, case.datum.conjugate(p), case.kind, case.params,
        case.mutation, case.failure_code, True,
    )
