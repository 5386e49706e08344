"""Validation of polarized algebra data and classification of the
associated real group into symplectic, unitary and quaternionic-orthogonal
factors.

A datum consists of a structured (or raw) algebra presentation acting on
V = Q^n, an alternating nondegenerate pairing on V, and the matrix j of a
compatible complex structure (the value at i of an R-algebra map from C
into the commutant).  Data whose complex structure is not a rational
matrix are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    MAT_DEF_QUAT,
    MAT_IMAG_QUAD,
    MAT_Q,
    AlgebraPresentation,
    check_anti_involution,
    check_positive,
)
from .characters import Factor, RootDatum, WeightChar, standard_char
from .linalg import (
    Matrix,
    NotCommutingError,
    NotComplexStructureError,
    NotSymmetricError,
    signature,
)

# perfbench/tracing.py times ``peldata.simult_eigensplit`` by name.  The Q(i)
# eigenspace split once bound here is gone (the unitary signature now comes
# from one rational trace, see ``_unitary_signature``); the name stays bound,
# and is never called, so the tracer loads until its entry is dropped.
simult_eigensplit = None


class DimensionMismatchError(ValueError):
    pass


class StructuredModeRequiredError(ValueError):
    pass


@dataclass(frozen=True)
class PelDatum:
    algebra: AlgebraPresentation
    pairing: Matrix
    j: Matrix

    @property
    def dim_v(self) -> int:
        return self.algebra.dim_v

    def conjugate(self, p: Matrix) -> "PelDatum":
        """Base change on V by p (new basis vectors are the columns of p)."""
        return PelDatum(
            algebra=self.algebra.conjugate(p),
            pairing=p.transpose() @ self.pairing @ p,
            j=p.inv() @ self.j @ p,
        )


# -- validation -----------------------------------------------------------------

CHECK_ORDER = (
    "shape",
    "pairing_antisymmetric",
    "pairing_nondegenerate",
    "star_adjoint",
    "j_square",
    "j_commutes",
    "j_pairing_skew",
    "polarization_positive",
    "involution_anti",
    "involution_positive",
)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failure_code: str | None
    message: str
    passed: tuple

    def to_dict(self):
        return {
            "valid": self.valid,
            "failure_code": self.failure_code,
            "message": self.message,
            "passed": list(self.passed),
        }


def validate(datum: PelDatum) -> ValidationReport:
    """Run the axioms in order and stop at the first failure.

    Failures are reported as diagnostic codes, not exceptions, so that a
    mutated or hand-written datum can be triaged from the command line.
    """
    n = datum.dim_v
    m = datum.pairing
    j = datum.j
    passed = []

    def fail(code, message):
        return ValidationReport(False, code, message, tuple(passed))

    if m.rows != n or m.cols != n or j.rows != n or j.cols != n:
        return fail("shape", "pairing and j must be dim_v x dim_v")
    passed.append("shape")

    if not m.is_antisymmetric():
        return fail("pairing_antisymmetric", "pairing is not alternating")
    passed.append("pairing_antisymmetric")

    if m.det() == 0:
        return fail("pairing_nondegenerate", "pairing is degenerate")
    passed.append("pairing_nondegenerate")

    for k, (act, star) in enumerate(datum.algebra.generators):
        if act.transpose() @ m != m @ star:
            return fail(
                "star_adjoint",
                f"generator {k} is not adjoint to its star image under the pairing",
            )
    passed.append("star_adjoint")

    if j @ j != Matrix.identity(n).scale(-1):
        return fail("j_square", "j does not square to -identity")
    passed.append("j_square")

    for k, (act, _) in enumerate(datum.algebra.generators):
        if j @ act != act @ j:
            return fail("j_commutes", f"j does not commute with generator {k}")
    passed.append("j_commutes")

    if j.transpose() @ m != -(m @ j):
        return fail("j_pairing_skew", "<ju, v> != -<u, jv>")
    passed.append("j_pairing_skew")

    try:
        sig = signature(m @ j)
    except NotSymmetricError:
        return fail("polarization_positive", "<u, jv> is not a symmetric form")
    if not sig.is_positive_definite():
        return fail(
            "polarization_positive",
            f"<u, jv> has signature ({sig.positive},{sig.negative},{sig.zero}), not positive definite",
        )
    passed.append("polarization_positive")

    inv = check_anti_involution(datum.algebra)
    if not inv.ok:
        return fail("involution_anti", inv.reason)
    passed.append("involution_anti")

    if not check_positive(datum.algebra):
        return fail("involution_positive", "trace form of the involution is not positive definite")
    passed.append("involution_positive")

    return ValidationReport(True, None, "all axioms hold", tuple(passed))


# -- classification ---------------------------------------------------------------


@dataclass(frozen=True)
class FactorGroup:
    """One real factor of the classified group.

    kind "symplectic": params = (g,) for Sp_2g; "unitary": params = (a, b);
    "orthogonal": params = (r,) for the rank-r quaternionic orthogonal
    group.  catalog_n is the matrix size of the underlying simple algebra
    factor and fixes the multiplicity of the standard character.
    """

    kind: str
    params: tuple
    catalog_n: int


@dataclass(frozen=True)
class GroupFactorization:
    symplectic: tuple  # tuple[int, ...]
    unitary: tuple  # tuple[(a, b), ...]
    orthogonal: tuple  # tuple[int, ...]
    similitude: bool = True

    def to_dict(self):
        return {
            "symplectic": list(self.symplectic),
            "unitary": [list(ab) for ab in self.unitary],
            "orthogonal": list(self.orthogonal),
            "similitude": self.similitude,
        }


def _unitary_signature(c: Matrix, j: Matrix, d: int, n: int) -> tuple:
    """Signature (a, b) of the unitary group on an isotypic block of
    M_n(Q(sqrt d)), from the centre action c and the complex structure j
    on the block.

    Over C the block splits into the joint eigenspaces of c (eigenvalues
    +-sqrt d) and j (eigenvalues +-i), of dimensions d1..d4 in the order
    ++, +-, -+, --.  Complex conjugation swaps ++ with -- and +- with -+,
    so d1 = d4 and d2 = d3, and tr(c j) = 2 sqrt|d| (d2 - d1).  For d = -1
    that gives d1 = (dim - t) / 4 and d2 = (dim + t) / 4 with t = tr(c j);
    for d < -1 the trace of the rational matrix c j is rational only when
    it is 0, which forces the balanced signature.  Then a = d1 / n and
    b = d2 / n.
    """
    dim = c.rows
    if c @ c != Matrix.identity(dim).scale(d):
        raise NotComplexStructureError(f"centre action does not square to {d}")
    if j @ j != -Matrix.identity(dim):
        raise NotComplexStructureError("j does not square to -identity on the block")
    cj = c @ j
    if cj != j @ c:
        raise NotCommutingError("centre action and j do not commute")
    t = cj.trace()
    if d != -1 and t:
        raise DimensionMismatchError("centre/j pairing trace is inconsistent")
    a, ra = divmod(dim - t, 4 * n)
    b, rb = divmod(dim + t, 4 * n)
    if ra or rb:
        raise DimensionMismatchError("joint eigenspace dimensions are not multiples of n")
    return a, b


def factorize_details(datum: PelDatum):
    """Per-factor real groups, in catalog order."""
    if datum.algebra.mode != "structured":
        raise StructuredModeRequiredError("classification requires a structured presentation")
    out = []
    total = 0
    for blk in datum.algebra.factors:
        f = blk.factor
        q = blk.unit_action.column_space_basis()
        dim_f = q.cols
        total += dim_f
        try:
            jf = q.solve(datum.j @ q)
        except ValueError:
            raise DimensionMismatchError("j does not preserve an isotypic block")
        if f.kind == MAT_Q:
            g, r = divmod(dim_f, 2 * f.n)
            if r:
                raise DimensionMismatchError(
                    f"isotypic dimension {dim_f} is not divisible by 2n = {2 * f.n}"
                )
            out.append(FactorGroup("symplectic", (g,), f.n))
        elif f.kind == MAT_IMAG_QUAD:
            cf = q.solve(blk.center_action @ q)
            out.append(FactorGroup("unitary", _unitary_signature(cf, jf, f.d, f.n), f.n))
        elif f.kind == MAT_DEF_QUAT:
            r, rem = divmod(dim_f, 4 * f.n)
            if rem:
                raise DimensionMismatchError(
                    f"isotypic dimension {dim_f} is not divisible by 4n = {4 * f.n}"
                )
            out.append(FactorGroup("orthogonal", (r,), f.n))
        else:
            raise ValueError(f"unknown catalog kind {f.kind!r}")
    if total != datum.dim_v:
        raise DimensionMismatchError(
            f"isotypic dimensions sum to {total}, expected {datum.dim_v}"
        )
    return tuple(out)


def _factorization(details) -> GroupFactorization:
    return GroupFactorization(
        symplectic=tuple(d.params[0] for d in details if d.kind == "symplectic"),
        unitary=tuple(d.params for d in details if d.kind == "unitary"),
        orthogonal=tuple(d.params[0] for d in details if d.kind == "orthogonal"),
    )


def factorize(datum: PelDatum) -> GroupFactorization:
    return _factorization(factorize_details(datum))


@dataclass(frozen=True)
class ShimuraReport:
    is_shimura_datum_for_g0: bool
    g_connected: bool
    center_condition: bool
    offending_factors: tuple
    center_reasons: tuple

    def to_dict(self):
        return {
            "is_shimura_datum_for_g0": self.is_shimura_datum_for_g0,
            "g_connected": self.g_connected,
            "center_condition": self.center_condition,
            "offending_factors": list(self.offending_factors),
            "center_reasons": list(self.center_reasons),
        }


def shimura_report(fact: GroupFactorization) -> ShimuraReport:
    """Flags for the classified group: definite unitary factors U(n,0) with
    n >= 2 obstruct the datum on the identity component; orthogonal factors
    disconnect the full group; the centre condition holds for every valid
    factorization (finite or U(1) factor centres plus the split similitude)."""
    offending = tuple(
        f"U({a},{b})" for a, b in fact.unitary if min(a, b) == 0 and max(a, b) >= 2
    )
    reasons = (
        tuple(f"Sp_{2 * g}: finite centre" for g in fact.symplectic)
        + tuple(f"U({a},{b}): U(1) centre" for a, b in fact.unitary)
        + tuple(f"O*_{2 * r}: U(1) centre" for r in fact.orthogonal)
        + ("similitude: Q-split torus",)
    )
    return ShimuraReport(
        is_shimura_datum_for_g0=not offending,
        g_connected=not fact.orthogonal,
        center_condition=True,
        offending_factors=offending,
        center_reasons=reasons,
    )


# -- bridge to the character calculus ----------------------------------------------


@dataclass(frozen=True)
class Classification:
    factorization: GroupFactorization
    details: tuple  # tuple[FactorGroup, ...]
    root_datum: RootDatum
    standard_char: WeightChar


def root_datum_for(details) -> RootDatum:
    factors = []
    for d in details:
        if d.kind == "symplectic":
            factors.append(Factor("C", d.params[0]))
        elif d.kind == "unitary":
            factors.append(Factor("A", d.params[0] + d.params[1]))
        else:
            factors.append(Factor("D", d.params[0]))
    return RootDatum(tuple(factors), central_rank=1)


def standard_char_for(details) -> WeightChar:
    """Character of V for the classified group.  Every weight sits at
    central coordinate 1 (the centre acts on V by scalars); block weights
    are +-e_i with multiplicity n for symplectic and unitary factors and
    2n for quaternionic-orthogonal ones."""
    return standard_char(
        root_datum_for(details),
        [d.catalog_n if d.kind in ("symplectic", "unitary") else 2 * d.catalog_n for d in details],
    )


def classify(datum: PelDatum) -> Classification:
    """Factorization bundled with the root datum and standard character.

    The caller is responsible for running validate() first; classification
    of an invalid datum raises or returns garbage."""
    details = factorize_details(datum)
    return Classification(
        factorization=_factorization(details),
        details=details,
        root_datum=root_datum_for(details),
        standard_char=standard_char_for(details),
    )
