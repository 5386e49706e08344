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

from . import _as_dict, _Deferred, _Value
from .algebras import (
    MAT_IMAG_QUAD,
    MAT_Q,
    AlgebraPresentation,
    _coeff_generators,
    check_anti_involution,
    check_positive,
)
from .errors import InputError
from .linalg import Matrix, NotCommutingError, NotComplexStructureError, NotSymmetricError, Transposed
from .linalg import products_equal, signature, trace

# perfbench/tracing.py times ``peldata.simult_eigensplit`` by name.  The Q(i)
# eigenspace split once bound here is gone (the unitary signature now comes
# from one rational trace, see ``_unitary_signature``); the name stays bound,
# and is never called, so the tracer loads until its entry is dropped.
simult_eigensplit = None

# imported on the first classification, so that validation alone never loads it
characters = _Deferred(globals(), "characters")


class DimensionMismatchError(InputError):
    pass


class StructuredModeRequiredError(InputError):
    pass


class PelDatum(_Value):
    __slots__ = ("algebra", "pairing", "j")  # AlgebraPresentation, Matrix, Matrix

    @property
    def dim_v(self) -> int:
        return self.algebra.dim_v

    def conjugate(self, p: Matrix) -> "PelDatum":
        """Base change on V by p (new basis vectors are the columns of p).
        It inverts p once, for j and the algebra both."""
        q = p.inv()
        return PelDatum(self.algebra._conjugate(p, q), p.transpose() @ self.pairing @ p, q @ self.j @ p)


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


class ValidationReport(_Value):
    __slots__ = ("valid", "failure_code", "message", "passed")  # bool, str | None, str, tuple of check names
    to_dict = _as_dict


def _catalog_frame(alg: AlgebraPresentation, m: Matrix | None, j: Matrix) -> tuple:
    """m (or None) and j in catalog coordinates: b^-T m b^-1 and b j b^-1 for alg's basis b, if any."""
    b, c = alg.basis, alg.basis_inv
    return (m, j) if b is None else (m if m is None else c.transpose() @ m @ c, b @ j @ c)


def validate(datum: PelDatum) -> ValidationReport:
    """Run the axioms in ``CHECK_ORDER`` up to the first failure; ``passed`` lists those before it.

    Failures are reported as diagnostic codes, not exceptions, so that a
    mutated or hand-written datum can be triaged from the command line.

    Every axiom reads the catalog generators with the pairing and j of
    ``_catalog_frame``, where it holds exactly when it holds on V.  Structured
    data skip the closure: their star is the catalog's positive involution,
    so both involution axioms hold by construction (``pelkit.algebras``).

    Each equation (m^T = -m, act^T m = m star, j j = -1, j act = act j)
    is one ``products_equal``, and the last two j checks read g = m j in
    one ``signature``: m is alternating, so j^T m = -(m j) holds exactly
    when g is symmetric, and the polarization is then its signature.  Both
    read monomial forms (each row's one nonzero column and numerator) when
    every factor has one, as in catalog coordinates, in O(n) and with no
    n x n product; other factors go through ``@`` and ``==``.
    """
    n = datum.dim_v
    m = datum.pairing
    j = datum.j

    def fail(code, message):
        return ValidationReport(False, code, message, CHECK_ORDER[: CHECK_ORDER.index(code)])

    if m.rows != n or m.cols != n or j.rows != n or j.cols != n:
        return fail("shape", "pairing and j must be dim_v x dim_v")
    m, j = _catalog_frame(datum.algebra, m, j)

    if not products_equal((Transposed(m),), (m,), -1):
        return fail("pairing_antisymmetric", "pairing is not alternating")

    if m.det() == 0:
        return fail("pairing_nondegenerate", "pairing is degenerate")

    for k, (act, star) in enumerate(datum.algebra.generators):
        if not products_equal((Transposed(act), m), (m, star)):
            return fail(
                "star_adjoint",
                f"generator {k} is not adjoint to its star image under the pairing",
            )

    if not products_equal((j, j), (), -1):
        return fail("j_square", "j does not square to -identity")

    for k, (act, _) in enumerate(datum.algebra.generators):
        if not products_equal((j, act), (act, j)):
            return fail("j_commutes", f"j does not commute with generator {k}")

    try:
        sig = signature(m, j)
    except NotSymmetricError:
        return fail("j_pairing_skew", "<ju, v> != -<u, jv>")
    if not sig.is_positive_definite():
        return fail(
            "polarization_positive",
            f"<u, jv> has signature ({sig.positive},{sig.negative},{sig.zero}), not positive definite",
        )

    if datum.algebra.mode == "raw":  # on structured data both involution axioms hold by construction
        inv = check_anti_involution(datum.algebra)
        if not inv.ok:
            return fail("involution_anti", inv.reason)
        if not check_positive(datum.algebra):
            return fail("involution_positive", "trace form of the involution is not positive definite")

    return ValidationReport(True, None, "all axioms hold", CHECK_ORDER)


# -- classification ---------------------------------------------------------------


class FactorGroup(_Value):
    """One real factor of the classified group.

    kind "symplectic": params = (g,) for Sp_2g; "unitary": params = (a, b);
    "orthogonal": params = (r,) for the rank-r quaternionic orthogonal
    group.  params is the factor's signature, and its block has rank
    sum(params).  catalog_n is the matrix size of the underlying simple
    algebra factor and fixes the multiplicity of the standard character.
    """

    __slots__ = ("kind", "params", "catalog_n")  # str, tuple, int


class GroupFactorization(_Value):
    __slots__ = (
        "symplectic",  # tuple[int, ...]
        "unitary",  # tuple[(a, b), ...]
        "orthogonal",  # tuple[int, ...]
        "similitude",  # bool
    )
    _defaults = {"similitude": True}
    to_dict = _as_dict


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
    if not products_equal((c, c), (), d):
        raise NotComplexStructureError(f"centre action does not square to {d}")
    if not products_equal((j, j), (), -1):
        raise NotComplexStructureError("j does not square to -identity on the block")
    if not products_equal((c, j), (j, c)):
        raise NotCommutingError("centre action and j do not commute")
    t = trace(c, j)
    if d != -1 and t:
        raise DimensionMismatchError("centre/j pairing trace is inconsistent")
    a, ra = divmod(dim - t, 4 * n)
    b, rb = divmod(dim + t, 4 * n)
    if ra or rb:
        raise DimensionMismatchError("joint eigenspace dimensions are not multiples of n")
    return a, b


def _isotypic_blocks(datum: PelDatum):
    """Each catalog factor with j on its isotypic block.  In catalog
    coordinates (``_catalog_frame``) factor k acts on a fixed range, and j
    preserves its block when no entry links that range to the rest of V.
    A lone factor's block is all of V: j is moved only for a unitary one,
    whose signature reads it, and is None for any other."""
    alg = datum.algebra
    if alg.mode != "structured":
        raise StructuredModeRequiredError("classification requires a structured presentation")
    if datum.j.rows != alg.dim_v or datum.j.cols != alg.dim_v:
        raise DimensionMismatchError("j does not preserve an isotypic block")
    if len(alg.factors) == 1:
        (f,) = alg.factors
        yield f, _catalog_frame(alg, None, datum.j)[1] if f.kind == MAT_IMAG_QUAD else None
        return
    _, j = _catalog_frame(alg, None, datum.j)
    rows = j.numerators
    lo = 0
    for f in alg.factors:
        hi = lo + f.isotypic_dim
        if any(rows[i][c] for i in range(alg.dim_v) if not lo <= i < hi for c in range(lo, hi)):
            raise DimensionMismatchError("j does not preserve an isotypic block")
        yield f, Matrix.from_numerators([r[lo:hi] for r in rows[lo:hi]], j.denominator)
        lo = hi


def factorize_details(datum: PelDatum):
    """Per-factor real groups, in catalog order."""
    out = []
    for f, jf in _isotypic_blocks(datum):
        if f.kind == MAT_Q:
            g, r = divmod(f.isotypic_dim, 2 * f.n)
            if r:
                raise DimensionMismatchError(
                    f"isotypic dimension {f.isotypic_dim} is not divisible by 2n = {2 * f.n}"
                )
            out.append(FactorGroup("symplectic", (g,), f.n))
        elif f.kind == MAT_IMAG_QUAD:
            sqrt_d = _coeff_generators(f)[1][0]
            cf = Matrix.block_diag(*[sqrt_d] * (f.n * f.multiplicity))
            out.append(FactorGroup("unitary", _unitary_signature(cf, jf, f.d, f.n), f.n))
        else:  # MAT_DEF_QUAT: the block is (H^n)^multiplicity
            out.append(FactorGroup("orthogonal", (f.multiplicity,), f.n))
    return tuple(out)


def _factorization(details) -> GroupFactorization:
    return GroupFactorization(
        tuple(d.params[0] for d in details if d.kind == "symplectic"),
        tuple(d.params for d in details if d.kind == "unitary"),
        tuple(d.params[0] for d in details if d.kind == "orthogonal"),
        True,  # similitude, given so that the constructor binds no default
    )


class ShimuraReport(_Value):
    __slots__ = ("is_shimura_datum_for_g0", "g_connected", "center_condition", "offending_factors", "center_reasons")
    to_dict = _as_dict


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
    return ShimuraReport(not offending, not fact.orthogonal, True, offending, reasons)


# -- bridge to the character calculus ----------------------------------------------


class Classification(_Value):
    __slots__ = ("factorization", "details", "root_datum", "standard_char")
    # GroupFactorization, tuple[FactorGroup, ...], RootDatum, WeightChar


# Per kind: the block series of the root datum, and the multiplicity of each
# standard block weight per unit of catalog_n.
_KIND_RULE = {"symplectic": ("C", 1), "unitary": ("A", 1), "orthogonal": ("D", 2)}


def root_datum_for(details) -> RootDatum:
    factors = tuple(characters.Factor(_KIND_RULE[d.kind][0], sum(d.params)) for d in details)
    return characters.RootDatum(factors, central_rank=1)


def classify(datum: PelDatum) -> Classification:
    """Factorization bundled with the root datum and the character of V,
    whose weights sit at central coordinate 1 (the centre acts on V by
    scalars) and are +-e_i on each block, with multiplicity n for
    symplectic and unitary factors and 2n for quaternionic-orthogonal ones.
    Only a unitary or multi-factor datum moves j (``_isotypic_blocks``).

    The caller is responsible for running validate() first; classification
    of an invalid datum raises or returns garbage."""
    details = factorize_details(datum)
    rd = root_datum_for(details)
    std = characters.standard_char(rd, [_KIND_RULE[d.kind][1] * d.catalog_n for d in details])
    return Classification(_factorization(details), details, rd, std)
