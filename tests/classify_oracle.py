"""Classification through the unit and centre actions on V, kept as the test
oracle for ``pelkit.peldata.factorize_details``.

Each catalog factor's unit element and, for an imaginary quadratic factor,
its central sqrt(d) are written down in catalog coordinates and moved into
the datum's basis: A becomes basis^-1 A basis.  The isotypic block is the
column space of the unit action, and j and the centre restricted to it come
from ``solve``.  ``pelkit.peldata`` instead maps j back to catalog
coordinates and slices each factor's fixed coordinate range.

The unitary signature here multiplies with ``@`` and compares with ``==``,
as ``peldata._unitary_signature`` did before it read monomial forms
(``linalg.products_equal``), so the oracle shares no form code with it.
"""

from __future__ import annotations

from pelkit.algebras import MAT_DEF_QUAT, MAT_IMAG_QUAD, MAT_Q
from pelkit.linalg import Matrix
from pelkit.linalg import NotCommutingError, NotComplexStructureError
from pelkit.peldata import (
    DimensionMismatchError,
    FactorGroup,
    PelDatum,
    StructuredModeRequiredError,
)


def dense_unitary_signature(c: Matrix, j: Matrix, d: int, n: int) -> tuple:
    """``peldata._unitary_signature`` on dense products: the same checks,
    errors and trace rule."""
    dim = c.rows
    if c @ c != Matrix.scalar(dim, d):
        raise NotComplexStructureError(f"centre action does not square to {d}")
    if j @ j != Matrix.scalar(dim, -1):
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


def _catalog_actions(alg):
    """(unit, centre or None) of each factor, in catalog coordinates.  The
    factor acts on copies of D^n laid out one after another, D on its
    regular basis (1, sqrt d), ...; sqrt d multiplies each coordinate."""
    dim = alg.dim_v
    out, lo = [], 0
    for f in alg.factors:
        hi = lo + f.isotypic_dim
        unit = [[int(lo <= i < hi and i == c) for c in range(dim)] for i in range(dim)]
        centre = None
        if f.kind == MAT_IMAG_QUAD:
            centre = [[0] * dim for _ in range(dim)]
            for k in range(lo, hi, 2):
                centre[k][k + 1] = f.d  # sqrt d * sqrt d = d
                centre[k + 1][k] = 1  # sqrt d * 1 = sqrt d
            centre = Matrix(centre)
        out.append((Matrix(unit), centre))
        lo = hi
    return out


def oracle_factorize_details(datum: PelDatum):
    alg = datum.algebra
    if alg.mode != "structured":
        raise StructuredModeRequiredError("classification requires a structured presentation")
    basis = Matrix.identity(alg.dim_v) if alg.basis is None else alg.basis
    binv = basis.inv()
    out = []
    total = 0
    for f, (unit, centre) in zip(alg.factors, _catalog_actions(alg)):
        q = (binv @ unit @ basis).column_space_basis()
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
            cf = q.solve(binv @ centre @ basis @ q)
            out.append(FactorGroup("unitary", dense_unitary_signature(cf, jf, f.d, f.n), f.n))
        elif f.kind == MAT_DEF_QUAT:
            r, rem = divmod(dim_f, 4 * f.n)
            if rem:
                raise DimensionMismatchError(
                    f"isotypic dimension {dim_f} is not divisible by 4n = {4 * f.n}"
                )
            out.append(FactorGroup("orthogonal", (r,), f.n))
    if total != datum.dim_v:
        raise DimensionMismatchError(f"isotypic dimensions sum to {total}, expected {datum.dim_v}")
    return tuple(out)
