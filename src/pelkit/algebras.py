"""Finite-dimensional semisimple Q-algebras with involution, presented by
explicit matrices acting on V.

Two input modes are supported.  Raw presentations are arbitrary generator
lists (action matrix, star-image matrix) and support only axiom checking.
Structured presentations are built from a catalog of simple factors --
matrix algebras over Q, over an imaginary quadratic field, or over a
definite quaternion algebra -- and additionally support classification.
The catalog covers exactly the simple real types that admit a positive
involution; centres are restricted to Q and imaginary quadratic fields,
quaternion algebras to definite ones (a, b < 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from .linalg import Matrix, signature

SYMPLECTIC = "symplectic"
LINEAR = "linear"
ORTHOGONAL = "orthogonal"

MAT_Q = "mat_q"
MAT_IMAG_QUAD = "mat_imag_quad"
MAT_DEF_QUAT = "mat_def_quat"


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CatalogFactor:
    """One simple factor M_n(D) together with its multiplicity in V."""

    kind: str
    n: int
    multiplicity: int
    d: int = 0  # imaginary quadratic: squarefree d < 0
    a: int = 0  # quaternion parameters, both < 0
    b: int = 0

    def __post_init__(self):
        if self.kind not in (MAT_Q, MAT_IMAG_QUAD, MAT_DEF_QUAT):
            raise ValueError(f"unknown catalog kind {self.kind!r}")
        for name in ("n", "multiplicity", "d", "a", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1 or self.multiplicity < 1:
            raise ValueError("n and multiplicity must be >= 1")
        if self.kind == MAT_IMAG_QUAD:
            if self.d >= 0 or not _is_squarefree(self.d):
                raise ValueError("imaginary quadratic centre needs squarefree d < 0")
        if self.kind == MAT_DEF_QUAT:
            if self.a >= 0 or self.b >= 0:
                raise ValueError("definite quaternion algebra needs a, b < 0")

    @property
    def coeff_dim(self) -> int:
        """Dimension of the coefficient division algebra over Q."""
        return {MAT_Q: 1, MAT_IMAG_QUAD: 2, MAT_DEF_QUAT: 4}[self.kind]

    @property
    def module_dim(self) -> int:
        """Q-dimension of the simple module D^n."""
        return self.n * self.coeff_dim

    @property
    def isotypic_dim(self) -> int:
        return self.module_dim * self.multiplicity


def classify_factor(f: CatalogFactor) -> str:
    """Real type of the factor: Mat_Q -> symplectic, imaginary quadratic ->
    linear, definite quaternion -> orthogonal."""
    return {MAT_Q: SYMPLECTIC, MAT_IMAG_QUAD: LINEAR, MAT_DEF_QUAT: ORTHOGONAL}[f.kind]


def _coeff_generators(factor: CatalogFactor):
    """Left-regular matrices and conjugates of 1 and the generators of the
    coefficient algebra D (sqrt d, or i and j; k = ij is generated):
    returns a list of (left_mult_matrix, conj_left_mult_matrix)."""
    if factor.kind == MAT_Q:
        one = Matrix.identity(1)
        return [(one, one)]
    if factor.kind == MAT_IMAG_QUAD:
        d = factor.d
        one = Matrix.identity(2)
        s = Matrix([[0, d], [1, 0]])  # multiplication by sqrt(d) on basis (1, sqrt(d))
        return [(one, one), (s, -s)]
    a, b = factor.a, factor.b
    one = Matrix.identity(4)
    li = Matrix([[0, a, 0, 0], [1, 0, 0, 0], [0, 0, 0, a], [0, 0, 1, 0]])
    lj = Matrix([[0, 0, b, 0], [0, 0, 0, -b], [1, 0, 0, 0], [0, -1, 0, 0]])
    return [(one, one), (li, -li), (lj, -lj)]


@dataclass(frozen=True)
class FactorBlock:
    """A catalog factor embedded into End(V): generator pairs plus the
    distinguished elements used downstream for classification."""

    factor: CatalogFactor
    generators: tuple  # tuple[(Matrix, Matrix), ...] acting on all of V
    unit_action: Matrix  # image of the factor's identity element
    center_action: Matrix | None  # image of central sqrt(d), imaginary quadratic only


@dataclass(frozen=True)
class AlgebraPresentation:
    dim_v: int
    generators: tuple  # tuple[(Matrix, Matrix), ...]
    factors: tuple = ()  # tuple[FactorBlock, ...]; empty means raw mode

    def __post_init__(self):
        for act, star in self.generators:
            if act.rows != self.dim_v or act.cols != self.dim_v:
                raise ValueError("generator action has wrong shape")
            if star.rows != self.dim_v or star.cols != self.dim_v:
                raise ValueError("generator star image has wrong shape")

    @property
    def mode(self) -> str:
        return "structured" if self.factors else "raw"

    @staticmethod
    def raw(dim_v: int, generators) -> "AlgebraPresentation":
        return AlgebraPresentation(dim_v, tuple((a, s) for a, s in generators))

    @staticmethod
    def from_catalog(factors) -> "AlgebraPresentation":
        factors = tuple(factors)
        dim_v = sum(f.isotypic_dim for f in factors)
        blocks = []
        all_gens = []
        offset = 0
        for f in factors:
            dd = f.coeff_dim
            md = f.module_dim
            coeff = [(lx.numerators, conj.numerators) for lx, conj in _coeff_generators(f)]
            gens = []

            def embed(small, offset=offset, f=f, md=md) -> Matrix:
                rows = [[0] * dim_v for _ in range(dim_v)]
                for copy in range(f.multiplicity):
                    base = offset + copy * md
                    for i, r in enumerate(small):
                        rows[base + i][base : base + md] = r
                return Matrix.from_numerators(rows)

            unit_small = Matrix.identity(md).numerators
            center_small = None
            # E_11 (x) x for x = 1 and the generators of D, then
            # E_{p,p+1} (x) 1 and E_{p+1,p} (x) 1.  They generate M_n(D):
            # E_p1 (E_11 (x) x) E_1q = E_pq (x) x.
            units = [(0, 0, c) for c in coeff]
            for p in range(f.n - 1):
                units += [(p, p + 1, coeff[0]), (p + 1, p, coeff[0])]
            for p, q, (lx, lx_conj) in units:
                small = [[0] * md for _ in range(md)]
                small_star = [[0] * md for _ in range(md)]
                for i in range(dd):
                    small[p * dd + i][q * dd : (q + 1) * dd] = lx[i]
                    small_star[q * dd + i][p * dd : (p + 1) * dd] = lx_conj[i]
                gens.append((embed(small), embed(small_star)))
            if f.kind == MAT_IMAG_QUAD:
                s = coeff[1][0]
                center_small = [[0] * md for _ in range(md)]
                for p in range(f.n):
                    for i in range(dd):
                        center_small[p * dd + i][p * dd : (p + 1) * dd] = s[i]
            blocks.append(
                FactorBlock(
                    factor=f,
                    generators=tuple(gens),
                    unit_action=embed(unit_small),
                    center_action=embed(center_small) if center_small is not None else None,
                )
            )
            all_gens.extend(gens)
            offset += f.isotypic_dim
        return AlgebraPresentation(dim_v, tuple(all_gens), tuple(blocks))

    def conjugate(self, p: Matrix) -> "AlgebraPresentation":
        """Change of basis on V: every stored matrix A becomes p^-1 A p."""
        pinv = p.inv()

        def c(m: Matrix) -> Matrix:
            return pinv @ m @ p

        gens = tuple((c(a), c(s)) for a, s in self.generators)
        blocks = tuple(
            FactorBlock(
                factor=blk.factor,
                generators=tuple((c(a), c(s)) for a, s in blk.generators),
                unit_action=c(blk.unit_action),
                center_action=c(blk.center_action) if blk.center_action is not None else None,
            )
            for blk in self.factors
        )
        return AlgebraPresentation(self.dim_v, gens, blocks)


# -- multiplicative closure ------------------------------------------------------


class _Span:
    """Incremental echelon span of matrices, kept fraction-free.

    A matrix enters as its flattened numerators.  Each echelon row is a
    primitive integer vector stored with its pivot, its nonzero positions
    and its expression in the inserted matrices (sparse rational
    coordinates), so coordinates come out relative to the inserted basis.
    """

    def __init__(self):
        self.rows = []  # echelon vectors, lists of int
        self.pivots = []
        self.support = []  # nonzero positions of each echelon vector
        self.exprs = []  # each echelon vector as ((inserted index, Fraction), ...)
        self.size = 0  # number of inserted basis elements

    def _reduce(self, mat: Matrix):
        """Reduce the numerators of mat.  Returns (residual, s, coeff): the
        integer residual equals s * (mat - sum of coeff[i] * inserted[i]),
        flattened, for a nonzero integer s."""
        vec = [x for r in mat.numerators for x in r]
        den = mat.denominator
        s = 1
        coeff = {}
        for row, piv, nz, expr in zip(self.rows, self.pivots, self.support, self.exprs):
            c = vec[piv]
            if not c:
                continue
            p = row[piv]
            f = Fraction(c, p * s * den)  # coordinate of row in mat's expansion
            for i, e in expr:
                coeff[i] = coeff.get(i, 0) + f * e
            g = gcd(c, p)
            q, t = p // g, c // g
            if q != 1:
                vec = [q * x for x in vec]
                s *= q
            if 4 * len(nz) < len(vec):
                for i in nz:
                    vec[i] -= t * row[i]
            else:
                vec = [x - t * y for x, y in zip(vec, row)]
        return vec, s * den, coeff

    @staticmethod
    def _sparse(coeff):
        return tuple(sorted((i, c) for i, c in coeff.items() if c))

    def coords(self, mat: Matrix):
        """Coordinates in the inserted basis as ((index, Fraction), ...), or
        None if mat is not in the span."""
        res, _, coeff = self._reduce(mat)
        if any(res):
            return None
        return self._sparse(coeff)

    def insert(self, mat: Matrix):
        """Insert a new basis matrix; returns its coordinates if dependent."""
        res, s, coeff = self._reduce(mat)
        if not any(res):
            return self._sparse(coeff)
        g = gcd(*res)
        row = [x // g for x in res]
        # row = (s / g) * (mat - sum of coeff[i] * inserted[i])
        f = Fraction(s, g)
        self.rows.append(row)
        self.pivots.append(next(i for i, x in enumerate(row) if x))
        self.support.append([i for i, x in enumerate(row) if x])
        self.exprs.append(tuple((i, -f * c) for i, c in sorted(coeff.items()) if c) + ((self.size, f),))
        self.size += 1
        return None


class _Closure:
    def __init__(self, basis, star_of, prod_coords, linearity_witness, span):
        self.basis = basis  # list[Matrix]
        self.star_of = star_of  # list[Matrix]
        self.prod_coords = prod_coords  # dict[(i, g)] -> sparse coords of basis[i] @ basis[g]
        self.linearity_witness = linearity_witness
        self.span = span  # _Span whose inserted basis is exactly ``basis``


@lru_cache(maxsize=8)
def _closure(alg: AlgebraPresentation) -> _Closure:
    """The algebra generated by alg: the smallest subspace of End(V) that
    holds 1 and the generators and is closed under right multiplication by
    the independent generators.  Each basis element past the generators is
    a product b_i g, with star image g* b_i*; ``prod_coords`` holds the
    coordinates of every product b_i g, keyed by (i, index of g)."""
    dim = alg.dim_v
    ident = Matrix.identity(dim)
    span = _Span()
    span.insert(ident)
    basis: list[Matrix] = [ident]
    star_of: list[Matrix] = [ident]
    gens = []  # basis indices of the independent generators
    linearity_witness = None
    for act, star in alg.generators:
        coords = span.insert(act)
        if coords is None:
            gens.append(len(basis))
            basis.append(act)
            star_of.append(star)
        elif linearity_witness is None and _combine(star_of, coords, dim) != star:
            linearity_witness = (act, star)
    prod_coords = {}
    i = 0
    while i < len(basis):
        for g in gens:
            prod = basis[i] @ basis[g]
            coords = span.insert(prod)
            if coords is None:
                coords = ((len(basis), Fraction(1)),)
                basis.append(prod)
                star_of.append(star_of[g] @ star_of[i])
            prod_coords[(i, g)] = coords
        i += 1
    return _Closure(basis, star_of, prod_coords, linearity_witness, span)


def _combine(mats, sparse_coords, dim):
    """The integer linear combination sum of c * mats[idx] over the sparse
    coordinates, over one common denominator."""
    den = lcm(*(c.denominator * mats[idx].denominator for idx, c in sparse_coords))
    rows = [[0] * dim for _ in range(dim)]
    for idx, c in sparse_coords:
        m = mats[idx]
        f = c.numerator * (den // (c.denominator * m.denominator))
        rows = [list(map(add, acc, map(mul, r, repeat(f)))) for acc, r in zip(rows, m.numerators)]
    return Matrix.from_numerators(rows, den)


@dataclass(frozen=True)
class InvolutionReport:
    ok: bool
    reason: str = ""
    witness: tuple = ()  # offending pair of matrices, when applicable

    def __bool__(self):
        return self.ok


def check_anti_involution(alg: AlgebraPresentation) -> InvolutionReport:
    """Check that the declared star extends to a linear anti-involution of
    the multiplicative closure of the generators inside End(V).

    Star reversal is checked on the products b g of basis elements and
    generators alone: (x g)* = g* x* for every x and generator g gives
    (x w)* = w* x* for every word w by induction on its length."""
    cl = _closure(alg)
    dim = alg.dim_v
    if cl.linearity_witness is not None:
        return InvolutionReport(False, "star is not linear on dependent generators", cl.linearity_witness)
    star_coords = []
    for m, s in zip(cl.basis, cl.star_of):
        coords = cl.span.coords(s)
        if coords is None:
            return InvolutionReport(False, "star image leaves the algebra", (m, s))
        star_coords.append(coords)
    for m, s, sc in zip(cl.basis, cl.star_of, star_coords):
        ss = _combine(cl.star_of, sc, dim)
        if ss != m:
            return InvolutionReport(False, "star is not an involution", (m, s))
    for (i, j), coords in sorted(cl.prod_coords.items()):
        lhs = _combine(cl.star_of, coords, dim)
        rhs = cl.star_of[j] @ cl.star_of[i]
        if lhs != rhs:
            return InvolutionReport(
                False, "star does not reverse products", (cl.basis[i], cl.basis[j])
            )
    return InvolutionReport(True)


def _trace_gram(cl: _Closure) -> Matrix:
    """A positive multiple of the symmetrised trace form
    (x, y) -> (tr(x y*) + tr(y x*)) / 2 on the closure basis.

    tr(x y*) is the dot product of the entries of x with those of the
    transpose of y*.  Over one common denominator D of every basis and star
    matrix these are integer dot products of flattened numerators, and the
    gram below is 2 D^2 times the form."""
    den = lcm(*(m.denominator for m in cl.basis), *(s.denominator for s in cl.star_of))
    xs = [[x * (den // m.denominator) for r in m.numerators for x in r] for m in cl.basis]
    ys = [[x * (den // s.denominator) for c in zip(*s.numerators) for x in c] for s in cl.star_of]
    p = Matrix.from_numerators(xs) @ Matrix.from_numerators(ys).transpose()
    return p + p.transpose()


def check_positive(alg: AlgebraPresentation) -> bool:
    """Positivity of the involution: the symmetrised trace form
    (x, y) -> tr(x y* ) on the closure must be positive definite."""
    return signature(_trace_gram(_closure(alg))).is_positive_definite()
