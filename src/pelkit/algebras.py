"""Finite-dimensional semisimple Q-algebras with involution, presented by
explicit matrices acting on V.

Two input modes are supported.  Raw presentations are arbitrary generator
lists (action matrix, star-image matrix) and support only axiom checking.
Structured presentations are built from a catalog of simple factors --
matrix algebras over Q, over an imaginary quadratic field, or over a
definite quaternion algebra -- and additionally support classification.
A structured presentation is its catalog factors and a basis of V in
catalog coordinates.  Its generators are the catalog's, whatever the basis,
so its involution axioms hold by construction (Mumford, Abelian Varieties,
section 21; Kottwitz, JAMS 5, 1992, section 1) and validation runs the
closure for raw ones only.  The catalog spans at most ``MAX_DIM_V``
dimensions, the desk scale of ``pelkit.linalg``.
The catalog covers exactly the simple real types that admit a positive
involution; centres are restricted to Q and imaginary quadratic fields,
quaternion algebras to definite ones (a, b < 0).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from . import _Value
from .errors import OutOfScopeError
from .linalg import Echelon, Matrix, signature

MAT_Q = "mat_q"
MAT_IMAG_QUAD = "mat_imag_quad"
MAT_DEF_QUAT = "mat_def_quat"
MAX_ABS_D = 10**9  # bounds the trial-division squarefree test to ~3e4 steps
MAX_DIM_V = 64  # building the catalog generators costs about dim_v^3


class CatalogTooLargeError(OutOfScopeError):
    pass


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class CatalogFactor(_Value):
    """One simple factor M_n(D) together with its multiplicity in V.

    kind is a catalog kind (str), and n and multiplicity are ints.  The
    int d is nonzero for an imaginary quadratic D only: squarefree,
    -MAX_ABS_D <= d < 0.  The ints a and b are nonzero for a definite
    quaternion D only: both < 0.
    """

    __slots__ = ("kind", "n", "multiplicity", "d", "a", "b")
    _defaults = {"d": 0, "a": 0, "b": 0}

    def __post_init__(self):
        if self.kind not in (MAT_Q, MAT_IMAG_QUAD, MAT_DEF_QUAT):
            raise ValueError(f"unknown catalog kind {self.kind!r}")
        for name in ("n", "multiplicity", "d", "a", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1 or self.multiplicity < 1:
            raise ValueError("n and multiplicity must be >= 1")
        for name in {MAT_Q: ("d", "a", "b"), MAT_IMAG_QUAD: ("a", "b"), MAT_DEF_QUAT: ("d",)}[self.kind]:
            if getattr(self, name):
                raise ValueError(f"{self.kind} takes no parameter {name}, got {getattr(self, name)}")
        if self.kind == MAT_IMAG_QUAD:
            if self.d < -MAX_ABS_D:
                raise ValueError(f"|d| must be at most {MAX_ABS_D}, got {self.d}")
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


@lru_cache(maxsize=32)
def _catalog_generators(factors: tuple) -> tuple:
    """The catalog factors' generators on V, in catalog coordinates.

    They depend on the factors alone, so every presentation of one catalog
    (``from_catalog``, each JSON load, each base change) shares the same
    matrices, and with them the monomial forms that scans of their own
    rows have found and kept, the transposed form too from its first
    ``Transposed`` read (``pelkit.linalg``)."""
    dim_v = sum(f.isotypic_dim for f in factors)
    zero = (0,) * dim_v  # the one row every embedding shares
    all_gens = []
    offset = 0
    for f in factors:
        dd = f.coeff_dim
        md = f.module_dim
        coeff = [(lx.numerators, conj.numerators) for lx, conj in _coeff_generators(f)]

        def embed(small, offset=offset, f=f, md=md) -> Matrix:
            rows = [zero] * dim_v
            for copy in range(f.multiplicity):
                base = offset + copy * md
                for i, r in enumerate(small):
                    # a zero row stays the shared one, so the cache holds the
                    # nonzero rows alone: 0.3 MiB for M_64(Q), not 8.7
                    if any(r):
                        rows[base + i] = zero[:base] + tuple(r) + zero[base + md :]
            return Matrix.from_numerators(rows)

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
            all_gens.append((embed(small), embed(small_star)))
        offset += f.isotypic_dim
    return tuple(all_gens)


class AlgebraPresentation(_Value):
    """Generators of an algebra acting on V, each with its star image.

    A structured presentation is its catalog factors, ``basis``, the basis
    of V in catalog coordinates (``None`` while canonical), and its inverse
    ``basis_inv``, which ``==`` and hashing ignore.  Its generators are the
    catalog's for every basis: the constructor derives them (pass ``None``)
    and refuses others.  It refuses a dim_v below 1, a basis that is not an
    invertible dim_v x dim_v matrix, and any basis for a raw presentation.
    """

    __slots__ = ("dim_v", "generators", "factors", "basis", "basis_inv")
    _compared = ("dim_v", "generators", "factors", "basis")

    def __init__(self, dim_v: int, generators, factors: tuple = (), basis: Matrix | None = None):
        # generators: tuple[(Matrix, Matrix), ...]; factors: tuple[CatalogFactor, ...], empty in raw mode
        _Value.__init__(self, dim_v, generators, factors, basis, None)

    def __post_init__(self):
        dim_v, generators, factors, basis = self.dim_v, self.generators, self.factors, self.basis
        if dim_v < 1:
            raise ValueError(f"dim_v must be >= 1, got {dim_v}")
        if factors or generators is None:
            span = sum(f.isotypic_dim for f in factors)
            if span > MAX_DIM_V:
                raise CatalogTooLargeError(f"catalog factors span dimension {span}, past the bound {MAX_DIM_V}")
            gens = _catalog_generators(factors)
            if generators not in (None, gens):
                raise ValueError("structured generators must be the catalog's")
            object.__setattr__(self, "generators", gens)
            if basis is not None:
                if basis.rows != dim_v or basis.cols != dim_v:
                    raise ValueError(f"basis must be {dim_v} x {dim_v}, got {basis.rows} x {basis.cols}")
                if self.basis_inv is None:  # else carried in by _conjugate
                    object.__setattr__(self, "basis_inv", basis.inv())
        elif basis is not None:
            raise ValueError("a raw presentation takes no basis")
        for act, star in self.generators:
            if act.rows != dim_v or act.cols != dim_v:
                raise ValueError("generator action has wrong shape")
            if star.rows != dim_v or star.cols != dim_v:
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
        return AlgebraPresentation(sum(f.isotypic_dim for f in factors), None, factors)

    def conjugate(self, p: Matrix) -> "AlgebraPresentation":
        """Change of basis on V: a raw presentation's generators A become
        p^-1 A p, and a structured one composes its basis with p."""
        if self.factors:
            basis = p if self.basis is None else self.basis @ p
            return AlgebraPresentation(self.dim_v, None, self.factors, basis)
        return self._conjugate(p, p.inv())

    def _conjugate(self, p: Matrix, q: Matrix) -> "AlgebraPresentation":
        """``conjugate(p)`` for a caller that holds q = p^-1.  A structured
        presentation carries q basis^-1 as its new basis inverse, so nothing
        is inverted; ``__post_init__`` still runs its checks."""
        if not self.factors:
            return AlgebraPresentation(self.dim_v, tuple((q @ a @ p, q @ s @ p) for a, s in self.generators))
        moved = object.__new__(AlgebraPresentation)
        basis, basis_inv = (p, q) if self.basis is None else (self.basis @ p, q @ self.basis_inv)
        _Value.__init__(moved, self.dim_v, None, self.factors, basis, basis_inv)
        return moved


# -- multiplicative closure ------------------------------------------------------


def _with_star(x: Matrix, s: Matrix) -> list:
    """The flattened numerators of x followed by those of s, over their
    common denominator: one echelon row [x | s]."""
    den = lcm(x.denominator, s.denominator)
    fx, fs = den // x.denominator, den // s.denominator
    return [a * fx for r in x.numerators for a in r] + [a * fs for r in s.numerators for a in r]


class _Closure(_Value):
    __slots__ = (
        "basis",  # list[Matrix]
        "star_of",  # the declared or derived star of each basis element
        "echelon",  # one kept row [b | b*] per basis element b
        "linearity_witness",  # see _closure for both witnesses
        "reversal_witness",
    )


@lru_cache(maxsize=8)
def _closure(alg: AlgebraPresentation) -> _Closure:
    """The algebra generated by alg: the smallest subspace of End(V) that
    holds 1 and the generators and is closed under right multiplication by
    the independent generators.  Each basis element past the generators is
    a product b_i g, with star image g* b_i*.

    Every element enters one echelon as the row [x | x*], pivoting on x
    alone, so the kept rows carry the linear extension of the star.  A
    dependent element whose residual does not vanish on its star half has a
    star that the extension contradicts: for a dependent generator that is
    the linearity witness, for a dependent product b_i g (taken in (i, g)
    order) the reversal witness."""
    dim = alg.dim_v
    ident = Matrix.identity(dim)
    ech = Echelon(dim * dim)
    ech.insert(_with_star(ident, ident))
    basis, star_of = [ident], [ident]
    gens = []  # basis indices of the independent generators
    linearity_witness = reversal_witness = None
    for act, star in alg.generators:
        res = ech.insert(_with_star(act, star))
        if res is None:
            gens.append(len(basis))
            basis.append(act)
            star_of.append(star)
        elif linearity_witness is None and any(res):
            linearity_witness = (act, star)
    i = 0
    while i < len(basis):
        for g in gens:
            prod, prod_star = basis[i] @ basis[g], star_of[g] @ star_of[i]
            res = ech.insert(_with_star(prod, prod_star))
            if res is None:
                basis.append(prod)
                star_of.append(prod_star)
            elif reversal_witness is None and any(res):
                reversal_witness = (basis[i], basis[g])
        i += 1
    return _Closure(basis, star_of, ech, linearity_witness, reversal_witness)


class InvolutionReport(_Value):
    __slots__ = ("ok", "reason", "witness")  # bool, str, the offending pair of matrices when applicable
    _defaults = {"reason": "", "witness": ()}

    def __bool__(self):
        return self.ok


def check_anti_involution(alg: AlgebraPresentation) -> InvolutionReport:
    """Check that the declared star extends to a linear anti-involution of
    the multiplicative closure of the generators inside End(V).

    The closure's echelon holds [b | b*] for its basis, so reducing [s | m]
    for a basis element m with star s leaves p (s - proj s) on the first
    half, nonzero exactly when s leaves the algebra, and then p (m - s*) on
    the second.  Star reversal is checked on the products b g of basis
    elements and generators alone: (x g)* = g* x* for every x and generator
    g gives (x w)* = w* x* for every word w by induction on its length."""
    cl = _closure(alg)
    if cl.linearity_witness is not None:
        return InvolutionReport(False, "star is not linear on dependent generators", cl.linearity_witness)
    n = alg.dim_v**2
    not_involution = None
    for m, s in zip(cl.basis, cl.star_of):
        res = cl.echelon.reduce(_with_star(s, m))
        if any(res[:n]):
            return InvolutionReport(False, "star image leaves the algebra", (m, s))
        if not_involution is None and any(res):
            not_involution = (m, s)
    if not_involution is not None:
        return InvolutionReport(False, "star is not an involution", not_involution)
    if cl.reversal_witness is not None:
        return InvolutionReport(False, "star does not reverse products", cl.reversal_witness)
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
