"""Formal isogeny category of full-rank lattices.

Objects are full-rank lattices L = basis * Z^n inside V = Q^n; arrows are
rational linear maps normalised against the lattices: the stored data of
an arrow f is its rational matrix together with the minimal n >= 1 such
that f(n L) lies in L', and the scale 1/n.  Two arrows are equal when they
share endpoints and rational matrix; the normalisation is canonical and
recomputed, which is what makes the well-definedness laws decidable.

Every lattice stores the inverse of its basis, which ``minimal_n`` reads.
A lattice built through the public constructor (``LatticeObject(dim,
basis)``, ``standard``, ``scaled``) inverts its basis once, which also
rejects a singular basis.  The law suite's random lattices and direct sums
carry their inverse by construction: a random basis is a unimodular matrix,
inverted operation by operation as it is drawn, times a diagonal, and a
direct sum's inverse is the block sum of the inverses.  So the law suite
runs no elimination.  It draws its random lattices and maps on integer
numerators over one common denominator, never through ``Fraction``, and
with ``getrandbits`` exactly as ``randint``, ``randrange`` and ``choice``
would, so every seed's inputs are unchanged.  ``minimal_n`` stops folding
the gcd of its product once it reaches 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from . import _Value
from .errors import InputError
from .linalg import Matrix


class ShapeMismatchError(InputError):
    pass


class LatticeObject(_Value):
    __slots__ = ("dim", "basis", "basis_inv")
    _compared = ("dim", "basis")

    def __init__(self, dim: int, basis: Matrix | None):
        _Value.__init__(self, dim, basis, None)  # basis is None only for the zero-dimensional object

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be >= 0")
        if self.dim == 0:
            if self.basis is not None:
                raise ValueError("zero-dimensional lattice carries no basis")
            return
        if self.basis is None or self.basis.rows != self.dim or self.basis.cols != self.dim:
            raise ValueError("basis must be square of size dim")
        if self.basis_inv is not None:  # carried in by _with_inverse
            return
        try:  # the one elimination: validates the basis and stores its inverse
            object.__setattr__(self, "basis_inv", self.basis.inv())
        except ValueError:  # a square inv fails only on a singular matrix
            raise ValueError("basis must be invertible") from None


ZERO_LATTICE = LatticeObject(0, None)


def _with_inverse(basis: Matrix, basis_inv: Matrix) -> LatticeObject:
    """The lattice of ``basis``, whose inverse ``basis_inv`` the caller
    already knows.  It still runs ``__post_init__`` and its shape checks."""
    lat = object.__new__(LatticeObject)
    _Value.__init__(lat, basis.rows, basis, basis_inv)
    return lat


def minimal_n(f: Matrix, src: LatticeObject, dst: LatticeObject) -> int:
    """Least n >= 1 with f(n * L_src) inside L_dst: the denominator of
    dst.basis^-1 @ f @ src.basis in lowest terms, read off the integer
    product of the three numerators over the product of the denominators.
    The gcd is folded entry by entry and stops at 1, where n is that product."""
    if src.dim == 0 or dst.dim == 0:
        return 1
    if f.rows != dst.dim or f.cols != src.dim:
        raise ShapeMismatchError("map shape does not match the lattices")
    inv, basis = dst.basis_inv, src.basis
    den = g = inv.denominator * f.denominator * basis.denominator
    f_cols, cols = tuple(zip(*f.numerators)), tuple(zip(*basis.numerators))
    for r in inv.numerators:
        r = [sum(map(mul, r, c)) for c in f_cols]  # a row of inv @ f
        for c in cols:
            g = gcd(g, sum(map(mul, r, c)))
            if g == 1:
                return den
    return den // g


class IsoMorphism(_Value):
    __slots__ = ("src", "dst", "raw", "n_used")  # LatticeObject, LatticeObject, Matrix, int
    _compared = ("src", "dst", "raw")  # n_used is minimal_n(raw, src, dst)

    @property
    def scale(self) -> Fraction:
        return Fraction(1, self.n_used)


def arrow(raw: Matrix, src: LatticeObject, dst: LatticeObject, n: int | None = None) -> IsoMorphism:
    """Normalised arrow for the rational map ``raw``.

    ``n`` may present the map as 1/n times an integral-on-lattices map; any
    admissible n (a multiple of the minimal one) produces the identical
    stored arrow, which is the independence-of-normalisation law.
    """
    n0 = minimal_n(raw, src, dst)
    if n is not None:
        if n < 1 or n % n0:
            raise ValueError(f"n = {n} does not satisfy raw(n L) <= L' (minimal n is {n0})")
    return IsoMorphism(src, dst, raw, n0)


def identity_arrow(obj: LatticeObject) -> IsoMorphism:
    return arrow(Matrix.identity(obj.dim), obj, obj)


def compose(g: IsoMorphism, f: IsoMorphism) -> IsoMorphism:
    if f.dst != g.src:
        raise ShapeMismatchError("arrows are not composable")
    return arrow(g.raw @ f.raw, f.src, g.dst)


def lattice_change_iso(a: LatticeObject, b: LatticeObject):
    """The canonical comparison arrow between two lattices in the same V,
    together with its two-sided inverse."""
    if a.dim != b.dim:
        raise ShapeMismatchError("lattices live in different spaces")
    ident = Matrix.identity(a.dim)
    return arrow(ident, a, b), arrow(ident, b, a)


def direct_sum(a: LatticeObject, b: LatticeObject) -> LatticeObject:
    if a.dim == 0:
        return b
    if b.dim == 0:
        return a
    return _with_inverse(Matrix.block_diag(a.basis, b.basis), Matrix.block_diag(a.basis_inv, b.basis_inv))


def direct_sum_arrows(f: IsoMorphism, g: IsoMorphism) -> IsoMorphism:
    return arrow(
        Matrix.block_diag(f.raw, g.raw),
        direct_sum(f.src, g.src),
        direct_sum(f.dst, g.dst),
    )


# -- randomized law suite ------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n), n >= 1, as random.Random draws it: n.bit_length()
    bits, again while >= n.  randint(a, b) is a + _below(rng, b - a + 1) and
    choice(s) is s[_below(rng, len(s))]: the same stream, one C call a draw."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_unimodular(rng: random.Random, n: int) -> tuple[list, list]:
    """Integer rows of a random unimodular U and of its inverse.  Each row
    operation row_i += c row_j on U is undone on the right of U^-1 by the
    column operation col_j -= c col_i."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    m_inv = [r[:] for r in m]
    for _ in range(2 * n):
        i, j = _below(rng, n), _below(rng, n)
        if i != j:
            c = _below(rng, 5) - 2  # randint(-2, 2)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for r in m_inv:
                r[j] -= c * r[i]
    return m, m_inv


def _random_lattice(rng: random.Random, n: int) -> LatticeObject:
    """Lattice with basis U @ diag(p_j / q_j), as numerators over lcm(q_j),
    and inverse diag(q_j / p_j) @ U^-1, over lcm(p_j).  Draws the diagonal
    first, each p before its q."""
    diag = [(1 + _below(rng, 4), 1 + _below(rng, 4)) for _ in range(n)]  # randint(1, 4) each
    u, u_inv = _random_unimodular(rng, n)
    den = lcm(*(q for _, q in diag))
    col = [p * (den // q) for p, q in diag]  # column j scaled by p_j / q_j
    den_inv = lcm(*(p for p, _ in diag))
    basis_inv = [[x * q * (den_inv // p) for x in r] for r, (p, q) in zip(u_inv, diag)]  # row j by q_j / p_j
    return _with_inverse(
        Matrix.from_numerators([[x * c for x, c in zip(r, col)] for r in u], den),
        Matrix.from_numerators(basis_inv, den_inv),
    )


def _random_map(rng: random.Random, rows: int, cols: int) -> Matrix:
    # randint(-3, 3) over choice((1, 1, 2, 3))
    pq = [[(_below(rng, 7) - 3, (1, 1, 2, 3)[_below(rng, 4)]) for _ in range(cols)] for _ in range(rows)]
    den = lcm(*(q for r in pq for _, q in r))
    return Matrix.from_numerators([[p * (den // q) for p, q in r] for r in pq], den)


class _LedgerEntry(dict):
    """One law's read-only line of a law-suite ledger."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("law ledger entries are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copy and pickle through the constructor
        return (_LedgerEntry, (dict(self),))


@lru_cache(maxsize=64)
def _ledger_entry(trials: int, failures: int, first: int | None) -> _LedgerEntry:
    # Equal lines are one shared object, so a caller that keeps many ledgers
    # keeps one small dict per ledger rather than one per law.
    return _LedgerEntry(
        {
            "trials": trials,
            "failures": failures,
            "pass": failures == 0,
            **({"first_failure_trial": first} if first is not None else {}),
        }
    )


def run_law_suite(trials: int = 500, seed: int = 0) -> dict:
    """Seeded random verification of the normalisation laws; returns a
    pass/fail ledger per law with exact arithmetic throughout.  The ledger's
    per-law entries are read-only dicts."""
    if type(trials) is not int or trials < 0:  # True would share the cached lines of 1
        raise ValueError(f"trials must be an int >= 0, got {trials!r}")
    rng = random.Random(seed)
    results = {}

    def law(name, fn):
        failures = 0
        first = None
        for t in range(trials):
            if not fn():
                failures += 1
                if first is None:
                    first = t
        results[name] = _ledger_entry(trials, failures, first)

    def independence_of_n():
        n = rng.randint(1, 3)
        src, dst = _random_lattice(rng, n), _random_lattice(rng, n)
        raw = _random_map(rng, n, n)
        base = arrow(raw, src, dst)
        m = rng.randint(1, 10)
        padded = arrow(raw, src, dst, n=base.n_used * m)
        return padded == base and padded.n_used == base.n_used and padded.scale == base.scale

    def category_laws():
        n = rng.randint(1, 3)
        objs = [_random_lattice(rng, n) for _ in range(4)]
        f = arrow(_random_map(rng, n, n), objs[0], objs[1])
        g = arrow(_random_map(rng, n, n), objs[1], objs[2])
        h = arrow(_random_map(rng, n, n), objs[2], objs[3])
        assoc = compose(h, compose(g, f)) == compose(compose(h, g), f)
        unit = (
            compose(f, identity_arrow(objs[0])) == f
            and compose(identity_arrow(objs[1]), f) == f
        )
        return assoc and unit

    def psi_isomorphism():
        n = rng.randint(1, 3)
        a, b = _random_lattice(rng, n), _random_lattice(rng, n)
        ab, ba = lattice_change_iso(a, b)
        return compose(ba, ab) == identity_arrow(a) and compose(ab, ba) == identity_arrow(b)

    def psi_naturality():
        n = rng.randint(1, 3)
        l1, l2 = _random_lattice(rng, n), _random_lattice(rng, n)
        m1, m2 = _random_lattice(rng, n), _random_lattice(rng, n)
        raw = _random_map(rng, n, n)
        f1 = arrow(raw, l1, m1)
        f2 = arrow(raw, l2, m2)
        psi_l, _ = lattice_change_iso(l1, l2)
        psi_m, _ = lattice_change_iso(m1, m2)
        return compose(psi_m, f1) == compose(f2, psi_l)

    def sum_functorial():
        n = rng.randint(1, 2)
        a1, b1, c1 = (_random_lattice(rng, n) for _ in range(3))
        a2, b2, c2 = (_random_lattice(rng, n) for _ in range(3))
        f1 = arrow(_random_map(rng, n, n), a1, b1)
        g1 = arrow(_random_map(rng, n, n), b1, c1)
        f2 = arrow(_random_map(rng, n, n), a2, b2)
        g2 = arrow(_random_map(rng, n, n), b2, c2)
        lhs = compose(direct_sum_arrows(g1, g2), direct_sum_arrows(f1, f2))
        rhs = direct_sum_arrows(compose(g1, f1), compose(g2, f2))
        return lhs == rhs

    def sum_normalisation():
        n = rng.randint(1, 2)
        f = arrow(_random_map(rng, n, n), _random_lattice(rng, n), _random_lattice(rng, n))
        g = arrow(_random_map(rng, n, n), _random_lattice(rng, n), _random_lattice(rng, n))
        return direct_sum_arrows(f, g).n_used == lcm(f.n_used, g.n_used)

    law("independence_of_n", independence_of_n)
    law("category_laws", category_laws)
    law("psi_isomorphism", psi_isomorphism)
    law("psi_naturality", psi_naturality)
    law("direct_sum_functorial", sum_functorial)
    law("direct_sum_normalisation", sum_normalisation)
    return results
