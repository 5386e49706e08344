"""Slow oracle for the unitary signature: joint eigenspaces over Q(i).

``simult_eigensplit`` splits Q(i)^n into the four joint eigenspaces of two
commuting complex structures by Gauss-Jordan elimination on ``GaussRat``
entries.  pelkit reads the unitary signature off one rational trace
instead (``peldata._unitary_signature``); the tests cross-check that trace
split against the eigenspace dimensions computed here.
"""

from dataclasses import dataclass
from fractions import Fraction

from pelkit.errors import InternalCheckError
from pelkit.linalg import Matrix, NotCommutingError, NotComplexStructureError


@dataclass(frozen=True)
class GaussRat:
    """Element a + b*i of Q(i) with Fraction components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussRat":
        return GaussRat(Fraction(re), Fraction(im))

    def __add__(self, o):
        return GaussRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GaussRat(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, o):
        return GaussRat(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __str__(self):
        return f"{self.re}+{self.im}i"


GAUSS_ZERO = GaussRat(Fraction(0), Fraction(0))
GAUSS_ONE = GaussRat(Fraction(1), Fraction(0))
GAUSS_I = GaussRat(Fraction(0), Fraction(1))


def _kernel_basis(rows):
    """Null-space basis for a matrix given as a list of GaussRat rows."""
    if not rows:
        return []
    nc = len(rows[0])
    m = [list(r) for r in rows]
    nr = len(m)
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = GAUSS_ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [GAUSS_ZERO] * nc
        v[f] = GAUSS_ONE
        for ri, c in enumerate(pivots):
            v[c] = -m[ri][f]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class EigenSplit:
    """Simultaneous eigenspace bases over Q(i), ordered (++, +-, -+, --)."""

    pp: tuple
    pm: tuple
    mp: tuple
    mm: tuple

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (len(self.pp), len(self.pm), len(self.mp), len(self.mm))


def simult_eigensplit(a: Matrix, b: Matrix) -> EigenSplit:
    """Split Q(i)^n into the four joint eigenspaces of two commuting
    complex structures (eigenvalues +-i for each of a and b)."""
    n = a.rows
    if not a.is_square() or not b.is_square() or b.rows != n:
        raise ValueError("need square matrices of equal size")
    minus_id = -Matrix.identity(n)
    if a @ a != minus_id:
        raise NotComplexStructureError("first matrix does not square to -I")
    if b @ b != minus_id:
        raise NotComplexStructureError("second matrix does not square to -I")
    if a @ b != b @ a:
        raise NotCommutingError("matrices do not commute")
    a_rows, b_rows = a.tolist(), b.tolist()

    def gauss_rows(rows, shift: GaussRat):
        return [
            [GaussRat(x, Fraction(0)) - (shift if i == j else GAUSS_ZERO) for j, x in enumerate(r)]
            for i, r in enumerate(rows)
        ]

    def joint_kernel(sa: GaussRat, sb: GaussRat):
        stacked = gauss_rows(a_rows, sa) + gauss_rows(b_rows, sb)
        return tuple(_kernel_basis(stacked))

    mi = -GAUSS_I
    split = EigenSplit(
        pp=joint_kernel(GAUSS_I, GAUSS_I),
        pm=joint_kernel(GAUSS_I, mi),
        mp=joint_kernel(mi, GAUSS_I),
        mm=joint_kernel(mi, mi),
    )
    if sum(split.dims) != n:
        raise InternalCheckError("eigenspace dimensions do not fill the space")
    return split
