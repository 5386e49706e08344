import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest
from gauss_oracle import GaussRat, simult_eigensplit
from validate_oracle import is_antisymmetric

from pelkit.linalg import (
    Echelon,
    Matrix,
    NotCommutingError,
    NotComplexStructureError,
    NotSymmetricError,
    RankDeficientError,
    Signature,
    Transposed,
    _bareiss_signature,
    _monomial as monomial_columns,
    _product_form,
    products_equal,
    signature,
    trace,
)

J2 = Matrix([[0, -1], [1, 0]])


def test_signature_diagonal():
    assert signature(Matrix([[1, 0], [0, -1]])) == Signature(1, 1, 0)


def test_signature_trace_form_on_2x2_matrices():
    # Gram of b -> tr(b b^T) on the matrix units: tr(E_pq E_rs^T) = d_pr d_qs,
    # so the Gram matrix is the identity and the form is a sum of squares.
    gram = Matrix.identity(4)
    assert signature(gram) == Signature(4, 0, 0)


def test_signature_modular_curve_polarization():
    pairing = Matrix([[0, 1], [-1, 0]])
    assert signature(pairing @ J2) == Signature(2, 0, 0)


def test_signature_rank2_fixup_and_radical():
    # zero diagonal forces the rank-2 fix-up; the hyperbolic plane is (1,1)
    assert signature(Matrix([[0, 1], [1, 0]])) == Signature(1, 1, 0)
    assert signature(Matrix([[0, 0], [0, 0]])) == Signature(0, 0, 2)
    assert signature(Matrix([[1, 2], [2, 4]])) == Signature(1, 0, 1)


def test_signature_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        signature(Matrix([[0, 1], [0, 0]]))
    with pytest.raises(NotSymmetricError):
        signature(Matrix([[1, 0, 0], [0, 1, 0]]))


def test_signature_congruence_invariant():
    rng = random.Random(7)
    base = Matrix([[2, 1, 0], [1, -3, 1], [0, 1, 0]])
    expected = signature(base)
    for _ in range(25):
        while True:
            p = Matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if p.det() != 0:
                break
        assert signature(p.transpose() @ base @ p) == expected


def test_signature_negation_swaps_counts():
    rng = random.Random(11)
    for _ in range(20):
        m = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        sym = Matrix([[m[i][j] + m[j][i] for j in range(4)] for i in range(4)])
        s = signature(sym)
        t = signature(-sym)
        assert (s.positive, s.negative, s.zero) == (t.negative, t.positive, t.zero)


def test_eigensplit_equal_structures():
    assert simult_eigensplit(J2, J2).dims == (1, 0, 0, 1)


def test_eigensplit_opposite_structures():
    assert simult_eigensplit(J2, -J2).dims == (0, 1, 1, 0)


def test_eigensplit_gu11_signature():
    # centre action i on both copies against the complex structure (i, -i):
    # one copy agrees, the other disagrees, giving signature (1,1)
    c = Matrix.block_diag(J2, J2)
    j = Matrix.block_diag(J2, -J2)
    assert simult_eigensplit(c, j).dims == (1, 1, 1, 1)


def test_eigensplit_conjugation_symmetric_dims():
    rng = random.Random(5)
    for _ in range(10):
        while True:
            p = Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if p.det() != 0:
                break
        a = p.inv() @ Matrix.block_diag(J2, J2) @ p
        b = p.inv() @ Matrix.block_diag(J2, -J2) @ p
        d = simult_eigensplit(a, b).dims
        assert d[0] == d[3] and d[1] == d[2]
        assert sum(d) == 4


def test_eigensplit_rejects_bad_input():
    with pytest.raises(NotComplexStructureError):
        simult_eigensplit(Matrix.identity(2), J2)
    a = Matrix.block_diag(J2, J2)
    b = Matrix.block_diag(J2, -J2)
    p = Matrix([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotCommutingError):
        simult_eigensplit(p.inv() @ a @ p, b)


def test_gaussrat_field_ops():
    i = GaussRat.of(0, 1)
    x = GaussRat.of(Fraction(1, 2), 3)
    assert (x * i).re == -3 and (x * i).im == Fraction(1, 2)
    assert (x / x) == GaussRat.of(1, 0)
    assert x.conj().im == -3


def test_matrix_solve_and_inverse():
    m = Matrix([[2, 1], [1, 1]])
    assert m @ m.inv() == Matrix.identity(2)
    rhs = Matrix([[1], [0]])
    assert m @ m.solve(rhs) == rhs
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]]).solve(Matrix([[1], [0]]))


# -- seeded oracle: every Matrix operation against plain lists of Fractions -------


def _rand_entry(rng):
    kind = rng.random()
    if kind < 0.35:
        return Fraction(0)
    if kind < 0.7:
        return Fraction(rng.randint(-6, 6))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _rand_rows(rng, rows, cols):
    return [[_rand_entry(rng) for _ in range(cols)] for _ in range(rows)]


def _rand_low_rank(rng, n, rank):
    left, right = _rand_rows(rng, n, rank), _rand_rows(rng, rank, n)
    return _ref_mul(left, right)


def _ref_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def _ref_transpose(a):
    return [list(col) for col in zip(*a)]


def _ref_det(a):
    """Leibniz expansion over all permutations."""
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def _ref_rref(a):
    """Reduced row echelon form over Fractions and its pivot columns."""
    m = [list(r) for r in a]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _ref_signature(a):
    """Descartes' rule of signs on the characteristic polynomial, exact for a
    symmetric matrix since all its roots are real (Faddeev-LeVerrier)."""
    n = len(a)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # c_n, c_{n-1}, ..., c_0 of det(xI - a)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[x + coeffs[-1] * e for x, e in zip(r, ri)] for r, ri in zip(_ref_mul(a, m), ident)]
        am = _ref_mul(a, m)
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    zero = next(i for i, c in enumerate(reversed(coeffs)) if c)
    flipped = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    return Signature(changes(coeffs), changes(flipped), zero)


def _is_canonical(m: Matrix) -> bool:
    den = m.denominator
    flat = [x for r in m.numerators for x in r]
    return den > 0 and math.gcd(den, *flat) == 1 and all(type(x) is int for x in flat)


def test_oracle_elementwise_and_products():
    rng = random.Random(20240611)
    for _ in range(60):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, a2, b = _rand_rows(rng, r, k), _rand_rows(rng, r, k), _rand_rows(rng, k, c)
        s = _rand_entry(rng)
        ma, ma2, mb = Matrix(a), Matrix(a2), Matrix(b)
        flat = tuple(Fraction(x, ma.denominator) for r in ma.numerators for x in r)
        assert ma.tolist() == a and flat == tuple(x for row in a for x in row)
        assert all(ma[i, j] == a[i][j] for i in range(r) for j in range(k))
        assert ma.row(r - 1) == tuple(a[r - 1]) and ma.column(k - 1) == tuple(x[k - 1] for x in a)
        expected = {
            "matmul": (ma @ mb, _ref_mul(a, b)),
            "add": (ma + ma2, [[x + y for x, y in zip(p, q)] for p, q in zip(a, a2)]),
            "sub": (ma - ma2, [[x - y for x, y in zip(p, q)] for p, q in zip(a, a2)]),
            "neg": (-ma, [[-x for x in p] for p in a]),
            "scale": (ma.scale(s), [[s * x for x in p] for p in a]),
            "transpose": (ma.transpose(), _ref_transpose(a)),
            "kron": (ma.kron(mb), [[x * y for x in p for y in q] for p in a for q in b]),
            "block_diag": (
                Matrix.block_diag(ma, mb),
                [p + [Fraction(0)] * c for p in a] + [[Fraction(0)] * k + q for q in b],
            ),
        }
        for name, (got, ref) in expected.items():
            assert got.tolist() == ref, name
            assert got == Matrix(ref) and hash(got) == hash(Matrix(ref)), name
            assert _is_canonical(got), name
            assert (got.denominator == 1) == all(x.denominator == 1 for row in ref for x in row), name
            assert got.denominator == math.lcm(*(x.denominator for row in ref for x in row)), name
        assert (ma == ma2) == (a == a2)
        sq = _rand_rows(rng, k, k)
        msq = Matrix(sq)
        assert msq.trace() == sum((sq[i][i] for i in range(k)), Fraction(0))
        sym = [[sq[i][j] + sq[j][i] for j in range(k)] for i in range(k)]
        anti = [[sq[i][j] - sq[j][i] for j in range(k)] for i in range(k)]
        assert Matrix(sym).is_symmetric() and is_antisymmetric(Matrix(anti))
        assert msq.is_symmetric() == (sq == _ref_transpose(sq))
        assert is_antisymmetric(msq) == (sq == [[-x for x in p] for p in _ref_transpose(sq)])


def test_oracle_eliminations():
    rng = random.Random(1968)
    for trial in range(80):
        n = rng.randint(1, 5)
        rank = n if trial % 3 else rng.randint(0, n)
        a = _rand_rows(rng, n, n) if rank == n else _rand_low_rank(rng, n, max(rank, 1))
        if rank == 0:
            a = [[Fraction(0)] * n for _ in range(n)]
        m = Matrix(a)
        reduced, pivots = _ref_rref(a)
        det = _ref_det(a)
        assert m.det() == det
        assert m.rank() == len(pivots)
        if pivots:
            basis = m.column_space_basis()
            assert basis.tolist() == [[row[c] for c in pivots] for row in a]
        if det:
            inv = m.inv()
            assert inv.tolist() == [r[n:] for r in _ref_rref([r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)])[0]]
            assert _ref_mul(a, inv.tolist()) == Matrix.identity(n).tolist()
        else:
            with pytest.raises(ValueError):
                m.inv()
        w = rng.randint(1, 3)
        # a right-hand side in the image, and one that usually is not
        rhs = _ref_mul(a, _rand_rows(rng, n, w))
        x = m.solve(Matrix(rhs))
        assert _ref_mul(a, x.tolist()) == rhs
        aug, aug_pivots = _ref_rref([p + q for p, q in zip(a, rhs)])
        ref_x = [[Fraction(0)] * w for _ in range(n)]
        for row, c in zip(aug, aug_pivots):
            ref_x[c] = row[n:]
        assert x.tolist() == ref_x
        other = _rand_rows(rng, n, w)
        consistent = all(c < n for c in _ref_rref([p + q for p, q in zip(a, other)])[1])
        if consistent:
            assert _ref_mul(a, m.solve(Matrix(other)).tolist()) == other
        else:
            with pytest.raises(ValueError):
                m.solve(Matrix(other))
        sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        assert signature(Matrix(sym)) == _ref_signature(sym)


# -- the incremental Bareiss echelon against the Fraction RREF and Leibniz -------


def _echelon_rows(rng, r, k, extra):
    """r integer rows of width k + extra: random rows (negative and zero
    entries, so negative and zero pivots), zero rows, repeated rows and
    integer combinations of earlier rows on the first k columns whose
    trailing columns are fresh."""
    rows = []
    for _ in range(r):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * (k + extra)
        elif kind < 0.3 and rows:
            row = list(rng.choice(rows))
        elif kind < 0.5 and rows:
            cs = [rng.randint(-2, 2) for _ in rows]
            row = [sum(c * q[j] for c, q in zip(cs, rows)) for j in range(k)]
            row += [rng.randint(-3, 3) for _ in range(extra)]
        else:
            row = [rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(k + extra)]
        rows.append(row)
    return rows


def _rank(rows, k):
    return len(_ref_rref([[Fraction(x) for x in q[:k]] for q in rows])[1])


def _assert_echelon_invariant(ech, kept):
    """Each kept row is p times its reduced row: p at its own pivot, 0 at
    every other pivot, and p times the RREF of the kept rows elsewhere."""
    assert len(ech.rows) == len(ech.pivots) == len(kept)
    for row, c in zip(ech.rows, ech.pivots):
        assert [row[d] for d in ech.pivots] == [ech.p * (d == c) for d in ech.pivots]
    if kept:
        reduced, pivots = _ref_rref([[Fraction(x) for x in q] for q in kept])
        assert pivots == ech.pivots
        assert ech.rows == [[ech.p * x for x in q] for q in reduced]


def test_echelon_against_rref_and_leibniz():
    rng = random.Random(19680)
    for _ in range(300):
        r, k, extra = rng.randint(1, 6), rng.randint(1, 5), rng.choice((0, 0, 1, 3))
        rows = _echelon_rows(rng, r, k, extra)
        ech = Echelon(k)
        kept = []
        for i, v in enumerate(rows):
            res = ech.insert(v)
            assert (res is None) == (_rank(rows[: i + 1], k) > len(kept))
            if res is None:
                kept.append(v)
            else:
                assert not any(res[:k])
            _assert_echelon_invariant(ech, kept)
        assert len(ech.rows) == len(ech.pivots) == len(kept)
        assert ech.pivots == _ref_rref([[Fraction(x) for x in q[:k]] for q in rows])[1]
        assert ech.p > 0 and ech.sign in (1, -1)
        if not kept:
            assert ech.p == 1
            continue
        # sign * p is the minor of the kept rows on the pivot columns, also
        # as det, and the kept rows are p times the reduced rows
        minor = [[q[c] for c in ech.pivots] for q in kept]
        assert ech.sign * ech.p == _ref_det([[Fraction(x) for x in q] for q in minor]) != 0
        assert Matrix(minor).det() == ech.sign * ech.p
        reduced, pivots = _ref_rref([[Fraction(x) for x in q] for q in kept])
        assert pivots == ech.pivots
        assert ech.rows == [[ech.p * x for x in q] for q in reduced]
        by_pivot = dict(zip(pivots, reduced))
        # the residual of u is p times u minus its projection on the span,
        # zero on the first k columns exactly for members of the span
        for _ in range(4):
            if rng.random() < 0.5:
                cs = [rng.randint(-3, 3) for _ in kept]
                u = [sum(c * q[j] for c, q in zip(cs, kept)) for j in range(k + extra)]
            else:
                u = [rng.randint(-4, 4) for _ in range(k + extra)]
            res = ech.reduce(u)
            proj = [sum((u[c] * by_pivot[c][j] for c in pivots), Fraction(0)) for j in range(k + extra)]
            assert res == [ech.p * (x - y) for x, y in zip(u, proj)]
            assert (not any(res[:k])) == (_rank(kept + [u], k) == len(kept))
        if extra == 0 and r == k:
            assert Matrix(rows).det() == _ref_det([[Fraction(x) for x in q] for q in rows])


# -- the shapes of catalog data: monomial and block-diagonal matrices ------------


def _monomial(rng, n, values):
    """A signed permutation matrix whose nonzero entries are drawn from
    values, and its determinant: the sign of the permutation times the
    product of the entries."""
    perm = rng.sample(range(n), n)
    entries = [Fraction(rng.choice(values)) for _ in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r, (c, x) in enumerate(zip(perm, entries)):
        rows[r][c] = x
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    return rows, (-1) ** inversions * math.prod(entries)


def _block_diagonal(rng, sizes):
    """A block-diagonal matrix with dense blocks of the given sizes, about
    one in four of them singular, and its determinant by Leibniz on each
    block."""
    n = sum(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    det = Fraction(1)
    at = 0
    for size in sizes:
        block = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2))) for _ in range(size)]
                 for _ in range(size)]
        if rng.random() < 0.25:
            block[-1] = [2 * x for x in block[0]]
        for r, q in enumerate(block):
            rows[at + r][at : at + size] = q
        det *= _ref_det(block)
        at += size
    return rows, det


def _catalog_shapes(rng):
    """(name, rows, det) for monomial matrices with the entries of catalog
    pairings (+-1, +-2, -a and -b for a definite quaternion algebra (a, b),
    and one non-integer), one each at dimensions 32 and 64, and for
    block-diagonal matrices with dense 2 x 2 and 4 x 4 blocks."""
    out = []
    for n in (2, 5, 8, 12, 32, 64):
        a, b = -rng.randint(1, 5), -rng.randint(1, 7)
        out.append((f"monomial-{n}", *_monomial(rng, n, (1, -1, 2, -2, -a, -b, Fraction(1, 3)))))
    for k in range(6):
        sizes = [rng.choice((2, 4)) for _ in range(rng.randint(1, 5))]
        out.append((f"blocks-{k}-{sizes}", *_block_diagonal(rng, sizes)))
    # symmetric and alternating forms of the same shapes, as validate meets them
    for name, rows, _ in list(out):
        if len(rows) <= 12:
            t = _ref_transpose(rows)
            for tag, sign in (("sym", 1), ("alt", -1)):
                form = [[x + sign * y for x, y in zip(p, q)] for p, q in zip(rows, t)]
                out.append((f"{name}-{tag}", form, _ref_det(form) if len(rows) <= 6 else None))
    return out


def test_oracle_on_catalog_shapes():
    rng = random.Random(1992)
    for name, a, det in _catalog_shapes(rng):
        n = len(a)
        m = Matrix(a)
        if det is not None:
            assert m.det() == det, name
        dense = _rand_rows(rng, n, 3)
        assert (m @ Matrix(dense)).tolist() == _ref_mul(a, dense), name
        assert (Matrix(_ref_transpose(dense)) @ m).tolist() == _ref_mul(_ref_transpose(dense), a), name
        if n <= 32:
            assert (m @ m).tolist() == _ref_mul(a, a), name
        t = _ref_transpose(a)
        assert m.is_symmetric() == (a == t), name
        assert is_antisymmetric(m) == (a == [[-x for x in q] for q in t]), name
        reduced, pivots = _ref_rref(a)
        assert m.rank() == len(pivots), name
        assert m.column_space_basis().tolist() == [[row[c] for c in pivots] for row in a], name
        if len(pivots) == n:
            ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            inv = _ref_rref([p + q for p, q in zip(a, ident)])[0]
            assert m.inv().tolist() == [r[n:] for r in inv], name
        else:
            assert det in (None, 0), name
            with pytest.raises(ValueError):
                m.inv()
        rhs = _ref_mul(a, _rand_rows(rng, n, 2))
        aug, aug_pivots = _ref_rref([p + q for p, q in zip(a, rhs)])
        ref_x = [[Fraction(0)] * 2 for _ in range(n)]
        for row, c in zip(aug, aug_pivots):
            ref_x[c] = row[n:]
        assert m.solve(Matrix(rhs)).tolist() == ref_x, name
        other = _rand_rows(rng, n, 2)
        if any(c >= n for c in _ref_rref([p + q for p, q in zip(a, other)])[1]):
            with pytest.raises(ValueError):
                m.solve(Matrix(other))
        # the echelon behind det, inv and rank, row by row on the numerators
        ech, kept = Echelon(n), []
        for q in m.numerators:
            if ech.insert(q) is None:
                kept.append(q)
            _assert_echelon_invariant(ech, kept)


def test_rectangular_solve_and_rank():
    rng = random.Random(44)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_rows(rng, r, c)
        m = Matrix(a)
        assert m.rank() == len(_ref_rref(a)[1])
        rhs = _ref_mul(a, _rand_rows(rng, c, 2))
        assert _ref_mul(a, m.solve(Matrix(rhs)).tolist()) == rhs


def _ref_storage(rows):
    """(numerators, denominator) of rows read as Fractions, in lowest terms."""
    fr = [[Fraction(x) for x in r] for r in rows]
    den = math.lcm(*(x.denominator for r in fr for x in r))
    return tuple(tuple(int(x * den) for x in r) for r in fr), den


def test_oracle_integer_fast_path_matches_fraction_path():
    rng = random.Random(20261018)
    kinds = {
        "int": lambda: rng.randint(-9, 9),
        "bool": lambda: rng.random() < 0.5,
        "fraction": lambda: _rand_entry(rng),
        "string": lambda: f"{rng.randint(-9, 9)}/{rng.randint(1, 6)}",
    }
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        mix = rng.sample(sorted(kinds), rng.randint(1, len(kinds)))
        rows = [[kinds[rng.choice(mix)]() for _ in range(c)] for _ in range(r)]
        m = Matrix(rows)
        assert (m.numerators, m.denominator) == _ref_storage(rows), mix
        slow = Matrix([[Fraction(x) for x in q] for q in rows])  # every entry a Fraction
        assert (m.numerators, m.denominator) == (slow.numerators, slow.denominator)
        assert _is_canonical(m) and type(m.numerators) is tuple
        assert all(type(q) is tuple for q in m.numerators)
        assert (m.rows, m.cols) == (r, c)
    rows = [[1, 2], [3, 4]]
    m = Matrix(rows)
    rows[0][0] = 7  # the matrix keeps its own copy of list rows
    assert m.numerators == ((1, 2), (3, 4)) and m == Matrix(((1, 2), (3, 4)))
    assert Matrix(iter([iter([1, 2])])).numerators == ((1, 2),)
    for bad in ([], [[]], [[1], [1, 2]], [[Fraction(1, 2)], []]):
        with pytest.raises(ValueError):
            Matrix(bad)
    with pytest.raises(TypeError):
        Matrix([[1, 2.5]])


def test_canonical_form_compares_and_hashes_equal():
    half = Matrix([[Fraction(1, 2)]])
    assert half == Matrix([[1]]).scale(Fraction(1, 2))
    assert hash(half) == hash(Matrix([[1]]).scale(Fraction(1, 2)))
    assert (half.numerators, half.denominator) == (((1,),), 2)
    built = [
        Matrix([["1/2", 1], [0, "-3/4"]]),
        Matrix([[2, 4], [0, -3]]).scale(Fraction(1, 4)),
        Matrix([[Fraction(1, 2), Fraction(3, 3)], [Fraction(0, 5), Fraction(-6, 8)]]),
        Matrix([[1, 2], [0, -1]]).scale(Fraction(1, 2)) + Matrix([[0, 0], [0, -1]]).scale(Fraction(1, 4)),
        Matrix([[4, 8], [0, -6]]) @ Matrix.identity(2).scale(Fraction(1, 8)),
    ]
    assert len(set(built)) == 1
    assert all(m == built[0] and _is_canonical(m) for m in built)
    third = Matrix([[Fraction(1, 3)]])
    whole = third + Matrix([[Fraction(2, 3)]])
    assert whole == Matrix.identity(1) and whole.denominator == 1
    zero = Matrix([[Fraction(1, 6), 0]]).scale(0)
    assert zero == Matrix.zero(1, 2) and zero.denominator == 1
    assert Matrix([[0, 0]]) != Matrix([[0], [0]])
    assert repr(half) == "Matrix([['1/2']])"


# -- fraction-free signature against the characteristic-polynomial oracle -------


def _block_form(rng, n):
    """A symmetric n x n block-diagonal form of known signature: nonzero
    1 x 1 blocks of either sign, zero 1 x 1 blocks (the radical) and
    hyperbolic planes [[0, c], [c, 0]], in random order."""
    form = [[Fraction(0)] * n for _ in range(n)]
    sig = [0, 0, 0]
    at = 0
    while at < n:
        kind = rng.choice(("pos", "neg", "zero", "hyp") if at + 1 < n else ("pos", "neg", "zero"))
        c = Fraction(rng.randint(1, 7), rng.choice((1, 1, 2, 3)))
        if kind == "hyp":
            form[at][at + 1] = form[at + 1][at] = c if rng.random() < 0.5 else -c
            sig[0] += 1
            sig[1] += 1
            at += 2
        else:
            form[at][at] = {"pos": c, "neg": -c, "zero": Fraction(0)}[kind]
            sig[{"pos": 0, "neg": 1, "zero": 2}[kind]] += 1
            at += 1
    return form, Signature(*sig)


def _zero_diagonal_tail(rng, form, expected, m):
    """Append to form (direct sum) a random symmetric m x m block with zero
    diagonal, some of its rows zero; its signature comes from the oracle."""
    n = len(form)
    tail = [[Fraction(0)] * m for _ in range(m)]
    dead = {i for i in range(m) if rng.random() < 0.25}
    for i in range(m):
        for j in range(i + 1, m):
            if i not in dead and j not in dead:
                tail[i][j] = tail[j][i] = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
    t = _ref_signature(tail)
    out = [r + [Fraction(0)] * m for r in form] + [[Fraction(0)] * n + r for r in tail]
    return out, Signature(expected.positive + t.positive, expected.negative + t.negative, expected.zero + t.zero)


def _congruence(rng, form, upper, keep=0):
    """p^T form p for an invertible p: unit upper triangular with rational
    entries, the identity on the last ``keep`` coordinates (for a
    block-diagonal form the Schur complement of the leading block is then
    the trailing block, although p^T form p couples the two), or a dense
    integer matrix."""
    n = len(form)
    if upper:
        p = [[Fraction(int(i == j)) if j <= i or i >= n - keep
              else Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
              for j in range(n)] for i in range(n)]
    else:
        while True:
            p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if Matrix(p).det():
                break
    return _ref_mul(_ref_transpose(p), _ref_mul(form, p))


def test_signature_bareiss_against_oracle():
    rng = random.Random(1968)
    for trial in range(60):
        n = rng.randint(1, 12)
        keep = rng.randint(2, min(n, 6)) if trial % 3 == 1 and n > 1 else 0
        form, expected = _block_form(rng, n - keep)
        if keep:
            # p is the identity on the tail, so the Schur complement of the
            # leading block is the zero-diagonal tail: the rank-2 fix-up and
            # the zero rows meet a previous pivot other than 1
            form, expected = _zero_diagonal_tail(rng, form, expected, keep)
        a = _congruence(rng, form, upper=trial % 3 != 2, keep=keep)
        assert signature(Matrix(a)) == expected
        if n <= 8 or trial % 4 == 0:
            assert _ref_signature(a) == expected
    for trial in range(40):
        n = rng.randint(1, 16)
        form, expected = _monomial_form(rng, n, pairs=0 if trial % 2 else rng.randint(0, n // 2))
        assert signature(Matrix(form)) == expected
        # the monomial route answers above; the elimination still has to agree
        assert _bareiss_signature(Matrix(form).numerators) == expected
        if n <= 8:
            assert _ref_signature(form) == expected


def _monomial_form(rng, n, pairs):
    """A symmetric monomial n x n form with distinct non-unit entries and a
    few zero rows: diagonal when pairs is 0, else with that many hyperbolic
    planes on swapped coordinates.  The stored pivot changes from step to
    step, and most trailing rows are zero at its column, so elimination
    only rescales them."""
    values = iter([Fraction(v, rng.choice((1, 61))) * rng.choice((1, -1)) for v in rng.sample(range(2, 60), n)])
    perm = list(range(n))
    rng.shuffle(perm)
    form = [[Fraction(0)] * n for _ in range(n)]
    sig = [pairs, pairs, 0]
    for t in range(pairs):  # hyperbolic planes on swapped coordinates
        i, j = perm[2 * t], perm[2 * t + 1]
        form[i][j] = form[j][i] = next(values)
    for i in perm[2 * pairs :]:
        c = next(values) if rng.random() < 0.9 else Fraction(0)
        form[i][i] = c
        sig[0 if c > 0 else 1 if c < 0 else 2] += 1
    return form, Signature(*sig)


def test_signature_fixup_in_the_middle():
    # after the pivot 2 the Schur complement is the hyperbolic plane, so the
    # fix-up runs with a previous pivot of 2; then a negative true pivot
    assert signature(Matrix([[2, 2, 2], [2, 2, 3], [2, 3, 2]])) == Signature(2, 1, 0)
    # a zero row between pivots leaves the previous pivot in place
    assert signature(Matrix([[3, 0, 1], [0, 0, 0], [1, 0, -1]])) == Signature(1, 1, 1)
    # non-integer entries, zero diagonal from the start
    half = Fraction(1, 2)
    m = Matrix([[0, half, 0, 0], [half, 0, 1, 0], [0, 1, 0, half], [0, 0, half, 0]])
    assert signature(m) == _ref_signature(m.tolist()) == Signature(2, 2, 0)


# -- the monomial routes against elimination and the Fraction oracles ------------


def _scaled_permutation(rng, n):
    """A signed, scaled n x n permutation matrix over a random denominator,
    with some rows zero and, in about a third of the draws, some columns
    repeated (a map that is not a permutation)."""
    cols = rng.choices(range(n), k=n) if rng.random() < 0.35 else rng.sample(range(n), n)
    den = rng.choice((1, 1, 2, 3, 12))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r, c in enumerate(cols):
        if rng.random() >= 0.1:
            rows[r][c] = Fraction(rng.choice((1, -1, 1, -1, 2, -3, 5, -7)), den * rng.choice((1, 1, 2, 5)))
    return rows


def _symmetric_monomial(rng, n):
    """A symmetric monomial n x n form: hyperbolic planes on random pairs of
    coordinates, signed 1 x 1 blocks and zero rows, over a denominator."""
    perm = rng.sample(range(n), n)
    den = rng.choice((1, 2, 3, 12))
    form = [[Fraction(0)] * n for _ in range(n)]
    pairs = rng.randint(0, n // 2)
    for t in range(pairs):
        i, j = perm[2 * t], perm[2 * t + 1]
        form[i][j] = form[j][i] = Fraction(rng.choice((1, -1, 3, -5)), den)
    for i in perm[2 * pairs :]:
        form[i][i] = Fraction(rng.choice((1, -1, 2, -3, 0)), den)
    return form


def _echelon_det(m):
    ech = Echelon(m.rows)
    if any(ech.insert(r) is not None for r in m.numerators):
        return Fraction(0)
    return Fraction(ech.sign * ech.p, m.denominator**m.rows)


def test_monomial_columns():
    assert monomial_columns(((0, 3, 0), (0, 0, 0), (-1, 0, 0))) == [1, None, 0]
    assert monomial_columns(((0, 0, 1), (1, 0, 2), (0, 0, 0))) is None
    assert monomial_columns(Matrix.identity(5).numerators) == list(range(5))


def test_monomial_det_against_echelon_and_leibniz():
    rng = random.Random(1992_1)
    for trial in range(300):
        n = rng.randint(1, 7) if trial % 10 else rng.choice((16, 32, 64))
        a = _scaled_permutation(rng, n)
        m = Matrix(a)
        assert monomial_columns(m.numerators) is not None
        assert m.det() == _echelon_det(m), a
        if n <= 6:
            assert m.det() == _ref_det(a), a


def test_monomial_signature_against_bareiss_and_char_poly():
    rng = random.Random(1992_2)
    for trial in range(300):
        n = rng.randint(1, 8) if trial % 10 else rng.choice((16, 32, 64))
        form = _symmetric_monomial(rng, n)
        m = Matrix(form)
        assert monomial_columns(m.numerators) is not None
        assert signature(m) == _bareiss_signature(m.numerators), form
        if n <= 6:
            assert signature(m) == _ref_signature(form), form
    with pytest.raises(NotSymmetricError):
        signature(Matrix([[0, 1], [2, 0]]))


def test_monomial_products_against_fraction_oracle():
    rng = random.Random(1992_3)
    for _ in range(150):
        n, c = rng.randint(1, 9), rng.randint(1, 5)
        a, b = _scaled_permutation(rng, n), _scaled_permutation(rng, n)
        dense = _rand_rows(rng, n, c)
        ma, mb, md = Matrix(a), Matrix(b), Matrix(dense)
        assert (ma @ mb).tolist() == _ref_mul(a, b)
        assert (ma @ md).tolist() == _ref_mul(a, dense)
        assert (Matrix(_ref_transpose(dense)) @ ma).tolist() == _ref_mul(_ref_transpose(dense), a)
        assert _is_canonical(ma @ md) and _is_canonical(ma @ mb)


# -- the kept monomial forms against fresh copies that walk their rows ----------


def _fresh(m):
    """An equal matrix that remembers nothing, so every kernel walks its rows."""
    return Matrix(m.tolist())


def _fresh_form(m):
    """The monomial form (cols, vals) of m, from ``_monomial`` on the rows of
    a fresh copy, or None."""
    rows = _fresh(m).numerators
    cols = monomial_columns(rows)
    return None if cols is None else (cols, [0 if c is None else r[c] for r, c in zip(rows, cols)])


def _form_is_sound(m):
    """Whether m keeps no form, or the one a fresh copy gives and, after a
    transposed read, the one a fresh copy of its transpose gives."""
    form = m._form
    if not form:
        return form is False or _fresh_form(m) is None
    return form[:2] == _fresh_form(m) and (len(form) == 2 or form[2] == _fresh_form(m.transpose()))


def _map_pool(rng, n):
    """Matrices of every shape a kept form meets: scaled permutations
    (non-unit entries, denominators, some zero rows or repeated columns), a
    partial one with half its rows zero, symmetric monomial forms, scalars
    whose products _lowest reduces (1/2 times 2, 6 times 1/3), the zero
    matrix, and dense and sparse non-monomial ones."""
    partial = _scaled_permutation(rng, n)
    for r in rng.sample(range(n), n // 2):
        partial[r] = [Fraction(0)] * n
    sparse = [[Fraction(rng.choice((1, -2, 3))) if c in (r, (r + 1) % n) else Fraction(0) for c in range(n)]
              for r in range(n)]
    return (
        [Matrix(_scaled_permutation(rng, n)) for _ in range(4)]
        + [Matrix(partial), Matrix(_symmetric_monomial(rng, n)), Matrix(_symmetric_monomial(rng, n))]
        + [Matrix.scalar(n, c) for c in (Fraction(1, 2), 2, 6, Fraction(1, 3))]
        + [Matrix.zero(n, n), Matrix(_rand_rows(rng, n, n)), Matrix(sparse)]
    )


def test_kept_forms_agree_with_fresh_copies():
    # seeded runs of @, det, products_equal and signature on one pool,
    # whose products join it: each answer must be the one fresh copies give
    # by walking their rows; @ and transpose must come back with no form
    # and leave their factors' slots as they were; and every kept form,
    # plain or transposed, must be a fresh copy's, on a matrix that is ==
    # to that copy and hashes like it.  A form sits on each matrix det has
    # read, and only on those det or products_equal have met
    rng = random.Random(1992_4)
    for trial in range(40):
        n = rng.randint(1, 8) if trial % 8 else rng.choice((16, 32))
        pool = _map_pool(rng, n)
        scanned, met = set(), set()
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            step = rng.random()
            if step < 0.4:
                before = x._form, y._form
                z, t = x @ y, x.transpose()
                assert z == _fresh(x) @ _fresh(y) and _is_canonical(z)
                assert z._form is False and t._form is False and (x._form, y._form) == before
                pool.append(z)
            elif step < 0.6:
                assert x.det() == _fresh(x).det()
                scanned.add(id(x))
            elif step < 0.8:
                # the shape of validate's axioms: x^T y = s y x
                s = rng.choice((1, -1, 2))
                fx, fy = _fresh(x), _fresh(y)
                assert products_equal((Transposed(x), y), (y, x), s) is (fx.transpose() @ fy == (fy @ fx).scale(s))
                met |= {id(x), id(y)}
            else:
                form = x.transpose() @ rng.choice(pool[5:7]) @ x  # congruent to a symmetric form
                assert signature(form) == signature(_fresh(form)) == _bareiss_signature(form.numerators)
        assert all(map(_form_is_sound, pool))
        kept = [m for m in pool if m._form is not False]
        assert all(m == _fresh(m) and hash(m) == hash(_fresh(m)) for m in kept)
        assert scanned <= {id(m) for m in kept} <= scanned | met


def test_products_and_transposes_carry_no_map_and_leave_their_factors_alone():
    # a form is found only by scanning a matrix's own rows: each product and
    # transpose of the pool, its factors' forms found by det or not, comes
    # back without one, and a product writes no form onto its factors
    rng = random.Random(1992_5)
    for trial in range(20):
        n = rng.randint(1, 8) if trial % 10 else rng.choice((16, 32))
        pool = []
        for m in _map_pool(rng, n):
            mapped = _fresh(m)
            mapped.det()
            pool += [_fresh(m), mapped]
        assert any(m._form for m in pool) and (n == 1 or any(m._form is None for m in pool))
        for x in pool:
            assert x.transpose()._form is False
            for y in pool:
                before = x._form, y._form
                assert (x @ y)._form is False
                assert (x._form, y._form) == before


def _transpose_pool(rng):
    """Matrices whose transposes meet every case of a monomial form: scaled
    permutations (some with zero rows or repeated columns), one with half
    its rows zero, a rectangular monomial one, a dense one, and [[1, 1],
    [0, 0]], which is not monomial although its transpose is."""
    n, k = rng.randint(1, 9), rng.randint(1, 9)
    partial = _scaled_permutation(rng, n)
    for r in rng.sample(range(n), n // 2):
        partial[r] = [Fraction(0)] * n
    wide = [[Fraction(0)] * k for _ in range(n)]
    for r in range(n):
        if rng.random() < 0.8:
            wide[r][rng.randrange(k)] = Fraction(rng.choice((1, -1, 3)), rng.choice((1, 2)))
    return [Matrix(_scaled_permutation(rng, n)) for _ in range(3)] + [
        Matrix(partial), Matrix(wide), Matrix(_rand_rows(rng, n, k)), Matrix([[1, 1], [0, 0]])
    ]


def test_a_transpose_is_the_plain_transpose_and_finds_its_own_map():
    # each transpose, of a matrix whose form and transposed form det and
    # trace have found or not, equals the plain transpose, starts with no
    # form, and finds the one its own rows give
    rng = random.Random(1992_6)
    for _ in range(80):
        for m in _transpose_pool(rng):
            for found in (False, True):
                if found and m.is_square():
                    m.det()
                    trace(Transposed(m))
                t = m.transpose()
                assert t == Matrix([list(c) for c in zip(*m.tolist())])
                assert t._form is False
                if t.is_square():
                    assert t.det() == _fresh(m).det()
                    assert t._form == _fresh_form(t)
    # a dense matrix's form is None; its transpose scans its own rows, which are monomial
    d = Matrix([[1, 1], [0, 0]])
    d.det()
    assert d._form is None
    t = d.transpose()
    assert t._form is False and t.det() == 0 and t._form == ([0, 0], [1, 1])


def test_a_product_finds_its_own_map_when_det_first_needs_it():
    # a product of scaled permutations is monomial: it starts with no form,
    # and det finds the one its own rows give and multiplies as it should;
    # so does a product with a row of ones, whatever its own rows give
    rng = random.Random(1992_7)
    for _ in range(50):
        n = rng.randint(1, 12)
        a, b = Matrix(_scaled_permutation(rng, n)), Matrix(_scaled_permutation(rng, n))
        a.det()
        c = a @ b
        assert c._form is False
        assert c.det() == a.det() * b.det()
        assert c._form == _fresh_form(c) is not None
        d = Matrix([[1] * n] * n) @ c
        assert d.det() == (c.det() if n == 1 else 0)
        assert d._form == _fresh_form(d)


# -- monomial forms against the dense products they stand for -------------------


def _dense(factor):
    return factor.matrix.transpose() if isinstance(factor, Transposed) else factor


def _has_form(factor):
    """Whether the factor's matrix is monomial and, for a Transposed one,
    its transpose too: only then may ``_product_form`` read it."""
    matrices = (factor.matrix, _dense(factor)) if isinstance(factor, Transposed) else (factor,)
    return all(monomial_columns(m.numerators) is not None for m in matrices)


def _matrix_of(form):
    cols, vals, den = form
    n = len(cols)
    return Matrix.from_numerators([[v if c == k else 0 for k in range(n)] for c, v in zip(cols, vals)], den)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_forms_agree_with_dense_products(monkeypatch):
    # seeded chains of one to three factors from the map pool (scaled
    # permutations with zero rows and repeated columns, scalars, the zero
    # matrix, dense and sparse ones), each read plain or transposed: the
    # form of the chain must be the dense product's, and exist exactly
    # when every factor and transpose is monomial; products_equal,
    # signature and trace must answer as @, transpose and == do, also with
    # every form refused
    rng = random.Random(1992_7)
    decided = 0
    for trial in range(60):
        n = rng.randint(1, 8) if trial % 10 else rng.choice((16, 32))
        pool = _map_pool(rng, n)
        for _ in range(25):
            chain = [x if rng.random() < 0.6 else Transposed(x) for x in rng.choices(pool, k=rng.randint(1, 3))]
            other = [x if rng.random() < 0.6 else Transposed(x) for x in rng.choices(pool, k=rng.randint(1, 2))]
            product, rhs = reduce(matmul, map(_dense, chain)), reduce(matmul, map(_dense, other))
            form = _product_form(chain)
            assert (form is not None) == all(map(_has_form, chain))
            if form is not None:
                assert _matrix_of(form) == product
                decided += 1
            scale = rng.choice((1, -1, 2, Fraction(-1, 3)))
            cases = [
                (chain, other, scale, product == rhs.scale(scale)),
                (chain, [_fresh(product.scale(Fraction(1, scale)))], scale, True),
                (chain, (), scale, product == Matrix.scalar(n, scale)),
            ]
            for lhs, rhs_factors, s, expected in cases:
                assert products_equal(lhs, rhs_factors, s) is expected
            assert trace(*chain) == product.trace()
            x, form2 = rng.choice(pool), Matrix(_symmetric_monomial(rng, n))
            congruent = [Transposed(x), form2, x]
            assert signature(*congruent) == signature(_fresh(x.transpose() @ form2 @ x))
            assert _outcome(signature, *chain) == _outcome(signature, _fresh(product))
            with monkeypatch.context() as patch:
                patch.setattr("pelkit.linalg._product_form", lambda factors: None)
                assert [products_equal(*case[:3]) for case in cases] == [case[3] for case in cases]
                assert trace(*chain) == product.trace()
                assert signature(*congruent) == _bareiss_signature((x.transpose() @ form2 @ x).numerators)
    assert decided > 500


def test_forms_leave_rectangular_factors_to_the_dense_route():
    # no form for a factor that is not square, and @'s own shape error
    # where the chain does not multiply
    rng = random.Random(1992_8)
    for _ in range(40):
        for m in _transpose_pool(rng):
            gram = m.transpose() @ m
            assert _product_form([Transposed(m), m]) is None or m.is_square()
            assert products_equal((Transposed(m), m), (_fresh(gram),))
            assert signature(Transposed(m), m) == signature(_fresh(gram))
            assert trace(Transposed(m), m) == gram.trace()
            if m.rows != m.cols:
                assert not products_equal((m,), ()) and _product_form([m]) is None
                with pytest.raises(ValueError, match="shape mismatch in @"):
                    products_equal((m, m), (m,))
                with pytest.raises(NotSymmetricError, match="must be square"):
                    signature(m)


def test_scalar_matrices():
    for n in (1, 2, 5):
        for c in (0, 1, -1, 7, Fraction(-3, 4), "5/10"):
            m = Matrix.scalar(n, c)
            assert m == Matrix.identity(n).scale(c) and _is_canonical(m)
        assert -Matrix.identity(n) == Matrix.scalar(n, -1)
    with pytest.raises(ValueError):
        Matrix.scalar(0, 2)
