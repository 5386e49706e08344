import itertools
import math
import random
from fractions import Fraction

import pytest
from gauss_oracle import GaussRat, simult_eigensplit

from pelkit.linalg import (
    Matrix,
    NotCommutingError,
    NotComplexStructureError,
    NotSymmetricError,
    RankDeficientError,
    Signature,
    signature,
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
        assert ma.tolist() == a and ma.flatten() == tuple(x for row in a for x in row)
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
            assert got.is_integer() == all(x.denominator == 1 for row in ref for x in row), name
            assert got.denominator_lcm() == math.lcm(*(x.denominator for row in ref for x in row)), name
        assert (ma == ma2) == (a == a2)
        sq = _rand_rows(rng, k, k)
        msq = Matrix(sq)
        assert msq.trace() == sum((sq[i][i] for i in range(k)), Fraction(0))
        sym = [[sq[i][j] + sq[j][i] for j in range(k)] for i in range(k)]
        anti = [[sq[i][j] - sq[j][i] for j in range(k)] for i in range(k)]
        assert Matrix(sym).is_symmetric() and Matrix(anti).is_antisymmetric()
        assert msq.is_symmetric() == (sq == _ref_transpose(sq))
        assert msq.is_antisymmetric() == (sq == [[-x for x in p] for p in _ref_transpose(sq)])


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


def test_rectangular_solve_and_rank():
    rng = random.Random(44)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_rows(rng, r, c)
        m = Matrix(a)
        assert m.rank() == len(_ref_rref(a)[1])
        rhs = _ref_mul(a, _rand_rows(rng, c, 2))
        assert _ref_mul(a, m.solve(Matrix(rhs)).tolist()) == rhs


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
    assert whole == Matrix.identity(1) and whole.is_integer() and whole.denominator == 1
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
