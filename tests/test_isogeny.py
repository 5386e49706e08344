from fractions import Fraction

import pytest

from pelkit.isogeny import (
    ZERO_LATTICE,
    LatticeObject,
    ShapeMismatchError,
    arrow,
    compose,
    direct_sum,
    direct_sum_arrows,
    identity_arrow,
    lattice_change_iso,
    minimal_n,
    run_law_suite,
)
from pelkit.linalg import Matrix

Z1 = LatticeObject.standard(1)
Z2 = LatticeObject.standard(2)


def test_minimal_n_identity_into_scaled():
    assert minimal_n(Matrix.identity(2), Z2, LatticeObject.scaled(2, 3)) == 3


def test_minimal_n_already_integral():
    assert minimal_n(Matrix([[2]]), Z1, Z1) == 1


def test_minimal_n_denominator_lcm():
    f = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert minimal_n(f, Z2, Z2) == 6


def test_arrow_normalisation_independent_of_n():
    f = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    base = arrow(f, Z2, Z2)
    assert base.n_used == 6 and base.scale == Fraction(1, 6)
    padded = arrow(f, Z2, Z2, n=12)
    assert padded == base and padded.n_used == 6
    with pytest.raises(ValueError):
        arrow(f, Z2, Z2, n=4)


def test_compose_unit_law():
    f = arrow(Matrix([[Fraction(1, 2)]]), Z1, Z1)
    assert compose(f, identity_arrow(Z1)) == f
    assert compose(identity_arrow(Z1), f) == f


def test_compose_chain_of_scaled_lattices():
    l1, l2, l3 = Z1, LatticeObject.scaled(1, 2), LatticeObject.scaled(1, 6)
    f12 = arrow(Matrix.identity(1), l1, l2)
    f23 = arrow(Matrix.identity(1), l2, l3)
    assert f12.n_used == 2 and f23.n_used == 3
    chained = compose(f23, f12)
    direct = arrow(Matrix.identity(1), l1, l3)
    assert chained == direct and chained.n_used == 6


def test_compose_shape_mismatch():
    f = arrow(Matrix.identity(1), Z1, Z1)
    g = arrow(Matrix.identity(1), LatticeObject.scaled(1, 2), Z1)
    with pytest.raises(ShapeMismatchError):
        compose(g, f)


def test_lattice_change_iso():
    a, b = Z1, LatticeObject.scaled(1, 5)
    psi, psi_inv = lattice_change_iso(a, b)
    assert psi.n_used == 5
    assert psi_inv.n_used == 1
    # in lattice coordinates the inverse is multiplication by 5
    coords = psi_inv.dst.basis.inv() @ psi_inv.raw @ psi_inv.src.basis
    assert coords == Matrix([[5]])
    assert compose(psi_inv, psi) == identity_arrow(a)
    assert compose(psi, psi_inv) == identity_arrow(b)


def test_lattice_change_same_object_is_identity():
    psi, psi_inv = lattice_change_iso(Z2, Z2)
    assert psi == identity_arrow(Z2) == psi_inv


def test_direct_sum_objects():
    assert direct_sum(Z1, Z1) == Z2
    assert direct_sum(Z1, ZERO_LATTICE) == Z1
    assert direct_sum(ZERO_LATTICE, Z2) == Z2


def test_direct_sum_arrow_normalisation():
    f = identity_arrow(Z1)
    g = arrow(Matrix.identity(1), Z1, LatticeObject.scaled(1, 3))
    summed = direct_sum_arrows(f, g)
    assert summed.n_used == 3
    assert summed.src == Z2


def test_law_suite_all_pass():
    results = run_law_suite(trials=120, seed=2024)
    assert set(results) == {
        "independence_of_n",
        "category_laws",
        "psi_isomorphism",
        "psi_naturality",
        "direct_sum_functorial",
        "direct_sum_normalisation",
    }
    for law, report in results.items():
        assert report["pass"], f"{law}: {report}"
        assert report["failures"] == 0


def test_law_suite_deterministic():
    assert run_law_suite(trials=40, seed=7) == run_law_suite(trials=40, seed=7)


def test_lattice_object_validation():
    with pytest.raises(ValueError):
        LatticeObject(2, Matrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        LatticeObject(2, Matrix.identity(3))


def test_lattice_basis_inverse_is_computed_once():
    basis = Matrix([[2, 1], [0, Fraction(1, 3)]])
    lat = LatticeObject(2, basis)
    assert lat.basis_inv == basis.inv()
    assert lat.basis_inv is lat.basis_inv
    # the cached inverse is not a field: equality and hashing ignore it
    assert lat == LatticeObject(2, basis) and hash(lat) == hash(LatticeObject(2, basis))
    assert minimal_n(Matrix.identity(2), Z2, lat) == 2  # basis^-1 = [[1/2, -3/2], [0, 3]]
