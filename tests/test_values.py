"""Value semantics of pelkit's immutable value types.

Each type is a slotted class on ``pelkit._Value``.  Its fields cannot be
assigned or deleted; ``==`` and ``hash`` read every field except the ones a
type derives or caches (an algebra's and a lattice's inverse basis, an
arrow's minimal n); instances of different types are never equal; and
positional and keyword construction agree.  A constructor binds its
arguments as a ``def`` with one parameter per field would, and each type's
checks raise the same exception, with the same message, on every path.
"""

import itertools

import pytest

import pelkit
from pelkit.admissibility import AdmissibilityVerdict, MorphismSpec, RepSide
from pelkit.algebras import (
    MAT_DEF_QUAT,
    MAT_IMAG_QUAD,
    MAT_Q,
    AlgebraPresentation,
    CatalogFactor,
    InvolutionReport,
    _Closure,
)
from pelkit.characters import Factor, RootDatum, TorusMap, UnsupportedTypeError, WeightChar, standard_char
from pelkit.fixtures import modular_curve_datum
from pelkit.hodge import HodgeCochar, HodgeType
from pelkit.isogeny import IsoMorphism, LatticeObject
from pelkit.linalg import Echelon, Matrix, Signature
from pelkit.peldata import (
    Classification,
    FactorGroup,
    GroupFactorization,
    PelDatum,
    ShimuraReport,
    ValidationReport,
    classify,
)

I2 = Matrix.identity(2)
RD = RootDatum((Factor("C", 1),))
SIDE = RepSide(RD, standard_char(RD, [1]))
DATUM = modular_curve_datum()
CL = classify(DATUM)
Z2 = LatticeObject.standard(2)

# Each type with the fields of one instance, in the order of its constructor.
FIELDS = {
    Signature: {"positive": 2, "negative": 1, "zero": 0},
    CatalogFactor: {"kind": MAT_IMAG_QUAD, "n": 1, "multiplicity": 2, "d": -1},
    AlgebraPresentation: {"dim_v": 2, "generators": None, "factors": (CatalogFactor(MAT_Q, 1, 2),), "basis": I2},
    _Closure: {
        "basis": (I2,),
        "star_of": (I2,),
        "echelon": Echelon(8),
        "linearity_witness": None,
        "reversal_witness": (I2, I2),
    },
    InvolutionReport: {"ok": False, "reason": "star is not an involution", "witness": (I2, -I2)},
    PelDatum: {"algebra": DATUM.algebra, "pairing": DATUM.pairing, "j": DATUM.j},
    ValidationReport: {"valid": False, "failure_code": "shape", "message": "bad shape", "passed": ()},
    FactorGroup: {"kind": "unitary", "params": (1, 1), "catalog_n": 1},
    GroupFactorization: {"symplectic": (1,), "unitary": ((1, 1),), "orthogonal": (), "similitude": False},
    ShimuraReport: {
        "is_shimura_datum_for_g0": True,
        "g_connected": True,
        "center_condition": True,
        "offending_factors": (),
        "center_reasons": ("similitude: Q-split torus",),
    },
    Classification: {
        "factorization": CL.factorization,
        "details": CL.details,
        "root_datum": CL.root_datum,
        "standard_char": CL.standard_char,
    },
    Factor: {"series": "D", "n": 3},
    RootDatum: {"factors": (Factor("C", 2), Factor("A", 1)), "central_rank": 2},
    TorusMap: {"weight_pullback": ((1, 0), (0, 1), (1, 1))},
    HodgeCochar: {"mu2": (1, -1), "mu_bar2": (-1, 3), "kappa2": (0, 2)},
    HodgeType: {"pairs": frozenset({(-1, 0), (0, -1)})},
    RepSide: {"root_datum": SIDE.root_datum, "standard_char": SIDE.standard_char},
    MorphismSpec: {"source": SIDE, "target": SIDE, "torus_map": TorusMap.identity(2)},
    AdmissibilityVerdict: {"admissible": True, "witness_n": 1, "missing_constituents": ()},
    LatticeObject: {"dim": 2, "basis": Matrix([[1, 1], [0, 2]])},
    IsoMorphism: {"src": Z2, "dst": LatticeObject.scaled(2, 3), "raw": I2, "n_used": 3},
}
# The fields that == and hash ignore: each is derived from the others.
NOT_COMPARED = {
    AlgebraPresentation: {"basis_inv"},
    LatticeObject: {"basis_inv"},
    IsoMorphism: {"n_used"},
}
TYPES = list(FIELDS)
IDS = [cls.__name__ for cls in TYPES]


def _sample(cls):
    return cls(**FIELDS[cls])


def test_every_value_type_is_covered():
    assert len(TYPES) == 21
    subclasses = {cls for cls in pelkit._Value.__subclasses__() if cls.__module__.startswith("pelkit.")}
    assert subclasses == {*TYPES, WeightChar}  # WeightChar keeps its own ==, hash and repr


def test_weight_char_fields_cannot_be_assigned_or_deleted():
    x = WeightChar({(1, 0): 2})
    hash(x)  # fills the cached hash
    for name in ("_m", "_hash", "_hodge"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == WeightChar({(1, 0): 2}) and x.mult((1, 0)) == 2


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = _sample(cls)
    for name in (*cls.__slots__, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == _sample(cls)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_eq_and_hash_ignore_exactly_the_derived_fields(cls):
    obj = _sample(cls)
    for name in cls.__slots__:
        other = object.__new__(cls)
        for slot in cls.__slots__:
            object.__setattr__(other, slot, getattr(obj, slot))
        assert other == obj and hash(other) == hash(obj)
        object.__setattr__(other, name, object())  # equal to nothing but itself
        if name in NOT_COMPARED.get(cls, ()):
            assert other == obj and hash(other) == hash(obj)
        else:
            assert other != obj and not other == obj  # noqa: SIM201


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_an_instance_equals_itself_and_its_equal_copies(cls):
    # == answers an instance compared with itself before it reads any field
    x, y = _sample(cls), _sample(cls)
    assert x is not y
    assert x == x and not (x != x) and x.__eq__(x) is True  # noqa: PLR0124
    assert x == y and y == x and not (x != y) and hash(x) == hash(y)
    for other in TYPES:
        if other is not cls:
            assert x != _sample(other) and not x == _sample(other)  # noqa: SIM201


def test_instances_of_different_types_never_compare_equal():
    samples = [_sample(cls) for cls in TYPES]
    for a, b in itertools.permutations(samples, 2):
        assert a != b and not a == b  # noqa: SIM201
    for obj in samples:  # nor does a tuple of an instance's fields
        fields = tuple(getattr(obj, name) for name in type(obj)._compared)
        assert obj != fields and obj != fields[0]


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    by_position, by_keyword = cls(*FIELDS[cls].values()), cls(**FIELDS[cls])
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    for name in cls.__slots__:
        assert getattr(by_position, name) == getattr(by_keyword, name)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_construction_binds_its_arguments_as_a_def_would(cls):
    fields = FIELDS[cls]
    values = list(fields.values())
    rest = list(fields)[1:]
    past_every_field = [None] * (len(cls.__slots__) + 1 - len(values))
    for bad in (
        lambda: cls(),  # every field missing
        lambda: cls(**{name: fields[name] for name in rest}),  # the first field missing
        lambda: cls(*values, *past_every_field),  # one positional argument more than there are fields
        lambda: cls(**fields, no_such_field=1),  # an unknown keyword
        lambda: cls(values[0], **fields),  # the first field by position and by name
    ):
        with pytest.raises(TypeError):
            bad()


# Each default a type declares: the type, the field left out, and the other
# fields of a value that is valid with that default.
DEFAULTS = (
    (CatalogFactor, "d", {"kind": MAT_DEF_QUAT, "n": 1, "multiplicity": 2, "a": -1, "b": -3}),
    (CatalogFactor, "a", {"kind": MAT_IMAG_QUAD, "n": 2, "multiplicity": 1, "d": -5, "b": 0}),
    (CatalogFactor, "b", {"kind": MAT_Q, "n": 1, "multiplicity": 4, "d": 0, "a": 0}),
    (InvolutionReport, "reason", {"ok": True, "witness": ()}),
    (InvolutionReport, "witness", {"ok": False, "reason": "star is not an involution"}),
    (GroupFactorization, "similitude", {"symplectic": (), "unitary": ((2, 0),), "orthogonal": (1,)}),
)


def test_defaults():
    assert RootDatum((Factor("C", 1),)).central_rank == 1
    assert InvolutionReport(True).reason == "" and InvolutionReport(True).witness == ()
    assert GroupFactorization((1,), (), ()).similitude is True
    assert CatalogFactor(MAT_Q, 2, 1) == CatalogFactor(MAT_Q, 2, 1, d=0, a=0, b=0)
    raw = AlgebraPresentation(2, ((I2, I2),))
    assert raw.factors == () and raw.basis is None and raw.basis_inv is None and raw.mode == "raw"
    declared = {(cls, name) for cls in pelkit._Value.__subclasses__() for name in cls._defaults}
    assert {(cls, name) for cls, name, _ in DEFAULTS} == declared


@pytest.mark.parametrize(("cls", "name", "others"), DEFAULTS, ids=[f"{c.__name__}.{n}" for c, n, _ in DEFAULTS])
def test_defaults_fill_each_left_out_field(cls, name, others):
    default = cls._defaults[name]
    given = cls(**others, **{name: default})
    assert cls(**others) == given and getattr(cls(**others), name) == default
    # the default also fills in after the fields before it are given by position
    leading = cls.__slots__[: cls.__slots__.index(name)]
    assert cls(*(others[key] for key in leading), **{k: v for k, v in others.items() if k not in leading}) == given


# Each check a type runs on its fields: the type, fields that fail it (in
# order, up to the last one given), and the exception and message it raises.
CHECKS = (
    (CatalogFactor, {"kind": "mat_r", "n": 1, "multiplicity": 1}, ValueError, "unknown catalog kind 'mat_r'"),
    (CatalogFactor, {"kind": MAT_Q, "n": True, "multiplicity": 1}, ValueError, "n must be an integer, got True"),
    (CatalogFactor, {"kind": MAT_Q, "n": 1, "multiplicity": 1, "d": 0, "a": 0, "b": 1.0}, ValueError, "b must be an integer, got 1.0"),
    (CatalogFactor, {"kind": MAT_Q, "n": 1, "multiplicity": 0}, ValueError, "n and multiplicity must be >= 1"),
    (CatalogFactor, {"kind": MAT_Q, "n": 1, "multiplicity": 1, "d": -1}, ValueError, "mat_q takes no parameter d, got -1"),
    (
        CatalogFactor,
        {"kind": MAT_IMAG_QUAD, "n": 1, "multiplicity": 1, "d": -(10**9) - 1},
        ValueError,
        "|d| must be at most 1000000000, got -1000000001",
    ),
    (
        CatalogFactor,
        {"kind": MAT_IMAG_QUAD, "n": 1, "multiplicity": 1, "d": -4},
        ValueError,
        "imaginary quadratic centre needs squarefree d < 0",
    ),
    (
        CatalogFactor,
        {"kind": MAT_DEF_QUAT, "n": 1, "multiplicity": 1, "d": 0, "a": -1, "b": 2},
        ValueError,
        "definite quaternion algebra needs a, b < 0",
    ),
    (Factor, {"series": "B", "n": 2}, UnsupportedTypeError, "unknown series 'B'"),
    (Factor, {"series": "C", "n": 0}, ValueError, "block length must be >= 1"),
    (RootDatum, {"factors": (), "central_rank": -1}, ValueError, "central_rank must be >= 0"),
    (TorusMap, {"weight_pullback": ((1, 0), (1,))}, ValueError, "ragged pullback matrix"),
    (HodgeCochar, {"mu2": (1,), "mu_bar2": (1, 1), "kappa2": (2,)}, ValueError, "covector lengths differ"),
    (
        HodgeCochar,
        {"mu2": (1, 0), "mu_bar2": (1, 1), "kappa2": (2, 2)},
        ValueError,
        "mu + mu_bar must equal the central weight covector",
    ),
    (
        MorphismSpec,
        {"source": SIDE, "target": SIDE, "torus_map": TorusMap.identity(3)},
        ValueError,
        "torus map rows do not match the source rank",
    ),
    (
        MorphismSpec,
        {"source": SIDE, "target": SIDE, "torus_map": TorusMap(((1, 0, 0), (0, 1, 0)))},
        ValueError,
        "torus map columns do not match the target rank",
    ),
    (AlgebraPresentation, {"dim_v": 0, "generators": ()}, ValueError, "dim_v must be >= 1, got 0"),
    (
        AlgebraPresentation,
        {"dim_v": 2, "generators": ((I2, I2),), "factors": (), "basis": I2},
        ValueError,
        "a raw presentation takes no basis",
    ),
    (LatticeObject, {"dim": -1, "basis": None}, ValueError, "dimension must be >= 0"),
    (LatticeObject, {"dim": 2, "basis": Matrix([[1, 2], [2, 4]])}, ValueError, "basis must be invertible"),
)


@pytest.mark.parametrize(
    ("cls", "fields", "error", "message"), CHECKS, ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(CHECKS)]
)
def test_checks_raise_the_same_error_by_position_and_by_keyword(cls, fields, error, message):
    for build in (lambda: cls(**fields), lambda: cls(*fields.values())):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error and str(caught.value) == message


def test_repr_names_the_compared_fields():
    assert repr(Factor("C", 2)) == "Factor(series='C', n=2)"
    assert repr(Signature(1, 0, 2)) == "Signature(positive=1, negative=0, zero=2)"
    assert repr(LatticeObject.standard(1)) == f"LatticeObject(dim=1, basis={Matrix.identity(1)!r})"
