"""pelkit: exact rational toolkit for polarized algebra data.

Validation of (algebra, involution, pairing, complex structure) tuples,
classification of the associated real group into symplectic / unitary /
quaternionic-orthogonal factors, weight-character calculus with Hodge
types, admissibility decisions for torus-presented morphisms, and a
machine-checked law suite for the lattice-normalised isogeny category.

``import pelkit`` loads no submodule: each exported name imports its
module when it is first used (PEP 562), and each ``pel`` command imports
only the modules it runs.  ``from pelkit import X``, ``import *`` and
``dir`` see every export.
"""

import importlib
from operator import attrgetter

_EXPORTS = {
    ".linalg": "Matrix Signature signature",
    ".algebras": "AlgebraPresentation CatalogFactor check_anti_involution check_positive",
    ".peldata": "Classification GroupFactorization PelDatum ShimuraReport classify factorize shimura_report validate",
    ".characters": "Factor RootDatum TorusMap WeightChar decompose dual irr_char restrict tensor weyl_dim",
    ".hodge": "HodgeCochar HodgeType auto_cochar enumerate_av_irreducibles hodge_type is_av_type",
    ".admissibility": "AdmissibilityVerdict MorphismSpec RepSide decide",
    ".isogeny": "IsoMorphism LatticeObject arrow compose direct_sum direct_sum_arrows identity_arrow "
    "lattice_change_iso minimal_n run_law_suite",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]
__version__ = "0.1.0"


def _lazy(namespace, imports):
    """The PEP 562 ``__getattr__`` of the module whose globals are namespace:
    imports maps a module, named as in an import statement, to names
    separated by spaces.  A name is imported on first access and bound in
    namespace, so later accesses never reach the hook."""
    module_of = {name: module for module, names in imports.items() for name in names.split()}

    def lookup(name):
        if name not in module_of:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module_of[name], __name__), name)
        return value

    return lookup


class _Deferred:
    """Stands for the pelkit submodule ``name`` in the global of that name
    until its first attribute read, which imports the module and rebinds the
    global to it: a function-local ``from .x import y`` costs more per call."""

    __slots__ = ("namespace", "name")

    def __init__(self, namespace, name):
        self.namespace, self.name = namespace, name

    def __getattr__(self, attr):
        module = self.namespace[self.name] = importlib.import_module("." + self.name, __name__)
        return getattr(module, attr)


class _Value:
    """Base of the immutable value types.  A type states its fields once,
    as its ``__slots__``, and everything else follows from them.

    The constructor takes the fields in slot order, by position or by
    name, and refuses a missing field, an extra one, an unknown name and a
    field given twice with ``TypeError``, as a ``def`` would.  The trailing
    fields named in the class's ``_defaults`` may be left out.  It stores
    the fields through their slot descriptors, the one place where a value
    is written, and then calls ``__post_init__``, where a type checks them.
    A type that normalises or derives a field keeps a short ``__init__``
    that delegates here; ``_Value.__init__(object.__new__(cls), ...)``
    builds a value from fields already normal.

    ``==``, ``hash`` and ``repr`` read the fields named in ``_compared``,
    by default every slot."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)
        cls._key = attrgetter(*cls._compared)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The fields in slot order from a call that names some of them."""
        slots, name = cls.__slots__, cls.__name__
        if len(args) > len(slots):
            raise TypeError(f"{name}() takes {len(slots)} arguments but {len(args)} were given")
        for key in kwargs:
            if key in slots[: len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in slots:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        fields = {**cls._defaults, **kwargs}
        missing = [key for key in slots[len(args) :] if key not in fields]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(map(repr, missing))}")
        return args + tuple(fields[key] for key in slots[len(args) :])

    def __post_init__(self):
        pass

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other is self:  # compose's endpoints are usually one object
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"


def _as_dict(self):
    """The ``to_dict`` of the value types a command prints: the fields by
    name, with a tuple field, and each tuple inside it, made a list."""
    out = {}
    for name in self.__slots__:
        value = getattr(self, name)
        if type(value) is tuple:
            value = [list(x) if type(x) is tuple else x for x in value]
        out[name] = value
    return out


__getattr__ = _lazy(globals(), _EXPORTS)


def __dir__():
    return sorted(set(globals()) | set(__all__))
