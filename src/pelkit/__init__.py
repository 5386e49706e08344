"""pelkit: exact rational toolkit for polarized algebra data.

Validation of (algebra, involution, pairing, complex structure) tuples,
classification of the associated real group into symplectic / unitary /
quaternionic-orthogonal factors, weight-character calculus with Hodge
types, admissibility decisions for torus-presented morphisms, and a
machine-checked law suite for the lattice-normalised isogeny category.
"""

from .linalg import Matrix, Signature, signature
from .algebras import (
    AlgebraPresentation,
    CatalogFactor,
    check_anti_involution,
    check_positive,
    classify_factor,
)
from .peldata import (
    Classification,
    GroupFactorization,
    PelDatum,
    ShimuraReport,
    classify,
    factorize,
    shimura_report,
    validate,
)
from .characters import (
    Factor,
    RootDatum,
    TorusMap,
    WeightChar,
    decompose,
    dual,
    irr_char,
    restrict,
    tensor,
    weyl_dim,
)
from .hodge import HodgeCochar, HodgeType, auto_cochar, enumerate_av_irreducibles, hodge_type, is_av_type
from .admissibility import (
    AdmissibilityVerdict,
    MorphismSpec,
    RepSide,
    check_symplectic_source_admissible,
    decide,
)
from .isogeny import (
    IsoMorphism,
    LatticeObject,
    arrow,
    compose,
    direct_sum,
    direct_sum_arrows,
    identity_arrow,
    lattice_change_iso,
    minimal_n,
    run_law_suite,
)

__version__ = "0.1.0"
