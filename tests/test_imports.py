"""Each ``pel`` command imports only the layers on its own path, and the
package loads a submodule when one of its names is first used.  No command
imports ``dataclasses`` or ``inspect``: the value types are slotted classes.

The module sets are read from fresh interpreters, so they hold for the
``pel`` console script as installed, and the exports are checked against
the list the package had when it imported every module eagerly.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import pelkit

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")

EXPORTS = {
    "linalg": "Matrix Signature signature",
    "algebras": "AlgebraPresentation CatalogFactor check_anti_involution check_positive",
    "peldata": "Classification GroupFactorization PelDatum ShimuraReport classify shimura_report validate",
    "characters": "Factor RootDatum TorusMap WeightChar decompose dual irr_char restrict tensor weyl_dim",
    "hodge": "HodgeCochar HodgeType auto_cochar enumerate_av_irreducibles hodge_type is_av_type",
    "admissibility": "AdmissibilityVerdict MorphismSpec RepSide decide",
    "isogeny": "IsoMorphism LatticeObject arrow compose direct_sum direct_sum_arrows identity_arrow "
    "lattice_change_iso minimal_n run_law_suite",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}

BASE = {"pelkit", "pelkit.cli", "pelkit.errors", "pelkit.serialize"}
DATUM = {"pelkit.peldata", "pelkit.algebras", "pelkit.linalg"}

LOADS = [
    (["validate", os.path.join(DOCS, "gu11.json")], BASE | DATUM),
    (["classify", os.path.join(DOCS, "gu11.json")], BASE | DATUM | {"pelkit.characters"}),
    (
        ["hodge", "--datum", os.path.join(DOCS, "gu11.json"), "--rep", "std"],
        BASE | DATUM | {"pelkit.characters", "pelkit.hodge"},
    ),
    (["rep", "decompose", "--type", "C2", "--tensor", "std,std"], BASE | {"pelkit.characters"}),
    (
        ["admissible", "--morphism", os.path.join(DOCS, "det_twist_morphism.json")],
        BASE | {"pelkit.admissibility", "pelkit.characters"},
    ),
    (["isofun", "check", "--trials", "2"], BASE | {"pelkit.isogeny", "pelkit.linalg"}),
    (
        ["fixtures"],
        BASE | DATUM | {"pelkit.admissibility", "pelkit.characters", "pelkit.hodge", "pelkit.fixtures"},
    ),
]


def _held(code: str) -> set:
    """The modules a fresh interpreter holds after running code."""
    probe = code + "\nprint(sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _loaded(code: str) -> set:
    """The pelkit modules a fresh interpreter holds after running code."""
    return {m for m in _held(code) if m.startswith("pelkit")}


@pytest.mark.parametrize("argv, expected", LOADS, ids=[" ".join(a[:2]) for a, _ in LOADS])
def test_each_command_loads_only_its_layers(argv, expected):
    held = _held(f"import pelkit.cli\npelkit.cli.main({argv!r})")
    assert {m for m in held if m.startswith("pelkit")} == expected
    # of the stdlib, what the command adds to a bare interpreter's modules,
    # which differ between versions
    assert not {"dataclasses", "inspect"} & (held - _held("pass"))


def _modules(*names):
    return {f"pelkit.{name}" for name in names}


def test_the_lean_commands_skip_the_layers_they_do_not_run():
    loads = {argv[0]: modules for argv, modules in LOADS}
    assert not loads["validate"] & _modules("hodge", "admissibility", "isogeny", "fixtures", "characters")
    assert not loads["rep"] & _modules("algebras", "peldata", "isogeny")
    assert not loads["isofun"] & _modules("characters", "algebras", "peldata")


def test_bare_import_loads_no_submodule():
    assert _loaded("import pelkit") == {"pelkit"}
    assert _loaded("import pelkit\nassert 'Matrix' in dir(pelkit)") == {"pelkit"}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pelkit import *", namespace)
    namespace.pop("__builtins__")
    assert len(NAMES) == 44
    assert set(namespace) == set(NAMES) == set(pelkit.__all__)
    for name, module in NAMES.items():
        assert namespace[name] is getattr(importlib.import_module(f"pelkit.{module}"), name)


def test_dir_lists_every_export():
    assert set(NAMES) <= set(dir(pelkit))


def test_unknown_names_raise_attribute_error():
    import pelkit.cli

    for module in (pelkit, pelkit.cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")
    from pelkit import linalg  # a submodule is still importable by name

    assert linalg.Matrix is pelkit.Matrix
