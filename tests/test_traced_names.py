"""Every binding the benchmark's span tracer patches exists in pelkit.

``perfbench/tracing.py`` looks each ``SPANS`` entry up by name when a
traced run starts and fails on a missing one, so a rename in pelkit must
fail here first.  The table is read from that file, which stays unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        if not hasattr(owner, part):
            return f"{module_name}.{attr}"
        owner = getattr(owner, part)
    return None


# The bindings the tracer wraps with counters besides its spans.
COUNTED = (
    ("pelkit.linalg", "Matrix.__init__"),
    ("pelkit.isogeny", "LatticeObject.__post_init__"),
    ("pelkit.algebras", "_closure"),
)


def test_every_traced_binding_resolves():
    tracing = _load_tracing()
    assert tracing.SPANS
    names = [(module_name, attr) for module_name, attr, _ in tracing.SPANS] + list(COUNTED)
    assert [m for module_name, attr in names if (m := _missing(module_name, attr))] == []


def test_traced_cache_counters_resolve():
    counts = _load_tracing().cache_counts()
    assert set(counts) == {
        "algebras.closure.hits",
        "algebras.closure.misses",
        "characters.block_irr.hits",
        "characters.block_irr.misses",
        "characters.block_irr.size",
    }
