"""JSON encoding shared by the command line and the bundled examples.

Rationals travel as exact strings "p" or "p/q" (never decimals); matrices
as arrays of arrays of such strings, where a reader also takes a JSON
integer but refuses ``true``, ``false`` and floats; weights as integer
arrays.  ``matrix_from_json`` reads every matrix, converting each distinct
entry once.  A
structured algebra travels as it is held in memory: its catalog factors
plus, once a base change has moved it, its basis, so every datum reloads
as itself.  Every JSON object the readers parse refuses a key it does not
know, so a misspelt key is reported rather than dropped.  Schema
violations raise SchemaError with a JSON-pointer-ish path so the CLI can
print a usable diagnostic and exit with code 2.

``dumps`` writes through a small recursive emitter, ``_text``, the exact
text of ``json.dumps(indent=2, sort_keys=True)``, its test oracle, which
``indent`` keeps off the C encoder and which writes any other value.
"""

from __future__ import annotations

import json
import re
import sys
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import itemgetter

from . import _Deferred
from .errors import InputError, OutOfScopeError

# Each reader imports the layer it builds from on its first use, so a command loads only the layers it reads.
_LAYERS = "admissibility", "algebras", "characters", "linalg", "peldata"
admissibility, algebras, characters, linalg, peldata = (_Deferred(globals(), name) for name in _LAYERS)


class SchemaError(InputError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def frac_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ASCII digits only, matched whole: "\d" takes any Unicode digit and "$"
# a trailing newline, both of which int() would then read
_RAT_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _bad_rational(obj) -> str | None:
    """Why obj is not a JSON rational, or None when it is one: a JSON
    integer, or a string "p" or "p/q" whose parts int() converts."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        return f"expected an integer or 'p/q' string, got {obj!r}"
    if isinstance(obj, str):
        if not _RAT_RE.fullmatch(obj):
            return f"bad rational {obj!r}: expected 'p' or 'p/q' with q > 0"
        limit = sys.get_int_max_str_digits()  # int() counts leading zeros, not the sign
        if limit and max(map(len, obj.lstrip("-").split("/"))) > limit:
            return f"bad rational: more than {limit} digits"
    return None


def _rational(x):
    """The value of an entry that ``_bad_rational`` passes."""
    if type(x) is int or "/" not in x:
        return int(x)
    from fractions import Fraction  # on this path alone: the import statement costs more than int()

    return Fraction(x)


def matrix_to_json(m: Matrix):
    return [[frac_to_str(x) for x in row] for row in m.tolist()]


def matrix_from_json(obj, path: str) -> Matrix:
    """The matrix of an array of rows of rationals.  Each distinct entry is
    converted once, to its numerator over one common denominator, and each
    row is a lookup in that table.  A SchemaError names the first bad
    entry, or the shape when every entry is good."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(path, "expected a non-empty array of arrays")
    try:
        distinct = set(chain.from_iterable(obj))
        strings = all(type(x) is str and _RAT_RE.fullmatch(x) for x in distinct)
        table = {x: _rational(x) for x in distinct} if strings else None
    except (TypeError, ValueError):  # an unhashable entry, or a string past int()'s digit limit
        table = None
    if table is None:
        # Entry by entry: ``true`` and ``1.0`` hash like ``1`` and ``false``
        # like ``0``, so in the set one could hide behind an equal integer.
        # The walk refuses any unhashable entry, so past it distinct is set;
        # it skips the JSON integers, which ``_bad_rational`` passes.
        for i, r in enumerate(obj):
            for j, x in enumerate(r):
                problem = type(x) is not int and _bad_rational(x)
                if problem:
                    raise SchemaError(f"{path}[{i}][{j}]", problem)
        table = {x: _rational(x) for x in distinct}  # JSON integers join the strings
    width = len(obj[0])
    if not width or any(len(r) != width for r in obj):
        raise SchemaError(path, "ragged or empty matrix rows")
    den = lcm(*(v.denominator for v in table.values()))
    for x, v in table.items():
        table[x] = v.numerator * (den // v.denominator)
    if width == 1:  # itemgetter of one key returns the value, not a tuple
        rows = [(table[r[0]],) for r in obj]
    else:
        rows = [itemgetter(*r)(table) for r in obj]
    return linalg.Matrix.from_numerators(rows, den)


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _require(obj, key, path, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(path, f"missing key {key!r}")
    val = obj[key]
    if kind is not None and not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return val


def _known_keys(obj, path: str, known) -> None:
    """Refuse a key of the JSON object obj outside known, at obj's own
    path.  A non-object passes, for ``_require`` to report."""
    if isinstance(obj, dict):
        unknown = obj.keys() - known
        if unknown:
            raise SchemaError(path, f"unknown key {min(unknown)!r}")


def algebra_to_json(alg: AlgebraPresentation):
    """JSON form of a presentation.  A structured one is its catalog
    factors, each as its non-zero fields, plus its basis when it has one."""
    if alg.factors:
        out = {
            "mode": "structured",
            "dim_v": alg.dim_v,
            "factors": [{k: getattr(f, k) for k in f.__slots__ if getattr(f, k)} for f in alg.factors],
        }
        if alg.basis is not None:
            out["basis"] = matrix_to_json(alg.basis)
        return out
    return {
        "mode": "raw",
        "dim_v": alg.dim_v,
        "generators": [
            {"action": matrix_to_json(a), "star": matrix_to_json(s)} for a, s in alg.generators
        ],
    }


def algebra_from_json(obj, path: str = "algebra") -> AlgebraPresentation:
    mode = _require(obj, "mode", path, str)
    dim_v = _require(obj, "dim_v", path, int)
    if dim_v < 1:
        raise SchemaError(f"{path}.dim_v", f"expected at least 1, got {dim_v}")
    if mode == "structured":
        _known_keys(obj, path, {"mode", "dim_v", "factors", "basis"})
        factors = _require(obj, "factors", path, list)
        catalog = []
        for i, f in enumerate(factors):
            fpath = f"{path}.factors[{i}]"
            _known_keys(f, fpath, {"kind", "n", "multiplicity", "d", "a", "b"})
            kind = _require(f, "kind", fpath, str)
            n = _require(f, "n", fpath, int)
            multiplicity = _require(f, "multiplicity", fpath, int)
            try:
                catalog.append(
                    algebras.CatalogFactor(kind, n, multiplicity, f.get("d", 0), f.get("a", 0), f.get("b", 0))
                )
            except ValueError as exc:
                raise SchemaError(fpath, str(exc))
        span = sum(f.isotypic_dim for f in catalog)
        if span != dim_v:
            raise SchemaError(f"{path}.dim_v", f"catalog factors span dimension {span}, not {dim_v}")
        basis = matrix_from_json(obj["basis"], f"{path}.basis") if "basis" in obj else None
        try:
            return algebras.AlgebraPresentation(dim_v, None, tuple(catalog), basis)
        except OutOfScopeError:  # a catalog past the desk scale
            raise
        except ValueError as exc:
            raise SchemaError(f"{path}.basis", str(exc))
    if mode == "raw":
        _known_keys(obj, path, {"mode", "dim_v", "generators"})
        gens = _require(obj, "generators", path, list)
        pairs = []
        for i, g in enumerate(gens):
            gpath = f"{path}.generators[{i}]"
            _known_keys(g, gpath, {"action", "star"})
            pairs.append(
                (
                    matrix_from_json(_require(g, "action", gpath), f"{gpath}.action"),
                    matrix_from_json(_require(g, "star", gpath), f"{gpath}.star"),
                )
            )
        try:
            return algebras.AlgebraPresentation.raw(dim_v, pairs)
        except ValueError as exc:
            raise SchemaError(path, str(exc))
    raise SchemaError(f"{path}.mode", f"expected 'structured' or 'raw', got {mode!r}")


def datum_to_json(datum: PelDatum):
    return {
        "algebra": algebra_to_json(datum.algebra),
        "pairing": matrix_to_json(datum.pairing),
        "j": matrix_to_json(datum.j),
    }


def datum_from_json(obj, path: str = "") -> PelDatum:
    base = path or "datum"
    _known_keys(obj, base, {"algebra", "pairing", "j"})
    return peldata.PelDatum(
        algebra_from_json(_require(obj, "algebra", base), f"{base}.algebra"),
        matrix_from_json(_require(obj, "pairing", base), f"{base}.pairing"),
        matrix_from_json(_require(obj, "j", base), f"{base}.j"),
    )


def root_datum_to_json(rd: RootDatum):
    return {
        "factors": [{"series": f.series, "n": f.n} for f in rd.factors],
        "central_rank": rd.central_rank,
    }


def root_datum_from_json(obj, path: str = "root_datum") -> RootDatum:
    _known_keys(obj, path, {"factors", "central_rank"})
    factors = _require(obj, "factors", path, list)
    out = []
    for i, f in enumerate(factors):
        fpath = f"{path}.factors[{i}]"
        _known_keys(f, fpath, {"series", "n"})
        series, n = _require(f, "series", fpath, str), _require(f, "n", fpath, int)
        try:
            out.append(characters.Factor(series, n))
        except ValueError as exc:
            raise SchemaError(fpath, str(exc))
    central_rank = _require(obj, "central_rank", path, int)
    try:
        return characters.RootDatum(tuple(out), central_rank=central_rank)
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def char_to_json(x: WeightChar):
    return [{"weight": list(w), "mult": m} for w, m in x.sorted_items()]


def char_from_json(obj, path: str = "char") -> WeightChar:
    if not isinstance(obj, list):
        raise SchemaError(path, "expected an array of {weight, mult} entries")
    acc = {}
    for i, entry in enumerate(obj):
        epath = f"{path}[{i}]"
        _known_keys(entry, epath, {"weight", "mult"})
        w = _require(entry, "weight", epath, list)
        m = _require(entry, "mult", epath, int)
        if not all(_is_int(c) for c in w):
            raise SchemaError(f"{epath}.weight", "weights are integer arrays")
        if len(w) != len(obj[0]["weight"]):
            raise SchemaError(f"{epath}.weight", f"length {len(w)}, but the first weight has {len(obj[0]['weight'])}")
        acc[tuple(w)] = acc.get(tuple(w), 0) + m
    return characters.WeightChar(acc)


def _side_to_json(side: RepSide):
    return {"root_datum": root_datum_to_json(side.root_datum), "standard_char": char_to_json(side.standard_char)}


def morphism_to_json(m: MorphismSpec):
    return {
        "source": _side_to_json(m.source),
        "target": _side_to_json(m.target),
        "weight_pullback": [list(r) for r in m.torus_map.weight_pullback],
    }


def _side_from_json(obj, path: str) -> RepSide:
    _known_keys(obj, path, {"root_datum", "standard_char"})
    return admissibility.RepSide(
        root_datum=root_datum_from_json(_require(obj, "root_datum", path), f"{path}.root_datum"),
        standard_char=char_from_json(_require(obj, "standard_char", path), f"{path}.standard_char"),
    )


def morphism_from_json(obj, path: str = "morphism") -> MorphismSpec:
    _known_keys(obj, path, {"source", "target", "weight_pullback"})
    pullback = _require(obj, "weight_pullback", path, list)
    if not all(isinstance(r, list) and all(_is_int(x) for x in r) for r in pullback):
        raise SchemaError(f"{path}.weight_pullback", "expected an integer matrix")
    source = _side_from_json(_require(obj, "source", path), f"{path}.source")
    target = _side_from_json(_require(obj, "target", path), f"{path}.target")
    try:
        return admissibility.MorphismSpec(source, target, characters.TorusMap(tuple(tuple(r) for r in pullback)))
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    except RecursionError:
        raise SchemaError(path, "JSON nested too deeply") from None
    except ValueError:  # json reads an integer literal over the digit limit
        raise SchemaError(path, f"integer literal with more than {sys.get_int_max_str_digits()} digits") from None


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline; ``json.dumps`` itself
    writes a value ``_text`` does not handle or that nests past the recursion limit."""
    try:
        return _shared_text(_text(obj, "\n") + "\n")
    except (_Unhandled, RecursionError):
        pass  # json.dumps runs outside the handler, so its errors carry no context
    return _shared_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class _Unhandled(Exception):
    pass


_quote = json.encoder.encode_basestring_ascii


def _text(obj, newline: str) -> str:
    """obj as ``json.dumps(indent=2, sort_keys=True)`` writes it where each
    line starts with newline; ``_Unhandled`` on a value other than a dict
    with str keys, a list, a tuple, a str, an int, a bool or None."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = newline + "  "
    if kind is dict:
        if not obj:
            return "{}"
        if not all(type(k) is str for k in obj):
            raise _Unhandled
        items = ["%s: %s" % (_quote(k), _text(obj[k], inner)) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_text(x, inner) for x in obj]) + newline + "]"
    raise _Unhandled


@lru_cache(maxsize=64)
def _shared_text(text: str) -> str:
    # Equal outputs are one shared string, so a caller that keeps many
    # results keeps one copy of each recent text rather than one per call.
    return text
