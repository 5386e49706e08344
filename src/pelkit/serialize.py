"""JSON encoding shared by the command line and the bundled examples.

Rationals travel as exact strings "p" or "p/q" (never decimals); matrices
as arrays of arrays of such strings; weights as integer arrays.  Schema
violations raise SchemaError with a JSON-pointer-ish path so the CLI can
print a usable diagnostic and exit with code 2.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

from .admissibility import MorphismSpec, RepSide
from .algebras import (
    MAT_DEF_QUAT,
    MAT_IMAG_QUAD,
    MAT_Q,
    AlgebraPresentation,
    CatalogFactor,
)
from .characters import Factor, RootDatum, TorusMap, WeightChar
from .linalg import Matrix
from .peldata import PelDatum


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def frac_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _bad_rational(obj) -> str | None:
    """Why obj is not a JSON rational, or None when it is one."""
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        return f"expected an integer or 'p/q' string, got {obj!r}"
    if isinstance(obj, str) and not _RAT_RE.match(obj):
        return f"bad rational {obj!r}: expected 'p' or 'p/q' with q > 0"
    return None


def frac_from_json(obj, path: str) -> Fraction:
    problem = _bad_rational(obj)
    if problem:
        raise SchemaError(path, problem)
    return Fraction(obj)


def matrix_to_json(m: Matrix):
    return [[frac_to_str(x) for x in row] for row in m.tolist()]


def matrix_from_json(obj, path: str) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError(path, "expected a non-empty array of arrays")
    rows = []
    for i, r in enumerate(obj):
        row = []
        for j, x in enumerate(r):
            if type(x) is not int:
                problem = _bad_rational(x)
                if problem:
                    raise SchemaError(f"{path}[{i}][{j}]", problem)
                x = int(x) if "/" not in x else Fraction(x)
            row.append(x)
        rows.append(row)
    try:
        return Matrix(rows)
    except ValueError as exc:
        raise SchemaError(path, str(exc))


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _require(obj, key, path, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(path, f"missing key {key!r}")
    val = obj[key]
    if kind is not None and not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return val


def algebra_to_json(alg: AlgebraPresentation):
    """JSON form of a presentation.  A structured one is written as its
    catalog factors alone, so it must carry the catalog's own generators:
    a base-changed structured presentation raises ``ValueError`` rather
    than reload as a different algebra."""
    if alg.mode == "structured":
        catalog = tuple(blk.factor for blk in alg.factors)
        if alg.generators != AlgebraPresentation.from_catalog(catalog).generators:
            raise ValueError(
                "structured algebra is not in its catalog basis (base-changed?); "
                "only its catalog factors would be written"
            )
        factors = []
        for blk in alg.factors:
            f = blk.factor
            entry = {"kind": f.kind, "n": f.n, "multiplicity": f.multiplicity}
            if f.kind == MAT_IMAG_QUAD:
                entry["d"] = f.d
            elif f.kind == MAT_DEF_QUAT:
                entry["a"] = f.a
                entry["b"] = f.b
            factors.append(entry)
        return {"mode": "structured", "dim_v": alg.dim_v, "factors": factors}
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
    if mode == "structured":
        factors = _require(obj, "factors", path, list)
        catalog = []
        for i, f in enumerate(factors):
            fpath = f"{path}.factors[{i}]"
            kind = _require(f, "kind", fpath, str)
            if kind not in (MAT_Q, MAT_IMAG_QUAD, MAT_DEF_QUAT):
                raise SchemaError(fpath, f"unknown kind {kind!r}")
            try:
                catalog.append(
                    CatalogFactor(
                        kind=kind,
                        n=_require(f, "n", fpath, int),
                        multiplicity=_require(f, "multiplicity", fpath, int),
                        d=f.get("d", 0),
                        a=f.get("a", 0),
                        b=f.get("b", 0),
                    )
                )
            except ValueError as exc:
                raise SchemaError(fpath, str(exc))
        alg = AlgebraPresentation.from_catalog(catalog)
        if alg.dim_v != dim_v:
            raise SchemaError(
                f"{path}.dim_v", f"catalog factors span dimension {alg.dim_v}, not {dim_v}"
            )
        return alg
    if mode == "raw":
        gens = _require(obj, "generators", path, list)
        pairs = []
        for i, g in enumerate(gens):
            gpath = f"{path}.generators[{i}]"
            pairs.append(
                (
                    matrix_from_json(_require(g, "action", gpath), f"{gpath}.action"),
                    matrix_from_json(_require(g, "star", gpath), f"{gpath}.star"),
                )
            )
        try:
            return AlgebraPresentation.raw(dim_v, pairs)
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
    return PelDatum(
        algebra=algebra_from_json(_require(obj, "algebra", base), f"{base}.algebra"),
        pairing=matrix_from_json(_require(obj, "pairing", base), f"{base}.pairing"),
        j=matrix_from_json(_require(obj, "j", base), f"{base}.j"),
    )


def root_datum_to_json(rd: RootDatum):
    return {
        "factors": [{"series": f.series, "n": f.n} for f in rd.factors],
        "central_rank": rd.central_rank,
    }


def root_datum_from_json(obj, path: str = "root_datum") -> RootDatum:
    factors = _require(obj, "factors", path, list)
    out = []
    for i, f in enumerate(factors):
        fpath = f"{path}.factors[{i}]"
        try:
            out.append(Factor(_require(f, "series", fpath, str), _require(f, "n", fpath, int)))
        except ValueError as exc:
            raise SchemaError(fpath, str(exc))
    return RootDatum(tuple(out), central_rank=_require(obj, "central_rank", path, int))


def char_to_json(x: WeightChar):
    return [{"weight": list(w), "mult": m} for w, m in x.sorted_items()]


def char_from_json(obj, path: str = "char") -> WeightChar:
    if not isinstance(obj, list):
        raise SchemaError(path, "expected an array of {weight, mult} entries")
    acc = {}
    for i, entry in enumerate(obj):
        epath = f"{path}[{i}]"
        w = _require(entry, "weight", epath, list)
        m = _require(entry, "mult", epath, int)
        if not all(_is_int(c) for c in w):
            raise SchemaError(f"{epath}.weight", "weights are integer arrays")
        acc[tuple(w)] = acc.get(tuple(w), 0) + m
    return WeightChar(acc)


def morphism_to_json(m: MorphismSpec):
    return {
        "source": {
            "root_datum": root_datum_to_json(m.source.root_datum),
            "standard_char": char_to_json(m.source.standard_char),
        },
        "target": {
            "root_datum": root_datum_to_json(m.target.root_datum),
            "standard_char": char_to_json(m.target.standard_char),
        },
        "weight_pullback": [list(r) for r in m.torus_map.weight_pullback],
    }


def _side_from_json(obj, path: str) -> RepSide:
    return RepSide(
        root_datum=root_datum_from_json(_require(obj, "root_datum", path), f"{path}.root_datum"),
        standard_char=char_from_json(_require(obj, "standard_char", path), f"{path}.standard_char"),
    )


def morphism_from_json(obj, path: str = "morphism") -> MorphismSpec:
    pullback = _require(obj, "weight_pullback", path, list)
    if not all(isinstance(r, list) and all(_is_int(x) for x in r) for r in pullback):
        raise SchemaError(f"{path}.weight_pullback", "expected an integer matrix")
    try:
        return MorphismSpec(
            source=_side_from_json(_require(obj, "source", path), f"{path}.source"),
            target=_side_from_json(_require(obj, "target", path), f"{path}.target"),
            torus_map=TorusMap(tuple(tuple(r) for r in pullback)),
        )
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


def dumps(obj) -> str:
    return _shared_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@lru_cache(maxsize=64)
def _shared_text(text: str) -> str:
    # Equal outputs are one shared string, so a caller that keeps many
    # results keeps one copy of each recent text rather than one per call.
    return text
