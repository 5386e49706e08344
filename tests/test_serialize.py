import json
import os
from fractions import Fraction

import pytest

from pelkit import serialize
from pelkit.algebras import AlgebraPresentation, CatalogFactor
from pelkit.characters import WeightChar
from pelkit.fixtures import det_twist_morphism, gu11_datum, modular_curve_datum
from pelkit.linalg import Matrix
from pelkit.peldata import PelDatum, classify, validate

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def test_fraction_strings():
    assert serialize.frac_to_str(Fraction(3)) == "3"
    assert serialize.frac_to_str(Fraction(-1, 2)) == "-1/2"
    assert serialize.frac_from_json("7/3", "x") == Fraction(7, 3)
    assert serialize.frac_from_json(4, "x") == 4
    with pytest.raises(serialize.SchemaError):
        serialize.frac_from_json("1.5", "x")
    with pytest.raises(serialize.SchemaError):
        serialize.frac_from_json("1/0", "x")


def test_matrix_round_trip():
    m = Matrix([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    again = serialize.matrix_from_json(serialize.matrix_to_json(m), "m")
    assert again == m
    with pytest.raises(serialize.SchemaError):
        serialize.matrix_from_json([[1], [2, 3]], "m")
    with pytest.raises(serialize.SchemaError):
        serialize.matrix_from_json([], "m")


def test_datum_round_trip():
    for build in (modular_curve_datum, gu11_datum):
        datum = build()
        again = serialize.datum_from_json(serialize.datum_to_json(datum))
        assert again.pairing == datum.pairing
        assert again.j == datum.j
        assert again.algebra.generators == datum.algebra.generators
        assert validate(again).valid


def test_base_changed_structured_datum_is_refused():
    datum = gu11_datum()
    shear = Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    moved = datum.conjugate(shear)
    assert validate(moved).valid
    with pytest.raises(ValueError, match="catalog basis"):
        serialize.datum_to_json(moved)
    # a base change by a scalar fixes every generator, so nothing is lost
    scaled = datum.conjugate(Matrix.identity(4).scale(2))
    again = serialize.datum_from_json(json.loads(serialize.dumps(serialize.datum_to_json(scaled))))
    assert again == scaled and validate(again).valid
    # raw presentations write their generators and survive any base change
    raw = PelDatum(AlgebraPresentation.raw(4, moved.algebra.generators), moved.pairing, moved.j)
    again = serialize.datum_from_json(json.loads(serialize.dumps(serialize.datum_to_json(raw))))
    assert again == raw and validate(again).valid


def test_dumps_shares_equal_texts():
    first = serialize.dumps({"b": [1, 2], "a": "x"})
    assert serialize.dumps({"a": "x", "b": [1, 2]}) is first
    assert first == '{\n  "a": "x",\n  "b": [\n    1,\n    2\n  ]\n}\n'


def test_raw_algebra_round_trip():
    datum = modular_curve_datum()
    raw = {
        "mode": "raw",
        "dim_v": 2,
        "generators": [{"action": [["1", "0"], ["0", "1"]], "star": [["1", "0"], ["0", "1"]]}],
    }
    alg = serialize.algebra_from_json(raw)
    assert alg.mode == "raw"
    assert serialize.algebra_to_json(alg)["mode"] == "raw"


def test_char_round_trip():
    x = WeightChar({(1, 0, 1): 2, (-1, 0, 1): -3})
    assert serialize.char_from_json(serialize.char_to_json(x)) == x


def test_morphism_round_trip():
    spec = det_twist_morphism()
    again = serialize.morphism_from_json(serialize.morphism_to_json(spec))
    assert again.torus_map == spec.torus_map
    assert again.source.standard_char == spec.source.standard_char
    assert again.target.root_datum == spec.target.root_datum


def test_docs_examples_load_and_validate():
    names = [
        "modular_curve",
        "modular_curve_m2",
        "gu11",
        "gsp8_tensor",
        "quaternion",
        "balanced_sqrt_minus_2",
    ]
    for name in names:
        with open(os.path.join(DOCS, f"{name}.json"), "r", encoding="utf-8") as fh:
            datum = serialize.datum_from_json(json.load(fh))
        assert validate(datum).valid, name
    with open(os.path.join(DOCS, "det_twist_morphism.json"), "r", encoding="utf-8") as fh:
        spec = serialize.morphism_from_json(json.load(fh))
    assert spec.torus_map.source_rank == 3


def test_docs_gu11_matches_builtin():
    with open(os.path.join(DOCS, "gu11.json"), "r", encoding="utf-8") as fh:
        datum = serialize.datum_from_json(json.load(fh))
    assert classify(datum).factorization.to_dict()["unitary"] == [[1, 1]]


def test_schema_error_paths():
    with pytest.raises(serialize.SchemaError) as err:
        serialize.datum_from_json({"algebra": {"mode": "structured"}})
    assert "algebra" in str(err.value)
    with pytest.raises(serialize.SchemaError):
        serialize.load_json_file("/nonexistent/file.json")
    with pytest.raises(serialize.SchemaError):
        serialize.morphism_from_json({"source": {}, "target": {}, "weight_pullback": [["x"]]})


def test_booleans_rejected_where_integers_are_parsed():
    with pytest.raises(serialize.SchemaError):
        serialize.algebra_from_json(
            {"mode": "structured", "dim_v": 4, "factors": [{"kind": "mat_imag_quad", "n": 1, "multiplicity": 1, "d": True}]}
        )
    with pytest.raises(serialize.SchemaError):
        serialize.char_from_json([{"weight": [1, 0], "mult": True}])
    with pytest.raises(serialize.SchemaError):
        serialize.root_datum_from_json({"factors": [{"series": "C", "n": True}], "central_rank": 1})
    with pytest.raises(serialize.SchemaError):
        serialize.morphism_from_json({"source": {}, "target": {}, "weight_pullback": [[True]]})
    with pytest.raises(ValueError):
        CatalogFactor(kind="mat_q", n=1, multiplicity=True)


def test_matrix_entry_error_path():
    with pytest.raises(serialize.SchemaError) as err:
        serialize.matrix_from_json([["1", "2/3"], ["4", "1/0"]], "datum.pairing")
    assert err.value.path == "datum.pairing[1][1]"
    with pytest.raises(serialize.SchemaError) as err:
        serialize.matrix_from_json([[0, 1.5]], "m")
    assert err.value.path == "m[0][1]"
    assert serialize.matrix_from_json([["-1/2", 3], ["0", "7"]], "m") == Matrix(
        [[Fraction(-1, 2), 3], [0, 7]]
    )
