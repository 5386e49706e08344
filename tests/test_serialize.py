import json
import os
import random
import sys
import time
from fractions import Fraction

import pytest
from validate_oracle import v_generators

from pelkit import serialize
from pelkit.algebras import AlgebraPresentation, CatalogFactor
from pelkit.characters import WeightChar
from pelkit.fixtures import (
    balanced_imag_quad_datum,
    det_twist_morphism,
    gsp8_tensor_datum,
    gu11_datum,
    modular_curve_datum,
    modular_curve_m2_datum,
    quaternion_datum,
)
from pelkit.linalg import Matrix
from pelkit.peldata import PelDatum, classify, validate

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def test_fraction_strings():
    assert serialize.frac_to_str(Fraction(3)) == "3"
    assert serialize.frac_to_str(Fraction(-1, 2)) == "-1/2"
    assert serialize.matrix_from_json([["7/3"]], "x") == Matrix([[Fraction(7, 3)]])
    assert serialize.matrix_from_json([[4]], "x") == Matrix([[4]])
    with pytest.raises(serialize.SchemaError):
        serialize.matrix_from_json([["1.5"]], "x")
    with pytest.raises(serialize.SchemaError):
        serialize.matrix_from_json([["1/0"]], "x")


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


def _reload(datum):
    return serialize.datum_from_json(json.loads(serialize.dumps(serialize.datum_to_json(datum))))


def test_base_changed_structured_datum_round_trips():
    datum = gu11_datum()
    shear = Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    moved = datum.conjugate(shear)
    assert serialize.datum_to_json(moved)["algebra"]["basis"] == serialize.matrix_to_json(shear)
    again = _reload(moved)
    assert again == moved and again.algebra.basis == shear and validate(again).valid
    # a base change by a scalar fixes every generator but is still written
    scaled = datum.conjugate(Matrix.identity(4).scale(2))
    again = _reload(scaled)
    assert again == scaled and again.algebra.basis == scaled.algebra.basis and validate(again).valid
    # raw presentations write their generators and survive any base change
    raw = PelDatum(AlgebraPresentation.raw(4, v_generators(moved.algebra)), moved.pairing, moved.j)
    again = _reload(raw)
    assert again == raw and validate(again).valid
    # the canonical basis is no basis at all
    assert "basis" not in serialize.datum_to_json(datum)["algebra"]


def test_dumps_shares_equal_texts():
    first = serialize.dumps({"b": [1, 2], "a": "x"})
    assert serialize.dumps({"a": "x", "b": [1, 2]}) is first
    assert first == '{\n  "a": "x",\n  "b": [\n    1,\n    2\n  ]\n}\n'


# -- the indented emitter against json.dumps ---------------------------------------


def _json_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dumped(dump, obj):
    """The text dump writes for obj, or the type and message it raises."""
    try:
        return dump(obj)
    except Exception as exc:
        return type(exc), str(exc)


_KEYS = ("", "a", "b", "Z", "\u00e9t\u00e9", "\u2603", "\U0001f600", 'q"uote', "back\\slash", "tab\tnul\x00\x1f\x7f")


def _scalar(rng):
    return rng.choice(
        (
            rng.choice(_KEYS) + rng.choice(("", "p/q", "-3/4", "\n")),
            rng.randint(-5, 5),
            2**64 + rng.randint(-2, 2),
            -(2**100) - rng.randint(0, 9),
            True,
            False,
            None,
        )
    )


def _payload(rng, depth):
    """A nested value of dicts with str keys, lists, tuples and scalars;
    each container is empty one time in five, at any depth."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return _scalar(rng)
    size = 0 if rng.random() < 0.2 else rng.randint(1, 4)
    if roll < 0.6:
        return {rng.choice(_KEYS) + str(rng.randrange(3)): _payload(rng, depth - 1) for _ in range(size)}
    items = [_payload(rng, depth - 1) for _ in range(size)]
    return tuple(items) if rng.random() < 0.3 else items


def test_dumps_matches_json_dumps_on_seeded_payloads():
    rng = random.Random(2018_27)
    for _ in range(600):
        obj = _payload(rng, rng.randint(0, 5))
        assert serialize.dumps(obj) == _json_dumps(obj)
    for empty in ({}, [], (), {"a": {}}, [[[]]], {"a": [{}, ()]}):
        assert serialize.dumps(empty) == _json_dumps(empty)


class _Label(str):
    pass


def _circular():
    loop = []
    loop.append(loop)
    return loop


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        float("nan"),
        {"a": [1, 2.5]},
        {1: "x"},
        {"a": {2: 1, True: None}},
        {"a": 1, None: 2},
        {"a": object()},
        [_Label("label"), {_Label("k"): 1}],
        10**5000,
        _circular(),
    ],
    ids=["float", "nan", "nested float", "int key", "int and bool keys", "mixed keys", "object", "str subclass",
         "over the digit limit", "circular"],
)
def test_dumps_behaves_as_json_dumps_on_other_values(obj):
    assert _dumped(serialize.dumps, obj) == _dumped(_json_dumps, obj)


def test_dumps_matches_json_dumps_on_every_payload_the_cli_prints(monkeypatch, capsys):
    # every pinned command, plus one that prints a JSON error object
    from test_golden import COMMANDS, EXAMPLES, GOLDEN, ROOT

    from pelkit.cli import main

    error = ["hodge", "--datum", f"{EXAMPLES}/modular_curve.json", "--rep", '{"highest": [9, 1]}']
    printed, dumps = [], serialize.dumps
    monkeypatch.setattr(serialize, "dumps", lambda obj: printed.append(obj) or dumps(obj))
    monkeypatch.chdir(ROOT)
    for _, argv in COMMANDS + [("error", error)]:
        main(argv)
    capsys.readouterr()
    # a command whose pin is empty printed only an error line, to stderr
    silent = sum(not (GOLDEN / f"{name}.out").read_text(encoding="utf-8") for name, _ in COMMANDS)
    assert len(printed) == len(COMMANDS) - silent + 1 and "error" in printed[-1]
    for obj in printed:
        assert dumps(obj) == _json_dumps(obj)


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
        "gu11_base_changed",
        "gu11_raw",
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


@pytest.mark.parametrize("mode, extra", [("raw", {"generators": []}), ("structured", {"factors": []})])
@pytest.mark.parametrize("dim_v", [0, -1])
def test_dim_v_below_1_is_a_schema_error(mode, extra, dim_v):
    with pytest.raises(serialize.SchemaError) as err:
        serialize.algebra_from_json({"mode": mode, "dim_v": dim_v, **extra})
    assert err.value.path == "algebra.dim_v"
    assert str(err.value) == f"algebra.dim_v: expected at least 1, got {dim_v}"
    with pytest.raises(ValueError, match="dim_v must be >= 1"):
        AlgebraPresentation.raw(dim_v, ())
    with pytest.raises(ValueError, match="dim_v must be >= 1"):
        AlgebraPresentation.from_catalog(())


def test_readers_build_with_the_classes_their_modules_hold_when_they_run(monkeypatch):
    # each reader imports its classes when it runs, so a patch made after
    # its first call still reaches it
    import pelkit.algebras
    import pelkit.peldata

    expected = modular_curve_datum()
    obj = serialize.datum_to_json(expected)
    assert serialize.datum_from_json(obj) == expected
    calls = []

    def algebra(*args):
        calls.append("algebra")
        return AlgebraPresentation(*args)

    def datum(*args):
        calls.append("datum")
        return PelDatum(*args)

    monkeypatch.setattr(pelkit.algebras, "AlgebraPresentation", algebra)
    monkeypatch.setattr(pelkit.peldata, "PelDatum", datum)
    assert serialize.datum_from_json(obj) == expected
    assert calls == ["algebra", "datum"]


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


def test_matrix_entry_error_path_with_repeated_entries():
    # entry strings are checked once per matrix: a repeated bad entry is
    # still reported at its first place, and a good string seen earlier
    # does not let a boolean or an unhashable entry through
    with pytest.raises(serialize.SchemaError) as err:
        serialize.matrix_from_json([["1", "x/2", "1"], ["x/2", "1", "x/2"]], "m")
    assert err.value.path == "m[0][1]"
    assert str(err.value) == "m[0][1]: bad rational 'x/2': expected 'p' or 'p/q' with q > 0"
    for bad in (True, ["1"], {"1": 1}, None):
        with pytest.raises(serialize.SchemaError) as err:
            serialize.matrix_from_json([["1", "1/2"], ["1/2", bad]], "m")
        assert err.value.path == "m[1][1]"
    again = serialize.matrix_from_json([["1/2", "1", "1/2"], ["1", "1/2", "-3"]], "m")
    assert again == Matrix([[Fraction(1, 2), 1, Fraction(1, 2)], [1, Fraction(1, 2), -3]])


def _doc(name):
    with open(os.path.join(DOCS, f"{name}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _raw_gu11():
    gu11 = gu11_datum()
    raw = PelDatum(AlgebraPresentation.raw(4, gu11.algebra.generators), gu11.pairing, gu11.j)
    return serialize.datum_to_json(raw)


def _unknown_key_cases():
    """One unknown key in each JSON object the readers parse, reported at
    that object's own path."""
    cases = []

    def add(command, doc, edit, path, key):
        obj = _raw_gu11() if doc == "raw" else _doc(doc)
        edit(obj)[key] = 0
        name = "datum.json" if command == "validate" else "morphism.json"
        cases.append((command, name, obj, path, f"unknown key {key!r}"))

    add("validate", "gu11", lambda o: o, "datum", "jj")
    add("validate", "gu11", lambda o: o["algebra"]["factors"][0], "datum.algebra.factors[0]", "dd")
    add("validate", "raw", lambda o: o["algebra"], "datum.algebra", "basis")
    add("validate", "raw", lambda o: o["algebra"]["generators"][1], "datum.algebra.generators[1]", "stars")
    m = "det_twist_morphism"
    add("admissible", m, lambda o: o, "morphism", "weight_pullbak")
    add("admissible", m, lambda o: o["target"], "morphism.target", "root")
    add("admissible", m, lambda o: o["source"]["root_datum"], "morphism.source.root_datum", "centre")
    add(
        "admissible",
        m,
        lambda o: o["target"]["root_datum"]["factors"][0],
        "morphism.target.root_datum.factors[0]",
        "rank",
    )
    add("admissible", m, lambda o: o["source"]["standard_char"][2], "morphism.source.standard_char[2]", "mul")
    return cases


def test_raw_datum_without_unknown_keys_still_loads():
    obj = _raw_gu11()
    datum = serialize.datum_from_json(obj)
    assert datum.algebra.factors == () and validate(datum).valid
    assert serialize.datum_to_json(datum) == obj


def _nested_schema_cases():
    """(command, file name, broken JSON, expected path, expected message):
    each error is raised below the top-level parser and reported once, at
    the innermost path that names it."""
    no_n = _doc("gu11")
    del no_n["algebra"]["factors"][0]["n"]
    real_kind = _doc("modular_curve")
    real_kind["algebra"]["factors"][0]["kind"] = "mat_r"
    series_b = _doc("det_twist_morphism")
    series_b["source"]["root_datum"]["factors"][0]["series"] = "B"
    negative_centre = _doc("det_twist_morphism")
    negative_centre["source"]["root_datum"]["central_rank"] = -1
    ragged = _doc("det_twist_morphism")
    ragged["source"]["standard_char"][1]["weight"].pop()
    singular = [["1", "0", "0", "0"], ["2", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    basis_faults = [
        ({"basis": singular}, "datum.algebra.basis", "matrix is singular"),
        ({"basis": [r[:3] for r in singular[1:]]}, "datum.algebra.basis", "basis must be 4 x 4, got 3 x 3"),
        ({"basis": singular[1:]}, "datum.algebra.basis", "basis must be 4 x 4, got 3 x 4"),
        (
            {"basis": [["1", "1.5", "0", "0"]] + singular[1:]},
            "datum.algebra.basis[0][1]",
            "bad rational '1.5': expected 'p' or 'p/q' with q > 0",
        ),
    ]
    cases = []
    for entries, path, message in basis_faults:
        obj = _doc("gu11_base_changed")
        obj["algebra"].update(entries)
        cases.append(("validate", "datum.json", obj, path, message))
    # without the key check the misspelt basis would be dropped silently
    misspelt = _doc("gu11_base_changed")
    misspelt["algebra"]["basiss"] = misspelt["algebra"].pop("basis")
    cases.append(("validate", "datum.json", misspelt, "datum.algebra", "unknown key 'basiss'"))
    cases += _unknown_key_cases()
    return cases + [
        ("validate", "datum.json", no_n, "datum.algebra.factors[0]", "missing key 'n'"),
        ("validate", "datum.json", real_kind, "datum.algebra.factors[0]", "unknown catalog kind 'mat_r'"),
        (
            "admissible",
            "morphism.json",
            series_b,
            "morphism.source.root_datum.factors[0]",
            "unknown series 'B'",
        ),
        (
            "admissible",
            "morphism.json",
            negative_centre,
            "morphism.source.root_datum",
            "central_rank must be >= 0",
        ),
        (
            "admissible",
            "morphism.json",
            ragged,
            "morphism.source.standard_char[1].weight",
            "length 2, but the first weight has 3",
        ),
    ]


def test_nested_schema_errors_are_wrapped_once():
    for command, _, obj, path, message in _nested_schema_cases():
        load = serialize.datum_from_json if command == "validate" else serialize.morphism_from_json
        with pytest.raises(serialize.SchemaError) as err:
            load(obj)
        assert err.value.path == path
        assert str(err.value) == f"{path}: {message}"


def test_nested_schema_errors_on_the_command_line(tmp_path, capsys):
    from pelkit.cli import main

    for command, name, obj, path, message in _nested_schema_cases():
        file = tmp_path / name
        file.write_text(json.dumps(obj), encoding="utf-8")
        flag = [str(file)] if command == "validate" else ["--morphism", str(file)]
        assert main([command, *flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"schema error: {path}: {message}\n"


def test_foreign_factor_parameters_are_schema_errors(tmp_path, capsys):
    # a mat_q factor carrying d and a would load, validate and then write
    # without them, so datum_from_json(datum_to_json(d)) != d
    from pelkit.cli import main

    with open(os.path.join(DOCS, "modular_curve.json")) as fh:
        obj = json.load(fh)
    obj["algebra"]["factors"][0].update(d=7, a=3)
    with pytest.raises(serialize.SchemaError) as err:
        serialize.datum_from_json(obj, "datum")
    assert err.value.path == "datum.algebra.factors[0]"
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "schema error: datum.algebra.factors[0]: mat_q takes no parameter d, got 7\n"
    obj["algebra"]["factors"][0].update(d=0, a=0)  # zeros are the defaults, not parameters
    datum = serialize.datum_from_json(obj, "datum")
    assert serialize.datum_from_json(serialize.datum_to_json(datum), "datum") == datum


# the unimodular and the rational base change behind docs/examples/gu11_base_changed.json
GU11_UNIMODULAR = Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
GU11_RATIONAL = Matrix(
    [[Fraction(1, 2), 0, 0, 0], [0, 1, 0, Fraction(1, 3)], [0, 0, 2, 0], [1, 0, 0, 1]]
)


def test_docs_examples_are_written_by_datum_to_json():
    written = {
        "modular_curve": modular_curve_datum(),
        "modular_curve_m2": modular_curve_m2_datum(),
        "gu11": gu11_datum(),
        "gsp8_tensor": gsp8_tensor_datum(),
        "quaternion": quaternion_datum(),
        "balanced_sqrt_minus_2": balanced_imag_quad_datum(),
        "gu11_base_changed": gu11_datum().conjugate(GU11_UNIMODULAR).conjugate(GU11_RATIONAL),
    }
    for name, datum in written.items():
        with open(os.path.join(DOCS, f"{name}.json"), "r", encoding="utf-8") as fh:
            assert fh.read() == serialize.dumps(serialize.datum_to_json(datum)), name
    assert written["gu11_base_changed"].algebra.basis == GU11_UNIMODULAR @ GU11_RATIONAL


def test_huge_squarefree_d_is_a_quick_schema_error(tmp_path, capsys):
    # d = -(2^61 - 1) is squarefree (a Mersenne prime): trial division up
    # to its square root would run for minutes, so |d| is bounded first
    from pelkit.cli import main

    obj = _doc("gu11")
    obj["algebra"]["factors"][0]["d"] = -(2**61 - 1)
    file = tmp_path / "huge_d.json"
    file.write_text(json.dumps(obj), encoding="utf-8")
    start = time.perf_counter()
    assert main(["validate", str(file)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "schema error: datum.algebra.factors[0]: |d| must be at most 1000000000, got -2305843009213693951\n"
    obj["algebra"]["factors"][0]["d"] = -(10**9)  # at the bound: divisible by 4, so not squarefree
    with pytest.raises(serialize.SchemaError, match="squarefree"):
        serialize.datum_from_json(obj, "datum")


# -- rational strings: ASCII digits, and no more than the interpreter converts ----

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts integers of any length")


@pytest.mark.parametrize("text", ["1\n", "-1\n", "１", "١/2", "1/２", " 1", "+1", "1/-2", "0x1", "1_0"])
def test_rational_strings_take_ascii_digits_only(text):
    for rows, at in (([[text]], "[0][0]"), ([["0", "1"], ["1", text]], "[1][1]")):
        with pytest.raises(serialize.SchemaError) as err:
            serialize.matrix_from_json(rows, "datum.j")
        assert err.value.path == f"datum.j{at}"
        assert str(err.value) == f"datum.j{at}: bad rational {text!r}: expected 'p' or 'p/q' with q > 0"


@needs_digit_limit
def test_rational_strings_over_the_digit_limit_are_schema_errors():
    big = "7" * (DIGIT_LIMIT + 1)
    for text in (big, f"-{big}/3", f"1/{big}"):
        with pytest.raises(serialize.SchemaError) as err:
            serialize.matrix_from_json([["0", "1"], [text, "0"]], "datum.pairing")
        assert str(err.value) == f"datum.pairing[1][0]: bad rational: more than {DIGIT_LIMIT} digits"
    at_limit = "7" * DIGIT_LIMIT
    assert serialize.matrix_from_json([[at_limit, f"1/{at_limit}"]], "m") == Matrix(
        [[int(at_limit), Fraction(1, int(at_limit))]]
    )


@needs_digit_limit
@pytest.mark.parametrize("first", ["0", 0])  # all strings, and a JSON integer beside them
def test_digit_limit_counts_leading_zeros_but_not_the_sign(first):
    # the reader's own count of digits agrees with what int() converts
    zeros = "0" * DIGIT_LIMIT
    for text in (f"{zeros}1", f"-{zeros}1", f"1/1{zeros}"):
        with pytest.raises(serialize.SchemaError) as err:
            serialize.matrix_from_json([[first, text]], "m")
        assert str(err.value) == f"m[0][1]: bad rational: more than {DIGIT_LIMIT} digits"
    for text in (f"-{'7' * DIGIT_LIMIT}", zeros, f"-{zeros}/1{zeros[1:]}"):
        assert serialize.matrix_from_json([[first, text]], "m") == Matrix([[0, Fraction(text)]])


# -- the table reader against the per-entry reader ------------------------------

_GOOD_STRINGS = ("0", "1", "-1", "-0", "2", "2/4", "-7/6", "3/9", "12")
_BAD_ENTRIES = (True, False, 1.0, 0.5, None, ["1"], [], {"1": 1}, "x", "1/0", "1.5", "")


def _outcome(read, obj):
    try:
        return read(obj, "m")
    except serialize.SchemaError as exc:
        return "error", str(exc)


def _random_matrix_json(rng):
    """An array of rows for matrix_from_json: mostly well formed, with
    width 1 now and then, integers beside strings in about a quarter of
    them; sometimes one bad entry, a ragged or an empty row."""
    rows, width = rng.randint(1, 5), rng.choice((1, 1, 2, 3, 4, 6))
    good = _GOOD_STRINGS + (0, 1, -1, 5) if rng.random() < 0.25 else _GOOD_STRINGS
    obj = [[rng.choice(good) for _ in range(width)] for _ in range(rows)]
    kind = rng.random()
    if kind < 0.3:
        obj[rng.randrange(rows)][rng.randrange(width)] = rng.choice(_BAD_ENTRIES)
    elif kind < 0.4:
        obj[rng.randrange(rows)].append(rng.choice(good))
    elif kind < 0.45:
        obj[rng.randrange(rows)] = []
    return obj


def _per_entry_reference(obj, path):
    """matrix_from_json for an array of arrays, entry by entry."""
    for i, r in enumerate(obj):
        for j, x in enumerate(r):
            problem = serialize._bad_rational(x)
            if problem:
                raise serialize.SchemaError(f"{path}[{i}][{j}]", problem)
    try:
        return Matrix([[Fraction(x) for x in r] for r in obj])
    except ValueError as exc:
        raise serialize.SchemaError(path, str(exc))


def test_table_reader_against_the_per_entry_reader():
    rng = random.Random(4300)
    strings_only = 0
    cases = [_random_matrix_json(rng) for _ in range(600)] + [[[1, "1"], ["2/4", -3]]]
    for obj in cases:
        expected = _outcome(_per_entry_reference, obj)
        got = _outcome(serialize.matrix_from_json, obj)
        assert got == expected, obj
        if not isinstance(expected, tuple):
            assert got.numerators == expected.numerators and got.denominator == expected.denominator, obj
            strings_only += all(type(x) is str for r in obj for x in r)
    assert strings_only > 200


@pytest.mark.parametrize(
    "obj, at",
    [
        ([[1, True]], "[0][1]"),
        ([[True, 1]], "[0][0]"),
        ([["1", 1.0]], "[0][1]"),
        ([[1.0, 1]], "[0][0]"),
        ([[0, False]], "[0][1]"),
        ([["2/4"], [0], ["2/4"], [False]], "[3][0]"),
        ([["1"], [["1"]]], "[1][0]"),
        ([["2/4", "1"], ["-0", [1, 2]]], "[1][1]"),
    ],
)
def test_booleans_and_floats_do_not_hide_behind_equal_integers(obj, at):
    with pytest.raises(serialize.SchemaError) as err:
        serialize.matrix_from_json(obj, "m")
    assert err.value.path == f"m{at}"


def test_table_reader_shapes():
    assert serialize.matrix_from_json([["2/4"], ["-0"], ["1/3"]], "m") == Matrix(
        [[Fraction(1, 2)], [0], [Fraction(1, 3)]]
    )
    for obj, message in (([["1", "0"], ["1"]], "ragged or empty matrix rows"), ([[], []], "ragged or empty matrix rows")):
        with pytest.raises(serialize.SchemaError) as err:
            serialize.matrix_from_json(obj, "m")
        assert str(err.value) == f"m: {message}"
