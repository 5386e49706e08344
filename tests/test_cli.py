import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from pelkit.cli import main

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_validate_ok():
    code, out = run_cli("validate", os.path.join(DOCS, "modular_curve.json"))
    payload = json.loads(out)
    assert code == 0 and payload["valid"]


def test_validate_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _ = run_cli("validate", str(bad))
    assert code == 2
    code, _ = run_cli("validate", "/dev/null")
    assert code == 2


@pytest.mark.parametrize(
    "algebra",
    [{"mode": "raw", "dim_v": -1, "generators": []}, {"mode": "structured", "dim_v": 0, "factors": []}],
    ids=["raw", "structured"],
)
def test_validate_dim_v_below_1_is_a_schema_error(tmp_path, capsys, algebra):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"algebra": algebra, "pairing": [["0"]], "j": [["0"]]}))
    code, out = run_cli("validate", str(path))
    assert code == 2 and out == ""
    dim_v = algebra["dim_v"]
    assert capsys.readouterr().err == f"schema error: datum.algebra.dim_v: expected at least 1, got {dim_v}\n"


def test_validate_invalid_datum_exits_1(tmp_path):
    with open(os.path.join(DOCS, "modular_curve.json")) as fh:
        obj = json.load(fh)
    obj["pairing"] = [["0", "-1"], ["1", "0"]]  # negated pairing
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(obj))
    code, out = run_cli("validate", str(path))
    payload = json.loads(out)
    assert code == 1
    assert payload["failure_code"] == "polarization_positive"


def test_classify_gu11():
    code, out = run_cli("classify", os.path.join(DOCS, "gu11.json"))
    payload = json.loads(out)
    assert code == 0
    assert payload["factors"]["unitary"] == [[1, 1]]
    assert payload["shimura"]["is_shimura_datum_for_g0"]


def test_rep_decompose():
    code, out = run_cli("rep", "decompose", "--type", "C2", "--tensor", "std,std")
    payload = json.loads(out)
    assert code == 0
    assert payload["dimension"] == 16
    assert [c["highest"] for c in payload["constituents"]] == [[2, 0, 2], [1, 1, 2], [0, 0, 2]]


def test_hodge_std():
    code, out = run_cli(
        "hodge", "--datum", os.path.join(DOCS, "modular_curve.json"), "--rep", "std"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["hodge_type"] == [[-1, 0], [0, -1]]


def test_hodge_highest_weight_json():
    code, out = run_cli(
        "hodge",
        "--datum",
        os.path.join(DOCS, "modular_curve.json"),
        "--rep",
        '{"highest": [2, 2]}',
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["hodge_type"] == [[-2, 0], [-1, -1], [0, -2]]


def test_admissible_exit_codes(tmp_path):
    code, out = run_cli("admissible", "--morphism", os.path.join(DOCS, "det_twist_morphism.json"))
    assert code == 1
    assert not json.loads(out)["admissible"]


def test_isofun_check_both_spellings():
    for argv in (("isofun", "check"), ("isofun-check",)):
        code, out = run_cli(*argv, "--trials", "25", "--seed", "3")
        payload = json.loads(out)
        assert code == 0 and payload["pass"] and payload["seed"] == 3


def test_isofun_check_rejects_non_positive_trials(capsys):
    for argv in (("isofun", "check"), ("isofun-check",)):
        # int() reads the last three as 10, 2 and 2: only ASCII digits count
        for trials in ("-3", "0", "x", "1_0", " 2", "\uff12"):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, "--trials", trials)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:") and f"--trials: expected a positive integer, got {trials!r}" in err


@pytest.mark.parametrize("argv", [("fixtures",), ("isofun", "check", "--trials", "1"), ("isofun-check", "--trials", "1")])
def test_seed_takes_ascii_digits_with_an_optional_minus(argv, capsys):
    for seed, echoed in (("7", 7), ("-3", -3), ("-0", 0)):
        code, out = run_cli(*argv, "--seed", seed)
        assert code == 0 and json.loads(out)["seed"] == echoed
    for seed in ("x", "1_0", " 2", "\uff10", "+1", "1-", ""):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", seed)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage:") and f"--seed: invalid int value: {seed!r}" in err


def test_zero_rank_type_is_a_schema_error():
    for spec in ("C0", "A1xC0"):
        proc = subprocess.run(
            [sys.executable, "-m", "pelkit", "rep", "decompose", "--type", spec, "--tensor", "std"],
            capture_output=True,
            text=True,
            cwd=os.path.join(os.path.dirname(__file__), ".."),
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("schema error: --type: bad factor 'C0'")


def test_fixtures_pass():
    code, out = run_cli("fixtures", "--seed", "0")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    assert all(row["pass"] for row in payload["conformance"])


def test_output_to_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        "validate", os.path.join(DOCS, "modular_curve.json"), "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["valid"]


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pelkit", "fixtures", "--seed", "0"],
        capture_output=True,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]


def test_fixture_output_stable_across_hash_seeds():
    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "pelkit", "fixtures", "--seed", "0"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.join(os.path.dirname(__file__), ".."),
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _json_error(code, out, kind):
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == kind and payload["error"]["message"]


def test_bound_exceeded_exits_2_with_json_error():
    code, out = run_cli(
        "hodge", "--datum", os.path.join(DOCS, "modular_curve.json"), "--rep", '{"highest": [9, 1]}'
    )
    _json_error(code, out, "BoundExceededError")
    code, out = run_cli("rep", "decompose", "--type", "C2", "--tensor", ",".join(["std"] * 9))
    _json_error(code, out, "BoundExceededError")


def test_non_integral_pairing_exits_2_with_json_error():
    code, out = run_cli(
        "hodge", "--datum", os.path.join(DOCS, "modular_curve.json"), "--rep", '{"highest": [1, 0]}'
    )
    _json_error(code, out, "NonIntegralPairingError")


def test_booleans_are_not_integers(tmp_path):
    with open(os.path.join(DOCS, "modular_curve.json")) as fh:
        base = json.load(fh)
    for mutate in (
        lambda d: d["algebra"].__setitem__("dim_v", True),
        lambda d: d["algebra"]["factors"][0].__setitem__("n", True),
        lambda d: d["algebra"]["factors"][0].__setitem__("multiplicity", True),
        lambda d: d["pairing"][0].__setitem__(1, True),
    ):
        obj = json.loads(json.dumps(base))
        mutate(obj)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli("validate", str(path))
        assert code == 2 and out == ""
    code, out = run_cli(
        "hodge", "--datum", os.path.join(DOCS, "modular_curve.json"), "--rep", '{"highest": [true, 1]}'
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", [["validate"], ["admissible", "--morphism"]])
def test_non_utf8_file_is_a_schema_error(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes('{"mode": "raw"}'.encode("utf-16"))  # starts with the bytes ff fe
    code, out = run_cli(*command, str(path))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"schema error: {path}: not UTF-8 text: invalid start byte at byte 0\n"


@pytest.mark.parametrize("command", [["validate"], ["admissible", "--morphism"]])
def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out = run_cli(*command, str(path))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"schema error: {path}: JSON nested too deeply\n"


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts integers of any length")
def test_rational_string_over_the_digit_limit_is_a_schema_error(tmp_path, capsys):
    with open(os.path.join(DOCS, "modular_curve.json")) as fh:
        obj = json.load(fh)
    obj["pairing"][0][1] = "-" + "9" * (DIGIT_LIMIT + 1)
    path = tmp_path / "huge_entry.json"
    path.write_text(json.dumps(obj))
    code, out = run_cli("validate", str(path))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"schema error: datum.pairing[0][1]: bad rational: more than {DIGIT_LIMIT} digits\n"


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("command, doc, key", [
    (["validate"], "modular_curve.json", '"dim_v": 2'),
    (["admissible", "--morphism"], "det_twist_morphism.json", '"central_rank": 1'),
])
def test_integer_literal_over_the_digit_limit_is_a_schema_error(tmp_path, capsys, command, doc, key):
    with open(os.path.join(DOCS, doc)) as fh:
        text = fh.read()
    assert key in text
    path = tmp_path / "huge_literal.json"
    path.write_text(text.replace(key, key[:-1] + "1" * (DIGIT_LIMIT + 1), 1))
    code, out = run_cli(*command, str(path))
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"schema error: {path}: integer literal with more than {DIGIT_LIMIT} digits\n"


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts integers of any length")
def test_type_over_the_digit_limit_is_a_schema_error_with_a_short_echo(capsys):
    code, out = run_cli("rep", "decompose", "--type", "C" + "9" * (DIGIT_LIMIT + 1), "--tensor", "std")
    assert code == 2 and out == ""
    shown = "'C" + "9" * 23 + "'..."
    assert capsys.readouterr().err == f"schema error: --type: bad factor {shown}: more than {DIGIT_LIMIT} digits\n"


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter converts integers of any length")
def test_rep_integer_over_the_digit_limit_is_a_schema_error(capsys):
    rep = '{"highest": [' + "9" * (DIGIT_LIMIT + 1) + ", 1]}"
    code, out = run_cli("hodge", "--datum", os.path.join(DOCS, "modular_curve.json"), "--rep", rep)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"schema error: --rep: integer literal with more than {DIGIT_LIMIT} digits\n"


@pytest.mark.parametrize("spec", ["C\uff12", "C\u00b2", "A\u0663"])  # fullwidth 2, superscript 2, Arabic-Indic 3
def test_type_takes_ascii_digits_only(capsys, spec):
    code, out = run_cli("rep", "decompose", "--type", spec, "--tensor", "std")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"schema error: --type: bad factor {spec!r}; expected e.g. C2 or C2xA3\n"


def test_long_tensor_token_is_echoed_cut(capsys):
    code, out = run_cli("rep", "decompose", "--type", "C2", "--tensor", "std," + "s" * 10_000)
    assert code == 2 and out == ""
    shown = "'" + "s" * 24 + "'..."
    assert capsys.readouterr().err == f"schema error: --tensor: unknown token {shown}; use std or dual(std)\n"


def test_deeply_nested_rep_object_is_a_schema_error(capsys):
    rep = "[" * 50_000 + "]" * 50_000
    code, out = run_cli("hodge", "--datum", os.path.join(DOCS, "gu11.json"), "--rep", rep)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("schema error: --rep: expected 'std' or a JSON object: ") and err.count("\n") == 1


def test_rep_object_refuses_unknown_keys(capsys):
    rep = '{"highest": [1, 0, 1], "hihgest": [9, 9]}'
    code, out = run_cli("hodge", "--datum", os.path.join(DOCS, "gu11.json"), "--rep", rep)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "schema error: --rep: unknown key 'hihgest'\n"
    code, out = run_cli("hodge", "--datum", os.path.join(DOCS, "gu11.json"), "--rep", '{"highest": [1, 0, 1]}')
    assert code == 0 and json.loads(out)["hodge_type"]


def test_every_value_error_in_pelkit_is_an_input_error():
    import importlib
    import inspect
    import pkgutil

    import pelkit
    from pelkit.errors import InputError

    found = {}
    for info in pkgutil.iter_modules(pelkit.__path__):
        module = importlib.import_module(f"pelkit.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and issubclass(obj, ValueError):
                found[name] = obj
    assert {
        "SchemaError",
        "OutOfScopeError",
        "BoundExceededError",
        "CatalogTooLargeError",
        "NonIntegralPairingError",
        "NotDominantError",
        "RankMismatchError",
        "NotACharacterError",
        "UnsupportedTypeError",
        "NotGenuineError",
        "DimensionMismatchError",
        "StructuredModeRequiredError",
        "ShapeMismatchError",
        "NotSymmetricError",
        "RankDeficientError",
        "NotComplexStructureError",
        "NotCommutingError",
    } <= set(found)
    assert [name for name, cls in found.items() if not issubclass(cls, InputError)] == []


def test_defect_errors_stay_outside_the_input_base():
    from pelkit.errors import InputError, InternalCheckError

    assert not issubclass(InternalCheckError, InputError)


def test_any_input_error_exits_2_without_the_cli_naming_it(monkeypatch, capsys):
    import pelkit.peldata
    from pelkit.errors import InputError

    class FreshInputError(InputError):
        pass

    def reject(datum):
        raise FreshInputError("rejected by a layer the CLI does not know")

    monkeypatch.setattr(pelkit.peldata, "validate", reject)  # the handler imports it when it runs
    assert main(["validate", os.path.join(DOCS, "gu11.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: rejected by a layer the CLI does not know\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", os.path.join(DOCS, "gu11.json")],
        ["classify", os.path.join(DOCS, "gu11.json")],
        ["hodge", "--datum", os.path.join(DOCS, "gu11.json"), "--rep", "std"],
        ["rep", "decompose", "--type", "C2", "--tensor", "std"],
        ["admissible", "--morphism", os.path.join(DOCS, "det_twist_morphism.json")],
    ],
)
def test_seed_is_a_usage_error_where_it_is_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:") and "unrecognized arguments: --seed 0" in err


def _write_failure(capsys, argv, target):
    assert main([*argv, "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("error: cannot write")] == [
        f"error: cannot write {target}: No such file or directory"
    ]
    assert not target.parent.exists()
    return lines


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    lines = _write_failure(capsys, ["validate", os.path.join(DOCS, "gu11.json")], target)
    assert len(lines) == 1


@pytest.mark.parametrize("command", ["validate", "classify"])
def test_catalog_past_the_desk_scale_exits_2_with_json_error(tmp_path, monkeypatch, capsys, command):
    import pelkit.algebras

    def refuse(factors):
        raise AssertionError("catalog generators were built before the bound check")

    monkeypatch.setattr(pelkit.algebras, "_catalog_generators", refuse)
    # a datum of a few bytes whose catalog spans 65 dimensions; the pairing is
    # never read
    algebra = {"mode": "structured", "dim_v": 65, "factors": [{"kind": "mat_q", "n": 5, "multiplicity": 13}]}
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"algebra": algebra, "pairing": [["0"]], "j": [["0"]]}))
    message = "catalog factors span dimension 65, past the bound 64"
    code, out = run_cli(command, str(path))
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "CatalogTooLargeError"}}
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unwritable_output_of_an_out_of_scope_error_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    argv = ["hodge", "--datum", os.path.join(DOCS, "modular_curve.json"), "--rep", '{"highest": [9, 1]}']
    lines = _write_failure(capsys, argv, target)
    assert lines == ["error: |highest|_1 exceeds 8", f"error: cannot write {target}: No such file or directory"]


@pytest.mark.parametrize(
    "series, tokens, message",
    [
        ("C9", ["std", "std"], "block rank 9 exceeds 8"),
        ("C2xA9", ["std", "dual(std)"], "block rank 9 exceeds 8"),
        ("C2", ["std"] * 9, "|highest|_1 exceeds 8"),
        ("A2xD2", ["dual(std)", "std"] * 5, "|highest|_1 exceeds 8"),
        ("C9", ["std"] * 9, "block rank 9 exceeds 8"),  # the rank is checked first
    ],
)
def test_rep_decompose_bounds_come_before_the_product(monkeypatch, capsys, series, tokens, message):
    import pelkit.characters

    def refuse(*args):
        raise AssertionError("the product was built before the bound check")

    monkeypatch.setattr(pelkit.characters, "tensor", refuse)  # the handler imports it when it runs
    with pytest.raises(AssertionError, match="product was built"):  # the patch reaches the handler
        run_cli("rep", "decompose", "--type", "C2", "--tensor", "std,std")
    code, out = run_cli("rep", "decompose", "--type", series, "--tensor", ",".join(tokens))
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "BoundExceededError"}}
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "series, tokens",
    [
        ("C9", ["std", "std"]),
        ("C2xA9", ["std", "dual(std)"]),
        ("C2", ["std"] * 9),
        ("A2xD2", ["dual(std)", "std"] * 5),
        ("A1", ["std", "dual(std)"] * 5),
    ],
)
def test_early_bound_errors_match_the_full_product(series, tokens):
    # oracle: the error decompose meets on the first constituent of the
    # product itself
    from pelkit.characters import BoundExceededError, decompose, dual, standard_char, tensor
    from pelkit.cli import _parse_type

    rd = _parse_type(series)
    std = standard_char(rd, [1] * len(rd.factors))
    chars = {"std": std, "dual(std)": dual(std)}
    acc = chars[tokens[0]]
    for token in tokens[1:]:
        acc = tensor(acc, chars[token])
    with pytest.raises(BoundExceededError) as full:
        decompose(rd, acc)
    code, out = run_cli("rep", "decompose", "--type", series, "--tensor", ",".join(tokens))
    assert code == 2 and json.loads(out)["error"]["message"] == str(full.value)


def test_rep_decompose_large_rank_is_refused_before_std_is_built(monkeypatch):
    # std on C_n has 2n weights of length n + 1, so a rank past the bound
    # must be refused before it is built
    import pelkit.characters

    def refuse(*args):
        raise AssertionError("std was built before the bound check")

    monkeypatch.setattr(pelkit.characters, "standard_char", refuse)
    code, out = run_cli("rep", "decompose", "--type", "C100000", "--tensor", "std,dual(std)")
    assert code == 2
    assert json.loads(out)["error"] == {"message": "block rank 100000 exceeds 8", "type": "BoundExceededError"}


def test_rep_decompose_unknown_token_comes_before_the_bounds(capsys):
    code, out = run_cli("rep", "decompose", "--type", "C9", "--tensor", "std,sym2")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "schema error: --tensor: unknown token 'sym2'; use std or dual(std)\n"


# -- the CLI contract under seeded mutation ---------------------------------------

MUTANT_SEED, MUTANTS = 2026, 160
# Replacement values by the JSON type they replace: valid rationals, huge
# and zero ones among them, malformed rationals and names of kinds, series
# and modes for a string, and other integers for an integer.  Any node may
# also become a value of another JSON type.
_RATIONALS = ("0", "-0", "0/5", "-7/3", "1/3", "2", "9" * 40 + "/7", "-" + "9" * 60)
_MALFORMED = (
    "1" + "0" * 5000, "1/" + "9" * 5000, "1/0", "0/0", "7/-3", "1//2", "1/2/3", "", "-", " 3", "1e5", "1.5",
    "inf", "nan", "0x10", "1_0", "½", "٣",
)
_NAMES = ("mat_q", "mat_imag_quad", "mat_def_quat", "mat_r", "structured", "raw", "C", "A", "D", "B")
_INTEGERS = (0, -1, 1, 2, 3, 9, 65, 10**40, -(10**40))
_OTHER_TYPES = (None, True, False, 1.5, float("inf"), "1", 1, [], [0], [[]], {}, {"n": 1})


def _nodes(obj, path=()):
    """The path of every node below the root of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _mutant(doc, rng):
    """doc with one or two nodes dropped, repeated or replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(1 if rng.random() < 0.7 else 2):
        paths = list(_nodes(doc))
        if not paths:
            break
        *up, key = rng.choice(paths)
        parent = doc
        for step in up:
            parent = parent[step]
        value, roll = parent[key], rng.random()
        if roll < 0.15:
            del parent[key]
        elif roll < 0.3 and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(value)))
        elif roll < 0.8 and type(value) is str:
            parent[key] = rng.choice(_RATIONALS if rng.random() < 0.6 else _MALFORMED + _NAMES)
        elif roll < 0.8 and type(value) is int:
            parent[key] = rng.choice(_INTEGERS)
        else:
            parent[key] = rng.choice(_OTHER_TYPES)
    return doc


def _mutation_sources():
    """The datum documents of docs/examples and fixtures.NAMED, and the morphism documents."""
    from pelkit import fixtures, serialize

    data, morphisms = [], []
    for name in sorted(os.listdir(DOCS)):
        with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
            (morphisms if "morphism" in name else data).append(json.load(fh))
    data += [serialize.datum_to_json(fixtures.catalog_datum(blocks)) for blocks in fixtures.NAMED.values()]
    return data, morphisms


def _run_mutant(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_no_mutant_breaks_the_cli_contract(tmp_path):
    # every exit is 0, 1 or 2 and prints what the README documents for it:
    # a report and nothing on stderr, one error line, or, past a bound, the
    # error object too
    rng = random.Random(MUTANT_SEED)
    data, morphisms = _mutation_sources()
    path = str(tmp_path / "mutant.json")
    for i in range(MUTANTS):
        is_morphism = rng.random() < 0.25
        doc = _mutant(rng.choice(morphisms if is_morphism else data), rng)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        highest = json.dumps({"highest": [rng.randint(-1, 3) for _ in range(rng.randint(1, 6))]})
        commands = (
            [["admissible", "--morphism", path]]
            if is_morphism
            else [["validate", path], ["classify", path], *(["hodge", "--datum", path, "--rep", r] for r in ("std", highest))]
        )
        for argv in commands:
            shown = f"mutant {i}, pel {' '.join(argv[:-1] if argv[-1] == path else argv)}: {json.dumps(doc)}"
            try:
                code, out, err = _run_mutant(argv)
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} escaped on {shown}")
            assert code in (0, 1, 2), shown
            if code != 2:
                assert isinstance(json.loads(out), dict) and err == "", shown
            elif out:
                error = json.loads(out)["error"]
                assert set(error) == {"type", "message"} and err == f"error: {error['message']}\n", shown
            else:
                assert err.startswith(("schema error: ", "error: ")) and err.count("\n") == 1, shown
