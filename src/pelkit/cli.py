"""Command-line interface.

Exit codes: 0 on success / positive verdicts, 1 on negative mathematical
verdicts (invalid datum, inadmissible morphism, failed law or fixture),
2 on schema or usage errors, on any other rejected input (an
``errors.InputError``) and on a report that cannot be written to
``--output``; input past pelkit's bounds also prints a JSON error object.
Only ``isofun check`` (also ``isofun-check``) and ``fixtures`` take
``--seed``; ``fixtures`` only echoes it.  Output is JSON with sorted keys
and is byte-identical across runs for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import sys

from . import _lazy, serialize
from .errors import InputError, OutOfScopeError

# Each handler imports its command's functions from their own modules when
# it runs, so it calls what those modules hold then: a test's patch or the
# span tracer's wrapper reaches it.  The tracer also looks up the names this
# module bound when it imported every layer at the top; they resolve on
# first access.
__getattr__ = _lazy(
    globals(),
    {
        ".peldata": "validate classify",
        ".characters": "irr_char decompose tensor",
        ".hodge": "auto_cochar hodge_type",
        ".admissibility": "decide",
        ".isogeny": "run_law_suite",
    },
)


def _emit(args, payload) -> None:
    text = serialize.dumps(payload)
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc.strerror}") from None


def _clipped(text: str) -> str:
    """The repr of a token from the command line, cut to 24 characters."""
    return repr(text[:24]) + "..." * (len(text) > 24)


def _load_datum(path: str):
    return serialize.datum_from_json(serialize.load_json_file(path), "datum")


def _cmd_validate(args) -> int:
    from .peldata import validate

    datum = _load_datum(args.datum)
    report = validate(datum)
    _emit(args, report.to_dict())
    return 0 if report.valid else 1


def _classified(args):
    """The classification of the datum file, or None once the validation
    report of an invalid datum is emitted."""
    from .peldata import classify, validate

    datum = _load_datum(args.datum)
    report = validate(datum)
    if not report.valid:
        _emit(args, {"valid": False, "validation": report.to_dict()})
        return None
    return classify(datum)


def _cmd_classify(args) -> int:
    from .peldata import shimura_report

    cl = _classified(args)
    if cl is None:
        return 1
    payload = {
        "factors": cl.factorization.to_dict(),
        "shimura": shimura_report(cl.factorization).to_dict(),
        "root_datum": serialize.root_datum_to_json(cl.root_datum),
        "standard_char": serialize.char_to_json(cl.standard_char),
    }
    _emit(args, payload)
    return 0


def _parse_rep(spec: str, cl) -> WeightChar:
    import json as _json

    from .characters import irr_char

    if spec == "std":
        return cl.standard_char
    try:
        obj = _json.loads(spec)
    except (_json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise serialize.SchemaError("--rep", f"expected 'std' or a JSON object: {exc}")
    except ValueError:  # json reads an integer literal over the digit limit
        limit = sys.get_int_max_str_digits()
        raise serialize.SchemaError("--rep", f"integer literal with more than {limit} digits") from None
    serialize._known_keys(obj, "--rep", {"highest"})
    highest = obj.get("highest") if isinstance(obj, dict) else None
    if not isinstance(highest, list) or not all(map(serialize._is_int, highest)):
        raise serialize.SchemaError("--rep.highest", "expected an integer array")
    return irr_char(cl.root_datum, tuple(highest))


def _cmd_hodge(args) -> int:
    from .hodge import auto_cochar, hodge_type

    cl = _classified(args)
    if cl is None:
        return 1
    hc = auto_cochar(cl)
    char = _parse_rep(args.rep, cl)
    ht = hodge_type(char, hc)
    _emit(
        args,
        {
            "hodge_type": [list(pq) for pq in ht.sorted_pairs()],
            "cocharacter": hc.to_dict(),
            "unitary_orientation": "agreement-first (swapping a and b conjugates the cocharacter)",
        },
    )
    return 0


def _parse_type(text: str) -> RootDatum:
    from .characters import Factor, RootDatum

    factors = []
    for piece in text.split("x"):
        piece = piece.strip()
        digits, shown = piece[1:], _clipped(piece)
        # ASCII only: isdigit also takes fullwidth and superscript digits, which int() reads or refuses
        if piece[:1] not in ("C", "A", "D") or not (digits.isascii() and digits.isdigit()):
            raise serialize.SchemaError("--type", f"bad factor {shown}; expected e.g. C2 or C2xA3")
        try:
            n = int(digits)
        except ValueError:  # over the interpreter's limit on integer digits
            limit = sys.get_int_max_str_digits()
            raise serialize.SchemaError("--type", f"bad factor {shown}: more than {limit} digits") from None
        try:
            factors.append(Factor(piece[0], n))
        except ValueError as exc:
            raise serialize.SchemaError("--type", f"bad factor {shown}: {exc}")
    return RootDatum(tuple(factors), central_rank=1)


def _cmd_rep_decompose(args) -> int:
    from .characters import check_bounds, decompose, dual, standard_char, tensor

    rd = _parse_type(args.type)
    chars = {"std": lambda std: std, "dual(std)": dual}  # each token's character, from std
    tokens = [token.strip() for token in args.tensor.split(",")]
    for token in tokens:
        if token not in chars:
            raise serialize.SchemaError("--tensor", f"unknown token {_clipped(token)}; use std or dual(std)")
    # Every weight of std is +-e_i off the centre, so decompose peels a
    # highest weight with block part k*e_1 first, k the number of tokens:
    # its bound errors come here, before std (its size grows as the rank
    # squared) or the product is built.  The bounds skip the central part.
    check_bounds(rd, (len(tokens),) + (0,) * (rd.total_rank - 1))
    std = standard_char(rd, [1] * len(rd.factors))
    acc = chars[tokens[0]](std)
    for token in tokens[1:]:
        acc = tensor(acc, chars[token](std))
    parts = decompose(rd, acc)
    _emit(
        args,
        {
            "root_datum": serialize.root_datum_to_json(rd),
            "constituents": [{"highest": list(w), "mult": m} for w, m in parts],
            "dimension": acc.dim(),
        },
    )
    return 0


def _cmd_admissible(args) -> int:
    from .admissibility import decide

    spec = serialize.morphism_from_json(serialize.load_json_file(args.morphism), "morphism")
    verdict = decide(spec)
    _emit(args, verdict.to_dict())
    return 0 if verdict.admissible else 1


def _cmd_isofun_check(args) -> int:
    from .isogeny import run_law_suite

    results = run_law_suite(trials=args.trials, seed=args.seed)
    ok = all(r["pass"] for r in results.values())
    _emit(args, {"laws": results, "pass": ok, "seed": args.seed, "trials": args.trials})
    return 0 if ok else 1


def _cmd_fixtures(args) -> int:
    from .fixtures import conformance_ok, conformance_rows

    rows = conformance_rows()
    ok = conformance_ok(rows)
    _emit(args, {"conformance": rows, "pass": ok, "seed": args.seed})
    return 0 if ok else 1


def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits after at most one "-"; int() alone also reads "1_0" and " 2"."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # over the interpreter's limit on integer digits
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # as argparse words it for type=int


def _positive_int(text: str) -> int:
    try:
        value = _ascii_int(text)
    except argparse.ArgumentTypeError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pel",
        description="Exact-arithmetic toolkit for polarized algebra data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p, fn, seed_help=None):
        """--output on every command, --seed only where it is read."""
        p.add_argument("--output", help="write the JSON report to this path instead of stdout")
        if seed_help:
            p.add_argument("--seed", type=_ascii_int, default=0, help=seed_help)
        p.set_defaults(fn=fn)

    p = sub.add_parser("validate", help="check the axioms of a datum file")
    p.add_argument("datum")
    finish(p, _cmd_validate)

    p = sub.add_parser("classify", help="real group factorization of a datum file")
    p.add_argument("datum")
    finish(p, _cmd_classify)

    p = sub.add_parser("hodge", help="Hodge type of a representation of a classified datum")
    p.add_argument("--datum", required=True)
    p.add_argument("--rep", required=True, help="'std' or '{\"highest\": [...]}'")
    finish(p, _cmd_hodge)

    p = sub.add_parser("rep", help="character calculus")
    repsub = p.add_subparsers(dest="rep_command", required=True)
    p = repsub.add_parser("decompose", help="decompose a tensor product of standard characters")
    p.add_argument("--type", required=True, help="factors like C2 or C2xC1 (one central coordinate)")
    p.add_argument("--tensor", required=True, help="comma list of std / dual(std)")
    finish(p, _cmd_rep_decompose)

    p = sub.add_parser("admissible", help="decide admissibility of a morphism file")
    p.add_argument("--morphism", required=True)
    finish(p, _cmd_admissible)

    def check(p):
        p.add_argument("--trials", type=_positive_int, default=500)
        finish(p, _cmd_isofun_check, "seed of the randomized law suite")

    p = sub.add_parser("isofun", help="run the isogeny-category law suite")
    check(p.add_subparsers(dest="isofun_command", required=True).add_parser("check"))
    check(sub.add_parser("isofun-check", help="run the isogeny-category law suite"))

    p = sub.add_parser("fixtures", help="run the bundled example conformance table")
    finish(p, _cmd_fixtures, "echoed in the report; the table is not randomized")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # the outer handlers also see a failed write of the error object
        try:
            return args.fn(args)
        except OutOfScopeError as exc:
            sys.stderr.write(f"error: {exc}\n")
            _emit(args, {"error": {"type": type(exc).__name__, "message": str(exc)}})
            return 2
    except serialize.SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except InputError as exc:  # any other rejected input, or a failed write
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
