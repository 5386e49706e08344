"""Golden pins: stdout and exit code of the documented ``pel`` commands.

Each pin in ``tests/golden/`` is the byte-exact stdout of one command, and
``tests/golden/exit_codes.json`` holds its exit code.  The pins were written
by the real command line; the test replays each command through
``pelkit.cli.main`` in process.  To rewrite the pins after an intended
output change, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pelkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = "docs/examples"
DATA = (
    "balanced_sqrt_minus_2",
    "gsp8_tensor",
    "gu11",
    "gu11_raw",
    "modular_curve",
    "modular_curve_m2",
    "quaternion",
)
MORPHISMS = ("det_twist_morphism",)


def _commands():
    """(pin name, argv) for every pinned command."""
    out = [("fixtures-seed0", ["fixtures", "--seed", "0"])]
    for name in DATA:
        path = f"{EXAMPLES}/{name}.json"
        out.append((f"validate-{name}", ["validate", path]))
        out.append((f"classify-{name}", ["classify", path]))
        out.append((f"hodge-std-{name}", ["hodge", "--datum", path, "--rep", "std"]))
    for name in MORPHISMS:
        out.append((f"admissible-{name}", ["admissible", "--morphism", f"{EXAMPLES}/{name}.json"]))
    for seed in (0, 5):
        out.append((f"isofun-check-seed{seed}", ["isofun", "check", "--trials", "50", "--seed", str(seed)]))
    for name, series, tensor in (
        ("C3-std4", "C3", "std,std,std,std"),
        ("D4-std3", "D4", "std,std,std"),
        ("A4-std-dual", "A4", "std,dual(std)"),
        ("C2xA2-std-dual-std", "C2xA2", "std,dual(std),std"),
        ("C4-std6", "C4", "std,std,std,std,std,std"),
        ("C2xA2-std-dual-std-dual-std", "C2xA2", "std,dual(std),std,dual(std),std"),
    ):
        out.append((f"rep-decompose-{name}", ["rep", "decompose", "--type", series, "--tensor", tensor]))
    out.append(
        (
            "hodge-irr-gsp8_tensor",
            ["hodge", "--datum", f"{EXAMPLES}/gsp8_tensor.json", "--rep", '{"highest": [2,1,0,0,1]}'],
        )
    )
    return out


COMMANDS = _commands()


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[n for n, _ in COMMANDS])
def test_golden_pin(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    code = main(argv)
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == codes[name]


# gu11 moved by a unimodular and a rational base change of V: the same
# datum in another presentation, so it prints the gu11 pins
BASE_CHANGED = [
    (name, [a.replace("/gu11.json", "/gu11_base_changed.json") for a in argv])
    for name, argv in COMMANDS
    if name in ("validate-gu11", "classify-gu11", "hodge-std-gu11")
]


@pytest.mark.parametrize("name,argv", BASE_CHANGED, ids=[n for n, _ in BASE_CHANGED])
def test_base_changed_gu11_prints_the_gu11_pin(name, argv, capsys, monkeypatch):
    assert f"{EXAMPLES}/gu11_base_changed.json" in argv
    test_golden_pin(name, argv, capsys, monkeypatch)


def write_pins() -> None:
    """Run every pinned command through ``python -m pelkit`` and store its
    stdout and exit code."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "pelkit", *argv], cwd=ROOT, capture_output=True, text=True
        )
        (GOLDEN / f"{name}.out").write_text(proc.stdout, encoding="utf-8")
        codes[name] = proc.returncode
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_pins()
