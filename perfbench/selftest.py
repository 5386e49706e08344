#!/usr/bin/env python3
"""Self-test of the benchmark at minimal length.

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json,
with its unit, in both modes; that a deliberately wrong expectation trips
the correctness gate (exit 1, ``correct`` false); and that a directory
holding only the benchmark, without ``src``, fails without a result.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, proc = run("--workload", workload, "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}, stderr {proc.stderr[-300:]!r}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {wrong}")
            print(f"ok  {where}: {result['attempted']} ops, {len(got)} metrics")

    code, result, _ = run("--workload", "lattice", "--seed", "0", "--seconds", "1", "--break-expectation")
    if code == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"wrong expectation did not trip the gate: exit {code}, result {result}")
    else:
        print("ok  a wrong expectation exits 1 with correct=false")

    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result, _ = run("--workload", "lattice", "--seed", "0", "--seconds", "1",
                              cwd=bare, script=bare / HERE.name / "run.py")
        if code == 0 or result is not None:
            problems.append(f"without src: exit {code}, result {result}")
        else:
            print(f"ok  without src: exit {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
