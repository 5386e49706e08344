"""The four workloads: seeded inputs, the operation each input drives, and
the check of every result against its expectation.

Every library call goes through a module attribute (``peldata.validate``,
not a bare ``validate``), so a traced run sees it through the patched name.

Each workload is a fixed, shuffled sequence of operations that the timed
loop cycles through; its composition is stratified (fixed counts per input
family and size) and the seed picks the concrete inputs and the order.
That keeps the mix, and so the medians, the same from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable

from pelkit import admissibility, characters, hodge, isogeny, peldata, serialize
from pelkit.characters import TorusMap

import char_data as cd
import pel_data as pd

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str  # input family or command, for the shares
    run: Callable  # run(recorder or None) -> result
    check: Callable  # check(result) -> bool
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list  # one cycle, in seeded order
    properties: Callable  # properties(executed ops) -> dict
    head: list = None  # the first cycle, if it differs from ``ops``
    warmup: list = None  # ops run once, untimed, in set-up; all of ``ops`` if None
    in_process: bool = True  # False when each op runs in a child process

    def stream(self):
        return itertools.chain(self.head or (), itertools.cycle(self.ops))

    def warm(self):
        """Run the warm-up ops so caches fill and lazy set-up finishes
        before timing."""
        for op in self.ops if self.warmup is None else self.warmup:
            op.run(None)


def _shares(values) -> dict:
    counts = Counter(values)
    total = sum(counts.values()) or 1
    return {str(k): round(v / total, 4) for k, v in sorted(counts.items(), key=lambda kv: str(kv[0]))}


# -- structure ----------------------------------------------------------------------

_QUAT_PARAMS = ((-1, -1), (-1, -2), (-1, -3), (-2, -1), (-3, -1))
_BALANCED_D = (-2, -3, -5, -6, -7)


def _unitary(rng, a, b):
    """U(a, b) over Q(i), with the copies in seeded order."""
    signs = [1] * a + [-1] * b
    rng.shuffle(signs)
    return pd.unitary(signs)


def _structure_cases(rng):
    """Canonical and base-changed valid data plus mutations, in fixed counts
    per family and size.

    The canonical heavy band (dimension 32 to 64, or the M_2(D) closure) sits
    around the 90th percentile.  Base change is kept to dimension <= 16 and
    a single M_2(D).  Mutations use small data, so they stay below the
    median whatever axiom they break.  The seed picks the order, every base
    change, the copy order of unitary data, and the coefficient field or
    quaternion algebra of the smallest data; where a choice would move an
    operation's cost across the median or the 90th percentile, it is fixed.
    """
    def quat(m, n=1):
        return pd.quaternion(n, m, *rng.choice(_QUAT_PARAMS))

    def small_balanced(k):
        return pd.balanced(rng.choice(_BALANCED_D), k)

    canonical = (
        [pd.symplectic(1, g) for g in (2, 4, 8, 16, 28, 32)]
        + [pd.symplectic(2, g) for g in (1, 2, 4, 8)]
        + [_unitary(rng, a, b) for a, b in ((1, 0), (1, 1), (2, 1), (2, 2))]
        + [small_balanced(1), pd.balanced(-2, 2), pd.balanced(-2, 8)]
        + [quat(1), pd.quaternion(1, 2, -1, -1), pd.quaternion(1, 4, -1, -1)]
        + [pd.quaternion(1, 8, -1, -1), pd.quaternion(2, 1, -1, -1)]
    )
    changed = [
        pd.base_change(c, rng)
        for c in (
            [pd.symplectic(1, g) for g in (2, 4, 8)]
            + [pd.symplectic(2, g) for g in (1, 2)]
            + [_unitary(rng, 1, 1), _unitary(rng, 3, 1)]
            + [small_balanced(1), pd.balanced(-2, 2)]
            + [pd.quaternion(1, 1, -1, -1), pd.quaternion(1, 2, -1, -1), pd.quaternion(2, 1, -1, -1)]
        )
    ]
    mutants = [
        pd.mutate(pd.symplectic(1, 2), "negate_pairing"),
        pd.base_change(pd.mutate(pd.symplectic(1, 4), "zero_pairing"), rng),
        pd.mutate(pd.symplectic(2, 1), "identity_star"),
        pd.base_change(pd.mutate(pd.symplectic(2, 2), "double_j"), rng),
        pd.mutate(_unitary(rng, 1, 1), "negate_j"),
        pd.base_change(pd.mutate(_unitary(rng, 2, 1), "perturb_pairing"), rng),
        pd.mutate(small_balanced(1), "identity_star"),
        pd.base_change(pd.mutate(quat(1), "negate_pairing"), rng),
        pd.mutate(quat(2), "double_j"),
    ]
    return canonical + changed + mutants


def _pipeline(datum) -> str:
    """validate -> classify -> shimura_report -> auto_cochar -> hodge_type(std) -> dumps."""
    report = peldata.validate(datum)
    if not report.valid:
        return serialize.dumps({"validation": report.to_dict()})
    cl = peldata.classify(datum)
    hc = hodge.auto_cochar(cl)
    ht = hodge.hodge_type(cl.standard_char, hc)
    return serialize.dumps(
        {
            "factors": cl.factorization.to_dict(),
            "shimura": peldata.shimura_report(cl.factorization).to_dict(),
            "cocharacter": hc.to_dict(),
            "hodge_type": [list(pq) for pq in ht.sorted_pairs()],
        }
    )


def check_classification(expected: dict, payload: dict) -> bool:
    """Compare the validation verdict, or the factorization and Shimura
    flags, with the fields fixed by construction."""
    if "validation" in expected:
        got = payload.get("validation", payload)
        return all(got.get(k) == v for k, v in expected["validation"].items())
    shimura = payload.get("shimura", {})
    return payload.get("factors") == expected["factors"] and all(
        shimura.get(k) == v for k, v in expected["shimura"].items()
    )


def check_pipeline(expected: dict, payload: dict) -> bool:
    if not check_classification(expected, payload):
        return False
    return "validation" in expected or (
        payload["cocharacter"]["mu2"] == expected["mu2"]
        and payload["hodge_type"] == expected["hodge_type"]
    )


def _structure_op(case: pd.Case) -> Op:
    expected = case.expected()

    def check(text):
        return check_pipeline(expected, json.loads(text))

    if case.base_changed:
        # in memory: a base-changed structured datum does not survive
        # datum_to_json (see pel_data)
        datum = case.datum
        run = lambda rec: _pipeline(datum)  # noqa: E731
    else:
        text = json.dumps(serialize.datum_to_json(case.datum))
        run = lambda rec: _pipeline(serialize.datum_from_json(json.loads(text)))  # noqa: E731
    props = {
        "dim": case.dim, "base_changed": case.base_changed,
        "mutation": case.mutation is not None, "via_json": not case.base_changed,
    }
    return Op(case.label, run, check, props)


def _structure_properties(ops):
    return {
        "dim_histogram": _shares(op.props["dim"] for op in ops),
        "family_shares": _shares(op.kind for op in ops),
        "base_changed_share": round(sum(op.props["base_changed"] for op in ops) / max(len(ops), 1), 4),
        "mutation_share": round(sum(op.props["mutation"] for op in ops) / max(len(ops), 1), 4),
        "json_loaded_share": round(sum(op.props["via_json"] for op in ops) / max(len(ops), 1), 4),
    }


def structure(seed: int, workdir: Path, root: Path) -> Workload:
    rng = Random(seed)
    ops = [_structure_op(c) for c in _structure_cases(rng)]
    first = ops[:1]  # the smallest datum, so set-up time does not follow the seed
    rng.shuffle(ops)
    # M_3(D): canonical only, once per run; base-changed it takes seconds.
    rare = _structure_op(pd.quaternion(3, 1, -1, -1))
    head = ops[:]
    head.insert(rng.randrange(len(head) + 1), rare)
    # The closure cache holds 8 algebras and a cycle has more distinct ones,
    # so it is reused only within an operation; warming it would be moot.
    return Workload("structure", ops, _structure_properties, head, warmup=first)


# -- reps ---------------------------------------------------------------------------

_DECOMPOSE_TYPES = ("C3", "C4", "A4", "D4", "C2xC2")
_DECIDE_POOLS = {
    "C2": [(1, 0, 1), (0, 0, 2), (1, 1, 2), (2, 0, 2), (1, 0, 3), (0, 0, 1), (1, 1, 1)],
    "C3": [(1, 0, 0, 1), (1, 1, 0, 2), (0, 0, 0, 2), (2, 0, 0, 2), (1, 1, 1, 1)],
}


def _decompose_op(spec: str, k: int) -> Op:
    rd = cd.root_datum(spec)
    std = cd.std_char(rd)
    expected = cd.std_power_parts(rd, k)

    def run(rec):
        x = std
        for _ in range(k - 1):
            x = characters.tensor(x, std)
        return characters.decompose(rd, x)

    return Op(f"decompose:{spec}", run, lambda parts: dict(parts) == expected,
              {"support": _support_size(std, k)})


def _support_size(std, k):
    """Number of distinct weights of std^k."""
    weights = {(0,) * std.rank()}
    for _ in range(k):
        weights = {tuple(a + b for a, b in zip(w, s)) for w in weights for s in std.support()}
    return len(weights)


def _genuine(rd, parts):
    return characters.add_chars(*(characters.irr_char(rd, lam).scale(m) for lam, m in parts.items()))


def _decide_op(rng, spec: str) -> Op:
    rd = cd.root_datum(spec)
    pool = _DECIDE_POOLS[spec]
    source_parts = cd.random_parts(rng, pool, 3)
    pulled_parts = cd.random_parts(rng, pool, 3)
    source, pulled = _genuine(rd, source_parts), _genuine(rd, pulled_parts)
    m = admissibility.MorphismSpec(
        admissibility.RepSide(rd, source),
        admissibility.RepSide(rd, pulled),
        TorusMap(cd.signed_permutation(rng, rd)),
    )
    expected = cd.morphism_verdict(source_parts, pulled_parts)
    return Op(f"decide:{spec}", lambda rec: admissibility.decide(m).to_dict(),
              lambda got: got == expected, {"support": len(pulled.support())})


def _c_cochar(n: int):
    """The auto cocharacter of a C_n similitude datum: mu2 = (1, ..., 1 | 1)."""
    return hodge.HodgeCochar((1,) * (n + 1), (-1,) * n + (1,), (0,) * n + (2,))


def _enumerate_op(n: int, bound: int) -> Op:
    rd = cd.root_datum(f"C{n}")
    hc = _c_cochar(n)
    expected = ((1,) + (0,) * (n - 1) + (1,),)
    return Op(f"enumerate:C{n}", lambda rec: hodge.enumerate_av_irreducibles(rd, hc, bound),
              lambda got: tuple(got) == expected, {"bound": bound})


def _hodge_op(n: int, highest) -> Op:
    rd = cd.root_datum(f"C{n}")
    hc = _c_cochar(n)
    expected = cd.c_hodge_pairs(highest)

    def run(rec):
        return [list(pq) for pq in hodge.hodge_type(characters.irr_char(rd, highest), hc).sorted_pairs()]

    return Op(f"hodge:C{n}", run, lambda got: got == expected,
              {"support": len(characters.irr_char(rd, highest).support())})


def _reps_properties(ops):
    supports = [op.props["support"] for op in ops if "support" in op.props]
    return {
        "op_shares": _shares(op.kind.split(":")[0] for op in ops),
        "type_shares": _shares(op.kind for op in ops),
        "support_sizes": {"min": min(supports, default=0), "max": max(supports, default=0),
                          "mean": round(sum(supports) / max(len(supports), 1), 1)},
    }


def _c_weight(rng, n: int, size: int):
    """A seeded dominant C_n weight with |lam| = size."""
    cuts = sorted(rng.randint(0, size) for _ in range(n - 1))
    return tuple(sorted((b - a for a, b in zip([0] + cuts, cuts + [size])), reverse=True))


def reps(seed: int, workdir: Path, root: Path) -> Workload:
    """More than half of the cycle is the fixed grid of tensor-power
    decompositions, so the median falls inside it; the seeded morphisms and
    weights are cheaper and sit below it."""
    rng = Random(seed)
    ops = [_decompose_op(spec, k) for spec in _DECOMPOSE_TYPES for k in range(3, 7)]
    ops += [_decide_op(rng, spec) for spec in ("C2", "C3") for _ in range(3)]
    ops += [_enumerate_op(n, bound) for n, bound in ((2, 4), (2, 8), (3, 5), (3, 8))]
    for n, sizes in ((2, (3, 6)), (3, (2, 5)), (4, (2, 4))):
        for size in sizes:
            lam = _c_weight(rng, n, size)
            ops.append(_hodge_op(n, lam + (size % 2 + 2 * rng.randint(-1, 1),)))
    rng.shuffle(ops)
    return Workload("reps", ops, _reps_properties)  # warm-up fills _block_irr


# -- lattice ------------------------------------------------------------------------

_LAWS = 6


def _law_op(trials: int, seed: int) -> Op:
    def check(results):
        return len(results) == _LAWS and all(
            r["trials"] == trials and r["failures"] == 0 for r in results.values()
        )

    return Op(f"trials:{trials}", lambda rec: isogeny.run_law_suite(trials=trials, seed=seed), check,
              {"trials": trials})


def lattice(seed: int, workdir: Path, root: Path) -> Workload:
    rng = Random(seed)
    seeds = rng.sample(range(1 << 30), 384)  # distinct law-suite seeds within a cycle
    trials = [k for _ in range(len(seeds) // 3) for k in rng.sample((1, 2, 3), 3)]  # equal shares
    ops = [_law_op(k, s) for k, s in zip(trials, seeds)]
    return Workload("lattice", ops, lambda done: {"trials_shares": _shares(op.props["trials"] for op in done)},
                    warmup=[_law_op(1, 0)])  # the same for every seed, as is set-up time


# -- cli ----------------------------------------------------------------------------

_DOCS = {
    "modular_curve.json": ("symplectic", (1,)),
    "modular_curve_m2.json": ("symplectic", (1,)),
    "gu11.json": ("unitary", (1, 1)),
    "gsp8_tensor.json": ("symplectic", (4,)),
    "quaternion.json": ("orthogonal", (1,)),
    "balanced_sqrt_minus_2.json": ("unitary", (1, 1)),
}


class _Cli:
    """Runs ``python -m pelkit``, or under tracing ``cli_traced.py``, as a child."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
        self.span_file = workdir / "child_spans.json"

    def __call__(self, argv, rec):
        if rec is None:
            cmd = [sys.executable, "-m", "pelkit", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(self.span_file), *argv]
        spawned = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)
        if rec is not None:
            payload = json.loads(self.span_file.read_text(encoding="utf-8"))
            rec.samples["cli.interp_start"].append(payload["start"] - spawned)
            rec.add_child_spans(payload)
        return proc.returncode, proc.stdout


def _cli_json_check(rc_expected, test):
    def check(result):
        rc, out = result
        if rc != rc_expected:
            return False
        try:
            return test(json.loads(out))
        except (ValueError, KeyError, TypeError):
            return False

    return check


def _cli_datum_ops(cli, path: str, case: pd.Case, rng) -> list:
    exp = case.expected()
    valid = case.failure_code is None
    rc = 0 if valid else 1
    ops = [
        Op("validate", lambda rec: cli(["validate", path], rec),
           _cli_json_check(rc, lambda o: o["valid"] is valid and (valid or check_classification(exp, o)))),
        Op("classify", lambda rec: cli(["classify", path], rec),
           _cli_json_check(rc, lambda o: check_classification(exp, o))),
    ]
    if valid:
        ops.append(Op("hodge", lambda rec: cli(["hodge", "--datum", path, "--rep", "std"], rec),
                      _cli_json_check(0, lambda o: o["hodge_type"] == exp["hodge_type"]
                                      and o["cocharacter"]["mu2"] == exp["mu2"])))
        if case.kind == "symplectic":
            g = case.params[0]
            lam = _c_weight(rng, g, rng.randint(1, 3))
            highest = list(lam) + [sum(lam) % 2 + 2 * rng.randint(0, 1)]
            ops.append(Op("hodge", lambda rec: cli(["hodge", "--datum", path, "--rep",
                                                     json.dumps({"highest": highest})], rec),
                          _cli_json_check(0, lambda o: o["hodge_type"] == cd.c_hodge_pairs(highest))))
    return ops


def _cli_properties(ops):
    return {"command_shares": _shares(op.kind for op in ops)}


def cli(seed: int, workdir: Path, root: Path) -> Workload:
    rng = Random(seed)
    run = _Cli(root, workdir)
    cases = [
        pd.symplectic(1, rng.randint(1, 4)), pd.symplectic(2, rng.randint(1, 2)),
        _unitary(rng, *rng.choice(((1, 0), (1, 1), (2, 1)))), pd.balanced(rng.choice(_BALANCED_D), 1),
        pd.quaternion(1, rng.randint(1, 2), *rng.choice(_QUAT_PARAMS)),
    ]
    cases += [pd.mutate(c, rng.choice(pd.mutations_for(c))) for c in rng.sample(cases, 2)]
    ops = []
    for i, case in enumerate(cases):
        path = workdir / f"datum_{i}.json"
        path.write_text(serialize.dumps(serialize.datum_to_json(case.datum)), encoding="utf-8")
        ops += _cli_datum_ops(run, str(path), case, rng)
    for name, (kind, params) in _DOCS.items():
        case = pd.Case("docs", None, kind, params)
        ops += _cli_datum_ops(run, str(root / "docs" / "examples" / name), case, rng)[:2]
    for i in range(4):
        rd = cd.root_datum("C2")
        pool = _DECIDE_POOLS["C2"]
        sp, pp = cd.random_parts(rng, pool, 3), cd.random_parts(rng, pool, 3)
        spec = admissibility.MorphismSpec(admissibility.RepSide(rd, _genuine(rd, sp)),
                                          admissibility.RepSide(rd, _genuine(rd, pp)), TorusMap.identity(3))
        path = workdir / f"morphism_{i}.json"
        path.write_text(serialize.dumps(serialize.morphism_to_json(spec)), encoding="utf-8")
        verdict = cd.morphism_verdict(sp, pp)
        ops.append(Op("admissible", lambda rec, p=str(path): run(["admissible", "--morphism", p], rec),
                      _cli_json_check(0 if verdict["admissible"] else 1, lambda o, v=verdict: o == v)))
    twist = str(root / "docs" / "examples" / "det_twist_morphism.json")
    ops.append(Op("admissible", lambda rec: run(["admissible", "--morphism", twist], rec),
                  _cli_json_check(1, lambda o: not o["admissible"] and [3, 2, 1] in o["missing_constituents"])))
    # The heavier commands are few, so a 20 s run holds well over 100 ops.
    for spec, k in (("C3", 3), ("C3", 4), ("D4", 3)):
        rd = cd.root_datum(spec)
        parts = cd.std_power_parts(rd, k)
        dim = len(cd.std_char(rd).support()) ** k
        ops.append(Op("rep_decompose", lambda rec, s=spec, k=k: run(
            ["rep", "decompose", "--type", s, "--tensor", ",".join(["std"] * k)], rec),
            _cli_json_check(0, lambda o, p=parts, d=dim: o["dimension"] == d and
                            {tuple(c["highest"]): c["mult"] for c in o["constituents"]} == p)))
    # The 90th percentile of the 51 inputs falls in the middle of these
    # eight fixtures runs, all of the same cost, and not in a gap between
    # commands of different cost, where it would swing with their order.
    for _ in range(8):
        ops.append(Op("fixtures", lambda rec: run(["fixtures", "--seed", "0"], rec),
                      _cli_json_check(0, lambda o: o["pass"] and all(r["pass"] for r in o["conformance"]))))
    for _ in range(2):
        s = rng.randrange(1 << 20)
        ops.append(Op("isofun", lambda rec, s=s: run(["isofun", "check", "--trials", "20", "--seed", str(s)], rec),
                      _cli_json_check(0, lambda o: o["pass"] and all(
                          r["failures"] == 0 and r["trials"] == 20 for r in o["laws"].values()))))
    first = ops[:1]  # validate: the same command for every seed, as is set-up time
    rng.shuffle(ops)
    # Warm only the page cache and bytecode files: every op pays its own start-up.
    return Workload("cli", ops, _cli_properties, warmup=first, in_process=False)


BUILDERS = {"structure": structure, "reps": reps, "lattice": lattice, "cli": cli}
