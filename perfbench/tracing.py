"""Span tracing of pelkit's layers from outside the package.

``install`` replaces each public function by a timing wrapper under the
name its caller looks up: ``signature`` is bound in both ``pelkit.peldata``
and ``pelkit.algebras``, so both bindings are patched, and ``Matrix``
methods are patched on the class.  Nothing inside ``src/`` changes and
nothing is patched unless a traced run asks for it.

A span is ``(name, start, end, parent, op)``.  Spans stay in a list on the
``Recorder`` and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

ROOT = "op"  # the benchmark's own span around one operation

# (module, attribute, span name): every binding a caller looks the function up by.
SPANS = (
    ("pelkit.linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("pelkit.linalg", "Matrix.det", "linalg.det"),
    ("pelkit.linalg", "Matrix.inv", "linalg.inv"),
    ("pelkit.linalg", "Matrix.rank", "linalg.rank"),
    ("pelkit.linalg", "Matrix.solve", "linalg.solve"),
    ("pelkit.linalg", "Matrix.column_space_basis", "linalg.column_space_basis"),
    ("pelkit.linalg", "Matrix.transpose", "linalg.elementwise"),
    ("pelkit.linalg", "Matrix.__add__", "linalg.elementwise"),
    ("pelkit.linalg", "Matrix.__neg__", "linalg.elementwise"),
    ("pelkit.linalg", "Matrix.scale", "linalg.elementwise"),
    ("pelkit.peldata", "signature", "linalg.signature"),
    ("pelkit.algebras", "signature", "linalg.signature"),
    ("pelkit.peldata", "simult_eigensplit", "linalg.eigensplit"),
    ("pelkit.peldata", "check_anti_involution", "algebras.anti_involution"),
    ("pelkit.peldata", "check_positive", "algebras.positive"),
    ("pelkit.algebras", "AlgebraPresentation.from_catalog", "algebras.from_catalog"),
    ("pelkit.peldata", "validate", "peldata.validate"),
    ("pelkit.cli", "validate", "peldata.validate"),
    ("pelkit.fixtures", "validate", "peldata.validate"),
    ("pelkit.peldata", "classify", "peldata.classify"),
    ("pelkit.cli", "classify", "peldata.classify"),
    ("pelkit.fixtures", "classify", "peldata.classify"),
    ("pelkit.characters", "irr_char", "characters.irr_char"),
    ("pelkit.hodge", "irr_char", "characters.irr_char"),
    ("pelkit.cli", "irr_char", "characters.irr_char"),
    ("pelkit.characters", "decompose", "characters.decompose"),
    ("pelkit.admissibility", "decompose", "characters.decompose"),
    ("pelkit.cli", "decompose", "characters.decompose"),
    ("pelkit.characters", "tensor", "characters.tensor"),
    ("pelkit.cli", "tensor", "characters.tensor"),
    ("pelkit.characters", "restrict", "characters.restrict"),
    ("pelkit.admissibility", "restrict", "characters.restrict"),
    ("pelkit.hodge", "enumerate_av_irreducibles", "hodge.enumerate"),
    ("pelkit.fixtures", "enumerate_av_irreducibles", "hodge.enumerate"),
    ("pelkit.hodge", "hodge_type", "hodge.hodge_type"),
    ("pelkit.cli", "hodge_type", "hodge.hodge_type"),
    ("pelkit.hodge", "auto_cochar", "hodge.auto_cochar"),
    ("pelkit.cli", "auto_cochar", "hodge.auto_cochar"),
    ("pelkit.fixtures", "auto_cochar", "hodge.auto_cochar"),
    ("pelkit.admissibility", "decide", "admissibility.decide"),
    ("pelkit.cli", "decide", "admissibility.decide"),
    ("pelkit.fixtures", "decide", "admissibility.decide"),
    ("pelkit.isogeny", "arrow", "isogeny.arrow"),
    ("pelkit.isogeny", "minimal_n", "isogeny.minimal_n"),
    ("pelkit.isogeny", "compose", "isogeny.compose"),
    ("pelkit.isogeny", "run_law_suite", "isogeny.run_law_suite"),
    ("pelkit.cli", "run_law_suite", "isogeny.run_law_suite"),
    ("pelkit.serialize", "datum_from_json", "serialize.load"),
    ("pelkit.serialize", "morphism_from_json", "serialize.load"),
    ("pelkit.serialize", "load_json_file", "serialize.load"),
    ("pelkit.serialize", "dumps", "serialize.dumps"),
    ("pelkit.cli", "main", "cli.main"),
)


def _counts(counters, name, args, result):
    """Work counts taken at a span boundary from its arguments and result."""
    if name == "linalg.matmul":
        a, b = args
        counters["linalg.matmul.mul_adds"] += a.rows * a.cols * b.cols
    elif name == "peldata.validate":
        counters["peldata.validate.invalid"] += not result.valid
    elif name == "characters.decompose":
        counters["characters.decompose.peeled"] += len(result)
    elif name == "characters.tensor":
        counters["characters.tensor.out_support"] += len(result.support())
    elif name == "admissibility.decide":
        counters["admissibility.decide.admissible"] += result.admissible
    elif name == "serialize.dumps":
        counters["serialize.dumps.bytes"] += len(result)


# Spans whose call counts are reported: the ones an optimisation may change.
CALLS = (
    "linalg.matmul", "linalg.det", "linalg.inv", "linalg.rank", "linalg.solve",
    "linalg.column_space_basis", "linalg.signature", "characters.irr_char",
    "admissibility.decide", "isogeny.arrow", "isogeny.minimal_n", "isogeny.compose",
)

_COUNTED = {
    "linalg.matmul", "peldata.validate", "characters.decompose",
    "characters.tensor", "admissibility.decide", "serialize.dumps",
}


class Recorder:
    """Spans and counters of one traced run, in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.samples = defaultdict(list)  # per-op values kept whole, e.g. start-up times
        self.current = -1  # index of the open span, -1 outside any
        self.op = -1
        self._saved = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name, fn):
        counted = name in _COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = self.current
            self.current = idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.current = parent
                spans[idx] = (name, start, end, parent, self.op)
            if counted:
                _counts(self.counters, name, args, result)
            return result

        return wrapper

    def run_op(self, fn):
        """Run ``fn`` as the next op, inside a root span; returns (result or
        exception, seconds)."""
        self.op += 1
        wrapped = self._wrap(ROOT, fn)
        start = perf_counter()
        try:
            result = wrapped()
        except Exception as exc:  # counted as a failed op by the caller
            result = exc
        return result, perf_counter() - start

    def add_child_spans(self, payload):
        """Attach spans a traced child process wrote (see ``dump``) under
        the open root span; both processes read the same monotonic clock."""
        base = len(self.spans)
        names = payload["names"]
        for name, start, end, parent, _ in payload["spans"]:
            parent = self.current if parent < 0 else base + parent
            self.spans.append((names[name], start, end, parent, self.op))
        for key, value in payload["counters"].items():
            self.counters[key] += value

    # -- patching ----------------------------------------------------------------

    def install(self):
        import pelkit.cli  # noqa: F401  -- every patched module is loaded

        for module_name, attr, name in SPANS:
            owner, key = _owner(module_name, attr)
            raw = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._saved.append((owner, key, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, key, staticmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, key, self._wrap(name, raw))
        self._install_counters()

    def _install_counters(self):
        from pelkit import algebras, isogeny, linalg

        counters = self.counters
        init = linalg.Matrix.__init__
        post = isogeny.LatticeObject.__post_init__
        closure = algebras._closure

        def matrix_init(obj, data):
            counters["linalg.matrix.constructed"] += 1
            init(obj, data)

        def lattice_post_init(obj):
            counters["isogeny.lattice.constructed"] += 1
            post(obj)

        def closure_lookup(alg):
            result = closure(alg)  # the lru_cache object itself keeps counting
            counters["algebras.closure.lookups"] += 1
            counters["algebras.closure.dim_sum"] += len(result.basis)
            return result

        closure_lookup.cache_info = closure.cache_info

        for owner, key, new in (
            (linalg.Matrix, "__init__", matrix_init),
            (isogeny.LatticeObject, "__post_init__", lattice_post_init),
            (algebras, "_closure", closure_lookup),
        ):
            self._saved.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, raw in reversed(self._saved):
            setattr(owner, key, raw)
        self._saved.clear()

    # -- output ------------------------------------------------------------------

    def dump(self, path, extra=None):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": names,
                    "spans": [[index[n], a, b, p, o] for n, a, b, p, o in self.spans],
                    "counters": dict(self.counters),
                    **(extra or {}),
                },
                fh,
            )


def _owner(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, key = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, key


def cache_counts():
    """Hit and miss counters of pelkit's two memo tables, read, not reset."""
    from pelkit import algebras, characters

    c, b = algebras._closure.cache_info(), characters._block_irr.cache_info()
    return {
        "algebras.closure.hits": c.hits,
        "algebras.closure.misses": c.misses,
        "characters.block_irr.hits": b.hits,
        "characters.block_irr.misses": b.misses,
        "characters.block_irr.size": b.currsize,
    }


# -- aggregation -----------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(rec: Recorder, n_ops: int, untraced_s: float, extra_counts: dict) -> tuple:
    """Per-op layer metrics of a traced phase, and whether its accounting
    closes: layer self times plus the root remainder equal the op time."""
    spans = rec.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    op_time = 0.0
    for (name, start, end, parent, _), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
        if parent < 0:
            op_time += end - start
    accounted = sum(self_s.values())
    closes = abs(accounted - op_time) <= 1e-9 * len(spans) + 1e-6
    candidates = sum(
        1 for name, _, _, parent, _ in spans
        if name == "characters.irr_char" and parent >= 0 and spans[parent][0] == "hodge.enumerate"
    )
    counters = defaultdict(int, rec.counters)
    for key, value in extra_counts.items():
        counters[key] += value
    per_op = max(n_ops, 1)
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls[name] / per_op, "count/op")
    for name in dict.fromkeys(n for _, _, n in SPANS):
        metrics[f"{name}.self_s"] = (self_s[name] / per_op, "s/op")
    for key in (
        "linalg.matmul.mul_adds", "linalg.matrix.constructed", "peldata.validate.invalid",
        "characters.decompose.peeled", "characters.tensor.out_support",
        "admissibility.decide.admissible", "isogeny.lattice.constructed",
        "algebras.closure.hits", "algebras.closure.misses",
        "characters.block_irr.hits", "characters.block_irr.misses",
    ):
        metrics[key] = (counters[key] / per_op, "count/op")
    metrics["serialize.dumps.bytes"] = (counters["serialize.dumps.bytes"] / per_op, "B/op")
    metrics["hodge.enumerate.candidates"] = (candidates / per_op, "count/op")
    lookups = counters["algebras.closure.lookups"]
    metrics["algebras.closure.dim"] = (counters["algebras.closure.dim_sum"] / lookups if lookups else 0.0, "count")
    metrics["characters.block_irr.size"] = (counters["characters.block_irr.size"] / per_op, "count")
    metrics["trace.remainder_s"] = (self_s[ROOT] / per_op, "s/op")
    metrics["trace.overhead_ratio"] = (op_time / untraced_s - 1.0 if untraced_s > 0 else 0.0, "ratio")
    imports = [e - s for n, s, e, _, _ in spans if n == "cli.import"]
    metrics["cli.import_ms"] = (statistics.median(imports) * 1000 if imports else 0.0, "ms")
    starts = rec.samples["cli.interp_start"]
    metrics["cli.interp_start_ms"] = (statistics.median(starts) * 1000 if starts else 0.0, "ms")
    return metrics, closes, {"op_time_s": op_time, "accounted_s": accounted, "spans": len(spans)}
