#!/usr/bin/env python3
"""pelkit benchmark.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src``.  Each workload is a closed loop with one client, in one
process: an operation starts only when the previous one has finished.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Any wrong or
raising operation makes the run exit 1.  The full record, with provenance
and input properties, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("structure", "reps", "lattice", "cli")
SETUP_RUNS = 3  # set-up is timed this many times, each in a fresh process; the median is reported
CHILD_TIMEOUT_S = 170
TRACE_CHUNK = 48  # ops per untraced/traced pair in a traced run
MIN_OPS = 100  # so that at least 10 latencies lie beyond the 90th percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description="pelkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--break-expectation", action="store_true",
                   help="negate the first operation's expectation (self-test of the correctness gate)")
    return p.parse_args(argv)


# -- provenance ---------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over ``src``: identifies the code where there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, ops):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_run": ops,
        "setup_runs": SETUP_RUNS if args.trace == 0 else 1,
    }


# -- measurement --------------------------------------------------------------------


def setup(args, workdir):
    """Input generation, file writes, imports and warm-up: everything before
    timing.  Returns the workload, the set-up time and that time scaled to
    the reference host speed (see hostspeed)."""

    def build():
        import workloads  # imports pelkit

        wl = workloads.BUILDERS[args.workload](args.seed, workdir, ROOT)
        wl.warm()
        # The input pool is the benchmark's, not the program's: keep it out of
        # the collector's scans, so their cost does not grow with the pool.
        gc.collect()
        gc.freeze()
        return wl

    return hostspeed.bracket(build)


def timed_loop(stream, seconds=None, count=None, rec=None, in_process=True, min_ops=0, track=None):
    """Closed loop over ``stream`` for ``seconds`` and at least ``min_ops``
    ops, or for ``count`` ops.  With a ``hostspeed.Track``, the host's
    speed is probed between operations.
    Returns the ops, their results, latencies and end times (from the
    start); results are checked afterwards, outside the timed region."""
    ops, results, lat, ends = [], [], [], []
    if rec is not None and in_process:
        from tracing import cache_counts
    start = perf_counter()
    deadline = start + (seconds or 0)
    for op in stream if count is None else islice(stream, count):
        if track is not None:
            track.tick(perf_counter() - start)
        if rec is None:
            t0 = perf_counter()
            try:
                res = op.run(None)
            except Exception as exc:  # counted as a failed op
                res = exc
            dt = perf_counter() - t0
        else:
            res, dt = rec.run_op(lambda op=op: op.run(rec))
            if in_process:
                rec.counters["characters.block_irr.size"] += cache_counts()["characters.block_irr.size"]
        ops.append(op)
        results.append(res)
        lat.append(dt)
        ends.append(perf_counter() - start)
        if count is None and start + ends[-1] >= deadline and len(ops) >= min_ops:
            break
    return ops, results, lat, ends


def count_failures(ops, results, break_first):
    failed, first = 0, None
    for i, (op, res) in enumerate(zip(ops, results)):
        try:
            ok = not isinstance(res, Exception) and bool(op.check(res))
        except (ValueError, KeyError, TypeError, AttributeError, IndexError):
            ok = False
        if break_first and i == 0:
            ok = not ok
        if not ok:
            failed += 1
            if first is None:
                first = f"op {i} ({op.kind}): {res!r}"[:500]
    return failed, first


def child_setup_times(args):
    times = []
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def input_latencies(cycle, ops, lat):
    """The median latency of each operation of ``cycle`` over its runs among
    the executed ``ops`` (the same objects, repeated), in cycle order."""
    runs = {}
    for op, dt in zip(ops, lat):
        runs.setdefault(id(op), []).append(dt)
    return [statistics.median(runs[id(op)]) for op in cycle if id(op) in runs]


def input_weighted_median(cycle, ops, lat):
    """The median over every run of every operation of ``cycle``, each
    operation weighing the same however often the loop reached it."""
    in_cycle = {id(op) for op in cycle}
    runs = Counter(id(op) for op in ops if id(op) in in_cycle)
    half, acc = len(runs) / 2, 0.0
    for dt, w in sorted((dt, 1 / runs[id(op)]) for op, dt in zip(ops, lat) if id(op) in in_cycle):
        acc += w
        if acc >= half:
            return dt


def end_to_end(args, wl, setup_run):
    import tracing

    before = tracing.cache_counts()
    track = hostspeed.Track(1.0 if wl.in_process else hostspeed.CHILD_SENSITIVITY)
    ops, results, lat, ends = timed_loop(wl.stream(), seconds=args.seconds, min_ops=MIN_OPS, track=track)
    after = tracing.cache_counts()
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # read before the set-up children run
    failed, first = count_failures(ops, results, args.break_expectation)
    setups = [setup_run] + child_setup_times(args)
    # Every latency is scaled to the reference host speed by the probes
    # around it (see hostspeed).  Each input of the cycle then counts once;
    # the head's extra input is left out.  The median takes every run, which
    # fills the gaps between the costs of neighbouring inputs; the 90th
    # percentile takes each input's median run, so that one slow run of a
    # heavy input does not count.
    scaled = [dt * track.scale(end - dt / 2) for dt, end in zip(lat, ends)]
    per_input = input_latencies(wl.ops, ops, scaled)
    metrics = {
        "ops_per_s": (len(per_input) / sum(per_input), "op/s"),
        "latency_p50_ms": (input_weighted_median(wl.ops, ops, scaled) * 1000, "ms"),
        "latency_p90_ms": (p90(per_input) * 1000, "ms"),
        "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "success_ratio": ((len(ops) - failed) / len(ops), "ratio"),
    }
    props = wl.properties(ops)
    if wl.in_process:
        props["cache_hit_ratios"] = _hit_ratios(before, after)
    raw = input_latencies(wl.ops, ops, lat)
    extra = {"error_ratio": failed / len(ops), "setup_runs": setups, "latency_samples": len(lat),
             "runs_per_input": statistics.median(Counter(map(id, ops)).values()),
             "host_probe": track.summary(),
             "unscaled": {
                 "ops_per_s": len(raw) / sum(raw), "latency_p50_ms": input_weighted_median(wl.ops, ops, lat) * 1000,
                 "latency_p90_ms": p90(raw) * 1000, "setup_s": statistics.median(s["setup_s"] for s in setups)},
             "first_failure": first}
    return ops, failed, metrics, props, extra


def _hit_ratios(before, after):
    out = {}
    for cache in ("algebras.closure", "characters.block_irr"):
        hits = after[f"{cache}.hits"] - before[f"{cache}.hits"]
        misses = after[f"{cache}.misses"] - before[f"{cache}.misses"]
        out[cache] = round(hits / (hits + misses), 4) if hits + misses else None
    return out


def per_layer(args, wl, setup_run):
    """Chunks of ops run untraced and the same ops again traced, in turn
    until ``--seconds`` have passed, so both see the same machine state.
    A chunk holds more distinct algebras than the closure cache, so the
    traced replay does not find the untraced run's closures."""
    import tracing

    rec = tracing.Recorder()
    untraced, traced = wl.stream(), wl.stream()
    ops, results, t_ops, t_results = [], [], [], []
    untraced_s = 0.0
    deltas = Counter()
    chunk = min(TRACE_CHUNK, len(wl.ops))
    start = perf_counter()
    while not t_ops or perf_counter() - start < args.seconds:
        # which half of a pair goes first alternates, so order effects cancel
        if len(t_ops) // chunk % 2 == 0:
            o, r, lat, _ = timed_loop(untraced, count=chunk)
        before = tracing.cache_counts()
        rec.install()
        try:
            to, tr, _, _ = timed_loop(traced, count=chunk, rec=rec, in_process=wl.in_process)
        finally:
            rec.uninstall()
        after = tracing.cache_counts()
        if len(t_ops) // chunk % 2 == 1:
            o, r, lat, _ = timed_loop(untraced, count=chunk)
        deltas.update({k: after[k] - before[k] for k in after if not k.endswith(".size")})
        ops += o
        results += r
        t_ops += to
        t_results += tr
        untraced_s += sum(lat)
    failed, first = count_failures(ops + t_ops, results + t_results, args.break_expectation)
    metrics, closes, info = tracing.layer_metrics(rec, len(t_ops), untraced_s, deltas)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    rec.dump(trace_file, {"workload": args.workload, "seed": args.seed})
    props = wl.properties(t_ops)
    extra = {"accounting": {**info, "closes": closes}, "trace_file": str(trace_file.relative_to(ROOT)),
             "first_failure": first}
    if not closes:
        sys.stderr.write(f"trace accounting does not close: {info}\n")
    return ops + t_ops, failed + (not closes), metrics, props, extra


def run_workload(args):
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl, setup_s, scaled_s = setup(args, workdir)
        setup_run = {"setup_s": setup_s, "scaled_s": scaled_s}
        if args.setup_only:
            print(json.dumps(setup_run))
            return 0
        measure = per_layer if args.trace else end_to_end
        ops, failed, metrics, props, extra = measure(args, wl, setup_run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, **result, "properties": props, **extra,
              "provenance": provenance(args, len(ops))}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if extra.get("first_failure"):
        sys.stderr.write(f"first failure: {extra['first_failure']}\n")
    print("# properties " + json.dumps(props, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process, one after another, then a table."""
    rows, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--break-expectation"] if args.break_expectation else []),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
        if not lines:
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
        for metric, m in result["metrics"].items():
            print(f"{name:10s} {metric:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": ok and all(r["correct"] for _, r in rows),
                      "workloads": {n: r for n, r in rows}}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pelkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: {ROOT / 'src' / 'pelkit'} not found; run inside a pelkit checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
