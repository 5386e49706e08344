"""Traced stand-in for ``python -m pelkit``: installs the span wrappers,
calls ``pelkit.cli.main(argv)`` and writes its spans to a file.

    python3 perfbench/cli_traced.py SPAN_FILE ARGV...

Run with ``src`` and ``perfbench`` on PYTHONPATH.  The first timestamp is
taken before any import, so the caller can tell interpreter start-up from
the import of ``pelkit.cli``.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    rec.op = 0
    rec.spans.append(None)
    begin = perf_counter()
    import pelkit.cli

    rec.spans[0] = ("cli.import", begin, perf_counter(), -1, 0)
    rec.install()
    try:
        code = pelkit.cli.main(argv)
    finally:
        rec.uninstall()
        caches = tracing.cache_counts()
        for key in ("algebras.closure.hits", "algebras.closure.misses",
                    "characters.block_irr.hits", "characters.block_irr.misses",
                    "characters.block_irr.size"):
            rec.counters[key] += caches[key]
        rec.dump(span_file, {"start": START})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
