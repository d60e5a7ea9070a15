"""One traced CLI invocation: ``clitrace.py <rsa-fixpoints arguments>``.

Behaves like ``python -m rsa_fixpoints`` (same stdout, stderr and exit
code): it imports the CLI, wraps the package with the benchmark's tracer,
then runs the package's ``__main__`` as ``-m`` would, timed in-process
with stdout captured.  The trace
summary is the last line of stderr, after the marker "PERFBENCH-TRACE ".
"""

import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

t0 = perf_counter()
import rsa_fixpoints.cli  # noqa: E402,F401  (timed: the import a CLI run pays)

import_ms = (perf_counter() - t0) * 1e3
sys.path.insert(0, str(ROOT))
from perfbench import spans as trace  # noqa: E402

tracer = trace.Tracer(keep=0)
cache_before = trace.cache_counts()
tracer.install()
buf = io.StringIO()
t1 = perf_counter()
with redirect_stdout(buf):
    sys.argv = ["rsa_fixpoints", *sys.argv[1:]]
    try:
        runpy.run_module("rsa_fixpoints", run_name="__main__", alter_sys=True)
        rc = 0
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
main_ms = (perf_counter() - t1) * 1e3
tracer.uninstall()
cache_after = trace.cache_counts()
sys.stdout.write(buf.getvalue())
sys.stdout.flush()
summary = tracer.summary()
summary.update(
    import_ms=import_ms,
    main_ms=main_ms,
    cache=[a - b for a, b in zip(cache_after, cache_before)] if cache_before else None,
)
print(trace.TRACE_LINE + json.dumps(summary), file=sys.stderr)
sys.exit(rc)
