"""Run one CLI invocation with spans recorded, in a fresh interpreter.

    python -X importtime perfbench/launch.py RECORD.json [CLI ARGS...]

Times ``import twoslab.cli``, installs the span wrappers, calls
``twoslab.cli.main(args)`` and writes the spans, counts and timings to
RECORD.json.  With no CLI arguments it only measures the import.  The
exit code is the CLI's.  Needs ``src`` on PYTHONPATH.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import twoslab.cli

    import_s = time.perf_counter() - t0
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = 0
    if argv:
        tracer.op = 0
        code = tracer.wrap(twoslab.cli.main, "cli.main")(argv)
    record = {
        "import_s": import_s,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "in_process_s": time.perf_counter() - _STARTED,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
