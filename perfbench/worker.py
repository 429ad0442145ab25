"""The measured process: one session of CLI operations, as a user's process runs them.

    python3 perfbench/worker.py SESSION_JSON RESULT_JSON SPAWN_MONOTONIC TRACE_SPANS_OR_DASH

``SPAWN_MONOTONIC`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so set-up time covers interpreter start, ``import
sharpcert`` and loading the session.  With a spans path, tracing wraps the
package's layers and the spans are written there when the session ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from sharpcert import cli


def main(session_path, result_path, spawn_monotonic, spans_path):
    with open(session_path) as fh:
        ops = json.load(fh)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawn_monotonic)
    tracer = None
    if spans_path != "-":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a failed benchmark
            rc = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        results.append({"rc": rc, "seconds": seconds, "stderr": err.getvalue()[-20000:]})

    record = {
        "setup_s": setup_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
