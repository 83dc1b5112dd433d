"""One repeat of one workload, in a fresh interpreter.

Started by run.py as

    python3 perfbench/child.py WORKLOAD SEED WORKDIR RESULT [--setup-only]
                               [--trace SPANS.jsonl]

Set-up (interpreter start, the numpy/scipy/twophase imports and the seeded
inputs) ends at `ready`, a CLOCK_MONOTONIC reading the parent subtracts its
spawn time from.  The timed region runs the workload and checks its
outputs.  The result goes to RESULT as JSON; the package's own prints go to
stdout, which the parent sends to a log file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _library_versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv) -> int:
    workload, seed, workdir, result_path = argv[:4]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import workloads
    import twophase

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(twophase.__file__).startswith(src + os.sep):
        print(f"twophase imported from {twophase.__file__}, not {src}",
              file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(workload, int(seed),
                                   os.path.join(workdir, "inputs"))
    ready = time.monotonic()
    result = {"ready": ready, "digest": inputs["digest"],
              "versions": _library_versions()}
    if not setup_only:
        tracer = None
        if spans_path is not None:
            import layers
            from tracer import Tracer
            tracer = Tracer()
            layers.instrument(tracer)
        notes = {}
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            checks = workloads.run(workload, inputs,
                                   os.path.join(workdir, "out"), notes)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            restored = tracer.restore() if tracer is not None else True
        result.update({
            "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks": checks, "notes": notes})
        if tracer is not None:
            result["checks"].append(("harness.wrappers_restored", restored))
            result["layers"] = layers.collect(tracer)
            tracer.write_jsonl(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
