"""Run ``semireg.cli.main`` on a list of argument vectors in one process.

Usage: python child.py JOB.json

The job names the package source directory, the calls (each an argv and an
optional file for its standard output), whether to trace, the seed of the
kernel cases and the result file. Traced runs install the wrappers of
``tracing`` first and end with the six calls of ``kernel_cases``.
The result holds each call's exit code and seconds, the seconds of the calls
together (``section_s``) and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import semireg.cli

    import tracing
    from kernel_cases import run_kernel_cases

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    calls = []
    problems = []
    t0 = time.perf_counter()
    for call in job["calls"]:
        buf = io.StringIO()
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = semireg.cli.main(call["argv"])
        calls.append({"returncode": code, "seconds": time.perf_counter() - c0})
        if call["stdout"]:
            Path(call["stdout"]).write_text(buf.getvalue())
    section = time.perf_counter() - t0
    metrics = {}
    if tracer is not None:
        problems = run_kernel_cases(job["seed"])
        wall = time.perf_counter() - t0
        tracing.uninstall()
        metrics = tracing.layer_metrics(tracer, wall)
    Path(job["out"]).write_text(json.dumps({
        "calls": calls,
        "section_s": section,
        "metrics": metrics,
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
