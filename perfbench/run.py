"""The semireg benchmark: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {corpus,structural,cli,all} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics instead. The metrics each mode reports are listed in
``BENCHMARK.json``. Every run checks the program's outputs (see
``workloads.py``), prints each metric with its unit, writes a result file
under ``.bench_results/`` with the provenance of the run, and prints one JSON
object as its last line. A failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, overhead_ratio) -> dict:
    import numpy

    import semireg

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel_backend": semireg.kernel_backend,
        "seed": seed,
        "trace.overhead_ratio": overhead_ratio,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semireg" / "__init__.py").is_file():
        print(f"no semireg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # one CPU for the benchmark and every process it starts, so the speed
    # calibrations (measure.speed_factor) run where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds)
    try:
        out = workloads.WORKLOADS[args.workload][args.trace](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
    if missing:
        out.problems.append(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": out.metrics[m["name"]][0], "unit": m["unit"]}
        for m in wanted if m["name"] in out.metrics
    }
    overhead = out.metrics.get("trace.overhead_ratio", (None,))[0]
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, overhead),
        "inconclusive": out.inconclusive,
        "failures": out.failures,
        "problems": out.problems,
        **out.info,
        **result,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"inconclusive {out.inconclusive}, failed {out.failed} of {out.attempted}")
    for failure in out.failures:
        print("failure:", *failure)
    for problem in out.problems:
        print("CHECK FAILED:", problem)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(names: list[str], args) -> int:
    """Run each workload in its own process; fail if any of them fails."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name, *rest],
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
