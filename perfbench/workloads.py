"""The three benchmark workloads and the correctness gates they check.

All three are closed loops with one client: the next operation starts when
the previous one has finished.

* ``corpus``: one ``semireg corpus --jobs 1`` process over the default
  86-instance corpus, the batch command users run. It is dominated by coset
  enumeration while the corpus is generated.
* ``structural``: ``find_semiregular`` restricted to the paper's
  normal-quotient routes, then ``verify_certificate``, in process on every
  corpus instance. It never enumerates cosets and is dominated by building
  stabilizer chains inside the normal-subgroup search.
* ``cli``: ``semireg find`` then ``semireg verify`` as separate processes on
  three instances, one for each certificate path (random sampling, full
  enumeration proving none exists, exhaustive hit). It measures per-call
  latency: interpreter start and import, parsing and serialisation, and
  chains built on parsed groups.

Each workload's ``measure`` runs the untraced loop for the end-to-end
metrics; ``trace`` runs one untraced and one traced pass for the per-layer
metrics. Both return an ``Outcome``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import tracing
from kernel_cases import run_kernel_cases
from measure import (
    calibrate,
    percentile,
    run_child,
    sampled_speed_factor,
    speed_factor,
    tail_percentile,
)

SETUP_REPEATS = 3
CALIBRATE_EVERY_S = 0.25  # while a `semireg corpus` process runs
STRUCTURAL_ROUTES = ("prime-power", "quotient-lift", "buddy-swap")

# sha256 over the default corpus: ids, CSR arrays and generator images
CORPUS_FINGERPRINT = "26bdee1ae31922d4230f3c58767855b12fbc8605d0158e0678be69daa68f9b78"
# sha256 over manifest.jsonl rows of `semireg corpus`, without the seed field
MANIFEST_FINGERPRINT = "f9e396520be87f4f5eaee771373b3144f1cef2b3cd4a0722d1beab5e03703958"
# sha256 over the .g6 and .gens files `semireg construct` writes
CLI_FINGERPRINT = "fa686662bb9e8968380a0c82d67130ef804faff65cb08c1427dacb762cf0af45"

# (id, construct arguments, whether a nontrivial semiregular element exists)
CLI_INSTANCES = (
    ("px-p5-r6-s2", ["--family", "px", "--params", "p=5,r=6,s=2"], True),
    ("k12-m11", ["--family", "k12m11"], False),  # M11 on 12 points is elusive
    ("psl2-coset-p29-s1", ["--family", "lemma33", "--params", "p=29,s=1"], True),
)


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float

    @property
    def env(self) -> dict:
        return dict(
            os.environ,
            PYTHONPATH=str(self.root / "src"),
            TMPDIR=str(self.work),
        )

    def cli(self, *args) -> list[str]:
        return [sys.executable, "-m", "semireg.cli", *map(str, args)]

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    inconclusive: int = 0
    certified: int = 0
    problems: list = field(default_factory=list)  # failed correctness gates
    failures: list = field(default_factory=list)  # (instance id, error type, message)
    info: dict = field(default_factory=dict)

    def fail(self, ident: str, kind: str, message: str) -> None:
        self.failed += 1
        self.failures.append([ident, kind, message[:200]])


def _timed_passes(seconds: float, out: Outcome, run_pass) -> list:
    """Run ``run_pass(counts)`` until the next pass would end after
    ``seconds``; at least once. Returns what the passes returned.

    Each pass counts into an ``Outcome`` of its own. ``out`` takes the counts
    of the pass with the most failures, so they are one pass's counts however
    many passes fit in the time, and the failed checks of every pass.
    """
    results, counts = [], []
    start = time.perf_counter()
    while True:
        counted = Outcome()
        results.append(run_pass(counted))
        counts.append(counted)
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            break
    worst = max(counts, key=lambda c: (c.failed, c.inconclusive, -c.certified))
    out.attempted, out.failed = worst.attempted, worst.failed
    out.inconclusive, out.certified = worst.inconclusive, worst.certified
    out.failures = worst.failures
    out.problems += list(dict.fromkeys(p for c in counts for p in c.problems))
    out.info["pass_counts"] = [
        {"attempted": c.attempted, "failed": c.failed,
         "inconclusive": c.inconclusive, "certified": c.certified} for c in counts
    ]
    return results


def _scaled(samples, unit=1.0, scaled=True) -> list[float]:
    """Times from (raw seconds, speed factor) samples, in ``unit`` seconds."""
    return [raw * (k if scaled else 1.0) / unit for raw, k in samples]


def _setup_metric(out: Outcome, samples) -> None:
    out.metrics["setup_s"] = (median(_scaled(samples)), "s")
    out.info["raw_times"] = {"setup_s": median(_scaled(samples, scaled=False))}


def _timing_metrics(out: Outcome, wall, ops, find, verify, count, rss):
    """End-to-end metrics from (raw seconds, speed factor) samples: ``wall``
    has one per pass, the others one per operation. Times are reported at the
    reference speed (``measure.speed_factor``); the raw ones go to the result
    file."""
    for scaled in (False, True):
        times = {
            "wall_s": (median(_scaled(wall, 1, scaled)), "s"),
            "op_ms_p50": (percentile(_scaled(ops, 1e-3, scaled), 50), "ms"),
            "op_ms_p80": (percentile(_scaled(ops, 1e-3, scaled), 80), "ms"),
            "find_ms_p50": (percentile(_scaled(find, 1e-3, scaled), 50), "ms"),
            "verify_ms_p50": (percentile(_scaled(verify, 1e-3, scaled), 50), "ms"),
        }
        if not scaled:
            out.info.setdefault("raw_times", {}).update({k: v for k, (v, _u) in times.items()})
    out.metrics.update(times)
    out.metrics.update({
        "ops": (count, "count"),
        "certified": (out.certified, "count"),
        "peak_rss_mb": (rss, "MB"),
    })
    out.info["samples"] = {
        "passes": len(wall), "ops": len(ops), "find": len(find), "verify": len(verify),
        # the highest percentile of op_ms with at least ten samples beyond it
        "op_ms_tail_percentile": tail_percentile(len(ops)),
    }


def _pass_sample(samples) -> tuple[float, float]:
    """One (raw seconds, speed factor) sample for a pass made of ``samples``."""
    raw = sum(r for r, _k in samples)
    return raw, sum(r * k for r, k in samples) / raw


# -- corpus fingerprints and gates --------------------------------------------


def corpus_fingerprint(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.id.encode() + b"\0")
        h.update(np.asarray(inst.graph.indptr, dtype="<i8").tobytes())
        h.update(np.asarray(inst.graph.indices, dtype="<i8").tobytes())
        for gen in inst.group.generators:
            h.update(np.asarray(gen.images, dtype="<i8").tobytes())
        h.update(b"\1")
    return h.hexdigest()


def manifest_fingerprint(text: str, seed: int) -> tuple[str, list]:
    """Hash of the manifest rows with their seed field removed, and the rows."""
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    h = hashlib.sha256()
    for row in rows:
        if row.get("seed") != seed:
            return "seed field differs from --seed", rows
        h.update(json.dumps({k: v for k, v in row.items() if k != "seed"},
                            sort_keys=True).encode() + b"\n")
    return h.hexdigest(), rows


def sympy_order(group) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup(
        [Permutation([int(x) for x in g.images]) for g in group.generators]
    ).order()


def fresh_group(group):
    """The same group without its cached stabilizer chains."""
    from semireg import PermGroup

    return PermGroup(group.generators, group.degree)


def _check_corpus(instances, out: Outcome) -> None:
    fp = corpus_fingerprint(instances)
    if fp != CORPUS_FINGERPRINT:
        out.problems.append(f"corpus fingerprint {fp} != {CORPUS_FINGERPRINT}")
    for inst in instances:
        expected = sympy_order(inst.group)
        if fresh_group(inst.group).order() != expected:
            out.problems.append(f"{inst.id}: |G| differs from sympy's {expected}")


def _generate_corpus(out: Outcome, repeats: int):
    """corpus_generate() ``repeats`` times; a (raw seconds, speed factor)
    sample for each."""
    from semireg import corpus_generate

    times = []
    for _ in range(repeats):
        before = calibrate()
        t0 = time.perf_counter()
        instances = corpus_generate()
        times.append((time.perf_counter() - t0, speed_factor(before)))
    _check_corpus(instances, out)
    return instances, times


def _check_certificate(inst, method, out: Outcome) -> None:
    if method == "exhausted-none" and inst.known_semiregular is not None:
        out.problems.append(f"{inst.id}: exhausted-none, but a semiregular element is known")


# -- structural ---------------------------------------------------------------


def _structural_pass(ctx: Context, instances, out: Outcome, calibrated: bool = True):
    """find + verify on every instance; (pass, op, find and verify samples).
    Traced passes skip the calibrations, which tracing would count as
    unattributed time."""
    from semireg import EngineConfig, InconclusiveError, find_semiregular, verify_certificate

    groups = [fresh_group(inst.group) for inst in instances]
    ops, find, verify = [], [], []
    for inst, grp in zip(instances, groups):
        config = EngineConfig(routes=STRUCTURAL_ROUTES, seed=ctx.seed, graph_id=inst.id)
        out.attempted += 1
        before = calibrate() if calibrated else None
        t0 = time.perf_counter()
        try:
            cert = find_semiregular(inst.graph, grp, config)
        except InconclusiveError:
            out.inconclusive += 1
            cert = None
        except Exception as exc:  # counted as a failed operation, never hidden
            out.fail(inst.id, type(exc).__name__, str(exc))
            cert = None
        t1 = t2 = time.perf_counter()
        if cert is not None:
            ok, reason = verify_certificate(inst.graph, grp, cert)
            t2 = time.perf_counter()
        k = speed_factor(before) if calibrated else 1.0
        find.append((t1 - t0, k))
        ops.append((t2 - t0, k))
        if cert is not None:
            verify.append((t2 - t1, k))
            if ok:
                out.certified += 1
                _check_certificate(inst, cert.method, out)
            else:
                out.problems.append(f"{inst.id}: certificate does not verify: {reason}")
    return _pass_sample(ops), ops, find, verify


def structural_measure(ctx: Context) -> Outcome:
    import resource

    out = Outcome()
    instances, setup = _generate_corpus(out, SETUP_REPEATS)
    _setup_metric(out, setup)
    passes = _timed_passes(
        ctx.seconds, out, lambda counts: _structural_pass(ctx, instances, counts))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _timing_metrics(
        out,
        [p[0] for p in passes],
        [x for p in passes for x in p[1]],
        [x for p in passes for x in p[2]],
        [x for p in passes for x in p[3]],
        len(instances),
        rss,
    )
    return out


def structural_trace(ctx: Context) -> Outcome:
    out = Outcome()
    instances, _ = _generate_corpus(out, 1)
    plain = Outcome()  # the comparison pass is checked but not counted
    untraced = _structural_pass(ctx, instances, plain, calibrated=False)[0][0]
    out.problems += plain.problems
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        traced = _structural_pass(ctx, instances, out, calibrated=False)[0][0]
        out.problems += run_kernel_cases(ctx.seed)
        wall = time.perf_counter() - t0
    finally:
        tracing.uninstall()
    out.metrics.update(tracing.layer_metrics(tracer, wall))
    out.metrics["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    out.metrics["cli.import_s"] = (median(_scaled(_import_samples(ctx))), "s")
    return out


# -- child processes running semireg.cli.main --------------------------------


def _run_main_child(ctx: Context, name: str, calls: list, trace: bool) -> dict:
    """Run ``semireg.cli.main`` on each call in one child process."""
    job = {
        "src": str(ctx.root / "src"),
        "calls": calls,
        "trace": trace,
        "seed": ctx.seed,
        "out": str(ctx.work / f"{name}.result.json"),
    }
    job_path = ctx.work / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    child = Path(__file__).with_name("child.py")
    run = run_child([sys.executable, str(child), str(job_path)],
                    scratch=ctx.work, env=ctx.env)
    if run.returncode != 0:
        raise RuntimeError(
            f"{name} child exited {run.returncode}: {run.stderr.decode()[-2000:]}")
    return json.loads(Path(job["out"]).read_text())


def _import_samples(ctx: Context) -> list:
    """(raw seconds, speed factor) of ``import semireg`` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        run = run_child([sys.executable, "-c", "import semireg"], scratch=ctx.work, env=ctx.env)
        samples.append((run.wall_s, speed_factor(before)))
        if run.returncode != 0:
            raise RuntimeError(f"import semireg failed: {run.stderr.decode()[-2000:]}")
    return samples


def _trace_children(ctx: Context, out: Outcome, calls_for) -> dict:
    """One untraced and one traced child over the same calls; returns the
    traced child's result after adding its per-layer metrics to ``out``."""
    plain = _run_main_child(ctx, "untraced", calls_for(ctx.fresh_dir("untraced")), False)
    traced = _run_main_child(ctx, "traced", calls_for(ctx.fresh_dir("traced")), True)
    out.problems += traced["problems"]
    out.metrics.update({k: tuple(v) for k, v in traced["metrics"].items()})
    out.metrics["trace.overhead_ratio"] = (
        traced["section_s"] / plain["section_s"] - 1.0, "ratio")
    out.metrics["cli.import_s"] = (median(_scaled(_import_samples(ctx))), "s")
    return traced


# -- corpus -------------------------------------------------------------------


def _check_corpus_output(ctx: Context, outdir: Path, returncode: int, oracle, out: Outcome):
    """Gate one `semireg corpus` output; returns the verify samples."""
    from semireg.cli import EXIT_INCONCLUSIVE
    from semireg.engine import verify_certificate
    from semireg.formats import ParseError, document_to_certificate, parse_certificate_document

    out.attempted += len(oracle)
    manifest = outdir / "manifest.jsonl"
    if returncode == EXIT_INCONCLUSIVE:
        out.inconclusive += len(oracle)
        return []
    if not manifest.exists():
        for inst in oracle:
            out.fail(inst.id, f"exit {returncode}", "no manifest written")
        return []
    fp, rows = manifest_fingerprint(manifest.read_text(), ctx.seed)
    if fp != MANIFEST_FINGERPRINT:
        out.problems.append(f"manifest fingerprint {fp} != {MANIFEST_FINGERPRINT}")
    by_id = {inst.id: inst for inst in oracle}
    verify = []
    for row in rows:
        inst = by_id.get(row["id"])
        if inst is None:
            out.problems.append(f"{row['id']}: not in the default corpus")
            continue
        try:
            doc = parse_certificate_document((outdir / f"{inst.id}.cert.json").read_text())
        except (OSError, ParseError) as exc:
            out.fail(inst.id, type(exc).__name__, str(exc))
            continue
        if not doc["verified"]:
            out.fail(inst.id, "unverified", "certificate marked verified: false")
            continue
        grp = fresh_group(inst.group)
        before = calibrate()
        t0 = time.perf_counter()
        ok, reason = verify_certificate(inst.graph, grp, document_to_certificate(doc))
        verify.append((time.perf_counter() - t0, speed_factor(before)))
        if not ok:
            out.problems.append(f"{inst.id}: certificate does not verify: {reason}")
            continue
        _check_certificate(inst, doc["method"], out)
        out.certified += 1
    if len(rows) != len(oracle):
        out.problems.append(f"manifest has {len(rows)} rows, corpus has {len(oracle)}")
    return verify


def corpus_measure(ctx: Context) -> Outcome:
    out = Outcome()
    _setup_metric(out, _import_samples(ctx))
    oracle, _ = _generate_corpus(out, 1)

    def one_pass(counts):
        outdir = ctx.fresh_dir("corpus-out")
        # the call's CPU time, which is its wall time within about 1% when it
        # runs alone, scaled by the speed sampled while it runs
        before = calibrate()
        run = run_child(ctx.cli("corpus", "--jobs", 1, "--seed", ctx.seed, "--out", outdir),
                        scratch=ctx.work, env=ctx.env, calibrate_every=CALIBRATE_EVERY_S)
        sample = (run.cpu_s, sampled_speed_factor([before, *run.calibrations, calibrate()]))
        verify = _check_corpus_output(ctx, outdir, run.returncode, oracle, counts)
        return sample, verify, run.peak_rss_mb

    passes = _timed_passes(ctx.seconds, out, one_pass)
    calls = [p[0] for p in passes]
    _timing_metrics(
        out,
        calls,
        calls,
        calls,
        [x for p in passes for x in p[1]],
        len(oracle),
        median([p[2] for p in passes]),
    )
    return out


def corpus_trace(ctx: Context) -> Outcome:
    out = Outcome()
    oracle, _ = _generate_corpus(out, 1)
    traced = _trace_children(
        ctx, out,
        lambda d: [{"argv": ["corpus", "--jobs", "1", "--seed", str(ctx.seed),
                             "--out", str(d)], "stdout": None}],
    )
    _check_corpus_output(ctx, ctx.work / "traced", traced["calls"][0]["returncode"],
                         oracle, out)
    return out


# -- cli ------------------------------------------------------------------------


def cli_fingerprint(outdir: Path) -> str:
    h = hashlib.sha256()
    for ident, _args, _known in CLI_INSTANCES:
        h.update((outdir / f"{ident}.g6").read_bytes())
        h.update((outdir / f"{ident}.gens").read_bytes())
    return h.hexdigest()


def _check_constructed(outdir: Path, out: Outcome) -> None:
    from semireg.formats import parse_generators

    fp = cli_fingerprint(outdir)
    if fp != CLI_FINGERPRINT:
        out.problems.append(f"constructed instances fingerprint {fp} != {CLI_FINGERPRINT}")
    for ident, _args, _known in CLI_INSTANCES:
        stated = int(json.loads((outdir / f"{ident}.json").read_text())["group_order"])
        expected = sympy_order(parse_generators((outdir / f"{ident}.gens").read_text()))
        if stated != expected:
            out.problems.append(f"{ident}: |G| = {stated}, sympy says {expected}")


def _cli_setup(ctx: Context, outdir: Path) -> tuple[float, float]:
    """Construct the three instances; a (raw seconds, speed factor) sample."""
    before = calibrate()
    t0 = time.perf_counter()
    for ident, args, _known in CLI_INSTANCES:
        run = run_child(ctx.cli("construct", *args, "--seed", ctx.seed, "--out", outdir),
                        scratch=ctx.work, env=ctx.env)
        if run.returncode != 0:
            raise RuntimeError(f"construct {ident} exited {run.returncode}: "
                               f"{run.stderr.decode()[-2000:]}")
    return time.perf_counter() - t0, speed_factor(before)


def _check_find_verify(ident, known, find_rc, doc_text, verify_rc, verify_out, out: Outcome):
    """Gate one find/verify pair and count it."""
    from semireg.cli import EXIT_INCONCLUSIVE, EXIT_INVALID
    from semireg.formats import ParseError, parse_certificate_document

    out.attempted += 2
    if find_rc != 0:
        if find_rc == EXIT_INCONCLUSIVE:
            out.inconclusive += 1
        else:
            out.fail(ident, f"find exit {find_rc}", "semireg find failed")
        return
    try:
        doc = parse_certificate_document(doc_text)
    except ParseError as exc:
        out.problems.append(f"{ident}: find document is not schema-valid: {exc}")
        return
    if not doc["verified"]:
        out.problems.append(f"{ident}: find document has verified: false")
    if (doc["method"] == "exhausted-none") == known:
        out.problems.append(f"{ident}: method {doc['method']} contradicts the known answer")
    if verify_rc == EXIT_INCONCLUSIVE:
        out.inconclusive += 1
        return
    if verify_rc != 0:
        out.fail(ident, f"verify exit {verify_rc}", verify_out[-200:])
        if verify_rc == EXIT_INVALID:  # the certificate find wrote is wrong
            out.problems.append(f"{ident}: verify rejects the find certificate: "
                                f"{verify_out.strip()[-200:]!r}")
        return
    if verify_out.strip() != "valid":
        out.problems.append(f"{ident}: verify printed {verify_out.strip()!r}")
        return
    out.certified += 1


def _cli_paths(outdir: Path, ident: str):
    return (["--graph", str(outdir / f"{ident}.g6"), "--group", str(outdir / f"{ident}.gens")],
            outdir / f"{ident}.cert.json")


def cli_measure(ctx: Context) -> Outcome:
    out = Outcome()
    setup = []
    for rep in range(SETUP_REPEATS):
        outdir = ctx.fresh_dir(f"cli-{rep}")
        setup.append(_cli_setup(ctx, outdir))
    _setup_metric(out, setup)
    _check_constructed(outdir, out)

    finds, verifies = [], []

    def call(argv, stdout_path=None):
        before = calibrate()
        run = run_child(argv, scratch=ctx.work, env=ctx.env, stdout_path=stdout_path)
        return run, (run.wall_s, speed_factor(before))

    def one_cycle(counts):
        rss = 0.0
        samples = []
        for ident, _args, known in CLI_INSTANCES:
            files, cert_path = _cli_paths(outdir, ident)
            find, find_sample = call(ctx.cli("find", *files, "--seed", ctx.seed), cert_path)
            verify, verify_sample = call(ctx.cli("verify", *files, "--certificate", cert_path))
            finds.append(find_sample)
            verifies.append(verify_sample)
            samples += [find_sample, verify_sample]
            rss = max(rss, find.peak_rss_mb, verify.peak_rss_mb)
            _check_find_verify(
                ident, known, find.returncode, find.stdout.decode(),
                verify.returncode, verify.stdout.decode(), counts)
        return _pass_sample(samples), rss

    cycles = _timed_passes(ctx.seconds, out, one_cycle)
    _timing_metrics(
        out,
        [c[0] for c in cycles],
        finds + verifies,
        finds,
        verifies,
        2 * len(CLI_INSTANCES),
        median([c[1] for c in cycles]),
    )
    return out


def cli_trace(ctx: Context) -> Outcome:
    out = Outcome()

    def calls(outdir: Path) -> list:
        seq = [{"argv": ["construct", *args, "--seed", str(ctx.seed), "--out", str(outdir)],
                "stdout": None} for _ident, args, _known in CLI_INSTANCES]
        for ident, _args, _known in CLI_INSTANCES:
            files, cert_path = _cli_paths(outdir, ident)
            seq.append({"argv": ["find", *files, "--seed", str(ctx.seed)],
                        "stdout": str(cert_path)})
            seq.append({"argv": ["verify", *files, "--certificate", str(cert_path)],
                        "stdout": str(cert_path) + ".verify"})
        return seq

    traced = _trace_children(ctx, out, calls)
    outdir = ctx.work / "traced"
    codes = [c["returncode"] for c in traced["calls"]]
    if any(codes[: len(CLI_INSTANCES)]):
        raise RuntimeError(f"construct exited {codes[: len(CLI_INSTANCES)]}")
    _check_constructed(outdir, out)
    for i, (ident, _args, known) in enumerate(CLI_INSTANCES):
        _files, cert_path = _cli_paths(outdir, ident)
        base = len(CLI_INSTANCES) + 2 * i
        _check_find_verify(
            ident, known, codes[base], cert_path.read_text(), codes[base + 1],
            Path(str(cert_path) + ".verify").read_text(), out)
    return out


WORKLOADS = {
    "corpus": (corpus_measure, corpus_trace),
    "structural": (structural_measure, structural_trace),
    "cli": (cli_measure, cli_trace),
}
