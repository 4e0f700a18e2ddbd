"""Tests of the benchmark's own helpers.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import measure  # noqa: E402
import kernel_cases  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(19) is None
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(50) == 80
    assert measure.tail_percentile(86) == 88
    assert measure.tail_percentile(1000) == 99
    for n in range(20, 400):
        p = measure.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
        assert p == 99 or n * (100 - p - 1) / 100 < 10


def test_percentile_weights_order_statistics():
    assert measure.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert measure.percentile([7], 80) == pytest.approx(7)
    assert measure.percentile(range(11), 80) == pytest.approx(8, abs=0.5)
    # one operation changing rank moves the estimate a little, not a mode's width
    modes = [10.0] * 42 + [20.0] * 44
    shifted = [10.0] * 44 + [20.0] * 42
    gap = measure.percentile(modes, 50) - measure.percentile(shifted, 50)
    assert 0 < gap < 3


def test_pass_samples_weight_speed_factors_by_time():
    assert workloads._pass_sample([(1.0, 2.0), (3.0, 1.0)]) == (4.0, 1.25)
    assert workloads._scaled([(0.5, 2.0)], unit=1e-3) == [1000.0]
    assert workloads._scaled([(0.5, 2.0)], scaled=False) == [0.5]
    assert measure.speed_factor(10.0) < 1e-3  # a slow calibration scales times down
    ref = measure.REFERENCE_CALIBRATION_S
    assert measure.sampled_speed_factor([ref, 4 * ref, 2 * ref]) == pytest.approx(0.5)


def test_run_child_calibrates_while_the_child_runs(tmp_path):
    busy = "import time\nt = time.process_time() + 0.3\nwhile time.process_time() < t: pass"
    run = measure.run_child([sys.executable, "-c", busy], scratch=tmp_path,
                            calibrate_every=0.05)
    assert run.returncode == 0
    assert len(run.calibrations) >= 2
    assert 0.3 <= run.cpu_s <= run.wall_s


def test_self_times_subtract_wrapped_children():
    spans = [
        ("a", 0.0, 10.0, None, 0.0),
        ("b", 1.0, 4.0, 0, 0.0),
        ("c", 5.0, 9.0, 0, 1.0),  # one second of hot leaves directly inside
        ("b", 2.0, 3.0, 1, 0.0),  # b inside b counts once as b's child
    ]
    assert tracing.self_times(spans) == {"a": 3.0, "b": 3.0, "c": 3.0}


def test_tracer_nests_spans_and_leaves(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "_clock", lambda: float(next(ticks)))
    tracer = tracing.Tracer()

    def inner():
        return tracer.leaf("leaf", lambda: tracer.leaf("kernel", lambda: 1, (), {}), (), {})

    def outer():
        # clock reads: outer 0, leaf 1, kernel 2 and 3, leaf 4, child 5 and 6, outer 7
        inner()
        tracer.span("child", lambda: None, (), {})

    tracer.span("outer", outer, (), {})
    selfs = tracing.self_times(tracer.spans)
    assert selfs == {"outer": 7 - 3 - 1, "child": 1.0}
    assert tracer.leaf_self == {"kernel": 1.0, "leaf": 2.0}
    assert tracer.leaf_calls == {"kernel": 1, "leaf": 1}


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        yield tracer
    finally:
        tracing.uninstall()


def test_install_rebinds_every_imported_reference(traced):
    import semireg
    import semireg.engine
    import semireg.group
    from semireg.families import symmetric_group

    grp = symmetric_group(4)
    semireg.engine.minimal_normal_subgroups(grp)
    semireg.minimal_normal_subgroups(grp)
    semireg.group.minimal_normal_subgroups(grp)
    names = [s[0] for s in traced.spans]
    assert names.count("group.minimal_normal_subgroups") == 3
    assert traced.leaf_calls["group.sift"] > 0


def test_uninstall_restores_originals():
    import semireg.engine
    import semireg.perm

    before = (semireg.engine.minimal_normal_subgroups, semireg.perm.Permutation.__mul__)
    tracing.install(tracing.Tracer())
    assert semireg.engine.minimal_normal_subgroups is not before[0]
    tracing.uninstall()
    assert (semireg.engine.minimal_normal_subgroups,
            semireg.perm.Permutation.__mul__) == before


def test_layer_metrics_add_up_to_the_traced_wall(traced):
    import time

    from semireg import EngineConfig, find_semiregular, verify_certificate
    from semireg.families import rook_graph_instance

    t0 = time.perf_counter()
    graph, grp = rook_graph_instance(3)
    cert = find_semiregular(graph, grp, EngineConfig(seed=1))
    assert verify_certificate(graph, grp, cert)[0]
    wall = time.perf_counter() - t0
    metrics = tracing.layer_metrics(traced, wall)
    selfs = [v for k, (v, _unit) in metrics.items() if k.endswith(".self_s")]
    assert min(selfs) >= -1e-9
    assert 0 < sum(selfs) <= wall
    assert metrics["trace.unattributed_s"][0] == pytest.approx(wall - sum(selfs))
    assert metrics["engine.find_semiregular.calls"][0] == 1
    assert metrics["engine.verify_certificate.calls_per_op"][0] == 2
    assert metrics[f"engine.method.{cert.method}"][0] == 1
    assert metrics["group.chain_build.calls"][0] >= 1


def test_kernel_cases_pass_and_reach_every_kernel(traced):
    assert kernel_cases.run_kernel_cases(0) == []
    metrics = tracing.layer_metrics(traced, 1.0)
    kernels = {k: v for k, (v, _unit) in metrics.items()
               if k.startswith("kernels.") and k.endswith(".calls")}
    assert len(kernels) == 6 and all(v >= 1 for v in kernels.values())


def test_counts_are_one_pass_however_many_passes_fit(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(workloads, "time",
                        type("Clock", (), {"perf_counter": staticmethod(lambda: next(ticks))}))

    def one_pass(counts):
        counts.attempted += 3
        counts.fail("a", "PreconditionError", "r=4 is not prime")
        counts.inconclusive += 1
        counts.certified += 1
        counts.problems.append("same problem every pass")
        return "pass"

    out = workloads.Outcome()
    # clock reads 0, then 1 and 2 after the passes: a third would end at 3 > 2.5
    assert workloads._timed_passes(2.5, out, one_pass) == ["pass", "pass"]
    assert (out.attempted, out.failed, out.inconclusive, out.certified) == (3, 1, 1, 1)
    assert out.failures == [["a", "PreconditionError", "r=4 is not prime"]]
    assert out.problems == ["same problem every pass"]


def test_cli_gate_fails_the_run_on_a_rejected_certificate():
    from semireg import EngineConfig, find_semiregular
    from semireg.families import rook_graph_instance
    from semireg.formats import certificate_to_document, document_to_json

    graph, grp = rook_graph_instance(3)
    cert = find_semiregular(graph, grp, EngineConfig(seed=1))
    doc = document_to_json(certificate_to_document(cert, graph, grp, verified=True, seed=1))

    ok = workloads.Outcome()
    workloads._check_find_verify("rook", True, 0, doc, 0, "valid\n", ok)
    assert (ok.attempted, ok.certified, ok.failed, ok.problems) == (2, 1, 0, [])

    rejected = workloads.Outcome()
    workloads._check_find_verify("rook", True, 0, doc, 1, "invalid\n", rejected)
    assert (rejected.certified, rejected.failed) == (0, 1)
    assert rejected.problems  # a wrong certificate fails the run, not only the op

    crashed = workloads.Outcome()
    workloads._check_find_verify("rook", True, 0, doc, 4, "", crashed)
    assert (crashed.failed, crashed.problems) == (1, [])


def test_manifest_fingerprint_ignores_only_the_seed():
    rows = ['{"id": "a", "n": 3, "seed": %d}', '{"id": "b", "n": 4, "seed": %d}']
    fp1, _ = workloads.manifest_fingerprint("\n".join(r % 1 for r in rows), 1)
    fp2, _ = workloads.manifest_fingerprint("\n".join(r % 2 for r in rows), 2)
    assert fp1 == fp2
    bad, _ = workloads.manifest_fingerprint("\n".join(r % 1 for r in rows), 2)
    assert bad != fp1
    other, _ = workloads.manifest_fingerprint(rows[0] % 1, 1)
    assert other != fp1
