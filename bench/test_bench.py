"""Self-tests of the benchmark: its declared form, its metric names, the
tracer's self-time arithmetic, and the independent references its checks
rely on. Run with ``python3 -m pytest bench``."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
END_TO_END = {"setup_s", "op_s", "peak_rss_mb"}


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_its_fixed_form(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["command"] == ["python3", "bench/run.py"]
    assert declared["paths"] == ["bench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(declared["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_metric_names_and_units_are_well_formed(declared):
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_declared_metrics_match_what_the_run_reports(declared):
    import workloads

    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == END_TO_END
    reported = set(spans.Tracer().per_layer()) | {"trace.overhead_s"}
    assert {m["name"] for m in declared["per_layer"]} == reported


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_nested_spans():
    synthetic = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(synthetic) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_and_clips_children():
    synthetic = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),
        _span("z", 9.0, 12.0, 0),
    ]
    assert spans.self_times(synthetic)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recursive_span_counts_its_time_once():
    tracer = spans.Tracer(clock=iter([0.0, 1.0, 2.0, 4.0]).__next__)
    inner = tracer.wrap("uq.scoring", lambda: None)
    outer = tracer.wrap("uq.scoring", lambda: inner())
    tracer.op = 0
    outer()
    layer = tracer.per_layer()
    assert layer["uq.scoring.calls"][0] == 2
    assert layer["uq.scoring.s"][0] == pytest.approx(4.0)
    assert layer["uq.scoring.self_s"][0] == pytest.approx(4.0)


def test_spans_are_recorded_only_inside_an_operation():
    tracer = spans.Tracer()
    traced = tracer.wrap("cli.main", lambda value: value)
    assert traced(3) == 3
    assert tracer.spans == []
    with tracer.operation(7):
        traced(4)
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("cli.main", -1, 7)]


def test_missing_names_are_reported_absent_not_fatal():
    tracer = spans.Tracer()
    tracer.install(package="no_such_package")
    assert "simulator.run_noisy" in tracer.absent
    assert "qelm.FeatureCache.row_features" in tracer.absent
    tracer.uninstall()


def test_install_patches_every_caller_and_uninstall_restores():
    import qelm_lab.cli  # noqa: F401  (the tracer patches imported modules)
    from qelm_lab import mitigation, qelm, simulator

    original = simulator.run_noisy
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qelm.run_noisy is mitigation.run_noisy is simulator.run_noisy
        assert simulator.run_noisy.__wrapped__ is original
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert qelm.run_noisy is original and mitigation.run_noisy is original


def test_mann_whitney_reference_on_a_worked_example():
    u, p, a12 = reference.mann_whitney_exact([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert (u, p, a12) == (0.0, pytest.approx(0.1), 0.0)
    u, _, a12 = reference.mann_whitney_exact([1.0, 1.0, 2.0], [1.0, 2.0, 2.0])
    assert u == pytest.approx(3.0) and a12 == pytest.approx(3.0 / 9.0)


def test_dense_reference_matches_run_noisy_on_a_small_circuit():
    from qelm_lab import circuit as circ
    from qelm_lab.noise import bundled_profile
    from qelm_lab.simulator import run_noisy

    profile = bundled_profile("device-c")
    circuit = circ.Circuit(
        3, (circ.h(0), circ.cx(0, 2), circ.rx(1, 0.4), circ.zz(2, 1, 1.1), circ.ry(0, 2.0))
    )
    gap = np.abs(run_noisy(circuit, profile).entries - reference.dense_noisy(circuit, profile)).max()
    assert gap < 1e-12
