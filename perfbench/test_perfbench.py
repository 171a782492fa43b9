"""Tests of the benchmark itself: the tiny profile end to end, the tracer's
install/remove contract, absent targets, and gates kept out of the traces."""

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import tracing
from workloads import TINY, WORKLOADS

run.import_program()


def _session(name, tmp_path):
    return run.Session(WORKLOADS[name].resized(**TINY[name]), 3, str(tmp_path))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_profile_end_to_end(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    session = _session(name, tmp_path)
    values = run.measure_end_to_end(session, seconds=0.0)
    units = run.catalogue("end_to_end")
    result = run.result_line(values, units, session.ops)
    assert session.ops.errors == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(units)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_profile_traced(name, tmp_path):
    session = _session(name, tmp_path)
    values, spans = run.measure_layers(session, seconds=0.0)
    result = run.result_line(values, run.catalogue("per_layer"), session.ops)
    assert session.ops.errors == []
    assert result["correct"]
    assert spans["absent"] == []
    metrics = result["metrics"]
    assert metrics["superres.reconstruct.s"]["value"] > 0
    trains = "gmm.fit_gmm.s" if name == "gmm2d" else "pca_gmm.fit_pcagmm.s"
    assert metrics[trains]["value"] > 0
    if name == "sr2d":
        assert metrics["cli.main.s"]["value"] > 0
    span_metrics = [k for k in metrics if k.endswith((".s", ".calls", ".self_s"))]
    assert all(metrics[k]["value"] >= 0 for k in span_metrics)


def _current(targets):
    import importlib

    return {
        t.path: getattr(importlib.import_module(t.module), t.attr) for t in targets
    }


def test_tracer_restores_every_attribute():
    before = _current(layers.TARGETS)
    tracer = tracing.Tracer(layers.TARGETS)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            during = _current(layers.TARGETS)
            assert all(during[p] is not before[p] for p in before)
            raise RuntimeError("boom")
    after = _current(layers.TARGETS)
    assert all(after[p] is before[p] for p in before)


def test_modules_first_imported_by_the_tracer_bind_originals(monkeypatch):
    import pcagmm
    import pcagmm.superres as superres

    # pcagmm.cli imports `reconstruct` from pcagmm.superres, which is also
    # a target; the import must not capture a wrapper
    monkeypatch.delitem(sys.modules, "pcagmm.cli")
    monkeypatch.delattr(pcagmm, "cli")
    with tracing.Tracer(layers.TARGETS):
        pass
    assert sys.modules["pcagmm.cli"].reconstruct is superres.reconstruct


def test_absent_target_is_reported_not_fatal():
    import pcagmm.linalg as linalg

    targets = (
        tracing.Target("pcagmm.linalg", "removed_by_a_refactor", "linalg.removed"),
        tracing.Target("pcagmm.no_such_module", "f", "gone.f"),
        tracing.Target("pcagmm.linalg", "stiefel_defect", "linalg.stiefel_defect"),
    )
    tracer = tracing.Tracer(targets)
    with tracer:
        linalg.stiefel_defect(np.eye(3)[:, :2])
    assert tracer.absent == [
        "pcagmm.linalg.removed_by_a_refactor",
        "pcagmm.no_such_module.f",
    ]
    totals = tracing.layer_totals(tracer.spans)
    assert totals["linalg.stiefel_defect"]["calls"] == 1
    assert "linalg.removed" not in totals
    assert layers.layer_values([(tracer, 1)])["palm.minimize.calls"] == 0.0


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("op", 0.0, 10.0, -1),
        tracing.Span("a", 1.0, 5.0, 0),
        tracing.Span("b", 2.0, 3.0, 1),
        tracing.Span("b", 6.0, 8.0, 0),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["op"] == {"s": 10.0, "calls": 1, "self_s": 4.0}
    assert totals["a"] == {"s": 4.0, "calls": 1, "self_s": 3.0}
    assert totals["b"] == {"s": 3.0, "calls": 2, "self_s": 3.0}


def test_gates_are_not_traced(tmp_path, monkeypatch):
    import pcagmm.superres as superres

    def traced_layers():
        values, _ = run.measure_layers(_session("gmm2d", tmp_path), seconds=0.0)
        return {k: v for k, v in values.items() if k.endswith(".calls")}

    baseline = traced_layers()
    assert baseline["linalg.try_cholesky.calls"] > 0

    # gates that call a wrapped kernel must not add to its count
    def noisy(gate):
        def check(*args):
            superres.try_cholesky(np.eye(2))
            return gate(*args)

        return check

    monkeypatch.setattr(run.workloads, "check_fit", noisy(run.workloads.check_fit))
    monkeypatch.setattr(
        run.workloads, "check_estimate", noisy(run.workloads.check_estimate)
    )
    assert traced_layers() == baseline


def test_failed_setup_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)

    def broken(*args):
        raise ValueError("no inputs")

    session = run.Session(
        dataclasses.replace(WORKLOADS["img2d"], setup=broken), 3, str(tmp_path)
    )
    values = run.measure_end_to_end(session, seconds=0.0)
    result = run.result_line(values, run.catalogue("end_to_end"), session.ops)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "img2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
