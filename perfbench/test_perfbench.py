"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, tiny runs.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layers      # noqa: E402
import workloads   # noqa: E402
from spans import Span, Tracer, self_times   # noqa: E402

LAYER_MODULES = ("autodiff", "encoder", "matcher", "training", "corpus",
                 "embeddings", "evaluation", "cli", "synthetic")


def tiny(workload):
    """The workload's code path at a size that runs in about a second.

    A model this small does not reach the AUC floor, so the floor is off.
    """
    train = dict(workload.train, d_ce=8, contexts_per_entity=3, max_context_len=12,
                 batch_size=4, epochs=1, pairs_per_epoch=8)
    data = dict(workload.data, clusters=8, contexts_per_entity=8, vocab_size=200,
                tokens_per_context=min(workload.data["tokens_per_context"], 16))
    return replace(workload, data=data, train=train, min_auc=None,
                   trace_ops=2 if workload.serve else 1)


def wrapped_attributes():
    return {(id(owner), attr): getattr(owner, attr, None)
            for owner, attr, *_ in layers.targets()}


# ---------------------------------------------------------------------------
# span arithmetic

def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, "root", 0.0, 10.0, -1, 0),
        Span(1, "a", 1.0, 3.0, 0, 0),
        Span(2, "b", 2.0, 5.0, 0, 0),      # overlaps a: 1..5 covered once
        Span(3, "c", 8.0, 12.0, 0, 0),     # runs past the parent: clipped to 8..10
        Span(4, "a.child", 1.5, 2.5, 1, 0),
        Span(5, "leaf", 6.0, 6.0, 0, 0),   # zero length covers nothing
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[1] == pytest.approx(1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == 0.0


def test_wrapped_calls_nest_and_carry_operation_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    lib = types.SimpleNamespace()
    lib.inner = lambda x: x + 1
    lib.outer = lambda x: lib.inner(x) * 2
    targets = [(lib, "outer", "lib.outer", None, None),
               (lib, "inner", "lib.inner", None, None)]
    with tracer.installed(targets):
        with tracer.operation("one"):
            assert lib.outer(1) == 4
        with tracer.operation("two"):
            assert lib.inner(1) == 2
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("bench.one", -1, 0), ("lib.outer", 0, 0), ("lib.inner", 1, 0),
                     ("bench.two", -1, 1), ("lib.inner", 3, 1)]
    selfs = self_times(tracer.spans)
    # ticks: bench.one 0..5, outer 1..4, inner 2..3
    assert [selfs[i] for i in range(3)] == [2.0, 2.0, 1.0]


def test_installed_restores_after_an_exception_and_skips_missing_names(capsys):
    tracer = Tracer()
    lib = types.SimpleNamespace(f=lambda: 1)
    original = lib.f
    with pytest.raises(ZeroDivisionError):
        with tracer.installed([(lib, "f", "lib.f", None, None),
                               (lib, "gone", "lib.gone", None, None)]):
            assert lib.f is not original
            1 / 0
    assert lib.f is original
    assert not hasattr(lib, "gone")
    assert tracer.missing == ["lib.gone"]
    assert "lib.gone not found" in capsys.readouterr().err


def test_inherited_method_is_restored_to_inheritance():
    class Base:
        def step(self):
            return 1

    class Child(Base):
        pass

    with Tracer().installed([(Child, "step", "child.step", None, None)]):
        assert "step" in vars(Child)
        assert Child().step() == 1
    assert "step" not in vars(Child)


def test_missing_target_drops_only_its_metrics():
    tracer = Tracer()
    tracer.missing = ["autodiff.backward"]
    values, _ = layers.layer_values(tracer)
    assert "autodiff.backward_s" not in values
    assert "autodiff.tape_nodes_per_batch" not in values
    assert "corpus.ingest_s" in values


# ---------------------------------------------------------------------------
# tiny runs of every workload

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_smoke_run(name, tmp_path):
    before = wrapped_attributes()
    session, metrics, extras, samples = workloads.run_untraced(
        tiny(workloads.WORKLOADS[name]), seed=3, seconds=0.0, workdir=str(tmp_path))
    assert session.failed == 0
    assert session.attempted == sum(len(v) for k, v in samples.items() if k != "reference")
    assert all(len(v) == workloads.MIN_SAMPLES for v in samples.values())
    assert set(metrics) == set(workloads.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values()), metrics
    assert 0.0 <= extras["heldout_auc"][0] <= 1.0
    assert wrapped_attributes() == before


def test_auc_below_the_floor_counts_as_a_failed_evaluate(tmp_path, capsys):
    workload = replace(tiny(workloads.WORKLOADS["train_tier1"]), min_auc=1.01)
    session, _, _, samples = workloads.run_untraced(workload, 3, 0.0, str(tmp_path))
    assert session.failed == len(samples["evaluate"]) == workloads.MIN_SAMPLES
    assert "below 1.01" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_layer_and_unwraps(name, tmp_path):
    workload = tiny(workloads.WORKLOADS[name])
    before = wrapped_attributes()
    runs = []
    for i in range(2):
        session, metrics, _ = workloads.run_traced(workload, 3, str(tmp_path / str(i)))
        assert wrapped_attributes() == before
        assert session.failed == 0
        runs.append(metrics)
    assert set(runs[0]) == set(layers.units())
    for module in LAYER_MODULES:
        assert any(k.startswith(module + ".") for k in runs[0]), module
    for key, unit in layers.units().items():
        if unit in ("count", "bytes", "ratio") and not key.startswith("tracing."):
            assert runs[0][key] == runs[1][key], key
    assert runs[0]["autodiff.tape_nodes_per_batch"] > 0
    assert 0.0 < runs[0]["encoder.padded_step_frac"] < 1.0


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command line

def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_tier1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
