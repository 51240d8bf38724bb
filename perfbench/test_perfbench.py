"""Smoke tests of the benchmark itself, on tiny inputs.

Run with ``python -m pytest perfbench``. Each workload runs at TINY
scale for a fraction of a second; the tests check the output contract,
per-seed determinism of the generated inputs, the nesting of traced
spans and the correctness gates.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dgnnrec.model  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from reference import Reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, name, trace, seed=5):
    return run.run_benchmark(name, seed, 0.2, trace, tmp_path / name, wl.TINY)


def test_spec_names_the_workloads_in_this_package():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    result, record = _run(tmp_path, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted)
    for metric, unit in wanted.items():
        assert got[metric]["unit"] == unit
        assert math.isfinite(got[metric]["value"])
    if not trace:
        assert all(got[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert len(set(record["digests"])) == 1


@pytest.mark.parametrize("name", ["planted-train", "ciao-score"])
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    def files(seed, where):
        inputs = wl.generate(name, seed, tmp_path / where, wl.TINY)
        return {k: Path(p).read_bytes() for k, p in inputs.files.items()}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_traced_spans_nest(tmp_path):
    # Sampling every 2 ms makes the reference kernel interrupt many spans.
    reference = Reference(interval_s=0.002)
    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer)
    try:
        inputs = wl.generate("planted-train", 2, tmp_path, wl.TINY)
        with tracer.span("bench.setup"):
            ready = wl.setup("planted-train", 2, inputs, tmp_path, wl.TINY)
        ready.clock = reference.clock
        with reference.sampling(tracer) as refs, tracer.span("bench.iteration"):
            iteration = wl.planted_train(ready)
    finally:
        restore()
    assert absent == []
    assert len(refs) > 2 and iteration.ops and not any(p for _, p in iteration.ops)
    name_id, parent, start, end = tracer.arrays()
    child = parent >= 0
    assert child.any()
    assert np.all(start[child] >= start[parent[child]])
    assert np.all(end[child] <= end[parent[child]])
    assert np.all(tracer.self_times() >= -1e-9)
    names = {tracer.names[i] for i in name_id}
    assert {"model.forward", "model.layer_step", "model.backward", "diffengine.adam_step",
            "evaluation.evaluate", "bench.reference"} <= names


def test_missing_entry_point_is_reported_absent_and_wrapping_is_undone():
    model = dgnnrec.model
    original = model.forward
    tracer = tracing.Tracer()
    restore, absent = tracing.install(tracer, tracing.ENTRY_POINTS + (
        ("model", "no_such_function", "model.gone"),
        ("no_such_module", "f", "gone.f"),
    ))
    assert model.forward is not original
    restore()
    assert model.forward is original
    assert absent == ["model.no_such_function", "no_such_module.f"]


def test_non_finite_embeddings_fail_the_score_gate(tmp_path):
    inputs = wl.generate("ciao-score", 1, tmp_path, wl.TINY)
    ready = wl.setup("ciao-score", 1, inputs, tmp_path, wl.TINY)
    ready.params.embeddings[:] = np.nan
    ops, quality = [], {}
    wl._score(ready, ready.params, ops, quality, hashlib.sha256(), None)
    assert ops == [("score", "non-finite H*")]
    assert "hr10" not in quality


def test_refuses_to_run_without_the_package_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gradcheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
