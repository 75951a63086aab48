"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run every workload at tiny sizes (``--smoke``) through the real
command line and check the shape of its result line against
BENCHMARK.json.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.SIZES))
def test_smoke_run_reports_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] is not None


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is nothing
    to measure: exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("--workload", "soc-sum", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("name", list(workloads.SIZES))
def test_inputs_are_seeded(name):
    small = workloads.SMOKE_SIZES[name]
    first = workloads.build(name, 5, **small)
    assert workloads.inputs_digest(first) == \
        workloads.inputs_digest(workloads.build(name, 5, **small))
    assert workloads.inputs_digest(first) != \
        workloads.inputs_digest(workloads.build(name, 6, **small))
    assert workloads.check_seeded(first, 5, **small) is None


def test_absent_target_is_reported_not_raised(monkeypatch):
    import diffcone.derivatives
    original = diffcone.derivatives.solve_m_system
    targets = [t for t in tracing.TARGETS if t[0] != "derivatives.m_solve"]
    targets.append(("derivatives.m_solve", "diffcone.derivatives:gone"))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert diffcone.derivatives.solve_m_system is original
        assert tracer.absent == {"derivatives.m_solve"}
        metrics, _ = tracer.metrics([], (0.0, 0.0), [])
    finally:
        tracer.uninstall()
    assert metrics["derivatives.m_solve_ms"] is None
    assert diffcone.derivatives.solve_m_system is original


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 2.0, 5.0, 0, 0],
                    ["c", 6.0, 7.0, 0, 0], ["d", 3.0, 4.0, 1, 0]]
    assert list(tracer.self_times()) == [6.0, 2.0, 1.0, 1.0]


def test_spans_take_the_side_of_their_enclosing_call():
    tracer = tracing.Tracer()
    tracer.spans = [["layer.forward_batch", 0.0, 9.0, -1, None],
                    ["layer.forward", 1.0, 4.0, 0, 0],
                    ["cones.project", 2.0, 3.0, 1, 0],
                    ["layer.backward", 5.0, 8.0, -1, 0],
                    ["cones.project", 6.0, 7.0, 3, 0]]
    assert tracer.sides() == [None, "forward", "forward", "backward",
                              "backward"]


@pytest.mark.parametrize("name", ["soc-sum", "sparse-qp"])
def test_own_data_check_rejects_a_wrong_output(name):
    """The workload's own check compares the output with its seeded data,
    so a wrong x fails even when the solver's residuals are small."""
    from diffcone import Layer
    wl = workloads.build(name, 4, **workloads.SMOKE_SIZES[name])
    layer = Layer.compile(wl.problems[name])
    bd = wl.bindings[0]
    result = layer.forward(bd.values)
    ref = workloads.reference(layer, bd.values)
    assert workloads.check_forward(wl, layer, bd, result, ref) is None
    result.outputs["x"] = result.outputs["x"] + 1e-3
    assert workloads.check_forward(wl, layer, bd, result, ref) is not None


@pytest.mark.xfail(strict=True, reason="known defect: the solver stops at "
                   "max_iters on a feasible optnet_qp sample")
def test_unfinished_fixture_sample_solves():
    """The case that keeps optnet_qp out of fixture-train.  When the solver
    finishes it, this test passes unexpectedly (and fails, being strict):
    put the fixture back into the workload."""
    import numpy as np
    from diffcone import Layer
    from diffcone.fixtures import optnet_qp_fixture

    fx = optnet_qp_fixture()
    assert fx.name == workloads.UNFINISHED_FIXTURE
    values = fx.sample(np.random.default_rng([101, 3, 207]))
    assert Layer.compile(fx.problem).forward(values).status == "optimal"


def test_hostspeed_scales_by_the_kernel_around_a_stretch():
    import hostspeed

    speed = hostspeed.HostSpeed(share=0.5)
    speed.warm_up(0.0)
    assert speed.previous[0] == 1  # the kernel runs at least once
    speed.previous = (2, 2 * hostspeed.NOMINAL_MS / 1e3)  # nominal before
    factor = speed.follow(0.0)
    calls, seconds = speed.previous
    assert calls == 1
    # the mean call time over both runs, against the nominal one
    mean_ms = 1e3 * (2 * hostspeed.NOMINAL_MS / 1e3 + seconds) / 3
    assert factor == pytest.approx(hostspeed.NOMINAL_MS / mean_ms)
