"""The benchmark's own tests, on tiny instances (``--quick``).

Run with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run  # first: puts the checkout's src/ on sys.path

import checks  # noqa: E402
import lowrankmf  # noqa: E402
import workloads  # noqa: E402
from lowrankmf import core  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2",
            "--trace", str(trace), "--quick"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    text = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), name
    if not trace:
        assert f"{run.FAIL_FRAC} " in text
    else:
        if workload == "nmf":
            assert result["metrics"]["oracles.proximity_delta_a.calls"]["value"] == 0
        assert "cores" in text and "blas_threads.blas1" in text


def test_all_workloads_in_one_command(capsys):
    argv = ["--workload", "all", "--seed", "1", "--seconds", "0.2", "--quick"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= len(run.WORKLOAD_NAMES)
    assert set(result["metrics"]) == {
        f"{w}.{m}" for w in run.WORKLOAD_NAMES for m in declared("end_to_end")
    }
    for w in run.WORKLOAD_NAMES:
        assert sum(line.startswith(f"workload {w} ") for line in lines) == 1
    assert sum(line.split()[:1] == [run.FAIL_FRAC] for line in lines) == len(run.WORKLOAD_NAMES)


def quick_solve(name="denoise"):
    spec = workloads.QUICK[name]
    inst = workloads.build_instances(spec, None)[0]
    fp, trace = workloads.solve(spec, inst)
    return spec, inst, fp, trace


def test_clean_solve_passes_every_check():
    spec, inst, fp, trace = quick_solve()
    assert checks.check_solve(spec.kind, inst, fp, trace, core.nre(inst.x0, fp)) == []


def test_check_fires_on_objective_increase():
    spec, inst, fp, trace = quick_solve()
    assert trace.iterations >= 3
    trace.records[1].objective = trace.records[0].objective + 1.0
    problems = checks.check_solve(spec.kind, inst, fp, trace, core.nre(inst.x0, fp))
    assert "objective increased at iteration 2" in problems


def test_check_fires_on_wrong_nre():
    spec, inst, fp, trace = quick_solve()
    nre = core.nre(inst.x0, fp)
    problems = checks.check_solve(spec.kind, inst, fp, trace, nre * (1 + 1e-6))
    assert len(problems) == 1 and problems[0].startswith("nre ")


def test_check_fires_on_unconverged_solve(tmp_path):
    spec = workloads.QUICK["complete"]
    workloads.prepare_files(spec, tmp_path)
    inst = workloads.build_instances(spec, tmp_path)[0]
    inst = replace(inst, cfg=replace(inst.cfg, max_iter=2))
    fp, trace = workloads.solve(spec, inst)
    problems = checks.check_solve(spec.kind, inst, fp, trace, core.nre(inst.x0, fp))
    assert "status max_iter" in problems


def test_instance_time_takes_fastest_pass_of_each_iteration():
    a = run.Outcome(seconds=1.0, iter_ms=[300.0, 500.0])
    b = run.Outcome(seconds=1.2, iter_ms=[600.0, 400.0])
    # 0.2 s outside the iterations in both passes, then 300 + 400 ms.
    assert run.instance_seconds([a, b]) == pytest.approx(0.9)
    # Passes that ran different iterations: the fastest whole solve.
    c = run.Outcome(seconds=0.95, iter_ms=[700.0])
    assert run.instance_seconds([a, b, c]) == 0.95


def test_tracer_rebinds_every_binding_and_restores():
    original = core.objective
    tracer = Tracer(["core.objective", "denoise.finish_iteration"])
    with tracer:
        wrapped = lowrankmf.core.objective
        assert wrapped is not original
        for mod in (lowrankmf, lowrankmf.denoise, lowrankmf.completion,
                    lowrankmf.nmf, lowrankmf.oracles):
            assert mod.objective is wrapped
        for mod in (lowrankmf.completion, lowrankmf.nmf):
            assert mod.finish_iteration is lowrankmf.denoise.finish_iteration
        quick_solve("nmf")
    assert lowrankmf.nmf.objective is original
    summary = tracer.summary()
    assert summary["core.objective"]["calls"] > 0
    assert summary["denoise.finish_iteration"]["calls"] > 0


def test_missing_targets_are_absent_not_fatal():
    tracer = Tracer(["core.no_such_function", "no_such_module.f", "core.nre"])
    with tracer:
        quick_solve()
    assert tracer.absent == ["core.no_such_function", "no_such_module.f"]


def test_self_time_is_span_minus_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 7.0, 0],
    ]
    out = self_times(spans)
    assert out["outer"] == {"self_s": 5.0, "calls": 1}
    assert out["inner"] == {"self_s": 4.0, "calls": 2}
    assert out["leaf"] == {"self_s": 1.0, "calls": 1}


def test_fails_without_library_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "denoise",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
