"""Tests of the benchmark itself: python3 -m pytest -q perfbench/test_perfbench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_metric_with_its_unit(trace, section):
    result = last_json(bench("--workload", "analyze", "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC[section]}


def traced(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", "1")
    return {name: m["value"] for name, m in last_json(proc)["metrics"].items()}


@pytest.mark.parametrize("workload", ["analyze", "ceiling"])
def test_traced_counts_repeat_at_a_fixed_seed(workload):
    first, second = traced(workload, 5), traced(workload, 5)
    counts = [name for name in first
              if name.endswith((".calls", ".errors", "distinct_share", ".factorizations",
                                ".chains"))]
    assert len(counts) == 8 * 2 + 4
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["resolvent.calls"] == first["extremal.calls"] == 0
    if workload == "ceiling":
        assert first["dsm.errors"] > 0


def test_evaluate_computes_one_dsm_chain_per_point(tmp_path):
    cli = run.import_cli()
    ops = workloads.build_rounds("evaluate", 7, str(tmp_path), 1)[0]
    one_per_command = [ops[:len(workloads.EVALUATE_COMMANDS)]]
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = run.measure(cli, "evaluate", one_per_command, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert [out.status for _, _, out in records] == ["ok"] * 4
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    assert metrics["dsm.chains"] == workloads.Z_PER_CALL
    assert metrics["dsm.distinct_share"] == 1 / workloads.Z_PER_CALL
    assert metrics["resolvent.calls"] > 0 and metrics["extremal.calls"] > 0


def test_uninstall_restores_the_package():
    cli = run.import_cli()
    before = cli.main
    tracer = Tracer()
    tracer.install()
    assert cli.main is not before
    tracer.uninstall()
    assert cli.main is before


def test_inputs_depend_only_on_the_seed(tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        rounds = workloads.build_rounds("ceiling", seed, str(tmp_path / sub), 2)
        return [Path(op.argvs[0][2]).read_text() for op in rounds[1]]

    first = inputs(9, "a")
    assert first == inputs(9, "b")
    assert first != inputs(10, "c")


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
