"""Tests of the benchmark itself, at tiny scale.

Run from the repository root with ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run_of_each_workload(workload):
    result = _result(_run(
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", "0", "--tiny",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics():
    proc = _run(
        "--workload", "steady_mlp_c432_w2", "--seed", "1", "--seconds", "0",
        "--trace", "1", "--tiny",
    )
    result = _result(proc)
    # the traced and the untraced run of the spec had identical records
    assert result["correct"] is True and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # spans from the pool children reached the parent's table
    assert values["locking.delta.lock_calls"] == values["ec.fitness.fresh_evals"]
    assert values["attacks.muxlink.attack.run_s"] > 0
    assert values["ec.evaluator.worker_busy_ratio"] > 0
    assert values["unattributed_s"] >= 0
    assert "per-layer table" in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert spec["command"] == ["python3", "e2ebench/run.py"]
    assert spec["paths"] == ["e2ebench"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == run.per_layer_units()


def test_metric_names_and_units_use_the_allowed_characters():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_traced_and_untraced_runs_give_the_same_record(tmp_path):
    workload = WORKLOADS["evolve_gnn_c1355"]
    bench = run.Bench(workload, tmp_path, tiny=True)
    import repro.ec.genotype as genotype

    original = genotype.random_genotype
    (ga_seed,) = workload.spec_seeds(3, tiny=True)
    plain = bench.evolve(ga_seed, traced=False)
    traced = bench.evolve(ga_seed, traced=True)
    assert plain.error is None and traced.error is None
    assert plain.record == traced.record
    assert plain.parent_peak_kb > 0 and plain.child_peak_kb == 0
    assert traced.stats["attacks.muxlink.gnn.fit"][0] == traced.fresh
    assert not plain.stats
    # the wrappers are gone once the traced run is over
    assert genotype.random_genotype is original


def _fail_check(message):
    raise AssertionError(message)


def test_checks_run_in_a_child_and_report_failures():
    assert run.run_forked(len, "ok") is None
    verdict = run.run_forked(_fail_check, "champion differs")
    assert "AssertionError: champion differs" in verdict


def test_same_seed_gives_the_same_specs():
    for workload in WORKLOADS.values():
        assert workload.spec_seeds(7) == workload.spec_seeds(7)
        assert workload.spec_seeds(7) != workload.spec_seeds(8)
        assert len(set(workload.spec_seeds(7))) == workload.specs_per_run


def test_reference_size_is_the_engine_default():
    from repro.ec.ga import GaConfig

    default = GaConfig()
    for workload in WORKLOADS.values():
        ref = workload.at_default_size()
        assert (ref.population, ref.generations, ref.elitism) == (
            default.population_size, default.generations, default.elitism
        )
        assert ref.specs_per_run == 1 and ref.circuit == workload.circuit


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "evolve_mlp_c7552", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
