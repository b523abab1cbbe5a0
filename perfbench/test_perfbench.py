"""Self-test of the benchmark: tiny runs of every workload.

Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.METRICS]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, monkeypatch, tmp_path, workload, trace):
    result = tiny_run(capsys, monkeypatch, tmp_path, workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _drop_last_component(lib, c):
    return lib.ComponentSet.from_vectors(c.n, c.comps[:-1])


def test_corrupted_cli_output_counts_as_failed(capsys, monkeypatch, tmp_path):
    lib = run.import_library()
    import monideal.cli
    emit = monideal.cli.emit_components
    calls = []

    def corrupt_first(c):
        calls.append(c)
        return emit(_drop_last_component(lib, c) if len(calls) == 1 else c)

    monkeypatch.setattr(monideal.cli, "emit_components", corrupt_first)
    result = tiny_run(capsys, monkeypatch, tmp_path, "certified-batch", 0)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_corrupted_engine_output_counts_as_failed(capsys, monkeypatch, tmp_path):
    lib = run.import_library()
    decompose = lib.decompose_recursive
    monkeypatch.setattr(lib, "decompose_recursive",
                        lambda g, **kw: _drop_last_component(lib, decompose(g, **kw)))
    result = tiny_run(capsys, monkeypatch, tmp_path, "nongeneric-dense", 0)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_missing_library_exits_nonzero_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    argv = ["--workload", "certified-batch", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) != 0
    assert '"correct"' not in capsys.readouterr().out
