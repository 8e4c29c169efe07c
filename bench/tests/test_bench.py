"""Tests of the benchmark itself, on tiny case lists."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from witnesses import WITNESSES  # noqa: E402

sys.path.remove(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]

SMALL_SWEEP = ("f(TMP(3)) cor24", "f(TMP(4)) cor24", "f(M(C4)) lemma26", "f(C5)", "f(C6)")


def _pebblekit_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "pebblekit" or name.startswith("pebblekit.")}


@pytest.fixture(autouse=True)
def small_isolated_runs(monkeypatch):
    """Shrink every workload's case list. ``run.main`` imports pebblekit
    afresh and extends ``sys.path``, so put the session's pebblekit modules
    and path back after each test: later tests see the copy they started
    with."""
    monkeypatch.setattr(workloads, "SWEEP_CASES",
                        [c for c in workloads.SWEEP_CASES if c[0] in SMALL_SWEEP])
    monkeypatch.setattr(workloads, "STRATEGY_CASES", 300)
    monkeypatch.setattr(workloads, "SOLVE_CASES", 300)
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = _pebblekit_modules()
    yield
    for name in _pebblekit_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def smoke(capsys, workload, trace=0, seed=7):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, lines, result = smoke(capsys, workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    assert any(line.startswith("metric fail_ratio 0.0 ratio") for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_wrong_frozen_value_fails_the_run(capsys, monkeypatch):
    cases = [c if c[0] != "f(C5)" else c[:3] + (6,) for c in workloads.SWEEP_CASES]
    monkeypatch.setattr(workloads, "SWEEP_CASES", cases)
    code, lines, result = smoke(capsys, "sweep")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert not any(line.startswith("metric fail_ratio 0.0 ") for line in lines)


def test_corrupted_witness_fails_the_run(capsys, monkeypatch):
    honest = workloads.SolveQueries.run

    def drop_last_move(self, env, case):
        verdict, final = honest(self, env, case)
        if verdict.solvable and len(verdict.witness):
            _, g, _, _, vec = case
            verdict.witness = env.engine.MoveSequence(verdict.witness.moves[:-1])
            final = env.engine.replay(g, env.engine.Distribution.from_vector(g, vec),
                                      verdict.witness)
        return verdict, final

    monkeypatch.setattr(workloads.SolveQueries, "run", drop_last_move)
    code, _, result = smoke(capsys, "solve_queries")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(capsys, workload):
    runs = [smoke(capsys, workload, trace=1, seed=3)[2]["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_frozen_witnesses_are_unsolvable():
    assert run.find_program()
    from pebblekit import graphs

    for key, target, t, counts, _ in WITNESSES:
        g = workloads.GRAPHS[key](graphs)
        index = {str(lab): i for i, lab in enumerate(g.vertices)}
        vec = [0] * g.n
        for label, c in counts.items():
            vec[index[label]] = c
        assert not workloads.reference_solvable(g, vec, index[target], t), (key, counts)
        vec[index[target]] += t
        assert workloads.reference_solvable(g, vec, index[target], t)


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(SPEC["command"] + ["--workload", NAMES[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_private_entry_points_are_skipped(monkeypatch):
    assert run.find_program()
    env = harness.import_program()
    monkeypatch.delattr(env.engine, "_compositions_array")
    tracer = Tracer()
    tracer.install(env)
    tracer.uninstall()
    assert "engine._compositions_array" not in tracer.present
    assert "engine._solve_counts" in tracer.present
