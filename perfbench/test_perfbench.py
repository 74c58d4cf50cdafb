"""Tests of the benchmark itself, on the n ≈ 10³ (``tiny``) workload variants.

Not collected by the tier-1 suite (``testpaths = ["tests"]``) nor by the
``benchmarks/`` harness; run them with::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import PINNED_KEYS, WORKLOADS, load_pins  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_TIMES = [f"{layer}.self_s" for layer in (*layers.LAYERS, "other")]


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


_cache: dict[tuple[str, int], tuple[int, dict]] = {}


def tiny(workload: str, trace: int) -> dict:
    """The result line of a short tiny-scale run (cached per test process)."""
    key = (workload, trace)
    if key not in _cache:
        code, lines = _run(
            "--workload", workload, "--scale", "tiny", "--seed", "3",
            "--seconds", "0", "--trace", str(trace),
        )
        _cache[key] = (code, json.loads(lines[-1]))
    code, result = _cache[key]
    assert code == 0, result
    return result


def _values(result: dict) -> dict[str, float]:
    return {key: metric["value"] for key, metric in result["metrics"].items()}


def test_declaration_matches_harness():
    # thm1-dense is a guard workload the harness runs but BENCHMARK.json
    # does not declare (see README.md).
    assert [w["name"] for w in DECLARED["workloads"]] == [
        name for name in WORKLOADS if name != "thm1-dense"
    ]
    for w in DECLARED["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_pins_cover_every_workload_and_scale():
    pins = load_pins()
    for name, workload in WORKLOADS.items():
        assert set(pins[name]) == set(workload.sizes)
        for rows in pins[name].values():
            assert rows and all(set(row) == set(PINNED_KEYS) for row in rows)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {key: m["unit"] for key, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_self_times_account_for_traced_total(workload):
    values = _values(tiny(workload, 1))
    attributed = sum(values[key] for key in SELF_TIMES)
    assert values["trace.overhead_s"] > 0
    assert abs(attributed - values["trace.total_s"]) <= values["trace.overhead_s"]


@pytest.mark.parametrize("workload", ["thm2-social", "thm3-social"])
def test_edge_theorems_draw_no_permutations(workload):
    assert _values(tiny(workload, 1))["rand.perm_calls"] == 0


def test_zero_communication_theorem_uses_no_comm():
    values = _values(tiny("thm3-social", 1))
    assert values["comm.rounds"] == 0
    assert values["comm.bits"] == 0
    assert values["comm.parallel_calls"] == 0


@pytest.mark.parametrize("workload", ["thm1-social", "thm1-dense"])
def test_vertex_theorem_builds_no_cover_message(workload):
    values = _values(tiny(workload, 1))
    assert values["core.cover_build_calls"] == 0
    assert values["rand.perm_calls"] > 0
    # Both parties build every public permutation.
    assert values["rand.perm_reuse"] == 2.0
    assert 0 < values["core.sample_yield"] <= 1


@pytest.mark.parametrize("workload", ["thm1-social", "thm2-social", "thm3-social"])
def test_corrupted_coloring_is_counted_as_failed(workload):
    code, lines = _run(
        "--workload", workload, "--scale", "tiny", "--seconds", "0", "--corrupt"
    )
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert any("FAILED" in line for line in lines)


def test_count_mismatch_is_a_failure():
    expected = load_pins()["thm1-social"]["tiny"][0]
    record = {"counts": dict(expected)}
    assert run.check_pins(record, expected) == []
    record["counts"]["total_bits"] += 1
    assert run.check_pins(record, expected) == [
        f"total_bits = {expected['total_bits'] + 1}, pinned {expected['total_bits']}"
    ]


def test_times_are_scaled_to_the_reference_host():
    record = {
        "calibration_s": 2 * run.CALIBRATION_REF_S,
        "timings": {"total_s": 4.0, "setup_s": 1.0},
        "peak_mb": 90.0,
        "self_s": {"core": 3.0},
        "layers": {"core.cover_build_s": 2.0, "core.cover_build_calls": 2},
    }
    scaled = run.to_reference(record)
    assert scaled["timings"] == {"total_s": 2.0, "setup_s": 0.5}
    assert scaled["self_s"] == {"core": 1.5}
    assert scaled["layers"] == {"core.cover_build_s": 1.0, "core.cover_build_calls": 2}
    assert scaled["peak_mb"] == 90.0
    assert record["timings"]["total_s"] == 4.0


def test_calibration_calls_nothing_in_the_program():
    import worker

    profile = cProfile.Profile()
    profile.runcall(worker.calibrate)
    profile.create_stats()
    assert not any("repro" in filename for filename, _, _ in profile.stats)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run("--workload", "thm1-social", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)


def test_stamp_fingerprints_code_and_machine():
    stamp = run.stamp()
    assert set(stamp) == {
        "git_sha", "src_sha256", "python", "numpy", "rand_kernels", "nproc", "cpu"
    }
    assert len(stamp["src_sha256"]) == 16 and stamp["nproc"] >= 1


def test_foreign_self_time_is_charged_to_the_callers_layer():
    core_fn = (str(layers._REPRO / "core" / "x.py"), 1, "f")
    graphs_fn = (str(layers._REPRO / "graphs" / "y.py"), 1, "g")
    builtin = ("~", 0, "<built-in method sorted>")
    stats = {
        core_fn: (1, 1, 1.0, 4.0, {}),
        graphs_fn: (1, 1, 2.0, 3.0, {}),
        builtin: (2, 2, 4.0, 4.0, {core_fn: (1, 1, 3.0, 3.0), graphs_fn: (1, 1, 1.0, 1.0)}),
    }
    totals = layers.layer_self_times(stats)
    assert totals["core"] == pytest.approx(4.0)
    assert totals["graphs"] == pytest.approx(3.0)
    assert sum(totals.values()) == pytest.approx(7.0)
